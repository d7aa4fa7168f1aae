"""The per-request audit trail: every response, attributable.

A :class:`Response` says what a client saw; an :class:`AuditRecord`
says *why* — which shard and replica served it, how many dispatch
attempts it took, which replica faults re-dispatched it on the way,
whether it was the carrier of a fresh index lookup or rode a
batchmate's, and, for rejected requests, exactly which gate turned it
away (admission rate limit, tenant quota, or replica unavailability).

The service and cluster emit one record per response when handed an
:class:`AuditLog` (``audit=None``, the default, emits nothing and
leaves the serving loop byte-identical to an unaudited run). The log
serializes to JSONL sorted by request id with canonical JSON per
line, so the same seeded run always writes the same bytes — the audit
log is part of the determinism contract, not an exception to it.

``scripts/slo_report.py`` joins this log with the span trace and a
metrics snapshot to grade SLOs and attribute chaos damage; the
``redispatches`` blame trail (``"s0r1:crash"``-style entries recorded
at every forced re-dispatch) is what lets it charge burned error
budget to the replica and fault channel that caused it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = ["AuditLog", "AuditRecord", "read_jsonl"]


@dataclass(frozen=True, slots=True)
class AuditRecord:
    """One served (or shed) request, fully attributed.

    Attributes:
        request_id: the workload's arrival-ordered id.
        tenant: traffic source (empty for single-tenant runs).
        kind / target: the query itself.
        status: HTTP-style outcome code (200/404/400/429/503).
        outcome: ``"ok"`` (200), ``"error"`` (4xx answer), or
            ``"shed"`` (429/503 — no answer).
        reason: why a shed happened: ``"admission"`` (rate/queue),
            ``"quota"`` (tenant bucket), ``"unavailable"`` (gave up
            after ``max_dispatch_attempts``); empty for answers.
        source: how the answer was produced (``index`` / ``cache`` /
            ``coalesced`` / ``shed`` / ``quota`` — mirrors
            :attr:`Response.source`).
        coalesce: the request's role in its batch group: ``"carrier"``
            (paid the fresh lookup), ``"hit"`` (batch-time cache hit
            carrier), ``"rider"`` (shared a batchmate's result), empty
            for sheds.
        shard / replica: where the answer came from (empty for
            sheds).
        attempts: dispatch attempts consumed (1 for a first-try
            answer; 0 for front-door sheds that never dispatched).
        redispatches: blame trail of ``"replica:channel"`` fault
            events that forced re-dispatches, in occurrence order.
        arrival_ms / start_ms / completion_ms: the exact virtual
            timeline (identical to the :class:`Response` fields).
        index_version: the snapshot that answered.
    """

    request_id: int
    tenant: str
    kind: str
    target: str
    status: int
    outcome: str
    reason: str
    source: str
    coalesce: str
    shard: str
    replica: str
    attempts: int
    redispatches: tuple[str, ...]
    arrival_ms: float
    start_ms: float
    completion_ms: float
    index_version: str

    @property
    def latency_ms(self) -> float:
        return self.completion_ms - self.arrival_ms

    def to_event(self) -> dict:
        """The JSONL event for this record (lists for tuples)."""
        return {
            "rid": self.request_id,
            "tenant": self.tenant,
            "kind": self.kind,
            "target": self.target,
            "status": self.status,
            "outcome": self.outcome,
            "reason": self.reason,
            "source": self.source,
            "coalesce": self.coalesce,
            "shard": self.shard,
            "replica": self.replica,
            "attempts": self.attempts,
            "redispatches": list(self.redispatches),
            "arrival_ms": self.arrival_ms,
            "start_ms": self.start_ms,
            "completion_ms": self.completion_ms,
            "index_version": self.index_version,
        }


class AuditLog:
    """Collects one serve run's audit records; writes canonical JSONL.

    Emission order inside the serving loop follows completion order,
    which is deterministic — but :meth:`lines` and
    :meth:`write_jsonl` additionally sort by request id so the
    on-disk artifact is trivially diffable against a response list
    and byte-identical across replays.

    The serving loop records through :meth:`emit`, which buffers one
    compact tuple of already-in-hand references per request;
    :class:`AuditRecord` objects materialize lazily on first read
    (:attr:`records`, :meth:`lines`). That keeps the audited hot path
    to a list append — the record construction cost lands on the
    consumer, off the serving path, exactly like a production
    telemetry ring buffer.
    """

    def __init__(self) -> None:
        self._records: list[AuditRecord] = []
        #: deferred emissions: (request, status, outcome, reason,
        #: source, coalesce, shard, replica, attempts, redispatches,
        #: start_ms, completion_ms, index_version)
        self._pending: list[tuple] = []
        #: Callables that backfill deferred emissions on first read
        #: (the serving tier registers its observation-log expansion).
        self._pending_sources: list = []

    def __len__(self) -> int:
        return len(self.records)

    def add_pending_source(self, source) -> None:
        """Register a callable that emits deferred records when the
        log is first read (mirrors
        :meth:`~repro.obs.metrics.MetricsRegistry.add_pending_source`)."""
        self._pending_sources.append(source)

    @property
    def records(self) -> list[AuditRecord]:
        """Every record emitted so far (materializing any buffered)."""
        if self._pending_sources:
            sources, self._pending_sources = self._pending_sources, []
            for source in sources:
                source()
        if self._pending:
            self._drain()
        return self._records

    def _drain(self) -> None:
        pending, self._pending = self._pending, []
        self._records.extend(
            AuditRecord(
                request_id=request.request_id,
                tenant=request.tenant,
                kind=request.kind,
                target=request.target,
                status=status,
                outcome=outcome,
                reason=reason,
                source=source,
                coalesce=coalesce,
                shard=shard,
                replica=replica,
                attempts=attempts,
                redispatches=redispatches,
                arrival_ms=request.arrival_ms,
                start_ms=start_ms,
                completion_ms=completion_ms,
                index_version=index_version,
            )
            for (
                request, status, outcome, reason, source, coalesce,
                shard, replica, attempts, redispatches,
                start_ms, completion_ms, index_version,
            ) in pending
        )

    def add(self, record: AuditRecord) -> None:
        if self._pending:
            self._drain()
        self._records.append(record)

    def emit(
        self,
        request,
        status: int,
        outcome: str,
        reason: str,
        source: str,
        coalesce: str,
        shard: str,
        replica: str,
        attempts: int,
        redispatches: tuple[str, ...],
        start_ms: float,
        completion_ms: float,
        index_version: str,
    ) -> None:
        """Buffer one emission without constructing the record yet.

        ``request`` supplies id/tenant/kind/target/arrival; requests
        are immutable, so holding the reference is safe. This is the
        serving loop's entry point — a single tuple append.
        """
        self._pending.append((
            request, status, outcome, reason, source, coalesce,
            shard, replica, attempts, redispatches,
            start_ms, completion_ms, index_version,
        ))

    def lines(self) -> list[str]:
        """Canonical JSONL lines, sorted by request id."""
        ordered = sorted(self.records, key=lambda r: r.request_id)
        return [
            json.dumps(
                record.to_event(), sort_keys=True, separators=(",", ":")
            )
            for record in ordered
        ]

    def write_jsonl(self, path) -> int:
        """Write every record to ``path``; returns the record count."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.lines():
                handle.write(line)
                handle.write("\n")
        return len(self)


def read_jsonl(path) -> list[dict]:
    """Load every audit event from a JSONL file, as plain dicts."""
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
