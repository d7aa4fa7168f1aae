"""The serving event loop: one index served by N shards × R replicas.

:class:`ClusterService` turns a :class:`~repro.service.index.
LinkStatusIndex` into a request-serving system. The index is
partitioned **by registrable domain** with rendezvous hashing
(:mod:`repro.service.router`) into ``n_shards`` partitions; each shard
runs ``replicas_per_shard`` replicas, and every replica is a full
serving stack of its own — micro-batcher, LRU+TTL result cache,
per-replica metrics registry — reading an immutable
:class:`ShardIndex` view of its partition. The single-node
:class:`~repro.service.server.LinkStatusService` is this loop at one
shard × one replica.

The whole fleet runs on one discrete-event loop over the service's
virtual millisecond clock: admission releases, batch deadlines,
reconfigurations, replica crash/recovery transitions, and
re-dispatches of in-flight requests all interleave at computed
instants under a fixed tie-break order (fault transitions, then batch
deadlines in replica order, then reconfigurations, then
re-dispatches, then admission releases). Every response — status,
body, *and* latency — is therefore a pure function of ``(index,
config, workload, faults)``.

The contract the differential tests pin:

- **Faults off** — the answer surface (:meth:`Response.to_wire`:
  status, body, index version, per request) and the shed set are
  byte-identical for *any* shard/replica count; only timing, which
  follows how requests batch per replica, moves with the topology.
- **Faults on** — replica crashes, partitions, and slow replicas
  degrade latency and shed rate only: every request both runs serve
  gets the same bytes, and fault runs never invent answers — they
  only re-dispatch (latency) or give up after
  ``max_dispatch_attempts`` (a 503 in the shed set).

Admission is global (one token bucket + bounded queue at the router
— that is what keeps the faults-off shed set equal across
topologies), with optional per-tenant quota buckets in front of it.
Per-replica accounting folds into the service registry twice: once
raw (the fleet rollup) and once under ``service.replica.<rid>.`` (the
per-replica families), so the rollup is exactly the sum of the
families. Spans, exemplars, and audit records expand off the serving
path from a compact observation log, on first read.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from contextlib import nullcontext
from dataclasses import dataclass

from ..obs.metrics import DEFAULT_LATENCY_BOUNDS_MS, MetricsRegistry
from ..obs.trace import Tracer
from ..reporting.cdf import ecdf
from .admission import AdmissionController, TokenBucket
from .audit import AuditLog
from .batcher import Batch, MicroBatcher
from .cache import ResultCache
from .faults import ServiceFaultPlan, ServiceFaults
from .index import LinkStatusEntry, LinkStatusIndex
from .reconfig import (
    RECONFIG_LAG_BOUNDS_MS,
    GenerationSwap,
    RebalancePlan,
    ReconfigEvent,
    Reconfiguration,
    apply_delta,
    normalize_schedule,
)
from .router import POLICIES, ReplicaPicker, TenantQuotas, rendezvous_owner, routing_key
from .workload import Request

__all__ = [
    "LATENCY_BOUNDS_MS",
    "ClusterConfig",
    "ClusterResult",
    "ClusterService",
    "Response",
    "ServerConfig",
    "ServiceResult",
    "ShardIndex",
    "answer",
    "key_latency_ms",
]

_UNIT_DENOM = float(2**64)

#: Histogram bounds for virtual response latency, in milliseconds —
#: the service-tier preset from :mod:`repro.obs.metrics` (dense
#: through the single-digit-ms range one lookup lives in).
LATENCY_BOUNDS_MS: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_MS


@dataclass(frozen=True)
class ServerConfig:
    """Capacity and policy knobs for one service instance."""

    #: Token-bucket steady rate (admissions per virtual second).
    rate_rps: float = 2_000.0
    #: Token-bucket burst capacity.
    burst: int = 16
    #: Bounded-queue depth; arrivals past it are shed with a 429.
    queue_limit: int = 64
    #: Micro-batch flush threshold.
    max_batch: int = 8
    #: Micro-batch deadline (virtual ms) — the tail-latency promise.
    max_wait_ms: float = 2.0
    #: Result-cache capacity (entries) and TTL (virtual ms).
    cache_capacity: int = 1_024
    cache_ttl_ms: float | None = 60_000.0
    #: Base virtual cost of one index lookup; each key pays a
    #: deterministic multiplier in [0.5, 1.5) derived from its hash.
    index_latency_ms: float = 4.0
    #: Virtual cost of serving a batch-time cache hit.
    cache_hit_latency_ms: float = 0.5


@dataclass(frozen=True, slots=True)
class Response:
    """One served request: status, body, and exact virtual timing.

    ``source`` says how the answer was produced: ``"index"`` (carrier
    of a fresh lookup), ``"coalesced"`` (shared a batchmate's lookup),
    ``"cache"`` (batch-time cache hit), or ``"shed"`` (429 before any
    computation).
    """

    request_id: int
    status: int
    body: object
    arrival_ms: float
    start_ms: float
    completion_ms: float
    source: str
    index_version: str

    @property
    def latency_ms(self) -> float:
        """Arrival-to-completion virtual latency."""
        return self.completion_ms - self.arrival_ms

    @property
    def shed(self) -> bool:
        """Whether the request was rejected rather than answered.

        429 is admission control (rate/quota); 503 is "no replica of
        the owning shard recovered in time", only under replica chaos.
        """
        return self.status in (429, 503)

    def to_wire(self) -> bytes:
        """The canonical serialized answer — what equivalence means.

        Timing fields are deliberately excluded: the answer surface a
        client sees is ``(status, body, index version)``, and that is
        the surface the differential tests compare byte-for-byte
        across topologies and reconfigurations. Latency is the
        *documented* degradation dimension, not part of the answer.
        """
        return json.dumps(
            {
                "rid": self.request_id,
                "status": self.status,
                "body": self.body,
                "index_version": self.index_version,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")


@dataclass
class ServiceResult:
    """Everything one serving run produced, plus derived rates."""

    responses: list[Response]
    metrics: MetricsRegistry
    index_version: str
    #: Every generation that served during the run, in install order
    #: (initial index first, then each swap). Single-generation runs
    #: carry the one version; ``index_version`` stays the *final*
    #: generation — the one a client connecting now would see.
    index_versions: tuple[str, ...] = ()
    #: Every applied reconfiguration (swap/delta/rebalance), in apply
    #: order, with scheduled vs applied instants — the drain lag the
    #: SLO layer grades via ``events_from_reconfigs``.
    reconfig_events: tuple[ReconfigEvent, ...] = ()

    @property
    def offered(self) -> int:
        return len(self.responses)

    @property
    def completed(self) -> list[Response]:
        """Responses that were actually served (not shed)."""
        return [r for r in self.responses if not r.shed]

    @property
    def shed_ids(self) -> tuple[int, ...]:
        """Request ids rejected by admission control, in id order."""
        return tuple(r.request_id for r in self.responses if r.shed)

    @property
    def shed_rate(self) -> float:
        return len(self.shed_ids) / self.offered if self.offered else 0.0

    @property
    def duration_ms(self) -> float:
        """Virtual makespan: first arrival to last completion."""
        if not self.responses:
            return 0.0
        start = min(r.arrival_ms for r in self.responses)
        end = max(r.completion_ms for r in self.responses)
        return max(end - start, 0.0)

    @property
    def throughput_rps(self) -> float:
        """Served requests per virtual second of makespan."""
        duration_s = self.duration_ms / 1000.0
        return len(self.completed) / duration_s if duration_s > 0 else 0.0

    def latency_quantile(self, q: float) -> float:
        """Virtual latency quantile over served requests (exact ECDF)."""
        completed = self.completed
        if not completed:
            return 0.0
        return ecdf([r.latency_ms for r in completed]).quantile(q)

    @property
    def cache_hit_rate(self) -> float:
        """Share of batch-time cache reads that hit."""
        hits = self.metrics.counter("service.cache.hits").value
        misses = self.metrics.counter("service.cache.misses").value
        total = hits + misses
        return hits / total if total else 0.0

    def as_dict(self) -> dict:
        """JSON-ready digest (what the benchmark records per level)."""
        return {
            "index_version": self.index_version,
            "offered": self.offered,
            "served": len(self.completed),
            "shed": len(self.shed_ids),
            "shed_rate": round(self.shed_rate, 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "p50_ms": round(self.latency_quantile(0.5), 6),
            "p99_ms": round(self.latency_quantile(0.99), 6),
            "cache_hit_rate": round(self.cache_hit_rate, 6),
            "index_lookups": self.metrics.counter(
                "service.index.lookups"
            ).int_value,
            "coalesced": self.metrics.counter(
                "service.batch.coalesced"
            ).int_value,
        }

    def summary(self) -> str:
        """Multi-line digest for logs and the ``repro`` CLI."""
        return "\n".join(
            [
                (
                    f"service index {self.index_version}: "
                    f"{self.offered} offered, {len(self.completed)} served, "
                    f"{len(self.shed_ids)} shed "
                    f"({self.shed_rate:.1%})"
                ),
                (
                    f"latency p50/p99 {self.latency_quantile(0.5):.2f}/"
                    f"{self.latency_quantile(0.99):.2f} ms (virtual); "
                    f"throughput {self.throughput_rps:.0f} rps"
                ),
                (
                    f"cache hit rate {self.cache_hit_rate:.1%}; "
                    f"index lookups "
                    f"{self.metrics.counter('service.index.lookups').int_value}; "
                    f"coalesced "
                    f"{self.metrics.counter('service.batch.coalesced').int_value}"
                ),
            ]
        )


def key_latency_ms(version: str, key: str, base_ms: float) -> float:
    """Virtual cost of one index lookup for ``key`` (pre-fault).

    Base cost times a hash-derived multiplier in [0.5, 1.5): the
    latency *distribution* is non-degenerate (p50 ≠ p99) while each
    key's cost is a pure function of the index version. Every replica
    serves under its parent snapshot's version, so it charges the same
    cost per key at any topology, which is what keeps the faults-off
    latency surface topology-independent.
    """
    digest = hashlib.sha256(f"{version}:{key}".encode("utf-8")).digest()
    unit = int.from_bytes(digest[:8], "big") / _UNIT_DENOM
    return base_ms * (0.5 + unit)


def answer(index: LinkStatusIndex, kind: str, target: str) -> tuple[int, object]:
    """The pure query function the service batches and caches.

    Returns ``(status, body)``; it only reads the immutable index.
    """
    if kind == "url":
        entry = index.lookup(target)
        if entry is None:
            return 404, None
        return 200, entry.to_body()
    if kind == "domain":
        entries = index.by_domain(target)
        if not entries:
            return 404, None
        buckets: dict[str, int] = {}
        for entry in entries:
            buckets[entry.bucket] = buckets.get(entry.bucket, 0) + 1
        return 200, {
            "domain": target,
            "urls": [entry.url for entry in entries],
            "buckets": buckets,
        }
    if kind == "bucket_counts":
        return 200, index.bucket_counts()
    if kind == "quantile":
        metric, _, q_text = target.rpartition(":")
        try:
            value = index.quantile(metric, float(q_text))
        except (KeyError, ValueError):
            return 400, None
        return 200, {"metric": metric, "q": float(q_text), "value": value}
    return 400, None


#: Queries whose shard :meth:`ClusterService.shard_for` memoises. Unknown
#: URLs are often unique hosts, so the memo restarts when full instead
#: of growing with traffic.
_ROUTE_MEMO_CAP = 4096


class ShardIndex:
    """One shard's immutable view of the parent snapshot.

    Point queries (URL, domain) answer from the partition only; the
    aggregate endpoints delegate to the parent's precomputed tables —
    the simulated analogue of shipping every shard the (tiny) offline
    aggregates next to its (large) partition. The shard serves under
    the **parent's** version string: answers are logically answers of
    the whole snapshot, and per-key virtual latency hashes stay
    identical at every topology.
    """

    __slots__ = ("shard_id", "_parent", "_by_url", "_by_domain", "_entries")

    def __init__(
        self,
        parent: LinkStatusIndex,
        shard_id: str,
        entries: tuple[LinkStatusEntry, ...],
    ) -> None:
        self.shard_id = shard_id
        self._parent = parent
        self._entries = entries
        by_url: dict[str, LinkStatusEntry] = {}
        by_domain: dict[str, tuple[LinkStatusEntry, ...]] = {}
        for entry in entries:
            by_url.setdefault(entry.url, entry)
            by_domain[entry.domain] = by_domain.get(entry.domain, ()) + (entry,)
        self._by_url = by_url
        self._by_domain = by_domain

    @property
    def version(self) -> str:
        return self._parent.version

    @property
    def entries(self) -> tuple[LinkStatusEntry, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, url: str) -> LinkStatusEntry | None:
        return self._by_url.get(url)

    def by_domain(self, domain: str) -> tuple[LinkStatusEntry, ...]:
        return self._by_domain.get(domain, ())

    def bucket_counts(self) -> dict[str, int]:
        return self._parent.bucket_counts()

    def metrics(self) -> tuple[str, ...]:
        return self._parent.metrics()

    def distribution(self, metric: str):
        return self._parent.distribution(metric)

    def quantile(self, metric: str, q: float) -> float:
        return self._parent.quantile(metric, q)

    def __repr__(self) -> str:
        return (
            f"ShardIndex({self.shard_id}, {len(self._entries)} entries, "
            f"version={self.version})"
        )


@dataclass(frozen=True)
class ClusterConfig:
    """Fleet topology and routing policy."""

    #: Domain partitions (rendezvous-hashed).
    n_shards: int = 2
    #: Serving replicas per shard.
    replicas_per_shard: int = 2
    #: Replica-selection policy (see :data:`repro.service.router.POLICIES`).
    policy: str = "round_robin"
    #: Seed for the power-of-two candidate draws.
    router_seed: int = 0
    #: Dispatch attempts per request before it sheds with a 503.
    max_dispatch_attempts: int = 4
    #: Extra virtual ms an index lookup pays per request already
    #: outstanding on its replica at flush — the load signal that makes
    #: replica scaling visible in p99. 0 (the default) preserves exact
    #: faults-off latency equivalence across topologies.
    congestion_ms_per_inflight: float = 0.0
    #: Per-tenant admission quotas: tenant -> (rate_rps, burst).
    quotas: dict[str, tuple[float, float]] | None = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.replicas_per_shard < 1:
            raise ValueError("replicas_per_shard must be >= 1")
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown router policy {self.policy!r}; known: {POLICIES}"
            )
        if self.max_dispatch_attempts < 1:
            raise ValueError("max_dispatch_attempts must be >= 1")
        if self.congestion_ms_per_inflight < 0:
            raise ValueError("congestion_ms_per_inflight must be >= 0")


@dataclass
class ClusterResult(ServiceResult):
    """A :class:`ServiceResult` plus the fleet's own accounting."""

    n_shards: int = 1
    replicas_per_shard: int = 1
    policy: str = "round_robin"
    fault_events: tuple = ()
    replica_ids: tuple[str, ...] = ()

    @property
    def redispatches(self) -> int:
        return self.metrics.counter("service.cluster.redispatches").int_value

    @property
    def quota_shed_ids(self) -> tuple[int, ...]:
        """Request ids shed by per-tenant quotas (a subset of 429s)."""
        return tuple(
            r.request_id
            for r in self.responses
            if r.status == 429 and r.source == "quota"
        )

    @property
    def unavailable_ids(self) -> tuple[int, ...]:
        """Request ids shed 503 after exhausting dispatch attempts."""
        return tuple(
            r.request_id for r in self.responses if r.status == 503
        )

    def replica_digest(self) -> dict[str, dict[str, float]]:
        """Per-replica counter families, read back from the registry."""
        digest: dict[str, dict[str, float]] = {}
        for replica_id in self.replica_ids:
            prefix = f"service.replica.{replica_id}."
            counters = self.metrics.counters(prefix)
            digest[replica_id] = {
                name[len(prefix):]: value for name, value in counters.items()
            }
        return digest

    def as_dict(self) -> dict:
        digest = super().as_dict()
        digest.update(
            n_shards=self.n_shards,
            replicas_per_shard=self.replicas_per_shard,
            policy=self.policy,
            redispatches=self.redispatches,
            unavailable=len(self.unavailable_ids),
            quota_shed=len(self.quota_shed_ids),
            fault_events=len(self.fault_events),
        )
        return digest


class _Replica:
    """One replica's private serving state (internal to the cluster)."""

    __slots__ = (
        "replica_id",
        "shard_id",
        "index",
        "config",
        "metrics",
        "batcher",
        "cache",
        "_completions",
    )

    def __init__(
        self,
        replica_id: str,
        shard_id: str,
        index: ShardIndex,
        config: ServerConfig,
    ) -> None:
        self.replica_id = replica_id
        self.shard_id = shard_id
        self.index = index
        self.config = config
        self.metrics = MetricsRegistry()
        self.batcher = MicroBatcher(
            max_batch=config.max_batch,
            max_wait_ms=config.max_wait_ms,
            metrics=self.metrics,
        )
        self.cache = ResultCache(
            capacity=config.cache_capacity,
            ttl_ms=config.cache_ttl_ms,
            metrics=self.metrics,
        )
        self._completions: list[float] = []

    def outstanding(self, now_ms: float) -> int:
        """Dispatched-but-incomplete requests at ``now_ms``."""
        heap = self._completions
        while heap and heap[0] <= now_ms:
            heapq.heappop(heap)
        return self.batcher.pending + len(heap)

    def note_completion(self, completion_ms: float, riders: int) -> None:
        for _ in range(riders):
            heapq.heappush(self._completions, completion_ms)

    def wipe_cache(self) -> None:
        """Cold-start the cache (the crash lost the process)."""
        self.cache = ResultCache(
            capacity=self.config.cache_capacity,
            ttl_ms=self.config.cache_ttl_ms,
            metrics=self.metrics,
        )

    def rebind_metrics(self) -> None:
        """Swap in a fresh registry after a fold (once per serve)."""
        self.metrics = MetricsRegistry()
        self.batcher.metrics = self.metrics
        self.cache.rebind_metrics(self.metrics)


#: Event-type priorities for same-instant ties in the cluster loop.
#: Generation swaps rank after batch deadlines (a batch due at the
#: swap instant still belongs to the old generation) and before
#: re-dispatches and releases (requests placed at the swap instant are
#: served by the new one).
(
    _P_TRANSITION,
    _P_DEADLINE,
    _P_SWAP,
    _P_REDISPATCH,
    _P_RELEASE,
) = (0, 1, 2, 3, 4)


class ClusterService:
    """A simulated fleet serving one immutable index snapshot."""

    def __init__(
        self,
        index: LinkStatusIndex,
        config: ServerConfig = ServerConfig(),
        cluster: ClusterConfig = ClusterConfig(),
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        faults: ServiceFaultPlan | None = None,
        audit: AuditLog | None = None,
    ) -> None:
        self.index = index
        self.config = config
        self.cluster = cluster
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.audit = audit
        self._faults = (
            ServiceFaults(faults)
            if faults is not None and faults.active
            else None
        )
        self._picker = ReplicaPicker(cluster.policy, seed=cluster.router_seed)
        #: One replica per shard: the picker has no choice to make.
        self._solo_replicas = cluster.replicas_per_shard == 1
        #: Whether anything reads replica load: the round-robin policy
        #: and a zero congestion charge never do, so then completions
        #: are not tracked at all.
        self._track_load = (
            cluster.policy != "round_robin"
            or cluster.congestion_ms_per_inflight > 0
        )
        self._quotas = (
            TenantQuotas(dict(cluster.quotas)) if cluster.quotas else None
        )
        self.admission = AdmissionController(
            TokenBucket(rate_per_s=config.rate_rps, burst=float(config.burst)),
            queue_limit=config.queue_limit,
            metrics=self.metrics,
        )

        # -- partition the index ---------------------------------------------------
        self.shard_ids = tuple(
            f"shard-{i}" for i in range(cluster.n_shards)
        )
        #: Routing key -> shard, for every indexed domain and every key
        #: a rebalance moved; other keys fall back to rendezvous hashing.
        self._shard_of: dict[str, str] = {}
        #: (kind, target) -> shard, bounded by _ROUTE_MEMO_CAP and
        #: cleared whenever a rebalance rewrites ``_shard_of``.
        self._route_memo: dict[tuple[str, str], str] = {}
        self.shards: dict[str, ShardIndex] = self._partition(index)

        # -- spin up the replicas --------------------------------------------------
        self.replicas: dict[str, list[_Replica]] = {}
        for si, shard_id in enumerate(self.shard_ids):
            self.replicas[shard_id] = [
                _Replica(
                    f"s{si}r{ri}", shard_id, self.shards[shard_id], config
                )
                for ri in range(cluster.replicas_per_shard)
            ]
        self._all_replicas: tuple[_Replica, ...] = tuple(
            replica
            for shard_id in self.shard_ids
            for replica in self.replicas[shard_id]
        )
        self._batchers = tuple(r.batcher for r in self._all_replicas)
        self.metrics.gauge("service.cluster.shards").set(cluster.n_shards)
        self.metrics.gauge("service.cluster.replicas").set(
            len(self._all_replicas)
        )

        # -- replica fault schedule ------------------------------------------------
        replica_ids = tuple(r.replica_id for r in self._all_replicas)
        self._replica_by_id = {
            r.replica_id: r for r in self._all_replicas
        }
        self.fault_events = (
            self._faults.transitions(replica_ids) if self._faults else ()
        )
        self._pending_reconfigs: list[Reconfiguration] = []
        #: In-progress drained reconfiguration: which replicas still
        #: serve the old binding, what each rebinds to, and the
        #: accounting for the eventual ReconfigEvent.
        self._drain_state: dict | None = None
        self._reconfig_log: list[ReconfigEvent] = []
        self._versions_served: list[str] = [index.version]

    def _partition(self, index: LinkStatusIndex) -> dict[str, ShardIndex]:
        """Partition ``index`` by domain into per-shard views.

        Shares the memoized domain→shard table across generations:
        rendezvous placement depends only on the domain and the shard
        id set, so a domain present in two generations lives on the
        same shard in both — a swap re-snapshots shard *contents*
        without migrating ownership. Only a
        :class:`~repro.service.reconfig.RebalancePlan` rewrites the
        memo and moves keys between shards.
        """
        partitions: dict[str, list[LinkStatusEntry]] = {
            shard_id: [] for shard_id in self.shard_ids
        }
        for entry in index.entries:
            shard_id = self._shard_of.get(entry.domain)
            if shard_id is None:
                shard_id = rendezvous_owner(entry.domain, self.shard_ids)
                self._shard_of[entry.domain] = shard_id
            partitions[shard_id].append(entry)
        return {
            shard_id: ShardIndex(index, shard_id, tuple(entries))
            for shard_id, entries in partitions.items()
        }

    # -- routing -----------------------------------------------------------------

    def shard_for(self, kind: str, target: str) -> str:
        """The shard that owns one query (memoized rendezvous hash)."""
        if len(self.shard_ids) == 1:
            # One shard owns every key (a one-shard tier never rebalances).
            return self.shard_ids[0]
        query = (kind, target)
        shard_id = self._route_memo.get(query)
        if shard_id is None:
            key = routing_key(kind, target)
            shard_id = self._shard_of.get(key)
            if shard_id is None:
                shard_id = rendezvous_owner(key, self.shard_ids)
            if len(self._route_memo) >= _ROUTE_MEMO_CAP:
                self._route_memo.clear()
            self._route_memo[query] = shard_id
        return shard_id

    # -- the serve loop ----------------------------------------------------------

    def serve(self, requests, mode: str = "serial", swaps=None) -> ClusterResult:
        """Replay a workload against the fleet; return every response.

        Responses come back in request-id order. ``mode`` must be
        ``"serial"``, the only execution mode.

        ``swaps`` — optional reconfiguration schedule: legacy
        ``(at_ms, index)`` tuples or
        :class:`~repro.service.reconfig.Reconfiguration` instances
        (``GenerationSwap``, ``DeltaApply``, ``RebalancePlan``),
        validated up front by
        :func:`~repro.service.reconfig.normalize_schedule` (a typed
        :class:`~repro.service.reconfig.ReconfigError` before the
        replay starts). Each reconfiguration is an event on the
        virtual clock, ordered after batch deadlines due at the same
        instant and before re-dispatches and releases. Atomic swaps
        force-flush every replica's open batch against its *old*
        shard view (in-flight requests finish on the generation they
        were admitted under), wipe every cache, and re-partition the
        new index into fresh shard views before the fleet answers from
        the new generation. Drained swaps move the front door at the
        scheduled instant but let each replica finish its queued batch
        under the old binding before rebinding — a per-replica rolling
        cutover, bounded by ``max_wait_ms``. Rebalances migrate routing
        keys between shards within one generation via the same drain
        machinery. No response ever mixes generations — the chaos
        differential tests assert this under replica crash schedules.
        """
        if mode != "serial":
            raise ValueError(f"unknown serve mode {mode!r}")
        self._pending_reconfigs = normalize_schedule(
            swaps, self.index, shard_ids=self.shard_ids
        )
        self._drain_state = None
        self._reconfig_log = []
        self._versions_served = [self.index.version]
        responses: list[Response] = []
        #: re-dispatch queue: (at_ms, seq, attempt, request)
        self._redispatch: list[tuple[float, int, int, Request]] = []
        self._redispatch_seq = 0
        self._pending_transitions = list(self.fault_events)
        #: audit-only attribution state: request id -> fault blame
        #: trail ("replica:channel" per forced re-dispatch) and
        #: re-dispatch counts. Only touched on the (fault-only)
        #: re-queue path, never per dispatch: a request's dispatch-
        #: attempt total is exactly 1 + its re-queue count, because
        #: every queued re-dispatch is popped into one ``_dispatch``
        #: call and the first dispatch comes from admission.
        self._blame: dict[int, list[str]] = {}
        self._requeues: dict[int, int] = {}
        #: Dispatches placed this run, published to the registry once
        #: at the end instead of one counter lookup per dispatch.
        self._dispatches = 0
        #: Compact observation log: one tuple per coalesced group or
        #: shed. Spans, exemplars, and audit records all expand from
        #: it in :meth:`_materialize_observations` on first telemetry
        #: read — the serving loop itself only pays list appends.
        #: ``None`` when neither tracing nor auditing is on, so the
        #: unobserved loop stays byte-identical and cost-identical.
        self._obs_log: list[tuple] | None = (
            [] if (self.tracer is not None or self.audit is not None) else None
        )
        ordered = sorted(requests, key=lambda r: (r.arrival_ms, r.request_id))
        root_cm = (
            self.tracer.span(
                "service",
                kind="service",
                index_version=self.index.version,
                offered=len(ordered),
                shards=self.cluster.n_shards,
                replicas=self.cluster.replicas_per_shard,
                policy=self.cluster.policy,
            )
            if self.tracer is not None
            else nullcontext()
        )
        with root_cm as root:
            for request in ordered:
                self._advance(request.arrival_ms, responses)
                if self._quotas is not None and not self._quotas.admit(
                    request.tenant, request.arrival_ms
                ):
                    self._shed(request, responses, status=429, source="quota")
                    self.metrics.counter("service.cluster.quota_shed").inc()
                    continue
                verdict = self.admission.offer(request, request.arrival_ms)
                if verdict == "admit":
                    self._dispatch(request, request.arrival_ms, responses)
                elif verdict == "shed":
                    self._shed(request, responses, status=429, source="shed")
            self._advance(None, responses)
        responses.sort(key=lambda r: r.request_id)
        if self._dispatches:
            self.metrics.counter("service.cluster.dispatches").inc(
                self._dispatches
            )
        self._fold_replica_metrics()
        if self._obs_log is not None:
            # Hand the run's observation log to whichever telemetry
            # surface is read first: the tracer's spans, the audit
            # log's records, and the registry's snapshot all trigger
            # the same once-only expansion. Captured by value so a
            # later serve() on this instance cannot disturb it. The
            # root span's id rides along: the expansion runs after
            # that span has closed, under whatever span is open then.
            log, self._obs_log = self._obs_log, None
            blame, requeues = self._blame, self._requeues
            root_id = root.span_id if root is not None else None
            expanded = False

            def materialize() -> None:
                nonlocal expanded
                if expanded:
                    return
                expanded = True
                self._materialize_observations(log, blame, requeues, root_id)

            if self.tracer is not None:
                self.tracer.add_pending_source(materialize)
            if self.audit is not None:
                self.audit.add_pending_source(materialize)
            self.metrics.add_pending_source(materialize)
        return ClusterResult(
            responses=responses,
            metrics=self.metrics,
            index_version=self.index.version,
            index_versions=tuple(self._versions_served),
            n_shards=self.cluster.n_shards,
            replicas_per_shard=self.cluster.replicas_per_shard,
            policy=self.cluster.policy,
            fault_events=self.fault_events,
            replica_ids=tuple(r.replica_id for r in self._all_replicas),
            reconfig_events=tuple(self._reconfig_log),
        )

    def _fold_replica_metrics(self) -> None:
        """Publish per-replica families plus the exact fleet rollup."""
        for replica in self._all_replicas:
            self.metrics.merge(replica.metrics)
            self.metrics.merge_prefixed(
                replica.metrics, f"service.replica.{replica.replica_id}."
            )
            replica.rebind_metrics()  # each registry folds exactly once

    # -- the event loop ----------------------------------------------------------

    def _next_event(self) -> tuple[float, int, int] | None:
        """The earliest due event as ``(time, priority, index)``.

        ``index`` identifies the event within its type: the replica's
        position for deadlines, zero otherwise. The fixed priority
        order — transitions, deadlines, reconfigurations,
        re-dispatches, releases — resolves same-instant ties
        deterministically (a closing batch beats a token release).
        Candidates are scanned in priority order, so a later one wins
        only when strictly earlier.
        """
        best_ms, priority, index = None, 0, 0
        if self._pending_transitions:
            best_ms = self._pending_transitions[0].at_ms
        # The earliest deadline, lowest replica position on ties.
        for position, batcher in enumerate(self._batchers):
            deadline = batcher.deadline_ms
            if deadline is not None and (best_ms is None or deadline < best_ms):
                best_ms, priority, index = deadline, _P_DEADLINE, position
        if self._pending_reconfigs:
            at_ms = self._pending_reconfigs[0].at_ms
            if best_ms is None or at_ms < best_ms:
                best_ms, priority, index = at_ms, _P_SWAP, 0
        if self._redispatch:
            at_ms = self._redispatch[0][0]
            if best_ms is None or at_ms < best_ms:
                best_ms, priority, index = at_ms, _P_REDISPATCH, 0
        release = self.admission.next_release_ms()
        if release is not None and (best_ms is None or release < best_ms):
            best_ms, priority, index = release, _P_RELEASE, 0
        return None if best_ms is None else (best_ms, priority, index)

    def _advance(
        self, now_ms: float | None, responses: list[Response]
    ) -> None:
        """Run every due event in (time, priority) order up to
        ``now_ms`` (``None`` = run them all)."""
        while True:
            event = self._next_event()
            if event is None:
                return
            at_ms, priority, position = event
            if now_ms is not None and at_ms > now_ms:
                return
            if priority == _P_TRANSITION:
                self._apply_transition(responses)
            elif priority == _P_DEADLINE:
                replica = self._all_replicas[position]
                batch = replica.batcher.flush_due(at_ms)
                if batch is not None:
                    self._execute(replica, batch, responses)
            elif priority == _P_SWAP:
                op = self._pending_reconfigs.pop(0)
                self._begin_reconfig(op, responses)
            elif priority == _P_REDISPATCH:
                at, _, attempt, request = heapq.heappop(self._redispatch)
                self._dispatch(
                    request, at, responses, attempt=attempt
                )
            else:
                request, ready_ms = self.admission.release_one()
                self._dispatch(request, ready_ms, responses)

    def _apply_transition(self, responses: list[Response]) -> None:
        """One replica state change: crash/partition onsets drain the
        replica's open batch back to the router; crashes also cold the
        cache. Recovery instants need no action — availability is a
        pure function of time."""
        event = self._pending_transitions.pop(0)
        self.metrics.counter(
            f"service.cluster.transitions.{event.kind}"
        ).inc()
        if event.kind not in ("crash", "partition"):
            return
        replica = self._replica_by_id[event.replica_id]
        if event.kind == "crash":
            replica.wipe_cache()
        cause = f"{event.replica_id}:{event.kind}"
        for item in replica.batcher.drain():
            self._requeue(item.request, event.at_ms, causes=(cause,))
        if self._drain_state is not None:
            # The batch this replica was draining a reconfiguration
            # behind just went back to the router — nothing holds the
            # old binding any more, so the cutover lands here.
            self._finish_replica_drain(replica, event.at_ms)

    def _begin_reconfig(
        self, op: Reconfiguration, responses: list[Response]
    ) -> None:
        """Apply one scheduled reconfiguration at ``op.at_ms``.

        A reconfiguration that lands while an earlier drain is still
        in flight preempts it: every still-draining replica
        force-flushes under its old binding and rebinds first, so at
        most one drain is ever outstanding and bindings apply in
        schedule order.
        """
        if self._drain_state is not None:
            self._force_finish_drain(op.at_ms, responses)
        if isinstance(op, RebalancePlan):
            self._apply_rebalance(op, responses)
            return
        old_version = self.index.version
        new_index = (
            op.index
            if isinstance(op, GenerationSwap)
            else apply_delta(self.index, op.delta)
        )
        if not op.drain:
            # Atomic fleet-wide cutover (the pre-existing swap
            # semantics): every live replica's open batch
            # force-flushes against its old shard view — groups lost
            # to an in-flight failure re-dispatch as usual and will
            # be answered by the new generation; they never produced
            # old-generation bytes — every cache is wiped, and the
            # new index is re-partitioned into fresh shard views
            # bound to the same replicas.
            for replica in self._all_replicas:
                batch = replica.batcher.flush_now(op.at_ms)
                if batch is not None:
                    self._execute(replica, batch, responses)
            self._install_generation(new_index)
            for replica in self._all_replicas:
                replica.index = self.shards[replica.shard_id]
                replica.wipe_cache()
            self._record_reconfig(op, old_version, new_index.version,
                                  op.at_ms, drained=0)
            return
        # Rolling drained cutover: the front door (routing, shed
        # labels, new dispatches' target generation) moves now, but a
        # replica with an open batch finishes it under the old
        # binding at the batch's own flush instant — bounded by the
        # batcher's max_wait_ms — and only then rebinds. Replicas cut
        # over one by one; every response derives from (and is
        # labeled with) its replica's actual binding, so none mixes
        # generations.
        self._install_generation(new_index)
        binds: dict[str, tuple[ShardIndex, bool]] = {}
        for replica in self._all_replicas:
            view = self.shards[replica.shard_id]
            if replica.batcher.deadline_ms is not None:
                binds[replica.replica_id] = (view, True)
            else:
                replica.index = view
                replica.wipe_cache()
        self._start_drain(op, binds, old_version, new_index.version)

    def _install_generation(self, new_index: LinkStatusIndex) -> None:
        """Move the front door to ``new_index`` (no replica rebinds)."""
        self.index = new_index
        self.shards = self._partition(new_index)
        self._versions_served.append(new_index.version)
        self.metrics.counter("service.swaps").inc()

    def _apply_rebalance(
        self, op: RebalancePlan, responses: list[Response]
    ) -> None:
        """Migrate ``op.moves`` routing keys between shards, live.

        The generation does not change — only ownership does — which
        is what makes a correct rolling cutover possible at all:

        - routing flips at ``op.at_ms``, so new requests for a moved
          key dispatch to its *gaining* shard;
        - a shard that only **gains** keys rebinds instantly, open
          batch and all: its new view is a superset of the old one
          under the same generation, so every queued answer is
          unchanged and moved-key requests find their entries;
        - a shard that **loses** keys must keep its old view until
          its open batch closes (the batch may hold moved-key
          requests that still need the departing entries), so it
          rebinds through the drain machinery — or force-flushes,
          when ``op.drain`` is off or when the shard *also* gains
          keys (its stale view would 404 freshly routed arrivals);
        - caches are never wiped: a cached body is a pure function of
          (generation, key), and the generation is unchanged.
        """
        version = self.index.version
        losers: set[str] = set()
        gainers: set[str] = set()
        for key, target in op.moves:
            source = self._shard_of.get(key)
            if source is None:
                source = rendezvous_owner(key, self.shard_ids)
            if source != target:
                losers.add(source)
                gainers.add(target)
            self._shard_of[key] = target
        self._route_memo.clear()
        self.shards = self._partition(self.index)
        drainable = losers - gainers
        binds: dict[str, tuple[ShardIndex, bool]] = {}
        for replica in self._all_replicas:
            view = self.shards[replica.shard_id]
            in_losers = replica.shard_id in losers
            must_flush = in_losers and (
                not op.drain or replica.shard_id not in drainable
            )
            if must_flush:
                batch = replica.batcher.flush_now(op.at_ms)
                if batch is not None:
                    self._execute(replica, batch, responses)
                replica.index = view
            elif (
                in_losers
                and replica.batcher.deadline_ms is not None
            ):
                binds[replica.replica_id] = (view, False)
            else:
                replica.index = view
        moved = len(op.moves)
        self.metrics.counter(
            "service.cluster.rebalanced_keys"
        ).inc(moved)
        self._start_drain(op, binds, version, version, moved)

    def _start_drain(
        self,
        op: Reconfiguration,
        binds: dict[str, tuple[ShardIndex, bool]],
        from_version: str,
        to_version: str,
        moved: int = 0,
    ) -> None:
        """Record ``op`` now, or leave it draining behind the replicas
        in ``binds`` (replica id -> (new view, wipe cache)) that still
        hold an open batch under their old binding."""
        if not binds:
            self._record_reconfig(op, from_version, to_version, op.at_ms,
                                  drained=0, moved_keys=moved)
            return
        self._drain_state = {
            "op": op,
            "binds": binds,
            "pending": set(binds),
            "last_ms": op.at_ms,
            "drained": 0,
            "from": from_version,
            "to": to_version,
            "moved": moved,
        }

    def _finish_replica_drain(
        self, replica: "_Replica", at_ms: float
    ) -> None:
        """Cut one draining replica over to its pending binding.

        Called when the replica's queued batch closes (flush or
        fault-drain). When the last pending replica rebinds, the
        drain resolves and its :class:`ReconfigEvent` is recorded
        with ``applied_ms`` = that final cutover instant.
        """
        state = self._drain_state
        if state is None or replica.replica_id not in state["pending"]:
            return
        state["pending"].discard(replica.replica_id)
        view, wipe = state["binds"][replica.replica_id]
        replica.index = view
        if wipe:
            replica.wipe_cache()
        state["last_ms"] = max(state["last_ms"], at_ms)
        state["drained"] += 1
        if not state["pending"]:
            self._drain_state = None
            self._record_reconfig(
                state["op"], state["from"], state["to"],
                state["last_ms"], state["drained"], state["moved"],
            )

    def _force_finish_drain(
        self, at_ms: float, responses: list[Response]
    ) -> None:
        """Preempt an unfinished drain: flush every still-pending
        replica under its old binding and rebind it at ``at_ms``."""
        state = self._drain_state
        if state is None:
            return
        for replica_id in sorted(state["pending"]):
            replica = self._replica_by_id[replica_id]
            batch = replica.batcher.flush_now(at_ms)
            if batch is not None:
                self._execute(replica, batch, responses)
            if (
                self._drain_state is state
                and replica_id in state["pending"]
            ):
                self._finish_replica_drain(replica, at_ms)

    def _record_reconfig(
        self,
        op: Reconfiguration,
        from_version: str,
        to_version: str,
        applied_ms: float,
        drained: int,
        moved_keys: int = 0,
    ) -> None:
        event = ReconfigEvent(
            kind=op.kind,
            scheduled_ms=op.at_ms,
            applied_ms=applied_ms,
            from_version=from_version,
            to_version=to_version,
            drained_batches=drained,
            moved_keys=moved_keys,
        )
        self._reconfig_log.append(event)
        self.metrics.counter("service.reconfig.applied").inc()
        self.metrics.counter(f"service.reconfig.{op.kind}").inc()
        self.metrics.histogram(
            "service.reconfig.lag_ms", RECONFIG_LAG_BOUNDS_MS
        ).observe(event.lag_ms)

    def _requeue(
        self,
        request: Request,
        at_ms: float,
        attempt: int = 1,
        causes: tuple[str, ...] = (),
    ) -> None:
        self._redispatch_seq += 1
        heapq.heappush(
            self._redispatch,
            (at_ms, self._redispatch_seq, attempt, request),
        )
        self.metrics.counter("service.cluster.redispatches").inc()
        if self._obs_log is not None:
            rid = request.request_id
            self._requeues[rid] = self._requeues.get(rid, 0) + 1
        if causes and self.audit is not None:
            self._blame.setdefault(request.request_id, []).extend(causes)
        if causes and self.tracer is not None:
            for cause in causes:
                replica_id, _, channel = cause.partition(":")
                self.tracer.defer_span(
                    "redispatch",
                    kind="service.redispatch",
                    rid=request.request_id,
                    replica=replica_id,
                    channel=channel,
                    at_ms=at_ms,
                )

    def _shed(
        self,
        request: Request,
        responses: list[Response],
        status: int,
        source: str,
        at_ms: float | None = None,
    ) -> None:
        self.metrics.counter("service.requests.shed").inc()
        if status == 503:
            self.metrics.counter("service.cluster.unavailable_shed").inc()
        completion = at_ms if at_ms is not None else request.arrival_ms
        if self._obs_log is not None:
            # Shed entries are tagged by a None replica slot. The
            # serving generation is captured per entry: materialization
            # happens after the run, when only the final index remains.
            self._obs_log.append(
                (None, request, status, source, completion,
                 self.index.version)
            )
        responses.append(
            Response(
                request_id=request.request_id,
                status=status,
                body=None,
                arrival_ms=request.arrival_ms,
                start_ms=request.arrival_ms,
                completion_ms=completion,
                source=source,
                index_version=self.index.version,
            )
        )

    # -- dispatch and execution --------------------------------------------------

    def _dispatch(
        self,
        request: Request,
        ready_ms: float,
        responses: list[Response],
        attempt: int = 0,
    ) -> None:
        """Place one admitted request on a replica of its shard."""
        shard_id = self.shard_for(request.kind, request.target)
        alive = self.replicas[shard_id]
        if self._faults is not None:
            alive = [
                replica
                for replica in alive
                if self._faults.available(replica.replica_id, ready_ms)
            ]
        if not alive:
            if attempt + 1 >= self.cluster.max_dispatch_attempts:
                self._shed(
                    request, responses, status=503, source="shed",
                    at_ms=ready_ms,
                )
                return
            # Every replica of the shard is down: wait for the first
            # one back. The wake-up instant is a pure function of the
            # fault schedule, so the retry replays exactly.
            wake = min(
                self._faults.next_available_at(replica.replica_id, ready_ms)
                for replica in self.replicas[shard_id]
            )
            causes = tuple(
                f"{r.replica_id}:"
                f"{self._faults.unavailable_channel(r.replica_id, ready_ms) or 'unavailable'}"
                for r in self.replicas[shard_id]
            )
            self._requeue(request, wake, attempt + 1, causes=causes)
            return
        if self._solo_replicas:
            # Every policy picks the only replica of a one-replica shard.
            replica = alive[0]
        else:
            outstanding = (
                [replica.outstanding(ready_ms) for replica in alive]
                if self._track_load
                else []
            )
            replica = alive[
                self._picker.pick(
                    shard_id,
                    len(alive),
                    outstanding,
                    request.request_id,
                    attempt=attempt,
                )
            ]
        self._dispatches += 1
        batch = replica.batcher.add(request, ready_ms)
        if batch is not None:
            self._execute(replica, batch, responses)

    def _execute(
        self, replica: _Replica, batch: Batch, responses: list[Response]
    ) -> None:
        """Resolve one flushed batch on one replica.

        Cache pass, coalesced lookups, latency assignment, emission —
        plus the replica-level fault geometry: lookups pay the
        replica's slow/catch-up multipliers and congestion, and any
        group whose completion lands past the replica's next failure
        onset is *lost in flight*: its requests go back to the router
        at the failure instant instead of producing responses.
        """
        faults = self._faults
        flush_ms = batch.flush_ms
        groups = batch.groups
        rid = replica.replica_id
        metrics = replica.metrics
        cache = replica.cache
        version = replica.index.version
        failure = faults.next_failure(rid, flush_ms) if faults else None
        fail_at, fail_channel = failure if failure else (None, "")
        slow = faults.slow_factor(rid) if faults else 1.0
        catchup = faults.catchup_factor(rid, flush_ms) if faults else 1.0
        congestion_ms = (
            self.cluster.congestion_ms_per_inflight
            * replica.outstanding(flush_ms)
            if self._track_load
            else 0.0
        )

        # Cache pass (order = first-arrival order).
        resolved: dict[str, tuple[int, object]] = {}
        latency: dict[str, float] = {}
        spike: dict[str, float] = {}
        jobs: list[str] = []
        for key in groups:
            if faults is not None and faults.cache_lost(key, rid):
                metrics.counter("service.cache.faults").inc()
                hit = None
            else:
                hit = cache.get(key, flush_ms)
            if hit is not None:
                resolved[key] = hit
                latency[key] = self.config.cache_hit_latency_ms
            else:
                jobs.append(key)

        # Index pass: pure lookups of the frozen shard view.
        base_ms = self.config.index_latency_ms
        for key in jobs:
            carrier = groups[key][0].request
            resolved[key] = answer(replica.index, carrier.kind, carrier.target)
            cost_ms = key_latency_ms(version, key, base_ms)
            if faults is not None:
                spiked = faults.spike_ms(key, rid)
                if spiked:
                    metrics.counter("service.index.spikes").inc()
                    spike[key] = spiked
                cost_ms = cost_ms * slow * catchup + spiked
            latency[key] = cost_ms + congestion_ms
        if jobs:
            metrics.counter("service.index.lookups").inc(len(jobs))

        # Emission pass: responses, counters, spans — or loss.
        fresh = set(jobs)
        ok = failed = 0
        observe = None
        for key, items in groups.items():
            completion_ms = flush_ms + latency[key]
            if fail_at is not None and completion_ms > fail_at:
                # The replica dies under this group: everything it was
                # computing is lost; the router re-dispatches at the
                # failure instant. No response, no cache write.
                metrics.counter("service.cluster.lost_inflight").inc(
                    len(items)
                )
                cause = f"{rid}:{fail_channel}"
                for item in items:
                    self._requeue(item.request, fail_at, causes=(cause,))
                continue
            outcome = resolved[key]
            status, body = outcome
            if key in fresh:
                cache.put(key, outcome, flush_ms)
            if self._track_load:
                replica.note_completion(completion_ms, len(items))
            if self._obs_log is not None:
                # One compact entry per coalesced group; spans,
                # exemplars, and audit records expand from it in
                # _materialize_observations, off the serving path.
                # The generation serving the group rides along — the
                # replica's *own* binding, not the front door's:
                # during a rolling drain the fleet index has already
                # moved while this batch still answers from the old
                # generation.
                self._obs_log.append((
                    replica, key, items, status, completion_ms,
                    key in fresh, latency[key], spike.get(key, 0.0),
                    version,
                ))
            if status == 200:
                ok += len(items)
            else:
                failed += len(items)
            if observe is None:
                observe = metrics.histogram(
                    "service.latency_ms", LATENCY_BOUNDS_MS
                ).observe
            source = "index" if key in fresh else "cache"
            for item in items:
                request = item.request
                observe(completion_ms - request.arrival_ms)
                responses.append(
                    Response(
                        request_id=request.request_id,
                        status=status,
                        body=body,
                        arrival_ms=request.arrival_ms,
                        start_ms=item.ready_ms,
                        completion_ms=completion_ms,
                        source=source,
                        index_version=version,
                    )
                )
                source = "coalesced"
        if ok:
            metrics.counter("service.requests.ok").inc(ok)
        if failed:
            metrics.counter("service.requests.failed").inc(failed)
        if self._drain_state is not None:
            # The queued batch has finished under the old binding;
            # this replica's drained cutover lands at its flush
            # instant (a membership no-op for replicas not draining).
            self._finish_replica_drain(replica, flush_ms)

    def _materialize_observations(
        self,
        log: list[tuple],
        blame: dict[int, list[str]],
        requeues: dict[int, int],
        root_id: str | None,
    ) -> None:
        """Expand one serve run's observation log into spans,
        exemplars, and audit records.

        Runs exactly once, on the first read of any telemetry
        surface, off the measured serving path. Entries replay in
        event order, so every derived artifact is as deterministic as
        the log itself. Blame trails and re-queue counts are frozen by
        the time a request's entry exists (a request that produced a
        response or a shed is never dispatched again), so reading
        them here matches what eager emission would have recorded;
        dispatch attempts reconstruct as 1 + the re-queue count for
        any request that reached a replica or exhausted its attempts
        (front-door sheds never dispatched, so they report 0). Request
        spans hang under the run's root span ``root_id``.
        """
        tracer = self.tracer
        audit = self.audit
        rollup = self.metrics.histogram(
            "service.latency_ms", LATENCY_BOUNDS_MS
        )
        replica_hists: dict[str, object] = {}
        for entry in log:
            replica = entry[0]
            if replica is None:
                _, request, status, source, completion, version = entry
                rid = request.request_id
                if tracer is not None:
                    tracer.defer_span(
                        "request",
                        kind="service.request",
                        parent=root_id,
                        rid=rid,
                        key=request.key,
                        status=status,
                        shed=True,
                    )
                if audit is not None:
                    if status == 503:
                        reason = "unavailable"
                    elif source == "quota":
                        reason = "quota"
                    else:
                        reason = "admission"
                    audit.emit(
                        request, status, "shed", reason, source, "", "", "",
                        requeues.get(rid, 0) + 1 if status == 503 else 0,
                        tuple(blame.get(rid, ())),
                        request.arrival_ms, completion, version,
                    )
                continue
            (
                _, key, items, status, completion_ms,
                fresh, latency_ms, spike_ms, version,
            ) = entry
            if tracer is not None:
                self._trace_group(
                    replica, key, items, status, completion_ms,
                    fresh, latency_ms, spike_ms, root_id,
                )
            family = replica_hists.get(replica.replica_id)
            if family is None:
                family = self.metrics.histogram(
                    f"service.replica.{replica.replica_id}"
                    ".service.latency_ms",
                    LATENCY_BOUNDS_MS,
                )
                replica_hists[replica.replica_id] = family
            outcome = "ok" if status == 200 else "error"
            for position, item in enumerate(items):
                request = item.request
                rid = request.request_id
                latency = completion_ms - request.arrival_ms
                exemplar = f"rid={rid}|replica={replica.replica_id}"
                rollup.offer_exemplar(latency, exemplar, at_ms=completion_ms)
                family.offer_exemplar(latency, exemplar, at_ms=completion_ms)
                if audit is not None:
                    if position == 0:
                        source = "index" if fresh else "cache"
                        coalesce = "carrier" if fresh else "hit"
                    else:
                        source = "coalesced"
                        coalesce = "rider"
                    audit.emit(
                        request, status, outcome, "", source, coalesce,
                        replica.shard_id, replica.replica_id,
                        requeues.get(rid, 0) + 1,
                        tuple(blame.get(rid, ())),
                        item.ready_ms, completion_ms, version,
                    )

    def _trace_group(
        self,
        replica: _Replica,
        key: str,
        items,
        status: int,
        completion_ms: float,
        fresh: bool,
        latency_ms: float,
        spike_ms: float,
        root_id: str | None,
    ) -> None:
        """Emit request → index-lookup spans for one coalesced group,
        tagged with the serving replica and shard. All spans are
        deferred (:meth:`Tracer.defer_span`): the serving loop pays a
        tuple append per span, and the objects materialize when the
        trace is read."""
        tracer = self.tracer
        carrier = items[0].request
        parent = tracer.defer_span(
            "request",
            kind="service.request",
            parent=root_id,
            virtual_ms=completion_ms - carrier.arrival_ms,
            rid=carrier.request_id,
            key=key,
            status=status,
            coalesced_riders=len(items) - 1,
            shard=replica.shard_id,
            replica=replica.replica_id,
        )
        if fresh:
            tracer.defer_span(
                "index-lookup",
                kind="service.index",
                parent=parent,
                virtual_ms=latency_ms,
                key=key,
                spiked=bool(spike_ms),
                replica=replica.replica_id,
            )
        for item in items[1:]:
            tracer.defer_span(
                "request",
                kind="service.request",
                parent=root_id,
                virtual_ms=completion_ms - item.request.arrival_ms,
                rid=item.request.request_id,
                key=key,
                status=status,
                coalesced=True,
                replica=replica.replica_id,
            )
