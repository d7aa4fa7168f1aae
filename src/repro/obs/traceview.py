"""Read-side views over a JSONL trace: the questions a trace answers.

``scripts/trace_report.py`` is a thin CLI over these functions, and
the tests call them directly. Everything here consumes plain
:class:`~repro.obs.trace.Span` lists (usually from
:func:`~repro.obs.trace.read_jsonl`) and reduces them to the three
audit questions the observability layer exists for:

- :func:`phase_totals` — where did the run's wall time go, phase by
  phase (reconstructs :attr:`StudyStats.phase_seconds
  <repro.exec.stats.StudyStats.phase_seconds>` from the log alone);
- :func:`top_records` — the top-N most expensive URLs, with the
  backend traffic each one caused;
- :func:`bucket_attribution` — cost and failure attribution by
  Figure-4 bucket;
- :func:`phase_latency_histograms` — per-phase latency distributions
  of the work items (records, backend calls) each phase ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .metrics import DEFAULT_LATENCY_BOUNDS_S, Histogram
from .trace import Span

#: Span kinds that represent individually-timed work items.
WORK_KINDS = ("record", "backend.fetch", "backend.cdx", "net.fetch",
              "availability")


def phase_totals(spans: list[Span]) -> dict[str, float]:
    """Total wall seconds per phase name, from ``kind == "phase"`` spans.

    Repeated phase names are additive, mirroring
    ``StudyStats.phase()``; when phases were traced through the stats
    layer the totals match ``phase_seconds`` exactly.
    """
    totals: dict[str, float] = {}
    for span in spans:
        if span.kind == "phase":
            totals[span.name] = totals.get(span.name, 0.0) + span.duration_s
    return totals


@dataclass
class RecordCost:
    """One record span, flattened for ranking and attribution."""

    url: str
    bucket: str
    wall_seconds: float
    fetches: int = 0
    cdx_queries: int = 0
    retries: int = 0
    span_id: str = ""


def _record_costs(spans: list[Span]) -> list[RecordCost]:
    costs = []
    for span in spans:
        if span.kind != "record":
            continue
        attrs = span.attrs
        costs.append(
            RecordCost(
                url=str(attrs.get("url", "")),
                bucket=str(attrs.get("bucket", "?")),
                wall_seconds=span.duration_s,
                fetches=int(attrs.get("fetches", 0)),
                cdx_queries=int(attrs.get("cdx_queries", 0)),
                retries=int(attrs.get("retries", 0)),
                span_id=span.span_id,
            )
        )
    return costs


def top_records(spans: list[Span], n: int = 10) -> list[RecordCost]:
    """The N most wall-expensive records, most expensive first.

    Ties break on URL so the ranking is stable across equal-cost runs.
    """
    costs = _record_costs(spans)
    costs.sort(key=lambda c: (-c.wall_seconds, c.url))
    return costs[:n]


@dataclass
class BucketCost:
    """Aggregate cost of every record that landed in one bucket."""

    bucket: str
    records: int = 0
    wall_seconds: float = 0.0
    fetches: int = 0
    cdx_queries: int = 0
    retries: int = 0


def bucket_attribution(spans: list[Span]) -> dict[str, BucketCost]:
    """Per-Figure-4-bucket record counts and costs, sorted by count."""
    buckets: dict[str, BucketCost] = {}
    for cost in _record_costs(spans):
        agg = buckets.get(cost.bucket)
        if agg is None:
            agg = buckets[cost.bucket] = BucketCost(bucket=cost.bucket)
        agg.records += 1
        agg.wall_seconds += cost.wall_seconds
        agg.fetches += cost.fetches
        agg.cdx_queries += cost.cdx_queries
        agg.retries += cost.retries
    return dict(
        sorted(buckets.items(), key=lambda kv: (-kv[1].records, kv[0]))
    )


@dataclass
class _PhaseIndex:
    """Maps every span to the phase it (transitively) ran under."""

    by_id: dict[str, Span] = field(default_factory=dict)

    @classmethod
    def build(cls, spans: list[Span]) -> "_PhaseIndex":
        return cls(by_id={span.span_id: span for span in spans})

    def phase_of(self, span: Span) -> str | None:
        seen = 0
        current: Span | None = span
        while current is not None and seen < 64:
            if current.kind == "phase":
                return current.name
            parent = current.parent_id
            current = self.by_id.get(parent) if parent else None
            seen += 1
        return None


def phase_latency_histograms(
    spans: list[Span],
    kinds: tuple[str, ...] = WORK_KINDS,
    bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_S,
) -> dict[str, Histogram]:
    """Per-phase latency histograms of the work items under each phase.

    Work items (``kinds``) are attributed to their nearest enclosing
    phase span; items outside any phase land under ``"(no phase)"``.
    """
    index = _PhaseIndex.build(spans)
    histograms: dict[str, Histogram] = {}
    for span in spans:
        if span.kind not in kinds:
            continue
        phase = index.phase_of(span) or "(no phase)"
        histogram = histograms.get(phase)
        if histogram is None:
            histogram = histograms[phase] = Histogram(phase, bounds)
        histogram.observe(span.duration_s)
    return histograms


def kind_counts(spans: list[Span]) -> dict[str, int]:
    """How many spans of each kind the trace holds, sorted by kind."""
    counts: dict[str, int] = {}
    for span in spans:
        counts[span.kind] = counts.get(span.kind, 0) + 1
    return dict(sorted(counts.items()))


# -- cluster views ----------------------------------------------------------------


@dataclass
class ReplicaCost:
    """One replica's serving traffic, read back from request spans."""

    replica: str
    shard: str = ""
    requests: int = 0
    carriers: int = 0
    riders: int = 0
    sheds: int = 0
    virtual_ms: float = 0.0


def replica_attribution(spans: list[Span]) -> dict[str, ReplicaCost]:
    """Per-replica request counts and virtual latency, from
    ``service.request`` spans.

    Carrier spans carry both ``shard`` and ``replica`` attrs; rider
    (coalesced) spans carry only ``replica``, so each replica's shard
    is learned from its carriers. Front-door sheds have neither and
    aggregate under the pseudo-replica ``"(front door)"``. Returns an
    empty dict for traces with no replica-tagged spans, which is how
    callers detect there is no cluster section to render.
    """
    replicas: dict[str, ReplicaCost] = {}
    tagged = False

    def row(replica: str) -> ReplicaCost:
        cost = replicas.get(replica)
        if cost is None:
            cost = replicas[replica] = ReplicaCost(replica=replica)
        return cost

    for span in spans:
        if span.kind != "service.request":
            continue
        attrs = span.attrs
        replica = str(attrs.get("replica", ""))
        if replica:
            tagged = True
            cost = row(replica)
            shard = str(attrs.get("shard", ""))
            if shard:
                cost.shard = shard
            cost.requests += 1
            if attrs.get("coalesced"):
                cost.riders += 1
            else:
                cost.carriers += 1
            cost.virtual_ms += span.virtual_ms
        elif attrs.get("shed"):
            cost = row("(front door)")
            cost.requests += 1
            cost.sheds += 1
    if not tagged:
        return {}
    return dict(sorted(replicas.items()))


def redispatch_attribution(
    spans: list[Span],
) -> dict[tuple[str, str], int]:
    """Forced re-dispatch counts per (replica, fault channel), from
    ``service.redispatch`` spans — the trace-side mirror of the audit
    log's blame trail."""
    counts: dict[tuple[str, str], int] = {}
    for span in spans:
        if span.kind != "service.redispatch":
            continue
        key = (
            str(span.attrs.get("replica", "?")),
            str(span.attrs.get("channel", "?")),
        )
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


__all__ = [
    "BucketCost",
    "RecordCost",
    "ReplicaCost",
    "WORK_KINDS",
    "bucket_attribution",
    "kind_counts",
    "phase_latency_histograms",
    "phase_totals",
    "redispatch_attribution",
    "replica_attribution",
    "top_records",
]
