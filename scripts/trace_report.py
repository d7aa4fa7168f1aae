"""Answer the audit questions a study trace exists for, from JSONL alone.

Usage::

    python scripts/full_run.py 2600 11 --trace /tmp/run.jsonl
    python scripts/trace_report.py /tmp/run.jsonl [--top N]

Reads the span log ``full_run.py --trace`` appends (one finished span
per line; see :mod:`repro.obs.trace`) and prints:

- span counts by kind — how much the run was instrumented;
- per-phase wall totals — these match the ``phases:`` line of the
  run's stats block exactly, because ``StudyStats.phase`` writes the
  same measured figure to both the counter and the span;
- the top-N most wall-expensive URLs, with the fetch/CDX/retry
  traffic each one caused;
- failure attribution by Figure-4 bucket (records, wall time, and
  backend traffic per outcome);
- per-phase latency histograms over the individually-timed work items
  (record stages and backend calls).

Service-tier traces (``repro serve --trace``) additionally get the
cluster geometry: per-replica request counts (carriers vs coalesced
riders, shard membership, virtual latency booked) and forced
re-dispatch counts per (replica, fault channel) — the trace-side
mirror of the audit log's blame trail.

Everything is computed by :mod:`repro.obs.traceview`; this file is
only argument parsing and text rendering.
"""

import argparse
import sys
from pathlib import Path

from repro.obs import (
    Histogram,
    bucket_attribution,
    kind_counts,
    phase_latency_histograms,
    phase_totals,
    read_jsonl,
    redispatch_attribution,
    replica_attribution,
    top_records,
)

BAR_WIDTH = 40


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Summarize a study trace written by full_run.py --trace."
    )
    parser.add_argument("trace", type=Path, help="JSONL span log to read")
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many most-expensive URLs to list (default 10)",
    )
    return parser.parse_args(argv)


def render_histogram(histogram: Histogram) -> str:
    """Text rendering of one latency histogram, one bucket per line.

    Empty leading/trailing buckets are elided so short traces don't
    print a wall of zeros; the scale bar is per-histogram.
    """
    labels = [f"<= {bound:g}s" for bound in histogram.bounds]
    labels.append(f"> {histogram.bounds[-1]:g}s")
    occupied = [i for i, count in enumerate(histogram.counts) if count]
    if not occupied:
        return "  (no observations)"
    lo, hi = occupied[0], occupied[-1]
    peak = max(histogram.counts)
    lines = []
    for index in range(lo, hi + 1):
        count = histogram.counts[index]
        bar = "#" * max(round(BAR_WIDTH * count / peak), 1 if count else 0)
        lines.append(f"  {labels[index]:>12} {count:>7} {bar}")
    lines.append(
        f"  {'':>12} n={histogram.count}, mean={histogram.mean * 1000:.3f} ms"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    spans = read_jsonl(args.trace)
    if not spans:
        print(f"no spans in {args.trace}")
        return 1

    print(f"trace: {args.trace} ({len(spans)} spans)")
    print()

    print("spans by kind:")
    for kind, count in kind_counts(spans).items():
        print(f"  {kind:>14} {count:>8}")
    print()

    totals = phase_totals(spans)
    if totals:
        print("phase wall totals (match the stats block's phases line):")
        for name, seconds in totals.items():
            print(f"  {name:>14} {seconds:>9.2f}s")
        print(f"  {'total':>14} {sum(totals.values()):>9.2f}s")
        print()

    records = top_records(spans, n=args.top)
    if records:
        print(f"top {len(records)} most expensive URLs:")
        print(
            f"  {'wall ms':>9} {'bucket':>12} {'fetch':>5} "
            f"{'cdx':>5} {'retry':>5}  url"
        )
        for cost in records:
            print(
                f"  {cost.wall_seconds * 1000:>9.3f} {cost.bucket:>12} "
                f"{cost.fetches:>5} {cost.cdx_queries:>5} "
                f"{cost.retries:>5}  {cost.url}"
            )
        print()

    buckets = bucket_attribution(spans)
    if buckets:
        print("attribution by Figure-4 bucket:")
        print(
            f"  {'bucket':>12} {'records':>8} {'wall s':>8} "
            f"{'fetches':>8} {'cdx':>8} {'retries':>8}"
        )
        for cost in buckets.values():
            print(
                f"  {cost.bucket:>12} {cost.records:>8} "
                f"{cost.wall_seconds:>8.2f} {cost.fetches:>8} "
                f"{cost.cdx_queries:>8} {cost.retries:>8}"
            )
        print()

    histograms = phase_latency_histograms(spans)
    if histograms:
        print("per-phase latency of individually-timed work items:")
        for phase, histogram in sorted(histograms.items()):
            print(f"{phase}:")
            print(render_histogram(histogram))
        print()

    replicas = replica_attribution(spans)
    if replicas:
        print("cluster replicas (from service.request spans):")
        print(
            f"  {'replica':<12} {'shard':<10} {'requests':>8} "
            f"{'carriers':>8} {'riders':>8} {'sheds':>6} {'virtual ms':>11}"
        )
        for cost in replicas.values():
            print(
                f"  {cost.replica:<12} {cost.shard or '-':<10} "
                f"{cost.requests:>8} {cost.carriers:>8} {cost.riders:>8} "
                f"{cost.sheds:>6} {cost.virtual_ms:>11.1f}"
            )
        print()

    redispatches = redispatch_attribution(spans)
    if redispatches:
        print("forced re-dispatches by (replica, fault channel):")
        for (replica, channel), count in redispatches.items():
            print(f"  {replica:<12} {channel:<12} {count:>6}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
