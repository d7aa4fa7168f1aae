"""Grade a serve run's SLOs from its audit log; attribute the burn.

Usage::

    repro serve --links 2600 --seed 11 --shards 2 --replicas 2 \
        --crash-rate 0.5 --audit-log /tmp/audit.jsonl \
        --trace /tmp/trace.jsonl --metrics-json /tmp/metrics.json
    python scripts/slo_report.py /tmp/audit.jsonl \
        --trace /tmp/trace.jsonl --metrics /tmp/metrics.json

Reads the per-request audit JSONL the service tier writes (see
:mod:`repro.service.audit`) and prints:

- the SLO verdict table — availability, latency, and shed-rate
  objectives graded with exact error-budget accounting and
  multi-window burn-rate alerts (:mod:`repro.obs.slo`);
- the chaos attribution table — each bad SLI event charged to the
  (replica, fault channel) whose forced re-dispatches the audit log
  blames, so "who burned the budget" is a computed answer;
- with ``--trace``, the trace-side forced re-dispatch counts per
  (replica, channel) joined next to the audit's blame trail;
- with ``--metrics``, per-replica latency quantiles estimated from
  the snapshot's prefixed histogram families
  (:func:`~repro.obs.metrics.histogram_quantile`).

Everything is deterministic: the same audit bytes always grade to the
same verdicts, alerts, and attribution. Exits 0 when every SLO is
met, 1 otherwise — usable as a chaos-drill gate in CI.
"""

import argparse
import json
import sys
from pathlib import Path

from repro.obs import (
    SloSpec,
    burn_attribution,
    evaluate,
    events_from_audit,
    histogram_quantile,
    read_jsonl,
    redispatch_attribution,
    render_attribution,
)
from repro.service import read_audit_jsonl


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Grade SLOs over a service audit log."
    )
    parser.add_argument("audit", type=Path, help="audit JSONL to grade")
    parser.add_argument(
        "--trace", type=Path, default=None,
        help="service span JSONL (adds re-dispatch counts)",
    )
    parser.add_argument(
        "--metrics", type=Path, default=None,
        help="metrics snapshot JSON (adds per-replica quantiles)",
    )
    parser.add_argument(
        "--availability", type=float, default=0.999,
        help="availability objective (default 0.999)",
    )
    parser.add_argument(
        "--latency-objective", type=float, default=0.99,
        help="fraction of answers under the latency bar (default 0.99)",
    )
    parser.add_argument(
        "--latency-threshold-ms", type=float, default=250.0,
        help="the latency bar in virtual ms (default 250)",
    )
    parser.add_argument(
        "--shed-rate", type=float, default=0.95,
        help="not-shed objective (default 0.95)",
    )
    parser.add_argument(
        "--json", type=Path, default=None,
        help="also write the full report as canonical JSON",
    )
    return parser.parse_args(argv)


def build_specs(args) -> tuple[SloSpec, ...]:
    return (
        SloSpec(
            name="availability", kind="availability",
            objective=args.availability,
        ),
        SloSpec(
            name="latency-p99", kind="latency",
            objective=args.latency_objective,
            threshold_ms=args.latency_threshold_ms,
        ),
        SloSpec(name="shed-rate", kind="shed_rate", objective=args.shed_rate),
    )


def replica_quantiles(snapshot: dict) -> dict[str, dict[str, float]]:
    """Per-replica latency quantiles from prefixed histogram families."""
    prefix, family = "service.replica.", ".service.latency_ms"
    quantiles: dict[str, dict[str, float]] = {}
    for name, data in sorted(snapshot.get("histograms", {}).items()):
        if not (name.startswith(prefix) and name.endswith(family)):
            continue
        replica = name[len(prefix):-len(family)]
        bounds = tuple(data["bounds"])
        counts = tuple(data["counts"])
        quantiles[replica] = {
            "count": data["count"],
            "p50": histogram_quantile(bounds, counts, 0.50),
            "p99": histogram_quantile(bounds, counts, 0.99),
        }
    return quantiles


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    records = read_audit_jsonl(args.audit)
    if not records:
        print(f"no audit records in {args.audit}")
        return 1
    specs = build_specs(args)
    report = evaluate(events_from_audit(records), specs)

    print(f"audit: {args.audit} ({len(records)} records)")
    print()
    print("SLO verdicts:")
    print(report.render())
    print()

    table = burn_attribution(records, specs)
    print("budget burn by (replica, fault channel):")
    print(render_attribution(table, specs))
    print()

    if args.trace is not None:
        spans = read_jsonl(args.trace)
        redispatches = redispatch_attribution(spans)
        if redispatches:
            print("trace re-dispatches by (replica, fault channel):")
            for (replica, channel), count in redispatches.items():
                print(f"  {replica:<12} {channel:<12} {count:>6}")
        else:
            print(f"trace: no re-dispatch spans in {args.trace}")
        print()

    if args.metrics is not None:
        snapshot = json.loads(args.metrics.read_text(encoding="utf-8"))
        quantiles = replica_quantiles(snapshot)
        if quantiles:
            print("per-replica latency quantiles (from the snapshot):")
            print(
                f"  {'replica':<12} {'served':>8} {'p50 ms':>9} {'p99 ms':>9}"
            )
            for replica, row in quantiles.items():
                print(
                    f"  {replica:<12} {row['count']:>8} "
                    f"{row['p50']:>9.2f} {row['p99']:>9.2f}"
                )
        else:
            print(f"metrics: no per-replica families in {args.metrics}")
        print()

    if args.json is not None:
        payload = report.to_dict()
        payload["attribution"] = [
            {"replica": replica, "channel": channel, **row}
            for (replica, channel), row in table.items()
        ]
        args.json.write_text(
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        print(f"wrote JSON report to {args.json}")

    print("verdict:", "ALL SLOs MET" if report.met else "SLO VIOLATED")
    return 0 if report.met else 1


if __name__ == "__main__":
    sys.exit(main())
