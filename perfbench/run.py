"""The repository benchmark: batch study, live refresh, mixed serving.

Run from the repository root:

    python3 perfbench/run.py --workload batch_study --seed 1 --seconds 30 --trace 0

Workloads are ``batch_study``, ``live_refresh`` and ``serve_mixed``
(see ``perfbench/README.md``). With ``--trace 0`` the last line of
standard output is one JSON object carrying every end-to-end metric;
with ``--trace 1`` every per-layer metric, measured in a separate run
with timing wrappers installed around the layers' public calls. The
process exits non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
TRACE_DIR = ROOT / ".perfbench"

#: ``--seconds`` value the workload mixes are sized for (their samples
#: span about this long on a 2-CPU box); other values scale the slots.
NOMINAL_SECONDS = 30


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _load_program():
    """Import the benchmark stages, which import ``repro`` from ``src/``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro sources under {src}")
    sys.path.insert(0, str(src))
    import pipeline
    import speed
    import tracing

    return pipeline, speed, tracing


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of ``values``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _values(samples, traced: bool | None = None) -> list[float]:
    return [s.value for s in samples if traced is None or s.traced == traced]


def end_to_end(result, requests: int, gauge) -> tuple[dict, dict]:
    """Every end-to-end metric of an untraced run (times at reference
    machine speed), and the raw wall-clock figures next to them."""

    def adjusted(samples) -> list[float]:
        return [gauge.adjust(s.value, s.start, s.end) for s in samples]

    def figures(setup, batch, refresh, node, cluster) -> dict:
        return {
            "setup_s": statistics.median(setup),
            "batch_s": statistics.median(batch),
            "refresh_p50_ms": statistics.median(refresh),
            "refresh_p90_ms": _percentile(refresh, 90),
            "serve_node_rps": requests / statistics.median(node),
            "serve_cluster_rps": requests / statistics.median(cluster),
        }

    timed = (
        result.setup_s, result.batch_s, result.refresh_ms,
        result.node_s, result.cluster_s,
    )
    units = {
        "setup_s": "s", "batch_s": "s", "refresh_p50_ms": "ms",
        "refresh_p90_ms": "ms", "serve_node_rps": "1/s",
        "serve_cluster_rps": "1/s",
    }
    metrics = {
        name: _metric(value, units[name])
        for name, value in figures(*map(adjusted, timed)).items()
    }
    metrics["peak_rss_mb"] = _metric(_peak_rss_mb(), "MB")
    metrics["serve_p99_virtual_ms"] = _metric(result.p99_virtual_ms, "ms")
    raw = figures(*map(_values, timed))
    raw["machine_slowdown"] = gauge.slowdown(-float("inf"), float("inf"))
    return metrics, raw


#: Per-layer self-time metrics and the span names they sum. Together
#: with ``trace.residual_s`` (time inside benchmark stages but outside
#: every wrapped call) they add up to ``trace.wall_s`` exactly.
SELF_TIMES = {
    "worldgen.plan_s": "worldgen.plan",
    "worldgen.build_s": "worldgen.build",
    "worldgen.replay_self_s": "worldgen",
    "archive.capture_s": "archive.capture",
    "archive.robots_s": "archive.robots",
    "archive.sketch_s": "archive.sketch",
    "net.fetch_s": "net.fetch",
    "wiki.edit_s": "wiki.edit",
    "wiki.parse_s": "wiki.parse",
    "iabot.sweep_s": "iabot.sweep",
    "dataset.collect_s": "dataset.collect",
    "dataset.sample_s": "dataset.sample",
    "study.self_s": "study",
    "index.build_s": "index.build",
    "live.drive_s": "live.drive",
    "live.build_s": "live.build",
    "live.publish_s": "live.publish",
    "live.delta_s": "live.delta",
    "reconfig.apply_s": "reconfig.apply",
    "service.admission_s": "service.admission",
    "service.lookup_s": "service.lookup",
    "router.pick_s": "router.pick",
    "service.node_self_s": "service.node",
    "service.cluster_self_s": "service.cluster",
}


def per_layer(result, tracer) -> dict:
    """Every per-layer metric of a traced run.

    Times and counts are totals over the traced stage occurrences;
    ``*_ms`` metrics are per-call (or per-cycle) medians, ``*_pct``
    overheads compare the traced and untraced occurrences of a stage.
    """
    self_s = tracer.self_s
    calls = tracer.calls
    counts = tracer.counts
    study = result.study
    counter = result.counters

    def median_ms(name: str) -> float:
        return 1000.0 * statistics.median(tracer.durations[name])

    def rate(hits: float, total: float) -> float:
        return hits / total if total else 0.0

    def overhead_pct(samples) -> float:
        traced = statistics.median(_values(samples, True))
        untraced = statistics.median(_values(samples, False))
        return 100.0 * (traced - untraced) / untraced

    metrics = {name: (self_s[span], "s") for name, span in SELF_TIMES.items()}
    half = len(result.refresh_ms) // 2
    metrics.update({
        "trace.residual_s": (
            sum(v for k, v in self_s.items() if k.startswith("stage.")), "s"
        ),
        "trace.wall_s": (
            sum(v for k, v in tracer.total_s.items() if k.startswith("stage.")),
            "s",
        ),
        "trace.batch_overhead_pct": (overhead_pct(result.batch_s), "%"),
        "trace.live_overhead_pct": (overhead_pct(result.live_s), "%"),
        "trace.serve_overhead_pct": (overhead_pct(result.serve_s), "%"),
        "worldgen.events": (counts["worldgen.events"], "count"),
        "archive.captures": (calls["archive.capture"], "count"),
        "archive.snapshots": (counts["archive.snapshots"], "count"),
        "archive.capture_yield": (
            rate(counts["archive.snapshots"], calls["archive.capture"]), "ratio"
        ),
        "archive.robots_denied": (counter["robots_denied"], "count"),
        "archive.sketch_hit_rate": (
            rate(counts["archive.sketch_hits"], calls["archive.sketch"]), "ratio"
        ),
        "net.fetches": (calls["net.fetch"], "count"),
        "wiki.edits": (calls["wiki.edit"], "count"),
        "wiki.parses": (calls["wiki.parse"], "count"),
        "iabot.sweeps": (calls["iabot.sweep"], "count"),
        "iabot.links_checked": (counts["iabot.links_checked"], "count"),
        "iabot.marked": (counts["iabot.marked"], "count"),
        "dataset.api_requests": (counts["dataset.api_requests"], "count"),
        "dataset.sample": (counts["dataset.sample"], "count"),
        "exec.probe_census_s": (study["phase:probe+census"], "s"),
        "exec.fetch_hit_rate": (
            rate(study["fetch_cache_hits"], study["fetches"]), "ratio"
        ),
        "exec.cdx_queries": (study["cdx_queries"], "count"),
        "exec.cdx_hit_rate": (
            rate(study["cdx_cache_hits"], study["cdx_queries"]), "ratio"
        ),
        "analysis.soft404_s": (study["phase:soft404"], "s"),
        "analysis.temporal_s": (study["phase:temporal"], "s"),
        "analysis.spatial_s": (study["phase:spatial"], "s"),
        "analysis.typos_s": (study["phase:typos"], "s"),
        "live.drive_ms": (statistics.median(result.drive_ms), "ms"),
        "live.build_ms": (median_ms("live.build"), "ms"),
        "live.publish_ms": (median_ms("live.publish"), "ms"),
        "live.delta_ms": (median_ms("live.delta"), "ms"),
        "live.dirty": (counter["live_dirty"], "count"),
        "live.events": (counter["live_events"], "count"),
        "live.delta_bytes": (counter["live_delta_bytes"], "B"),
        "live.drift": (
            statistics.median(_values(result.refresh_ms[half:]))
            / statistics.median(_values(result.refresh_ms[:half])),
            "ratio",
        ),
        "index.entries": (counter["batch_entries"], "count"),
        "index.snapshot_bytes": (counter["snapshot_bytes"], "B"),
        "reconfig.apply_ms": (median_ms("reconfig.apply"), "ms"),
        "reconfig.drained_batches": (counter["drained_batches"], "count"),
        "service.offers": (calls["service.admission"], "count"),
        "service.batch_size": (
            rate(counter["node_batch_items"], counter["node_batches"]), "count"
        ),
        "service.cache_hit_rate": (
            rate(counter["node_cache_hits"],
                 counter["node_cache_hits"] + counter["node_index_lookups"]),
            "ratio",
        ),
        "service.coalesced": (counter["node_coalesced"], "count"),
        "service.index_lookups": (counter["node_index_lookups"], "count"),
        "service.node_replay_s": (tracer.total_s["service.node"], "s"),
        "router.picks": (calls["router.pick"], "count"),
        "router.redispatches": (counter["redispatches"], "count"),
        "service.cluster_replay_s": (tracer.total_s["service.cluster"], "s"),
    })
    return {name: _metric(value, unit) for name, (value, unit) in metrics.items()}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _recorded_digest(seed: int) -> str | None:
    with DIGESTS.open(encoding="utf-8") as handle:
        return json.load(handle)["versions"].get(str(seed))


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    pipeline, speed, tracing = _load_program()
    workloads = {
        "batch_study": pipeline.Mix(
            slots=4, batches=4, cycles=25, replays=2, requests=10_000
        ),
        "live_refresh": pipeline.Mix(
            slots=6, batches=3, cycles=25, replays=1, requests=10_000
        ),
        "serve_mixed": pipeline.Mix(
            slots=6, batches=3, cycles=17, replays=2, requests=10_000
        ),
    }
    mix = workloads.get(args.workload)
    if mix is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"known: {', '.join(workloads)}")
    if args.seconds != NOMINAL_SECONDS:
        slots = max(2, round(mix.slots * args.seconds / NOMINAL_SECONDS))
        mix = dataclasses.replace(
            mix, slots=slots,
            batches=max(2, round(mix.batches * slots / mix.slots)),
        )

    if args.trace:
        tracer, gauge = tracing.LayerTracer(), None
        result = pipeline.run(mix, args.seed, tracer)
    else:
        tracer, gauge = None, speed.SpeedGauge()
        with gauge.running():
            result = pipeline.run(mix, args.seed)
    failures = result.failures
    recorded = _recorded_digest(args.seed)
    if recorded is not None and recorded != result.batch_version:
        failures["batch_digest"] += 1
    raw = None
    if tracer is None:
        metrics, raw = end_to_end(result, mix.requests, gauge)
    else:
        metrics = per_layer(result, tracer)
        accounted = sum(
            metrics[name]["value"] for name in [*SELF_TIMES, "trace.residual_s"]
        )
        if abs(accounted - metrics["trace.wall_s"]["value"]) > 1e-6:
            failures["trace_accounting"] += 1
        tracer.write(TRACE_DIR / f"trace-{args.workload}-{args.seed}.tsv")
    mismatches = sum(n for kind, n in failures.items() if kind != "shed")

    print(f"# workload {args.workload} seed {args.seed}: {mix}")
    print(f"# batch digest {result.batch_version}, recorded "
          f"{recorded or 'none for this seed'}")
    print("# counters " + json.dumps(result.counters, sort_keys=True))
    if raw is not None:
        print("# raw wall-clock figures " + json.dumps(raw))
    if +failures:
        print("# failures " + json.dumps(dict(+failures), sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": result.attempted,
        "failed": sum(failures.values()),
        "metrics": metrics,
    }))
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
