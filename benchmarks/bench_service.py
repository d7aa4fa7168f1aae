"""T-serve — the link-status service under load, solo and clustered.

Two sweeps over one :class:`~repro.service.LinkStatusIndex` built from
the session's full-scale study report:

**Load sweep (single node).** Seeded Zipf workloads replayed at
several offered loads against a fixed :class:`ServerConfig` — below
capacity, at capacity, and past it — recording virtual throughput,
p50/p99 virtual latency, cache hit rate, coalescing volume, and shed
rate. Expected shape: hit rate and coalescing climb with load (hotter
Zipf head per unit time), shed rate stays ~0 until offered load
crosses the token rate, then grows while p99 for *served* requests
stays bounded by the queue depth — the degradation admission control
promises.

**Replica-scaling sweep (cluster).** Three traffic shapes — Zipf
hot-key skew, a flash crowd, a diurnal cycle — each served by the
cluster tier at 4 shards x {1, 2, 4} replicas with a small congestion
tax per in-flight request (the knob that makes replica count visible
in the latency distribution; it defaults to zero everywhere else so
the byte-equivalence contract is untouched). Nine runs x
``REPRO_BENCH_CLUSTER_REQUESTS`` requests (default 120,000) is the
million-request sweep EXPERIMENTS.md quotes. Expected shape: p99
stays bounded (non-increasing within slack) as replicas scale — the
single replica pays the congestion tax for each burst's full queue
depth while the scaled fleets split it, and coalescing plus the
result cache absorb the Zipf head before it reaches the index, so
most of the distribution is pinned by the global admission queue
either way. Shed rate is *identical* across replica counts —
admission is global and arrival-driven, so adding replicas never
creates (or absorbs) shedding.

Writes ``BENCH_service.json`` (via the ``bench_out`` resolver, so the
smoke test can redirect it) with both sweeps in one payload.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.service import (
    ClusterConfig,
    ClusterService,
    LinkStatusIndex,
    LinkStatusService,
    ServerConfig,
    WorkloadConfig,
    generate_workload,
)

#: Requests replayed per single-node load level.
N_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVICE_REQUESTS", "20000"))

#: Requests per cluster run (x 9 runs = the million-request sweep).
CLUSTER_REQUESTS = int(
    os.environ.get("REPRO_BENCH_CLUSTER_REQUESTS", "120000")
)

#: The fixed capacity every level runs against.
CONFIG = ServerConfig(rate_rps=2_000.0, burst=16, queue_limit=64)

#: Offered load as a multiple of the configured token rate.
LEVELS: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)

#: Cluster topology under test: shards fixed, replicas swept.
N_SHARDS = 4
REPLICA_LEVELS: tuple[int, ...] = (1, 2, 4)

#: Per-in-flight-request latency tax (virtual ms). Zero would make
#: every replica count serve identical latencies (the equivalence
#: contract); a positive value models per-replica queueing pressure,
#: and it has to be sizable relative to ``index_latency_ms`` to bite —
#: per-replica outstanding is only a handful of requests, so a token
#: tax disappears into the batch deadline. At 10 ms the overloaded
#: single-replica runs visibly pay for their queue depth and the sweep
#: can show what replicas buy.
CONGESTION_MS = 10.0

#: Traffic shapes for the replica-scaling sweep. ``load`` is the
#: *base* offered load as a multiple of capacity; flash and diurnal
#: swing above it mid-run.
SCENARIOS: dict[str, dict] = {
    "zipf_hot": {"zipf_alpha": 1.5, "pattern": "poisson", "load": 1.0},
    "flash_crowd": {"zipf_alpha": 1.1, "pattern": "flash", "load": 0.8},
    "diurnal": {"zipf_alpha": 1.1, "pattern": "diurnal", "load": 1.0},
}

_results: dict[float, dict] = {}
_cluster_results: dict[tuple[str, int], dict] = {}


@pytest.fixture(scope="module")
def service_index(report) -> LinkStatusIndex:
    return LinkStatusIndex.build(report)


def _write_payload(bench_out, service_index) -> None:
    """Write whatever both sweeps have produced so far (idempotent)."""
    payload = {
        "index_entries": len(service_index),
        "index_version": service_index.version,
        "config": {
            "rate_rps": CONFIG.rate_rps,
            "burst": CONFIG.burst,
            "queue_limit": CONFIG.queue_limit,
            "max_batch": CONFIG.max_batch,
            "max_wait_ms": CONFIG.max_wait_ms,
            "cache_capacity": CONFIG.cache_capacity,
            "cache_ttl_ms": CONFIG.cache_ttl_ms,
        },
        "single_node": {
            "n_requests": N_REQUESTS,
            "levels": [_results[key] for key in sorted(_results)],
        },
        "cluster": {
            "n_requests_per_run": CLUSTER_REQUESTS,
            "total_requests": len(_cluster_results) * CLUSTER_REQUESTS
            + len(_results) * N_REQUESTS,
            "n_shards": N_SHARDS,
            "replica_levels": list(REPLICA_LEVELS),
            "policy": "least_outstanding",
            "congestion_ms_per_inflight": CONGESTION_MS,
            "scenarios": {
                name: {
                    "workload": dict(spec),
                    "replicas": [
                        _cluster_results[key]
                        for key in sorted(_cluster_results)
                        if key[0] == name
                    ],
                }
                for name, spec in SCENARIOS.items()
            },
        },
    }
    out = bench_out("BENCH_service.json")
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"wrote {out.name} ({len(_results)} load levels, "
        f"{len(_cluster_results)} cluster runs)"
    )


@pytest.mark.parametrize("level", LEVELS, ids=lambda x: f"{x:g}x")
def test_service_under_load(benchmark, bench_out, service_index, level):
    offered_rps = CONFIG.rate_rps * level
    workload = generate_workload(
        [entry.url for entry in service_index.entries],
        WorkloadConfig(
            n_requests=N_REQUESTS,
            offered_rps=offered_rps,
            seed=11,
            aggregate_fraction=0.02,
            unknown_fraction=0.01,
        ),
    )

    def run():
        service = LinkStatusService(service_index, CONFIG)
        start = time.perf_counter()
        result = service.serve(workload)
        wall = time.perf_counter() - start
        return result, wall

    result, wall = benchmark.pedantic(run, rounds=1, iterations=1)

    digest = result.as_dict()
    digest.update(
        offered_rps=offered_rps,
        load_multiple=level,
        wall_seconds=round(wall, 4),
        wall_rps=round(len(workload) / wall, 1) if wall > 0 else None,
    )
    _results[level] = digest

    print()
    print(f"-- offered {offered_rps:g} rps ({level:g}x capacity) --")
    print(result.summary())
    print(f"replay wall: {wall:.3f}s ({digest['wall_rps']} req/s real)")

    # Below capacity nothing sheds; past it, shedding must engage.
    if level <= 1.0:
        assert digest["shed_rate"] < 0.05
    if level >= 2.0:
        assert digest["shed_rate"] > 0.0

    if level == LEVELS[-1]:
        _write_payload(bench_out, service_index)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("replicas", REPLICA_LEVELS, ids=lambda r: f"r{r}")
def test_cluster_replica_scaling(
    benchmark, bench_out, service_index, scenario, replicas
):
    spec = SCENARIOS[scenario]
    offered_rps = CONFIG.rate_rps * spec["load"]
    workload = generate_workload(
        [entry.url for entry in service_index.entries],
        WorkloadConfig(
            n_requests=CLUSTER_REQUESTS,
            offered_rps=offered_rps,
            seed=11,
            zipf_alpha=spec["zipf_alpha"],
            pattern=spec["pattern"],
            aggregate_fraction=0.02,
            unknown_fraction=0.01,
        ),
    )
    cluster_config = ClusterConfig(
        n_shards=N_SHARDS,
        replicas_per_shard=replicas,
        policy="least_outstanding",
        congestion_ms_per_inflight=CONGESTION_MS,
    )

    def run():
        service = ClusterService(service_index, CONFIG, cluster_config)
        start = time.perf_counter()
        result = service.serve(workload)
        wall = time.perf_counter() - start
        return result, wall

    result, wall = benchmark.pedantic(run, rounds=1, iterations=1)

    digest = result.as_dict()
    digest.update(
        scenario=scenario,
        replicas_per_shard=replicas,
        offered_rps=offered_rps,
        wall_seconds=round(wall, 4),
        wall_rps=round(len(workload) / wall, 1) if wall > 0 else None,
    )
    _cluster_results[(scenario, replicas)] = digest

    print()
    print(
        f"-- {scenario}: {N_SHARDS} shards x {replicas} replicas, "
        f"offered {offered_rps:g} rps --"
    )
    print(result.summary())
    print(f"replay wall: {wall:.3f}s ({digest['wall_rps']} req/s real)")

    # Chaos is off: the cluster may shed only through global admission,
    # which is arrival-driven — so scaling replicas must keep the shed
    # rate bounded near the single-replica baseline, and the congestion
    # tax must make p99 non-increasing as replicas scale.
    baseline = _cluster_results.get((scenario, REPLICA_LEVELS[0]))
    if baseline is not None and replicas > REPLICA_LEVELS[0]:
        assert digest["shed_rate"] <= baseline["shed_rate"] + 0.02
        assert digest["p99_ms"] <= baseline["p99_ms"] * 1.10 + 0.5

    if len(_cluster_results) == len(SCENARIOS) * len(REPLICA_LEVELS):
        _write_payload(bench_out, service_index)
