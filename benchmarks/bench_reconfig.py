"""T-reconfig — delta wire savings, swap disciplines, rebalance pause.

Three arms over one forward-moving world:

**Delta-bytes sweep.** Generation zero is the full batch build. For
each event-batch size B the world takes B editorial touches (plus one
sampled-URL eviction, so every generation is a distinct snapshot), the
incremental engine rebuilds, and the publisher diffs the consecutive
generations into a content-addressed
:class:`~repro.service.reconfig.GenerationDelta`. At **every** batch
size the delta's wire bytes must undercut the full snapshot's
(:func:`~repro.service.reconfig.snapshot_wire_bytes`, same codec) —
shipping deltas would be pointless otherwise — and applying the delta
is re-verified byte-identical via the content hash.

**Swap-discipline sweep.** The delta schedule is replayed twice
through one node: atomic force-flush cutovers vs drained rolling
cutovers. Expected shape: p50/p99 and the shed set stay in family
(the discipline moves *when* replicas rebind, not what they answer),
atomic lag is exactly zero, and drain lag is positive but bounded by
the batcher's ``max_wait_ms``.

**Rebalance pause.** A 2×2 cluster migrates the hottest routing keys
to the other shard mid-replay through the same drain machinery. The
pause is the :class:`~repro.service.reconfig.ReconfigEvent` drain lag,
and the run's wire answers must be byte-identical to a cluster that
never rebalances at all.

Writes ``BENCH_reconfig.json`` (via the ``bench_out`` resolver, so the
smoke test can redirect it).
"""

from __future__ import annotations

import json
import time

from repro.clock import SimTime
from repro.service import (
    ClusterConfig,
    ClusterService,
    DeltaApply,
    LinkStatusService,
    RebalancePlan,
    ServerConfig,
    WorkloadConfig,
    generate_workload,
    rendezvous_owner,
    snapshot_wire_bytes,
)

_wire: dict = {}
_discipline: dict = {}
_rebalance: dict = {}


def test_delta_wire_savings(
    benchmark, bench_out, live_world, pipeline, live_scale
):
    inc, driver, publisher, touch = (
        pipeline["inc"], pipeline["driver"], pipeline["publisher"],
        pipeline["touch"],
    )
    base = live_world.study_time.days

    def full_build():
        return inc.build(live_world.study_time)

    gen0 = benchmark.pedantic(full_build, rounds=1, iterations=1)
    publisher.publish(gen0)
    sample_urls = [record.url for record in gen0.report.dataset.records]
    _wire.update(sample_size=gen0.sample_size, batches=[])

    url_cursor = 0
    evicted: set[str] = set()
    for step, batch in enumerate(live_scale.batch_sizes, start=1):
        at = SimTime(base + float(step))
        # A bot sweep per interval archives newly dead links, so the
        # delta carries measurement upserts, not just removals.
        driver.sweep(SimTime(at.days - 0.9))
        # One sampled-URL eviction per batch keeps every generation a
        # distinct snapshot (and exercises delta removals).
        gone = sample_urls[-step]
        evicted.add(gone)
        removals = 0
        for title in live_world.encyclopedia.titles():
            article = live_world.encyclopedia.article(title)
            while any(ref.url == gone for ref in article.link_refs()):
                driver.remove_link(
                    title, gone, SimTime(at.days - 0.8 + removals * 0.001)
                )
                removals += 1
                article = live_world.encyclopedia.article(title)
        touch(
            [u for u in sample_urls[url_cursor:] if u not in evicted],
            at.days - 0.5, batch,
        )
        url_cursor += batch

        result = inc.build(at)
        generation = publisher.publish(result)
        previous = publisher.generations[-2]

        start = time.perf_counter()
        delta = publisher.build_delta(previous, generation)
        diff_ms = (time.perf_counter() - start) * 1000.0
        delta_bytes = delta.wire_bytes()
        snapshot_bytes = snapshot_wire_bytes(generation.index)

        # The tentpole contract at every batch size: the delta beats
        # the snapshot it replaces, and rebuilds it byte-identically
        # (build_delta already re-verified the content hash).
        assert delta_bytes < snapshot_bytes
        assert delta.to_version == generation.version

        digest = {
            "events": batch,
            "dirty": result.dirty.size,
            "upserts": len(delta.upserts),
            "removals": len(delta.removals),
            "delta_bytes": delta_bytes,
            "snapshot_bytes": snapshot_bytes,
            "savings_ratio": round(1.0 - delta_bytes / snapshot_bytes, 4),
            "diff_ms": round(diff_ms, 2),
        }
        _wire["batches"].append(digest)
        print(
            f"batch={batch}: {len(delta.upserts)} upserts "
            f"+ {len(delta.removals)} removals = {delta_bytes}B vs "
            f"{snapshot_bytes}B snapshot "
            f"({100 * digest['savings_ratio']:.1f}% saved)"
        )


def _delta_schedule(publisher, requests, drain):
    generations = publisher.generations
    horizon = max(r.arrival_ms for r in requests)
    swaps = []
    for i, generation in enumerate(generations[1:]):
        swaps.append(DeltaApply(
            at_ms=horizon * (i + 1) / len(generations),
            drain=drain,
            delta=publisher.build_delta(generations[i], generation),
        ))
    return swaps


def test_rolling_vs_atomic_swap(benchmark, bench_out, pipeline, live_scale):
    publisher = pipeline["publisher"]
    generations = publisher.generations
    assert len(generations) >= 3, "delta sweep must run first"
    g0 = generations[0]
    requests = generate_workload(
        [entry.url for entry in g0.index.entries],
        WorkloadConfig(
            n_requests=live_scale.requests, offered_rps=2_000.0, seed=3,
            aggregate_fraction=0.02, unknown_fraction=0.01,
        ),
    )

    def run(drain):
        service = LinkStatusService(g0.index)
        schedule = _delta_schedule(publisher, requests, drain)
        start = time.perf_counter()
        result = service.serve(requests, swaps=schedule)
        return result, (time.perf_counter() - start) * 1000.0

    atomic, atomic_ms = run(False)
    (rolling, rolling_ms) = benchmark.pedantic(
        run, args=(True,), rounds=1, iterations=1
    )

    # Both disciplines install the whole lineage and shed identically;
    # atomic applies instantaneously on the virtual clock, drains pay
    # a bounded, recorded lag.
    versions = tuple(g.version for g in generations)
    assert atomic.index_versions == versions
    assert rolling.index_versions == versions
    assert len(atomic.shed_ids) == len(rolling.shed_ids)
    assert all(e.lag_ms == 0.0 for e in atomic.reconfig_events)
    assert all(e.lag_ms >= 0.0 for e in rolling.reconfig_events)
    max_wait = ServerConfig().max_wait_ms
    assert all(e.lag_ms <= max_wait for e in rolling.reconfig_events)

    def digest(result, wall_ms):
        return {
            "p50_ms": result.as_dict()["p50_ms"],
            "p99_ms": result.as_dict()["p99_ms"],
            "shed": len(result.shed_ids),
            "wall_ms": round(wall_ms, 2),
            "reconfig_lag_ms": [
                round(e.lag_ms, 4) for e in result.reconfig_events
            ],
            "drained_batches": sum(
                e.drained_batches for e in result.reconfig_events
            ),
        }

    _discipline.update(
        n_requests=len(requests),
        n_swaps=len(generations) - 1,
        atomic=digest(atomic, atomic_ms),
        rolling=digest(rolling, rolling_ms),
        p99_delta_ms=round(
            rolling.latency_quantile(0.99) - atomic.latency_quantile(0.99),
            6,
        ),
    )
    print(
        f"atomic p99 {_discipline['atomic']['p99_ms']}ms vs rolling "
        f"p99 {_discipline['rolling']['p99_ms']}ms; rolling lags "
        f"{_discipline['rolling']['reconfig_lag_ms']}ms"
    )


def test_rebalance_pause(benchmark, bench_out, pipeline, live_scale):
    publisher = pipeline["publisher"]
    g0 = publisher.generations[0]
    requests = generate_workload(
        [entry.url for entry in g0.index.entries],
        WorkloadConfig(
            n_requests=live_scale.requests, offered_rps=2_000.0, seed=3,
            aggregate_fraction=0.02, unknown_fraction=0.01,
        ),
    )
    horizon = max(r.arrival_ms for r in requests)

    def make_cluster():
        return ClusterService(
            g0.index, ServerConfig(),
            ClusterConfig(n_shards=2, replicas_per_shard=2),
        )

    # Move the three busiest domains off the shard that owns them.
    sizes: dict[str, int] = {}
    for entry in g0.index.entries:
        sizes[entry.domain] = sizes.get(entry.domain, 0) + 1
    hot = sorted(sizes, key=lambda d: (-sizes[d], d))[:3]
    probe = make_cluster()
    moves = tuple(
        (key, next(
            s for s in probe.shard_ids
            if s != rendezvous_owner(key, probe.shard_ids)
        ))
        for key in hot
    )
    plan = RebalancePlan(at_ms=0.5 * horizon, moves=moves)

    def run(swaps):
        service = make_cluster()
        start = time.perf_counter()
        result = service.serve(requests, swaps=swaps)
        return result, (time.perf_counter() - start) * 1000.0

    baseline, baseline_ms = run(None)
    (moved, moved_ms) = benchmark.pedantic(
        run, args=([plan],), rounds=1, iterations=1
    )

    # Ownership migration is invisible at the wire: byte-identical to
    # the cluster that never rebalanced.
    assert [r.to_wire() for r in baseline.responses] == [
        r.to_wire() for r in moved.responses
    ]
    (event,) = moved.reconfig_events
    assert event.kind == "rebalance"
    assert event.moved_keys == len(moves)
    assert event.from_version == event.to_version == g0.version
    max_wait = ServerConfig().max_wait_ms
    assert 0.0 <= event.lag_ms <= max_wait

    _rebalance.update(
        n_requests=len(requests),
        moved_keys=event.moved_keys,
        pause_ms=round(event.lag_ms, 4),
        drained_batches=event.drained_batches,
        p99_ms={
            "baseline": baseline.as_dict()["p99_ms"],
            "rebalanced": moved.as_dict()["p99_ms"],
        },
        wall_ms={"baseline": round(baseline_ms, 2),
                 "rebalanced": round(moved_ms, 2)},
    )
    print(
        f"rebalanced {event.moved_keys} keys, pause {event.lag_ms:.3f}ms "
        f"({event.drained_batches} drained batches)"
    )

    payload = {
        "world": live_scale.as_dict(),
        "delta_wire": _wire,
        "swap_discipline": _discipline,
        "rebalance": _rebalance,
    }
    out = bench_out("BENCH_reconfig.json")
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out.name} ({len(_wire['batches'])} batch sizes)")
