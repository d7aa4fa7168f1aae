"""T-live — incremental rebuild cost and zero-downtime swap latency.

Two arms over one forward-moving world:

**Delta-rebuild sweep.** Generation zero is the full batch build (the
from-scratch baseline at this scale). Then, for each event-batch size
B, the world is driven with B editorial touches against sampled URLs
and the incremental engine rebuilds; a from-scratch
:func:`~repro.live.reference_study` runs at the same instant for the
wall-cost comparison, and the two index ``version`` hashes must match
(the golden contract holds at every scale, including this one).
Expected shape: incremental wall cost scales with the dirty set, not
the sample — speedup falls as B grows but stays well above 1 while
B ≪ sample.

**Swap-latency sweep.** The published generations are installed into
a serving run via the ``swaps=`` schedule and the same workload is
replayed with and without swaps. Expected shape: swaps move which
generation answers (both versions appear on the wire, the schedule's
order is the served order) while p50/p99 and the shed set stay in
family — a generation swap is not a service degradation.

Writes ``BENCH_live.json`` (via the ``bench_out`` resolver, so the
smoke test can redirect it).
"""

from __future__ import annotations

import json
import time

from repro.clock import SimTime
from repro.live import ReprobePolicy, reference_study
from repro.service import (
    LinkStatusIndex,
    LinkStatusService,
    WorkloadConfig,
    generate_workload,
)

_delta: dict = {}
_swap: dict = {}


def test_delta_rebuild_speedup(
    benchmark, bench_out, live_world, pipeline, live_scale
):
    inc, driver, publisher, touch = (
        pipeline["inc"], pipeline["driver"], pipeline["publisher"],
        pipeline["touch"],
    )
    base = live_world.study_time.days

    def full_build():
        start = time.perf_counter()
        result = inc.build(live_world.study_time)
        return result, (time.perf_counter() - start) * 1000.0

    (gen0, full_ms) = benchmark.pedantic(full_build, rounds=1, iterations=1)
    publisher.publish(gen0)
    sample_urls = [record.url for record in gen0.report.dataset.records]
    _delta.update(
        full_build_ms=round(full_ms, 2),
        sample_size=gen0.sample_size,
        batches=[],
    )

    url_cursor = 0
    evicted: set[str] = set()
    for step, batch in enumerate(live_scale.batch_sizes, start=1):
        at = SimTime(base + float(step))
        # One editorial eviction per batch: removing every reference
        # to a *sampled* URL changes the published content, so each
        # generation gets a distinct version (otherwise the swap arm
        # would swap between identical snapshots).
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

        start = time.perf_counter()
        result = inc.build(at)
        incremental_ms = (time.perf_counter() - start) * 1000.0
        publish_start = time.perf_counter()
        generation = publisher.publish(result)
        publish_ms = (time.perf_counter() - publish_start) * 1000.0

        start = time.perf_counter()
        reference = reference_study(
            live_world, at,
            sample_size=live_scale.sample, seed=live_scale.seed,
            policy=ReprobePolicy(every_days=30.0),
        ).run()
        scratch_ms = (time.perf_counter() - start) * 1000.0

        # The golden contract, re-checked at benchmark scale.
        assert generation.version == LinkStatusIndex.build(reference).version
        assert result.dirty.size >= batch

        digest = {
            "events": batch,
            "dirty": result.dirty.size,
            "incremental_ms": round(incremental_ms, 2),
            "from_scratch_ms": round(scratch_ms, 2),
            "publish_ms": round(publish_ms, 2),
            "speedup": round(scratch_ms / incremental_ms, 2)
            if incremental_ms > 0
            else None,
        }
        _delta["batches"].append(digest)
        print(
            f"batch={batch}: dirty={digest['dirty']}, "
            f"incremental {digest['incremental_ms']}ms vs scratch "
            f"{digest['from_scratch_ms']}ms ({digest['speedup']}x)"
        )

    # Every delta build must beat the full rebuild it replaces.
    for digest in _delta["batches"]:
        assert digest["incremental_ms"] < _delta["full_build_ms"] or (
            digest["dirty"] >= _delta["sample_size"]
        )


def test_generation_swap_latency(benchmark, bench_out, pipeline, live_scale):
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
    horizon = max(r.arrival_ms for r in requests)
    swaps = [
        (horizon * (i + 1) / len(generations), generation.index)
        for i, generation in enumerate(generations[1:])
    ]

    def run(schedule):
        service = LinkStatusService(g0.index)
        start = time.perf_counter()
        result = service.serve(requests, swaps=schedule)
        return result, (time.perf_counter() - start) * 1000.0

    baseline, baseline_ms = run(None)
    (swapped, swapped_ms) = benchmark.pedantic(
        run, args=(list(swaps),), rounds=1, iterations=1
    )

    served_by_generation: dict[str, int] = {}
    for response in swapped.responses:
        served_by_generation[response.index_version] = (
            served_by_generation.get(response.index_version, 0) + 1
        )
    assert swapped.index_versions == tuple(
        g.version for g in generations
    )
    # Each batch's removal changed the content, so the generations are
    # genuinely distinct snapshots and several of them answered.
    assert len(set(swapped.index_versions)) == len(generations)
    assert len(served_by_generation) >= 2
    # Swaps relocate answers across generations without shedding more.
    assert len(swapped.shed_ids) == len(baseline.shed_ids)

    _swap.update(
        n_requests=len(requests),
        n_swaps=len(swaps),
        baseline=baseline.as_dict(),
        swapped=swapped.as_dict(),
        served_by_generation=served_by_generation,
        wall_ms={"baseline": round(baseline_ms, 2),
                 "swapped": round(swapped_ms, 2)},
        p99_delta_ms=round(
            swapped.latency_quantile(0.99) - baseline.latency_quantile(0.99),
            6,
        ),
    )
    print(
        f"swaps={len(swaps)}: p99 {baseline.as_dict()['p99_ms']}ms -> "
        f"{swapped.as_dict()['p99_ms']}ms, served by generation "
        f"{served_by_generation}"
    )

    payload = {
        "world": live_scale.as_dict(),
        "delta_rebuild": _delta,
        "swap": _swap,
    }
    out = bench_out("BENCH_live.json")
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out.name} ({len(_delta['batches'])} batch sizes)")
