"""The benchmark's stages: batch study, live refresh, mixed serving.

Every workload runs the same three stages and differs only in its
:class:`Mix`, i.e. how many samples each stage gets. A run is a
sequence of slots; each slot may take one batch sample (seed ->
world -> StudyReport -> index, then the set-up that world needs),
then runs a segment of live refresh cycles and a few serving replays
against the world kept from the first slot. Interleaving the stages
spreads every metric's samples over the whole run, so a stretch of
slow machine time touches all metrics alike instead of one stage.

The world is pinned (:data:`WORLD`) rather than drawn from the seed:
at a fixed link count the replay work of a world varies by 20-45%
between world seeds (heavy-tailed domain sizes), which no usable
regression bound could absorb. The seed drives everything else: the
study sample, the live write mix and the serving schedule.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import repro.dataset.worldgen as worldgen
import repro.service.reconfig as reconfig
from repro.analysis.study import Study
from repro.clock import SimTime
from repro.exec import StudyExecutor
from repro.live import (
    GenerationPublisher,
    IncrementalStudy,
    ReprobePolicy,
    WorldDriver,
    reference_study,
)
from repro.service import (
    ClusterConfig,
    ClusterService,
    DeltaApply,
    GenerationDelta,
    LinkStatusIndex,
    LinkStatusService,
    ReconfigError,
    ServerConfig,
    ServiceFaultPlan,
    WorkloadConfig,
    generate_workload,
)
from repro.service.server import answer

#: The pinned world every batch sample generates (~3 s on a 2-CPU box).
WORLD = worldgen.WorldConfig(n_links=600, seed=11)
#: Records the batch study samples; below the world's 75 IABot-marked
#: links, so the seed changes which records are studied.
BATCH_SAMPLE = 48

#: Re-probe epochs far apart, so no cycle falls due wholesale and the
#: per-cycle dirty set is the write mix's own.
LIVE_POLICY = ReprobePolicy(every_days=365.0)
#: Sim-time spacing of cycles and of writes within a cycle (days).
CYCLE_DAYS = 0.01
WRITE_STEP_DAYS = 1e-4
BUILD_OFFSET_DAYS = 0.002
ADDS_PER_CYCLE = 3
CAPTURES_PER_CYCLE = 2
SWEEP_EVERY = 4
#: Bare references stay this many cycles before a cycle removes them.
REMOVE_LAG = 20

#: Cache smaller than the ~100-key index, so the cache and the index
#: lookups both carry load.
SERVER = ServerConfig(cache_capacity=32)
CLUSTER = ClusterConfig(n_shards=4, replicas_per_shard=2)
#: Plan seed 27 at rate 0.5 slows exactly one replica of each shard
#: (s0r1, s1r0, s2r0, s3r0): every shard's tail pays the same tax, so
#: the cluster's virtual p99 does not hinge on which domains land where.
SLOW_REPLICAS = ServiceFaultPlan.slow_replicas(0.5, seed=27)
#: Single-node replays per serving replay: a node replay takes a third
#: of a cluster replay, so it gets three samples to the cluster's one.
NODE_REPEATS = 3
#: Offered load as a share of the token rate: near capacity, no shedding.
LOAD = 0.85
AGGREGATE_SHARE = 0.05
UNKNOWN_SHARE = 0.05


@dataclass(frozen=True)
class Mix:
    """How much work a workload gives each stage."""

    #: Slots in a run; each runs ``cycles`` and ``replays``.
    slots: int
    #: Batch samples (each followed by a set-up), spread over the slots.
    batches: int
    #: Live refresh cycles per slot.
    cycles: int
    #: Serving replays per slot (each replays the schedule through the
    #: single node, then through the cluster).
    replays: int
    #: Requests in the serving schedule.
    requests: int


class Sample(NamedTuple):
    """One timed sample: its value and when it ran."""

    value: float
    #: Whether the sample ran with the layer tracer installed.
    traced: bool
    #: ``time.perf_counter()`` at the sample's start and end.
    start: float
    end: float


@dataclass
class RunResult:
    """Samples, work counters and check failures of one run.

    ``counters`` are exact and must repeat on every run of one seed.
    """

    batch_s: list[Sample] = field(default_factory=list)
    setup_s: list[Sample] = field(default_factory=list)
    refresh_ms: list[Sample] = field(default_factory=list)
    node_s: list[Sample] = field(default_factory=list)
    cluster_s: list[Sample] = field(default_factory=list)
    #: Whole-stage wall times, for the tracing overhead.
    live_s: list[Sample] = field(default_factory=list)
    serve_s: list[Sample] = field(default_factory=list)
    drive_ms: list[float] = field(default_factory=list)
    p99_virtual_ms: float = 0.0
    batch_version: str = ""
    counters: dict[str, float] = field(default_factory=dict)
    #: Study phase seconds and cache counts of traced stages.
    study: Counter = field(default_factory=Counter)
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)


@contextmanager
def _stage(tracer, name: str):
    """Run one stage, traced when a tracer is given."""
    if tracer is None:
        yield
        return
    with tracer.installed(), tracer.span(name):
        yield


def _add_study_stats(acc: Counter, report) -> None:
    stats = report.stats
    for phase, seconds in stats.phase_seconds.items():
        acc[f"phase:{phase}"] += seconds
    acc["fetches"] += stats.fetches
    acc["fetch_cache_hits"] += stats.fetch_cache_hits
    acc["cdx_queries"] += stats.cdx_queries
    acc["cdx_cache_hits"] += stats.cdx_cache_hits


class WritePlan:
    """The seeded per-cycle write mix of the live stage.

    Each cycle: ``ADDS_PER_CYCLE`` bare references to sampled URLs on
    articles taken round-robin over the whole encyclopedia (so the
    per-cycle cost does not drift with run length), one human
    ``mark_dead`` of the newest addition, one ``remove_link`` of the
    addition made ``REMOVE_LAG`` cycles ago, ``CAPTURES_PER_CYCLE``
    captures of sampled URLs, and a rolling bot sweep every
    ``SWEEP_EVERY`` cycles.
    """

    def __init__(self, world, index: LinkStatusIndex, seed: int) -> None:
        self._encyclopedia = world.encyclopedia
        self._titles = world.encyclopedia.titles()
        self.urls = [entry.url for entry in index.entries]
        rng = random.Random(f"perfbench.live:{seed}")
        self._next_title = rng.randrange(len(self._titles))
        # Additions and captures walk seeded permutations of the sampled
        # URLs, so every seed touches each URL about equally often and
        # only the order of the work changes with the seed.
        self._added_urls = self._shuffled(rng)
        self._captured_urls = self._shuffled(rng)
        self._added: deque[tuple[str, str]] = deque()
        self.cycle = 0
        self.writes = 0
        self.failed = 0

    def _shuffled(self, rng: random.Random):
        order = list(self.urls)
        rng.shuffle(order)
        return itertools.cycle(order)

    def _fresh_pair(self) -> tuple[str, str]:
        """The next article and a sampled URL it does not cite yet."""
        while True:
            title = self._titles[self._next_title % len(self._titles)]
            self._next_title += 1
            text = self._encyclopedia.article(title).wikitext
            for _ in range(8):
                url = next(self._added_urls)
                if url not in text:
                    return title, url

    def drive(self, driver: WorldDriver, day: float) -> None:
        """Apply one cycle's writes at sim instants just after ``day``."""
        tick = itertools.count(1)

        def at() -> SimTime:
            return SimTime(day + next(tick) * WRITE_STEP_DAYS)

        for _ in range(ADDS_PER_CYCLE):
            title, url = self._fresh_pair()
            driver.add_link(title, url, at())
            self._added.append((title, url))
        self.writes += ADDS_PER_CYCLE
        self._check(driver.mark_dead(*self._added[-1], at()))
        if len(self._added) > REMOVE_LAG * ADDS_PER_CYCLE:
            self._check(driver.remove_link(*self._added.popleft(), at()))
        for _ in range(CAPTURES_PER_CYCLE):
            driver.capture(next(self._captured_urls), at())
            self.writes += 1
        if self.cycle % SWEEP_EVERY == SWEEP_EVERY - 1:
            driver.sweep(at())
            self.writes += 1
        self.cycle += 1

    def _check(self, applied: bool) -> None:
        self.writes += 1
        if not applied:
            self.failed += 1


def batch_index(seed: int) -> tuple[object, object, LinkStatusIndex]:
    """Seed -> world -> StudyReport -> LinkStatusIndex (the batch stage)."""
    world = worldgen.generate_world(WORLD)
    study = Study.from_world(world, sample_size=BATCH_SAMPLE, seed=seed)
    report = study.run(StudyExecutor(workers=1))
    return world, report, LinkStatusIndex.build(report)


class LiveWorld:
    """One world after set-up: the live engine, its generations, the
    serving schedule and the services the replays will use."""

    def __init__(self, world, seed: int, mix: Mix) -> None:
        self.world = world
        self.seed = seed
        self.driver = WorldDriver(world)
        base = world.study_time.days
        # One full rolling bot pass first, so later sweeps mark few new
        # links and the sample stays near its starting size.
        for shard in range(WORLD.sweep_shards):
            self.driver.sweep(SimTime(base + (shard + 1) * WRITE_STEP_DAYS))
        self.day = base + 0.002
        self.engine = IncrementalStudy(world, seed=seed, policy=LIVE_POLICY)
        self.publisher = GenerationPublisher(retain=2)
        first = self.publisher.publish(self.engine.build(SimTime(self.day)))
        self.plan = WritePlan(world, first.index, seed)
        self.failed_cycles = 0
        self.dirty = self.events = self.delta_bytes = 0
        # Most cycles leave the index content unchanged, so the two
        # generations the serving schedule swaps to each evict one
        # sampled URL from every article, which always changes it.
        generations = [first]
        evictions = random.Random(f"perfbench.evict:{seed}")
        for url in evictions.sample(sorted(self.plan.urls), 2):
            self.day += CYCLE_DAYS
            self._evict(url)
            result = self.engine.build(SimTime(self.day + BUILD_OFFSET_DAYS))
            generations.append(self.publisher.publish(result))
        self.setup_failures = len({g.version for g in generations}) != 3
        self.serving = generations[-1].index
        self.generations = {g.version: g.index for g in generations}
        self.versions = tuple(g.version for g in generations)

        first, middle, last = generations
        urls = [entry.url for entry in first.index.entries]
        self.requests = generate_workload(
            urls,
            WorkloadConfig(
                n_requests=mix.requests,
                offered_rps=LOAD * SERVER.rate_rps,
                seed=seed,
                aggregate_fraction=AGGREGATE_SHARE,
                unknown_fraction=UNKNOWN_SHARE,
            ),
        )
        horizon = self.requests[-1].arrival_ms
        self.swaps = (
            DeltaApply(
                at_ms=horizon / 3.0,
                delta=GenerationDelta.between(first.index, middle.index),
            ),
            DeltaApply(
                at_ms=2.0 * horizon / 3.0,
                drain=True,
                delta=GenerationDelta.between(middle.index, last.index),
            ),
        )
        # Every replay gets fresh services (cold caches, full token
        # bucket); building them is set-up, not serving.
        self.services = deque(
            (
                [LinkStatusService(first.index, SERVER) for _ in range(NODE_REPEATS)],
                ClusterService(first.index, SERVER, CLUSTER, faults=SLOW_REPLICAS),
            )
            for _ in range(mix.slots * mix.replays)
        )

    def _evict(self, url: str) -> None:
        tick = itertools.count(1)
        encyclopedia = self.world.encyclopedia
        for title in encyclopedia.titles():
            if url not in encyclopedia.article(title).wikitext:
                continue
            while self.driver.remove_link(
                title, url, SimTime(self.day + next(tick) * WRITE_STEP_DAYS)
            ):
                pass

    def cycle(self) -> tuple[float, float, float]:
        """One live cycle; returns (drive ms, refresh start, refresh end).

        Refresh runs from the cycle's last world event to a verified
        delta applied on the serving copy.
        """
        self.day += CYCLE_DAYS
        drive_start = time.perf_counter()
        self.plan.drive(self.driver, self.day)
        last_event = time.perf_counter()
        result = self.engine.build(SimTime(self.day + BUILD_OFFSET_DAYS))
        generation = self.publisher.publish(result)
        delta = self.publisher.build_delta()
        try:
            self.serving = reconfig.apply_delta(self.serving, delta)
            applied = self.serving.version == generation.version
        except ReconfigError:
            self.serving, applied = generation.index, False
        done = time.perf_counter()
        self.failed_cycles += not applied
        self.dirty += result.dirty.size
        self.events += result.events_consumed
        self.delta_bytes += delta.wire_bytes()
        self.last_report = result.report
        return (last_event - drive_start) * 1000.0, last_event, done

    def reference_mismatch(self) -> bool:
        """Whether the current generation differs from a from-scratch
        study of the world at the same instant."""
        reference = LinkStatusIndex.build(
            reference_study(
                self.world, SimTime(self.day + BUILD_OFFSET_DAYS),
                seed=self.seed, policy=LIVE_POLICY,
            ).run(StudyExecutor(workers=1))
        )
        return reference.version != self.publisher.current.version


def _batch_counters(world, report, index) -> dict[str, float]:
    return {
        "batch_entries": len(index),
        "captures": world.crawler.capture_attempts,
        "robots_denied": world.crawler.robots_denied,
        "snapshots": len(world.store),
        "edits": sum(
            len(world.encyclopedia.article(title).revisions)
            for title in world.encyclopedia.titles()
        ),
        "sweeps": len(WORLD.sweep_times),
        "study_fetches": report.stats.fetches,
        "study_cdx_queries": report.stats.cdx_queries,
        "snapshot_bytes": reconfig.snapshot_wire_bytes(index),
    }


def _serve_counters(node, cluster) -> dict[str, float]:
    node_metrics = node.metrics
    return {
        "node_index_lookups": node_metrics.counter("service.index.lookups").int_value,
        "node_cache_hits": node_metrics.counter("service.cache.hits").int_value,
        "node_coalesced": node_metrics.counter("service.batch.coalesced").int_value,
        "node_batches": node_metrics.counter("service.batch.flushes").int_value,
        "node_batch_items": node_metrics.counter("service.batch.items").int_value,
        "node_shed": len(node.shed_ids),
        "cluster_index_lookups": cluster.metrics.counter(
            "service.index.lookups"
        ).int_value,
        "cluster_cache_hits": cluster.metrics.counter("service.cache.hits").int_value,
        "cluster_shed": len(cluster.shed_ids),
        "redispatches": cluster.redispatches,
        "drained_batches": sum(
            event.drained_batches
            for served in (node, cluster)
            for event in served.reconfig_events
        ),
        "p99_virtual_ms": cluster.latency_quantile(0.99),
    }


def _response_mismatches(served, requests, generations) -> int:
    """Served responses whose body differs from ``answer()`` on the
    generation that served them (shed responses carry no body)."""
    mismatches = 0
    for request, response in zip(requests, served.responses):
        if response.shed:
            continue
        index = generations.get(response.index_version)
        if index is None or response.request_id != request.request_id:
            mismatches += 1
            continue
        if answer(index, request.kind, request.target) != (
            response.status, response.body,
        ):
            mismatches += 1
    return mismatches


def run(mix: Mix, seed: int, tracer=None) -> RunResult:
    """One benchmark run.

    With a ``tracer`` (a :class:`tracing.LayerTracer`), every second
    occurrence of each stage is traced and the rest run untraced; the
    difference between the two is the tracing overhead.
    """
    out = RunResult()
    failures = out.failures
    batch_slots = {i * mix.slots // mix.batches for i in range(mix.batches)}
    occurrences: Counter = Counter()

    def tracer_for(kind: str):
        occurrences[kind] += 1
        if tracer is not None and occurrences[kind] % 2 == 0:
            return tracer
        return None

    live: LiveWorld | None = None
    batch_counters: dict | None = None
    serve_counters: dict | None = None
    versions: set[str] = set()
    def timed(samples: list, traced: bool, start: float, end: float,
              scale: float = 1.0) -> None:
        samples.append(Sample((end - start) * scale, traced, start, end))

    for slot in range(mix.slots):
        if slot in batch_slots:
            stage_tracer = tracer_for("batch")
            traced = stage_tracer is not None
            start = time.perf_counter()
            with _stage(stage_tracer, "stage.batch"):
                world, report, index = batch_index(seed)
            timed(out.batch_s, traced, start, time.perf_counter())
            out.attempted += 1
            versions.add(index.version)
            counters = _batch_counters(world, report, index)
            if batch_counters is None:
                batch_counters = counters
            elif counters != batch_counters:
                failures["batch_counters"] += 1
            if traced:
                _add_study_stats(out.study, report)
            start = time.perf_counter()
            with _stage(stage_tracer, "stage.setup"):
                prepared = LiveWorld(world, seed, mix)
            timed(out.setup_s, traced, start, time.perf_counter())
            failures["setup_generations"] += prepared.setup_failures
            if live is None:
                live = prepared
            del world, report, index, prepared

        stage_tracer = tracer_for("live")
        traced = stage_tracer is not None
        start = time.perf_counter()
        with _stage(stage_tracer, "stage.live"):
            for _ in range(mix.cycles):
                drive_ms, began, done = live.cycle()
                out.drive_ms.append(drive_ms)
                timed(out.refresh_ms, traced, began, done, scale=1000.0)
                if traced:
                    _add_study_stats(out.study, live.last_report)
        timed(out.live_s, traced, start, time.perf_counter())
        out.attempted += mix.cycles

        stage_tracer = tracer_for("serve")
        traced = stage_tracer is not None
        start = time.perf_counter()
        with _stage(stage_tracer, "stage.serve"):
            for _ in range(mix.replays):
                nodes, cluster = live.services.popleft()
                node_results = []
                for node in nodes:
                    began = time.perf_counter()
                    node_results.append(
                        node.serve(live.requests, mode="serial", swaps=live.swaps)
                    )
                    timed(out.node_s, traced, began, time.perf_counter())
                began = time.perf_counter()
                cluster_result = cluster.serve(
                    live.requests, mode="serial", swaps=live.swaps
                )
                timed(out.cluster_s, traced, began, time.perf_counter())
                out.attempted += (len(nodes) + 1) * len(live.requests)
                failures["shed"] += len(cluster_result.shed_ids)
                for node_result in node_results:
                    failures["shed"] += len(node_result.shed_ids)
                    counters = _serve_counters(node_result, cluster_result)
                    if serve_counters is None:
                        serve_counters = counters
                        for served in (node_result, cluster_result):
                            failures["response"] += _response_mismatches(
                                served, live.requests, live.generations
                            )
                            if served.index_versions != live.versions:
                                failures["swap_versions"] += 1
                    elif counters != serve_counters:
                        failures["serve_counters"] += 1
        timed(out.serve_s, traced, start, time.perf_counter())

    failures["cycle_delta"] += live.failed_cycles
    failures["write"] += live.plan.failed
    out.attempted += live.plan.writes
    # The final generation must equal a from-scratch study at the same
    # instant (checked outside every timed stage).
    failures["live_reference"] += live.reference_mismatch()
    out.batch_version = min(versions)
    if len(versions) != 1:
        failures["batch_versions"] += 1
    out.p99_virtual_ms = serve_counters["p99_virtual_ms"]
    out.counters = {
        **batch_counters,
        **serve_counters,
        "requests": len(live.requests),
        "live_cycles": live.plan.cycle,
        "live_writes": live.plan.writes,
        "live_dirty": live.dirty,
        "live_events": live.events,
        "live_delta_bytes": live.delta_bytes,
        "live_entries": len(live.publisher.current.index),
    }
    return out
