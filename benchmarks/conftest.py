"""Benchmark fixtures: one full-scale world per session.

The world scale is configurable so CI can run smaller:

    REPRO_BENCH_LINKS=26000 pytest benchmarks/ --benchmark-only

Defaults to 12,000 wiki links (~5,000 permanently dead links in the
sample), which reproduces every shape at about a third of the paper's
scale in a few minutes. ``REPRO_BENCH_WORKERS`` shards the session's
study run across worker processes (default 1: serial keeps the
benchmark numbers free of multiprocessing noise; any value yields the
same report).

``bench_live.py`` and ``bench_reconfig.py`` share a second, smaller
world that they drive forward in place (``REPRO_BENCH_LIVE_LINKS``,
``REPRO_BENCH_LIVE_SAMPLE``, ``REPRO_BENCH_LIVE_REQUESTS``); each
module gets its own copy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import pytest

from repro.analysis.study import Study
from repro.backends import StackConfig
from repro.clock import SimTime
from repro.dataset.collector import Collector
from repro.dataset.sampler import sample_iabot_marked
from repro.dataset.worldgen import WorldConfig, generate_world
from repro.exec import StudyExecutor
from repro.live import (
    GenerationPublisher,
    IncrementalStudy,
    ReprobePolicy,
    WorldDriver,
)

BENCH_LINKS = int(os.environ.get("REPRO_BENCH_LINKS", "12000"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "11"))
#: The paper samples 10,000; we sample proportionally to world size.
BENCH_SAMPLE = int(os.environ.get("REPRO_BENCH_SAMPLE", "10000"))
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
#: Fault/retry posture for the session study (same env knobs as the
#: CLIs: REPRO_FAULT_PLAN / REPRO_FAULT_RATE / REPRO_RETRIES …);
#: defaults to the clean, retry-less stack the benchmarks report on.
STACK_CONFIG = StackConfig.from_env()

#: Where benches write their BENCH_*.json digests. Defaults to the
#: repo root (the committed copies EXPERIMENTS.md quotes); the smoke
#: test points it at a tmp dir so toy-scale runs never clobber them.
BENCH_OUT = Path(
    os.environ.get("REPRO_BENCH_OUT", Path(__file__).resolve().parent.parent)
)


@dataclass(frozen=True)
class LiveScale:
    """Scale of the live benches' private world."""

    links: int = int(os.environ.get("REPRO_BENCH_LIVE_LINKS", "2600"))
    sample: int = int(os.environ.get("REPRO_BENCH_LIVE_SAMPLE", "1000"))
    requests: int = int(os.environ.get("REPRO_BENCH_LIVE_REQUESTS", "8000"))
    seed: int = 11
    #: Editorial touches applied between consecutive builds.
    batch_sizes: tuple[int, ...] = (2, 8, 32)

    def as_dict(self) -> dict:
        """The ``world`` header of the live digests."""
        return {
            "n_links": self.links, "sample": self.sample, "seed": self.seed,
        }


LIVE = LiveScale()


@pytest.fixture(scope="session")
def paper_scale() -> bool:
    """Whether the world is big enough for paper-figure assertions.

    The ComparisonTable bands and headline shape claims reproduce the
    paper's percentages, which only stabilize near the full benchmark
    scale. The toy-scale smoke run (tests/test_bench_smoke.py) still
    executes every benchmark end-to-end — builds, measures, prints,
    writes digests — but skips the figure comparisons, which would
    hold a few-hundred-link world to paper-scale percentages.
    """
    return BENCH_LINKS >= 4000


@pytest.fixture(scope="session")
def bench_out():
    """Resolver for BENCH_*.json output paths (honors REPRO_BENCH_OUT)."""

    def resolve(name: str) -> Path:
        BENCH_OUT.mkdir(parents=True, exist_ok=True)
        return BENCH_OUT / name

    return resolve


@pytest.fixture(scope="session")
def world():
    """The benchmark universe (built once per session)."""
    config = WorldConfig(
        n_links=BENCH_LINKS, target_sample=BENCH_SAMPLE, seed=BENCH_SEED
    )
    return generate_world(config)


@pytest.fixture(scope="session")
def report(world):
    """The full study over the benchmark universe."""
    executor = StudyExecutor(workers=BENCH_WORKERS)
    return Study.from_world(
        world,
        faults=STACK_CONFIG.build_faults(),
        retry_policy=STACK_CONFIG.build_retry_policy(),
    ).run(executor=executor)


@pytest.fixture(scope="session")
def study_stats(report):
    """Execution accounting (phase timings, cache hit rates) for the
    session's study run."""
    return report.stats


@pytest.fixture(scope="session")
def random_sample_dataset(world):
    """The paper's representativeness control: links sampled from the
    whole category rather than the alphabetical prefix."""
    collector = Collector(world.encyclopedia, world.site_rankings)
    collected = collector.collect()  # every category article
    sampled = sample_iabot_marked(
        collected, world.config.target_sample, seed=20220901
    )
    return collector.to_dataset(sampled, description="random sample")


@pytest.fixture(scope="session")
def live_scale() -> LiveScale:
    """Scale knobs of the live benches' world."""
    return LIVE


@pytest.fixture(scope="module")
def live_world():
    """A private mutable world — the driver edits it in place."""
    return generate_world(
        WorldConfig(
            n_links=LIVE.links, target_sample=LIVE.sample, seed=LIVE.seed
        )
    )


@pytest.fixture(scope="module")
def pipeline(live_world):
    """Engine, driver, publisher and URL-touch helper shared by one
    live bench module's arms (which run in order)."""
    driver = WorldDriver(live_world)
    return {
        "inc": IncrementalStudy(
            live_world, sample_size=LIVE.sample, seed=LIVE.seed,
            policy=ReprobePolicy(every_days=30.0),
        ),
        "driver": driver,
        "publisher": GenerationPublisher(retain=len(LIVE.batch_sizes) + 1),
        "touch": partial(_touch_sampled_urls, live_world, driver),
    }


def _touch_sampled_urls(world, driver, urls, at_days, count) -> int:
    """Post ``count`` sampled URLs onto articles that lack them.

    Each edit emits one :class:`LinkPostedEvent` (the (title, url)
    pair is checked to be new), so the batch lands exactly ``count``
    lifecycle events on sampled URLs.
    """
    encyclopedia = world.encyclopedia
    titles = encyclopedia.titles()
    touched = 0
    candidates = iter(urls)
    step = 0.001
    while touched < count:
        url = next(candidates)
        title = titles[-1 - (touched % min(10, len(titles)))]
        already = {ref.url for ref in encyclopedia.article(title).link_refs()}
        if url in already:
            continue
        driver.add_link(title, url, SimTime(at_days + touched * step))
        touched += 1
    return touched
