"""Tests for world-generation internals: events, articles, sweeps."""

import dataclasses
import hashlib

import pytest

from repro.clock import SimTime
from repro.dataset.builder import WebBuilder, first_sweep_after
from repro.dataset.planner import plan_universe
from repro.dataset.worldgen import (
    WorldConfig,
    generate_world,
    _assemble_events,
    _EventKind,
    _plan_articles,
    _sweep_shard,
)
from repro.rng import RngRegistry


@pytest.fixture(scope="module")
def assembled():
    config = WorldConfig(n_links=400, target_sample=400, seed=31)
    rngs = RngRegistry(config.seed)
    plans = plan_universe(config, rngs)
    built = WebBuilder(config, rngs).build(plans)
    links = [link for plan in plans for link in plan.links]
    events = _assemble_events(config, rngs, built, links)
    return config, plans, built, links, events


class TestEventAssembly:
    def test_events_sorted(self, assembled):
        _, _, _, _, events = assembled
        keys = [event.sort_key() for event in events]
        assert keys == sorted(keys)

    def test_every_link_posted_exactly_once(self, assembled):
        _, _, _, links, events = assembled
        posted = []
        for event in events:
            if event.kind in (_EventKind.CREATE_ARTICLE, _EventKind.ADD_LINK):
                posted.append(event.payload[1].url)
        assert sorted(posted) == sorted(link.url for link in links)

    def test_sweep_count_matches_schedule(self, assembled):
        config, _, _, _, events = assembled
        sweeps = [e for e in events if e.kind is _EventKind.SWEEP]
        assert len(sweeps) == len(config.sweep_times)

    def test_sweep_shards_cycle(self, assembled):
        config, _, _, _, events = assembled
        shards = [e.payload[0] for e in events if e.kind is _EventKind.SWEEP]
        assert set(shards) == set(range(config.sweep_shards))

    def test_captures_before_study(self, assembled):
        config, _, _, _, events = assembled
        for event in events:
            if event.kind is _EventKind.CAPTURE:
                assert event.days < config.study_time.days

    def test_same_instant_ordering_prefers_edits(self, assembled):
        # CREATE < ADD_LINK < HUMAN_MARK < CAPTURE < SWEEP at equal time.
        assert _EventKind.CREATE_ARTICLE < _EventKind.ADD_LINK
        assert _EventKind.HUMAN_MARK < _EventKind.CAPTURE < _EventKind.SWEEP


class TestArticlePlanning:
    def test_all_links_assigned_once(self, assembled):
        _, _, _, links, _ = assembled
        rng = RngRegistry(9).stream("t")
        articles = _plan_articles(links, rng)
        assigned = [link.url for _, chunk in articles for link in chunk]
        assert sorted(assigned) == sorted(link.url for link in links)

    def test_titles_unique(self, assembled):
        _, _, _, links, _ = assembled
        rng = RngRegistry(9).stream("t")
        articles = _plan_articles(links, rng)
        titles = [title for title, _ in articles]
        assert len(titles) == len(set(titles))

    def test_article_sizes_in_range(self, assembled):
        _, _, _, links, _ = assembled
        rng = RngRegistry(9).stream("t")
        for _, chunk in _plan_articles(links, rng):
            assert 1 <= len(chunk) <= 5


class TestSweepSharding:
    def test_stable_assignment(self):
        assert _sweep_shard("Some Title", 8) == _sweep_shard("Some Title", 8)

    def test_spread_across_shards(self):
        shards = {_sweep_shard(f"Title {i}", 8) for i in range(200)}
        assert shards == set(range(8))


class TestBuilderHelpers:
    def test_first_sweep_after(self):
        sweeps = (SimTime(100.0), SimTime(200.0), SimTime(300.0))
        assert first_sweep_after(SimTime(150.0), sweeps) == SimTime(200.0)
        assert first_sweep_after(SimTime(50.0), sweeps) == SimTime(100.0)
        assert first_sweep_after(SimTime(300.0), sweeps) is None

    def test_builder_urls_unique(self, assembled):
        _, _, built, links, _ = assembled
        urls = [link.url for link in links]
        assert len(urls) == len(set(urls))

    def test_truth_covers_all_links(self, assembled):
        _, _, built, links, _ = assembled
        for link in links:
            assert link.url in built.truth

    def test_rankings_cover_all_hostnames(self, assembled):
        _, _, built, links, _ = assembled
        for link in links:
            hostname = built.truth[link.url].hostname
            assert hostname in built.site_rankings


def world_digest(world) -> str:
    """SHA-256 over everything the replay leaves behind.

    Covers every snapshot field (sketch included), every revision of
    every article, the link event log, the bot's counters and the
    crawler's attempt / failure / robots-denied counters.
    """
    digest = hashlib.sha256()

    def put(*fields) -> None:
        digest.update(repr(fields).encode())
        digest.update(b"\n")

    store = world.store
    for url in store.all_urls():
        for snap in store.snapshots(url, include_failed=True):
            put(
                snap.url, snap.captured_at.days, snap.initial_status,
                snap.redirect_location, snap.final_status, snap.final_url,
                snap.sketch,
            )
    encyclopedia = world.encyclopedia
    for title in encyclopedia.titles():
        for rev in encyclopedia.article(title).revisions:
            put(
                title, rev.revision_id, rev.timestamp.days, rev.user,
                rev.comment, rev.wikitext,
            )
    for event in encyclopedia.events.events():
        put(type(event).__name__, dataclasses.astuple(event))
    put(dataclasses.astuple(world.bot.stats))
    crawler = world.crawler
    put(
        crawler.capture_attempts, crawler.capture_failures,
        crawler.robots_denied,
    )
    return digest.hexdigest()


#: Digests of two toy worlds. Replay speed-ups (parse memos, deferred
#: sketches, ...) must leave every world byte-identical, so these change
#: only when the simulated history itself is meant to change.
WORLD_GOLDENS = {
    (160, 11): "c68bfbf25c7429c50196eb4ac4ac5e09bbfe40c98a812ee6675af8aafe7e5d7c",
    (240, 2022): "70c83f23ea18b13dc0b18e1558348e421a5e9cac409de941e0c6842622533e38",
}


class TestWorldGolden:
    @pytest.mark.parametrize("n_links, seed", sorted(WORLD_GOLDENS))
    def test_world_digest_pinned(self, n_links, seed):
        world = generate_world(
            WorldConfig(n_links=n_links, target_sample=n_links, seed=seed)
        )
        assert world_digest(world) == WORLD_GOLDENS[(n_links, seed)]
