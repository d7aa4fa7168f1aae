"""Tests for repro.archive — snapshots, store, availability, CDX, crawlers."""

import pickle

import pytest

from repro.archive.availability import AvailabilityApi, AvailabilityPolicy
from repro.archive.cdx import CdxApi, CdxQuery, MatchType
from repro.archive.crawler import (
    ArchiveCrawler,
    BodySketcher,
    CrawlPolicy,
    OrganicCrawlPlanner,
    TriggeredArchiver,
    TriggerEra,
    default_trigger_eras,
)
from repro.archive.snapshot import Snapshot
from repro.archive.store import SnapshotStore
from repro.clock import SimTime
from repro.dataset.worldgen import WorldConfig, generate_world
from repro.errors import ArchiveTimeout
from repro.rng import Stream
from repro.textsim.content import ContentGenerator
from test_worldgen_internals import WORLD_GOLDENS

T2008 = SimTime.from_ymd(2008, 1, 1)
T2010 = SimTime.from_ymd(2010, 1, 1)
T2012 = SimTime.from_ymd(2012, 1, 1)
T2014 = SimTime.from_ymd(2014, 1, 1)
T2016 = SimTime.from_ymd(2016, 1, 1)
T2022 = SimTime.from_ymd(2022, 3, 15)

URL = "http://site.example.com/news/story.html"
SIBLING = "http://site.example.com/news/other.html"
ELSEWHERE = "http://site.example.com/sports/match.html"


def snap(url=URL, at=T2010, status=200, location=None, final=None, final_url=None):
    return Snapshot(
        url=url,
        captured_at=at,
        initial_status=status,
        redirect_location=location,
        final_status=final if final is not None else status,
        final_url=final_url or url,
        sketch=(1, 2, 3),
    )


class TestSnapshot:
    def test_redirect_requires_location(self):
        with pytest.raises(ValueError):
            Snapshot(url=URL, captured_at=T2010, initial_status=302)

    def test_initial_ok(self):
        assert snap(status=200).initial_ok
        assert not snap(status=404).initial_ok

    def test_initial_redirected(self):
        assert snap(status=302, location="http://x.com/").initial_redirected

    def test_failed(self):
        failed = Snapshot(url=URL, captured_at=T2010, initial_status=None)
        assert failed.failed
        assert failed.looks_erroneous_by_status

    def test_erroneous_by_status(self):
        assert snap(status=404).looks_erroneous_by_status
        assert snap(status=503).looks_erroneous_by_status
        assert not snap(status=200).looks_erroneous_by_status
        # 3xx landing on a 200 is not erroneous by status alone.
        good_redirect = snap(status=301, location="http://x.com/a", final=200)
        assert not good_redirect.looks_erroneous_by_status
        bad_redirect = snap(status=301, location="http://x.com/a", final=404)
        assert bad_redirect.looks_erroneous_by_status

    def test_describe(self):
        assert "302 ->" in snap(status=302, location="http://x.com/").describe()


class TestSnapshotStore:
    def _store(self) -> SnapshotStore:
        store = SnapshotStore()
        store.add(snap(at=T2012, status=404))
        store.add(snap(at=T2008, status=200))
        store.add(snap(at=T2016, status=200))
        store.add(snap(url=SIBLING, at=T2010, status=200))
        store.add(snap(url=ELSEWHERE, at=T2010, status=200))
        return store

    def test_snapshots_sorted_by_time(self):
        rows = self._store().snapshots(URL)
        times = [r.captured_at.days for r in rows]
        assert times == sorted(times)

    def test_counts(self):
        store = self._store()
        assert len(store) == 5
        assert store.url_count() == 3

    def test_first_snapshot(self):
        assert self._store().first_snapshot(URL).captured_at == T2008

    def test_before_after_split(self):
        store = self._store()
        assert len(store.snapshots_before(URL, T2012)) == 1
        assert len(store.snapshots_after(URL, T2012)) == 2

    def test_closest_to(self):
        store = self._store()
        chosen = store.closest_to(URL, T2010)
        assert chosen.captured_at in (T2008, T2012)

    def test_closest_with_predicate(self):
        store = self._store()
        chosen = store.closest_to(URL, T2010, predicate=lambda s: s.initial_ok)
        assert chosen.captured_at == T2008

    def test_closest_no_match(self):
        store = self._store()
        assert store.closest_to("http://nowhere.com/x", T2010) is None

    def test_directory_index(self):
        urls = self._store().urls_in_directory("http://site.example.com/news/")
        assert set(urls) == {URL, SIBLING}

    def test_host_index(self):
        urls = self._store().urls_on_host("site.example.com")
        assert len(urls) == 3

    def test_domain_index(self):
        urls = self._store().urls_in_domain("example.com")
        assert len(urls) == 3

    def test_failed_capture_hidden_by_default(self):
        store = SnapshotStore()
        store.add(Snapshot(url=URL, captured_at=T2010, initial_status=None))
        assert store.snapshots(URL) == ()
        assert not store.has_any(URL)
        assert len(store.snapshots(URL, include_failed=True)) == 1


class TestAvailabilityApi:
    def _api(self, tail_ms=2000.0) -> AvailabilityApi:
        store = SnapshotStore()
        store.add(snap(at=T2008, status=200))
        store.add(snap(at=T2012, status=404))
        store.add(snap(at=T2016, status=200))
        return AvailabilityApi(
            store, AvailabilityPolicy(tail_scale_ms=tail_ms, seed="test")
        )

    def test_patient_lookup_finds_closest_200(self):
        api = self._api()
        result = api.lookup(URL, around=T2014)
        assert result.snapshot is not None
        assert result.snapshot.captured_at == T2016  # closest initial-200

    def test_404_copies_never_returned(self):
        api = self._api()
        result = api.lookup(URL, around=T2012)
        assert result.snapshot.initial_status == 200

    def test_before_restriction(self):
        api = self._api()
        result = api.lookup(URL, around=T2014, before=T2010)
        assert result.snapshot.captured_at == T2008

    def test_timeout_raises(self):
        api = self._api()
        # Find a URL whose first-attempt latency exceeds 1 ms.
        with pytest.raises(ArchiveTimeout):
            for i in range(50):
                api.lookup(f"http://u{i}.com/x", around=T2014, timeout_ms=1.0)
        assert api.timeout_count >= 1

    def test_latency_deterministic_per_attempt(self):
        policy = AvailabilityPolicy(seed="p")
        assert policy.latency_ms("u", 0) == policy.latency_ms("u", 0)
        assert policy.latency_ms("u", 0) != policy.latency_ms("u", 1)

    def test_timeout_probability_math(self):
        policy = AvailabilityPolicy(base_ms=50.0, tail_scale_ms=2000.0)
        p = policy.timeout_probability(5000.0)
        assert 0.05 < p < 0.12
        assert policy.timeout_probability(10.0) == 1.0

    def test_empirical_timeout_rate_matches_model(self):
        policy = AvailabilityPolicy(seed="emp")
        timeouts = sum(
            1
            for i in range(4000)
            if policy.latency_ms(f"http://u{i}.com/", 0) > 5000.0
        )
        expected = policy.timeout_probability(5000.0)
        assert abs(timeouts / 4000 - expected) < 0.02

    def test_lookup_counter(self):
        api = self._api()
        api.lookup(URL, around=T2014)
        assert api.lookup_count == 1


class TestCdxApi:
    def _cdx(self) -> CdxApi:
        store = SnapshotStore()
        store.add(snap(at=T2008, status=200))
        store.add(snap(at=T2012, status=302, location="http://site.example.com/"))
        store.add(snap(url=SIBLING, at=T2010, status=200))
        store.add(snap(url=ELSEWHERE, at=T2014, status=404))
        return CdxApi(store)

    def test_exact_query(self):
        rows = self._cdx().query(CdxQuery(url=URL))
        assert len(rows) == 2

    def test_status_filter(self):
        rows = self._cdx().query(CdxQuery(url=URL, initial_status=200))
        assert len(rows) == 1

    def test_time_bounds(self):
        rows = self._cdx().query(
            CdxQuery(url=URL, from_time=T2010, to_time=T2014)
        )
        assert len(rows) == 1
        assert rows[0].initial_status == 302

    def test_directory_scope(self):
        rows = self._cdx().query(
            CdxQuery(url=URL, match_type=MatchType.DIRECTORY)
        )
        assert {row.url for row in rows} == {URL, SIBLING}

    def test_directory_exclude_self(self):
        rows = self._cdx().query(
            CdxQuery(url=URL, match_type=MatchType.DIRECTORY, exclude_self=True)
        )
        assert {row.url for row in rows} == {SIBLING}

    def test_host_scope(self):
        rows = self._cdx().query(CdxQuery(url=URL, match_type=MatchType.HOST))
        assert {row.url for row in rows} == {URL, SIBLING, ELSEWHERE}

    def test_domain_scope(self):
        rows = self._cdx().query(CdxQuery(url=URL, match_type=MatchType.DOMAIN))
        assert len({row.url for row in rows}) == 3

    def test_prefix_scope(self):
        rows = self._cdx().query(
            CdxQuery(
                url="http://site.example.com/news/",
                match_type=MatchType.PREFIX,
            )
        )
        assert {row.url for row in rows} == {URL, SIBLING}

    def test_prefix_matches_query_url_string_not_directory(self):
        """matchType=prefix matches the query URL itself, like the real
        CDX server — not the query URL's directory.

        Regression: PREFIX used to filter against ``parsed.directory``,
        returning every same-directory URL regardless of the query
        string, so a query for ``.../news/story`` wrongly matched
        ``.../news/other.html``.
        """
        cdx = self._cdx()
        rows = cdx.query(
            CdxQuery(
                url="http://site.example.com/news/story",
                match_type=MatchType.PREFIX,
            )
        )
        assert {row.url for row in rows} == {URL}  # story.html only

        # A URL that is itself a proper prefix of its siblings matches
        # itself, the sibling leaf, and subdirectory descendants.
        store = SnapshotStore()
        short = "http://site.example.com/news/story"
        longer = "http://site.example.com/news/story.html"
        nested = "http://site.example.com/news/story/part2.html"
        unrelated = "http://site.example.com/news/other.html"
        for url in (short, longer, nested, unrelated):
            store.add(snap(url=url, at=T2010, status=200))
        rows = CdxApi(store).query(
            CdxQuery(url=short, match_type=MatchType.PREFIX)
        )
        assert {row.url for row in rows} == {short, longer, nested}

        rows = CdxApi(store).query(
            CdxQuery(url=short, match_type=MatchType.PREFIX, exclude_self=True)
        )
        assert {row.url for row in rows} == {longer, nested}

    def test_archived_urls_collapse(self):
        urls = self._cdx().archived_urls(
            CdxQuery(
                url=URL,
                match_type=MatchType.HOST,
                initial_status=200,
                exclude_self=True,
            )
        )
        assert urls == (SIBLING,)

    def test_limit(self):
        rows = self._cdx().query(
            CdxQuery(url=URL, match_type=MatchType.HOST, limit=2)
        )
        assert len(rows) == 2

    def test_query_counter(self):
        cdx = self._cdx()
        cdx.query(CdxQuery(url=URL))
        cdx.archived_urls(CdxQuery(url=URL))
        assert cdx.query_count == 2


class TestCrawlPolicy:
    def test_plain_urls_crawlable(self):
        assert CrawlPolicy().crawlable("http://e.com/a/b.html")

    def test_few_params_ok(self):
        assert CrawlPolicy().crawlable("http://e.com/x.asp?a=1&b=2")

    def test_many_params_rejected(self):
        assert not CrawlPolicy().crawlable("http://e.com/x.asp?a=1&b=2&c=3&d=4")

    def test_long_query_rejected(self):
        assert not CrawlPolicy().crawlable(
            "http://e.com/x.asp?key=" + "v" * 60
        )

    def test_malformed_rejected(self):
        assert not CrawlPolicy().crawlable("not a url")


class TestArchiveCrawler:
    def test_capture_stores_snapshot(self, micro_web):
        store = SnapshotStore()
        crawler = ArchiveCrawler(micro_web.fetcher(), store)
        result = crawler.capture(
            "http://news.example.com/stays/alive.html", T2010
        )
        assert result is not None
        assert result.initial_status == 200
        assert store.has_any("http://news.example.com/stays/alive.html")

    def test_capture_of_404(self, micro_web):
        store = SnapshotStore()
        crawler = ArchiveCrawler(micro_web.fetcher(), store)
        result = crawler.capture("http://news.example.com/gone/deleted.html", T2016)
        assert result.initial_status == 404

    def test_capture_of_redirect_records_initial_and_final(self, micro_web):
        store = SnapshotStore()
        crawler = ArchiveCrawler(micro_web.fetcher(), store)
        result = crawler.capture(
            "http://news.example.com/moved/prompt.html", T2016
        )
        assert result.initial_status == 301
        assert result.redirect_location == (
            "http://news.example.com/new/prompt-target.html"
        )
        assert result.final_status == 200

    def test_transport_failure_stores_nothing(self, micro_web):
        store = SnapshotStore()
        crawler = ArchiveCrawler(micro_web.fetcher(), store)
        result = crawler.capture("http://unregistered.example.org/x", T2010)
        assert result is None
        assert crawler.capture_failures == 1
        assert len(store) == 0

    def test_sketcher_caches_cores(self):
        sketcher = BodySketcher()
        sketcher.sketch("same core text here req1111")
        sketcher.sketch("same core text here req2222")
        assert sketcher.misses == 1


class TestDeferredSketches:
    """Captures defer their sketch; reads must see the eager value."""

    ALIVE = "http://news.example.com/stays/alive.html"

    def test_capture_does_not_sketch(self, micro_web):
        crawler = ArchiveCrawler(micro_web.fetcher(), SnapshotStore())
        crawler.capture(self.ALIVE, T2010)
        crawler.capture(self.ALIVE, T2012)
        assert crawler._sketcher.misses == 0

    def test_deferred_snapshot_matches_eager_one(self, micro_web):
        crawler = ArchiveCrawler(micro_web.fetcher(), SnapshotStore())
        deferred = crawler.capture(self.ALIVE, T2010)
        body = micro_web.fetcher().fetch(self.ALIVE, T2010).body
        eager = Snapshot(
            url=deferred.url,
            captured_at=deferred.captured_at,
            initial_status=deferred.initial_status,
            redirect_location=deferred.redirect_location,
            final_status=deferred.final_status,
            final_url=deferred.final_url,
            sketch=BodySketcher().sketch(body),
        )
        # Hash and repr first: both must resolve the deferred sketch.
        assert hash(deferred) == hash(eager)
        assert repr(deferred) == repr(eager)
        assert deferred == eager and eager == deferred
        assert deferred.sketch == eager.sketch != ()
        for original in (deferred, eager):
            copy = pickle.loads(pickle.dumps(original))
            assert copy == deferred and copy == eager
            assert type(copy.sketch) is tuple

    def test_differing_sketch_breaks_equality(self, micro_web):
        crawler = ArchiveCrawler(micro_web.fetcher(), SnapshotStore())
        deferred = crawler.capture(self.ALIVE, T2010)
        other = Snapshot(
            url=deferred.url,
            captured_at=deferred.captured_at,
            initial_status=deferred.initial_status,
            final_status=deferred.final_status,
            final_url=deferred.final_url,
            sketch=(1, 2, 3),
        )
        assert deferred != other

    def test_snapshots_are_immutable(self):
        with pytest.raises(AttributeError):
            snap().initial_status = 404
        with pytest.raises(AttributeError):
            snap().sketch = ()

    def test_minhash_runs_once_per_stem(self, micro_web, monkeypatch):
        import repro.archive.crawler as crawler_module

        computed = []
        real = crawler_module.minhash_sketch

        def counting(stem):
            computed.append(stem)
            return real(stem)

        monkeypatch.setattr(crawler_module, "minhash_sketch", counting)
        store = SnapshotStore()
        crawler = ArchiveCrawler(micro_web.fetcher(), store)
        urls = [self.ALIVE, "http://news.example.com/gone/deleted.html"]
        for url in urls:
            for year in (2009, 2010, 2011, 2013, 2014):
                crawler.capture(url, SimTime.from_ymd(year, 1, 1))
        rows = [row for url in urls for row in store.snapshots(url)]
        assert len(rows) == 10
        for _ in range(2):
            for row in rows:
                assert row.sketch
        sketcher = crawler._sketcher
        stems = {row._sketch.stem for row in rows}
        assert len(stems) < len(rows)
        assert sketcher.misses == len(stems) == len(computed)
        assert sorted(computed) == sorted(stems)
        # The eager path shares the memo with the deferred one.
        for url in urls:
            sketcher.sketch(micro_web.fetcher().fetch(url, T2010).body)
        assert sketcher.misses == len(stems)


#: ``BodySketcher.misses`` once every sketch of a toy world has been
#: read, recorded when captures still keyed their cells by body text:
#: one MinHash per distinct core text.
SKETCH_MISSES = {(160, 11): 770, (240, 2022): 519}

#: Page renders while generating each toy world. All of them are
#: robots.txt fetches of parked sites, whose lander is served at every
#: path; a capture never renders the page it captures.
ROBOTS_RENDERS = {(160, 11): 10, (240, 2022): 0}


@pytest.fixture(scope="module", params=sorted(WORLD_GOLDENS))
def toy_world(request):
    """A golden toy world, with the renders its generation made."""
    renders = {"robots": 0, "other": 0}
    in_robots = []
    real_render = ContentGenerator.render
    real_robots_allow = ArchiveCrawler._robots_allow

    def render(self, core, nonce):
        renders["robots" if in_robots else "other"] += 1
        return real_render(self, core, nonce)

    def robots_allow(self, parsed, at):
        in_robots.append(parsed)
        try:
            return real_robots_allow(self, parsed, at)
        finally:
            in_robots.pop()

    n_links, seed = request.param
    patch = pytest.MonkeyPatch()
    patch.setattr(ContentGenerator, "render", render)
    patch.setattr(ArchiveCrawler, "_robots_allow", robots_allow)
    try:
        world = generate_world(
            WorldConfig(n_links=n_links, target_sample=n_links, seed=seed)
        )
    finally:
        patch.undo()
    return request.param, world, renders


class TestContentIdCells:
    """Captures key sketch cells by content id and never render."""

    def test_only_robots_fetches_render(self, toy_world):
        key, _, renders = toy_world
        assert renders == {"robots": ROBOTS_RENDERS[key], "other": 0}

    def test_cells_partition_snapshots_as_stem_text_does(self, toy_world):
        _, world, _ = toy_world
        fetcher = world.web.fetcher()
        stems_of_cell: dict[int, set[str]] = {}
        cells_of_stem: dict[str, set[int]] = {}
        for url in world.store.all_urls():
            for row in world.store.snapshots(url):
                body = fetcher.fetch(url, row.captured_at).body
                stem = body.rsplit(" ", 1)[0] if " " in body else body
                cell = row._sketch
                assert cell.stem == stem
                stems_of_cell.setdefault(id(cell), set()).add(stem)
                cells_of_stem.setdefault(stem, set()).add(id(cell))
        assert all(len(stems) == 1 for stems in stems_of_cell.values())
        assert all(len(cells) == 1 for cells in cells_of_stem.values())
        assert any(isinstance(k, tuple) for k in world.crawler._sketcher._cells)

    def test_misses_match_text_keyed_cells(self, toy_world):
        key, world, _ = toy_world
        store = world.store
        for url in store.all_urls():
            for row in store.snapshots(url, include_failed=True):
                assert row.sketch is not None
        assert world.crawler._sketcher.misses == SKETCH_MISSES[key]


class TestOrganicCrawlPlanner:
    def test_zero_rate_no_captures(self):
        planner = OrganicCrawlPlanner(horizon=T2022)
        assert planner.plan(T2010, 0.0, Stream(1)) == []

    def test_rate_controls_count(self):
        planner = OrganicCrawlPlanner(horizon=T2022)
        rng = Stream(2)
        counts = [len(planner.plan(T2010, 2.0, rng)) for _ in range(200)]
        mean = sum(counts) / len(counts)
        # ~12.2 years at 2/year.
        assert 20 < mean < 29

    def test_all_times_in_window(self):
        planner = OrganicCrawlPlanner(horizon=T2022)
        for t in planner.plan(T2010, 3.0, Stream(3)):
            assert T2010 < t < T2022


class TestTriggeredArchiver:
    def test_no_capture_before_eras(self):
        eras = default_trigger_eras(T2022)
        archiver = TriggeredArchiver(eras, Stream(4))
        assert archiver.capture_time_for(T2008) is None

    def test_covered_era_produces_delays(self):
        era = TriggerEra(
            start=T2010, end=T2022, coverage=1.0, delay_median_days=1.0
        )
        archiver = TriggeredArchiver((era,), Stream(5))
        times = [archiver.capture_time_for(T2014) for _ in range(50)]
        assert all(t is not None and t > T2014 for t in times)

    def test_coverage_fraction(self):
        era = TriggerEra(
            start=T2010, end=T2022, coverage=0.3, delay_median_days=1.0
        )
        archiver = TriggeredArchiver((era,), Stream(6))
        hits = sum(
            1 for _ in range(2000) if archiver.capture_time_for(T2014) is not None
        )
        assert 0.25 < hits / 2000 < 0.35

    def test_era_validation(self):
        with pytest.raises(ValueError):
            TriggerEra(start=T2010, end=T2008, coverage=0.5, delay_median_days=1.0)
        with pytest.raises(ValueError):
            TriggerEra(start=T2008, end=T2010, coverage=1.5, delay_median_days=1.0)
