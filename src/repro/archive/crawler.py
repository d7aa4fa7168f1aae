"""Crawl processes that populate the archive.

Two processes capture URLs, mirroring how the Internet Archive
actually discovers Wikipedia's external links (§5.1):

- **organic crawling** (:class:`OrganicCrawlPlanner`): every site is
  revisited at a popularity-dependent Poisson rate, so an unpopular
  site's pages may go years between captures — the engine behind the
  long tail of Figure 5;
- **event-triggered archiving** (:class:`TriggeredArchiver`): from 2013
  the Wikipedia Near Real Time service, and from 2018 the Wikipedia
  EventStream, fed newly-posted links to the archive. Coverage was far
  from complete (only ~7% of the paper's links were captured the day
  they were posted), so each era has a coverage probability and a
  short capture delay.

:class:`ArchiveCrawler` executes a capture: it fetches the URL through
the simulated web and records what it saw — including 404s and
redirects, which the real Wayback Machine also stores.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..clock import SimTime, EVENTSTREAM_START, WNRT_START
from ..errors import UrlError
from ..net.fetch import Fetcher
from ..net.http import HttpResponse
from ..rng import Stream
from ..textsim.content import ContentGenerator
from ..textsim.shingles import minhash_sketch
from ..urls.parse import ParsedUrl, QueryArgs, parse_url
from ..web import robots
from .snapshot import Snapshot
from .store import SnapshotStore


@dataclass(frozen=True, slots=True)
class CrawlPolicy:
    """Which URLs the archive's crawl frontier accepts.

    Web-scale crawlers deprioritise URLs with many query parameters —
    "the number of feasible values for some of the query parameters is
    practically unbounded" (§5.2) — which is the paper's first
    explanation for never-archived URLs. URLs rejected here are
    captured neither organically nor via the event feeds.
    """

    max_query_params: int = 2
    max_query_length: int = 48

    def crawlable(self, url: str) -> bool:
        """Whether the frontier accepts ``url``."""
        try:
            parsed = parse_url(url)
        except UrlError:
            return False
        if len(parsed.query) > self.max_query_length:
            return False
        return len(QueryArgs.parse(parsed.query)) <= self.max_query_params


def _stem(body: str) -> str:
    """``body`` minus its final (per-request noise) token."""
    return body.rsplit(" ", 1)[0] if " " in body else body


class DeferredSketch:
    """One body's MinHash sketch, computed on first read.

    A cell is keyed by the body's content id ``(site seed, page kind,
    path)`` when the web generated it, or by the body's stem (the body
    minus its noise token) for a literal body. It keeps only that key:
    :attr:`stem` rebuilds a generated page's core text from the id, and
    that core is exactly the stem of any render of the page.

    :meth:`BodySketcher.deferred` makes one cell per distinct key and
    hands the same cell to every snapshot of that content, so the
    sketch is computed at most once however many snapshots share it.
    Reading :attr:`value` goes through :meth:`BodySketcher.sketch`.
    """

    __slots__ = ("_sketcher", "key", "_value")

    def __init__(
        self, sketcher: "BodySketcher", key: str | tuple[str, str, str]
    ) -> None:
        self._sketcher = sketcher
        self.key = key
        self._value: tuple[int, ...] | None = None

    @property
    def stem(self) -> str:
        """The text this cell sketches."""
        key = self.key
        if isinstance(key, str):
            return key
        site_seed, kind, path = key
        return ContentGenerator(site_seed).core(kind, path)

    @property
    def value(self) -> tuple[int, ...]:
        """The sketch (computed now if this is the first read)."""
        value = self._value
        if value is None:
            # ``stem + " "`` is a body whose stem is ``stem``.
            value = self._value = self._sketcher.sketch(self.stem + " ")
        return value


class BodySketcher:
    """MinHash sketching with a core-body cache.

    Bodies in the simulated web are a stable core plus one trailing
    per-request noise token; the sketch is taken of the body minus its
    final token (its *stem*), once per distinct stem. The lost token
    perturbs the true sketch negligibly (4 shingles out of hundreds).

    Captures do not sketch, and do not render: :meth:`deferred` returns
    the response's shared :class:`DeferredSketch` cell in O(1), keyed by
    the body's content id without reading the body text, and the
    MinHash runs on the first read of any snapshot holding it — most
    captures are never read (only the soft-404 twin scan reads
    sketches). :meth:`sketch` is the eager form, keyed by stem text.

    ``misses`` counts MinHash computations, which happen at most once
    per distinct stem whichever path asks first.

    Sketching runs on whichever numeric backend
    :mod:`repro.numerics` selected — the numpy kernels when the
    ``repro[numpy]`` extra is installed, value-identical pure-stdlib
    kernels otherwise — so crawling works in a clean install
    (``tests/test_install_smoke.py`` pins this).
    """

    def __init__(self) -> None:
        self._cells: dict[str | tuple[str, str, str], DeferredSketch] = {}
        self.misses = 0

    def _cell(self, key: str | tuple[str, str, str]) -> DeferredSketch:
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = DeferredSketch(self, key)
        return cell

    def deferred(self, response: HttpResponse) -> DeferredSketch:
        """The shared, possibly not yet computed sketch of ``response``'s body.

        A generated body is keyed by its content id and is not rendered.
        """
        key = response.content_id
        return self._cell(_stem(response.body) if key is None else key)

    def sketch(self, body: str) -> tuple[int, ...]:
        """MinHash sketch of ``body`` (computed once per stem)."""
        cell = self._cell(_stem(body))
        if cell._value is None:
            self.misses += 1
            cell._value = minhash_sketch(cell.key)
        return cell._value


#: How long a fetched robots.txt stays cached before re-checking.
ROBOTS_CACHE_DAYS = 365.0


class ArchiveCrawler:
    """Fetch-and-record: the archive's capture executor.

    Honours robots.txt: before capturing a URL, the crawler fetches
    (and caches) the host's ``/robots.txt`` and skips disallowed paths
    — one of the real-world reasons a URL can be "never archived"
    while its site is otherwise covered.
    """

    def __init__(
        self,
        fetcher: Fetcher,
        store: SnapshotStore,
        honor_robots: bool = True,
    ) -> None:
        self._fetcher = fetcher
        self._store = store
        self._sketcher = BodySketcher()
        self._honor_robots = honor_robots
        self._robots_cache: dict[str, tuple[float, robots.RobotsRules]] = {}
        self.capture_attempts = 0
        self.capture_failures = 0
        self.robots_denied = 0

    def capture(self, url: str, at: SimTime) -> Snapshot | None:
        """Attempt to archive ``url`` at instant ``at``.

        Returns the stored snapshot, or ``None`` when robots.txt
        forbids the path or the fetch failed at the transport level
        (DNS failure / connect timeout) — such attempts leave no trace
        in the archive, exactly like the real Wayback Machine.
        """
        self.capture_attempts += 1
        try:
            parsed: ParsedUrl | None = parse_url(url)
        except UrlError:
            parsed = None
        if self._honor_robots and (
            parsed is None or not self._robots_allow(parsed, at)
        ):
            self.robots_denied += 1
            return None
        result = self._fetcher.fetch(url if parsed is None else parsed, at)
        if not result.chain:
            self.capture_failures += 1
            return None
        initial = result.chain[0]
        final = result.chain[-1]
        snapshot = Snapshot(
            url=url,
            captured_at=at,
            initial_status=initial.status,
            redirect_location=initial.location if initial.is_redirect else None,
            final_status=final.status,
            final_url=final.url,
            sketch=self._sketcher.deferred(final),
        )
        self._store.add(snapshot)
        return snapshot

    def robots_allows(self, url: str, at: SimTime) -> bool:
        """Public robots check (used by Save Page Now before queueing)."""
        try:
            parsed = parse_url(url)
        except UrlError:
            return False
        return self._robots_allow(parsed, at)

    def _robots_allow(self, parsed: ParsedUrl, at: SimTime) -> bool:
        """Consult the host's (cached) robots.txt for ``parsed``."""
        if parsed.path == "/robots.txt":
            return True
        host = parsed.host_lower
        cached = self._robots_cache.get(host)
        if cached is None or at.days - cached[0] > ROBOTS_CACHE_DAYS:
            result = self._fetcher.fetch(
                f"{parsed.scheme}://{parsed.hostname}/robots.txt", at
            )
            if result.final_status == 200:
                rules = robots.parse_robots(result.body)
            else:
                # Unreachable or missing robots: everything allowed
                # (the capture itself will fail if the host is gone).
                rules = robots.RobotsRules()
            self._robots_cache[host] = (at.days, rules)
            cached = self._robots_cache[host]
        return cached[1].allows(parsed.path)


@dataclass(frozen=True, slots=True)
class OrganicCrawlPlanner:
    """Poisson revisit schedules for organically crawled URLs.

    ``rate_per_year`` arrivals per year on average, starting at
    ``available_from`` (when the archive first learned the URL exists)
    and ending at ``horizon``.
    """

    horizon: SimTime

    def plan(
        self,
        available_from: SimTime,
        rate_per_year: float,
        rng: Stream,
    ) -> list[SimTime]:
        """Capture instants for one URL."""
        if rate_per_year <= 0:
            return []
        times: list[SimTime] = []
        mean_gap_days = 365.2425 / rate_per_year
        cursor = available_from.days
        while True:
            cursor += rng.expovariate(1.0 / mean_gap_days)
            if cursor >= self.horizon.days:
                return times
            times.append(SimTime(cursor))


@dataclass(frozen=True, slots=True)
class TriggerEra:
    """One era of link-posted-event archiving."""

    start: SimTime
    end: SimTime
    coverage: float          # probability a posted link gets a capture
    delay_median_days: float  # median capture delay when covered
    delay_sigma: float = 1.0  # log-normal spread of the delay

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError("coverage must be in [0, 1]")
        if not self.start < self.end:
            raise ValueError("era must have start < end")

    def covers(self, at: SimTime) -> bool:
        """Whether this era is active at instant ``at``."""
        return not at < self.start and at < self.end


def default_trigger_eras(horizon: SimTime) -> tuple[TriggerEra, ...]:
    """The WNRT (2013-2018) and EventStream (2018-) eras.

    Coverage values are calibration constants chosen so that ~7% of
    dataset links end up captured the day they were posted (§5.1),
    given the paper's posting-date distribution.
    """
    return (
        TriggerEra(
            start=WNRT_START,
            end=EVENTSTREAM_START,
            coverage=0.12,
            delay_median_days=1.5,
            delay_sigma=0.8,
        ),
        TriggerEra(
            start=EVENTSTREAM_START,
            end=horizon,
            coverage=0.22,
            delay_median_days=0.4,
            delay_sigma=0.7,
        ),
    )


class TriggeredArchiver:
    """Decides whether (and when) a newly-posted link gets captured."""

    def __init__(self, eras: tuple[TriggerEra, ...], rng: Stream) -> None:
        self._eras = eras
        self._rng = rng

    def capture_time_for(self, posted_at: SimTime) -> SimTime | None:
        """Capture instant for a link posted at ``posted_at``, or None.

        ``None`` means the event feed did not exist yet, or the feed
        missed this link — it will only be archived organically, if at
        all.
        """
        for era in self._eras:
            if era.covers(posted_at):
                if not self._rng.chance(era.coverage):
                    return None
                delay = self._rng.lognormal_days(
                    era.delay_median_days, era.delay_sigma
                )
                return posted_at.plus_days(delay)
        return None
