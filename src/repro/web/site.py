"""A website: directory tree of pages plus server behaviour.

The site answers GETs at a given simulated instant. Whole-site state
(parked, geo-blocked, outage, flakiness) is checked first, then the
page lifecycle, then the missing-page policy.

Timeout draws are hash-based on (site seed, URL, day) rather than
consuming a shared RNG, so a given probe is reproducible regardless of
how many other requests the simulation has served — and, as on the
real web, retrying the same flaky URL on a different day can succeed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..clock import SimTime
from ..errors import ConnectionTimeout
from ..net.http import HttpRequest, HttpResponse
from ..textsim.content import ContentGenerator
from .behaviors import GeoPolicy, MissingPagePolicy, SiteState
from .page import Page, PageStatus
from .robots import RobotsRules

LOGIN_PATH = "/login"
ROBOTS_PATH = "/robots.txt"


def _canonical_path_query(path_query: str) -> str:
    """Order-insensitive form of a path+query.

    Web servers resolve ``?a=1&b=2`` and ``?b=2&a=1`` to the same
    resource; pages are therefore indexed under a canonical (sorted)
    query as well as their exact string. This is what makes the §5.2
    reordered-parameter recovery meaningful.
    """
    from ..urls.parse import QueryArgs

    if "?" not in path_query:
        return path_query
    path, query = path_query.split("?", 1)
    pairs = QueryArgs.parse(query).canonical()
    return path + "?" + "&".join(f"{k}={v}" for k, v in pairs)


def _request_nonce(address: str, url: str, day: int) -> int:
    """The noise nonce of one (address, url, day) request."""
    digest = hashlib.sha256(f"{address}|{url}|{day}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class PageBody:
    """A generated page's response body, rendered on first read.

    Holds the inputs of one render: the site's content generator, the
    page kind and canonical path, and the request's (address, URL, day),
    which seed the per-request noise token. The core text, the nonce and
    the ``req…`` token are built only when :attr:`text` is first read,
    and the text is byte-identical to the eager
    ``ContentGenerator.<kind>(nonce).body``.
    """

    __slots__ = ("_content", "kind", "path", "_address", "_url", "_day", "_text")

    def __init__(
        self,
        content: ContentGenerator,
        kind: str,
        path: str,
        address: str,
        url: str,
        day: int,
    ) -> None:
        self._content = content
        self.kind = kind
        self.path = path
        self._address = address
        self._url = url
        self._day = day
        self._text: str | None = None

    @property
    def content_id(self) -> tuple[str, str, str]:
        """``(site seed, page kind, path)``: what the core text depends on."""
        return (self._content.site_seed, self.kind, self.path)

    @property
    def text(self) -> str:
        """The rendered body (rendered now if this is the first read)."""
        text = self._text
        if text is None:
            content = self._content
            text = self._text = content.render(
                content.core(self.kind, self.path),
                _request_nonce(self._address, self._url, self._day),
            ).body
        return text


def _hash_unit(seed: str) -> float:
    """A uniform [0, 1) draw derived purely from ``seed``."""
    digest = hashlib.sha256(seed.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass
class Site:
    """One simulated website.

    Attributes:
        hostname: the site's canonical hostname.
        seed: deterministic seed for content and flakiness draws.
        scheme: canonical scheme for self-referential redirect targets.
        ranking: Alexa-style global rank (1 = most popular).
        created_at: when the site came online.
        dns_dies_at: when its DNS registration lapses (None = never);
            enforced by the DNS table, recorded here for generators.
        missing_policy: behaviour for unknown/dead paths at site birth.
        policy_changes: later missing-policy phases, as (from, policy)
            pairs in time order — sites redesign, move to new CMSes,
            and change how dead URLs answer, which is how a link can be
            an honest 404 when IABot checks it and a soft-404 by the
            time the study probes it.
        offsite_redirect_target: absolute URL used by REDIRECT_OFFSITE.
        state: whole-site conditions.
    """

    hostname: str
    seed: str
    scheme: str = "http"
    ranking: int = 500_000
    created_at: SimTime = field(default_factory=lambda: SimTime(0.0))
    dns_dies_at: SimTime | None = None
    missing_policy: MissingPagePolicy = MissingPagePolicy.HARD_404
    policy_changes: tuple[tuple[SimTime, MissingPagePolicy], ...] = ()
    offsite_redirect_target: str | None = None
    robots: RobotsRules = field(default_factory=RobotsRules)
    state: SiteState = field(default_factory=SiteState)
    _pages: dict[str, Page] = field(default_factory=dict)
    _canonical_pages: dict[str, Page] = field(default_factory=dict)

    def __post_init__(self) -> None:
        policies = [self.missing_policy] + [p for _, p in self.policy_changes]
        if (
            MissingPagePolicy.REDIRECT_OFFSITE in policies
            and not self.offsite_redirect_target
        ):
            raise ValueError("REDIRECT_OFFSITE requires offsite_redirect_target")
        for earlier, later in zip(self.policy_changes, self.policy_changes[1:]):
            if not earlier[0] < later[0]:
                raise ValueError("policy_changes must be in time order")
        self._content = ContentGenerator(self.seed)

    def missing_policy_at(self, at: SimTime) -> MissingPagePolicy:
        """The missing-page policy in force at instant ``at``."""
        policy = self.missing_policy
        for change_at, changed in self.policy_changes:
            if at < change_at:
                break
            policy = changed
        return policy

    # -- page management ---------------------------------------------------------

    def add_page(self, page: Page) -> None:
        """Register a page; duplicate paths are a generator bug."""
        if page.path_query in self._pages:
            raise ValueError(
                f"duplicate page {page.path_query!r} on {self.hostname}"
            )
        self._pages[page.path_query] = page
        self._canonical_pages[_canonical_path_query(page.path_query)] = page

    def page(self, path_query: str) -> Page | None:
        """The page at ``path_query``, if one was ever defined."""
        return self._pages.get(path_query)

    def pages(self) -> tuple[Page, ...]:
        """All defined pages, in insertion order."""
        return tuple(self._pages.values())

    @property
    def root_url(self) -> str:
        """The site homepage URL."""
        return f"{self.scheme}://{self.hostname}/"

    @property
    def login_url(self) -> str:
        """The site's login page URL."""
        return f"{self.scheme}://{self.hostname}{LOGIN_PATH}"

    def url_for(self, path_query: str) -> str:
        """Absolute URL for a path on this site."""
        return f"{self.scheme}://{self.hostname}{path_query}"

    # -- request handling -----------------------------------------------------------

    def respond(
        self, request: HttpRequest, at: SimTime, address: str
    ) -> HttpResponse:
        """Answer a GET at instant ``at``.

        ``address`` is the DNS address the request resolved to; with the
        URL and the day it seeds a generated page's noise token, so a
        response is a pure function of (address, url, day). Generated
        pages carry a lazy :class:`PageBody`.

        Raises :class:`~repro.errors.ConnectionTimeout` for flaky or
        silently geo-blocked conditions; returns an
        :class:`~repro.net.http.HttpResponse` otherwise.
        """
        url = str(request.url)
        path_query = request.url.path + (
            f"?{request.url.query}" if request.url.query else ""
        )

        def generated(status: int, kind: str, path: str = "") -> HttpResponse:
            body = PageBody(self._content, kind, path, address, url, int(at.days))
            return HttpResponse(url=url, status=status, body=body)

        if self.state.geo_active_at(at):
            if self.state.geo is GeoPolicy.BLOCKED_TIMEOUT:
                raise ConnectionTimeout(self.hostname)
            return HttpResponse(url=url, status=403, body="access denied")

        if self.state.parked_at(at):
            return generated(200, "parked")

        if self.state.outage_at(at):
            return HttpResponse(url=url, status=503, body="service unavailable")

        if self.state.timeout_probability > 0.0:
            draw = _hash_unit(f"{self.seed}:timeout:{url}:{int(at.days)}")
            if draw < self.state.timeout_probability:
                raise ConnectionTimeout(self.hostname)

        if request.url.path == "/" and not request.url.query:
            return generated(200, "homepage")
        if request.url.path == ROBOTS_PATH:
            return HttpResponse(url=url, status=200, body=self.robots.render())
        if request.url.path == LOGIN_PATH:
            return generated(200, "login")

        page = self._pages.get(path_query)
        if page is None and request.url.query:
            # Servers resolve reordered query parameters identically.
            page = self._canonical_pages.get(_canonical_path_query(path_query))
        if page is not None:
            status = page.status_at(at)
            if status is PageStatus.SERVES:
                # Content keyed by the page's canonical path, so every
                # parameter ordering serves identical bytes.
                return generated(200, "article", page.path_query)
            if status is PageStatus.REDIRECTS:
                assert page.moved_to is not None
                return HttpResponse(url=url, status=301, location=page.moved_to)
        policy = self.missing_policy_at(at)
        if policy is MissingPagePolicy.HARD_404:
            return generated(404, "error")
        if policy is MissingPagePolicy.SOFT_404:
            return generated(200, "error")
        if policy is MissingPagePolicy.REDIRECT_HOME:
            return HttpResponse(url=url, status=302, location=self.root_url)
        if policy is MissingPagePolicy.REDIRECT_LOGIN:
            return HttpResponse(url=url, status=302, location=self.login_url)
        assert policy is MissingPagePolicy.REDIRECT_OFFSITE
        assert self.offsite_redirect_target is not None
        return HttpResponse(
            url=url, status=302, location=self.offsite_redirect_target
        )
