"""The live-web registry: every site, plus DNS, behind one fetch API.

:class:`LiveWeb` implements the :class:`~repro.net.fetch.OriginServer`
protocol, owns the :class:`~repro.net.dns.DnsTable`, and hands out
:class:`~repro.net.fetch.Fetcher` instances. All simulation components
— the study's probes, IABot's checks, the archive's crawlers — observe
the web exclusively through fetches, never by peeking at ``Site``
internals, which keeps the measurement honest.
"""

from __future__ import annotations

from ..clock import SimTime
from ..errors import NetworkSimError
from ..net.dns import DnsRecord, DnsTable
from ..net.fetch import Fetcher, FetchResult
from ..net.http import HttpRequest, HttpResponse
from .site import Site


class LiveWeb:
    """Registry of sites addressable by DNS.

    A site's address in the DNS table is ``site:<hostname>`` (or
    ``parked:<hostname>`` for squatter re-registrations), mapping to a
    :class:`~repro.web.site.Site` instance here.
    """

    def __init__(self) -> None:
        self.dns = DnsTable()
        self._sites: dict[str, Site] = {}

    # -- registration -----------------------------------------------------------

    def add_site(self, site: Site, extra_hostnames: tuple[str, ...] = ()) -> None:
        """Register a site and its DNS interval(s).

        ``extra_hostnames`` lets several hostnames (e.g. with and
        without ``www.``) resolve to the same site.
        """
        address = f"site:{site.hostname}"
        if address in self._sites:
            raise NetworkSimError(f"site {site.hostname!r} already registered")
        self._sites[address] = site
        for hostname in (site.hostname, *extra_hostnames):
            self.dns.register(
                DnsRecord(
                    hostname=hostname,
                    address=address,
                    registered_at=site.created_at,
                    expires_at=site.dns_dies_at,
                )
            )

    def add_parked_successor(self, original: Site, parked: Site) -> None:
        """Register a squatter's site on a lapsed hostname.

        The parked site's DNS interval must start at or after the
        original's expiry (the DNS table enforces non-overlap).
        """
        if original.dns_dies_at is None:
            raise NetworkSimError(
                f"{original.hostname!r} never expires; cannot be re-registered"
            )
        address = f"parked:{parked.hostname}"
        if address in self._sites:
            raise NetworkSimError(
                f"parked site {parked.hostname!r} already registered"
            )
        self._sites[address] = parked
        self.dns.register(
            DnsRecord(
                hostname=parked.hostname,
                address=address,
                registered_at=parked.created_at,
                expires_at=parked.dns_dies_at,
            )
        )

    # -- lookup ----------------------------------------------------------------------

    def sites(self) -> tuple[Site, ...]:
        """All registered sites (including parked successors)."""
        return tuple(self._sites.values())

    def site_by_hostname(self, hostname: str) -> Site | None:
        """The original (non-parked) site for a hostname, if any."""
        return self._sites.get(f"site:{hostname.lower()}")

    # -- OriginServer protocol ----------------------------------------------------------

    def handle(self, address: str, request: HttpRequest, at: SimTime) -> HttpResponse:
        """Serve one GET; called by the fetcher after DNS resolution.

        The per-response dynamic-noise nonce is derived from the
        request itself — ``(address, url, day)`` — rather than drawn
        from a shared counter, so a fetch is a pure function of
        ``(url, at)``: the property the executor's fetch memo and
        sharded workers both rely on. Fetches of *different* URLs (or
        on different days) still get distinct noise tokens, which is
        all the soft-404 machinery needs. The nonce is hashed only when
        a generated body is read (see :class:`~repro.web.site.PageBody`).
        """
        site = self._sites.get(address)
        if site is None:
            raise NetworkSimError(f"DNS points at unknown address {address!r}")
        return site.respond(request, at, address)

    # -- convenience -----------------------------------------------------------------------

    def fetcher(self, max_redirects: int = 10) -> Fetcher:
        """A redirect-following GET client over this web."""
        return Fetcher(self.dns, self, max_redirects=max_redirects)

    def fetch(self, url: str, at: SimTime) -> FetchResult:
        """One-off fetch without keeping a fetcher around."""
        return self.fetcher().fetch(url, at)
