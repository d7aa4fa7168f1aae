"""HTTP request/response value types for the simulation.

Responses carry the pieces the study reads: the status code, the
``Location`` header for redirects, and the body text (for soft-404
similarity checks; a generated body is rendered only when read).
``latency_ms`` models server/API response time so that
timeout-sensitive clients (IABot's availability lookups) behave
realistically.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Protocol

from ..urls.parse import ParsedUrl, parse_url


@dataclass(frozen=True, slots=True)
class HttpRequest:
    """A GET request for one URL (the only method the study issues)."""

    url: ParsedUrl

    @classmethod
    def get(cls, url: str | ParsedUrl) -> "HttpRequest":
        """Build a GET request from a URL string or ParsedUrl."""
        if isinstance(url, str):
            url = parse_url(url)
        return cls(url=url)


class LazyBody(Protocol):
    """A response body that is rendered only when it is read.

    ``content_id`` names the content the body renders (equal ids render
    the same text up to the per-request noise token); ``text`` is the
    rendered body, built on first access.
    """

    @property
    def content_id(self) -> tuple[str, str, str]: ...

    @property
    def text(self) -> str: ...


class HttpResponse:
    """One hop of an HTTP exchange.

    Attributes:
        url: the URL this response was served for.
        status: HTTP status code of this hop.
        body: response body text (empty for redirects).
        location: redirect target for 3xx responses, else ``None``.
        latency_ms: simulated time-to-first-byte for this hop.

    ``body=`` takes either the text or a :class:`LazyBody`. The simulated
    web passes a lazy body for every generated page, so a response whose
    body nobody reads (most archive captures) never renders its text;
    :attr:`content_id` names the content without rendering it. Equality,
    hashing, ``repr`` and pickling all use the rendered text, so a lazy
    response is indistinguishable from one built with the text.
    Responses are immutable.
    """

    __slots__ = ("url", "status", "_body", "location", "latency_ms")

    url: str
    status: int
    location: str | None
    latency_ms: float

    def __init__(
        self,
        url: str,
        status: int,
        body: str | LazyBody = "",
        location: str | None = None,
        latency_ms: float = 50.0,
    ) -> None:
        if not 100 <= status <= 599:
            raise ValueError(f"invalid HTTP status {status}")
        if status in (301, 302, 303, 307, 308) and not location:
            raise ValueError(f"redirect response {status} needs a location")
        init = object.__setattr__
        init(self, "url", url)
        init(self, "status", status)
        init(self, "_body", body)
        init(self, "location", location)
        init(self, "latency_ms", latency_ms)

    @property
    def body(self) -> str:
        """The response body text (rendered now if this is the first read)."""
        body = self._body
        return body if body.__class__ is str else body.text

    @property
    def content_id(self) -> tuple[str, str, str] | None:
        """The id of a generated body, ``None`` for a literal one."""
        body = self._body
        return None if body.__class__ is str else body.content_id

    def _fields(self) -> tuple:
        return (self.url, self.status, self.body, self.location, self.latency_ms)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"HttpResponse(url={self.url!r}, status={self.status!r}, "
            f"body={self.body!r}, location={self.location!r}, "
            f"latency_ms={self.latency_ms!r})"
        )

    def __reduce__(self):
        return (self.__class__, self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def is_redirect(self) -> bool:
        """3xx with a Location header."""
        return self.location is not None and self.status in (301, 302, 303, 307, 308)

    def describe(self) -> str:
        """Short human-readable form for logs and examples."""
        if self.is_redirect:
            return f"{self.status} -> {self.location}"
        return f"{self.status} ({len(self.body)} bytes)"
