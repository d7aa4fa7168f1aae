"""One archived capture of one URL.

A snapshot records what the crawler observed at capture time: the
*initial* status (the response for the URL itself, before any
redirect), the redirect target if the initial response was a 3xx, the
*final* status and URL after the crawler followed redirects, and a
MinHash sketch of the final body. This mirrors the fields the paper
reads from the Wayback Machine: "for every archived copy, we logged
the timestamp at which it was captured and the initial HTTP status
code associated with that copy" (§2.4), plus the redirect targets
needed for §4.2.

Full bodies are not retained (the real Wayback stores them, but our
analyses only ever compare content similarity, for which the sketch
suffices at a tiny fraction of the memory).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import TYPE_CHECKING

from ..clock import SimTime
from ..net.status import is_redirect, is_success

if TYPE_CHECKING:
    from .crawler import DeferredSketch


class Snapshot:
    """An archived copy of ``url`` captured at ``captured_at``.

    Attributes:
        url: the captured URL (exactly as requested).
        captured_at: capture instant.
        initial_status: HTTP status of the first response, or ``None``
            when the capture attempt failed at the transport level
            (DNS failure / connect timeout) — the real Wayback records
            such attempts sparsely; we keep them for fidelity but all
            read APIs skip them by default.
        redirect_location: ``Location`` of the initial response when it
            was a redirect.
        final_status: status after the crawler followed redirects
            (equals ``initial_status`` when there was no redirect).
        final_url: URL of the final response.
        sketch: MinHash sketch of the final response body.

    Sketching is deferred: ``sketch=`` takes either the tuple or a
    :class:`~repro.archive.crawler.DeferredSketch` cell, which the
    crawler passes so that a capture costs no MinHash and renders no
    body text. The cell is keyed by the body's content id (site seed,
    page kind, path), and its sketch is computed on the first read of
    :attr:`sketch` (once per distinct core text, shared by every
    snapshot of that content). Equality,
    hashing, ``repr`` and pickling all use the resolved tuple, so a
    deferred snapshot is indistinguishable from one built with the
    tuple. Snapshots are immutable.
    """

    __slots__ = (
        "url",
        "captured_at",
        "initial_status",
        "redirect_location",
        "final_status",
        "final_url",
        "_sketch",
    )

    url: str
    captured_at: SimTime
    initial_status: int | None
    redirect_location: str | None
    final_status: int | None
    final_url: str | None

    def __init__(
        self,
        url: str,
        captured_at: SimTime,
        initial_status: int | None,
        redirect_location: str | None = None,
        final_status: int | None = None,
        final_url: str | None = None,
        sketch: tuple[int, ...] | DeferredSketch = (),
    ) -> None:
        if initial_status is not None and is_redirect(initial_status):
            if not redirect_location:
                raise ValueError(
                    f"3xx snapshot of {url!r} needs redirect_location"
                )
        init = object.__setattr__
        init(self, "url", url)
        init(self, "captured_at", captured_at)
        init(self, "initial_status", initial_status)
        init(self, "redirect_location", redirect_location)
        init(self, "final_status", final_status)
        init(self, "final_url", final_url)
        init(self, "_sketch", sketch)

    @property
    def sketch(self) -> tuple[int, ...]:
        """MinHash sketch of the final response body."""
        sketch = self._sketch
        return sketch if isinstance(sketch, tuple) else sketch.value

    def _fields(self) -> tuple:
        return (
            self.url,
            self.captured_at,
            self.initial_status,
            self.redirect_location,
            self.final_status,
            self.final_url,
            self.sketch,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"Snapshot(url={self.url!r}, captured_at={self.captured_at!r}, "
            f"initial_status={self.initial_status!r}, "
            f"redirect_location={self.redirect_location!r}, "
            f"final_status={self.final_status!r}, "
            f"final_url={self.final_url!r}, sketch={self.sketch!r})"
        )

    def __reduce__(self):
        return (self.__class__, self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def failed(self) -> bool:
        """True when the capture never got an HTTP response."""
        return self.initial_status is None

    @property
    def initial_ok(self) -> bool:
        """Initial status 200 — IABot's bar for a usable copy."""
        return self.initial_status == 200

    @property
    def initial_redirected(self) -> bool:
        """Initial status was a 3xx."""
        return self.initial_status is not None and is_redirect(self.initial_status)

    @property
    def looks_erroneous_by_status(self) -> bool:
        """Erroneous judging by status codes alone (no content check).

        4xx/5xx initially, a redirect whose final hop was not a
        success, or a transport failure.
        """
        if self.initial_status is None:
            return True
        if self.initial_ok:
            return False
        if self.initial_redirected:
            return self.final_status is None or not is_success(self.final_status)
        return True

    def describe(self) -> str:
        """One-line summary, e.g. ``2014-03-02 302 -> http://.../index.htm``."""
        stamp = self.captured_at.isoformat()
        if self.initial_status is None:
            return f"{stamp} <capture failed>"
        if self.initial_redirected:
            return f"{stamp} {self.initial_status} -> {self.redirect_location}"
        return f"{stamp} {self.initial_status}"
