"""Articles and their append-only revision histories.

MediaWiki stores every revision's full wikitext; so do we, because the
paper's collector mines the history to recover, for each permanently
dead link, (1) when it was added, (2) when it was marked, and (3) who
marked it (§2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..clock import SimTime
from ..errors import RevisionError
from .wikitext import LinkRef, extract_link_refs


@dataclass(frozen=True, slots=True)
class Revision:
    """One immutable article revision.

    The text is parsed at most once: the first :meth:`link_refs` call
    keeps the references, and every call returns a fresh list of them
    (a caller's mutation cannot reach the memo).
    """

    revision_id: int
    timestamp: SimTime
    user: str
    comment: str
    wikitext: str
    _refs: tuple[LinkRef, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def link_refs(self) -> list[LinkRef]:
        """Parsed external-link references in this revision's text."""
        refs = self._refs
        if refs is None:
            refs = tuple(extract_link_refs(self.wikitext))
            object.__setattr__(self, "_refs", refs)
        return list(refs)


@dataclass
class Article:
    """A titled article with a full edit history."""

    title: str
    _revisions: list[Revision] = field(default_factory=list)

    def edit(
        self, at: SimTime, user: str, wikitext: str, comment: str = ""
    ) -> Revision:
        """Append a revision; timestamps must be non-decreasing."""
        if self._revisions and at < self._revisions[-1].timestamp:
            raise RevisionError(
                f"revision at {at} predates latest revision of {self.title!r}"
            )
        revision = Revision(
            revision_id=len(self._revisions) + 1,
            timestamp=at,
            user=user,
            comment=comment,
            wikitext=wikitext,
        )
        self._revisions.append(revision)
        return revision

    @property
    def revisions(self) -> tuple[Revision, ...]:
        """Full history, oldest first."""
        return tuple(self._revisions)

    @property
    def latest(self) -> Revision:
        """The current revision."""
        if not self._revisions:
            raise RevisionError(f"article {self.title!r} has no revisions")
        return self._revisions[-1]

    @property
    def wikitext(self) -> str:
        """Current article text."""
        return self.latest.wikitext

    def link_refs(self) -> list[LinkRef]:
        """Parsed references in the current revision."""
        return self.latest.link_refs()

    # -- history mining ------------------------------------------------------------

    def first_revision_with_url(self, url: str) -> Revision | None:
        """The revision that introduced ``url`` (the paper's date-added).

        Matches on reference URL equality, not raw substring, so a URL
        mentioned in prose or inside an archive-url parameter does not
        count as the link being present.
        """
        for revision in self._revisions:
            if any(ref.url == url for ref in revision.link_refs()):
                return revision
        return None

    def first_revision_marking_dead(self, url: str) -> Revision | None:
        """The revision where ``url``'s reference first carries a
        dead-link annotation (the paper's date-marked; its author is
        the marker username)."""
        for revision in self._revisions:
            for ref in revision.link_refs():
                if ref.url == url and ref.is_marked_dead:
                    return revision
        return None
