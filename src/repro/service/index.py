"""The immutable, versioned snapshot a completed study serves from.

A batch study produces everything request-time serving needs — every
record's Figure-4 bucket, its archived-copy verdicts, the §4.2
redirect-validation result, the §5.2 typo correction — but leaves it
scattered across a :class:`~repro.analysis.study.StudyReport`'s
parallel lists. :class:`LinkStatusIndex` freezes all of it into one
content-hash-versioned snapshot with O(1) per-URL lookup, per-domain
and per-bucket sweeps, and aggregate endpoints (bucket counts, ECDF
quantiles) that agree **byte-for-byte** with the batch report, because
they are computed by the same code paths over the same values.

Immutability is the serving contract: the serving loop, its caches,
and every replica's shard view share the index without copying or
locking it, and a response is reproducible for as long as the version string
it was served under is. Entries are frozen dataclasses, collections
are tuples, and the lookup tables are :class:`types.MappingProxyType`
views — mutation raises instead of corrupting.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from types import MappingProxyType

from ..net.status import FIGURE4_ORDER
from ..reporting.cdf import Ecdf, ecdf

__all__ = ["LinkStatusEntry", "LinkStatusIndex"]


@dataclass(frozen=True, slots=True)
class LinkStatusEntry:
    """Everything the service can say about one studied URL.

    All fields come from the study's public measurement — probe,
    census, validation, soft-404 screening — plus the record's
    provenance cost deltas; nothing reads generator ground truth.
    """

    url: str
    hostname: str
    domain: str
    bucket: str
    final_status: int | None
    redirected: bool
    genuinely_alive: bool
    has_pre_marking_200: bool
    has_pre_marking_3xx: bool
    has_any_copy: bool
    has_valid_redirect_copy: bool
    first_post_marking_erroneous: bool | None
    typo_correction: str | None
    posting_year: float
    site_ranking: int | None
    #: Provenance cost deltas (shape-dependent at the cache-hit level;
    #: informational, never part of the version hash).
    fetches: int = 0
    cdx_queries: int = 0
    retries: int = 0

    @property
    def advice(self) -> str:
        """The paper's §6 repair recommendation for this link."""
        if self.bucket == "200" and self.genuinely_alive:
            return "alive: re-check and consider unmarking"
        if self.has_pre_marking_200:
            return "patch with the pre-marking 200 archive copy"
        if self.has_valid_redirect_copy:
            return "patch with the validated redirect archive copy"
        if self.typo_correction is not None:
            return f"likely typo of archived URL {self.typo_correction}"
        if not self.has_any_copy:
            return "never archived: no automated repair available"
        return "keep the archived copy currently in place"

    def to_body(self) -> dict:
        """The JSON-ready response body for a per-URL query."""
        return {
            "url": self.url,
            "bucket": self.bucket,
            "final_status": self.final_status,
            "redirected": self.redirected,
            "genuinely_alive": self.genuinely_alive,
            "has_pre_marking_200": self.has_pre_marking_200,
            "has_valid_redirect_copy": self.has_valid_redirect_copy,
            "typo_correction": self.typo_correction,
            "advice": self.advice,
        }


def _measurement_key(entry: LinkStatusEntry) -> dict:
    """The version-hashed projection of one entry.

    Provenance cost fields are excluded: they vary with execution
    shape (serial vs sharded cache-hit splits), and two indexes built
    from the same *measurement* must carry the same version.
    """
    return {
        "url": entry.url,
        "bucket": entry.bucket,
        "final_status": entry.final_status,
        "redirected": entry.redirected,
        "genuinely_alive": entry.genuinely_alive,
        "pre200": entry.has_pre_marking_200,
        "pre3xx": entry.has_pre_marking_3xx,
        "any_copy": entry.has_any_copy,
        "valid_redirect": entry.has_valid_redirect_copy,
        "post_erroneous": entry.first_post_marking_erroneous,
        "typo": entry.typo_correction,
        "posting_year": entry.posting_year,
        "ranking": entry.site_ranking,
    }


class LinkStatusIndex:
    """An immutable queryable snapshot of one study's results.

    Build with :meth:`build`; query with :meth:`lookup`,
    :meth:`by_domain`, :meth:`by_bucket`, :meth:`bucket_counts`, and
    :meth:`quantile`. The :attr:`version` string is a content hash of
    the measurement, so two builds over the same world/seed agree and
    any measurement change is visible at the API surface.
    """

    def __init__(self, entries: tuple[LinkStatusEntry, ...],
                 gap_days: tuple[float, ...] = ()) -> None:
        self._entries = entries
        self._gap_days = tuple(gap_days)
        by_url: dict[str, LinkStatusEntry] = {}
        by_domain: dict[str, tuple[LinkStatusEntry, ...]] = {}
        by_bucket: dict[str, tuple[LinkStatusEntry, ...]] = {}
        for entry in entries:
            by_url.setdefault(entry.url, entry)
            by_domain[entry.domain] = by_domain.get(entry.domain, ()) + (entry,)
            by_bucket[entry.bucket] = by_bucket.get(entry.bucket, ()) + (entry,)
        self._by_url = MappingProxyType(by_url)
        self._by_domain = MappingProxyType(by_domain)
        self._by_bucket = MappingProxyType(by_bucket)

        # Figure-4 counts, in presentation order — same construction
        # as analysis.live_status.outcome_counts over the batch probes.
        counts = {outcome.value: 0 for outcome in FIGURE4_ORDER}
        for entry in entries:
            counts[entry.bucket] = counts.get(entry.bucket, 0) + 1
        self._counts = MappingProxyType(counts)

        # Aggregate ECDFs, built by the same reporting.cdf.ecdf() the
        # batch figures use, over the same value lists — which is what
        # makes quantile answers byte-identical to the report's.
        self._ecdfs = MappingProxyType({
            "posting_year": ecdf([e.posting_year for e in entries]),
            "urls_per_domain": ecdf(
                [len(group) for group in by_domain.values()]
            ),
            "site_ranking": ecdf(
                [e.site_ranking for e in entries if e.site_ranking is not None]
            ),
            "gap_days": ecdf(list(gap_days)),
        })

        digest = hashlib.sha256()
        payload = {
            "entries": [_measurement_key(entry) for entry in entries],
            "counts": dict(counts),
            "gap_days": list(gap_days),
        }
        digest.update(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
            .encode("utf-8")
        )
        self._version = f"lsi-{digest.hexdigest()[:16]}"

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(cls, report) -> "LinkStatusIndex":
        """Snapshot a :class:`~repro.analysis.study.StudyReport`.

        Requires the report's ``outcomes`` (attached by every
        ``Study.run``); the soft-404 verdicts and typo findings are
        joined in by URL.
        """
        if report.outcomes is None:
            raise ValueError(
                "report carries no per-record outcomes; "
                "build the index from a report produced by Study.run()"
            )
        alive = {
            v.url for v in report.soft404_verdicts if v.genuinely_alive
        }
        typo_by_url = {
            finding.record.url: finding.corrected_url
            for finding in report.typos.findings
        }
        entries = []
        for outcome in report.outcomes:
            record = outcome.record
            probe = outcome.probe
            census = outcome.census
            provenance = outcome.provenance
            entries.append(
                LinkStatusEntry(
                    url=record.url,
                    hostname=record.hostname,
                    domain=record.domain,
                    bucket=probe.outcome.value,
                    final_status=probe.result.final_status,
                    redirected=probe.redirected,
                    genuinely_alive=record.url in alive,
                    has_pre_marking_200=census.has_pre_marking_200,
                    has_pre_marking_3xx=census.has_pre_marking_3xx,
                    has_any_copy=census.has_any_copy,
                    has_valid_redirect_copy=outcome.has_valid_redirect_copy,
                    first_post_marking_erroneous=(
                        outcome.first_post_marking_erroneous
                    ),
                    typo_correction=typo_by_url.get(record.url),
                    posting_year=record.posted_at.fractional_year(),
                    site_ranking=record.site_ranking,
                    fetches=provenance.fetches if provenance else 0,
                    cdx_queries=provenance.cdx_queries if provenance else 0,
                    retries=provenance.retries if provenance else 0,
                )
            )
        return cls(
            entries=tuple(entries),
            gap_days=tuple(report.temporal.gaps_days),
        )

    # -- identity ----------------------------------------------------------------

    @property
    def version(self) -> str:
        """Content hash of the measurement this index snapshots."""
        return self._version

    @property
    def entries(self) -> tuple[LinkStatusEntry, ...]:
        """Every entry, in record order."""
        return self._entries

    @property
    def gap_days(self) -> tuple[float, ...]:
        """The §5.3 marking→removal gaps this snapshot aggregates.

        Part of the version hash (via the ``gap_days`` ECDF inputs),
        so anything that rebuilds a byte-identical index — a
        :class:`~repro.service.reconfig.GenerationDelta` — must carry
        it.
        """
        return self._gap_days

    def __len__(self) -> int:
        return len(self._entries)

    # -- point queries -----------------------------------------------------------

    def lookup(self, url: str) -> LinkStatusEntry | None:
        """The entry for ``url``, or None when the URL was not studied."""
        return self._by_url.get(url)

    def by_domain(self, domain: str) -> tuple[LinkStatusEntry, ...]:
        """Every studied link under one registrable domain."""
        return self._by_domain.get(domain, ())

    def by_bucket(self, bucket: str) -> tuple[LinkStatusEntry, ...]:
        """Every studied link that landed in one Figure-4 bucket."""
        return self._by_bucket.get(bucket, ())

    # -- aggregate endpoints -----------------------------------------------------

    def bucket_counts(self) -> dict[str, int]:
        """Figure 4's bar heights, byte-identical to the batch report."""
        return dict(self._counts)

    def metrics(self) -> tuple[str, ...]:
        """Names :meth:`quantile` and :meth:`distribution` accept."""
        return tuple(sorted(self._ecdfs))

    def distribution(self, metric: str) -> Ecdf:
        """The full ECDF behind one aggregate metric."""
        try:
            return self._ecdfs[metric]
        except KeyError:
            raise KeyError(
                f"unknown metric {metric!r}; known: {self.metrics()}"
            ) from None

    def quantile(self, metric: str, q: float) -> float:
        """``Ecdf.quantile`` over the same values the batch report uses."""
        return self.distribution(metric).quantile(q)

    def __repr__(self) -> str:
        return (
            f"LinkStatusIndex({len(self._entries)} entries, "
            f"version={self._version})"
        )
