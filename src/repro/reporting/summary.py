"""Paper-vs-measured comparison tables.

Every benchmark ends by printing one of these: the paper's reported
value next to what this reproduction measured, with a tolerance band
that encodes "the shape should hold" (who wins, by roughly what
factor) rather than absolute-number equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..net.status import Outcome
from .tables import render_table


@dataclass(frozen=True, slots=True)
class ComparisonRow:
    """One headline quantity."""

    name: str
    paper: float
    measured: float
    unit: str = "%"
    tolerance: float = 0.5
    """Relative tolerance band: measured within paper*(1 +/- tolerance)
    counts as reproducing the shape. Wide by design — the substrate is
    a simulator, not the authors' vantage point."""

    @property
    def within_band(self) -> bool:
        """Whether the measured value reproduces the paper's shape."""
        if self.paper == 0:
            return abs(self.measured) < max(self.tolerance, 1e-9)
        lo = self.paper * (1.0 - self.tolerance)
        hi = self.paper * (1.0 + self.tolerance)
        return lo <= self.measured <= hi

    @property
    def ratio(self) -> float:
        """measured / paper (inf when the paper value is zero)."""
        if self.paper == 0:
            return float("inf") if self.measured else 1.0
        return self.measured / self.paper


@dataclass
class ComparisonTable:
    """A titled collection of comparison rows."""

    title: str
    rows: list[ComparisonRow] = field(default_factory=list)

    def add(
        self,
        name: str,
        paper: float,
        measured: float,
        unit: str = "%",
        tolerance: float = 0.5,
    ) -> None:
        """Append one quantity to the table."""
        self.rows.append(
            ComparisonRow(
                name=name,
                paper=paper,
                measured=measured,
                unit=unit,
                tolerance=tolerance,
            )
        )

    @property
    def all_within_band(self) -> bool:
        """Whether every row reproduces the paper's shape."""
        return all(row.within_band for row in self.rows)

    def failures(self) -> list[ComparisonRow]:
        """Rows outside their tolerance band."""
        return [row for row in self.rows if not row.within_band]

    def render(self) -> str:
        """The table as fixed-width text."""
        body = [
            [
                row.name,
                row.paper,
                row.measured,
                row.unit,
                "ok" if row.within_band else "OFF",
            ]
            for row in self.rows
        ]
        return render_table(
            headers=["quantity", "paper", "measured", "unit", "band"],
            rows=body,
            title=self.title,
        )


def paper_comparison(report) -> ComparisonTable:
    """The headline table: every §3–§5 share the paper reports, next to
    what a :class:`~repro.analysis.study.StudyReport` measured."""
    n = report.sample_size
    counts = report.counts
    temporal = report.temporal
    spatial = report.spatial
    rest = max(report.n_rest, 1)
    never = max(report.n_never_archived, 1)
    gap_pop = max(len(temporal.gap_population), 1)
    archived = max(report.n_rest_with_any_copy, 1)
    rows = [
        ("fig4 DNS failure %", 28.0, 100 * counts[Outcome.DNS_FAILURE] / n),
        ("fig4 timeout %", 6.0, 100 * counts[Outcome.TIMEOUT] / n),
        ("fig4 404 %", 44.0, 100 * counts[Outcome.HTTP_404] / n),
        ("fig4 200 %", 16.5, 100 * counts[Outcome.HTTP_200] / n),
        ("fig4 other %", 5.5, 100 * counts[Outcome.OTHER] / n),
        ("s3 genuinely alive %", 3.05, 100 * report.frac_genuinely_alive),
        ("s3 alive-via-redirect %", 79.0, 100 * report.frac_alive_via_redirect),
        ("s3 first post-marking copy erroneous %", 95.0,
         100 * report.frac_first_post_marking_erroneous),
        ("s4.1 pre-marking 200 copies %", 10.8,
         100 * report.frac_pre_marking_200),
        ("s4.2 3xx copies, % of rest", 42.3,
         100 * report.n_rest_with_pre_3xx / rest),
        ("s4.2 validated redirects, % of sample", 4.8,
         100 * report.frac_patchable_via_redirect),
        ("s5 never archived, % of rest", 22.2,
         100 * report.n_never_archived / rest),
        ("s5 pre-posting copies, % of archived", 8.9,
         100 * len(temporal.with_pre_posting_copy) / archived),
        ("s5 same-day captures, % of gap pop", 6.9,
         100 * len(temporal.same_day) / gap_pop),
        ("s5 same-day erroneous first-up %", 61.0,
         100 * len(temporal.same_day_erroneous)
         / max(len(temporal.same_day), 1)),
        ("s5.2 directory gaps, % of never-archived", 37.8,
         100 * len(spatial.directory_gaps) / never),
        ("s5.2 hostname gaps, % of never-archived", 12.9,
         100 * len(spatial.hostname_gaps) / never),
        ("s5.2 typos, % of never-archived", 11.0,
         100 * len(report.typos) / never),
    ]
    table = ComparisonTable(title="Headline numbers, paper vs measured")
    for name, paper, measured in rows:
        table.add(name, paper=paper, measured=measured, tolerance=0.6)
    return table
