"""Experiment and sweep bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Sequence

from repro.harness.formatting import format_table


@dataclass
class SweepResult:
    """Rows accumulated over a parameter sweep."""

    headers: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)

    def add(self, *row: Any) -> None:
        if len(row) != len(self.headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(self.headers)}"
            )
        self.rows.append(row)

    def column(self, name: str) -> List[Any]:
        index = list(self.headers).index(name)
        return [row[index] for row in self.rows]

    def render(self, title: str = "") -> str:
        return format_table(self.headers, self.rows, title=title)


@dataclass
class Experiment:
    """One table/figure reproduction: id, description, expectation."""

    exp_id: str
    title: str
    paper_expectation: str
    result: SweepResult = field(default_factory=lambda: SweepResult(headers=()))

    def run_sweep(
        self, headers: Sequence[str], rows: Iterable[Sequence[Any]]
    ) -> SweepResult:
        """Tabulate ``rows`` under ``headers`` as this experiment's result."""
        self.result = SweepResult(headers=headers)
        for row in rows:
            self.result.add(*row)
        return self.result

    def report(self) -> str:
        lines = [
            f"== {self.exp_id}: {self.title} ==",
            f"paper expectation: {self.paper_expectation}",
            self.result.render(),
        ]
        return "\n".join(lines)
