"""Shared helpers for the figure-reproduction benchmarks.

Every ``bench_figXX_*.py`` module follows the same shape:

* a pure ``build_figure(device)`` function that regenerates the figure's
  series (rows of labelled numbers);
* a ``test_figXX`` pytest-benchmark entry that times the harness and
  asserts the figure's qualitative shape;
* a ``__main__`` block so ``python benchmarks/bench_figXX_*.py`` prints the
  reproduced rows next to the paper's expectations.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field

from repro.gpusim.exec import resolve_jobs


def parse_jobs(value: str) -> int:
    """``--jobs`` argument: an integer or the literal ``auto``, resolved to
    a worker count by :func:`repro.gpusim.exec.resolve_jobs`."""
    try:
        return resolve_jobs(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None


def bench_arg_parser(description: str) -> argparse.ArgumentParser:
    """Shared CLI for ``python benchmarks/bench_*.py`` entry points.

    Every driver accepts the same ``--jobs N`` flag (worker processes for
    independent kernel evaluations; results are identical for any value —
    see :mod:`repro.gpusim.exec`).
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--jobs",
        type=parse_jobs,
        default=1,
        help="worker processes (1 = serial, 'auto' or negative = all CPUs; "
        "requests beyond the CPU count are clamped)",
    )
    return parser


def geomean(values) -> float:
    """Geometric mean (the paper's GM bars)."""
    vals = list(values)
    if not vals:
        raise ValueError("geomean of empty sequence")
    prod = 1.0
    for v in vals:
        if v <= 0:
            raise ValueError(f"geomean requires positive values, got {v}")
        prod *= v
    return prod ** (1.0 / len(vals))


@dataclass
class FigureTable:
    """A labelled table of series, printable as the figure's data."""

    title: str
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *row) -> None:
        if len(row) != len(self.columns):
            raise ValueError(
                f"row width {len(row)} != {len(self.columns)} columns"
            )
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [r[idx] for r in self.rows]

    def row(self, label) -> tuple:
        for r in self.rows:
            if r[0] == label:
                return r
        raise KeyError(f"no row labelled {label!r} in {self.title}")

    def render(self) -> str:
        def fmt(v) -> str:
            if isinstance(v, float):
                return f"{v:10.3f}"
            return f"{str(v):>10s}"

        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(f"{c:>10s}" for c in self.columns))
        for r in self.rows:
            lines.append("  ".join(fmt(v) for v in r))
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)

    def show(self) -> None:
        print()
        print(self.render())
