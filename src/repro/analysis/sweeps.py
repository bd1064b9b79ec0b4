"""Sensitivity-analysis toolkit: sweep any layer dimension, any metric.

The paper's Fig. 4 is one instance of a general method — fix a layer shape,
vary one dimension, watch the implementations trade places.  This module
makes that method a first-class tool: :func:`sweep_conv` /
:func:`sweep_pool` / :func:`sweep_softmax` produce tidy result grids for
any dimension, and :func:`crossovers` locates where the winner changes
(the raw material for thresholds like Ct and Nt).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from ..gpusim.device import DeviceSpec
from ..gpusim.exec import evaluate_cells, map_chunks
from ..gpusim.session import SimulationContext, default_context
from ..obs.tracer import span as obs_span
from ..layers.base import ConvSpec, PoolSpec, SoftmaxSpec
from ..layers.conv_kernels import ConvUnsupportedError, make_conv_kernel
from ..layers.pooling_kernels import make_pool_kernel
from ..layers.softmax_kernels import make_softmax_kernel


@dataclass(frozen=True)
class SweepPoint:
    """One (dimension value, implementation) measurement."""

    value: int
    implementation: str
    time_ms: float | None  # None when the implementation cannot run
    gflops: float | None


@dataclass(frozen=True)
class SweepResult:
    """A full sweep grid."""

    dimension: str
    values: tuple[int, ...]
    implementations: tuple[str, ...]
    points: tuple[SweepPoint, ...]

    def time(self, value: int, implementation: str) -> float | None:
        for p in self.points:
            if p.value == value and p.implementation == implementation:
                return p.time_ms
        raise KeyError((value, implementation))

    def winner(self, value: int) -> str:
        """Fastest runnable implementation at one sweep value."""
        candidates = [
            p for p in self.points if p.value == value and p.time_ms is not None
        ]
        if not candidates:
            raise ValueError(f"no implementation could run at {value}")
        return min(candidates, key=lambda p: p.time_ms).implementation

    def winners(self) -> list[tuple[int, str]]:
        return [(v, self.winner(v)) for v in self.values]


def crossovers(result: SweepResult) -> list[tuple[int, str, str]]:
    """(value, old winner, new winner) at every change of the fastest
    implementation along the sweep."""
    out: list[tuple[int, str, str]] = []
    winners = result.winners()
    for (_, prev), (value, cur) in zip(winners, winners[1:]):
        if cur != prev:
            out.append((value, prev, cur))
    return out


@dataclass(frozen=True)
class _Cell:
    """One picklable grid cell: enough to rebuild and time its kernel in
    any process (see :func:`repro.gpusim.exec.map_chunks`)."""

    kind: str  # "conv" | "pool" | "softmax"
    base: Any
    dimension: str
    value: int
    implementation: str
    check_memory: bool


def _cell_kernel(cell: _Cell) -> Any:
    spec = replace(cell.base, **{cell.dimension: cell.value})
    if cell.dimension == "h" and cell.kind != "softmax":
        spec = replace(spec, w=cell.value)
    if cell.kind == "conv":
        return make_conv_kernel(spec, cell.implementation)
    if cell.kind == "pool":
        return make_pool_kernel(spec, cell.implementation)
    return make_softmax_kernel(spec, cell.implementation)


def _eval_cells(context: SimulationContext, cells: list[_Cell]) -> list[SweepPoint]:
    """One memoized, fused evaluation per chunk of cells.

    Kernel-construction failures (unsupported shapes) and per-candidate
    evaluation failures (OOM, launch validation) become failed points.
    Cells whose structural key is already cached skip the analytic stack
    entirely (see :func:`repro.gpusim.exec.evaluate_cells`).
    """
    points: list[SweepPoint | None] = [None] * len(cells)
    models = []
    owners = []
    for i, cell in enumerate(cells):
        try:
            models.append(_cell_kernel(cell))
        except (ConvUnsupportedError, ValueError):
            points[i] = SweepPoint(cell.value, cell.implementation, None, None)
            continue
        owners.append(i)
    check_memory = cells[0].check_memory if cells else False
    for i, outcome in zip(owners, evaluate_cells(context, models, check_memory)):
        cell = cells[i]
        if isinstance(outcome, Exception):
            points[i] = SweepPoint(cell.value, cell.implementation, None, None)
        else:
            points[i] = SweepPoint(
                cell.value,
                cell.implementation,
                outcome.time_ms,
                outcome.achieved_gflops,
            )
    return [p for p in points if p is not None]


def _run_grid(
    context: SimulationContext,
    kind: str,
    base: Any,
    check_memory: bool,
    dimension: str,
    values: tuple[int, ...],
    implementations: tuple[str, ...],
    jobs: int | str | None,
) -> SweepResult:
    cells = [
        _Cell(kind, base, dimension, value, impl, check_memory)
        for value in values
        for impl in implementations
    ]
    with obs_span(
        f"sweep:{kind}:{dimension}",
        "sweep",
        kind=kind,
        dimension=dimension,
        cells=len(cells),
        implementations=list(implementations),
        jobs=jobs or 1,
    ):
        # The execution engine memoizes repeated cells, fuses each chunk
        # into one vectorized evaluation (the whole grid when serial), and
        # fans chunks over the warm worker pool.
        points = map_chunks(_eval_cells, cells, context, jobs=jobs)
    return SweepResult(
        dimension=dimension,
        values=tuple(values),
        implementations=tuple(implementations),
        points=tuple(points),
    )


def sweep_conv(
    device: DeviceSpec,
    base: ConvSpec,
    dimension: str,
    values: tuple[int, ...],
    implementations: tuple[str, ...] = ("direct", "im2col"),
    context: SimulationContext | None = None,
    jobs: int | str | None = None,
) -> SweepResult:
    """Vary one :class:`ConvSpec` field (``n``, ``ci``, ``co``, ``h``...)."""
    if not hasattr(base, dimension):
        raise ValueError(f"ConvSpec has no dimension {dimension!r}")
    ctx = context or default_context(device)
    return _run_grid(
        ctx, "conv", base, True, dimension, tuple(values), tuple(implementations), jobs
    )


def sweep_pool(
    device: DeviceSpec,
    base: PoolSpec,
    dimension: str,
    values: tuple[int, ...],
    implementations: tuple[str, ...] = ("chwn", "nchw-linear"),
    context: SimulationContext | None = None,
    jobs: int | str | None = None,
) -> SweepResult:
    """Vary one :class:`PoolSpec` field."""
    if not hasattr(base, dimension):
        raise ValueError(f"PoolSpec has no dimension {dimension!r}")
    ctx = context or default_context(device)
    return _run_grid(
        ctx, "pool", base, False, dimension, tuple(values), tuple(implementations), jobs
    )


def sweep_softmax(
    device: DeviceSpec,
    base: SoftmaxSpec,
    dimension: str,
    values: tuple[int, ...],
    implementations: tuple[str, ...] = ("cudnn", "opt"),
    context: SimulationContext | None = None,
    jobs: int | str | None = None,
) -> SweepResult:
    """Vary ``n`` or ``categories`` of a softmax layer."""
    if not hasattr(base, dimension):
        raise ValueError(f"SoftmaxSpec has no dimension {dimension!r}")
    ctx = context or default_context(device)
    return _run_grid(
        ctx,
        "softmax",
        base,
        False,
        dimension,
        tuple(values),
        tuple(implementations),
        jobs,
    )
