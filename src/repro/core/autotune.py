"""Hill-climbing auto-tuner for pooling thread coarsening (Section V.A).

"With an initial factor of 2, the expansion factor continues to increase
linearly if the performance improves.  Otherwise it stops as further
expansion leads to high register pressure thus limiting the TLP."

The tuner climbs each direction (ux along W, uy along H) alternately; the
cost function is the simulated kernel time, in which larger tiles cut DRAM
traffic (shared window footprints) but raise register pressure and so
reduce occupancy — the exact trade-off the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..gpusim.device import DeviceSpec
from ..gpusim.engine import SimulationEngine
from ..gpusim.exec import evaluate_cells, map_chunks
from ..gpusim.session import SimulationContext, default_context
from ..gpusim.timing import KernelStats
from ..layers.base import PoolSpec
from ..layers.pooling_kernels import PoolingCHWN, PoolingCoarsenedCHWN


@dataclass(frozen=True)
class TuneResult:
    """Chosen expansion factors and the search trace."""

    ux: int
    uy: int
    time_ms: float
    baseline_ms: float
    evaluations: tuple[tuple[int, int, float], ...]

    @property
    def speedup(self) -> float:
        """Improvement over the un-coarsened CHWN kernel."""
        return self.baseline_ms / self.time_ms if self.time_ms else 0.0


def _time(engine: SimulationEngine, spec: PoolSpec, ux: int, uy: int) -> float:
    if (ux, uy) == (1, 1):
        return engine.run(PoolingCHWN(spec)).time_ms
    return engine.run(PoolingCoarsenedCHWN(spec, ux=ux, uy=uy)).time_ms


def autotune_pooling(
    device: DeviceSpec,
    spec: PoolSpec,
    max_factor: int = 8,
    initial: int = 2,
    context: SimulationContext | None = None,
) -> TuneResult:
    """Hill-climb (ux, uy) for one pooling layer.

    Starts from the paper's initial factor of 2 in each direction, grows one
    direction at a time while the simulated time improves, and stops on the
    first regression (the pruning heuristic of Section V.A).  Falls back to
    (1, 1) — the plain kernel — when no expansion helps, which is what
    happens for non-overlapped pooling where there is no shared data to
    reuse.
    """
    if max_factor < 1 or initial < 1:
        raise ValueError("factors must be at least 1")
    engine = (context or default_context(device)).engine(check_memory=False)
    trace: list[tuple[int, int, float]] = []

    baseline = _time(engine, spec, 1, 1)
    trace.append((1, 1, baseline))

    best_u = (1, 1)
    best_t = baseline
    start = _time(engine, spec, initial, initial)
    trace.append((initial, initial, start))
    if start < best_t:
        best_u, best_t = (initial, initial), start

        improving = True
        while improving:
            improving = False
            for dim in (0, 1):
                candidate = list(best_u)
                candidate[dim] = min(max_factor, candidate[dim] + 1)
                cand = (candidate[0], candidate[1])
                if cand == best_u:
                    continue
                t = _time(engine, spec, *cand)
                trace.append((*cand, t))
                if t < best_t:
                    best_u, best_t = cand, t
                    improving = True
                # else: stop climbing this direction (hill-climb pruning)

    return TuneResult(
        ux=best_u[0],
        uy=best_u[1],
        time_ms=best_t,
        baseline_ms=baseline,
        evaluations=tuple(trace),
    )


@dataclass
class _ClimbState:
    """One spec's position in the lockstep hill-climb."""

    spec: PoolSpec
    max_factor: int
    trace: list[tuple[int, int, float]]
    baseline: float = 0.0
    best_u: tuple[int, int] = (1, 1)
    best_t: float = 0.0
    improving: bool = False


def _batch_times(
    context: SimulationContext, requests: list[tuple[PoolSpec, tuple[int, int]]]
) -> list[float]:
    """Vectorized, memoized ``_time`` over (spec, (ux, uy)) pairs."""
    models = [
        PoolingCHWN(spec) if u == (1, 1) else PoolingCoarsenedCHWN(spec, ux=u[0], uy=u[1])
        for spec, u in requests
    ]
    times = []
    for outcome in evaluate_cells(context, models, check_memory=False):
        if isinstance(outcome, Exception):
            raise outcome
        assert isinstance(outcome, KernelStats)
        times.append(outcome.time_ms)
    return times


def _tune_chunk(
    context: SimulationContext, tasks: list[tuple[PoolSpec, int, int]]
) -> list[TuneResult]:
    """Tune a chunk of pooling layers in lockstep.

    Each hill-climb is sequential, but at every step all chunk members'
    pending evaluations batch into one vectorized call.  The per-spec
    evaluation order — baseline, start, then (ux, uy) proposals per round —
    matches :func:`autotune_pooling` exactly, so traces and results are
    identical to the scalar tuner.
    """
    for _, max_factor, initial in tasks:
        if max_factor < 1 or initial < 1:
            raise ValueError("factors must be at least 1")

    states = [_ClimbState(spec, max_factor, []) for spec, max_factor, _ in tasks]
    baselines = _batch_times(context, [(s.spec, (1, 1)) for s in states])
    for state, t in zip(states, baselines):
        state.baseline = state.best_t = t
        state.trace.append((1, 1, t))

    starts = _batch_times(
        context, [(s.spec, (initial, initial)) for s, (_, _, initial) in zip(states, tasks)]
    )
    active: list[_ClimbState] = []
    for state, (_, _, initial), t in zip(states, tasks, starts):
        state.trace.append((initial, initial, t))
        if t < state.best_t:
            state.best_u, state.best_t = (initial, initial), t
            active.append(state)

    while active:
        for state in active:
            state.improving = False
        for dim in (0, 1):
            proposals: list[tuple[_ClimbState, tuple[int, int]]] = []
            for state in active:
                candidate = list(state.best_u)
                candidate[dim] = min(state.max_factor, candidate[dim] + 1)
                cand = (candidate[0], candidate[1])
                if cand != state.best_u:
                    proposals.append((state, cand))
            if not proposals:
                continue
            times = _batch_times(context, [(s.spec, u) for s, u in proposals])
            for (state, cand), t in zip(proposals, times):
                state.trace.append((*cand, t))
                if t < state.best_t:
                    state.best_u, state.best_t = cand, t
                    state.improving = True
        active = [s for s in active if s.improving]

    return [
        TuneResult(
            ux=s.best_u[0],
            uy=s.best_u[1],
            time_ms=s.best_t,
            baseline_ms=s.baseline,
            evaluations=tuple(s.trace),
        )
        for s in states
    ]


def autotune_pooling_many(
    device: DeviceSpec,
    specs: Sequence[PoolSpec],
    max_factor: int = 8,
    initial: int = 2,
    context: SimulationContext | None = None,
    jobs: int | str | None = None,
) -> list[TuneResult]:
    """Tune several pooling layers, optionally across worker processes.

    One hill-climb is inherently sequential (each step depends on the
    previous timing), so the parallel axis is the *layer list* — exactly the
    shape of the Fig. 12 benchmark.  Results are identical to calling
    :func:`autotune_pooling` per spec in order, for any ``jobs``.
    """
    ctx = context or default_context(device)
    tasks = [(spec, max_factor, initial) for spec in specs]
    return map_chunks(_tune_chunk, tasks, ctx, jobs=jobs)
