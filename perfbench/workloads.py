"""Seeded inputs, the timed operation and the output oracle of each workload.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one returned.  Inputs are a pure function
of ``--seed``; the program sees only the generated ``NetworkDef``s, devices
and grids.  Wrapped library functions are called through their modules
(``pipeline.plan_network``, ``schemes.compare_schemes``...) so that the
traced run's wrappers (see ``perfbench.layers``) see every call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from itertools import count
from typing import Any, Iterator, NamedTuple

import repro.analysis.sweeps as sweeps
import repro.baselines.schemes as schemes
import repro.core.calibration as calibration
import repro.core.pipeline as pipeline
from repro.framework.net import Net
from repro.framework.netdef import NetworkDef
from repro.gpusim.device import TITAN_BLACK, TITAN_X, DeviceSpec
from repro.gpusim.session import GpuOutOfMemoryError, SimulationContext
from repro.layers.base import ConvSpec, PoolSpec
from repro.layers.conv_kernels import ConvUnsupportedError, make_conv_kernel
from repro.layers.pooling_kernels import make_pool_kernel
from repro.networks.definitions import NETWORK_BUILDERS, build_network
from repro.networks.table1 import CONV_LAYERS, POOL_LAYERS

DEVICES: tuple[DeviceSpec, ...] = (TITAN_BLACK, TITAN_X)
NETWORKS: tuple[str, ...] = tuple(NETWORK_BUILDERS)
BATCHES: tuple[int, ...] = (16, 32, 64, 128, 256)
#: ``repro plan --verify``: the optimal pipeline with every pass contract checked
PLAN_OPTIONS = pipeline.PipelineOptions(strategy="optimal", verify=True)
HEURISTIC_OPTIONS = pipeline.PipelineOptions(strategy="heuristic")
#: float-summation slack for "Opt is never slower than X": plans are summed
#: step by step, so equal-cost plans may differ in the last bits
REL_TOL = 1e-9

CONV_IMPLEMENTATIONS = ("direct", "im2col", "fft")
POOL_IMPLEMENTATIONS = ("chwn",)
SWEEP_POINTS = 18
#: drawn sweep values per dimension: up to the largest value the program's
#: own sweeps use (calibration's N_SWEEP and C_SWEEP, the fig. 4 bench).
#: Drawing 18 of them afresh per op keeps repeated cells rare.
SWEEP_RANGES = {
    "n": range(1, calibration.N_SWEEP[-1] + 1),
    "ci": range(1, calibration.C_SWEEP[-1] + 1),
}
#: every workload runs in one process with one client
JOBS = 1
#: cells per grid op re-priced through the scalar ``SimulationContext.run``
SPOT_CHECKS = 6


class PlanInput(NamedTuple):
    device: DeviceSpec
    netdef: NetworkDef


@dataclass(frozen=True)
class GridInput:
    """One sweep-grid op: a drawn sweep for every Table-1 conv and pool layer."""

    index: int
    device: DeviceSpec
    conv: tuple[tuple[ConvSpec, str, tuple[int, ...]], ...]
    pool: tuple[tuple[PoolSpec, tuple[int, ...]], ...]


@dataclass(frozen=True)
class GridOutput:
    conv: tuple[sweeps.SweepResult, ...]
    pool: tuple[sweeps.SweepResult, ...]
    calibration: calibration.CalibrationResult


class Outcome(NamedTuple):
    """What one timed op returned, with the session counters it moved."""

    output: Any
    cells: int  # kernel pricings requested by the op
    hits: int
    misses: int


@dataclass
class Verdict:
    """The oracle's judgement of one op, plus the simulated values it read."""

    problems: list[str]
    #: simulated ms of the op's priced results, per image (plans) or per
    #: unit of the swept dimension (grid cells)
    sim_ms: list[float]
    speedups: list[float]  # simulated speedups over the cuDNN-MM algorithm
    breakdown: dict[str, float]  # simulated ms per kind of plan step


# ---------------------------------------------------------------------------
# input generators


def plan_decks(rng: random.Random) -> list[PlanInput]:
    """Two decks, each holding every (device, network) pair once in shuffled
    order.  In the first, the seven networks on each device share out all
    five batch sizes plus two drawn again; the second mirrors each batch
    across the range (16 <-> 256, 32 <-> 128), so every pair of decks gives
    each network a like spread of batch sizes."""
    first = []
    for device in DEVICES:
        batches = list(BATCHES) + rng.sample(BATCHES, len(NETWORKS) - len(BATCHES))
        rng.shuffle(batches)
        first += [(device, name, batch) for name, batch in zip(NETWORKS, batches)]
    second = [(d, name, BATCHES[-1 - BATCHES.index(b)]) for d, name, b in first]
    rng.shuffle(first)
    rng.shuffle(second)
    return [PlanInput(d, build_network(name, b)) for d, name, b in first + second]


def grid_input(seed: int, index: int) -> GridInput:
    """Op ``index`` of the sweep-grid stream: values drawn afresh per op.

    Ops alternate devices.  Half of the conv layers sweep ``n`` and half
    ``ci``; which half is drawn per pair of ops, and the second op of the
    pair takes the other half, so every two ops sweep every (layer,
    dimension) once and each op carries a like amount of work.
    """
    pair = random.Random(f"sweep-grid:{seed}:pair:{index // 2}")
    sweeps_n = set(pair.sample(range(len(CONV_LAYERS)), len(CONV_LAYERS) // 2))
    rng = random.Random(f"sweep-grid:{seed}:{index}")
    conv = []
    for k, spec in enumerate(CONV_LAYERS.values()):
        dimension = "n" if (k in sweeps_n) != (index % 2 == 1) else "ci"
        conv.append((spec, dimension, _draw_values(rng, dimension)))
    pool = tuple((spec, _draw_values(rng, "n")) for spec in POOL_LAYERS.values())
    return GridInput(index, DEVICES[index % len(DEVICES)], tuple(conv), pool)


def _draw_values(rng: random.Random, dimension: str) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(SWEEP_RANGES[dimension], SWEEP_POINTS)))


# ---------------------------------------------------------------------------
# oracles


def _not_slower(name: str, value: float, bound: float) -> list[str]:
    if value > bound * (1.0 + REL_TOL):
        return [f"Opt plan {value!r} ms is slower than {name} {bound!r} ms"]
    return []


def plan_verdict(
    inp: PlanInput,
    plan: Any,
    heuristic_ms: float,
    timings: dict[str, schemes.NetworkTiming],
) -> Verdict:
    """Opt never loses to the heuristic plan or to any library scheme, and
    the Opt scheme of the Fig. 14 harness prices the same plan."""
    opt = plan.total_ms
    if not (math.isfinite(opt) and opt > 0.0):
        return Verdict([f"Opt plan time {opt!r} is not a positive number"], [], [], {})
    problems = _not_slower("the heuristic plan", opt, heuristic_ms)
    for name, timing in timings.items():
        if name != "opt":
            problems += _not_slower(name, opt, timing.total_ms)
    scheme_opt = timings["opt"].total_ms
    if abs(scheme_opt - opt) > REL_TOL * opt:
        problems.append(f"Opt scheme {scheme_opt!r} ms != planned {opt!r} ms")
    speedup = timings["cudnn-mm"].total_ms / opt
    return Verdict(problems, [opt / inp.netdef.batch], [speedup], plan_breakdown(plan))


def plan_breakdown(plan: Any) -> dict[str, float]:
    """Simulated ms of one plan by step kind, plus its transform count."""
    out = dict.fromkeys(("conv", "pool", "softmax", "other", "transform"), 0.0)
    for step in plan.steps:
        kind = step.kind.value
        if kind not in ("conv", "pool"):
            kind = "softmax" if step.implementation.startswith("softmax") else "other"
        out[kind] += step.layer_ms
        out["transform"] += step.transform_ms
    out["transform_count"] = float(plan.transform_count)
    return out


def _scalar_time(
    device: DeviceSpec, kind: str, base: Any, dimension: str, value: int, impl: str
) -> float | None:
    """One grid cell priced through the scalar ``SimulationContext.run`` on a
    fresh session: the reference the batched execution engine must match."""
    spec = replace(base, **{dimension: value})
    try:
        if kind == "conv":
            kernel = make_conv_kernel(spec, impl)
        else:
            kernel = make_pool_kernel(spec, impl)
        stats = SimulationContext(device).run(kernel, check_memory=kind == "conv")
    except (ConvUnsupportedError, GpuOutOfMemoryError, ValueError):
        return None
    return stats.time_ms


def grid_verdict(inp: GridInput, out: GridOutput) -> Verdict:
    """Every requested cell is present in order with a positive time or a
    legitimate gap; sampled cells match the scalar path bit for bit; the
    calibrated thresholds follow from the calibration's own points."""
    problems: list[str] = []
    cells = []
    requests = [("conv", *c, CONV_IMPLEMENTATIONS) for c in inp.conv]
    requests += [("pool", base, "n", values, POOL_IMPLEMENTATIONS) for base, values in inp.pool]
    results = out.conv + out.pool
    if len(results) != len(requests):
        problems.append(f"{len(results)} sweeps returned for {len(requests)} requested")
    for (kind, base, dimension, values, impls), result in zip(requests, results):
        expected = [(v, impl) for v in values for impl in impls]
        got = [(p.value, p.implementation) for p in result.points]
        if got != expected or result.dimension != dimension:
            problems.append(f"{kind} sweep over {dimension} returned the wrong cells")
            continue
        for p in result.points:
            if p.time_ms is not None and not (math.isfinite(p.time_ms) and p.time_ms > 0):
                problems.append(f"{kind} cell {p.value}/{p.implementation}: time {p.time_ms!r}")
            cells.append((kind, base, dimension, p))
    for kind, base, dimension, p in cells[:: max(1, len(cells) // SPOT_CHECKS)]:
        ref = _scalar_time(inp.device, kind, base, dimension, p.value, p.implementation)
        if ref != p.time_ms:
            problems.append(
                f"{kind} cell {dimension}={p.value}/{p.implementation}: "
                f"{p.time_ms!r} ms, scalar path {ref!r} ms"
            )
    problems += _calibration_problems(out.calibration)

    # per unit of the swept dimension, as plans report ms per image
    sim_ms = [p.time_ms / p.value for *_, p in cells if p.time_ms is not None]
    speedups = []
    for result in out.conv:
        for value in result.values:
            times = {
                p.implementation: p.time_ms
                for p in result.points
                if p.value == value and p.time_ms is not None
            }
            if "im2col" in times:
                speedups.append(times["im2col"] / min(times.values()))
    return Verdict(problems, sim_ms, speedups, {})


def _calibration_problems(cal: calibration.CalibrationResult) -> list[str]:
    n_values = [p.value for p in cal.n_sweep]
    c_values = [p.value for p in cal.c_sweep]
    nt = next((p.value for p in cal.n_sweep if p.chwn_wins), max(n_values))
    ct = next((p.value for p in cal.c_sweep if not p.chwn_wins), max(c_values) * 2)
    problems = []
    if (cal.thresholds.ct, cal.thresholds.nt) != (ct, nt):
        problems.append(
            f"calibrated Ct={cal.thresholds.ct} Nt={cal.thresholds.nt}, "
            f"its own sweep points give Ct={ct} Nt={nt}"
        )
    for p in cal.n_sweep + cal.c_sweep:
        if not (p.chwn_ms > 0 and p.nchw_ms > 0):
            problems.append(f"calibration point {p.value}: {p.chwn_ms!r}/{p.nchw_ms!r} ms")
    return problems


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One named workload.  ``prepare`` is its set-up (timed into
    ``setup_s``); ``run`` is the timed op; ``check`` is the untimed oracle."""

    name = ""
    #: cold/warm state of the simulator's caches, for the run manifest
    state = ""
    #: the first ``sim_ops`` ops define the sim_* metrics, so they repeat
    #: exactly for a seed however many ops a run completes
    sim_ops = 1

    def prepare(self, seed: int) -> Any:
        return None

    def inputs(self, prepared: Any, seed: int) -> Iterator[Any]:
        raise NotImplementedError

    def run(self, prepared: Any, inp: Any) -> Outcome:
        raise NotImplementedError

    def check(self, prepared: Any, inp: Any, outcome: Outcome) -> Verdict:
        raise NotImplementedError


class ColdPlan(Workload):
    name = "cold-plan"
    state = "cold: a fresh SimulationContext per op"
    #: two pairs of decks
    sim_ops = 4 * len(DEVICES) * len(NETWORKS)

    def inputs(self, prepared: Any, seed: int) -> Iterator[PlanInput]:
        rng = random.Random(f"cold-plan:{seed}")
        while True:
            yield from plan_decks(rng)

    def run(self, prepared: Any, inp: PlanInput) -> Outcome:
        ctx = SimulationContext(inp.device)
        plan = pipeline.plan_network(inp.device, inp.netdef, PLAN_OPTIONS, context=ctx).plan
        stats = ctx.stats
        return Outcome((plan, ctx), stats.queries, stats.hits, stats.misses)

    def check(self, prepared: Any, inp: PlanInput, outcome: Outcome) -> Verdict:
        plan, ctx = outcome.output
        heuristic = pipeline.plan_network(
            inp.device, inp.netdef, HEURISTIC_OPTIONS, context=ctx
        ).plan
        timings = schemes.compare_schemes(Net(inp.netdef), inp.device, context=ctx)
        return plan_verdict(inp, plan, heuristic.total_ms, timings)


@dataclass
class Session:
    """warm-session set-up: the shape pool, one primed context per device,
    and each shape's cold result (rendered) and heuristic plan time."""

    pool: list[PlanInput]
    contexts: dict[str, SimulationContext]
    cold: list[str]
    heuristic_ms: list[float]


def _plan_and_compare(inp: PlanInput, ctx: SimulationContext) -> tuple[Any, dict]:
    plan = pipeline.plan_network(inp.device, inp.netdef, PLAN_OPTIONS, context=ctx).plan
    return plan, schemes.compare_schemes(Net(inp.netdef), inp.device, context=ctx)


def session_pool(seed: int) -> list[PlanInput]:
    """The warm-session shapes: one pair of decks, so every (device,
    network) pair twice."""
    return plan_decks(random.Random(f"warm-session:{seed}"))


def prime(pool: list[PlanInput]) -> Session:
    """Price every pool shape cold on its own fresh context (its reference
    result), then fold those caches into one session context per device."""
    contexts = {d.name: SimulationContext(d) for d in DEVICES}
    cold, heuristic_ms = [], []
    for inp in pool:
        ctx = SimulationContext(inp.device)
        cold.append(repr(_plan_and_compare(inp, ctx)))
        heuristic = pipeline.plan_network(inp.device, inp.netdef, HEURISTIC_OPTIONS, context=ctx)
        heuristic_ms.append(heuristic.plan.total_ms)
        cache, _ = ctx.export_state()
        contexts[inp.device.name].absorb(cache)
    return Session(pool, contexts, cold, heuristic_ms)


class WarmSession(Workload):
    name = "warm-session"
    state = "warm: one SimulationContext per device, primed with the whole pool in set-up"
    sim_ops = 2 * len(DEVICES) * len(NETWORKS)

    def prepare(self, seed: int) -> Session:
        return prime(session_pool(seed))

    def inputs(self, prepared: Session, seed: int) -> Iterator[int]:
        # rounds visiting every pool shape once: the first in pool order (the
        # sim_* prefix), the rest in seeded shuffles, so every run sees the
        # same mix of shapes
        slots = list(range(len(prepared.pool)))
        yield from slots
        rng = random.Random(f"warm-session:{seed}:rounds")
        while True:
            rng.shuffle(slots)
            yield from slots

    def run(self, prepared: Session, slot: int) -> Outcome:
        inp = prepared.pool[slot]
        ctx = prepared.contexts[inp.device.name]
        hits, misses = ctx.stats.hits, ctx.stats.misses
        out = _plan_and_compare(inp, ctx)
        hits, misses = ctx.stats.hits - hits, ctx.stats.misses - misses
        return Outcome(out, hits + misses, hits, misses)

    def check(self, prepared: Session, slot: int, outcome: Outcome) -> Verdict:
        plan, timings = outcome.output
        verdict = plan_verdict(
            prepared.pool[slot], plan, prepared.heuristic_ms[slot], timings
        )
        if repr(outcome.output) != prepared.cold[slot]:
            verdict.problems.append("warm result differs from the cold result for its shape")
        return verdict


def price_grid(inp: GridInput, ctx: SimulationContext) -> GridOutput:
    conv = tuple(
        sweeps.sweep_conv(
            inp.device, base, dimension, values, CONV_IMPLEMENTATIONS,
            context=ctx, jobs=JOBS,
        )
        for base, dimension, values in inp.conv
    )
    pool = tuple(
        sweeps.sweep_pool(
            inp.device, base, "n", values, POOL_IMPLEMENTATIONS, context=ctx, jobs=JOBS
        )
        for base, values in inp.pool
    )
    cal = calibration.calibrate(inp.device, context=ctx, jobs=JOBS)
    return GridOutput(conv, pool, cal)


class SweepGrid(Workload):
    name = "sweep-grid"
    state = "cold: a fresh SimulationContext per op, jobs=1"
    sim_ops = 32

    def inputs(self, prepared: Any, seed: int) -> Iterator[GridInput]:
        for index in count():
            yield grid_input(seed, index)

    def run(self, prepared: Any, inp: GridInput) -> Outcome:
        ctx = SimulationContext(inp.device)
        out = price_grid(inp, ctx)
        cal = out.calibration
        cells = sum(len(r.points) for r in out.conv + out.pool)
        cells += 2 * (len(cal.n_sweep) + len(cal.c_sweep))
        return Outcome(out, cells, ctx.stats.hits, ctx.stats.misses)

    def check(self, prepared: Any, inp: GridInput, outcome: Outcome) -> Verdict:
        return grid_verdict(inp, outcome.output)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ColdPlan, WarmSession, SweepGrid)
}
