"""Tests of the benchmark itself: input generation, the output oracle, the
traced run's wrappers, and the metric names against ``BENCHMARK.json``.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfbench import layers, workloads  # noqa: E402
from perfbench.run import Measurement, end_to_end, measure, per_layer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DEVICES,
    NETWORKS,
    Outcome,
    PlanInput,
    Verdict,
    Workload,
)
from repro.gpusim.device import TITAN_BLACK, TITAN_X  # noqa: E402
from repro.networks.definitions import build_network  # noqa: E402

SMALL = [
    PlanInput(TITAN_BLACK, build_network("lenet", 16)),
    PlanInput(TITAN_X, build_network("cifar", 32)),
]


def _take(iterator, n):
    return [next(iterator) for _ in range(n)]


def _grid_cells(inp):
    """The op's cells, device left out so that ops on either device compare."""
    return {
        (i, dimension, value, impl)
        for i, (_, dimension, values) in enumerate(inp.conv)
        for value in values
        for impl in workloads.CONV_IMPLEMENTATIONS
    } | {
        (i, "n", value, "chwn")
        for i, (_, values) in enumerate(inp.pool)
        for value in values
    }


# -- generator ---------------------------------------------------------------


def test_cold_plan_inputs_follow_the_seed():
    w = workloads.ColdPlan()
    first = repr(_take(w.inputs(None, 1), 28))
    assert first == repr(_take(w.inputs(None, 1), 28))
    assert first != repr(_take(w.inputs(None, 2), 28))


def test_every_network_and_device_appear_in_one_cold_plan_deck():
    deck = _take(workloads.ColdPlan().inputs(None, 7), len(DEVICES) * len(NETWORKS))
    pairs = {(inp.device.name, inp.netdef.name) for inp in deck}
    assert pairs == {(d.name, n) for d in DEVICES for n in NETWORKS}
    batches = {inp.netdef.batch for inp in deck if inp.device is TITAN_X}
    assert batches == set(workloads.BATCHES)


def test_warm_session_pool_follows_the_seed():
    pool = workloads.session_pool(3)
    assert repr(pool) == repr(workloads.session_pool(3))
    assert repr(pool) != repr(workloads.session_pool(4))
    assert len(pool) == workloads.WarmSession.sim_ops


def test_sweep_grid_inputs_follow_the_seed_and_rarely_repeat_cells():
    grid = workloads.SweepGrid()
    ops = _take(grid.inputs(None, 5), 8)
    assert ops == _take(grid.inputs(None, 5), 8)
    assert ops != _take(grid.inputs(None, 6), 8)
    for later in (ops[1:], ops[2:]):
        for a, b in zip(ops, later):
            cells_a, cells_b = _grid_cells(a), _grid_cells(b)
            assert len(cells_a & cells_b) < 0.1 * len(cells_b)


def test_sweep_grid_values_stay_in_the_ranges_the_program_sweeps():
    for inp in _take(workloads.SweepGrid().inputs(None, 5), 4):
        for _, dimension, values in inp.conv:
            assert set(values) <= set(workloads.SWEEP_RANGES[dimension])
        for _, values in inp.pool:
            assert set(values) <= set(workloads.SWEEP_RANGES["n"])


# -- oracle ------------------------------------------------------------------


def _slower(plan, factor=2.0):
    steps = tuple(replace(s, layer_ms=s.layer_ms * factor) for s in plan.steps)
    return replace(plan, steps=steps)


def test_cold_plan_oracle_counts_a_corrupted_plan():
    w = workloads.ColdPlan()
    inp = SMALL[0]
    outcome = w.run(None, inp)
    assert w.check(None, inp, outcome).problems == []
    plan, ctx = outcome.output
    bad = outcome._replace(output=(_slower(plan), ctx))
    assert w.check(None, inp, bad).problems


def test_warm_session_oracle_counts_a_result_that_differs_from_cold():
    w = workloads.WarmSession()
    session = workloads.prime(SMALL)
    outcome = w.run(session, 1)
    assert w.check(session, 1, outcome).problems == []
    plan, timings = outcome.output
    timings = dict(timings, opt=replace(timings["opt"], network="renamed"))
    problems = w.check(session, 1, outcome._replace(output=(plan, timings))).problems
    assert problems == ["warm result differs from the cold result for its shape"]


def test_sweep_grid_oracle_counts_a_mispriced_cell_and_a_missing_cell():
    w = workloads.SweepGrid()
    inp = workloads.grid_input(0, 0)
    outcome = w.run(None, inp)
    assert w.check(None, inp, outcome).problems == []
    out = outcome.output
    first = out.conv[0]
    nudged = tuple(
        replace(p, time_ms=p.time_ms * (1 + 1e-12) if p.time_ms else None)
        for p in first.points
    )
    for points in (nudged, first.points[1:]):
        bad = replace(out, conv=(replace(first, points=points),) + out.conv[1:])
        assert w.check(None, inp, outcome._replace(output=bad)).problems


class _Broken(Workload):
    """An op whose output always fails its check, and every third op raises."""

    name = "broken"
    sim_ops = 0

    def inputs(self, prepared, seed):
        i = 0
        while True:
            i += 1
            yield i

    def run(self, prepared, inp):
        if inp % 3 == 0:
            raise RuntimeError("op failed")
        return Outcome(inp, 1, 0, 0)

    def check(self, prepared, inp, outcome):
        return Verdict(["wrong output"], [], [], {})


def test_failed_checks_and_raising_ops_count_as_failed():
    m = measure(_Broken(), None, seed=0, seconds=0, trace=False, min_ops=6)
    assert (m.attempted, m.failed) == (6, 6)


# -- traced run --------------------------------------------------------------


class _Spy(Workload):
    """Records which wrappers are installed while each op runs."""

    name = "spy"
    sim_ops = 0

    def __init__(self):
        self.seen = []

    def inputs(self, prepared, seed):
        while True:
            yield None

    def run(self, prepared, inp):
        self.seen.append(layers.wrapped_targets())
        return Outcome(None, 1, 0, 0)

    def check(self, prepared, inp, outcome):
        return Verdict([], [], [], {})


def test_untraced_run_installs_no_wrappers():
    spy = _Spy()
    measure(spy, None, seed=0, seconds=0, trace=False, min_ops=4)
    assert spy.seen == [[]] * 4


def test_traced_run_wraps_every_other_op_and_restores_the_program():
    spy = _Spy()
    measure(spy, None, seed=0, seconds=0, trace=True, min_ops=4, recorder=layers.Recorder())
    assert [bool(s) for s in spy.seen] == [False, True, False, True]
    wrapped = set(spy.seen[1])
    assert "repro.gpusim.session.structural_key" in wrapped
    assert "repro.gpusim.exec.structural_key" in wrapped
    assert "repro.layers.pooling_kernels.PoolingNCHWLinear.memory_profile" in wrapped
    assert layers.wrapped_targets() == []


class _SmallCold(workloads.ColdPlan):
    sim_ops = 4

    def inputs(self, prepared, seed):
        while True:
            yield from SMALL


class _SmallGrid(workloads.SweepGrid):
    sim_ops = 2


@pytest.mark.parametrize("workload", [_SmallCold, _SmallGrid])
def test_traced_run_leaves_every_sim_value_identical(workload):
    plain = measure(workload(), None, seed=1, seconds=0, trace=False, min_ops=4)
    recorder = layers.Recorder()
    traced = measure(workload(), None, seed=1, seconds=0, trace=True, min_ops=4, recorder=recorder)
    assert plain.failed == traced.failed == 0
    assert plain.sim_ms and plain.speedups
    assert (plain.sim_ms, plain.speedups, plain.breakdowns) == (
        traced.sim_ms,
        traced.speedups,
        traced.breakdowns,
    )
    assert recorder.calls["exec.cells_ms"] > 0


def test_cold_plan_trace_sees_the_traced_pooling_layers():
    recorder = layers.Recorder()
    with recorder.installed():
        workloads.ColdPlan().run(None, SMALL[1])
    spans = ("pool_trace.ms", "l2.replay_ms", "coalescing.ms", "session.key_ms", "ir.lower_ms")
    for span in spans:
        assert recorder.total_s[span] > 0, span
    assign = "pipeline.AssignLayouts.ms"
    assert recorder.self_s[assign] < recorder.total_s[assign]
    assert recorder.counts["l2.accesses"] >= recorder.counts["l2.hits"] > 0


# -- metric names ------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    m = Measurement(
        op_ms=[1.0, 2.0, 3.0],
        traced_op_ms=[1.5, 2.5],
        raw_traced_op_ms=[1.5, 2.5],
        attempted=5,
        cells=10,
        sim_ms=[0.5],
        speedups=[2.0],
        exec_delta=dict.fromkeys(layers.EXEC_COUNTERS, 0.0),
    )
    setup_times = {"import_s": 0.5, "scipy_fft_s": 0.1, "prime_s": 0.2}
    e2e = end_to_end(m, setup_times)
    assert list(e2e) == [metric["name"] for metric in spec["end_to_end"]]
    assert {name: unit for name, (_, unit) in e2e.items()} == {
        metric["name"]: metric["unit"] for metric in spec["end_to_end"]
    }
    traced = per_layer(m, layers.Recorder(), setup_times)
    assert {name: unit for name, (_, unit) in traced.items()} == {
        metric["name"]: metric["unit"] for metric in spec["per_layer"]
    }
