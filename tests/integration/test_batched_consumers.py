"""Batched evaluation is invisible to its consumers.

Every hot consumer threaded through ``evaluate_models`` — the layer
sweeps, device calibration, the pooling autotuner, and the layout
pipeline's transform pricing — must produce byte-identical results with
batching on and off, serial and with worker fan-out.  These tests pin the
contract the ``bench_planner_perf`` CI gate also enforces end to end.

Both modes run the consumer's own chunk function, so the sweep and
calibration tests also compare against an independent per-cell
``context.run`` loop defined here: the consumer's failure-to-``None``
mapping and its pairing of layouts are checked against code it does not
share.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.sweeps import SweepPoint, sweep_conv, sweep_pool
from repro.core.autotune import autotune_pooling_many
from repro.core.calibration import (
    C_SWEEP,
    N_SWEEP,
    REFERENCE_SHAPE,
    CalibrationResult,
    calibrate,
)
from repro.core.calibration import SweepPoint as CalibrationPoint
from repro.core.heuristic import LayoutThresholds
from repro.core.pipeline import PipelineOptions, plan_network
from repro.gpusim import TITAN_BLACK, TITAN_X, SimulationContext, default_context
from repro.gpusim.batch import set_batched_eval
from repro.gpusim.engine import GpuOutOfMemoryError
from repro.layers.base import PoolSpec
from repro.layers.conv_kernels import ConvUnsupportedError, make_conv_kernel
from repro.layers.pooling_kernels import make_pool_kernel
from repro.networks import CONV_LAYERS, build_network


@pytest.fixture(params=[False, True], ids=["scalar", "batched"])
def batching(request):
    prev = set_batched_eval(request.param)
    yield request.param
    set_batched_eval(prev)


def _with_batching(enabled, fn):
    prev = set_batched_eval(enabled)
    try:
        return fn()
    finally:
        set_batched_eval(prev)


POOL_SPECS = [
    PoolSpec(n=64, c=c, h=27, w=27, window=3, stride=2) for c in (16, 64, 128)
]


def _reference_points(
    device, make_kernel, base, dimension, values, impls, check_memory
):
    """Per-cell sweep reference: one ``context.run`` per kernel, and an
    unsupported shape, an OOM or a launch/spec error is a failed point."""
    context = SimulationContext(device)
    points = []
    for value in values:
        spec = replace(base, **{dimension: value})
        for impl in impls:
            try:
                stats = context.run(make_kernel(spec, impl), check_memory=check_memory)
            except (ConvUnsupportedError, GpuOutOfMemoryError, ValueError):
                points.append(SweepPoint(value, impl, None, None))
            else:
                points.append(
                    SweepPoint(value, impl, stats.time_ms, stats.achieved_gflops)
                )
    return tuple(points)


def _reference_calibration(device):
    """Per-point calibration reference: two ``context.run`` calls (direct
    CHWN, im2col NCHW) per sweep point, thresholds located as documented
    on :func:`calibrate`."""
    context = SimulationContext(device)

    def both(spec):
        chwn = context.run(make_conv_kernel(spec, "direct"), check_memory=False)
        nchw = context.run(make_conv_kernel(spec, "im2col"), check_memory=False)
        return chwn.time_ms, nchw.time_ms

    n_points = [
        CalibrationPoint(n, *both(replace(REFERENCE_SHAPE, n=n)))
        for n in sorted(N_SWEEP)
    ]
    nt = next((p.value for p in n_points if p.chwn_wins), max(N_SWEEP))
    c_batch = max((n for n in N_SWEEP if n < nt), default=min(N_SWEEP))
    c_points = [
        CalibrationPoint(c, *both(replace(REFERENCE_SHAPE, ci=c, n=c_batch)))
        for c in sorted(C_SWEEP)
    ]
    ct = next((p.value for p in c_points if not p.chwn_wins), max(C_SWEEP) * 2)
    profiling_ms = sum(p.chwn_ms + p.nchw_ms for p in n_points)
    profiling_ms += sum(p.chwn_ms + p.nchw_ms for p in c_points)
    return CalibrationResult(
        thresholds=LayoutThresholds(ct=ct, nt=nt),
        n_sweep=tuple(n_points),
        c_sweep=tuple(c_points),
        profiling_ms=profiling_ms,
    )


class TestSweepIdentity:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_conv_sweep(self, jobs):
        base = CONV_LAYERS["CV3"]
        values = (1, 16, 64, 256)
        run = lambda: sweep_conv(  # noqa: E731
            TITAN_BLACK, base, "n", values, jobs=jobs
        )
        ref = _reference_points(
            TITAN_BLACK, make_conv_kernel, base, "n", values, ("direct", "im2col"), True
        )
        assert _with_batching(False, run).points == ref
        assert _with_batching(True, run).points == ref

    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("layer,values", [("CV5", (16, 64)), ("CV10", (32, 512))])
    def test_conv_sweep_failed_cells(self, layer, values, jobs):
        # CV5 has stride 2, which FFT cannot run; CV10's FFT workspace at
        # n=512 does not fit the device.  Both must be failed points.
        base = CONV_LAYERS[layer]
        impls = ("direct", "im2col", "fft")
        run = lambda: sweep_conv(  # noqa: E731
            TITAN_BLACK, base, "n", values, impls, jobs=jobs
        )
        ref = _reference_points(
            TITAN_BLACK, make_conv_kernel, base, "n", values, impls, True
        )
        assert any(p.time_ms is None for p in ref)
        assert _with_batching(False, run).points == ref
        assert _with_batching(True, run).points == ref

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_pool_sweep(self, jobs):
        values = (8, 32, 96)
        run = lambda: sweep_pool(  # noqa: E731
            TITAN_X, POOL_SPECS[0], "c", values, jobs=jobs
        )
        ref = _reference_points(
            TITAN_X, make_pool_kernel, POOL_SPECS[0], "c", values,
            ("chwn", "nchw-linear"), False,
        )
        assert _with_batching(False, run).points == ref
        assert _with_batching(True, run).points == ref


class TestCalibrationIdentity:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_calibrate(self, jobs):
        run = lambda: calibrate(TITAN_BLACK, jobs=jobs)  # noqa: E731
        ref = _reference_calibration(TITAN_BLACK)
        # profiling_ms is summed *simulated* time, so even it must match
        assert _with_batching(False, run) == ref
        assert _with_batching(True, run) == ref


class TestAutotuneIdentity:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_pooling_many(self, jobs):
        run = lambda: autotune_pooling_many(  # noqa: E731
            TITAN_BLACK, POOL_SPECS, jobs=jobs
        )
        ref, out = _with_batching(False, run), _with_batching(True, run)
        # full trace equality: same hill-climb visits in the same order
        assert ref == out


class TestPipelineIdentity:
    @pytest.mark.parametrize("network", ["alexnet", "inception"])
    @pytest.mark.parametrize("strategy", ["heuristic", "optimal"])
    def test_plan_identity(self, network, strategy):
        net = build_network(network)
        opts = PipelineOptions(strategy=strategy)

        def run():
            ctx = default_context(TITAN_BLACK)
            return plan_network(TITAN_BLACK, net, opts, context=ctx)

        ref, out = _with_batching(False, run), _with_batching(True, run)
        # the trace carries batch-only stats; the contract is the plan
        assert ref.plan == out.plan
        assert ref.plan.summary() == out.plan.summary()
        assert ref.graph == out.graph


def test_profile_digest_reports_batches(batching, capsys):
    """Smoke for the CLI digest source: with batching on, metrics carry
    batch.eval counters after a consumer runs."""
    from repro.obs.metrics import aggregate_metrics

    sweep_pool(TITAN_BLACK, POOL_SPECS[0], "c", (8, 32), jobs=1)
    metrics = aggregate_metrics()
    batches = metrics.value("batch.eval.batches")
    if batching:
        assert batches
    # scalar mode must not report batched evaluations from this sweep
