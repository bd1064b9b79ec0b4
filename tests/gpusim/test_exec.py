"""Sweep execution engine: memoization, dedup, fused batches, warm pool.

The contract of :mod:`repro.gpusim.exec`: memoization, dedup, chunking,
and worker warmth are all *pure wall-clock knobs* — every grid consumer's
output is byte-identical to the scalar golden path no matter how many
times a cell has been priced before, which process priced it, or how the
grid was chunked.  A dead worker breaks the pool loudly, and the next
grid respawns it.
"""

from __future__ import annotations

import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweeps import sweep_conv, sweep_pool
from repro.core.autotune import autotune_pooling_many
from repro.core.calibration import calibrate
from repro.gpusim import (
    SimulationContext,
    evaluate_models,
    map_chunks,
    shutdown_pool,
)
from repro.gpusim.engine import GpuOutOfMemoryError
from repro.gpusim.exec import (
    DEFAULT_MIN_CHUNK,
    TARGET_CHUNK_S,
    adaptive_chunk_size,
    evaluate_cells,
    pool_workers,
)
from repro.layers import make_pool_kernel
from repro.layers.base import ConvSpec
from repro.layers.conv_kernels import make_conv_kernel
from repro.obs.metrics import global_registry


def _fresh(device):
    return SimulationContext(device, check_memory=False)


def _pool_models(small_pool, channels=(4, 8, 16)):
    return [
        make_pool_kernel(replace(small_pool, c=c), impl)
        for c in channels
        for impl in ("chwn", "nchw-linear")
    ]


# ---------------------------------------------------------------------------
# evaluate_cells: memoization + dedup
# ---------------------------------------------------------------------------


class TestEvaluateCells:
    def test_matches_fresh_context_batch(self, device, small_pool):
        models = _pool_models(small_pool)
        ref = evaluate_models(_fresh(device), models, check_memory=False)
        got = evaluate_cells(_fresh(device), models, check_memory=False)
        assert got == ref

    def test_memoized_rerun_is_identical(self, device, small_pool):
        models = _pool_models(small_pool)
        ctx = _fresh(device)
        first = evaluate_cells(ctx, models, check_memory=False)
        again = evaluate_cells(ctx, models, check_memory=False)
        assert again == first
        # Second pass is all cache hits: no new entries appeared.
        assert ctx.cache_size == len(models)

    def test_scalar_cache_primes_the_engine(self, device, small_pool):
        # A cell priced by the scalar path is a hit for the engine: the
        # two share one structural key space.
        kernel = make_pool_kernel(small_pool, "chwn")
        ctx = _fresh(device)
        scalar = ctx.run(kernel, check_memory=False)
        hits0 = global_registry().value("exec.cache.hit") or 0
        [engine] = evaluate_cells(ctx, [kernel], check_memory=False)
        assert engine == scalar
        assert global_registry().value("exec.cache.hit") == hits0 + 1

    def test_engine_primes_the_scalar_cache(self, device, small_pool):
        kernel = make_pool_kernel(small_pool, "chwn")
        ctx = _fresh(device)
        [engine] = evaluate_cells(ctx, [kernel], check_memory=False)
        hits_before = ctx.stats.hits
        assert ctx.run(kernel, check_memory=False) == engine
        assert ctx.stats.hits == hits_before + 1

    def test_duplicates_collapse_but_fan_back_out(self, device, small_pool):
        a = make_pool_kernel(small_pool, "chwn")
        b = make_pool_kernel(small_pool, "nchw-linear")
        models = [a, b, a, a, b]
        ref = evaluate_models(_fresh(device), models, check_memory=False)
        dedup0 = global_registry().value("exec.cache.dedup") or 0
        got = evaluate_cells(_fresh(device), models, check_memory=False)
        assert got == ref
        assert got[0] == got[2] == got[3]
        assert got[1] == got[4]
        assert global_registry().value("exec.cache.dedup") == dedup0 + 3

    def test_batching_disabled_delegates_to_scalar(self, device, small_pool):
        from repro.gpusim import set_batched_eval

        models = _pool_models(small_pool)
        ref = evaluate_models(_fresh(device), models, check_memory=False)
        prev = set_batched_eval(False)
        try:
            got = evaluate_cells(_fresh(device), models, check_memory=False)
        finally:
            set_batched_eval(prev)
        assert got == ref

    def test_empty_grid(self, device):
        assert evaluate_cells(_fresh(device), []) == []


class TestErrorMemoization:
    #: a conv too large for any bundled device once check_memory is on
    HUGE = ConvSpec(n=4096, ci=512, h=256, w=256, co=512, fh=3, fw=3)
    SMALL = ConvSpec(n=8, ci=16, h=15, w=15, co=16, fh=3, fw=3)

    def _models(self):
        return [
            make_conv_kernel(self.SMALL, "direct"),
            make_conv_kernel(self.HUGE, "im2col"),
            make_conv_kernel(self.SMALL, "direct"),
        ]

    @staticmethod
    def _shape(results):
        return [
            (type(r).__name__, r.args) if isinstance(r, Exception) else r
            for r in results
        ]

    def test_oom_depends_on_the_flag_not_the_memo(self, device):
        # Prime the memo with the check OFF (everything prices fine),
        # then ask with the check ON: the big conv must still OOM —
        # exactly what the scalar path does, where _check_fit runs
        # before the cache lookup.
        models = self._models()
        ref_on = evaluate_models(_fresh(device), models, check_memory=True)
        ref_off = evaluate_models(_fresh(device), models, check_memory=False)
        ctx = _fresh(device)
        assert self._shape(
            evaluate_cells(ctx, models, check_memory=False)
        ) == self._shape(ref_off)
        assert self._shape(
            evaluate_cells(ctx, models, check_memory=True)
        ) == self._shape(ref_on)
        assert self._shape(
            evaluate_cells(ctx, models, check_memory=False)
        ) == self._shape(ref_off)

    def test_oom_hit_after_oom_miss(self, device):
        models = self._models()
        ref = evaluate_models(_fresh(device), models, check_memory=True)
        ctx = _fresh(device)
        first = evaluate_cells(ctx, models, check_memory=True)
        again = evaluate_cells(ctx, models, check_memory=True)
        assert self._shape(first) == self._shape(ref)
        assert self._shape(again) == self._shape(ref)
        assert isinstance(again[1], GpuOutOfMemoryError)


# ---------------------------------------------------------------------------
# Hypothesis: dedup never drops or reorders grid cells
# ---------------------------------------------------------------------------


BASE_CHANNELS = (4, 6, 8)
BASE_IMPLS = ("chwn", "nchw-linear")


@pytest.fixture(scope="module")
def dedup_reference(device, small_pool):
    """The distinct cell pool and its scalar-priced reference values."""
    models = _pool_models(small_pool, BASE_CHANNELS)
    stats = evaluate_models(
        SimulationContext(device, check_memory=False), models, check_memory=False
    )
    return models, stats


class TestDedupProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=5), min_size=0, max_size=24
        )
    )
    def test_never_drops_or_reorders(self, device, dedup_reference, picks):
        models, stats = dedup_reference
        grid = [models[i] for i in picks]
        expected = [stats[i] for i in picks]
        # A warm shared context across examples *and* a fresh one: both
        # must reproduce the reference slot for slot.
        got = evaluate_cells(_fresh(device), grid, check_memory=False)
        assert got == expected

    @settings(max_examples=15, deadline=None)
    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=5), min_size=1, max_size=24
        )
    )
    def test_warm_context_matches(self, device, dedup_reference, picks):
        models, stats = dedup_reference
        if not hasattr(self, "_warm"):
            self._warm = _fresh(device)
        grid = [models[i] for i in picks]
        assert evaluate_cells(self._warm, grid, check_memory=False) == [
            stats[i] for i in picks
        ]


# ---------------------------------------------------------------------------
# Adaptive chunking
# ---------------------------------------------------------------------------


class TestAdaptiveChunkSize:
    def test_even_split_by_default(self):
        assert adaptive_chunk_size(100, 4, None) == 25

    def test_floor_prevents_singletons(self):
        assert adaptive_chunk_size(6, 6, None) == min(6, DEFAULT_MIN_CHUNK)
        assert adaptive_chunk_size(2, 8, None) == 2

    def test_expensive_cells_shrink_chunks(self):
        # Cells costing half the target each: chunks of 2 would be ideal
        # but the floor wins; cells cheap enough never shrink below the
        # even split.
        cost = TARGET_CHUNK_S / 2
        assert adaptive_chunk_size(100, 2, cost) == DEFAULT_MIN_CHUNK
        assert adaptive_chunk_size(100, 2, TARGET_CHUNK_S / 1000) == 50

    def test_empty_grid(self):
        assert adaptive_chunk_size(0, 4, None) == 1


# ---------------------------------------------------------------------------
# map_chunks: serial fusion, warm pool, delta merge-back
# ---------------------------------------------------------------------------


def _eval_chunk(context, models):
    return evaluate_cells(context, models, check_memory=False)


class TestMapChunksSerial:
    def test_single_fused_call(self, device, small_pool):
        models = _pool_models(small_pool)
        ref = evaluate_models(_fresh(device), models, check_memory=False)
        ctx = _fresh(device)
        sizes0 = (global_registry().histogram("exec.batch.size").values or [])[:]
        out = map_chunks(_eval_chunk, models, ctx, jobs=1)
        assert out == ref
        sizes = global_registry().histogram("exec.batch.size").values
        # Exactly one new batch observation: the whole grid was fused.
        assert len(sizes) == len(sizes0) + 1
        assert sizes[-1] == len(models)


class TestMapChunksPool:
    @pytest.fixture(autouse=True)
    def _four_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        yield
        shutdown_pool()

    def test_pool_results_byte_identical(self, device, small_pool):
        models = _pool_models(small_pool, (4, 8, 16, 32))
        ref = evaluate_models(_fresh(device), models, check_memory=False)
        ctx = _fresh(device)
        out = map_chunks(_eval_chunk, models, ctx, jobs=4, chunk_size=2)
        assert out == ref
        # Every worker delta merged home: the parent can serve all cells.
        assert ctx.cache_size == len(models)
        assert pool_workers() == 4

    def test_delta_merge_back_under_pool_reuse(self, device, small_pool):
        first = _pool_models(small_pool, (4, 8))
        more = _pool_models(small_pool, (4, 8, 16, 32))
        ref = evaluate_models(_fresh(device), more, check_memory=False)
        ctx = _fresh(device)
        map_chunks(_eval_chunk, first, ctx, jobs=4, chunk_size=2)
        reuse0 = global_registry().value("exec.pool.reuse") or 0
        out = map_chunks(_eval_chunk, more, ctx, jobs=4, chunk_size=2)
        assert out == ref
        assert ctx.cache_size == len(more)
        # Same pool, second submission: warm workers were reused and the
        # already-shipped entries were not re-shipped (the parent cache
        # grew by exactly the new cells).
        assert (global_registry().value("exec.pool.reuse") or 0) > reuse0

    def test_pool_then_serial_hits(self, device, small_pool):
        models = _pool_models(small_pool, (4, 8, 16, 32))
        ctx = _fresh(device)
        out_pool = map_chunks(_eval_chunk, models, ctx, jobs=4, chunk_size=2)
        hits0 = global_registry().value("exec.cache.hit") or 0
        out_serial = map_chunks(_eval_chunk, models, ctx, jobs=1)
        assert out_serial == out_pool
        assert global_registry().value("exec.cache.hit") == hits0 + len(models)


def _die_in_worker(context, cells):
    """Chunk body that kills any worker process it lands in: each cell
    carries the parent's pid, so the serial path stays alive."""
    if os.getpid() != cells[0][0]:
        os._exit(1)
    return [value for _, value in cells]


class TestMapChunksFaults:
    @pytest.fixture(autouse=True)
    def _two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        shutdown_pool()
        yield
        shutdown_pool()

    def test_dead_worker_breaks_the_pool_and_the_next_grid_respawns_it(
        self, device, small_pool
    ):
        cells = [(os.getpid(), i) for i in range(8)]
        with pytest.raises(BrokenProcessPool):
            map_chunks(_die_in_worker, cells, _fresh(device), jobs=2, chunk_size=4)
        # The broken executor is torn down, not left for the next caller.
        assert pool_workers() == 0

        models = _pool_models(small_pool, (4, 8, 16, 32))
        serial = map_chunks(_eval_chunk, models, _fresh(device), jobs=1)
        out = map_chunks(_eval_chunk, models, _fresh(device), jobs=2, chunk_size=4)
        assert out == serial
        assert pool_workers() == 2

    def test_warm_workers_pick_up_a_toggle_flip(self, device, small_pool):
        from repro.gpusim import set_batched_eval

        # Born and warmed with batching on.
        warmup = _pool_models(small_pool, (4, 8))
        map_chunks(_eval_chunk, warmup, _fresh(device), jobs=2, chunk_size=2)
        assert pool_workers() == 2

        models = _pool_models(small_pool, (16, 32, 48, 64))
        prev = set_batched_eval(False)
        try:
            serial = map_chunks(_eval_chunk, models, _fresh(device), jobs=1)
            batches0 = global_registry().value("batch.eval.batches") or 0
            out = map_chunks(_eval_chunk, models, _fresh(device), jobs=2, chunk_size=4)
            batches = global_registry().value("batch.eval.batches") or 0
        finally:
            set_batched_eval(prev)
        assert out == serial
        # Workers merged their metrics home; a worker still batching would
        # have counted its batch evaluations there.
        assert batches == batches0


# ---------------------------------------------------------------------------
# Grid consumers: memoized vs fresh-context, jobs 1 and 4
# ---------------------------------------------------------------------------


class TestConsumerByteIdentity:
    @pytest.fixture(autouse=True)
    def _four_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        yield
        shutdown_pool()

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_sweep_pool_memoized(self, device, small_pool, jobs):
        fresh = sweep_pool(
            device, small_pool, "c", (4, 8, 16),
            context=_fresh(device), jobs=jobs,
        )
        warm = _fresh(device)
        first = sweep_pool(
            device, small_pool, "c", (4, 8, 16), context=warm, jobs=jobs
        )
        again = sweep_pool(
            device, small_pool, "c", (4, 8, 16), context=warm, jobs=jobs
        )
        assert first == fresh
        assert again == fresh

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_sweep_conv_memoized(self, device, small_conv, jobs):
        values = (3, 16, 64)
        fresh = sweep_conv(
            device, small_conv, "ci", values,
            context=SimulationContext(device), jobs=jobs,
        )
        warm = SimulationContext(device)
        first = sweep_conv(device, small_conv, "ci", values, context=warm, jobs=jobs)
        again = sweep_conv(device, small_conv, "ci", values, context=warm, jobs=jobs)
        assert first == fresh
        assert again == fresh

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_calibrate_memoized(self, device, jobs):
        fresh = calibrate(device, context=SimulationContext(device), jobs=jobs)
        warm = SimulationContext(device)
        first = calibrate(device, context=warm, jobs=jobs)
        again = calibrate(device, context=warm, jobs=jobs)
        assert first == fresh
        assert again == fresh

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_autotune_memoized(self, device, small_pool, jobs):
        specs = [replace(small_pool, c=c) for c in (4, 8, 16)]
        fresh = autotune_pooling_many(
            device, specs, context=SimulationContext(device), jobs=jobs
        )
        warm = SimulationContext(device)
        first = autotune_pooling_many(device, specs, context=warm, jobs=jobs)
        again = autotune_pooling_many(device, specs, context=warm, jobs=jobs)
        assert first == fresh
        assert again == fresh
