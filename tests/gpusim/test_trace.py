"""Trace utilities: warp grouping, sampling, stride formula cross-check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import (
    TITAN_BLACK,
    analyze_trace,
    analyze_warps,
    sample_indices,
    strided_pattern,
    transaction_stream,
    transactions_for_stride,
    warp_transactions,
    warps_from_threads,
)
from repro.obs import Tracer, install_tracer, uninstall_tracer
from tests.gpusim.test_coalescing import warp_traces


class TestWarpsFromThreads:
    def test_1d_grouping(self):
        addrs = np.arange(64, dtype=np.int64) * 4
        warps = warps_from_threads(addrs)
        assert warps.shape == (2, 32)
        assert warps[1, 0] == 32 * 4

    def test_1d_padding(self):
        warps = warps_from_threads(np.arange(40, dtype=np.int64))
        assert warps.shape == (2, 32)
        assert (warps[1, 8:] == -1).all()

    def test_2d_per_thread_sequences(self):
        # 32 threads each doing 3 accesses -> 3 warp instructions.
        addrs = np.arange(32, dtype=np.int64)[:, None] * 4 + np.array([0, 400, 800])
        warps = warps_from_threads(addrs)
        assert warps.shape == (3, 32)
        assert (warps[0] == np.arange(32) * 4).all()
        assert (warps[1] == np.arange(32) * 4 + 400).all()

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            warps_from_threads(np.zeros((2, 2, 2), dtype=np.int64))


class TestSampling:
    def test_small_total_returns_all(self):
        assert (sample_indices(5, 10) == np.arange(5)).all()

    def test_large_total_spans_range(self):
        idx = sample_indices(10_000, 16)
        assert len(idx) == 16
        assert idx[0] == 0
        assert idx[-1] > 9000

    def test_deterministic(self):
        assert (sample_indices(1000, 7) == sample_indices(1000, 7)).all()

    def test_invalid_total(self):
        with pytest.raises(ValueError):
            sample_indices(0, 4)


class TestStrideFormula:
    @given(
        lanes=st.integers(1, 32),
        stride_floats=st.integers(1, 64),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_traced_coalescing(self, lanes, stride_floats):
        """The closed-form helper must agree with the traced unit."""
        stride = stride_floats * 4
        lanes_idx = np.arange(32, dtype=np.int64)
        addr = np.where(lanes_idx < lanes, lanes_idx * stride, -1)[None, :]
        assert transactions_for_stride(TITAN_BLACK, lanes, stride) == float(
            warp_transactions(addr, TITAN_BLACK)[0]
        )


class TestAnalyzeTrace:
    def test_no_l2_reuse_for_disjoint_warps(self, device):
        result = analyze_trace(strided_pattern(32, 4, device), device)
        assert result.l2_hit_rate == 0.0
        assert result.coalescing.efficiency == pytest.approx(1.0)

    def test_repeat_warps_hit_l2(self, device):
        one = strided_pattern(1, 4, device)
        trace = np.concatenate([one, one, one], axis=0)
        result = analyze_trace(trace, device)
        assert result.l2_hit_rate == pytest.approx(2 / 3)

    def test_sampled_fraction_scale(self, device):
        result = analyze_trace(
            strided_pattern(4, 4, device), device, sampled_fraction=0.25
        )
        assert result.scale() == pytest.approx(4.0)


def _reference_stream(addr, segment_bytes, access_bytes):
    """Each warp's touched segments, every byte of every active lane's
    access included, ascending, in warp order."""
    stream = []
    for row in np.asarray(addr).tolist():
        touched = set()
        for a in row:
            if a >= 0:
                last = (a + access_bytes - 1) // segment_bytes
                touched.update(range(a // segment_bytes, last + 1))
        stream.extend(sorted(touched))
    return [seg * segment_bytes for seg in stream]


class TestStreamMatchesCoalescing:
    """The transaction stream replays exactly the transactions the
    coalescing unit counts, straddling accesses included."""

    @given(trace=warp_traces())
    @settings(max_examples=200, deadline=None)
    def test_uncapped_stream_is_every_counted_transaction(self, trace):
        addr, access_bytes = trace
        seg = TITAN_BLACK.transaction_bytes
        stream = transaction_stream(addr, seg, access_bytes=access_bytes)
        assert stream.tolist() == _reference_stream(addr, seg, access_bytes)
        report = analyze_warps(addr, TITAN_BLACK, access_bytes)
        assert stream.size == report.transactions

    def test_analyze_trace_replays_straddling_transactions(self, device):
        # Lane 31's float spans bytes 126..129: 4 first segments + 1 straddled.
        trace = strided_pattern(8, 4, device, base=2)
        tracer = install_tracer(Tracer("test"))
        try:
            result = analyze_trace(trace, device)
        finally:
            uninstall_tracer()
        assert result.coalescing.transactions == 8 * 5
        (span,) = [s for s in tracer.spans() if s.category == "sim.cache"]
        assert span.attrs["accesses"] == result.coalescing.transactions
