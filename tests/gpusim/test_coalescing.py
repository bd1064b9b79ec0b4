"""Coalescing unit: transactions per warp for canonical access patterns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import (
    TITAN_BLACK,
    analyze_warps,
    strided_pattern,
    warp_transactions,
)


def reference_transactions(addr, segment_bytes, access_bytes):
    """Scalar golden reference: the size of each warp's set of touched
    segments, every byte of every active lane's access included."""
    counts = []
    for row in np.asarray(addr).tolist():
        touched = set()
        for a in row:
            if a >= 0:
                last = (a + access_bytes - 1) // segment_bytes
                touched.update(range(a // segment_bytes, last + 1))
        counts.append(len(touched))
    return counts


@st.composite
def warp_traces(draw):
    """Strided or scattered warps at any alignment, with inactive lanes
    (any negative value) and whole inactive warps."""
    n_warps = draw(st.integers(0, 6))
    lanes = draw(st.integers(1, 32))
    access_bytes = draw(st.sampled_from([1, 2, 4, 8, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_warps, lanes)
    if draw(st.booleans()):
        base = draw(st.integers(0, 4096))
        stride = draw(st.sampled_from([0, 1, 2, 3, 4, 8, 12, 16, 36, 128]))
        addr = base + np.arange(n_warps * lanes).reshape(shape) * stride
    else:
        addr = rng.integers(0, draw(st.sampled_from([64, 1024, 1 << 20])), shape)
    inactive = rng.random(shape) < draw(st.sampled_from([0.0, 0.25, 0.9]))
    if n_warps and draw(st.booleans()):
        inactive[rng.integers(n_warps)] = True
    addr = np.where(inactive, -rng.integers(1, 40, shape), addr)
    return addr.astype(np.int64), access_bytes


class TestWarpTransactions:
    def test_fully_coalesced_float_is_4_transactions(self, device):
        addr = strided_pattern(1, 4, device)
        assert warp_transactions(addr, device)[0] == 4  # 128 B / 32 B

    def test_stride_two_floats_doubles_transactions(self, device):
        addr = strided_pattern(1, 8, device)
        assert warp_transactions(addr, device)[0] == 8

    def test_large_stride_is_one_transaction_per_lane(self, device):
        addr = strided_pattern(1, 4096, device)
        assert warp_transactions(addr, device)[0] == 32

    def test_broadcast_is_single_transaction(self, device):
        addr = np.zeros((1, 32), dtype=np.int64)
        assert warp_transactions(addr, device)[0] == 1

    def test_inactive_lanes_ignored(self, device):
        addr = strided_pattern(1, 4, device)
        addr[0, 16:] = -1
        assert warp_transactions(addr, device)[0] == 2  # 64 B / 32 B

    def test_all_inactive_warp_is_zero(self, device):
        addr = np.full((1, 32), -1, dtype=np.int64)
        assert warp_transactions(addr, device)[0] == 0

    def test_misaligned_coalesced_access_costs_one_extra(self, device):
        addr = strided_pattern(1, 4, device, base=16)
        assert warp_transactions(addr, device)[0] == 5

    def test_straddling_float2_counts_both_segments(self, device):
        # One 8-byte access starting 4 bytes before a segment boundary.
        addr = np.full((1, 32), -1, dtype=np.int64)
        addr[0, 0] = 28
        assert warp_transactions(addr, device, access_bytes=8)[0] == 2

    def test_rejects_bad_shapes(self, device):
        with pytest.raises(ValueError):
            warp_transactions(np.zeros(32, dtype=np.int64), device)
        with pytest.raises(ValueError):
            warp_transactions(np.zeros((1, 64), dtype=np.int64), device)

    @given(stride=st.integers(min_value=1, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_transactions_bounded(self, stride):
        """1 <= transactions <= warp_size for any 4-byte pattern."""
        addr = strided_pattern(4, stride * 4, TITAN_BLACK)
        counts = warp_transactions(addr, TITAN_BLACK)
        assert (counts >= 1).all()
        assert (counts <= TITAN_BLACK.warp_size).all()

    @given(
        perm_seed=st.integers(min_value=0, max_value=2**31 - 1),
        stride=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, perm_seed, stride):
        """Transaction count depends on the address *set*, not lane order."""
        rng = np.random.default_rng(perm_seed)
        addr = strided_pattern(1, stride * 4, TITAN_BLACK)
        shuffled = addr.copy()
        rng.shuffle(shuffled[0])
        assert (
            warp_transactions(addr, TITAN_BLACK)[0]
            == warp_transactions(shuffled, TITAN_BLACK)[0]
        )

    @given(trace=warp_traces())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_reference(self, trace):
        """Both the aligned single-sort path and the straddle path count
        exactly each warp's touched segments."""
        addr, access_bytes = trace
        counts = warp_transactions(addr, TITAN_BLACK, access_bytes)
        seg = TITAN_BLACK.transaction_bytes
        assert counts.dtype == np.int64
        assert counts.tolist() == reference_transactions(addr, seg, access_bytes)
        report = analyze_warps(addr, TITAN_BLACK, access_bytes)
        assert report.transactions == int(counts.sum())
        assert report.useful_bytes == int((addr >= 0).sum()) * access_bytes

    def test_byte_accesses_count_each_segment_once(self, device):
        """One-byte accesses never straddle: four lanes in one segment are
        one transaction, not one per (first, last) byte."""
        addr = np.array([[0, 1, 2, 3]], dtype=np.int64)
        assert warp_transactions(addr, device, access_bytes=1)[0] == 1


class TestAnalyzeWarps:
    def test_report_efficiency_for_coalesced(self, device):
        rep = analyze_warps(strided_pattern(8, 4, device), device)
        assert rep.warps == 8
        assert rep.efficiency == pytest.approx(1.0)
        assert rep.overfetch == pytest.approx(1.0)

    def test_report_overfetch_for_strided(self, device):
        rep = analyze_warps(strided_pattern(8, 32, device), device)
        assert rep.overfetch == pytest.approx(8.0)

    def test_merge_adds_counters(self, device):
        a = analyze_warps(strided_pattern(2, 4, device), device)
        b = analyze_warps(strided_pattern(3, 8, device), device)
        merged = a.merged(b)
        assert merged.warps == 5
        assert merged.transactions == a.transactions + b.transactions

    def test_empty_pattern_requires_positive_warps(self, device):
        with pytest.raises(ValueError):
            strided_pattern(0, 4, device)
