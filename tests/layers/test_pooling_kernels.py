"""Pooling kernel models: Fig. 6 layout dominance, Fig. 12 coarsening."""

from math import ceil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.framework import resolve
from repro.gpusim import (
    TITAN_BLACK,
    TITAN_X,
    MemoryProfile,
    SetAssociativeCache,
    analyze_warps,
    default_context,
)
from repro.gpusim.trace import sample_indices, transaction_stream
from repro.layers import (
    PoolingCHWN,
    PoolingCoarsenedCHWN,
    PoolingNCHWBlockPerRow,
    PoolingNCHWLinear,
    PoolSpec,
    make_pool_kernel,
)
from repro.networks import NETWORK_BUILDERS, POOL_LAYERS, build_network
from tests.gpusim.test_coalescing import reference_transactions


def useful_bytes(spec):
    return spec.in_desc().nbytes + spec.out_desc().nbytes


class TestCHWN:
    def test_coalesced_loads(self, device):
        p = PoolingCHWN(POOL_LAYERS["PL5"]).memory_profile(device)
        assert p.load_transactions == pytest.approx(p.load_bytes / 32)

    def test_overlapped_layers_get_l2_credit(self, device):
        overlapped = PoolingCHWN(POOL_LAYERS["PL5"]).memory_profile(device)
        non_overlapped = PoolingCHWN(POOL_LAYERS["PL1"]).memory_profile(device)
        assert overlapped.l2_hit_rate > non_overlapped.l2_hit_rate

    def test_achieved_bandwidth_in_paper_zone(self, device):
        """Paper Fig. 6: cuda-convnet pooling reaches 132–205 GB/s."""
        for name in ("PL1", "PL3", "PL5", "PL7", "PL8"):
            spec = POOL_LAYERS[name]
            stats = default_context(device).run(PoolingCHWN(spec))
            bw = useful_bytes(spec) / (stats.time_ms * 1e6)
            assert 100 < bw < 235, f"{name}: {bw:.1f} GB/s"

    def test_profile_is_cached(self, device):
        k = PoolingCHWN(POOL_LAYERS["PL3"])
        assert k.memory_profile(device) is k.memory_profile(device)


class TestNCHWDominatedByCHWN:
    """Fig. 6: 'cuda-convnet significantly outperforms Caffe and cuDNN
    across the board'."""

    @pytest.mark.parametrize("name", sorted(POOL_LAYERS))
    def test_chwn_faster_than_both_nchw_kernels(self, device, name):
        spec = POOL_LAYERS[name]
        t_chwn = default_context(device).run(PoolingCHWN(spec)).time_ms
        t_caffe = default_context(device).run(PoolingNCHWLinear(spec)).time_ms
        t_cudnn = default_context(device).run(PoolingNCHWBlockPerRow(spec)).time_ms
        assert t_chwn < t_caffe
        assert t_chwn < t_cudnn

    def test_worst_case_speedup_magnitude(self, device):
        """Paper: 'with a speedup up to 16.3x' over NCHW libraries; our
        model's worst case lands lower (~6.5x) but well beyond the average."""
        worst = max(
            default_context(device).run(PoolingNCHWBlockPerRow(spec)).time_ms
            / default_context(device).run(PoolingCHWN(spec)).time_ms
            for spec in POOL_LAYERS.values()
        )
        assert 4 < worst < 30

    def test_nchw_bandwidth_in_paper_zone(self, device):
        """Paper: Caffe avg 52.3 GB/s, cuDNN avg 41.9 GB/s."""
        bws = []
        for spec in POOL_LAYERS.values():
            stats = default_context(device).run(PoolingNCHWLinear(spec))
            bws.append(useful_bytes(spec) / (stats.time_ms * 1e6))
        avg = sum(bws) / len(bws)
        assert 30 < avg < 90

    def test_caffe_mask_store_traffic(self, device):
        spec = POOL_LAYERS["PL5"]
        p = PoolingNCHWLinear(spec).memory_profile(device)
        assert p.store_bytes == pytest.approx(2 * spec.out_desc().nbytes)


class TestCoarsening:
    def test_reduces_load_traffic_for_overlapped(self, device):
        spec = POOL_LAYERS["PL5"]  # 3x3 stride 2
        plain = PoolingCHWN(spec).memory_profile(device)
        coarse = PoolingCoarsenedCHWN(spec, 2, 2).memory_profile(device)
        assert coarse.load_bytes < plain.load_bytes

    def test_no_traffic_win_for_non_overlapped(self, device):
        spec = POOL_LAYERS["PL1"]  # 2x2 stride 2
        plain = PoolingCHWN(spec).memory_profile(device)
        coarse = PoolingCoarsenedCHWN(spec, 2, 2).memory_profile(device)
        assert coarse.load_bytes >= plain.load_bytes * 0.99

    def test_register_pressure_grows_with_tile(self, device):
        spec = POOL_LAYERS["PL5"]
        small = PoolingCoarsenedCHWN(spec, 2, 2).launch_config(device)
        big = PoolingCoarsenedCHWN(spec, 6, 6).launch_config(device)
        assert big.regs_per_thread > small.regs_per_thread

    def test_overlapped_speedup_in_paper_zone(self, device):
        """Fig. 12: 'improve the state-of-the-art performance by an average
        of 14.3%' on overlapped layers."""
        gains = []
        for name in ("PL3", "PL5", "PL6", "PL7", "PL8", "PL9", "PL10"):
            spec = POOL_LAYERS[name]
            t_plain = default_context(device).run(PoolingCHWN(spec)).time_ms
            t_coarse = default_context(device).run(PoolingCoarsenedCHWN(spec, 2, 2)).time_ms
            gains.append(t_plain / t_coarse - 1)
        avg_gain = sum(gains) / len(gains)
        assert 0.05 < avg_gain < 0.40

    def test_invalid_factors(self):
        with pytest.raises(ValueError):
            PoolingCoarsenedCHWN(POOL_LAYERS["PL1"], 0, 2)


class TestFactory:
    @pytest.mark.parametrize(
        "impl,cls",
        [
            ("chwn", PoolingCHWN),
            ("chwn-coarsened", PoolingCoarsenedCHWN),
            ("nchw-linear", PoolingNCHWLinear),
            ("nchw-rowblock", PoolingNCHWBlockPerRow),
        ],
    )
    def test_dispatch(self, impl, cls):
        assert isinstance(make_pool_kernel(POOL_LAYERS["PL3"], impl), cls)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_pool_kernel(POOL_LAYERS["PL3"], "nhwc")

    def test_coarsen_factors_forwarded(self):
        k = make_pool_kernel(POOL_LAYERS["PL3"], "chwn-coarsened", coarsen=(3, 2))
        assert (k.ux, k.uy) == (3, 2)


class TestTracedL2Diagnostic:
    """The traced NCHW kernels replay their post-coalescing transaction
    stream through the L2 model and report the hit rate as a diagnostic;
    it does not feed the timing equations (the analytic ``l2_hit_rate``
    does), so the figures are unchanged by it."""

    @pytest.mark.parametrize("impl", ["nchw-linear", "nchw-rowblock"])
    def test_present_and_bounded_for_traced_kernels(self, device, impl):
        p = make_pool_kernel(POOL_LAYERS["PL3"], impl).memory_profile(device)
        assert p.traced_l2_hit_rate is not None
        assert 0.0 <= p.traced_l2_hit_rate <= 1.0

    def test_absent_for_analytic_chwn(self, device):
        p = PoolingCHWN(POOL_LAYERS["PL3"]).memory_profile(device)
        assert p.traced_l2_hit_rate is None

    def test_deterministic_across_instances(self, device):
        a = PoolingNCHWLinear(POOL_LAYERS["PL5"]).memory_profile(device)
        b = PoolingNCHWLinear(POOL_LAYERS["PL5"]).memory_profile(device)
        assert a.traced_l2_hit_rate == b.traced_l2_hit_rate

    def test_line_reuse_shows_up_on_small_maps(self, device):
        """PL5's small maps fit the L2, so window overlap and intra-line
        sharing must register as a substantial traced hit rate."""
        p = PoolingNCHWLinear(POOL_LAYERS["PL5"]).memory_profile(device)
        assert p.traced_l2_hit_rate > 0.3


def _reference_trace(kernel, device):
    """Scalar rebuild of a traced NCHW kernel's sampled load trace: one
    warp instruction per window tap, taps in row-major order, inactive
    lanes at -1.  Returns (trace rows, grid warps, sampled warps)."""
    s, warp = kernel.spec, device.warp_size
    plane = s.out_h * s.out_w
    if isinstance(kernel, PoolingNCHWBlockPerRow):
        padded = ceil(plane / warp) * warp
        total = s.n * s.c * padded
    else:
        total = s.out_elements
    n_warps = ceil(total / warp)
    sampled = sample_indices(n_warps, kernel.max_sample_warps).tolist()
    rows = []
    for fy in range(s.window):
        for fx in range(s.window):
            for w in sampled:
                row = []
                for t in range(w * warp, (w + 1) * warp):
                    if isinstance(kernel, PoolingNCHWBlockPerRow):
                        fmap, p = divmod(t, padded)
                        active = p < plane
                    else:
                        fmap, p = divmod(t, plane)
                        active = t < total
                    ho, wo = divmod(p, s.out_w)
                    hi = min(ho * s.stride + fy, s.h - 1)
                    wi = min(wo * s.stride + fx, s.w - 1)
                    row.append(((fmap * s.h + hi) * s.w + wi) * 4 if active else -1)
                rows.append(row)
    return rows, n_warps, len(sampled)


def _reference_stream(rows, segment_bytes, cap):
    """Each warp's distinct segments, ascending, in warp order; whole warps
    up to the one whose transactions first reach ``cap``."""
    stream = []
    for row in rows:
        if len(stream) >= cap:
            break
        stream.extend(sorted({a // segment_bytes for a in row if a >= 0}))
    return np.array(stream, dtype=np.int64) * segment_bytes


@st.composite
def small_pool_specs(draw):
    window = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    return PoolSpec(
        n=draw(st.integers(1, 2)),
        c=draw(st.integers(1, 4)),
        h=draw(st.integers(window, window + 10)),
        w=draw(st.integers(window, window + 10)),
        window=window,
        stride=stride,
    )


class TestTracedProfileEquivalence:
    """The traced NCHW profile (vectorized address generation, coalescing
    and L2 replay) equals a scalar rebuild of the same trace priced by the
    scalar coalescing reference and ``reference_access_stream``."""

    @given(
        spec=small_pool_specs(),
        cls=st.sampled_from([PoolingNCHWLinear, PoolingNCHWBlockPerRow]),
        device=st.sampled_from([TITAN_BLACK, TITAN_X]),
        max_sample_warps=st.sampled_from([512, 5]),
        max_l2_transactions=st.sampled_from([200_000, 40]),
    )
    # ceil-mode overhang in both dims, on a 4x4 output plane (under a warp)
    @example(PoolSpec(2, 3, 8, 8, 3, 2), PoolingNCHWBlockPerRow, TITAN_X, 512, 200_000)
    @example(PoolSpec(2, 3, 8, 8, 3, 2), PoolingNCHWLinear, TITAN_BLACK, 5, 40)
    @settings(max_examples=40, deadline=None)
    def test_profile_matches_scalar_reference(
        self, spec, cls, device, max_sample_warps, max_l2_transactions
    ):
        kernel = cls(spec)
        kernel.max_sample_warps = max_sample_warps
        kernel.max_l2_transactions = max_l2_transactions
        profile = kernel.memory_profile(device)

        rows, n_warps, n_sampled = _reference_trace(kernel, device)
        seg = device.transaction_bytes
        transactions = sum(reference_transactions(rows, seg, 4))
        assert profile.load_transactions == transactions * (n_warps / n_sampled)

        stream = _reference_stream(rows, seg, max_l2_transactions)
        l2 = SetAssociativeCache.l2_for(device, fast_path=False)
        hits = l2.reference_access_stream(stream)
        expected = float(hits.mean()) if stream.size else 0.0
        assert profile.traced_l2_hit_rate == expected


def _three_call_profile(kernel, device):
    """The traced profile as three separate passes build it: coalescing by
    ``analyze_warps``, the stream by ``transaction_stream`` (first segments
    only), and the hit rate by a fresh L2's set-partitioned replay, which
    does not special-case an empty cache."""
    s = kernel.spec
    stacked, n_warps, n_sampled = kernel._stacked_loads(device)
    report = analyze_warps(stacked, device, access_bytes=4)
    stream = transaction_stream(
        stacked, device.transaction_bytes, kernel.max_l2_transactions
    )
    hit = 0.0
    if stream.size:
        l2 = SetAssociativeCache.l2_for(device)
        hit = float(l2._fast_replay(stream)[0].mean())
    stores = float(s.out_desc().nbytes) * (2.0 if kernel.writes_mask else 1.0)
    return MemoryProfile(
        load_bytes=float(s.out_elements * s.window * s.window * 4),
        store_bytes=stores,
        load_transactions=report.transactions * (n_warps / n_sampled),
        store_transactions=stores / 32.0,
        l2_hit_rate=0.0,
        traced_l2_hit_rate=hit,
    )


def _pool_specs(source):
    if source == "table1":
        return set(POOL_LAYERS.values())
    return {
        layer.spec
        for batch in (16, 32, 64, 128, 256)
        for layer in resolve(build_network(source, batch))
        if isinstance(layer.spec, PoolSpec)
    }


class TestTracedProfileGolden:
    """Every pool shape the networks produce at five batch sizes, and Table
    1's, on both devices and both NCHW kernels: the traced profile, priced
    by the empty-cache replay, equals the three-pass build byte for byte."""

    @pytest.mark.parametrize("source", [*NETWORK_BUILDERS, "table1"])
    def test_profiles_match_three_pass_build(self, source):
        specs = _pool_specs(source)
        assert specs
        for spec in sorted(specs, key=repr):
            for device in (TITAN_BLACK, TITAN_X):
                for cls in (PoolingNCHWLinear, PoolingNCHWBlockPerRow):
                    got = cls(spec).memory_profile(device)
                    want = _three_call_profile(cls(spec), device)
                    assert repr(got) == repr(want), (spec, device.name, cls.__name__)
