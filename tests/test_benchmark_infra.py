"""The benchmark harness's own infrastructure (figutil) and determinism."""

import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

from figutil import FigureTable, bench_arg_parser, geomean  # noqa: E402


class TestGeomean:
    def test_known_value(self):
        assert geomean([1, 4]) == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    @given(values=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_between_min_and_max(self, values):
        g = geomean(values)
        assert min(values) <= g * 1.0001
        assert g <= max(values) * 1.0001

    @given(
        values=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=10),
        scale=st.floats(0.1, 10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_scales_linearly(self, values, scale):
        assert geomean([v * scale for v in values]) == pytest.approx(
            geomean(values) * scale, rel=1e-6
        )


class TestFigureTable:
    def make(self):
        t = FigureTable("demo", ["name", "value"])
        t.add("a", 1.0)
        t.add("b", 2.0)
        return t

    def test_row_and_column_access(self):
        t = self.make()
        assert t.row("a") == ("a", 1.0)
        assert t.column("value") == [1.0, 2.0]

    def test_missing_row(self):
        with pytest.raises(KeyError):
            self.make().row("zzz")

    def test_width_mismatch_rejected(self):
        t = self.make()
        with pytest.raises(ValueError):
            t.add("c", 1.0, 2.0)

    def test_render_contains_everything(self):
        t = self.make()
        t.note("a note")
        text = t.render()
        assert "demo" in text and "a note" in text
        assert "1.000" in text and "b" in text


class TestJobsArgument:
    """``--jobs`` reaches every driver as a worker count (``auto`` once
    reached them as a string and crashed ``max(args.jobs, 1)``)."""

    CPUS = os.cpu_count() or 1

    @staticmethod
    def parse(*argv):
        return bench_arg_parser("demo").parse_args(list(argv)).jobs

    def test_auto_is_every_cpu(self):
        assert self.parse("--jobs", "auto") == self.CPUS

    def test_zero_and_default_are_serial(self):
        assert self.parse("--jobs", "0") == 1
        assert self.parse() == 1

    def test_number_is_clamped_to_the_cpu_count(self):
        assert self.parse("--jobs", "1") == 1
        assert self.parse("--jobs", str(self.CPUS + 7)) == self.CPUS

    def test_junk_is_rejected(self):
        with pytest.raises(SystemExit):
            self.parse("--jobs", "many")

    def test_simulator_perf_driver_accepts_auto(self, monkeypatch, tmp_path):
        import bench_simulator_perf as bench

        seen = {}

        def fake_end_to_end(device, jobs):
            seen["jobs"] = jobs
            return {"figure": "f", "jobs": jobs, "reference_s": 1.0,
                    "fast_s": 1.0, "speedup": 1.0}

        monkeypatch.setattr(bench, "run_micro", lambda device, n: {
            "trace_addresses": n, "reference_s": 1.0, "fast_s": 1.0,
            "speedup": 1.0, "hit_rate": 0.0})
        monkeypatch.setattr(bench, "run_end_to_end", fake_end_to_end)
        out = tmp_path / "sim.json"
        assert bench.main(["--jobs", "auto", "--output", str(out)]) == 0
        assert seen["jobs"] == self.CPUS

    def test_obs_overhead_driver_accepts_auto(self, monkeypatch, tmp_path):
        import bench_obs_overhead as bench

        seen = {}

        def fake_overhead(device, jobs, repeat):
            seen["jobs"] = jobs
            return {"jobs": jobs, "repeat": repeat, "untraced_s": 1.0,
                    "traced_s": 1.0, "overhead": 0.0, "spans_recorded": 0}

        monkeypatch.setattr(bench, "run_overhead", fake_overhead)
        out = tmp_path / "obs.json"
        assert bench.main(["--jobs", "auto", "--output", str(out)]) == 0
        assert seen["jobs"] == self.CPUS

    def test_planner_perf_driver_accepts_auto(self, monkeypatch, tmp_path):
        import bench_planner_perf as bench

        seen = {}

        spread = bench.round_spread([1.0, 1.0])

        def fake_end_to_end(device, jobs):
            seen["jobs"] = jobs
            return {"figures": ["f"], "jobs": jobs, "scalar_s": 1.0,
                    "batched_serial_s": 1.0, "serial_speedup": 1.0,
                    "serial_speedup_spread": spread,
                    "batched_s": 1.0, "warm_s": 1.0, "warm_speedup": 1.0}

        monkeypatch.setattr(bench, "run_micro", lambda device: {
            "candidates": 1, "scalar_cand_per_s": 1.0,
            "batched_cand_per_s": 1.0, "speedup": 1.0,
            "speedup_spread": spread})
        monkeypatch.setattr(bench, "run_end_to_end", fake_end_to_end)
        out = tmp_path / "planner.json"
        assert bench.main(["--jobs", "auto", "--output", str(out)]) == 0
        assert seen["jobs"] == self.CPUS


class TestDeterminism:
    def test_traced_kernels_are_deterministic(self, device):
        """Two independent engines must produce identical traced profiles
        (sampling is strided, never random)."""
        from repro.gpusim import SimulationEngine
        from repro.layers import make_pool_kernel
        from repro.networks import POOL_LAYERS

        spec = POOL_LAYERS["PL5"]
        a = SimulationEngine(device).run(make_pool_kernel(spec, "nchw-linear"))
        b = SimulationEngine(device).run(make_pool_kernel(spec, "nchw-linear"))
        assert a.time_ms == b.time_ms
        assert a.transactions == b.transactions

    def test_whole_network_timing_is_deterministic(self, device):
        from repro.baselines import time_network
        from repro.framework import Net
        from repro.networks import build_network

        net1 = Net(build_network("cifar"))
        net2 = Net(build_network("cifar"))
        t1 = time_network(net1, device, "opt").total_ms
        t2 = time_network(net2, device, "opt").total_ms
        assert t1 == t2

    def test_numeric_forward_is_seeded(self):
        from repro.framework import Net
        from repro.networks import build_network

        net = Net(build_network("lenet", batch=4))
        a = net.forward(net.make_input(seed=3), net.init_weights(seed=1))
        b = net.forward(net.make_input(seed=3), net.init_weights(seed=1))
        np.testing.assert_array_equal(a, b)


class TestAnnotationFuzz:
    @given(
        layout=st.sampled_from(["CHWN", "NCHW"]),
        impl=st.sampled_from(["direct", "im2col", "fft", "chwn-coarsened"]),
        coarsen=st.one_of(
            st.none(), st.tuples(st.integers(1, 8), st.integers(1, 8))
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_annotation_encode_parse_roundtrip(self, layout, impl, coarsen):
        from repro.framework import (
            LayerAnnotation,
            parse_annotated_netdef,
        )
        from repro.tensors import parse_layout

        ann = LayerAnnotation(
            layout=parse_layout(layout), implementation=impl, coarsening=coarsen
        )
        text = (
            "network f batch=2 input=1x8x8\n"
            "conv c1 co=2 f=3\n"
            f"#@ c1 {ann.encode()}\n"
        )
        _, parsed = parse_annotated_netdef(text)
        assert parsed["c1"] == ann
