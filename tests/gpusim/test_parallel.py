"""Parallel grid execution: ``--jobs`` resolution and determinism.

The contract of :func:`repro.gpusim.exec.map_chunks` is that ``--jobs N``
is purely a wall-clock knob: everything derived from a grid (sweep grids,
calibration thresholds, tuned factors, CLI output) is byte-identical to a
serial run.  Chunking, order and cache merge-back of the pool itself are
covered in ``test_exec.py``.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.analysis.sweeps import sweep_conv, sweep_pool
from repro.cli import main
from repro.core.autotune import autotune_pooling, autotune_pooling_many
from repro.core.calibration import calibrate
from repro.gpusim import SimStats, SimulationContext, resolve_jobs, shutdown_pool
from repro.obs.metrics import global_registry


class TestResolveJobs:
    @pytest.fixture(autouse=True)
    def _eight_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

    @pytest.mark.parametrize("jobs,expected", [(None, 1), (0, 1), (1, 1), (3, 3)])
    def test_explicit(self, jobs, expected):
        assert resolve_jobs(jobs) == expected

    def test_negative_means_all_cpus(self):
        assert resolve_jobs(-1) == 8

    def test_auto_means_all_cpus(self):
        assert resolve_jobs("auto") == 8
        assert resolve_jobs(" AUTO ") == 8

    def test_numeric_strings_accepted(self):
        assert resolve_jobs("3") == 3

    def test_oversubscription_clamps_and_warns(self):
        before = global_registry().value("exec.jobs.clamped") or 0
        assert resolve_jobs(64) == 8
        assert global_registry().value("exec.jobs.clamped") == before + 1

    def test_cpu_count_request_not_clamped(self):
        before = global_registry().value("exec.jobs.clamped") or 0
        assert resolve_jobs(8) == 8
        assert (global_registry().value("exec.jobs.clamped") or 0) == before


class TestJobsDeterminism:
    """jobs=N output equals jobs=1, value-for-value and byte-for-byte."""

    @pytest.fixture(autouse=True)
    def _four_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        yield
        shutdown_pool()

    def test_sweep_pool(self, device, small_pool):
        serial = sweep_pool(
            device, small_pool, "c", (4, 8, 16),
            context=SimulationContext(device, check_memory=False), jobs=1,
        )
        parallel = sweep_pool(
            device, small_pool, "c", (4, 8, 16),
            context=SimulationContext(device, check_memory=False), jobs=2,
        )
        assert serial == parallel

    def test_sweep_conv_with_unrunnable_cells(self, device, small_conv):
        # ci=1 is unsupported by im2col? regardless: any per-cell failure
        # must be encoded as a None point identically in both modes.
        values = (3, 16, 64)
        serial = sweep_conv(
            device, small_conv, "ci", values,
            context=SimulationContext(device), jobs=1,
        )
        parallel = sweep_conv(
            device, small_conv, "ci", values,
            context=SimulationContext(device), jobs=2,
        )
        assert serial == parallel

    def test_calibrate(self, device):
        serial = calibrate(device, context=SimulationContext(device), jobs=1)
        parallel = calibrate(device, context=SimulationContext(device), jobs=4)
        assert serial == parallel

    def test_autotune_many(self, device, small_pool):
        specs = [replace(small_pool, c=c) for c in (4, 8, 16)]
        serial = [autotune_pooling(device, s) for s in specs]
        parallel = autotune_pooling_many(
            device, specs, context=SimulationContext(device), jobs=2
        )
        assert serial == parallel

    def test_cli_sweep_stdout_byte_identical(self, capsys):
        args = ["sweep", "--layer", "CV7", "--dim", "n", "--values", "16,32,64"]
        assert main([*args, "--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main([*args, "--jobs", "4"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out


class TestSimStatsCounters:
    def test_merge_folds_new_counters(self):
        a, b = SimStats(), SimStats()
        b.record_miss("pool", 0.5, cache_calls=3, cache_s=0.2)
        b.merged_contexts = 2
        b.merged_entries = 7
        a.merge(b)
        assert a.cache_sim_calls == 3
        assert a.cache_sim_s == pytest.approx(0.2)
        assert a.merged_contexts == 2
        assert a.merged_entries == 7

    def test_summary_mentions_replays_and_workers(self):
        s = SimStats()
        s.record_miss("pool", 0.5, cache_calls=3, cache_s=0.2)
        s.merged_contexts = 1
        s.merged_entries = 4
        text = s.summary()
        assert "cache replays" in text
        assert "merged workers" in text

    def test_reset_clears_new_counters(self):
        s = SimStats()
        s.record_miss("pool", 0.5, cache_calls=3, cache_s=0.2)
        s.merged_contexts = 1
        s.reset()
        assert s.cache_sim_calls == 0
        assert s.cache_sim_s == 0.0
        assert s.merged_contexts == 0
        assert s.merged_entries == 0
