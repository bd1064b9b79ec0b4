"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``.  One
run times ``IMPORT_PROBES`` fresh imports of the program and sets the
workload up ``SETUP_REPEATS`` times, then runs its op in a closed loop for
``--seconds`` (and at least ``MIN_OPS`` ops), checking every output.  Host
times are scaled to a reference machine speed (see ``perfbench/probe.py``).
Before the result it prints one ``report`` line (the run manifest, the error
rate and the unscaled times); the last line of standard output is the
result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) named in
``BENCHMARK.json``.  The exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.probe import REFERENCE_MS, probe_ms, speed_scale  # noqa: E402

#: enough ops that the 90th percentile has ten samples beyond it
MIN_OPS = 100
#: a run stops adding ops after this long even below MIN_OPS
MAX_LOOP_S = 120.0
SETUP_REPEATS = 3
#: fresh-interpreter imports per run; their median is ``setup.import_s``
IMPORT_PROBES = 7
#: ``import repro`` in a fresh interpreter, with numpy and scipy.fft timed
#: on their own first, bracketed by the machine-speed probe run in that
#: interpreter; prints the two probe times (ms) and the scipy.fft import (s)
IMPORT_PROBE = """
import time
from perfbench.probe import probe_ms
before = probe_ms()
import numpy
t0 = time.perf_counter()
import scipy.fft
t1 = time.perf_counter()
import repro
print(before, probe_ms(), t1 - t0)
"""


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


@dataclass
class Measurement:
    """Everything one run measured; op times are at reference speed."""

    op_ms: list[float] = field(default_factory=list)  # untraced ops
    traced_op_ms: list[float] = field(default_factory=list)
    raw_op_ms: list[float] = field(default_factory=list)  # untraced, unscaled
    raw_traced_op_ms: list[float] = field(default_factory=list)
    probes_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    cells: int = 0
    sim_ms: list[float] = field(default_factory=list)
    speedups: list[float] = field(default_factory=list)
    breakdowns: list[dict[str, float]] = field(default_factory=list)
    hits: int = 0  # session counters moved by traced ops
    misses: int = 0
    exec_delta: dict[str, float] = field(default_factory=dict)


def measure(
    workload: Any,
    prepared: Any,
    seed: int,
    seconds: float,
    trace: bool,
    min_ops: int = MIN_OPS,
    recorder: Any = None,
) -> Measurement:
    """Run ops in a closed loop until ``seconds`` have passed and at least
    ``min_ops`` and ``workload.sim_ops`` ops are done.  With ``trace`` every
    other op runs under ``recorder``'s wrappers."""
    from perfbench.layers import exec_counters

    m = Measurement()
    min_ops = max(min_ops, workload.sim_ops)
    inputs = workload.inputs(prepared, seed)
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if (m.attempted >= min_ops and elapsed >= seconds) or elapsed >= MAX_LOOP_S:
            break
        inp = next(inputs)
        traced = trace and m.attempted % 2 == 1
        counters = exec_counters() if traced else {}
        outcome, problems = None, []
        # wrappers go in and out outside the timed region
        with recorder.installed() if traced else contextlib.nullcontext():
            probe_before = probe_ms()
            t0 = time.perf_counter()
            try:
                outcome = workload.run(prepared, inp)
            except Exception:  # an op that raises is a failed op; keep measuring
                problems = [traceback.format_exc()]
            op_ms = (time.perf_counter() - t0) * 1e3
            probe_after = probe_ms()
        m.probes_ms += [probe_before, probe_after]
        scaled_ms = op_ms * speed_scale(probe_before, probe_after)
        if traced:
            m.traced_op_ms.append(scaled_ms)
            m.raw_traced_op_ms.append(op_ms)
        else:
            m.op_ms.append(scaled_ms)
            m.raw_op_ms.append(op_ms)
        m.attempted += 1
        if outcome is not None:
            m.cells += outcome.cells
            if traced:
                m.hits += outcome.hits
                m.misses += outcome.misses
                for name, value in exec_counters().items():
                    m.exec_delta[name] = m.exec_delta.get(name, 0.0) + value - counters[name]
            try:
                verdict = workload.check(prepared, inp, outcome)
            except Exception:
                problems = [traceback.format_exc()]
            else:
                problems = verdict.problems
                if m.attempted <= workload.sim_ops:
                    m.sim_ms += verdict.sim_ms
                    m.speedups += verdict.speedups
                    if verdict.breakdown:
                        m.breakdowns.append(verdict.breakdown)
        if problems:
            m.failed += 1
            print(f"perfbench: {workload.name} op {m.attempted} failed:", file=sys.stderr)
            for problem in problems[:5]:
                print(f"  {problem}", file=sys.stderr)
    if m.attempted < min_ops:
        print(
            f"perfbench: only {m.attempted} of {min_ops} ops in {MAX_LOOP_S:.0f} s",
            file=sys.stderr,
        )
    return m


def geomean(values: list[float]) -> float:
    if not values:
        return 0.0  # every op failed; the run is reported incorrect
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def _timed(fn: Any) -> tuple[Any, float, float]:
    """(result, wall seconds, wall seconds at reference speed) of ``fn()``."""
    before = probe_ms()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall, wall * speed_scale(before, probe_ms())


def _import_probe() -> tuple[float, float, float]:
    """(wall seconds, its scale to reference speed, scipy.fft import seconds)
    of one fresh interpreter importing repro.  The scale comes from the
    probes run inside that interpreter, next to the import."""
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)])),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    wall = time.perf_counter() - start
    before_ms, after_ms, fft_s = map(float, out.split())
    return wall, speed_scale(before_ms, after_ms), fft_s


def setup(workload: Any, seed: int) -> tuple[Any, dict[str, float]]:
    """Time ``IMPORT_PROBES`` fresh interpreters importing repro and set the
    workload up ``SETUP_REPEATS`` times (keeping the last).  ``import_s`` is
    the median wall time of a fresh interpreter importing repro,
    ``scipy_fft_s`` the median time of its ``scipy.fft`` import (the eager
    one under repro.layers.conv), ``prime_s`` the median workload set-up;
    ``raw_*`` are the unscaled medians."""
    imports, ffts, raw_imports = [], [], []
    for _ in range(IMPORT_PROBES):
        wall, scale, fft_s = _import_probe()
        imports.append(wall * scale)
        raw_imports.append(wall)
        ffts.append(fft_s * scale)
    primes, raw_primes, prepared = [], [], None
    for _ in range(SETUP_REPEATS):
        # one set-up alive at a time, so the previous one does not count
        # into peak_rss_mb
        prepared = None
        gc.collect()
        prepared, wall, scaled = _timed(lambda: workload.prepare(seed))
        primes.append(scaled)
        raw_primes.append(wall)
    med = statistics.median
    return prepared, {
        "import_s": med(imports),
        "scipy_fft_s": med(ffts),
        "prime_s": med(primes),
        "raw_import_s": med(raw_imports),
        "raw_prime_s": med(raw_primes),
    }


def fingerprint(*packages: str) -> str:
    """sha256 over the sources of the given ``src/repro`` subpackages."""
    digest = hashlib.sha256()
    for package in packages:
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a plain checkout; the model fingerprint identifies it
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def manifest(workload: Any, seed: int) -> dict[str, Any]:
    import numpy
    import scipy

    from repro.gpusim.batch import batched_eval_enabled
    from repro.gpusim.cache import fast_path_enabled, min_round_sets
    from perfbench.workloads import JOBS

    return {
        "git_sha": git_sha(),
        "model_fingerprint": fingerprint("gpusim", "layers"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "toggles": {
            "fast_path_enabled": fast_path_enabled(),
            "batched_eval_enabled": batched_eval_enabled(),
            "min_round_sets": min_round_sets(),
        },
        "jobs": JOBS,
        "seed": seed,
        "state": workload.state,
    }


def end_to_end(m: Measurement, setup_times: dict[str, float]) -> dict[str, tuple[float, str]]:
    busy_s = math.fsum(m.op_ms) / 1e3
    return {
        "setup_s": (setup_times["import_s"] + setup_times["prime_s"], "s"),
        "op_ms.p50": (statistics.median(m.op_ms), "ms"),
        "op_ms.p90": (p90(m.op_ms), "ms"),
        "ops_per_s": (len(m.op_ms) / busy_s, "1/s"),
        "cells_per_s": (m.cells / busy_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_ms_gm": (geomean(m.sim_ms), "sim-ms"),
        "sim_speedup_gm": (geomean(m.speedups), "x"),
    }


def per_layer(
    m: Measurement, recorder: Any, setup_times: dict[str, float]
) -> dict[str, tuple[float, str]]:
    from perfbench.layers import self_metric, span_metrics

    ops = max(1, len(m.traced_op_ms))
    out: dict[str, tuple[float, str]] = {}
    for metric in span_metrics():
        out[metric] = (recorder.total_s[metric] * 1e3 / ops, "ms/op")
        out[self_metric(metric)] = (recorder.self_s[metric] * 1e3 / ops, "ms/op")
    calls, counts, delta = recorder.calls, recorder.counts, m.exec_delta
    accesses = counts["l2.accesses"]
    queries = m.hits + m.misses
    memo = delta["exec.cache.hit"] + delta["exec.cache.miss"]
    eval_s = recorder.total_s["batch.eval_ms"]
    per_op = {
        "pool_trace.calls": calls["pool_trace.ms"],
        "l2.accesses": accesses,
        "coalescing.warps": counts["coalescing.warps"],
        "session.key_calls": calls["session.key_ms"],
        "session.run_calls": calls["session.run_ms"],
        "session.hits": m.hits,
        "session.misses": m.misses,
        "exec.cells": counts["exec.cells"],
        "exec.dedup": delta["exec.cache.dedup"],
        "batch.candidates": counts["batch.candidates"],
    }
    out.update({name: (value / ops, "count/op") for name, value in per_op.items()})
    out["l2.hit_rate"] = (counts["l2.hits"] / accesses if accesses else 0.0, "ratio")
    out["session.hit_ratio"] = (m.hits / queries if queries else 0.0, "ratio")
    out["exec.memo_hit_ratio"] = (delta["exec.cache.hit"] / memo if memo else 0.0, "ratio")
    out["batch.cand_per_s"] = (counts["batch.candidates"] / eval_s if eval_s else 0.0, "1/s")
    out["setup.import_s"] = (setup_times["import_s"], "s")
    out["setup.scipy_fft_s"] = (setup_times["scipy_fft_s"], "s")
    out["setup.prime_s"] = (setup_times["prime_s"], "s")
    for kind in ("conv", "pool", "softmax", "transform", "other"):
        value = statistics.fmean(b[kind] for b in m.breakdowns) if m.breakdowns else 0.0
        out[f"sim.{kind}_ms"] = (value, "sim-ms")
    count = statistics.fmean(b["transform_count"] for b in m.breakdowns) if m.breakdowns else 0.0
    out["sim.transform_count"] = (count, "count")
    # span times are unscaled wall time, so shares divide by the unscaled op
    out["bench.traced_op_ms"] = (statistics.fmean(m.raw_traced_op_ms), "ms")
    overhead = statistics.median(m.traced_op_ms) / statistics.median(m.op_ms) - 1
    out["bench.trace_overhead_pct"] = (overhead * 100, "%")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from perfbench.layers import Recorder
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    prepared, setup_times = setup(workload, args.seed)
    recorder = Recorder() if args.trace else None
    m = measure(workload, prepared, args.seed, args.seconds, bool(args.trace), recorder=recorder)

    if args.trace:
        metrics = per_layer(m, recorder, setup_times)
    else:
        metrics = end_to_end(m, setup_times)
    report = {
        "workload": workload.name,
        "manifest": manifest(workload, args.seed),
        "error_rate": m.failed / m.attempted,
        "untraced_ops": len(m.op_ms),
        "traced_ops": len(m.traced_op_ms),
        "setup": setup_times,
        "raw_op_ms.p50": statistics.median(m.raw_op_ms),
        "raw_op_ms.p90": p90(m.raw_op_ms),
        "probe_ms.p50": statistics.median(m.probes_ms),
        "reference_ms": REFERENCE_MS,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if m.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
