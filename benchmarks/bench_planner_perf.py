"""Batched candidate-evaluator performance: vectorized analytic models.

Two measurements, both checked for bit-identical results before any timing
is reported:

* **micro** — a sweep-shaped candidate grid (direct CHWN + im2col NCHW
  convolutions plus the three Fig. 6 pooling layouts, across batch and
  channel axes) evaluated one ``context.run`` call at a time vs one
  ``evaluate_models`` call, seven interleaved timed passes each (fresh
  context per pass, so the scalar structural cache never warms); every
  :class:`KernelStats` field must match exactly, and the median of the
  seven paired scalar/batched round ratios must clear 5x (the ``--check``
  gate);
* **end-to-end** — the Fig. 4 sensitivity grid and the Fig. 6 pooling
  figure built with batching off (serial scalar evaluation) vs through
  the sweep execution engine: memoized-serial (fresh contexts), the warm
  worker pool at ``--jobs``, and a warm shared-context rebuild (the
  steady state of a long-lived session).  Rendered tables are compared
  byte for byte across every mode, and the scalar/serial passes are
  interleaved over rounds and gated on the median round ratio, like the
  micro benchmark.

Both gates hold on the *typical* round, not the best one: each prints
the median paired ratio with its interquartile range and the best round
next to it.  Emits ``BENCH_planner.json`` (CI uploads it as an
artifact); with ``--check`` the exit status is nonzero on a sub-5x median
micro speedup *or* an end-to-end memoized-serial median round slower
than the scalar path.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import replace

from figutil import bench_arg_parser

import bench_fig04_sensitivity as fig04
import bench_fig06_pooling_layouts as fig06

from repro.gpusim import SimulationContext, TITAN_BLACK
from repro.gpusim.batch import evaluate_models, set_batched_eval
from repro.gpusim.exec import resolve_jobs, shutdown_pool
from repro.layers import DirectConvCHWN, Im2colGemmNCHW, make_pool_kernel
from repro.layers.base import PoolSpec
from repro.networks import CONV_LAYERS

MICRO_N = (1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512)
MICRO_C = (3, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256)
POOL_IMPLS = ("chwn", "nchw-linear", "nchw-rowblock")
MICRO_REPEATS = 7
SPEEDUP_GATE = 5.0
E2E_REPEATS = 5
#: memoized-serial must at least match the scalar path end to end
E2E_GATE = 1.0


def round_spread(rounds: list[float]) -> dict:
    """Median, interquartile range and best of paired round ratios."""
    q1, median, q3 = statistics.quantiles(rounds, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "best": max(rounds)}


def _fmt_spread(spread: dict, digits: int) -> str:
    return (
        f"median {spread['median']:.{digits}f}x "
        f"(IQR {spread['q1']:.{digits}f}-{spread['q3']:.{digits}f}x, "
        f"best {spread['best']:.{digits}f}x)"
    )


def micro_models():
    """Distinct candidates shaped like the two bundled sweeps: the Fig. 4
    convolution-layout grid and the Fig. 6 pooling-layout grid, crossed
    over batch and channel axes (no repeated shapes, so the scalar path's
    structural cache never shortcuts an evaluation)."""
    base = CONV_LAYERS["CV7"]
    pool = PoolSpec(n=128, c=96, h=55, w=55, window=3, stride=2)
    models = []
    for n in MICRO_N:
        for c in MICRO_C:
            spec = replace(base, n=n, ci=c)
            models.append(DirectConvCHWN(spec))
            models.append(Im2colGemmNCHW(spec))
            pspec = replace(pool, n=n, c=c)
            for impl in POOL_IMPLS:
                models.append(make_pool_kernel(pspec, impl))
    return models


def run_micro(device) -> dict:
    models = micro_models()

    def scalar_pass():
        ctx = SimulationContext(device, check_memory=False)
        return [ctx.run(m, check_memory=False) for m in models]

    def batched_pass():
        ctx = SimulationContext(device, check_memory=False)
        return evaluate_models(ctx, models, check_memory=False)

    # One untimed pass per side first: the process-global warmup (lazy
    # imports, memoized trace replays for traced kernels) lands on neither
    # timed side, and the pair doubles as the bit-identity check.  Then
    # interleave the timed passes (scalar, batched, scalar, ...) so a
    # noisy stretch of machine time degrades both sides of a round alike,
    # and gate on the median paired ratio — the typical round, not the
    # luckiest one.  Every pass builds its own context — the scalar
    # structural cache never warms across repeats.
    scalar = scalar_pass()
    batched = batched_pass()
    scalar_s = batched_s = float("inf")
    rounds = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        scalar_pass()
        round_scalar_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        batched_pass()
        round_batched_s = time.perf_counter() - t0
        rounds.append(round_scalar_s / round_batched_s)
        scalar_s = min(scalar_s, round_scalar_s)
        batched_s = min(batched_s, round_batched_s)
    spread = round_spread(rounds)

    for i, (ref, out) in enumerate(zip(scalar, batched)):
        if isinstance(out, Exception):
            raise AssertionError(f"candidate {i} failed in the batch: {out!r}")
        if out != ref:
            raise AssertionError(
                f"candidate {i} ({models[i].name}) differs:\n"
                f"  scalar  {ref}\n  batched {out}"
            )

    n = len(models)
    return {
        "candidates": n,
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "scalar_cand_per_s": n / scalar_s if scalar_s else float("inf"),
        "batched_cand_per_s": n / batched_s if batched_s else float("inf"),
        "round_speedups": rounds,
        "speedup": spread["median"],
        "speedup_spread": spread,
    }


def _figure_renders(
    device,
    jobs,
    contexts: tuple[SimulationContext, SimulationContext] | None = None,
) -> list[str]:
    """Render the Fig. 4 + Fig. 6 tables; fresh contexts unless given."""
    ctx4, ctx6 = contexts or (
        SimulationContext(device, check_memory=False),
        SimulationContext(device, check_memory=False),
    )
    tables = []
    for table in fig04.build_figure(device, jobs=jobs, context=ctx4):
        tables.append(table.render())
    tables.append(fig06.build_figure(device, jobs=jobs, context=ctx6).render())
    return tables


def run_end_to_end(device, jobs) -> dict:
    jobs_n = resolve_jobs(jobs)

    def scalar_pass():
        prev = set_batched_eval(False)
        try:
            return _figure_renders(device, jobs=1)
        finally:
            set_batched_eval(prev)

    def serial_pass():
        return _figure_renders(device, jobs=1)

    # One untimed pass per mode first: process-global warmup (lazy imports,
    # the worker pool spawn for the --jobs mode) lands on no timed side,
    # and the set doubles as the byte-identity check across all modes.
    ref_tables = scalar_pass()
    serial_tables = serial_pass()
    pool_tables = _figure_renders(device, jobs=jobs)
    if ref_tables != serial_tables or ref_tables != pool_tables:
        raise AssertionError("batched figures differ from the scalar reference")

    # Interleave scalar/memoized-serial timed rounds and gate on the
    # median paired ratio.  Every pass builds fresh contexts — neither
    # side warms across repeats.
    scalar_s = serial_s = float("inf")
    rounds = []
    for _ in range(E2E_REPEATS):
        t0 = time.perf_counter()
        scalar_pass()
        round_scalar_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        serial_pass()
        round_serial_s = time.perf_counter() - t0
        rounds.append(round_scalar_s / round_serial_s)
        scalar_s = min(scalar_s, round_scalar_s)
        serial_s = min(serial_s, round_serial_s)
    serial_spread = round_spread(rounds)

    # Warm-pool pass (the pool itself was spawned by the untimed pass).
    t0 = time.perf_counter()
    _figure_renders(device, jobs=jobs)
    pool_s = time.perf_counter() - t0

    # Warm shared-context rebuild: the steady state of a long session
    # re-sweeping shapes it has already priced — every cell a memo hit.
    contexts = (
        SimulationContext(device, check_memory=False),
        SimulationContext(device, check_memory=False),
    )
    warm_tables = _figure_renders(device, jobs=1, contexts=contexts)
    t0 = time.perf_counter()
    warm_again = _figure_renders(device, jobs=1, contexts=contexts)
    warm_s = time.perf_counter() - t0
    if warm_tables != ref_tables or warm_again != ref_tables:
        raise AssertionError("warm-context figures differ from the scalar reference")

    return {
        "figures": ["fig04_sensitivity", "fig06_pooling_layouts"],
        "jobs_requested": jobs,
        "jobs": jobs_n,
        "scalar_s": scalar_s,
        "batched_serial_s": serial_s,
        "batched_s": pool_s,
        "warm_s": warm_s,
        "round_serial_speedups": rounds,
        "serial_speedup": serial_spread["median"],
        "serial_speedup_spread": serial_spread,
        "speedup": scalar_s / pool_s if pool_s else float("inf"),
        "warm_speedup": scalar_s / warm_s if warm_s else float("inf"),
        "identical": True,
    }


def main(argv=None) -> int:
    parser = bench_arg_parser(__doc__)
    parser.add_argument(
        "--output",
        default="BENCH_planner.json",
        help="where to write the results JSON",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit nonzero if the median batched micro speedup is below "
        f"{SPEEDUP_GATE}x or the median end-to-end memoized-serial round "
        f"is slower than the scalar path (below {E2E_GATE}x)",
    )
    parser.add_argument(
        "--skip-end-to-end",
        action="store_true",
        help="only run the candidate-grid micro-benchmark",
    )
    args = parser.parse_args(argv)

    results = {
        "cpu_count": os.cpu_count(),
        "speedup_gate": SPEEDUP_GATE,
        "micro": run_micro(TITAN_BLACK),
    }
    m = results["micro"]
    print(
        f"micro ({m['candidates']} candidates): "
        f"scalar {m['scalar_cand_per_s']:.0f}/s, "
        f"batched {m['batched_cand_per_s']:.0f}/s -> "
        f"{_fmt_spread(m['speedup_spread'], 1)}, stats identical"
    )

    if not args.skip_end_to_end:
        try:
            results["end_to_end"] = run_end_to_end(TITAN_BLACK, args.jobs)
        finally:
            shutdown_pool()
        e = results["end_to_end"]
        print(
            f"end-to-end ({', '.join(e['figures'])}): "
            f"scalar {e['scalar_s']:.3f}s, memoized serial "
            f"{e['batched_serial_s']:.3f}s "
            f"({_fmt_spread(e['serial_speedup_spread'], 2)}), "
            f"warm pool --jobs {e['jobs']} {e['batched_s']:.3f}s, "
            f"warm context {e['warm_s']:.3f}s ({e['warm_speedup']:.1f}x), "
            f"tables identical"
        )

    with open(args.output, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(f"wrote {args.output}")

    failed = False
    if args.check and results["micro"]["speedup"] < SPEEDUP_GATE:
        print(
            f"CHECK FAILED: batched evaluator's median round only "
            f"{results['micro']['speedup']:.1f}x the scalar path "
            f"(gate: {SPEEDUP_GATE}x)"
        )
        failed = True
    if (
        args.check
        and "end_to_end" in results
        and results["end_to_end"]["serial_speedup"] < E2E_GATE
    ):
        print(
            f"CHECK FAILED: end-to-end memoized-serial median round only "
            f"{results['end_to_end']['serial_speedup']:.2f}x the scalar "
            f"path (gate: {E2E_GATE}x)"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
