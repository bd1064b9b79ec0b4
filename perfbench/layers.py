"""Traced run: spans around the public functions of each ``repro`` layer.

The spans are recorded by wrappers that live in the benchmark, not in the
program.  :meth:`Recorder.installed` rebinds each target function in every
loaded ``repro``/``perfbench`` module that holds it (and on its class, for a
method) and puts the originals back on exit, so an untraced op runs the
program's own functions and nothing else.

A span's total counts outermost calls only (a function re-entered under
itself is not counted twice); its self time is its duration minus the time
of the instrumented spans nested in it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NamedTuple

import repro.core.pipeline as pipeline
from repro.obs.metrics import global_registry

#: marks a wrapper, so :func:`wrapped_targets` can find one left installed
WRAPPED = "__perfbench_span__"

Count = Callable[["Recorder", tuple, Any], None]


def _count_l2(rec: "Recorder", args: tuple, hits: Any) -> None:
    rec.counts["l2.accesses"] += len(args[1])
    rec.counts["l2.hits"] += float(hits.sum())


def _count_warps(rec: "Recorder", args: tuple, result: Any) -> None:
    rec.counts["coalescing.warps"] += len(args[0])


def _count_models(key: str) -> Count:
    def count(rec: "Recorder", args: tuple, result: Any) -> None:
        rec.counts[key] += len(args[1])

    return count


class Target(NamedTuple):
    """One instrumented public function: the metric its span reports (the
    self-time metric is derived by :func:`self_metric`), module, attribute
    path (``func`` or ``Class.method``) and an optional work counter."""

    span: str
    module: str
    attr: str
    count: Count | None = None


def targets() -> list[Target]:
    """Every instrumented function, grouped by the layer (module) it lives in."""
    passes = [type(p).__name__ for p in pipeline.default_passes()]
    pooling = "repro.layers.pooling_kernels"
    return [
        Target("pool_trace.ms", pooling, "PoolingNCHWLinear.memory_profile"),
        Target("pool_trace.ms", pooling, "PoolingNCHWBlockPerRow.memory_profile"),
        Target(
            "l2.replay_ms", "repro.gpusim.cache", "SetAssociativeCache.access_stream", _count_l2
        ),
        Target("coalescing.ms", "repro.gpusim.coalescing", "analyze_warps", _count_warps),
        Target("trace.stream_ms", "repro.gpusim.trace", "transaction_stream"),
        Target("session.run_ms", "repro.gpusim.session", "SimulationContext.run"),
        Target("session.key_ms", "repro.gpusim.session", "structural_key"),
        Target("session.time_model_ms", "repro.gpusim.timing", "time_model"),
        Target(
            "exec.cells_ms", "repro.gpusim.exec", "evaluate_cells", _count_models("exec.cells")
        ),
        Target("exec.pool_ms", "repro.gpusim.exec", "map_chunks"),
        Target(
            "batch.eval_ms",
            "repro.gpusim.batch",
            "evaluate_models",
            _count_models("batch.candidates"),
        ),
        *(Target(f"pipeline.{name}.ms", "repro.core.pipeline", f"{name}.run") for name in passes),
        Target("pipeline.verify_ms", "repro.analysis.dataflow.contracts", "check_contracts"),
        Target("ir.lower_ms", "repro.ir.build", "lower_netdef"),
        Target("autotune.ms", "repro.core.autotune", "autotune_pooling"),
        Target("schemes.ms", "repro.baselines.schemes", "compare_schemes"),
        Target("sweeps.ms", "repro.analysis.sweeps", "sweep_conv"),
        Target("sweeps.ms", "repro.analysis.sweeps", "sweep_pool"),
        Target("calibrate.ms", "repro.core.calibration", "calibrate"),
    ]


def span_metrics() -> list[str]:
    """The span metrics, once each, in :func:`targets` order."""
    return list(dict.fromkeys(t.span for t in targets()))


def self_metric(metric: str) -> str:
    """``l2.replay_ms`` -> ``l2.replay_self_ms``; ``autotune.ms`` -> ``autotune.self_ms``."""
    return metric[: -len("ms")] + "self_ms"


def _bindings(fn: Any) -> list[tuple[Any, str]]:
    """(module, name) of every loaded repro/perfbench module global bound to
    ``fn``, so ``from x import fn`` copies are wrapped too."""
    return [
        (mod, name)
        for _, mod in _modules()
        for name, value in list(vars(mod).items())
        if value is fn
    ]


def _modules() -> list[tuple[str, Any]]:
    return [
        (name, mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and name.split(".")[0] in ("repro", "perfbench")
    ]


class Recorder:
    """Span totals, self times, call counts and work counts for traced ops."""

    def __init__(self) -> None:
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list[Any]] = []  # [span, seconds of nested spans]

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name, count = target.span, target.count
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            reentered = any(frame[0] == name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                if not reentered:
                    self.total_s[name] += elapsed
            if count is not None:
                count(self, args, result)
            return result

        setattr(wrapper, WRAPPED, name)
        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every target for the duration of the block."""
        undo: list[Callable[[], None]] = []
        try:
            for target in targets():
                module = importlib.import_module(target.module)
                owner_name, _, attr = target.attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    own = attr in vars(owner)
                    original = getattr(owner, attr)
                    setattr(owner, attr, self._wrap(target, original))
                    undo.append(
                        functools.partial(setattr, owner, attr, original)
                        if own
                        else functools.partial(delattr, owner, attr)
                    )
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(target, original)
                for mod, name in _bindings(original):
                    setattr(mod, name, wrapper)
                    undo.append(functools.partial(setattr, mod, name, original))
            yield
        finally:
            for step in reversed(undo):
                step()


def wrapped_targets() -> list[str]:
    """Module globals and class attributes currently bound to a benchmark
    wrapper (empty outside :meth:`Recorder.installed`)."""
    found = []
    for mod_name, mod in _modules():
        for name, value in list(vars(mod).items()):
            if isinstance(value, type) and value.__module__ == mod_name:
                found += [
                    f"{mod_name}.{name}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, WRAPPED)
                ]
            elif hasattr(value, WRAPPED):
                found.append(f"{mod_name}.{name}")
    return found


#: global-registry counters of the exec layer read around each traced op
EXEC_COUNTERS = ("exec.cache.hit", "exec.cache.miss", "exec.cache.dedup")


def exec_counters() -> dict[str, float]:
    registry = global_registry()
    return {name: registry.counter(name).value for name in EXEC_COUNTERS}
