"""Network-level layout planning (Section IV.D).

The planner assigns a storage layout to every conv/pool layer, inserting
layout transformations where consecutive layers disagree, and weighing each
transform's cost against the layout's benefit — the paper's "one-time
profiling can be applied to fine tune the data layout settings
automatically".

Three planners are provided:

* :func:`plan_single_layout` — the whole network in one fixed layout (the
  existing libraries' behaviour);
* :func:`plan_with_heuristic` — apply the (Ct, Nt) rules per layer, then
  drop any transform whose cost exceeds the layout benefit it enables
  (the paper's fine-tuning step, e.g. keeping CV5/CV9 in the surrounding
  layout because their preference is worth less than the transpose).
* :func:`plan_optimal` — dynamic programming over the layer chain, the
  exhaustive version of the same trade-off.  Used in tests to prove the
  heuristic plan is near-optimal and in the ``Opt`` whole-network scheme.

All three are thin wrappers over the pass pipeline
(``repro.core.pipeline``), which generalizes the same algorithms from
chains to DAGs; prefer :func:`repro.core.pipeline.run_pipeline` in new
code.  This module owns the chain input (:class:`PlanNode`) and the plan
IR (:class:`LayoutPlan`/:class:`PlanStep`) the pipeline lowers to.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpusim.device import DeviceSpec
from ..gpusim.session import SimulationContext
from ..ir.graph import NodeKind
from ..tensors.layout import CHWN, NCHW, DataLayout
from .heuristic import LayoutThresholds

PLAN_LAYOUTS: tuple[DataLayout, ...] = (CHWN, NCHW)

# NodeKind now lives in the IR (repro.ir.graph), which adds the CONCAT
# member for DAG joins; imported above and re-exported for compatibility.


@dataclass(frozen=True)
class PlanNode:
    """One layer as the planner sees it."""

    name: str
    kind: NodeKind
    spec: object | None = None  # ConvSpec | PoolSpec | SoftmaxSpec | None
    #: fixed per-layer time for kinds whose cost does not depend on layout
    fixed_ms: float = 0.0
    #: logical input tensor dims (N, C, H, W) — what a transform would move
    in_dims: tuple[int, int, int, int] | None = None


@dataclass(frozen=True)
class PlanStep:
    """Planner output for one layer."""

    name: str
    kind: NodeKind
    layout: DataLayout | None
    implementation: str
    layer_ms: float
    transform_ms: float = 0.0
    coarsening: tuple[int, int] | None = None
    #: producer layout this step transforms away from (None when the input
    #: already arrives in this step's layout) — makes the plan IR
    #: self-describing for the static analyzer
    transformed_from: DataLayout | None = None
    #: layout the transform produces.  Matters for layout-agnostic steps
    #: (LRN, elementwise) whose own ``layout`` is masked to None but which
    #: can still host a boundary transform on the way to the next layer
    transformed_to: DataLayout | None = None

    @property
    def total_ms(self) -> float:
        return self.layer_ms + self.transform_ms


@dataclass(frozen=True)
class LayoutPlan:
    """A complete layout assignment for a network."""

    steps: tuple[PlanStep, ...]
    device: str
    strategy: str

    @property
    def total_ms(self) -> float:
        return sum(s.total_ms for s in self.steps)

    @property
    def transform_count(self) -> int:
        return sum(1 for s in self.steps if s.transform_ms > 0)

    @property
    def transform_ms(self) -> float:
        return sum(s.transform_ms for s in self.steps)

    def layout_steps(self) -> tuple[PlanStep, ...]:
        """The layout-bearing (conv/pool) steps, in execution order."""
        return tuple(s for s in self.steps if s.layout is not None)

    def summary(self) -> str:
        lines = [f"plan[{self.strategy}] on {self.device}: {self.total_ms:.3f} ms"]
        for s in self.steps:
            layout = str(s.layout) if s.layout else "-"
            extra = f" (+transform {s.transform_ms:.3f} ms)" if s.transform_ms else ""
            lines.append(
                f"  {s.name:12s} {s.kind.value:12s} {layout:5s} "
                f"{s.implementation:16s} {s.layer_ms:8.3f} ms{extra}"
            )
        return "\n".join(lines)


def _plan_chain(
    device: DeviceSpec,
    nodes: list[PlanNode],
    context: SimulationContext | None,
    **fields: object,
) -> LayoutPlan:
    """Lower a chain to the graph IR and plan it with the pass pipeline
    under ``PipelineOptions(**fields)``."""
    from ..ir.build import graph_from_plan_nodes
    from .pipeline import PipelineOptions, run_pipeline

    options = PipelineOptions(**fields)  # type: ignore[arg-type]
    graph = graph_from_plan_nodes(list(nodes))
    return run_pipeline(device, graph, options, context=context).plan


def plan_single_layout(
    device: DeviceSpec,
    nodes: list[PlanNode],
    layout: DataLayout,
    tune_pooling: bool = False,
    allow_fft: bool = True,
    context: SimulationContext | None = None,
) -> LayoutPlan:
    """Cost of running the whole network in one fixed layout (the existing
    libraries' behaviour), planned as ``single-<layout>``.

    Wrapper over the pass pipeline's ``single`` strategy.
    """
    return _plan_chain(
        device,
        nodes,
        context,
        strategy="single",
        single_layout=layout,
        tune_pooling=tune_pooling,
        allow_fft=allow_fft,
    )


def plan_with_heuristic(
    device: DeviceSpec,
    nodes: list[PlanNode],
    thresholds: LayoutThresholds | None = None,
    tune_pooling: bool = True,
    allow_fft: bool = True,
    context: SimulationContext | None = None,
) -> LayoutPlan:
    """The paper's mechanism: per-layer (Ct, Nt) rules + transform-cost
    fine-tuning.

    After the per-layer preferences are set, each *maximal run* of layers
    whose preference differs from its surroundings is kept only if its
    benefit exceeds the two transforms it would cost (this is what keeps
    tiny first-layer convolutions like CV9 in the surrounding layout).

    Wrapper over the pass pipeline (``AssignLayouts`` runs the fine-tune
    on chains).  Prefer :func:`repro.core.pipeline.run_pipeline` in new
    code.
    """
    return _plan_chain(
        device,
        nodes,
        context,
        strategy="heuristic",
        thresholds=thresholds,
        tune_pooling=tune_pooling,
        allow_fft=allow_fft,
    )


def plan_optimal(
    device: DeviceSpec,
    nodes: list[PlanNode],
    tune_pooling: bool = True,
    allow_fft: bool = True,
    layouts: tuple[DataLayout, ...] = PLAN_LAYOUTS,
    context: SimulationContext | None = None,
) -> LayoutPlan:
    """Dynamic program over (layer, layout) states — minimal total time
    including transforms.

    ``layouts`` widens the search space beyond the default {CHWN, NCHW}
    pair (e.g. to include NHWC); every candidate layout needs a registered
    convolution implementation family.

    Wrapper over the pass pipeline (``AssignLayouts`` runs the DP on
    chains and generalizes it to DAGs).  Prefer
    :func:`repro.core.pipeline.run_pipeline` in new code.
    """
    if not layouts:
        raise ValueError("need at least one candidate layout")
    return _plan_chain(
        device,
        nodes,
        context,
        strategy="optimal",
        tune_pooling=tune_pooling,
        allow_fft=allow_fft,
        layouts=tuple(layouts),
    )
