"""The original chain-only layout planners: the golden reference.

Before the pass pipeline (``repro.core.pipeline``) existed, the planner
priced every node of a chain (``_build_costs``), chose a layout per node
(the run-flattening fine-tune of ``_legacy_plan_with_heuristic``, or the
(layer, layout) DP of ``_legacy_plan_optimal``) and walked the chain once
to attach transforms (``_assemble``).  These functions are kept here
verbatim, outside the package, so the golden tests can prove the
pipeline's ``single``, ``heuristic`` and ``optimal`` strategies reproduce
them exactly.  Only the node pricing is shared with production: it is the
pipeline's own ``_node_costs`` on a ``check_memory=False`` session.
"""

from __future__ import annotations

from repro.core.heuristic import (
    LayoutThresholds,
    preferred_conv_layout,
    preferred_pool_layout,
    thresholds_for,
)
from repro.core.pipeline import _LayerCosts, _node_costs
from repro.core.planner import PLAN_LAYOUTS, LayoutPlan, PlanNode, PlanStep
from repro.gpusim.device import DeviceSpec
from repro.gpusim.session import SimulationContext, default_context
from repro.ir.graph import NodeKind
from repro.layers.base import ConvSpec, PoolSpec
from repro.tensors.layout import CHWN, DataLayout
from repro.tensors.tensor import TensorDesc
from repro.tensors.transform_kernels import transform_time_ms


def _transform_ms(
    device: DeviceSpec,
    node: PlanNode,
    src: DataLayout,
    dst: DataLayout,
) -> float:
    if src == dst or node.in_dims is None:
        return 0.0
    if node.kind is NodeKind.CLASSIFIER:
        return 0.0  # flattening erases the 4-D layout; no transform needed
    desc = TensorDesc(*node.in_dims, layout=src)
    return transform_time_ms(device, desc, dst, method="auto")


def _build_costs(
    device: DeviceSpec,
    nodes: list[PlanNode],
    tune_pooling: bool,
    allow_fft: bool,
    layouts: tuple[DataLayout, ...] = PLAN_LAYOUTS,
    context: SimulationContext | None = None,
) -> list[_LayerCosts]:
    context = context or default_context(device)
    return [
        _node_costs(context, node, device, tune_pooling, allow_fft, layouts)
        for node in nodes
    ]


def _assemble(
    device: DeviceSpec,
    nodes: list[PlanNode],
    costs: list[_LayerCosts],
    layouts: list[DataLayout],
    strategy: str,
) -> LayoutPlan:
    steps: list[PlanStep] = []
    prev = layouts[0]
    for node, cost, layout in zip(nodes, costs, layouts):
        t_ms = _transform_ms(device, node, prev, layout)
        layer_ms, impl, coarsen = cost.choice(layout)
        effective = layout if node.kind in (NodeKind.CONV, NodeKind.POOL) else None
        steps.append(
            PlanStep(
                name=node.name,
                kind=node.kind,
                layout=effective,
                implementation=impl,
                layer_ms=layer_ms,
                transform_ms=t_ms,
                coarsening=coarsen,
                transformed_from=prev if t_ms > 0 else None,
                transformed_to=layout if t_ms > 0 else None,
            )
        )
        if node.kind is not NodeKind.CLASSIFIER:
            prev = layout
    return LayoutPlan(steps=tuple(steps), device=device.name, strategy=strategy)


def _legacy_plan_with_heuristic(
    device: DeviceSpec,
    nodes: list[PlanNode],
    thresholds: LayoutThresholds | None = None,
    tune_pooling: bool = True,
    allow_fft: bool = True,
    context: SimulationContext | None = None,
) -> LayoutPlan:
    """The original chain-only implementation, kept verbatim as the golden
    reference the pipeline equivalence tests compare against.

    After the per-layer preferences are set, each *maximal run* of layers
    whose preference differs from its surroundings is kept only if its
    benefit exceeds the two transforms it would cost (this is what keeps
    tiny first-layer convolutions like CV9 in the surrounding layout).
    """
    thresholds = thresholds or thresholds_for(device)
    costs = _build_costs(device, nodes, tune_pooling, allow_fft, context=context)

    preferred: list[DataLayout] = []
    for node in nodes:
        if node.kind is NodeKind.CONV:
            assert isinstance(node.spec, ConvSpec)
            preferred.append(preferred_conv_layout(node.spec, thresholds))
        elif node.kind is NodeKind.POOL:
            assert isinstance(node.spec, PoolSpec)
            preferred.append(preferred_pool_layout(node.spec))
        else:
            preferred.append(preferred[-1] if preferred else CHWN)

    # Fine-tune: flatten a run of same-preference layers into a neighbouring
    # layout when the run's benefit does not pay for its boundary transforms.
    layouts = list(preferred)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(layouts):
            j = i
            while j < len(layouts) and layouts[j] == layouts[i]:
                j += 1
            current = layouts[i]
            prev_l = layouts[i - 1] if i > 0 else None
            next_l = layouts[j] if j < len(layouts) else None
            alt = prev_l if (prev_l is not None and prev_l != current) else (
                next_l if (next_l is not None and next_l != current) else None
            )
            if alt is not None:
                keep_cost = sum(costs[k].cost(current) for k in range(i, j))
                if prev_l is not None and prev_l != current:
                    keep_cost += _transform_ms(device, nodes[i], prev_l, current)
                if next_l is not None and next_l != current:
                    keep_cost += _transform_ms(device, nodes[j], current, next_l)
                flat_cost = sum(costs[k].cost(alt) for k in range(i, j))
                if prev_l is not None and prev_l != alt:
                    flat_cost += _transform_ms(device, nodes[i], prev_l, alt)
                if next_l is not None and next_l != alt:
                    flat_cost += _transform_ms(device, nodes[j], alt, next_l)
                if flat_cost < keep_cost:
                    for k in range(i, j):
                        layouts[k] = alt
                    changed = True
            i = j
    return _assemble(device, nodes, costs, layouts, "heuristic")


def _legacy_plan_optimal(
    device: DeviceSpec,
    nodes: list[PlanNode],
    tune_pooling: bool = True,
    allow_fft: bool = True,
    layouts: tuple[DataLayout, ...] = PLAN_LAYOUTS,
    context: SimulationContext | None = None,
) -> LayoutPlan:
    """The original chain-only DP, kept verbatim as the golden reference
    the pipeline equivalence tests compare against."""
    if not layouts:
        raise ValueError("need at least one candidate layout")
    costs = _build_costs(device, nodes, tune_pooling, allow_fft, layouts, context)
    n = len(nodes)
    if n == 0:
        return LayoutPlan(steps=(), device=device.name, strategy="optimal")

    best: list[dict[str, float]] = [dict() for _ in range(n)]
    back: list[dict[str, str]] = [dict() for _ in range(n)]
    for layout in layouts:
        best[0][str(layout)] = costs[0].cost(layout)
    for i in range(1, n):
        for layout in layouts:
            options = []
            for prev in layouts:
                t = _transform_ms(device, nodes[i], prev, layout)
                options.append((best[i - 1][str(prev)] + t + costs[i].cost(layout), str(prev)))
            cost, prev_key = min(options)
            best[i][str(layout)] = cost
            back[i][str(layout)] = prev_key

    final = min(layouts, key=lambda lo: best[n - 1][str(lo)])
    layouts = [final]
    for i in range(n - 1, 0, -1):
        layouts.append(DataLayout(back[i][str(layouts[-1])]))
    layouts.reverse()
    return _assemble(device, nodes, costs, layouts, "optimal")
