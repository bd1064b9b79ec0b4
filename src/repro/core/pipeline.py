"""Compiler-style pass pipeline over the network graph IR.

The paper's framework integration (Section IV.D) — layout assignment,
transform insertion, transform fine-tuning, kernel fusion — runs here as
ordered passes over a :class:`repro.ir.Graph`:

1. ``ResolveShapes``        — shape inference + fixed per-layer costs;
2. ``AssignLayouts``        — the (Ct, Nt) heuristic and the optimal
   search.  On chains these are *exact ports* of the legacy planner (the
   run-flattening fine-tune and the (layer, layout) DP, tie-breaks
   included), so the pipeline is plan-identical to it; on DAGs the same
   trade-off generalizes to per-edge transform costs, solved by
   preference seeding plus coordinate-descent local search started from
   every uniform-layout assignment (so the result is never worse than any
   single-layout plan);
3. ``InsertTransforms``     — materialize an :class:`EdgeTransform` on
   every producer→consumer edge whose layouts disagree;
4. ``EliminateRedundantTransforms`` — relabel layout-agnostic nodes (LRN,
   concat) to cancel transform–inverse pairs across them;
5. ``FuseKernels``          — pattern-matching fusion with a registry
   (the paper's softmax fusion is the built-in pattern; others plug in
   via :func:`register_fusion_pattern`);
6. ``SelectImplementations`` — bind each node to its fastest
   implementation under the assigned layout.

:class:`PassManager` records per-pass wall time and before/after node
counts; ``repro plan --explain`` prints the table.  The final lowering
:func:`graph_to_plan` produces the legacy :class:`LayoutPlan`, which keeps
every existing consumer (framework, schemes, sweeps, lint, CLI, benches)
working unchanged.  ``plan_with_heuristic``/``plan_optimal`` in
``repro.core.planner`` are now thin wrappers over :func:`run_pipeline`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from math import prod
from typing import Callable, Sequence

from ..gpusim.device import DeviceSpec
from ..gpusim.engine import SimulationEngine
from ..gpusim.exec import evaluate_cells, map_chunks
from ..gpusim.session import SimulationContext, default_context
from ..obs.metrics import global_registry
from ..obs.tracer import active_tracer
from ..obs.tracer import span as obs_span
from ..ir.build import graph_from_plan_nodes, infer_shapes, lower_netdef
from ..ir.graph import EdgeTransform, Graph, GraphNode, NodeKind
from ..layers.base import FCSpec, SoftmaxSpec
from ..layers.elementwise import ElementwiseKernel, LRNSpec, make_lrn_kernel
from ..layers.fc import make_fc_kernel
from ..tensors.layout import CHWN, NCHW, DataLayout
from ..tensors.tensor import TensorDesc
from ..tensors.transform_kernels import make_transform_kernel, transform_time_ms
from .heuristic import (
    LayoutThresholds,
    preferred_conv_layout,
    preferred_pool_layout,
    thresholds_for,
)
from .planner import (
    PLAN_LAYOUTS,
    LayoutPlan,
    PlanStep,
    _LayerCosts,
    _node_costs,
)

__all__ = [
    "FusionPattern",
    "PassContext",
    "PassContractError",
    "PassManager",
    "PassTrace",
    "PipelineOptions",
    "PipelineResult",
    "TransformCostTable",
    "default_passes",
    "graph_to_plan",
    "plan_network",
    "register_fusion_pattern",
    "run_pipeline",
]


@dataclass(frozen=True)
class PipelineOptions:
    """Everything that parameterizes one pipeline run."""

    strategy: str = "optimal"  # "heuristic" | "optimal" | "single"
    single_layout: DataLayout | None = None
    tune_pooling: bool = True
    allow_fft: bool = True
    layouts: tuple[DataLayout, ...] = PLAN_LAYOUTS
    thresholds: LayoutThresholds | None = None
    eliminate_redundant: bool = True
    fusion_patterns: tuple[str, ...] = ("softmax-fuse",)
    #: run each pass's declared contracts on its output graph and raise
    #: :class:`PassContractError` attributing the first violation to the
    #: offending pass.  Verification is observational: the planned result
    #: is byte-identical with it on or off.
    verify: bool = False
    #: worker processes for the transform-cost precompute
    #: (``"auto"`` = one per CPU); plans are identical for any value
    jobs: int | str | None = None

    def strategy_name(self) -> str:
        if self.strategy == "single":
            return f"single-{self.single_layout}"
        return self.strategy


@dataclass
class PassContext:
    """Mutable state the passes share (engine, per-node cost tables)."""

    device: DeviceSpec
    options: PipelineOptions
    engine: SimulationEngine
    costs: dict[str, _LayerCosts] = field(default_factory=dict)
    #: per-edge transform costs (precomputed by ``AssignLayouts``)
    edge_costs: "TransformCostTable" = field(init=False)

    def __post_init__(self) -> None:
        self.edge_costs = TransformCostTable(self.device)


@dataclass(frozen=True)
class PassTrace:
    """One pass's footprint: wall time, node counts, pass-specific stats."""

    name: str
    ms: float
    nodes_before: int
    nodes_after: int
    stats: dict[str, object] = field(default_factory=dict)


class PassContractError(RuntimeError):
    """A pass produced a graph violating an invariant it declared.

    ``pass_name`` attributes the failure to the offending pass;
    ``violations`` holds the
    :class:`~repro.analysis.dataflow.contracts.ContractViolation` records
    the checker collected for it.
    """

    def __init__(self, pass_name: str, violations: Sequence[object]) -> None:
        self.pass_name = pass_name
        self.violations = tuple(violations)
        lines = [
            f"pass {pass_name!r} violated its contracts "
            f"({len(self.violations)} finding(s)):"
        ]
        lines += [f"  {v.format()}" for v in self.violations]  # type: ignore[attr-defined]
        super().__init__("\n".join(lines))


class Pass:
    """A named graph transformation.  Subclasses mutate and return the
    graph; anything worth reporting goes into ``self.stats``.

    ``contracts`` names the invariants (see
    :mod:`repro.analysis.dataflow.contracts`) that must hold on the
    graph this pass returns; the verifying :class:`PassManager` checks
    them after the pass runs.  A pass that conditionally skips work may
    prune ``self.contracts`` inside :meth:`run`.
    """

    name = "pass"
    #: invariant names guaranteed on this pass's output graph
    default_contracts: tuple[str, ...] = ("structure",)

    def __init__(self) -> None:
        self.stats: dict[str, object] = {}
        self.contracts: tuple[str, ...] = self.default_contracts

    def run(self, graph: Graph, ctx: PassContext) -> Graph:
        raise NotImplementedError


class PassManager:
    """Run passes in order, timing each and snapshotting node counts.

    Each pass is *always* recorded: its wall time lands in a
    :class:`PassTrace`, in the ``pipeline.pass_ms.*`` histograms of the
    global metrics registry, and — when a tracer is installed — in a
    ``pipeline.pass`` span whose attributes carry the pass's stats.  The
    trace is available from every caller (``repro plan --trace``), not
    just the ``--explain`` table.

    With ``verify=True`` each pass's declared contracts are checked on
    its output graph and the first violation raises
    :class:`PassContractError` naming that pass — a compiler-style
    "verify between passes" mode (``repro plan --verify``).
    """

    def __init__(self, passes: Sequence[Pass], verify: bool = False) -> None:
        self.passes = list(passes)
        self.verify = verify

    def run(self, graph: Graph, ctx: PassContext) -> tuple[Graph, tuple[PassTrace, ...]]:
        registry = global_registry()
        traces: list[PassTrace] = []
        for p in self.passes:
            before = len(graph)
            started = time.perf_counter()
            with obs_span(p.name, "pipeline.pass", nodes_before=before) as sp:
                graph = p.run(graph, ctx)
                if sp is not None:
                    sp.attrs["nodes_after"] = len(graph)
                    sp.attrs.update(
                        {k: _attr_safe(v) for k, v in p.stats.items()}
                    )
            elapsed_ms = (time.perf_counter() - started) * 1e3
            registry.histogram(f"pipeline.pass_ms.{p.name}").observe(elapsed_ms)
            traces.append(
                PassTrace(
                    name=p.name,
                    ms=elapsed_ms,
                    nodes_before=before,
                    nodes_after=len(graph),
                    stats=dict(p.stats),
                )
            )
            if self.verify and p.contracts:
                self._check(graph, p)
        return graph, tuple(traces)

    @staticmethod
    def _check(graph: Graph, p: Pass) -> None:
        # Imported lazily: the analysis layer depends on this module, so
        # the contract checker cannot be a module-level import here.
        from ..analysis.dataflow.contracts import check_contracts

        violations = check_contracts(graph, p.contracts, pass_name=p.name)
        if violations:
            raise PassContractError(p.name, violations)


def _attr_safe(value: object) -> object:
    """Pass stats → span attributes (JSON-safe scalars/containers only)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_attr_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _attr_safe(v) for k, v in value.items()}
    return repr(value)


# ---------------------------------------------------------------------------
# shared helpers


def _edge_desc(
    producer: GraphNode | None,
    consumer: GraphNode,
    src: DataLayout,
    dst: DataLayout,
) -> tuple[tuple[int, ...], DataLayout, DataLayout] | None:
    """The (dims, src, dst) a transform on this edge would move, or ``None``
    when the edge is free (same layout, classifier consumer, unknown dims)."""
    if src == dst or consumer.kind is NodeKind.CLASSIFIER:
        return None
    if producer is not None and len(consumer.inputs) > 1:
        dims = producer.out_dims
    else:
        dims = consumer.in_dims
    if dims is None:
        return None
    return dims, src, dst


def _price_transform_chunk(
    context: SimulationContext, models: list
) -> "list":
    """Module-level (picklable) chunk body for the transform precompute."""
    return evaluate_cells(context, models, check_memory=False)


class TransformCostTable:
    """Per-edge transform costs for one planning run.

    ``precompute`` enumerates every distinct (dims, src layout, dst layout)
    transform the planner can query on a graph — edges × layouts² collapse
    to a handful of unique tensor shapes — and prices them all in one
    memoized evaluation (vectorized unless batching is disabled).
    ``edge_ms`` is then a dict probe.  A query outside the precomputed set
    (e.g. a pass relabeling to an exotic layout) falls back to
    :func:`transform_time_ms` and is memoized; both routes price the same
    kernel, so plans are byte-identical with batching on or off.
    """

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self._ms: dict[tuple[tuple[int, ...], str, str], float] = {}

    def precompute(
        self,
        graph: Graph,
        layouts: tuple[DataLayout, ...],
        jobs: int | str | None = None,
    ) -> int:
        """Batch-price every transform reachable on ``graph``'s edges.

        Returns the number of distinct transform kernels evaluated.
        """
        pending: dict[tuple[tuple[int, ...], str, str], object] = {}
        for node in graph:
            for src_name in node.inputs:
                producer = graph[src_name]
                for src in layouts:
                    for dst in layouts:
                        desc = _edge_desc(producer, node, src, dst)
                        if desc is None:
                            continue
                        dims, src_l, dst_l = desc
                        key = (dims, str(src_l), str(dst_l))
                        if key in self._ms or key in pending:
                            continue
                        pending[key] = make_transform_kernel(
                            TensorDesc(*dims, layout=src_l), dst_l, method="auto"
                        )
        if pending:
            # ``transform_time_ms`` prices transforms on the device's
            # default context; the precompute does the same so
            # cache/metrics accounting lands in the same place — and repeat
            # plannings of the same shapes skip the analytic stack entirely.
            outcomes = map_chunks(
                _price_transform_chunk,
                list(pending.values()),
                default_context(self.device),
                jobs=jobs,
            )
            for key, outcome in zip(pending, outcomes):
                if isinstance(outcome, Exception):
                    raise outcome
                self._ms[key] = outcome.time_ms
        return len(pending)

    def edge_ms(
        self,
        producer: GraphNode | None,
        consumer: GraphNode,
        src: DataLayout,
        dst: DataLayout,
    ) -> float:
        """Transform cost on one producer→consumer edge.

        Generalizes the legacy per-node ``_transform_ms``: on single-input
        consumers the transformed tensor is the consumer's input
        (bit-identical to the legacy accounting); on multi-input consumers
        (concat) it is the individual producer's output, not the joined
        tensor.
        """
        desc = _edge_desc(producer, consumer, src, dst)
        if desc is None:
            return 0.0
        dims, src_l, dst_l = desc
        key = (dims, str(src_l), str(dst_l))
        ms = self._ms.get(key)
        if ms is None:
            ms = transform_time_ms(
                self.device, TensorDesc(*dims, layout=src_l), dst_l, method="auto"
            )
            self._ms[key] = ms
        return ms


def _graph_node_costs(
    engine: SimulationEngine,
    node: GraphNode,
    device: DeviceSpec,
    tune_pooling: bool,
    allow_fft: bool,
    layouts: tuple[DataLayout, ...],
) -> _LayerCosts:
    """Per-layout costs for one graph node (concat handled here; everything
    else shares the planner's cost model verbatim)."""
    if node.kind is NodeKind.CONCAT:
        costs = _LayerCosts(node)  # type: ignore[arg-type]
        for layout in layouts:
            costs.per_layout[str(layout)] = (node.fixed_ms, "concat", None)
        return costs
    return _node_costs(  # type: ignore[arg-type]
        engine, node, device, tune_pooling, allow_fft, layouts
    )


def _consumers_map(graph: Graph) -> dict[str, list[GraphNode]]:
    consumers: dict[str, list[GraphNode]] = {name: [] for name in graph.nodes}
    for node in graph:
        for src in node.inputs:
            consumers[src].append(node)
    return consumers


def _insert_transforms(
    graph: Graph, costs: TransformCostTable
) -> tuple[int, float]:
    """(Re)materialize edge transforms from the current layout assignment.

    Mirrors the legacy ``_assemble`` walk: the layout "carried" past a
    CLASSIFIER node is its producer's (flattening erases the 4-D layout,
    so classifiers never update it), and a transform is only recorded when
    its modeled cost is positive, as priced by ``costs``.
    """
    count, total = 0, 0.0
    carried: dict[str, DataLayout | None] = {}
    for node in graph.topological():
        if node.kind is NodeKind.CLASSIFIER and node.inputs:
            carried[node.name] = carried[node.inputs[0]]
        else:
            carried[node.name] = node.layout
        transforms: list[EdgeTransform] = []
        for src in node.inputs:
            src_layout = carried[src]
            if src_layout is None or node.layout is None:
                continue
            t_ms = costs.edge_ms(graph[src], node, src_layout, node.layout)
            if t_ms > 0:
                transforms.append(
                    EdgeTransform(src, src_layout, node.layout, t_ms)
                )
                count += 1
                total += t_ms
        node.transforms = tuple(transforms)
    return count, total


# ---------------------------------------------------------------------------
# passes


class ResolveShapes(Pass):
    """Shape inference plus fixed per-layer costs (LRN, FC, concat).

    Graphs lowered from a ``NetworkDef`` carry layer definitions and get
    full inference; graphs wrapped from legacy ``PlanNode`` chains arrive
    resolved and only fill cost gaps.
    """

    name = "ResolveShapes"
    default_contracts = ("structure", "shapes")

    def run(self, graph: Graph, ctx: PassContext) -> Graph:
        if len(graph) and all(n.defn is not None for n in graph):
            infer_shapes(graph)
            self.stats["resolved"] = len(graph)
        timed = 0
        for node in graph:
            if node.fixed_ms:
                continue
            if node.kind is NodeKind.ELEMENTWISE and isinstance(node.spec, LRNSpec):
                assert node.in_dims is not None
                kernel = make_lrn_kernel(prod(node.in_dims), node.spec)
            elif node.kind is NodeKind.CLASSIFIER and isinstance(node.spec, FCSpec):
                kernel = make_fc_kernel(node.spec)
            elif node.kind is NodeKind.CONCAT:
                assert node.out_dims is not None
                kernel = ElementwiseKernel(prod(node.out_dims), name="concat")
            else:
                continue
            node.fixed_ms = ctx.engine.run(kernel).time_ms
            timed += 1
        self.stats["fixed_cost_nodes"] = timed
        return graph


class AssignLayouts(Pass):
    """Assign a storage layout to every node.

    Chains replay the legacy planner exactly (preferences + run-flattening
    fine-tune for ``heuristic``; the (layer, layout) DP for ``optimal``).
    DAGs use the same per-node costs and per-edge transform costs:
    ``heuristic`` applies the raw (Ct, Nt)/pooling preferences (agnostic
    nodes inherit their first producer's choice — the later
    ``EliminateRedundantTransforms`` pass repairs wasteful inheritances);
    ``optimal`` runs coordinate-descent local search from the preference
    assignment and from every uniform-layout assignment, keeping the best.
    """

    name = "AssignLayouts"
    default_contracts = ("structure", "shapes", "layouts-assigned")

    def run(self, graph: Graph, ctx: PassContext) -> Graph:
        opts = ctx.options
        if not opts.layouts:
            raise ValueError("need at least one candidate layout")
        ctx.costs = {
            node.name: _graph_node_costs(
                ctx.engine, node, ctx.device,
                opts.tune_pooling, opts.allow_fft, opts.layouts,
            )
            for node in graph
        }
        self.stats["edge_kernels_batched"] = ctx.edge_costs.precompute(
            graph, opts.layouts, jobs=opts.jobs
        )
        if opts.strategy == "single":
            if opts.single_layout is None:
                raise ValueError("strategy 'single' needs single_layout")
            assign = {node.name: opts.single_layout for node in graph}
            algorithm = "single"
        elif opts.strategy not in ("heuristic", "optimal"):
            raise ValueError(f"unknown strategy {opts.strategy!r}")
        elif graph.is_chain():
            assign = self._assign_chain(graph, ctx)
            algorithm = f"chain-{'finetune' if opts.strategy == 'heuristic' else 'dp'}"
        else:
            assign = self._assign_dag(graph, ctx)
            algorithm = f"dag-{'preference' if opts.strategy == 'heuristic' else 'descent'}"
        histogram: dict[str, int] = {}
        for node in graph:
            node.layout = assign[node.name]
            histogram[str(node.layout)] = histogram.get(str(node.layout), 0) + 1
        self.stats["algorithm"] = algorithm
        self.stats["layouts"] = histogram
        self._trace_decisions(graph, ctx, assign, algorithm)
        return graph

    def _trace_decisions(
        self,
        graph: Graph,
        ctx: PassContext,
        assign: dict[str, DataLayout],
        algorithm: str,
    ) -> None:
        """Emit one instant event per node: the layout that won, the raw
        (Ct, Nt)/pooling preference it started from, and the per-layout
        layer costs the decision weighed — the planner's "why"."""
        tracer = active_tracer()
        if tracer is None:
            return
        opts = ctx.options
        prefs: dict[str, DataLayout] = {}
        if CHWN in opts.layouts and NCHW in opts.layouts:
            prefs = self._preferences(
                graph, opts.thresholds or thresholds_for(ctx.device)
            )
        for node in graph.topological():
            costs = ctx.costs.get(node.name)
            preferred = prefs.get(node.name)
            tracer.event(
                f"layout:{node.name}",
                "pipeline.decision",
                node=node.name,
                kind=node.kind.value,
                algorithm=algorithm,
                layout=str(assign[node.name]),
                preferred=str(preferred) if preferred is not None else None,
                overridden=(
                    preferred is not None and assign[node.name] != preferred
                ),
                costs_ms={
                    layout: round(choice[0], 6)
                    for layout, choice in costs.per_layout.items()
                }
                if costs is not None
                else None,
            )

    # -- shared preference seeding ------------------------------------------
    @staticmethod
    def _preferences(
        graph: Graph, thresholds: LayoutThresholds
    ) -> dict[str, DataLayout]:
        """Per-node (Ct, Nt)/pooling preferences; non-layout-bearing nodes
        inherit their first producer's (the chain planner's ``preferred[-1]``
        generalized to DAGs)."""
        prefs: dict[str, DataLayout] = {}
        for node in graph.topological():
            if node.kind is NodeKind.CONV:
                prefs[node.name] = preferred_conv_layout(node.spec, thresholds)  # type: ignore[arg-type]
            elif node.kind is NodeKind.POOL:
                prefs[node.name] = preferred_pool_layout(node.spec)  # type: ignore[arg-type]
            elif node.inputs:
                prefs[node.name] = prefs[node.inputs[0]]
            else:
                prefs[node.name] = CHWN
        return prefs

    # -- chain: exact legacy ports ------------------------------------------
    def _assign_chain(self, graph: Graph, ctx: PassContext) -> dict[str, DataLayout]:
        opts = ctx.options
        order = graph.topological()
        costs = [ctx.costs[n.name] for n in order]

        def edge(i: int, a: DataLayout, b: DataLayout) -> float:
            node = order[i]
            producer = graph[node.inputs[0]] if node.inputs else None
            return ctx.edge_costs.edge_ms(producer, node, a, b)

        if opts.strategy == "heuristic":
            thresholds = opts.thresholds or thresholds_for(ctx.device)
            preferred = [self._preferences(graph, thresholds)[n.name] for n in order]
            seq = _finetune_chain(preferred, costs, edge)
        else:
            seq = _dp_chain(costs, edge, opts.layouts)
        return {order[i].name: seq[i] for i in range(len(order))}

    # -- DAG: preference seeding + coordinate descent ------------------------
    def _assign_dag(self, graph: Graph, ctx: PassContext) -> dict[str, DataLayout]:
        opts = ctx.options
        thresholds = opts.thresholds or thresholds_for(ctx.device)
        layout_set = set(opts.layouts)
        prefs: dict[str, DataLayout] | None = None
        if CHWN in layout_set and NCHW in layout_set:
            prefs = self._preferences(graph, thresholds)
        if opts.strategy == "heuristic":
            return prefs or {n.name: opts.layouts[0] for n in graph}

        consumers = _consumers_map(graph)

        def edge(p: GraphNode, n: GraphNode, a: DataLayout, b: DataLayout) -> float:
            return ctx.edge_costs.edge_ms(p, n, a, b)

        def total(assign: dict[str, DataLayout]) -> float:
            t = sum(ctx.costs[n.name].cost(assign[n.name]) for n in graph)
            for node in graph:
                for src in node.inputs:
                    t += edge(graph[src], node, assign[src], assign[node.name])
            return t

        def descend(assign: dict[str, DataLayout]) -> dict[str, DataLayout]:
            changed = True
            while changed:
                changed = False
                for node in graph.topological():
                    if node.kind is NodeKind.CLASSIFIER:
                        continue

                    def local(layout: DataLayout) -> float:
                        c = ctx.costs[node.name].cost(layout)
                        for src in node.inputs:
                            c += edge(graph[src], node, assign[src], layout)
                        for cons in consumers[node.name]:
                            c += edge(node, cons, layout, assign[cons.name])
                        return c

                    current_cost = local(assign[node.name])
                    for layout in opts.layouts:
                        candidate_cost = local(layout)
                        if candidate_cost + 1e-12 < current_cost:
                            assign[node.name] = layout
                            current_cost = candidate_cost
                            changed = True
            return assign

        inits: list[dict[str, DataLayout]] = []
        if prefs is not None:
            inits.append(dict(prefs))
        for layout in opts.layouts:
            inits.append({n.name: layout for n in graph})
        return min((descend(a) for a in inits), key=total)


def _finetune_chain(
    preferred: list[DataLayout],
    costs: list[_LayerCosts],
    edge: Callable[[int, DataLayout, DataLayout], float],
) -> list[DataLayout]:
    """The legacy heuristic's fine-tune: flatten a run of same-preference
    layers into a neighbouring layout when the run's benefit does not pay
    for its boundary transforms.  Verbatim port of the planner loop."""
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
                    keep_cost += edge(i, prev_l, current)
                if next_l is not None and next_l != current:
                    keep_cost += edge(j, current, next_l)
                flat_cost = sum(costs[k].cost(alt) for k in range(i, j))
                if prev_l is not None and prev_l != alt:
                    flat_cost += edge(i, prev_l, alt)
                if next_l is not None and next_l != alt:
                    flat_cost += edge(j, alt, next_l)
                if flat_cost < keep_cost:
                    for k in range(i, j):
                        layouts[k] = alt
                    changed = True
            i = j
    return layouts


def _dp_chain(
    costs: list[_LayerCosts],
    edge: Callable[[int, DataLayout, DataLayout], float],
    layouts: tuple[DataLayout, ...],
) -> list[DataLayout]:
    """The legacy (layer, layout) dynamic program, tie-breaks included."""
    n = len(costs)
    best: list[dict[str, float]] = [dict() for _ in range(n)]
    back: list[dict[str, str]] = [dict() for _ in range(n)]
    for layout in layouts:
        best[0][str(layout)] = costs[0].cost(layout)
    for i in range(1, n):
        for layout in layouts:
            options = []
            for prev in layouts:
                t = edge(i, prev, layout)
                options.append(
                    (best[i - 1][str(prev)] + t + costs[i].cost(layout), str(prev))
                )
            cost, prev_key = min(options)
            best[i][str(layout)] = cost
            back[i][str(layout)] = prev_key
    final = min(layouts, key=lambda lo: best[n - 1][str(lo)])
    seq = [final]
    for i in range(n - 1, 0, -1):
        seq.append(DataLayout(back[i][str(seq[-1])]))
    seq.reverse()
    return seq


class InsertTransforms(Pass):
    """Materialize an :class:`EdgeTransform` on every edge whose layouts
    disagree, priced by the transform kernel model."""

    name = "InsertTransforms"
    default_contracts = (
        "structure", "shapes", "layouts-assigned", "layout-coherent",
    )

    def run(self, graph: Graph, ctx: PassContext) -> Graph:
        count, total = _insert_transforms(graph, ctx.edge_costs)
        self.stats["inserted"] = count
        self.stats["transform_ms"] = round(total, 6)
        return graph


class EliminateRedundantTransforms(Pass):
    """Cancel transform–inverse pairs across layout-agnostic nodes.

    A layout-agnostic node (LRN, concat) streams the same bytes under any
    layout, so its label is free to move: if relabeling strictly lowers the
    total cost of its incident transforms, the pair it sat between hoists
    away.  Chains planned by the exact DP never improve here (the DP
    already searched agnostic labels); the pass earns its keep on DAG
    preference assignments, e.g. a CHWN branch feeding an NCHW-labeled
    concat that immediately transforms back to CHWN for the next pool.
    """

    name = "EliminateRedundantTransforms"
    default_contracts = (
        "structure", "shapes", "layouts-assigned", "layout-coherent",
        "no-inverse-pairs",
    )

    def run(self, graph: Graph, ctx: PassContext) -> Graph:
        if not ctx.options.eliminate_redundant:
            self.stats["skipped"] = True
            # A skipped elimination guarantees nothing beyond its input.
            self.contracts = tuple(
                c for c in self.contracts if c != "no-inverse-pairs"
            )
            return graph
        before_ms = sum(n.transform_ms for n in graph)
        consumers = _consumers_map(graph)
        relabeled: list[str] = []
        changed = True
        while changed:
            changed = False
            for node in graph.topological():
                if not node.kind.layout_agnostic or node.layout is None:
                    continue

                def incident(layout: DataLayout) -> float:
                    t = 0.0
                    for src in node.inputs:
                        src_layout = graph[src].layout
                        if src_layout is None:
                            continue
                        t += ctx.edge_costs.edge_ms(
                            graph[src], node, src_layout, layout
                        )
                    for cons in consumers[node.name]:
                        if cons.layout is None:
                            continue
                        t += ctx.edge_costs.edge_ms(node, cons, layout, cons.layout)
                    return t

                current_cost = incident(node.layout)
                for layout in ctx.options.layouts:
                    candidate = incident(layout)
                    if candidate + 1e-12 < current_cost:
                        node.layout = layout
                        current_cost = candidate
                        if node.name not in relabeled:
                            relabeled.append(node.name)
                        changed = True
        removed = 0
        added = 0
        if relabeled:
            old = {n.name: set(n.transforms) for n in graph}
            _insert_transforms(graph, ctx.edge_costs)
            for n in graph:
                removed += len(old[n.name] - set(n.transforms))
                added += len(set(n.transforms) - old[n.name])
        after_ms = sum(n.transform_ms for n in graph)
        self.stats["relabeled"] = tuple(relabeled)
        self.stats["removed"] = removed
        self.stats["added"] = added
        self.stats["ms_saved"] = round(before_ms - after_ms, 6)
        return graph


@dataclass(frozen=True)
class FusionPattern:
    """A registered fusion rewrite: ``apply`` inspects one node (and its
    neighbourhood via the graph) and returns True after rewriting it."""

    name: str
    description: str
    apply: Callable[[Graph, GraphNode, PassContext], bool]


FUSION_PATTERNS: dict[str, FusionPattern] = {}


def register_fusion_pattern(
    name: str, description: str
) -> Callable[[Callable[[Graph, GraphNode, PassContext], bool]], Callable[[Graph, GraphNode, PassContext], bool]]:
    """Decorator adding a pattern to the registry ``FuseKernels`` draws on."""

    def decorate(
        fn: Callable[[Graph, GraphNode, PassContext], bool]
    ) -> Callable[[Graph, GraphNode, PassContext], bool]:
        FUSION_PATTERNS[name] = FusionPattern(name, description, fn)
        return fn

    return decorate


@register_fusion_pattern(
    "softmax-fuse",
    "merge the five-kernel softmax into one inner-parallelized kernel "
    "(Section V.B); the cost model already prices classifiers with the "
    "fused kernel, so this pattern annotates the node it claims",
)
def _match_softmax_fuse(graph: Graph, node: GraphNode, ctx: PassContext) -> bool:
    if node.kind is not NodeKind.CLASSIFIER or not isinstance(node.spec, SoftmaxSpec):
        return False
    from .fusion import can_fuse_softmax

    if not can_fuse_softmax(node.spec, ctx.device):
        return False
    node.fused = "softmax-fuse"
    return True


@register_fusion_pattern(
    "transform-pooling",
    "fold a pooling layer's single incoming layout transform into the pool "
    "kernel's gather: the fused kernel reads the producer's layout "
    "directly, saving the standalone transform's store+reload round trip "
    "(modeled as half the transform's cost).  Opt-in.",
)
def _match_transform_pooling(graph: Graph, node: GraphNode, ctx: PassContext) -> bool:
    if node.kind is not NodeKind.POOL or len(node.transforms) != 1:
        return False
    (t,) = node.transforms
    if t.ms <= 0:
        return False
    node.transforms = (replace(t, ms=t.ms * 0.5),)
    node.fused = "transform-pooling"
    return True


class FuseKernels(Pass):
    """Apply the enabled fusion patterns, first match claiming each node."""

    name = "FuseKernels"
    default_contracts = (
        "structure", "shapes", "layouts-assigned", "layout-coherent",
    )

    def run(self, graph: Graph, ctx: PassContext) -> Graph:
        matched: dict[str, int] = {}
        for pattern_name in ctx.options.fusion_patterns:
            pattern = FUSION_PATTERNS.get(pattern_name)
            if pattern is None:
                raise ValueError(
                    f"unknown fusion pattern {pattern_name!r}; "
                    f"registered: {sorted(FUSION_PATTERNS)}"
                )
            hits = 0
            for node in graph.topological():
                if node.fused is None and pattern.apply(graph, node, ctx):
                    hits += 1
            matched[pattern_name] = hits
        self.stats["matched"] = matched
        return graph


class SelectImplementations(Pass):
    """Bind each node to the fastest implementation under its layout."""

    name = "SelectImplementations"
    default_contracts = (
        "structure", "shapes", "layouts-assigned", "layout-coherent",
    )

    def run(self, graph: Graph, ctx: PassContext) -> Graph:
        histogram: dict[str, int] = {}
        for node in graph:
            costs = ctx.costs[node.name]
            layout = node.layout if node.layout is not None else ctx.options.layouts[0]
            layer_ms, impl, coarsen = costs.choice(layout)
            node.layer_ms = layer_ms
            node.implementation = impl
            node.coarsening = coarsen
            histogram[impl] = histogram.get(impl, 0) + 1
        self.stats["implementations"] = histogram
        return graph


# ---------------------------------------------------------------------------
# lowering + drivers


def graph_to_plan(graph: Graph, device: DeviceSpec, strategy: str) -> LayoutPlan:
    """Lower an annotated graph to the legacy :class:`LayoutPlan`.

    Layout is masked to None on non-conv/pool steps (their kernels are
    layout-transparent); a step with exactly one edge transform reports it
    via ``transformed_from``/``transformed_to`` as the legacy planner did.
    Multi-input joins sum their edges' costs into ``transform_ms``.
    """
    steps: list[PlanStep] = []
    for node in graph.topological():
        single = node.transforms[0] if len(node.transforms) == 1 else None
        steps.append(
            PlanStep(
                name=node.name,
                kind=node.kind,
                layout=node.layout if node.kind.layout_bearing else None,
                implementation=node.implementation or "",
                layer_ms=node.layer_ms,
                transform_ms=node.transform_ms,
                coarsening=node.coarsening,
                transformed_from=single.from_layout if single else None,
                transformed_to=single.to_layout if single else None,
            )
        )
    return LayoutPlan(steps=tuple(steps), device=device.name, strategy=strategy)


@dataclass
class PipelineResult:
    """The annotated graph, its lowered plan, and the per-pass trace."""

    graph: Graph
    plan: LayoutPlan
    trace: tuple[PassTrace, ...]

    def explain(self) -> str:
        """The per-pass timing/stat table (``repro plan --explain``)."""
        lines = [
            f"pipeline[{self.plan.strategy}] on {self.plan.device}: "
            f"{len(self.graph)} nodes, {self.plan.total_ms:.3f} ms planned"
        ]
        header = f"  {'pass':32s} {'ms':>8s} {'nodes':>9s}  stats"
        lines.append(header)
        for t in self.trace:
            nodes = f"{t.nodes_before}->{t.nodes_after}"
            stats = ", ".join(f"{k}={v}" for k, v in t.stats.items()) or "-"
            lines.append(f"  {t.name:32s} {t.ms:8.3f} {nodes:>9s}  {stats}")
        return "\n".join(lines)


def default_passes() -> tuple[Pass, ...]:
    """The standard pipeline, in order."""
    return (
        ResolveShapes(),
        AssignLayouts(),
        InsertTransforms(),
        EliminateRedundantTransforms(),
        FuseKernels(),
        SelectImplementations(),
    )


def run_pipeline(
    device: DeviceSpec,
    graph: Graph,
    options: PipelineOptions | None = None,
    context: SimulationContext | None = None,
    passes: Sequence[Pass] | None = None,
) -> PipelineResult:
    """Run the pass pipeline over ``graph`` and lower to a plan."""
    options = options or PipelineOptions()
    if not options.layouts:
        raise ValueError("need at least one candidate layout")
    if len(graph) == 0:
        plan = LayoutPlan(steps=(), device=device.name, strategy=options.strategy_name())
        return PipelineResult(graph=graph, plan=plan, trace=())
    engine = (context or default_context(device)).engine(check_memory=False)
    ctx = PassContext(device=device, options=options, engine=engine)
    manager = PassManager(
        passes if passes is not None else default_passes(),
        verify=options.verify,
    )
    with obs_span(
        "run_pipeline",
        "pipeline",
        strategy=options.strategy_name(),
        device=device.name,
        nodes=len(graph),
    ) as sp:
        graph, trace = manager.run(graph, ctx)
        plan = graph_to_plan(graph, device, options.strategy_name())
        if sp is not None:
            sp.attrs["total_ms"] = plan.total_ms
            sp.attrs["transform_count"] = plan.transform_count
    return PipelineResult(graph=graph, plan=plan, trace=trace)


def plan_network(
    device: DeviceSpec,
    net: object,
    options: PipelineOptions | None = None,
    context: SimulationContext | None = None,
) -> PipelineResult:
    """Lower a :class:`NetworkDef` and run the pipeline over it."""
    return run_pipeline(device, lower_netdef(net), options, context)  # type: ignore[arg-type]


def plan_nodes(
    device: DeviceSpec,
    nodes: Sequence[object],
    options: PipelineOptions | None = None,
    context: SimulationContext | None = None,
) -> PipelineResult:
    """Wrap a legacy planner chain and run the pipeline over it (the
    compatibility path behind ``plan_with_heuristic``/``plan_optimal``)."""
    return run_pipeline(device, graph_from_plan_nodes(list(nodes)), options, context)  # type: ignore[arg-type]
