"""Golden equivalence: the pass pipeline reproduces the legacy planner.

The legacy chain algorithms are kept verbatim in
``tests/core/legacy_planner.py`` (``_legacy_plan_with_heuristic``,
``_legacy_plan_optimal``, and ``_build_costs`` + ``_assemble`` for a
single layout); the public ``plan_single_layout`` /
``plan_with_heuristic`` / ``plan_optimal`` route through the pipeline.
These tests pin the two paths to identical plans — step sequence, layouts,
implementations, transform records, and total time — on every bundled
chain network, for every strategy.
"""

import pytest

from repro.core.pipeline import PipelineOptions, plan_network, plan_nodes
from repro.core.planner import (
    plan_optimal,
    plan_single_layout,
    plan_with_heuristic,
)
from repro.framework import Net
from repro.gpusim import TITAN_BLACK, TITAN_X
from repro.gpusim.session import SimulationContext
from repro.networks import build_network
from repro.tensors import CHWN, NCHW
from tests.core.legacy_planner import (
    _assemble,
    _build_costs,
    _legacy_plan_optimal,
    _legacy_plan_with_heuristic,
)

CHAIN_NETWORKS = ("lenet", "cifar", "alexnet", "alexnet-grouped", "zfnet", "vgg")


@pytest.fixture(scope="module")
def ctx(device):
    """One shared timing cache for every planner run in this module."""
    return SimulationContext(device, check_memory=False)


def assert_plans_identical(actual, expected):
    assert actual.device == expected.device
    assert len(actual.steps) == len(expected.steps)
    for got, want in zip(actual.steps, expected.steps):
        assert got == want, f"{got.name}: {got} != {want}"
    assert actual.total_ms == pytest.approx(expected.total_ms, abs=1e-12)


@pytest.mark.parametrize("name", CHAIN_NETWORKS)
def test_wrapper_matches_legacy_heuristic(name, device, ctx):
    nodes = Net(build_network(name), context=ctx).planner_nodes(device)
    legacy = _legacy_plan_with_heuristic(device, nodes, context=ctx)
    assert_plans_identical(
        plan_with_heuristic(device, nodes, context=ctx), legacy
    )


@pytest.mark.parametrize("name", CHAIN_NETWORKS)
def test_wrapper_matches_legacy_optimal(name, device, ctx):
    nodes = Net(build_network(name), context=ctx).planner_nodes(device)
    legacy = _legacy_plan_optimal(device, nodes, context=ctx)
    assert_plans_identical(plan_optimal(device, nodes, context=ctx), legacy)


@pytest.mark.parametrize("name", CHAIN_NETWORKS)
@pytest.mark.parametrize("strategy", ("heuristic", "optimal"))
def test_plan_network_matches_legacy(name, strategy, device, ctx):
    """The netdef entry point (lowering through the IR, not through
    PlanNodes) still lands on the exact legacy plan."""
    netdef = build_network(name)
    nodes = Net(netdef, context=ctx).planner_nodes(device)
    legacy_fn = (
        _legacy_plan_with_heuristic
        if strategy == "heuristic"
        else _legacy_plan_optimal
    )
    legacy = legacy_fn(device, nodes, context=ctx)
    result = plan_network(
        device, netdef, PipelineOptions(strategy=strategy), context=ctx
    )
    assert_plans_identical(result.plan, legacy)


def test_no_fft_option_respected(device, ctx):
    nodes = Net(build_network("alexnet"), context=ctx).planner_nodes(device)
    legacy = _legacy_plan_optimal(device, nodes, allow_fft=False, context=ctx)
    assert_plans_identical(
        plan_optimal(device, nodes, allow_fft=False, context=ctx), legacy
    )
    assert all("fft" not in s.implementation for s in legacy.steps)


def test_empty_chain(device):
    assert plan_optimal(device, []).steps == ()
    assert plan_with_heuristic(device, []).steps == ()


@pytest.fixture(scope="module")
def contexts():
    """One shared timing cache per device for the single-layout grid."""
    return {
        dev.name: SimulationContext(dev, check_memory=False)
        for dev in (TITAN_BLACK, TITAN_X)
    }


@pytest.mark.parametrize("name", CHAIN_NETWORKS)
@pytest.mark.parametrize("dev", (TITAN_BLACK, TITAN_X), ids=("titan-black", "titan-x"))
@pytest.mark.parametrize("layout", (CHWN, NCHW), ids=str)
@pytest.mark.parametrize("tune_pooling", (False, True), ids=("plain", "tuned"))
@pytest.mark.parametrize("allow_fft", (False, True), ids=("nofft", "fft"))
def test_single_matches_legacy(name, dev, layout, tune_pooling, allow_fft, contexts):
    """The pipeline's ``single`` strategy (and the ``plan_single_layout``
    wrapper over it) equals the legacy cost table assembled in one layout."""
    ctx = contexts[dev.name]
    nodes = Net(build_network(name), context=ctx).planner_nodes(dev)
    costs = _build_costs(dev, nodes, tune_pooling, allow_fft, context=ctx)
    legacy = _assemble(
        dev, nodes, costs, [layout] * len(nodes), f"single-{layout}"
    )
    options = PipelineOptions(
        strategy="single",
        single_layout=layout,
        tune_pooling=tune_pooling,
        allow_fft=allow_fft,
    )
    pipeline = plan_nodes(dev, nodes, options, context=ctx).plan
    assert_plans_identical(pipeline, legacy)
    assert pipeline.strategy == legacy.strategy
    wrapper = plan_single_layout(
        dev, nodes, layout, tune_pooling=tune_pooling, allow_fft=allow_fft,
        context=ctx,
    )
    assert wrapper == legacy


@pytest.mark.parametrize("name", CHAIN_NETWORKS)
@pytest.mark.parametrize("strategy", ("heuristic", "optimal"))
def test_titan_x_matches_legacy(name, strategy, contexts):
    """The heuristic and optimal wrappers match the legacy planners on the
    second device too (its thresholds and costs differ)."""
    ctx = contexts[TITAN_X.name]
    nodes = Net(build_network(name), context=ctx).planner_nodes(TITAN_X)
    if strategy == "heuristic":
        legacy = _legacy_plan_with_heuristic(TITAN_X, nodes, context=ctx)
        got = plan_with_heuristic(TITAN_X, nodes, context=ctx)
    else:
        legacy = _legacy_plan_optimal(TITAN_X, nodes, context=ctx)
        got = plan_optimal(TITAN_X, nodes, context=ctx)
    assert_plans_identical(got, legacy)
    assert got.strategy == legacy.strategy
