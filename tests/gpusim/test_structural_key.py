"""Structural cache keys are byte-identical to the reference builder.

:func:`structural_key` hashes ``json.dumps({"device": _describe(device),
"kernel": _describe(model)}, sort_keys=True, separators=(",", ":"))``.
Production builds those bytes in one pass with a memoised device fragment;
:func:`reference_key` below is the straightforward builder it must match
byte for byte, so session caches, the exec memo, worker merge-back and
saved cache files keep working across the change.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from hashlib import sha256
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gpusim.exec as exec_mod
import repro.gpusim.session as session
from repro.analysis.sweeps import sweep_conv, sweep_pool
from repro.baselines.schemes import compare_schemes
from repro.core.calibration import calibrate
from repro.core.pipeline import PipelineOptions, plan_network
from repro.framework.net import Net
from repro.gpusim import ComposedKernel, LaunchConfig, MemoryProfile, SimulationContext
from repro.gpusim.device import TITAN_BLACK, TITAN_X
from repro.gpusim.kernel import KernelModel
from repro.gpusim.session import _describe, structural_key
from repro.layers import ConvSpec, PoolSpec
from repro.layers.conv_kernels import (
    CONV_IMPLEMENTATIONS,
    ConvUnsupportedError,
    make_conv_kernel,
)
from repro.layers.pooling_kernels import POOL_IMPLEMENTATIONS, make_pool_kernel
from repro.networks.definitions import NETWORK_BUILDERS, build_network
from repro.networks.table1 import CONV_LAYERS, POOL_LAYERS


def reference_key(model: KernelModel, device) -> str:
    """The golden key builder: describe, then one ``json.dumps``."""
    payload = json.dumps(
        {"device": _describe(device), "kernel": _describe(model)},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = sha256(payload.encode()).hexdigest()[:32]
    return f"{model.name}@{device.name}#{digest}"


def assert_golden(model: KernelModel, device) -> str:
    key = structural_key(model, device)
    assert key == reference_key(model, device)
    return key


@pytest.fixture
def checked_keys(monkeypatch):
    """Route every key the program computes through :func:`assert_golden`
    (both modules that call :func:`structural_key`); yields the keys seen."""
    seen: list[str] = []

    def checked(model, device):
        seen.append(assert_golden(model, device))
        return seen[-1]

    monkeypatch.setattr(session, "structural_key", checked)
    monkeypatch.setattr(exec_mod, "structural_key", checked)
    return seen


class TestPinnedKeys:
    """Keys pinned from before the single-pass builder existed: saved cache
    files and the exec memo depend on these exact digests."""

    @pytest.mark.parametrize(
        "model, device, key",
        [
            (
                lambda: make_conv_kernel(CONV_LAYERS["CV1"], "im2col"),
                TITAN_BLACK,
                "conv-mm-nchw@GTX Titan Black#3ba40eda81b521c5accabde67fe99461",
            ),
            (
                lambda: make_conv_kernel(CONV_LAYERS["CV7"], "fft"),
                TITAN_X,
                "conv-fft-nchw@GTX Titan X#f19eccc8e179118424c2b9e8feedd812",
            ),
            (
                lambda: make_pool_kernel(POOL_LAYERS["PL3"], "nchw-linear"),
                TITAN_BLACK,
                "pool-nchw-linear@GTX Titan Black#715764ef3aea35005e8a6121c3717069",
            ),
        ],
    )
    def test_digest_is_unchanged(self, model, device, key):
        assert assert_golden(model(), device) == key


class TestProgramKernels:
    @pytest.mark.parametrize("network", sorted(NETWORK_BUILDERS))
    def test_plans_and_schemes(self, network, checked_keys):
        """Every kernel the optimal and heuristic planners and the seven
        schemes price, on both devices at two batch sizes."""
        for device in (TITAN_BLACK, TITAN_X):
            ctx = SimulationContext(device)
            for batch in (16, 128):
                netdef = build_network(network, batch)
                for strategy in ("optimal", "heuristic"):
                    plan_network(
                        device, netdef, PipelineOptions(strategy=strategy), context=ctx
                    )
                compare_schemes(Net(netdef), device, context=ctx)
        assert len(checked_keys) > 100

    def test_sweep_grid_cells(self, checked_keys):
        """Every cell kernel of one sweep-grid op: conv and pool sweeps over
        each Table-1 layer plus calibration, through the exec memo."""
        ctx = SimulationContext(TITAN_X)
        for i, (name, spec) in enumerate(sorted(CONV_LAYERS.items())):
            dimension, values = ("n", (1, 33, 200)) if i % 2 else ("ci", (3, 17, 256))
            sweep_conv(
                TITAN_X, spec, dimension, values, ("direct", "im2col", "fft"), context=ctx
            )
        for spec in POOL_LAYERS.values():
            sweep_pool(TITAN_X, spec, "n", (1, 48, 512), ("chwn",), context=ctx)
        calibrate(TITAN_X, context=ctx)
        assert len(checked_keys) > 100


conv_specs = st.builds(
    ConvSpec,
    n=st.integers(1, 512),
    ci=st.integers(1, 256),
    h=st.integers(5, 64),
    w=st.integers(5, 64),
    co=st.integers(1, 256),
    fh=st.sampled_from([1, 3, 5]),
    fw=st.sampled_from([1, 3, 5]),
    stride=st.integers(1, 2),
    pad=st.integers(0, 2),
)

pool_specs = st.builds(
    PoolSpec,
    n=st.integers(1, 512),
    c=st.integers(1, 256),
    h=st.integers(4, 64),
    w=st.integers(4, 64),
    window=st.integers(2, 3),
    stride=st.integers(1, 3),
    op=st.sampled_from(["max", "avg"]),
)


class TestDrawnKernels:
    @given(spec=conv_specs, device=st.sampled_from([TITAN_BLACK, TITAN_X]))
    @settings(max_examples=40, deadline=None)
    def test_conv(self, spec, device):
        for implementation in CONV_IMPLEMENTATIONS:
            try:
                model = make_conv_kernel(spec, implementation)
            except ConvUnsupportedError:
                continue
            assert_golden(model, device)

    @given(spec=pool_specs, device=st.sampled_from([TITAN_BLACK, TITAN_X]))
    @settings(max_examples=40, deadline=None)
    def test_pool(self, spec, device):
        for implementation in POOL_IMPLEMENTATIONS:
            assert_golden(make_pool_kernel(spec, implementation), device)


# ---------------------------------------------------------------------------
# edge types: every value the fast encoder writes itself, and every kind it
# hands back to ``_describe``
# ---------------------------------------------------------------------------


class Color(enum.Enum):
    RED = 1
    BLUE = "blue"


class Level(enum.IntEnum):
    LOW = 1


class Tag(str):
    pass


class Ratio(float):
    pass


class Point(NamedTuple):
    x: int
    y: float


@dataclass(frozen=True)
class Inner:
    label: str
    weight: float


@dataclass
class Outer:
    zeta: Inner
    alpha: tuple
    mid: list


@dataclass(frozen=True, init=False)
class IntDataclass(int):
    """Both an ``int`` and a dataclass: ``_describe`` treats it as an int."""

    extra: int = 0


class StateKernel(KernelModel):
    """A kernel whose structural state is whatever the test hands it."""

    def __init__(self, name="toy-state", **state):
        self.name = name
        for key, value in state.items():
            setattr(self, key, value)

    def launch_config(self, device):
        return LaunchConfig(grid=(8, 1, 1), block=(64, 1, 1))

    def flop_count(self):
        return 1e6

    def memory_profile(self, device):
        return MemoryProfile.coalesced(1e5, 1e5)


class ExplicitStateKernel(StateKernel):
    """Overrides :meth:`structural_state` with non-``str`` keys."""

    def __init__(self, state, name="toy-explicit"):
        self.name = name
        self._state = state

    def structural_state(self):
        return self._state


EDGE_VALUES = {
    "nan": math.nan,
    "inf": math.inf,
    "ninf": -math.inf,
    "negzero": -0.0,
    "tiny": 5e-324,
    "huge_int": 2**80,
    "neg_int": -7,
    "true": True,
    "one": 1,
    "none": None,
    "non_ascii": "café 漢字 \U0001f600 \"quoted\" \\ \n\t",
    "empty": "",
    "nested": ((1, [2.5, (None, "x")]), [], ()),
    "dict_int_keys": {2: "b", 10: "a"},
    "dict_mixed": {"k": (1, 2), "j": {"deep": [0.1]}},
    "set": {3, 1, 2},
    "frozenset": frozenset({"b", "a"}),
    "enum": Color.RED,
    "enum_str": Color.BLUE,
    "int_enum": Level.LOW,
    "str_subclass": Tag("tag"),
    "float_subclass": Ratio(0.5),
    "named_tuple": Point(1, 2.0),
    "np_float": np.float64(1.5),
    "np_float32": np.float32(0.1),
    "np_int": np.int64(3),
    "np_bool": np.bool_(True),
    "dataclass": Outer(Inner("ü", 1e-9), (Inner("a", 0.0),), [1, "two"]),
    "int_dataclass": IntDataclass(5),
    "layout": LaunchConfig(grid=(2, 2), block=(32,)),
    "kernel": StateKernel(name="child", x=1),
    "composed": ComposedKernel(
        kernels=[StateKernel(name="a", v=1.0), StateKernel(name="b", v=(1, 2))],
        name="ab",
    ),
}


class TestEdgeTypes:
    @pytest.mark.parametrize("device", [TITAN_BLACK, TITAN_X])
    @pytest.mark.parametrize("field", sorted(EDGE_VALUES))
    def test_each_value(self, field, device):
        assert_golden(StateKernel(**{field: EDGE_VALUES[field]}), device)

    def test_all_values_in_one_state(self, device):
        assert_golden(StateKernel(**EDGE_VALUES), device)

    def test_true_and_one_key_differently(self, device):
        assert assert_golden(StateKernel(v=True), device) != assert_golden(
            StateKernel(v=1), device
        )

    @pytest.mark.parametrize(
        "state", [{1: "a", 2: "b"}, {"b": 1, "a": 2.5}, {}], ids=["int", "str", "empty"]
    )
    def test_overridden_state(self, state, device):
        assert_golden(ExplicitStateKernel(state), device)

    @pytest.mark.parametrize("name", ["café", Tag("t"), 3, None])
    def test_header_values(self, name, device):
        """``name`` and ``n_launches`` are written as JSON, not described."""
        model = StateKernel(name=name, v=1)
        model.n_launches = 2.0
        assert_golden(model, device)


class TestMemoSafety:
    @pytest.mark.parametrize(
        "first, second",
        [
            (
                replace(TITAN_BLACK, peak_gflops=5000),
                replace(TITAN_BLACK, peak_gflops=5000.0),
            ),
            (TITAN_BLACK, replace(TITAN_BLACK, mem_bandwidth_gbs=100.0)),
        ],
        ids=["int-vs-float", "replaced-bandwidth"],
    )
    def test_each_device_object_gets_its_own_key(self, first, second):
        model = StateKernel(v=1)
        assert assert_golden(model, first) != assert_golden(model, second)

    def test_int_and_float_devices_compare_equal(self):
        """Why the device memo is keyed by identity: these two are ``==``
        with one hash, yet describe differently."""
        a = replace(TITAN_BLACK, peak_gflops=5000)
        b = replace(TITAN_BLACK, peak_gflops=5000.0)
        assert a == b and hash(a) == hash(b)
        assert _describe(a) != _describe(b)

    def test_kernel_changed_after_keying_gets_a_new_key(self, device):
        model = StateKernel(v=1, w=(1, 2))
        before = assert_golden(model, device)
        model.w = (1, 3)
        assert assert_golden(model, device) != before

    def test_device_memo_stays_bounded(self):
        model = StateKernel(v=1)
        devices = [
            replace(TITAN_BLACK, mem_bandwidth_gbs=100.0 + i)
            for i in range(3 * session._DEVICE_JSON_MAX)
        ]
        keys = {assert_golden(model, d) for d in devices}
        assert len(keys) == len(devices)
        assert len(session._DEVICE_JSON) <= session._DEVICE_JSON_MAX
        assert_golden(model, devices[0])  # evicted long ago, keyed afresh
