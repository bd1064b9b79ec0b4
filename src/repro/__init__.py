"""repro — memory-efficiency optimizations for deep CNNs on GPUs.

A faithful reproduction of Li et al., *Optimizing Memory Efficiency for
Deep Convolutional Neural Networks on GPUs* (SC'16), built on a warp-level
GPU memory-hierarchy simulator:

* :mod:`repro.gpusim` — device specs, coalescing, L2, occupancy, timing;
* :mod:`repro.tensors` — 4-D layouts, layout-aware tensors, the fast
  transformation kernels (Fig. 7);
* :mod:`repro.layers` — conv/pool/softmax/FC layers, each with a numeric
  implementation and GPU kernel models per layout;
* :mod:`repro.core` — the paper's contribution: layout heuristic,
  calibration, network planner, pooling auto-tuner, softmax fusion;
* :mod:`repro.framework` — the Caffe-analog runtime with plan-driven
  execution;
* :mod:`repro.networks` — LeNet / CIFAR / AlexNet / ZFNet / VGG and the
  Table-1 layer zoo;
* :mod:`repro.baselines` — cuda-convnet / Caffe / cuDNN execution models
  and the ``Opt`` whole-network scheme (Fig. 14).

Quickstart::

    from repro import TITAN_BLACK, Net, build_network, time_network
    net = Net(build_network("alexnet"))
    opt = time_network(net, TITAN_BLACK, "opt")
    mm = time_network(net, TITAN_BLACK, "cudnn-mm")
    print(f"Opt speedup over cuDNN-MM: {opt.speedup_over(mm):.2f}x")
"""

from .baselines import SCHEMES, NetworkTiming, compare_schemes, time_network
from .core import (
    LayoutThresholds,
    autotune_pooling,
    calibrate,
    fuse_softmax,
    plan_optimal,
    plan_single_layout,
    plan_with_heuristic,
    preferred_conv_layout,
    preferred_pool_layout,
    thresholds_for,
)
from .analysis import crossovers, sweep_conv, sweep_pool, sweep_softmax
from .framework import (
    Net,
    NetworkDef,
    Trainer,
    build_net,
    format_netdef,
    parse_netdef,
    train,
)
from .gpusim import (
    TITAN_BLACK,
    TITAN_X,
    DeviceSpec,
    SimStats,
    SimulationContext,
    default_context,
    get_device,
    global_sim_stats,
)
from .layers import ConvSpec, FCSpec, PoolSpec, SoftmaxSpec
from .networks import CONV_LAYERS, POOL_LAYERS, build_network
from .tensors import CHWN, NCHW, DataLayout, Tensor4D, TensorDesc, transform

__version__ = "1.0.0"

__all__ = [
    "CHWN",
    "CONV_LAYERS",
    "ConvSpec",
    "DataLayout",
    "DeviceSpec",
    "FCSpec",
    "LayoutThresholds",
    "NCHW",
    "Net",
    "NetworkDef",
    "NetworkTiming",
    "POOL_LAYERS",
    "PoolSpec",
    "SCHEMES",
    "SimStats",
    "SimulationContext",
    "SoftmaxSpec",
    "TITAN_BLACK",
    "TITAN_X",
    "Tensor4D",
    "TensorDesc",
    "__version__",
    "autotune_pooling",
    "build_net",
    "build_network",
    "calibrate",
    "compare_schemes",
    "default_context",
    "format_netdef",
    "fuse_softmax",
    "get_device",
    "global_sim_stats",
    "parse_netdef",
    "plan_optimal",
    "plan_single_layout",
    "plan_with_heuristic",
    "preferred_conv_layout",
    "preferred_pool_layout",
    "thresholds_for",
    "time_network",
    "train",
    "Trainer",
    "transform",
    "sweep_conv",
    "sweep_pool",
    "sweep_softmax",
    "crossovers",
]
