"""Warp-level GPU memory-hierarchy simulator.

This package is the hardware substrate of the reproduction: device specs for
the paper's GPUs, a coalescing unit, a set-associative L2, a shared-memory
bank-conflict model, an occupancy calculator, and an analytic
``max(compute, memory)`` timing model with latency-bound and launch-overhead
terms.  Everything above it (layers, transforms, planners) expresses kernels
as :class:`KernelModel` objects and asks :class:`SimulationEngine` for time.
"""

from .batch import (
    CandidateBatch,
    EvalSpec,
    evaluate_batch,
    evaluate_models,
    evaluate_specs,
    launch_invalid_mask,
    set_batched_eval,
)
from .cache import (
    CacheStats,
    SetAssociativeCache,
    cache_sim_snapshot,
    min_round_sets,
    set_fast_path,
    set_min_round_sets,
    unique_line_hits,
)
from .coalescing import (
    CoalescingReport,
    analyze_warps,
    strided_pattern,
    warp_transactions,
)
from .device import (
    TITAN_BLACK,
    TITAN_X,
    ArchProfile,
    DeviceSpec,
    get_device,
    list_devices,
    register_device,
)
from .dram import MemoryServiceTimes, memory_service_time
from .engine import (
    GpuOutOfMemoryError,
    SequenceStats,
    SimulationEngine,
    simulate,
)
from .exec import (
    adaptive_chunk_size,
    evaluate_cells,
    map_chunks,
    pool_workers,
    resolve_jobs,
    shutdown_pool,
)
from .session import (
    SimStats,
    SimulationContext,
    default_context,
    global_sim_stats,
    reset_default_contexts,
    structural_key,
)
from .kernel import ComposedKernel, KernelModel, LaunchConfig, MemoryProfile
from .occupancy import (
    LaunchValidationError,
    LaunchViolation,
    Occupancy,
    check_launch,
    compute_occupancy,
    latency_hiding_factor,
)
from .reporting import (
    RooflinePoint,
    comparison_table,
    kernel_report,
    roofline_point,
)
from .rowbuffer import (
    DramGeometry,
    RowBufferStats,
    analyze_row_locality,
    reference_analyze_row_locality,
    stream_addresses,
)
from .sharedmem import (
    BankConflictReport,
    analyze_shared_access,
    conflict_degree,
    tile_column_access,
)
from .timing import KernelStats, time_kernel, time_model
from .trace import (
    TraceResult,
    analyze_trace,
    sample_indices,
    transaction_stream,
    transactions_for_stride,
    warps_from_threads,
)

__all__ = [
    "ArchProfile",
    "BankConflictReport",
    "CacheStats",
    "CandidateBatch",
    "EvalSpec",
    "CoalescingReport",
    "ComposedKernel",
    "DeviceSpec",
    "DramGeometry",
    "GpuOutOfMemoryError",
    "KernelModel",
    "KernelStats",
    "LaunchConfig",
    "LaunchValidationError",
    "LaunchViolation",
    "MemoryProfile",
    "MemoryServiceTimes",
    "Occupancy",
    "RooflinePoint",
    "RowBufferStats",
    "SequenceStats",
    "SetAssociativeCache",
    "SimStats",
    "SimulationContext",
    "SimulationEngine",
    "TITAN_BLACK",
    "TITAN_X",
    "TraceResult",
    "analyze_row_locality",
    "analyze_shared_access",
    "analyze_trace",
    "adaptive_chunk_size",
    "analyze_warps",
    "cache_sim_snapshot",
    "check_launch",
    "comparison_table",
    "compute_occupancy",
    "conflict_degree",
    "default_context",
    "evaluate_batch",
    "evaluate_cells",
    "evaluate_models",
    "evaluate_specs",
    "get_device",
    "global_sim_stats",
    "kernel_report",
    "latency_hiding_factor",
    "launch_invalid_mask",
    "list_devices",
    "map_chunks",
    "memory_service_time",
    "min_round_sets",
    "pool_workers",
    "reference_analyze_row_locality",
    "register_device",
    "resolve_jobs",
    "reset_default_contexts",
    "roofline_point",
    "sample_indices",
    "set_batched_eval",
    "set_fast_path",
    "set_min_round_sets",
    "shutdown_pool",
    "simulate",
    "structural_key",
    "stream_addresses",
    "strided_pattern",
    "tile_column_access",
    "time_kernel",
    "time_model",
    "transaction_stream",
    "transactions_for_stride",
    "unique_line_hits",
    "warp_transactions",
    "warps_from_threads",
]
