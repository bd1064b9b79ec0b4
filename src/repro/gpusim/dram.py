"""DRAM service model.

Converts a :class:`~repro.gpusim.kernel.MemoryProfile` into the three memory
service times the simulator takes a maximum over:

* **bandwidth time** — DRAM bytes over sustainable bandwidth (degraded at
  low occupancy via the latency-hiding factor);
* **LSU/L2 time** — total transactions over the chip's transaction issue
  throughput (one 32-byte transaction per SM per cycle), which penalizes
  badly coalesced kernels even when their DRAM footprint is small;
* **latency time** — a Little's-law bound: with ``T`` concurrently resident
  threads each sustaining ``mlp`` outstanding requests of latency ``L``, at
  most ``T * mlp / L`` transactions complete per second.  This is the term
  that makes the 128-thread baseline softmax slow, exactly as the paper
  describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.metrics import global_registry
from .device import DeviceSpec
from .kernel import MemoryProfile
from .occupancy import Occupancy, latency_hiding_factor


@dataclass(frozen=True)
class MemoryServiceTimes:
    """Per-mechanism memory service times, in seconds."""

    bandwidth_s: float
    lsu_s: float
    latency_s: float
    dram_bytes: float

    @property
    def total_s(self) -> float:
        """Binding memory time: the slowest of the three mechanisms."""
        return max(self.bandwidth_s, self.lsu_s, self.latency_s)

    @property
    def limiter(self) -> str:
        times = {
            "dram_bandwidth": self.bandwidth_s,
            "transaction_issue": self.lsu_s,
            "memory_latency": self.latency_s,
        }
        return max(times, key=lambda k: times[k])


def memory_service_time(
    device: DeviceSpec, profile: MemoryProfile, occ: Occupancy
) -> MemoryServiceTimes:
    """Compute the memory-side service times for one kernel launch."""
    dram_bytes = profile.dram_bytes(device.transaction_bytes)

    hiding = latency_hiding_factor(device, occ)
    width_eff = device.access_bw_efficiency(profile.access_bytes)
    sustainable_bw = device.mem_bandwidth_gbs * 1e9 * width_eff * max(hiding, 1e-9)
    bandwidth_s = dram_bytes / sustainable_bw if dram_bytes else 0.0

    # Transaction issue: 1 transaction per SM-cycle across the chip, shared
    # by L2 hits and DRAM fills alike; bank-conflict replays serialize the
    # pipeline the same way.
    issue_rate = device.sm_count * device.clock_ghz * 1e9
    lsu_s = (
        profile.total_transactions * profile.smem_conflict_degree / issue_rate
        if profile.total_transactions
        else 0.0
    )

    # Little's law: resident threads bound outstanding requests.
    resident_threads = min(
        occ.total_threads,
        occ.active_warps_per_sm * device.warp_size * device.sm_count,
    ) * occ.active_lane_fraction
    outstanding = max(1.0, resident_threads * device.arch.mlp_per_thread)
    latency_sec = device.mem_latency_cycles / (device.clock_ghz * 1e9)
    # Loop-carried dependences cap per-thread pipelining: a thread with a
    # fully serial chain of `dependent_iterations` rounds cannot overlap them.
    serial_rounds = max(1.0, profile.dependent_iterations / device.arch.mlp_per_thread)
    latency_s = max(
        profile.total_transactions * latency_sec / outstanding,
        serial_rounds * latency_sec if profile.total_transactions else 0.0,
    )

    result = MemoryServiceTimes(
        bandwidth_s=bandwidth_s,
        lsu_s=lsu_s,
        latency_s=latency_s,
        dram_bytes=dram_bytes,
    )
    # Tally which mechanism bound each evaluated kernel — the roofline-style
    # attribution (`dram.limiter.*` in the metrics snapshot).
    registry = global_registry()
    registry.counter(f"dram.limiter.{result.limiter}").inc()
    registry.counter("dram.bytes_total").inc(dram_bytes)
    return result
