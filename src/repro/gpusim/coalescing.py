"""Warp-level memory coalescing model.

On Kepler-class GPUs a warp's 32 global accesses are serviced as a set of
32-byte DRAM transactions (L1 is bypassed for global loads).  The number of
distinct 32-byte segments a warp touches is therefore the fundamental
measure of access efficiency: a fully coalesced float32 warp load touches 4
segments; a stride-N load can touch up to 32, over-fetching 8x.

This module converts per-warp byte addresses into transaction counts.  It is
pure NumPy and fully vectorized so the simulator can push millions of sampled
addresses through it cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceSpec


@dataclass(frozen=True)
class CoalescingReport:
    """Aggregate coalescing statistics for a batch of warps.

    Attributes
    ----------
    warps:
        Number of warps analysed.
    transactions:
        Total memory transactions issued.
    useful_bytes:
        Bytes actually requested by threads.
    fetched_bytes:
        Bytes moved over the memory bus (transactions * segment size).
    """

    warps: int
    transactions: int
    useful_bytes: int
    fetched_bytes: int

    @property
    def transactions_per_warp(self) -> float:
        """Average transactions per warp (1..32 for 4-byte accesses)."""
        return self.transactions / self.warps if self.warps else 0.0

    @property
    def efficiency(self) -> float:
        """Fraction of fetched bytes that were requested (0..1]."""
        return self.useful_bytes / self.fetched_bytes if self.fetched_bytes else 0.0

    @property
    def overfetch(self) -> float:
        """Bus amplification factor (1.0 = perfectly coalesced)."""
        return self.fetched_bytes / self.useful_bytes if self.useful_bytes else 0.0

    def merged(self, other: "CoalescingReport") -> "CoalescingReport":
        """Combine two reports (e.g. loads and stores of one kernel)."""
        return CoalescingReport(
            warps=self.warps + other.warps,
            transactions=self.transactions + other.transactions,
            useful_bytes=self.useful_bytes + other.useful_bytes,
            fetched_bytes=self.fetched_bytes + other.fetched_bytes,
        )


def warp_transactions(
    addresses: np.ndarray, device: DeviceSpec, access_bytes: int = 4
) -> np.ndarray:
    """Count transactions per warp for a ``(warps, warp_size)`` address array.

    Parameters
    ----------
    addresses:
        Integer byte addresses, shape ``(n_warps, warp_size)``.  Negative
        addresses mark inactive lanes (predicated-off threads) and are
        ignored.
    device:
        Device supplying the transaction segment size.
    access_bytes:
        Size of each thread's access (4 for float, 8 for float2).

    Returns
    -------
    np.ndarray
        ``(n_warps,)`` int64 array of transaction counts.
    """
    return _first_touches(addresses, device, access_bytes).sum(axis=1, dtype=np.int64)


def _first_touches(
    addresses: np.ndarray, device: DeviceSpec, access_bytes: int
) -> np.ndarray:
    """Boolean ``(warps, k)`` mask with one True per distinct segment a
    warp's active lanes touch, so a row's sum is its transaction count."""
    addr = np.asarray(addresses, dtype=np.int64)
    if addr.ndim != 2:
        raise ValueError(f"expected (warps, lanes) addresses, got shape {addr.shape}")
    if addr.shape[1] > device.warp_size:
        raise ValueError(
            f"{addr.shape[1]} lanes exceeds warp size {device.warp_size}"
        )
    return segment_touches(addr, device.transaction_bytes, access_bytes)[1]


def segment_touches(
    addresses: np.ndarray, segment_bytes: int, access_bytes: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """Row-sorted segment ids of a ``(warps, lanes)`` int64 trace and its
    first-touch mask.

    The mask has one True per distinct segment a warp's active lanes touch,
    so ``segments[new]`` lists each warp's distinct segments, ascending, in
    warp order.
    """
    # Floor division keeps inactive lanes negative; for a power-of-two
    # segment the arithmetic shift floors too, and costs less.
    if segment_bytes & (segment_bytes - 1):
        first = addresses // segment_bytes
        offset = addresses - first * segment_bytes
    else:
        first = addresses >> (int(segment_bytes).bit_length() - 1)
        offset = addresses & (segment_bytes - 1)
    # An access of `access_bytes` starting at addr straddles two segments,
    # touching both its first and last byte's segment, when it starts in
    # its segment's last access_bytes - 1 bytes.  Aligned accesses never
    # do, and then the first segments alone are the whole set.
    straddles = offset > segment_bytes - access_bytes
    if straddles.any():
        active = addresses >= 0
        if (straddles & active).any():
            last = (addresses + access_bytes - 1) // segment_bytes
            first = np.concatenate([first, np.where(active, last, np.int64(-1))], axis=1)
    segments = np.sort(first, axis=1)
    # A segment is newly touched where it differs from its left neighbour.
    new = segments >= 0
    new[:, 1:] &= segments[:, 1:] != segments[:, :-1]
    return segments, new


def analyze_warps(
    addresses: np.ndarray, device: DeviceSpec, access_bytes: int = 4
) -> CoalescingReport:
    """Run the coalescing unit over sampled warps and aggregate statistics."""
    addr = np.asarray(addresses, dtype=np.int64)
    transactions = int(np.count_nonzero(_first_touches(addr, device, access_bytes)))
    active = int(np.count_nonzero(addr >= 0))
    return CoalescingReport(
        warps=addr.shape[0],
        transactions=transactions,
        useful_bytes=active * access_bytes,
        fetched_bytes=transactions * device.transaction_bytes,
    )


def strided_pattern(
    n_warps: int,
    stride_bytes: int,
    device: DeviceSpec,
    base: int = 0,
    access_bytes: int = 4,
) -> np.ndarray:
    """Build a synthetic ``(n_warps, warp_size)`` strided address pattern.

    Each warp ``w`` starts at ``base + w * warp_size * stride_bytes`` and its
    lanes step by ``stride_bytes``.  Stride equal to ``access_bytes`` yields a
    fully coalesced pattern; larger strides model the NCHW pooling and naive
    transpose access patterns the paper identifies as inefficient.
    """
    if n_warps <= 0:
        raise ValueError("n_warps must be positive")
    lanes = np.arange(device.warp_size, dtype=np.int64)
    warps = np.arange(n_warps, dtype=np.int64)[:, None]
    return base + (warps * device.warp_size + lanes) * stride_bytes
