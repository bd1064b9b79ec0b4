"""Set-associative LRU cache model (the GPU's L2).

The paper's locality arguments — overlapped pooling windows re-reading
neighbouring pixels, im2col re-touching input rows — hinge on whether the
redundant accesses hit in L2 or reach DRAM.  This model answers exactly that
question for a stream of transaction addresses.

The simulator feeds *post-coalescing* transaction addresses (one per 32-byte
segment), so a "hit" here means the segment was still resident from an
earlier warp.

Two implementations share one state representation:

* :meth:`SetAssociativeCache.reference_access_stream` — the scalar
  per-address replay.  LRU is inherently sequential, so this loop is the
  ground truth, kept readable and used to validate the fast path.
* :meth:`SetAssociativeCache.access_stream` — the vectorized fast path.
  Cache sets are independent, so the stream is partitioned by set (one
  stable argsort) and each set's subsequence is resolved by the cheapest
  applicable method:

  1. **closed form** — when a set's working set (distinct new lines plus
     already-valid ways) fits in the associativity, nothing is ever
     evicted, so every access hits except the first touch of each
     non-resident line; no stateful replay is needed.
  2. **set-parallel rounds** — remaining sets are replayed one access per
     set per round, so each round is a single batched tag compare /
     LRU-victim update across all still-active sets.
  3. **scalar tail** — once fewer sets than ``MIN_ROUND_SETS`` remain
     active (a few heavy sets dominate, e.g. adversarial same-set thrash),
     their tails fall back to the per-access loop on that set's row only.

Both paths maintain identical state — tags, LRU stamps, counters — bit for
bit, which the property tests in ``tests/gpusim/test_cache_equivalence.py``
assert on randomized and adversarial traces.

A stream replayed into an empty cache (the traced pooling profiles replay
each stream into a fresh L2) skips the set partition for every set that
never evicts: one stable sort of line ids gives each line's first and last
touch, which is all the closed form needs, and only the sets that overflow
go through the partitioned replay.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..obs.metrics import global_registry
from ..obs.tracer import active_tracer
from .device import DeviceSpec

#: Below this many still-active sets, set-parallel rounds stop paying for
#: themselves (each round costs ~a dozen numpy calls) and the scalar tail
#: wins.  Purely a performance knob: the two sides of the cutoff maintain
#: bit-identical cache state, so any value is correct (see
#: :func:`set_min_round_sets`).
MIN_ROUND_SETS = 24

_FAST_PATH_DEFAULT = True

#: Sorts below every real LRU stamp (stamps are >= 0): marks hit ways in the
#: fused round probe of :meth:`SetAssociativeCache._replay_open`.
_SENTINEL = np.int64(np.iinfo(np.int64).min)

#: Module-wide accumulators: replay calls and wall seconds spent inside
#: cache replays.  :class:`~repro.gpusim.session.SimulationContext`
#: snapshots them around each kernel timing to attribute the cache-sim
#: share of simulation time per session.
_SIM_CALLS = 0
_SIM_WALL_S = 0.0


def set_min_round_sets(threshold: int) -> int:
    """Set the round→scalar-tail cutoff; returns the previous value.

    ``access_stream`` switches from set-parallel rounds to the scalar
    per-set tail once fewer than ``threshold`` sets remain active.  The
    cutoff only trades numpy dispatch overhead against loop iterations —
    both sides produce bit-identical cache state (asserted by
    ``tests/gpusim/test_cache_equivalence.py``), so tuning it can never
    change simulated results.  ``0`` disables the tail entirely;
    a very large value replays everything through the scalar tail.
    """
    global MIN_ROUND_SETS
    if threshold < 0:
        raise ValueError("min_round_sets threshold must be >= 0")
    previous = MIN_ROUND_SETS
    MIN_ROUND_SETS = int(threshold)
    return previous


def min_round_sets() -> int:
    """The current round→scalar-tail cutoff (see :func:`set_min_round_sets`)."""
    return MIN_ROUND_SETS


def set_fast_path(enabled: bool) -> bool:
    """Select the default ``access_stream`` implementation for new calls.

    Returns the previous setting.  Benchmarks flip this to time the scalar
    reference against the vectorized path on identical inputs; individual
    caches may also be constructed with an explicit ``fast_path=``.
    """
    global _FAST_PATH_DEFAULT
    previous = _FAST_PATH_DEFAULT
    _FAST_PATH_DEFAULT = bool(enabled)
    return previous


def fast_path_enabled() -> bool:
    """The current default ``access_stream`` implementation choice (the
    warm worker pool ships this to reused workers, whose forked module
    state may predate a toggle flip in the parent)."""
    return _FAST_PATH_DEFAULT


def _stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative integer ``keys`` that are below ``bound``.

    Keys that fit 16 bits are sorted as ``uint16``, for which NumPy's stable
    sort is a radix sort — over ten times faster than its int64 timsort on
    the tens of thousands of accesses a traced kernel replays.
    """
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def cache_sim_snapshot() -> tuple[int, float]:
    """(replay calls, wall seconds) accumulated by all caches so far."""
    return _SIM_CALLS, _SIM_WALL_S


@dataclass
class CacheStats:
    """Access/hit/miss/eviction counters for one simulation."""

    accesses: int = 0
    hits: int = 0
    evictions: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """A set-associative cache with true-LRU replacement.

    Implemented with NumPy arrays (tags + LRU timestamps) so that large
    address streams stay fast.  Addresses are byte addresses; the line size
    and geometry come from the device spec by default.  ``fast_path``
    pins this instance to the vectorized (True) or scalar reference (False)
    replay; None defers to the module default (see :func:`set_fast_path`).
    """

    def __init__(
        self,
        capacity_bytes: int,
        line_bytes: int = 32,
        assoc: int = 16,
        fast_path: bool | None = None,
    ) -> None:
        if capacity_bytes <= 0 or line_bytes <= 0 or assoc <= 0:
            raise ValueError("cache geometry must be positive")
        if capacity_bytes % (line_bytes * assoc):
            raise ValueError("capacity must be a multiple of line_bytes * assoc")
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.n_sets = capacity_bytes // (line_bytes * assoc)
        self.fast_path = fast_path
        self._tags = np.full((self.n_sets, assoc), -1, dtype=np.int64)
        self._stamp = np.zeros((self.n_sets, assoc), dtype=np.int64)
        self._clock = 0
        self.stats = CacheStats()

    @classmethod
    def l2_for(
        cls, device: DeviceSpec, fast_path: bool | None = None
    ) -> "SetAssociativeCache":
        """Build the L2 cache described by a device spec."""
        return cls(
            device.l2_bytes, device.l2_line_bytes, device.l2_assoc, fast_path
        )

    def reset(self) -> None:
        """Invalidate all lines and zero the counters."""
        self._tags.fill(-1)
        self._stamp.fill(0)
        self._clock = 0
        self.stats = CacheStats()

    def access(self, address: int) -> bool:
        """Access one byte address; return True on hit."""
        return bool(self.access_stream(np.asarray([address]))[0])

    # -- shared plumbing ----------------------------------------------------
    def _prepare(self, addresses: np.ndarray) -> np.ndarray:
        addr = np.asarray(addresses, dtype=np.int64).ravel()
        if addr.size and addr.min() < 0:
            raise ValueError("addresses must be non-negative")
        return addr

    def _finish(self, hits: np.ndarray, evictions: int, t0: float) -> np.ndarray:
        global _SIM_CALLS, _SIM_WALL_S
        n_accesses = int(hits.size)
        n_hits = int(hits.sum())
        self.stats.accesses += n_accesses
        self.stats.hits += n_hits
        self.stats.evictions += int(evictions)
        wall_s = time.perf_counter() - t0
        _SIM_CALLS += 1
        _SIM_WALL_S += wall_s
        registry = global_registry()
        registry.counter("cache_model.replays").inc()
        registry.counter("cache_model.accesses").inc(n_accesses)
        registry.counter("cache_model.wall_s").inc(wall_s)
        tracer = active_tracer()
        if tracer is not None:
            tracer.record(
                "l2-replay",
                "sim.cache",
                wall_s * 1e6,
                accesses=n_accesses,
                hits=n_hits,
                evictions=int(evictions),
            )
        return hits

    def access_stream(self, addresses: np.ndarray) -> np.ndarray:
        """Access a sequence of byte addresses in order; return the hit mask.

        Dispatches to the vectorized fast path unless this cache (or the
        module default, see :func:`set_fast_path`) selects the scalar
        reference.  Both produce identical hit masks, counters, and final
        tag/stamp state.  On the fast path, a cache that has seen no access
        yet replays through :meth:`_cold_replay`.
        """
        enabled = self.fast_path if self.fast_path is not None else _FAST_PATH_DEFAULT
        if not enabled:
            return self.reference_access_stream(addresses)
        t0 = time.perf_counter()
        addr = self._prepare(addresses)
        if addr.size <= 32:  # partition overhead beats the tiny scalar loop
            return self.reference_access_stream(addr)
        if not addr.size:
            return self._finish(np.zeros(0, dtype=bool), 0, t0)
        # The clock only ever advances with accesses, so at 0 every way is
        # still invalid.
        replay = self._cold_replay if self._clock == 0 else self._fast_replay
        hits, evictions = replay(addr)
        return self._finish(hits, evictions, t0)

    # -- scalar reference ---------------------------------------------------
    def reference_access_stream(self, addresses: np.ndarray) -> np.ndarray:
        """The scalar per-address LRU replay (ground truth for the fast path).

        The loop is per-access, but each probe is a single vectorized tag
        compare against the set's ways.
        """
        t0 = time.perf_counter()
        addr = self._prepare(addresses)
        lines = addr // self.line_bytes
        sets = lines % self.n_sets
        hits = np.zeros(addr.size, dtype=bool)
        tags = self._tags
        stamp = self._stamp
        clock = self._clock
        evictions = 0
        for i in range(addr.size):
            s = sets[i]
            line = lines[i]
            clock += 1
            row = tags[s]
            eq = row == line
            if eq.any():
                hits[i] = True
                stamp[s, int(eq.argmax())] = clock
            else:
                victim = int(stamp[s].argmin())
                if row[victim] >= 0:
                    evictions += 1
                tags[s, victim] = line
                stamp[s, victim] = clock
        self._clock = clock
        return self._finish(hits, evictions, t0)

    # -- vectorized fast path -----------------------------------------------
    def _cold_replay(self, addr: np.ndarray) -> tuple[np.ndarray, int]:
        """:meth:`_fast_replay` for a cache whose ways are all invalid.

        A set whose distinct lines fit the associativity never evicts: each
        line misses on its first touch only, fills the next invalid way in
        order of first touch (the reference's ``argmin`` over stamp 0) and
        ends stamped with its last touch.  One stable sort of the line ids
        gives every line's first and last touch, so those sets need no
        partition.  The accesses of the sets that overflow go through
        :meth:`_fast_replay` (sets are independent); its stamps count from
        the sub-stream's indices and are mapped back to the stream's.
        """
        n = addr.size
        clock0 = self._clock
        lines = addr // self.line_bytes
        order = np.argsort(lines, kind="stable")  # stream order within a line
        slines = lines[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(slines[1:], slines[:-1], out=first[1:])
        last = np.append(first[1:], True)
        dlines = slines[first]  # distinct lines and their first and last touch
        line_first = order[first]
        line_last = order[last]
        del order, slines, first, last
        dsets = dlines % self.n_sets
        fits = np.bincount(dsets, minlength=self.n_sets) <= self.assoc
        closed = np.flatnonzero(fits[dsets])
        if not closed.size:
            return self._fast_replay(addr)

        hits = np.ones(n, dtype=bool)
        hits[line_first[closed]] = False
        # Ways fill in order of first touch: rank each line within its set.
        csets = dsets[closed]
        by_touch = np.argsort(csets * n + line_first[closed])  # keys are distinct
        closed, csets = closed[by_touch], csets[by_touch]
        starts = np.flatnonzero(np.append(True, csets[1:] != csets[:-1]))
        lengths = np.diff(np.append(starts, csets.size))
        ways = np.arange(csets.size) - np.repeat(starts, lengths)
        self._tags[csets, ways] = dlines[closed]
        self._stamp[csets, ways] = clock0 + 1 + line_last[closed]

        evictions = 0
        if closed.size < dlines.size:
            over = np.flatnonzero(~fits[lines % self.n_sets])
            del lines, dlines, dsets, line_first, line_last, closed, csets
            hits[over], evictions = self._fast_replay(addr[over])
            # Overflowing sets fill every way, each stamped with a sub-stream
            # index; map it back to the stream index.
            rows = np.flatnonzero(~fits)
            self._stamp[rows] = clock0 + 1 + over[self._stamp[rows] - clock0 - 1]
        self._clock = clock0 + n
        return hits, evictions

    def _fast_replay(self, addr: np.ndarray) -> tuple[np.ndarray, int]:
        """Set-partitioned replay of ``addr``; returns (hit mask, evictions).

        State updates write the exact stamp values the reference would
        (``clock + 1 + original_index``), so tags and stamps end bit-equal.
        """
        n = addr.size
        lines = addr // self.line_bytes
        sets = lines % self.n_sets
        tags = self._tags
        clock0 = self._clock
        hits = np.zeros(n, dtype=bool)
        evictions = 0

        # Partition by set: stable, so stream order survives within a run.
        order = _stable_argsort(sets, self.n_sets)
        ssets = sets[order]
        slines = lines[order]
        sstamps = clock0 + 1 + order
        del lines, sets  # stream-order copies; keep the replay's peak down

        # Collapse adjacent duplicates within each set's subsequence: a
        # back-to-back re-touch of the same line (no other access to that
        # set in between) is a guaranteed hit whose only effect is carrying
        # the LRU stamp forward.  Common in real traces — neighbouring
        # transactions of one warp, window taps sharing a line — and it
        # shrinks the stateful replay below.
        # (A line determines its set, so equal lines mean the same set.)
        dup = np.zeros(n, dtype=bool)
        dup[1:] = slines[1:] == slines[:-1]
        if dup.any():
            hits[order[dup]] = True
            keep = np.flatnonzero(~dup)
            run_end = np.concatenate([keep[1:], [n]]) - 1
            sstamps = sstamps[run_end]  # each run's last (surviving) stamp
            ssets = ssets[keep]
            slines = slines[keep]
            order = order[keep]

        true_head = np.ones(1, dtype=bool)
        run_first = np.concatenate([true_head, ssets[1:] != ssets[:-1]])
        run_start = np.flatnonzero(run_first)
        run_of = np.cumsum(run_first) - 1  # run index of each sorted access
        run_sets = ssets[run_start]

        # Distinct (set, line) pairs, grouped by one stable sort on the
        # packed key (set, tag): within a pair group the stream order is
        # preserved, so the group's first element is the first stream
        # touch, its last the latest.  With line = tag * n_sets + set, the
        # largest key is below max(line) + n_sets, which fits uint64.
        tag_span = np.uint64(slines.max() // self.n_sets + 1)
        pkey = ssets.astype(np.uint64) * tag_span
        pkey += (slines // self.n_sets).astype(np.uint64)
        porder = np.argsort(pkey, kind="stable")
        pkey = pkey[porder]
        pair_first = np.concatenate([true_head, pkey[1:] != pkey[:-1]])
        first_pos = porder[pair_first]  # each pair's first touch
        up_sets = ssets[first_pos]
        up_run = np.searchsorted(run_sets, up_sets)
        distinct_per_run = np.bincount(up_run, minlength=run_sets.size)

        # Closed-form eligibility: the distinct new lines plus the ways
        # already valid fit in the associativity, so nothing is ever
        # evicted.  (Counting resident lines on both sides of the sum only
        # makes the test conservative.)
        valid_per_run = (tags[run_sets] >= 0).sum(axis=1)
        run_closed = distinct_per_run + valid_per_run <= self.assoc

        access_closed = run_closed[run_of]
        if access_closed.any():
            pair_last = np.concatenate([pair_first[1:], true_head])
            pc = run_closed[up_run]
            self._closed_form(
                hits,
                order,
                access_closed,
                up_sets[pc],
                slines[first_pos[pc]],
                first_pos[pc],
                sstamps[porder[pair_last]][pc],
                (valid_per_run > 0)[up_run][pc],
            )

        del pkey, porder, pair_first, first_pos, up_sets, up_run
        if not access_closed.all():
            open_mask = ~access_closed
            rank = np.arange(ssets.size) - run_start[run_of]
            evictions = self._replay_open(
                hits,
                order[open_mask],
                ssets[open_mask],
                slines[open_mask],
                sstamps[open_mask],
                rank[open_mask],
            )

        self._clock = clock0 + n
        return hits, evictions

    def _closed_form(
        self,
        hits: np.ndarray,
        order: np.ndarray,
        access_closed: np.ndarray,
        up_sets: np.ndarray,
        up_lines: np.ndarray,
        up_first_pos: np.ndarray,
        up_last_stamp: np.ndarray,
        up_set_valid: np.ndarray,
    ) -> None:
        """Resolve every closed-form set without stateful replay.

        ``up_*`` describe the distinct (set, line) pairs of closed sets
        only, sorted by set; ``up_first_pos`` is each pair's first touch as
        a position in the set-partitioned stream (``order`` maps it back to
        the stream), and ``up_set_valid`` marks pairs whose set holds a
        valid way (only those lines can be resident).  Hits: all accesses
        except the first stream touch of each non-resident line.  State:
        resident lines keep their way and take the stamp of their last
        touch; new lines fill the initially-invalid ways in ascending way
        order, in order of first touch — exactly the ways the reference's
        ``argmin`` picks, because invalid ways hold stamp 0 while valid ways
        hold stamps >= 1.
        """
        tags, stamp = self._tags, self._stamp
        hits[order[access_closed]] = True
        probed = np.flatnonzero(up_set_valid)
        eq = tags[up_sets[probed]] == up_lines[probed, None]
        found = eq.any(axis=1)
        resident = np.zeros(up_sets.size, dtype=bool)
        resident[probed[found]] = True
        first_miss = ~resident
        hits[order[up_first_pos[first_miss]]] = False

        if found.any():
            res = probed[found]
            stamp[up_sets[res], eq[found].argmax(axis=1)] = up_last_stamp[res]

        if first_miss.any():
            # Rank each new line within its set by order of first touch:
            # positions in the set-partitioned stream already order
            # accesses by set, then by stream index (and are distinct).
            ins = np.argsort(up_first_pos[first_miss])
            rs = up_sets[first_miss][ins]
            rstart = np.flatnonzero(
                np.concatenate([np.ones(1, dtype=bool), rs[1:] != rs[:-1]])
            )
            lengths = np.diff(np.concatenate([rstart, [rs.size]]))
            rank = np.arange(rs.size) - np.repeat(rstart, lengths)
            # Invalid ways of each inserting set, in ascending way order.
            iset = rs[rstart]
            way_order = np.argsort(tags[iset] >= 0, axis=1, kind="stable")
            ways = way_order[np.searchsorted(iset, rs), rank]
            tags[rs, ways] = up_lines[first_miss][ins]
            stamp[rs, ways] = up_last_stamp[first_miss][ins]

    def _replay_open(
        self,
        hits: np.ndarray,
        orig_idx: np.ndarray,
        osets: np.ndarray,
        olines: np.ndarray,
        ostamps: np.ndarray,
        rank: np.ndarray,
    ) -> int:
        """Stateful replay for sets whose working set exceeds associativity.

        Inputs are the open accesses in set-grouped stream order with their
        per-set rank.  Processes one access per set per *round* (a batched
        probe/update across all sets active in that round), then a scalar
        per-set tail once fewer than ``MIN_ROUND_SETS`` sets remain active.
        Returns the eviction count.
        """
        # Give each open set a slot, busiest first (ties by set).  The sets
        # active in round r -- those with more than r accesses -- are then
        # the first counts[r] slots, so each round reads and writes a
        # prefix of a compact copy of the open sets' state.
        group_start = np.flatnonzero(rank == 0)
        per_set = np.diff(np.append(group_start, rank.size))
        by_count = np.argsort(-per_set, kind="stable")
        slot_of_group = np.empty_like(by_count)
        slot_of_group[by_count] = np.arange(by_count.size)
        slot = np.repeat(slot_of_group, per_set)
        slot_sets = osets[group_start[by_count]]
        tags = self._tags[slot_sets]
        stamp = self._stamp[slot_sets]

        # Re-order by (rank, slot) so each round is a contiguous slice:
        # round r starts after the accesses of earlier rounds, and its
        # access in slot j sits j places in.
        counts = np.bincount(rank)  # accesses per round
        n_rounds = counts.size
        round_start = np.cumsum(counts) - counts
        r2 = np.empty_like(rank)
        r2[round_start[rank] + slot] = np.arange(rank.size)
        olines = olines[r2]
        ostamps = ostamps[r2]
        orig_idx = orig_idx[r2]
        slot = slot[r2]

        tag_flat, stamp_flat = tags.ravel(), stamp.ravel()
        lane0 = np.arange(int(counts[0])) * self.assoc  # flat index of way 0
        # The probed value of each round access's chosen way: _SENTINEL on
        # a hit, else the replaced way's stamp, which is > 0 exactly when
        # that way was valid (invalid ways hold 0, filled ways >= 1).
        picked = np.empty(ostamps.size, dtype=np.int64)
        pos = 0
        for r in range(n_rounds):
            m = int(counts[r])
            if m < MIN_ROUND_SETS:
                break
            end = pos + m
            rl = olines[pos:end]
            # Fused probe: a matching way sinks below every real stamp
            # (stamps are >= 0), so one argmin yields the hit way on a hit
            # and the LRU victim on a miss.
            probe = np.where(tags[:m] == rl[:, None], _SENTINEL, stamp[:m])
            way = probe.argmin(axis=1)
            way += lane0[:m]
            picked[pos:end] = probe.ravel()[way]
            tag_flat[way] = rl
            stamp_flat[way] = ostamps[pos:end]
            pos = end
        picked = picked[:pos]
        hits[orig_idx[:pos]] = picked == _SENTINEL
        evictions = int(np.count_nonzero(picked > 0))

        self._tags[slot_sets] = tags
        self._stamp[slot_sets] = stamp
        if pos == rank.size:
            return evictions

        # Scalar tail: few heavy sets remain; replay each on its own row.
        # The remaining accesses sit past ``pos``; regroup them by slot;
        # the stable sort preserves rank (stream) order.
        t2 = _stable_argsort(slot[pos:], by_count.size) + pos
        tsets = slot_sets[slot[t2]]
        tlines = olines[t2]
        tstamps = ostamps[t2]
        torig = orig_idx[t2]
        tstart = np.concatenate(
            [[0], np.flatnonzero(tsets[1:] != tsets[:-1]) + 1, [tsets.size]]
        )
        for g in range(tstart.size - 1):
            lo, hi = tstart[g], tstart[g + 1]
            s = int(tsets[lo])
            row = self._tags[s]
            st = self._stamp[s]
            for j in range(lo, hi):
                line = tlines[j]
                eq = row == line
                if eq.any():
                    hits[torig[j]] = True
                    st[int(eq.argmax())] = tstamps[j]
                else:
                    victim = int(st.argmin())
                    if row[victim] >= 0:
                        evictions += 1
                    row[victim] = line
                    st[victim] = tstamps[j]
        return evictions


def unique_line_hits(addresses: np.ndarray, line_bytes: int = 32) -> tuple[int, int]:
    """Fast infinite-cache estimate: (accesses, hits-if-cache-were-infinite).

    Useful as an upper bound on locality: every repeat touch of a line hits.
    """
    addr = np.asarray(addresses, dtype=np.int64).ravel()
    lines = addr // line_bytes
    n_unique = int(np.unique(lines).size)
    return int(lines.size), int(lines.size) - n_unique
