"""``SetAssociativeCache.access_stream`` into an empty cache: sets that never
evict are resolved from one sort of line ids, and only overflowing sets go
through the set-partitioned replay.

Golden reference: ``reference_access_stream`` on a fresh cache of the same
geometry (the scalar true-LRU loop), compared on hit masks, counters and
the full state (tags, LRU stamps, clock).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpusim import SetAssociativeCache
from repro.gpusim.cache import cache_sim_snapshot, set_fast_path
from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.obs.metrics import global_registry
from tests.gpusim.test_cache_equivalence import _assert_same_state


@st.composite
def mixed_streams(draw):
    """Streams over a few sets where some sets fit the associativity and a
    few hot sets overflow it, with repeats; 0 to 32 accesses or longer."""
    assoc = draw(st.sampled_from([1, 2, 4, 16]))
    n_sets = draw(st.sampled_from([1, 2, 3, 8, 64]))
    line = draw(st.sampled_from([1, 32]))
    n = draw(st.one_of(st.integers(0, 32), st.integers(33, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = rng.integers(0, n_sets, size=n)
    # Each set draws its tags from a pool sized around its associativity:
    # pools of at most ``assoc`` fit (closed form), larger ones overflow.
    pool = rng.integers(1, 3 * assoc + 2, size=n_sets)
    hot = rng.random(n_sets) < draw(st.sampled_from([0.0, 0.2, 1.0]))
    pool = np.where(hot, pool, np.minimum(pool, assoc))
    tags = rng.integers(0, pool[sets])
    if n and draw(st.booleans()):  # back-to-back repeats
        tags = np.repeat(tags, 2)[:n]
        sets = np.repeat(sets, 2)[:n]
    addr = (tags * n_sets + sets) * line + rng.integers(0, line, size=n)
    return line * assoc * n_sets, line, assoc, addr.astype(np.int64)


def _fresh_pair(capacity, line, assoc):
    return (
        SetAssociativeCache(capacity, line, assoc, fast_path=False),
        SetAssociativeCache(capacity, line, assoc, fast_path=True),
    )


class TestColdReplayEquivalence:
    @given(case=mixed_streams())
    @example((32 * 4 * 8, 32, 4, np.empty(0, dtype=np.int64)))
    @settings(max_examples=150, deadline=None)
    def test_matches_fresh_reference_replay(self, case):
        capacity, line, assoc, addr = case
        ref, fast = _fresh_pair(capacity, line, assoc)
        np.testing.assert_array_equal(
            fast.access_stream(addr), ref.reference_access_stream(addr)
        )
        _assert_same_state(ref, fast)
        # The state left behind (ways, stamps, clock) carries the next
        # stream exactly as the reference's does.
        again = np.roll(addr, 7)
        np.testing.assert_array_equal(
            fast.access_stream(again), ref.reference_access_stream(again)
        )
        _assert_same_state(ref, fast)

    def test_overflowing_and_fitting_sets_together(self):
        """Set 0 cycles assoc + 1 lines and misses every access; set 1
        cycles assoc lines and misses only their first touches."""
        n_sets, assoc = 4, 2
        capacity = 32 * assoc * n_sets
        thrash = (np.arange(300) % (assoc + 1)) * n_sets
        fits = (np.arange(300) % assoc) * n_sets + 1
        addr = np.ravel(np.column_stack([thrash, fits])) * 32
        ref, fast = _fresh_pair(capacity, 32, assoc)
        hits = fast.access_stream(addr)
        np.testing.assert_array_equal(hits, ref.reference_access_stream(addr))
        _assert_same_state(ref, fast)
        assert not hits[0::2].any()
        assert hits[1::2].sum() == 300 - assoc

    def test_reset_cache_is_cold_again(self):
        rng = np.random.default_rng(5)
        addr = rng.integers(0, 64 * 1024, size=3000)
        ref, fast = _fresh_pair(8 * 1024, 32, 4)
        for cache in (ref, fast):
            cache.access_stream(addr)
            cache.reset()
        np.testing.assert_array_equal(
            fast.access_stream(addr[::-1]), ref.reference_access_stream(addr[::-1])
        )
        _assert_same_state(ref, fast)


def _replays():
    registry = global_registry()
    return (
        registry.counter("cache_model.replays").value,
        registry.counter("cache_model.accesses").value,
    )


class TestColdReplayAccounting:
    """A stream is recorded once, with all its accesses, whichever way its
    sets are priced."""

    @pytest.mark.parametrize(
        "assoc", [16, 4, 1], ids=["closed-form", "mixed", "overflow-replay"]
    )
    def test_one_span_with_the_stream_length(self, assoc):
        addr = (np.arange(5000) % 40) * 32
        cache = SetAssociativeCache(32 * assoc * 8, 32, assoc)
        calls, _ = cache_sim_snapshot()
        replays, accesses = _replays()
        tracer = install_tracer(Tracer("test"))
        try:
            hits = cache.access_stream(addr)
        finally:
            uninstall_tracer()
        spans = [s for s in tracer.spans() if s.category == "sim.cache"]
        assert len(spans) == 1
        assert spans[0].attrs["accesses"] == addr.size
        assert spans[0].attrs["hits"] == int(hits.sum())
        assert cache_sim_snapshot()[0] == calls + 1
        assert _replays() == (replays + 1, accesses + addr.size)

    def test_fast_path_off_routes_through_the_reference(self, monkeypatch):
        seen = []
        original = SetAssociativeCache.reference_access_stream

        def spy(self, addresses):
            seen.append(len(addresses))
            return original(self, addresses)

        monkeypatch.setattr(SetAssociativeCache, "reference_access_stream", spy)
        addr = (np.arange(500) % 40) * 32
        prev = set_fast_path(False)
        try:
            hits = SetAssociativeCache(32 * 8, 32, 1).access_stream(addr)
        finally:
            set_fast_path(prev)
        assert seen == [addr.size]

        seen.clear()
        pinned = SetAssociativeCache(32 * 8, 32, 1, fast_path=False)
        np.testing.assert_array_equal(pinned.access_stream(addr), hits)
        assert seen == [addr.size]
