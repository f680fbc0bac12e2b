"""Unit tests for the set-associative cache state model."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.cache import CacheState, SetAssocCache


def resident_lines(cache: SetAssocCache) -> list[int]:
    """All resident line ids, set by set in LRU order."""
    return [line for s in cache._sets for line in s]


class TestBasics:
    def test_empty_lookup_is_invalid(self):
        c = SetAssocCache(4, 2)
        assert c.lookup(123) is CacheState.INVALID

    def test_install_then_lookup(self):
        c = SetAssocCache(4, 2)
        c.install(10, CacheState.SHARED)
        assert c.lookup(10) is CacheState.SHARED

    def test_install_modified(self):
        c = SetAssocCache(4, 2)
        c.install(10, CacheState.MODIFIED)
        assert c.lookup(10) is CacheState.MODIFIED

    def test_install_invalid_rejected(self):
        c = SetAssocCache(4, 2)
        with pytest.raises(ValueError):
            c.install(10, CacheState.INVALID)

    def test_capacity(self):
        c = SetAssocCache(8, 4)
        assert c.n_sets * c.associativity == 32

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssocCache(0, 2)
        with pytest.raises(ValueError):
            SetAssocCache(4, 0)


class TestReplacement:
    def test_no_eviction_below_capacity(self):
        c = SetAssocCache(1, 4)
        for line in range(4):
            assert c.install(line, CacheState.SHARED) is None

    def test_lru_eviction(self):
        c = SetAssocCache(1, 2)
        c.install(1, CacheState.SHARED)
        c.install(2, CacheState.SHARED)
        victim = c.install(3, CacheState.SHARED)
        assert victim == (1, CacheState.SHARED)

    def test_lookup_refreshes_lru(self):
        c = SetAssocCache(1, 2)
        c.install(1, CacheState.SHARED)
        c.install(2, CacheState.SHARED)
        c.lookup(1)  # 1 becomes MRU
        victim = c.install(3, CacheState.SHARED)
        assert victim == (2, CacheState.SHARED)

    def test_untouched_lookup_preserves_lru(self):
        c = SetAssocCache(1, 2)
        c.install(1, CacheState.SHARED)
        c.install(2, CacheState.SHARED)
        c.lookup(1, touch=False)
        victim = c.install(3, CacheState.SHARED)
        assert victim == (1, CacheState.SHARED)

    def test_victim_carries_state(self):
        c = SetAssocCache(1, 1)
        c.install(1, CacheState.MODIFIED)
        victim = c.install(2, CacheState.SHARED)
        assert victim == (1, CacheState.MODIFIED)

    def test_reinstall_updates_without_eviction(self):
        c = SetAssocCache(1, 2)
        c.install(1, CacheState.SHARED)
        c.install(2, CacheState.SHARED)
        assert c.install(1, CacheState.MODIFIED) is None
        assert c.lookup(1) is CacheState.MODIFIED

    def test_sets_are_independent(self):
        c = SetAssocCache(2, 1)
        c.install(0, CacheState.SHARED)  # set 0
        assert c.install(1, CacheState.SHARED) is None  # set 1
        assert len(resident_lines(c)) == 2


class TestStateChanges:
    def test_set_state(self):
        c = SetAssocCache(4, 2)
        c.install(5, CacheState.SHARED)
        c.set_state(5, CacheState.MODIFIED)
        assert c.lookup(5) is CacheState.MODIFIED

    def test_set_state_invalid_drops(self):
        c = SetAssocCache(4, 2)
        c.install(5, CacheState.SHARED)
        c.set_state(5, CacheState.INVALID)
        assert c.lookup(5) is CacheState.INVALID
        assert len(resident_lines(c)) == 0

    def test_set_state_missing_raises(self):
        c = SetAssocCache(4, 2)
        with pytest.raises(KeyError):
            c.set_state(5, CacheState.SHARED)

    def test_set_state_invalid_on_missing_is_noop(self):
        c = SetAssocCache(4, 2)
        c.set_state(5, CacheState.INVALID)  # no raise

    def test_invalidate_returns_previous(self):
        c = SetAssocCache(4, 2)
        c.install(5, CacheState.MODIFIED)
        assert c.invalidate(5) is CacheState.MODIFIED
        assert c.invalidate(5) is CacheState.INVALID


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        lines=st.lists(st.integers(0, 200), min_size=1, max_size=100),
        n_sets=st.sampled_from([1, 2, 4, 8]),
        ways=st.sampled_from([1, 2, 4]),
    )
    def test_occupancy_never_exceeds_capacity(self, lines, n_sets, ways):
        c = SetAssocCache(n_sets, ways)
        for line in lines:
            c.install(line, CacheState.SHARED)
        assert len(resident_lines(c)) <= n_sets * ways
        # no duplicates
        resident = resident_lines(c)
        assert len(resident) == len(set(resident))

    @settings(max_examples=50, deadline=None)
    @given(lines=st.lists(st.integers(0, 50), min_size=1, max_size=60))
    def test_most_recent_line_always_resident(self, lines):
        c = SetAssocCache(2, 2)
        for line in lines:
            c.install(line, CacheState.SHARED)
        assert c.lookup(lines[-1]) is CacheState.SHARED

    @settings(max_examples=50, deadline=None)
    @given(lines=st.lists(st.integers(0, 30), min_size=1, max_size=60))
    def test_lines_map_to_their_set(self, lines):
        n_sets = 4
        c = SetAssocCache(n_sets, 2)
        for line in lines:
            c.install(line, CacheState.SHARED)
        for s_idx, s in enumerate(c._sets):
            for line in s:
                assert line % n_sets == s_idx


class _ModelCache:
    """Reference LRU cache: one ``OrderedDict`` per set, oldest first,
    with the semantics ``SetAssocCache`` has always had."""

    def __init__(self, n_sets: int, ways: int) -> None:
        self.n_sets, self.ways = n_sets, ways
        self.sets = [OrderedDict() for _ in range(n_sets)]

    def lookup(self, line, touch):
        s = self.sets[line % self.n_sets]
        if line not in s:
            return CacheState.INVALID
        if touch:
            s.move_to_end(line)
        return s[line]

    def install(self, line, state):
        s = self.sets[line % self.n_sets]
        if line in s:
            s[line] = state
            s.move_to_end(line)
            return None
        victim = s.popitem(last=False) if len(s) >= self.ways else None
        s[line] = state
        return victim

    def set_state(self, line, state):
        s = self.sets[line % self.n_sets]
        if state is CacheState.INVALID:
            s.pop(line, None)
        elif line not in s:
            raise KeyError(line)
        else:
            s[line] = state

    def invalidate(self, line):
        return self.sets[line % self.n_sets].pop(line, CacheState.INVALID)

    def resident_lines(self):
        return [line for s in self.sets for line in s]


_LINES = st.integers(0, 23)
_VALID = st.sampled_from([CacheState.SHARED, CacheState.MODIFIED])
_OPS = st.one_of(
    st.tuples(st.just("lookup"), _LINES, st.booleans()),
    st.tuples(st.just("install"), _LINES, _VALID),
    st.tuples(st.just("set_state"), _LINES, st.sampled_from(list(CacheState))),
    st.tuples(st.just("invalidate"), _LINES),
)


class TestAgainstModel:
    @settings(max_examples=200, deadline=None)
    @given(
        n_sets=st.integers(1, 4),
        ways=st.integers(1, 4),
        ops=st.lists(_OPS, max_size=80),
    )
    def test_matches_ordered_dict_lru(self, n_sets, ways, ops):
        cache = SetAssocCache(n_sets, ways)
        model = _ModelCache(n_sets, ways)
        for name, *args in ops:
            outcomes = []
            for impl in (cache, model):
                try:
                    outcomes.append(("ok", getattr(impl, name)(*args)))
                except KeyError:
                    outcomes.append(("KeyError", None))
            # equal return values, including victims ``(line, state)``
            assert outcomes[0] == outcomes[1], (name, args)
            # equal residents, in LRU order set by set
            assert resident_lines(cache) == model.resident_lines()
        # a fresh cache still starts empty: no write reached a set two
        # caches (or two sets) share
        assert resident_lines(SetAssocCache(n_sets, ways)) == []
