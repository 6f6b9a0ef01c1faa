"""Tests for the small shared helpers."""

import copyreg
import io
import pickle

import pytest

from repro._util import FrozenVector, pairwise, proper_subsets, unique


class TestUnique:
    def test_preserves_first_occurrence(self):
        assert unique([3, 1, 3, 2, 1]) == [3, 1, 2]

    def test_empty(self):
        assert unique([]) == []


class TestPairwise:
    def test_pairs(self):
        assert list(pairwise([1, 2, 3])) == [(1, 2), (2, 3)]

    def test_short(self):
        assert list(pairwise([1])) == []


class TestProperSubsets:
    def test_excludes_full_set(self):
        subsets = list(proper_subsets((1, 2, 3)))
        assert (1, 2, 3) not in subsets
        assert (1,) in subsets and (1, 2) in subsets

    def test_min_size(self):
        subsets = list(proper_subsets((1, 2, 3), min_size=2))
        assert all(len(s) >= 2 for s in subsets)

    def test_max_count(self):
        assert len(list(proper_subsets(tuple(range(10)),
                                       max_count=5))) == 5


class TestFrozenVector:
    def test_binary_validation(self):
        with pytest.raises(ValueError):
            FrozenVector({"a": 2})

    def test_lookup(self):
        v = FrozenVector({"a": 1, "b": 0})
        assert v["a"] == 1
        assert v.get("z", 7) == 7
        assert "b" in v and "z" not in v
        with pytest.raises(KeyError):
            v["z"]

    def test_equality_order_independent(self):
        assert FrozenVector({"a": 1, "b": 0}) == \
            FrozenVector({"b": 0, "a": 1})
        assert hash(FrozenVector({"a": 1, "b": 0})) == \
            hash(FrozenVector({"b": 0, "a": 1}))

    def test_set_returns_copy(self):
        v = FrozenVector({"a": 0})
        w = v.set("a", 1)
        assert v["a"] == 0 and w["a"] == 1

    def test_without_and_restrict(self):
        v = FrozenVector({"a": 1, "b": 0, "c": 1})
        assert v.without("b").keys() == ["a", "c"]
        assert v.restrict(["a"]).as_dict() == {"a": 1}

    def test_bits(self):
        v = FrozenVector({"a": 1, "b": 0, "c": 1})
        assert v.bits(["a", "b", "c"]) == "101"
        assert v.bits(["c", "a"]) == "11"

    def test_items_sorted(self):
        v = FrozenVector({"b": 0, "a": 1})
        assert v.items() == (("a", 1), ("b", 0))
        assert list(v) == ["a", "b"]

    def test_pickle_leaves_the_hash_out(self):
        v = FrozenVector({"b": 0, "a": 1})
        restored = pickle.loads(pickle.dumps(v))
        assert restored == v and hash(restored) == hash(v)
        assert restored.as_dict() == {"a": 1, "b": 0}
        assert "_hash" not in str(pickle.dumps(v))
        empty = pickle.loads(pickle.dumps(FrozenVector({})))
        assert empty == FrozenVector({}) and len(empty) == 0

    def test_unpickles_legacy_slot_state(self):
        """Store entries written before ``__getstate__`` existed carry
        the default slot state, with another process's hash."""
        v = FrozenVector({"b": 0, "a": 1})
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.dispatch_table = {
            FrozenVector: lambda obj: (
                copyreg.__newobj__, (FrozenVector,),
                (None, {"_items": obj._items, "_dict": obj._dict,
                        "_hash": -12345}))}
        pickler.dump(v)
        restored = pickle.loads(buffer.getvalue())
        assert restored == v
        assert restored in {v}
        assert restored["a"] == 1
