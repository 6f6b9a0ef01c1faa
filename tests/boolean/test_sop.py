"""Unit tests for :mod:`repro.boolean.sop`."""

import copyreg
import io
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean.cube import Cube
from repro.boolean.sop import SopCover


def cover(text):
    return SopCover.from_string(text)


class TestConstruction:
    def test_zero_and_one(self):
        assert cover("0").is_zero()
        assert cover("1").is_one()
        assert SopCover.zero().literal_count() == 0

    def test_single_cube_containment_dedup(self):
        c = cover("a + a b")
        assert c.num_cubes() == 1
        assert c == cover("a")

    def test_duplicate_cubes_merge(self):
        assert cover("a b + a b").num_cubes() == 1

    def test_from_minterms(self):
        c = SopCover.from_minterms(
            [{"a": 1, "b": 0}, {"a": 1, "b": 1}], ["a", "b"])
        assert c.evaluate({"a": 1, "b": 0})
        assert c.evaluate({"a": 1, "b": 1})
        assert not c.evaluate({"a": 0, "b": 0})

    def test_literal_count(self):
        assert cover("a b + c").literal_count() == 3

    def test_support(self):
        assert cover("a b + c d'").support == ("a", "b", "c", "d")


class TestSemantics:
    def test_evaluate_or_of_cubes(self):
        c = cover("a b + a' c")
        assert c.evaluate({"a": 1, "b": 1, "c": 0})
        assert c.evaluate({"a": 0, "b": 0, "c": 1})
        assert not c.evaluate({"a": 0, "b": 1, "c": 0})

    def test_covers_cube(self):
        c = cover("a b + a b'")
        assert c.covers_cube(Cube.from_string("a"))
        assert not c.covers_cube(Cube.from_string("b"))

    def test_covers_cover(self):
        assert cover("a + b").covers(cover("a b"))
        assert not cover("a b").covers(cover("a"))

    def test_equivalent(self):
        assert cover("a b + a b'").equivalent(cover("a"))

    def test_tautology_positive(self):
        assert cover("a + a'").is_tautology()
        assert cover("a b + a' + b'").is_tautology()

    def test_tautology_negative(self):
        assert not cover("a + b").is_tautology()
        assert not cover("0").is_tautology()

    def test_cofactor(self):
        c = cover("a b + a' c")
        assert c.cofactor("a", 1).equivalent(cover("b"))
        assert c.cofactor("a", 0).equivalent(cover("c"))

    def test_cofactor_can_vanish(self):
        assert cover("a b").cofactor("a", 0).is_zero()
        assert cover("a b").cofactor("a", 1) == cover("b")

    def test_cube_cofactor(self):
        c = cover("a b c + a' d + b d")
        assert c.cube_cofactor(Cube.from_string("a b")).equivalent(
            cover("c + d"))
        assert c.cube_cofactor(Cube.from_string("a' b'")).equivalent(
            cover("d"))

    def test_contradiction_is_zero(self):
        assert cover("a").times(cover("a'")).is_zero()
        assert cover("a b' + c").times(cover("a' c' + b c'")).is_zero()

    def test_consensus_term_is_redundant(self):
        assert cover("a b + a' c + b c").equivalent(cover("a b + a' c"))
        assert not cover("a b + a' c").equivalent(cover("a b + c"))

    def test_complement_of_xor_is_xnor(self):
        assert cover("a b' + a' b").complement().equivalent(
            cover("a b + a' b'"))

    def test_complement_single_cube(self):
        comp = cover("a b").complement()
        assert comp.equivalent(cover("a' + b'"))

    def test_complement_multi_cube(self):
        c = cover("a b + c")
        comp = c.complement()
        for a in (0, 1):
            for b in (0, 1):
                for cc in (0, 1):
                    v = {"a": a, "b": b, "c": cc}
                    assert c.evaluate(v) != comp.evaluate(v)

    @pytest.mark.parametrize("text, expected, literals", [
        ("a b + c", "a' c' + b' c'", 4),
        ("a b + c d", "a' c' + a' d' + b' c' + b' d'", 8),
        ("a b + c d + e", "a' c' e' + a' d' e' + b' c' e' + b' d' e'",
         12),
    ])
    def test_complement_drops_the_split_literal(self, text, expected,
                                                literals):
        """A cube of one Shannon half that lies inside a cube of the
        other half is true on both sides of the split variable, so it
        keeps no literal of it."""
        comp = cover(text).complement()
        assert comp.to_string() == expected
        assert comp.literal_count() == literals

    def test_complement_constants(self):
        assert cover("0").complement().is_one()
        assert cover("1").complement().is_zero()

    def test_double_complement_equivalent(self):
        c = cover("a b' + a' c + b c'")
        assert c.complement().complement().equivalent(c)


#: names whose string order differs from their length or numeric order
NAMES = ["a", "b", "B", "s1", "s10", "s2", "x_0", "x0"]


class TestSingleCubeComplement:
    """A one-cube cover's De Morgan complement skips the general
    constructor's containment pass; it must come out exactly as that
    constructor would build it."""

    @staticmethod
    def assert_canonical(got: SopCover, cube: Cube) -> None:
        expected = SopCover(Cube({name: 1 - value})
                            for name, value in cube)
        assert got._cubes == expected._cubes
        assert hash(got) == hash(expected)
        assert got == expected
        assert got.to_string() == expected.to_string()

    @given(st.dictionaries(st.sampled_from(NAMES), st.integers(0, 1),
                           max_size=len(NAMES)))
    @settings(max_examples=200)
    def test_matches_the_general_constructor(self, literals):
        cube = Cube(literals)
        self.assert_canonical(SopCover([cube]).complement(), cube)

    @pytest.mark.parametrize("text, expected", [
        ("1", "0"), ("a", "a'"), ("s10'", "s10"),
        ("s2 s10' a", "a' + s10 + s2'")])
    def test_empty_and_one_literal_cubes(self, text, expected):
        cube = Cube.from_string(text) if text != "1" else Cube.one()
        got = SopCover([cube]).complement()
        assert got.to_string() == expected
        self.assert_canonical(got, cube)


class TestAlgebra:
    def test_plus(self):
        assert cover("a").plus(cover("b")) == cover("a + b")

    def test_times(self):
        product = cover("a + b").times(cover("c + d"))
        assert product == cover("a c + a d + b c + b d")

    def test_common_cube(self):
        assert cover("a b c + a b d").common_cube() == \
            Cube.from_string("a b")

    def test_is_cube_free(self):
        assert cover("a + b").is_cube_free()
        assert not cover("a b + a c").is_cube_free()

    def test_make_cube_free(self):
        assert cover("a b + a c").make_cube_free() == cover("b + c")

    def test_rename(self):
        assert cover("a b + c").rename({"a": "x", "c": "y"}) == \
            cover("x b + y")

    def test_restrict(self):
        assert cover("a b + c").restrict(["a", "c"]) == cover("a + c")


class TestPlumbing:
    def test_hash_and_equality(self):
        assert cover("a + b") == cover("b + a")
        assert hash(cover("a + b")) == hash(cover("b + a"))

    def test_to_string_roundtrip(self):
        c = cover("a b' + c")
        assert SopCover.from_string(c.to_string()) == c

    def test_zero_to_string(self):
        assert cover("0").to_string() == "0"

    def test_iteration_sorted(self):
        cubes = list(cover("b + a"))
        assert cubes == sorted(cubes)

    def test_pickle_leaves_the_hash_out(self):
        c = cover("a b' + c")
        restored = pickle.loads(pickle.dumps(c))
        assert restored == c and hash(restored) == hash(c)
        assert pickle.dumps(c) == pickle.dumps(restored)
        assert "_hash" not in str(pickle.dumps(c))

    def test_unpickles_legacy_slot_state(self):
        """Store entries written before ``__getstate__`` existed carry
        the default slot state, with another process's hash."""
        c = cover("a b' + c")
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.dispatch_table = {
            SopCover: lambda obj: (copyreg.__newobj__, (SopCover,),
                                   (None, {"_cubes": obj._cubes,
                                           "_hash": -12345}))}
        pickler.dump(c)
        restored = pickle.loads(buffer.getvalue())
        assert restored == c
        assert restored in {c}
