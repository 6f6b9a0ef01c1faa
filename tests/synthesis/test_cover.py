"""Unit tests for monotonous/complete cover synthesis."""

import pytest

from repro.boolean.sop import SopCover
from repro.errors import CoverError
from repro.synthesis.cover import synthesize_all, synthesize_signal


class TestMonotonousCover:
    def test_celement_set_cover(self, celement_sg):
        [rc] = synthesize_signal(celement_sg, "c").set_covers
        assert rc.cover == SopCover.from_string("a b")
        assert rc.complexity == 2

    def test_celement_reset_cover(self, celement_sg):
        [rc] = synthesize_signal(celement_sg, "c").reset_covers
        assert rc.cover == SopCover.from_string("a' b'")

    def test_mc_condition_1_covers_er(self, celement_sg):
        impl = synthesize_signal(celement_sg, "c")
        for event in ("c+", "c-"):
            [rc] = impl.cover_of_event(event)
            for state in rc.region.states:
                assert rc.cover.evaluate(celement_sg.code(state))

    def test_mc_condition_2_off_outside(self, celement_sg):
        [rc] = synthesize_signal(celement_sg, "c").set_covers
        inside = rc.region.bits | rc.quiescent
        for i, state in enumerate(celement_sg.states):
            if not (inside >> i) & 1:
                assert not rc.cover.evaluate(celement_sg.code(state))

    def test_mc_condition_3_monotonicity(self, two_er_sg):
        # Every region cover of x falls at most once inside its QR.
        for rc in synthesize_signal(two_er_sg, "x").region_covers:
            quiescent = set(two_er_sg.encoding().states_of(rc.quiescent))
            for state in quiescent:
                if rc.cover.evaluate(two_er_sg.code(state)):
                    continue
                for _, target in two_er_sg.successors(state):
                    if target in quiescent:
                        assert not rc.cover.evaluate(
                            two_er_sg.code(target))

    def test_code_sharing_regions_merge(self, two_er_sg):
        # The two ERs of x+ share binary codes with each other's
        # quiescent zones, so a generalized (merged) cover is produced
        # (footnote 3 of the paper).
        covers = synthesize_signal(two_er_sg, "x").cover_of_event("x-")
        assert len(covers) == 1
        assert len(covers[0].regions) == 2
        for region in covers[0].regions:
            for state in region.states:
                assert covers[0].cover.evaluate(two_er_sg.code(state))

    def test_distinct_code_regions_stay_separate(self, two_er_sg):
        covers = synthesize_signal(two_er_sg, "x").cover_of_event("x+")
        assert len(covers) == 2
        assert all(len(rc.regions) == 1 for rc in covers)


class TestCompleteCover:
    def test_celement_is_state_holding(self, celement_sg):
        # The C element's next-state function needs c itself.
        assert synthesize_signal(celement_sg, "c").complete is None

    def test_combinational_signal(self, two_er_sg):
        # x = a + b works: x rises after a+ or b+, falls after a-/b-.
        cover = synthesize_signal(two_er_sg, "x").complete
        assert cover is not None
        assert "x" not in cover.support

    def test_inputs_rejected(self, celement_sg):
        with pytest.raises(CoverError):
            synthesize_signal(celement_sg, "a")


class TestSynthesizeSignal:
    def test_celement_sequential(self, celement_sg):
        impl = synthesize_signal(celement_sg, "c")
        assert not impl.is_combinational
        assert len(impl.set_covers) == 1
        assert len(impl.reset_covers) == 1
        assert impl.max_complexity() == 2

    def test_combinational_choice(self, two_er_sg):
        impl = synthesize_signal(two_er_sg, "x")
        assert impl.is_combinational
        assert impl.complete_complexity <= 2

    def test_synthesize_all_covers_outputs(self, celement_sg):
        impls = synthesize_all(celement_sg)
        assert set(impls) == {"c"}

    def test_cover_of_event(self, celement_sg):
        impl = synthesize_signal(celement_sg, "c")
        assert len(impl.cover_of_event("c+")) == 1
        assert impl.cover_of_event("c+")[0].cover == \
            SopCover.from_string("a b")
