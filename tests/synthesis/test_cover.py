"""Unit tests for monotonous/complete cover synthesis."""

import pytest

from repro.boolean.sop import SopCover
from repro.errors import CoverError
from repro.sg.regions import excitation_regions, quiescent_region
from repro.synthesis.cover import (complete_cover,
                                   complete_cover_with_self,
                                   monotonous_cover, synthesize_all,
                                   synthesize_signal)


class TestMonotonousCover:
    def test_celement_set_cover(self, celement_sg):
        regions = excitation_regions(celement_sg, "c+")
        rc = monotonous_cover(celement_sg, regions[0], regions)
        assert rc.cover == SopCover.from_string("a b")
        assert rc.complexity == 2

    def test_celement_reset_cover(self, celement_sg):
        regions = excitation_regions(celement_sg, "c-")
        rc = monotonous_cover(celement_sg, regions[0], regions)
        assert rc.cover == SopCover.from_string("a' b'")

    def test_mc_condition_1_covers_er(self, celement_sg):
        for event in ("c+", "c-"):
            regions = excitation_regions(celement_sg, event)
            rc = monotonous_cover(celement_sg, regions[0], regions)
            for state in regions[0].states:
                assert rc.cover.evaluate(celement_sg.code(state))

    def test_mc_condition_2_off_outside(self, celement_sg):
        regions = excitation_regions(celement_sg, "c+")
        rc = monotonous_cover(celement_sg, regions[0], regions)
        inside = regions[0].bits | rc.quiescent
        for i, state in enumerate(celement_sg.states):
            if not (inside >> i) & 1:
                assert not rc.cover.evaluate(celement_sg.code(state))

    def test_mc_condition_3_monotonicity(self, two_er_sg):
        # Every region cover of x falls at most once inside its QR.
        from repro.synthesis.cover import synthesize_event_covers
        for event in ("x+", "x-"):
            for rc in synthesize_event_covers(two_er_sg, event):
                quiescent = set(two_er_sg.encoding().states_of(
                    rc.quiescent))
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
        from repro.synthesis.cover import synthesize_event_covers
        covers = synthesize_event_covers(two_er_sg, "x-")
        assert len(covers) == 1
        assert len(covers[0].regions) == 2
        for region in covers[0].regions:
            for state in region.states:
                assert covers[0].cover.evaluate(two_er_sg.code(state))

    def test_per_region_cover_raises_when_codes_shared(self, two_er_sg):
        regions = excitation_regions(two_er_sg, "x-")
        with pytest.raises(CoverError):
            monotonous_cover(two_er_sg, regions[0], regions)

    def test_distinct_code_regions_stay_separate(self, two_er_sg):
        from repro.synthesis.cover import synthesize_event_covers
        covers = synthesize_event_covers(two_er_sg, "x+")
        assert len(covers) == 2
        assert all(len(rc.regions) == 1 for rc in covers)

    def test_support_restriction(self, celement_sg):
        regions = excitation_regions(celement_sg, "c+")
        rc = monotonous_cover(celement_sg, regions[0], regions,
                              support=["a", "b"])
        assert set(rc.cover.support) <= {"a", "b"}


class TestCompleteCover:
    def test_celement_is_state_holding(self, celement_sg):
        # The C element's next-state function needs c itself.
        assert complete_cover(celement_sg, "c") is None

    def test_with_self_support(self, celement_sg):
        cover, complement = complete_cover_with_self(celement_sg, "c")
        # classic majority: ab + c(a + b) — 6 literals as SOP.
        assert cover.literal_count() == 6
        assert complement.literal_count() == 6

    def test_combinational_signal(self, two_er_sg):
        # x = a + b works: x rises after a+ or b+, falls after a-/b-.
        pair = complete_cover(two_er_sg, "x")
        assert pair is not None
        cover, _ = pair
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
