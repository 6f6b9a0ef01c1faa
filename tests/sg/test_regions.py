"""Unit tests for excitation/switching/quiescent regions and triggers."""

import pytest

from repro.sg.regions import (all_excitation_regions, encoding_atoms,
                              event_cones, excitation_regions,
                              quiescent_region, stable_closure,
                              switching_region, trigger_events,
                              trigger_signals)


def states_of(sg, bits):
    return set(sg.encoding().states_of(bits))


class TestExcitationRegions:
    def test_celement_single_er(self, celement_sg):
        regions = excitation_regions(celement_sg, "c+")
        assert len(regions) == 1
        (region,) = regions
        assert region.index == 1
        assert region.event == "c+"
        assert region.signal == "c"
        # c+ is excited exactly when a=b=1, c=0: one state.
        assert len(region) == 1
        (state,) = region.states
        assert celement_sg.code(state).as_dict() == {"a": 1, "b": 1, "c": 0}

    def test_input_regions_exist(self, celement_sg):
        # a+ is excited from the initial state until it fires; since b+
        # is concurrent, the ER spans 2 states (b=0 and b=1).
        regions = excitation_regions(celement_sg, "a+")
        assert len(regions) == 1
        assert len(regions[0]) == 2

    def test_two_separated_regions(self, two_er_sg):
        regions = excitation_regions(two_er_sg, "x+")
        assert len(regions) == 2
        assert {r.index for r in regions} == {1, 2}
        assert all(len(r) == 1 for r in regions)

    def test_region_indices_stable(self, two_er_sg):
        first = excitation_regions(two_er_sg, "x+")
        second = excitation_regions(two_er_sg, "x+")
        assert [sorted(map(repr, r.states)) for r in first] == \
            [sorted(map(repr, r.states)) for r in second]

    def test_all_excitation_regions_outputs_only(self, celement_sg):
        regions = all_excitation_regions(celement_sg)
        assert {r.event for r in regions} == {"c+", "c-"}

    def test_membership_protocol(self, celement_sg):
        (region,) = excitation_regions(celement_sg, "c+")
        (state,) = region.states
        assert state in region

    def test_bits_match_states(self, two_er_sg):
        for region in excitation_regions(two_er_sg, "x+"):
            assert states_of(two_er_sg, region.bits) == set(region.states)


class TestSwitchingRegion:
    def test_celement_sr(self, celement_sg):
        (region,) = excitation_regions(celement_sg, "c+")
        sr = states_of(celement_sg, switching_region(celement_sg, region))
        assert len(sr) == 1
        (state,) = sr
        assert celement_sg.code(state).as_dict() == {"a": 1, "b": 1, "c": 1}


class TestQuiescentRegion:
    def test_celement_qr(self, celement_sg):
        regions = excitation_regions(celement_sg, "c+")
        qr = states_of(celement_sg,
                       quiescent_region(celement_sg, regions[0], regions))
        # After c+ fires, c stays 1 while a and b fall; c- becomes
        # excited only when a=b=0.  QR = {111, 011, 101} minus states
        # where c- is excited.
        codes = {celement_sg.code(s).bits(["a", "b", "c"]) for s in qr}
        assert codes == {"111", "011", "101"}

    def test_restricted_qr_disjoint(self, two_er_sg):
        regions = excitation_regions(two_er_sg, "x+")
        q1, q2 = (quiescent_region(two_er_sg, region, regions)
                  for region in regions)
        assert not (q1 & q2)

    def test_group_qr_subtracts_only_outside_siblings(self, two_er_sg):
        regions = excitation_regions(two_er_sg, "x+")
        closures = [stable_closure(two_er_sg, r) for r in regions]
        assert quiescent_region(two_er_sg, regions, regions) \
            == closures[0] | closures[1]
        assert quiescent_region(two_er_sg, regions[:1], regions) \
            == closures[0] & ~closures[1]

    def test_qr_excludes_excited_states(self, celement_sg):
        regions = excitation_regions(celement_sg, "c+")
        qr = states_of(celement_sg,
                       quiescent_region(celement_sg, regions[0], regions))
        for state in qr:
            assert not celement_sg.is_excited(state, "c")


class TestTriggers:
    def test_celement_triggers(self, celement_sg):
        (region,) = excitation_regions(celement_sg, "c+")
        events = trigger_events(celement_sg, region)
        assert events == {"a+", "b+"}

    def test_trigger_signals(self, celement_sg):
        assert trigger_signals(celement_sg, "c") == {"a", "b"}

    def test_trigger_signals_two_er(self, two_er_sg):
        assert trigger_signals(two_er_sg, "x") == {"a", "b"}


class TestEncodingAtoms:
    def test_cone_is_sr_union_qr(self, celement_sg):
        (region,) = excitation_regions(celement_sg, "c+")
        ((label, cone),) = event_cones(celement_sg, "c+")
        assert label == "SR∪QR(c+)"
        assert cone == (switching_region(celement_sg, region)
                        | quiescent_region(celement_sg, region))

    def test_multi_region_events_get_indexed_cones(self, two_er_sg):
        cones = event_cones(two_er_sg, "x+")
        assert len(cones) == 2
        assert {label for label, _ in cones} == \
            {"SR∪QR_1(x+)", "SR∪QR_2(x+)"}

    def test_atoms_are_deduplicated_and_nontrivial(self, celement_sg):
        atoms = encoding_atoms(celement_sg)
        full = celement_sg.encoding().full_mask
        seen = set()
        for label, bits in atoms:
            assert bits, label
            assert bits & full == bits, label
            assert bits != full, label
            assert bits not in seen, f"duplicate atom {label}"
            seen.add(bits)

    def test_atoms_cover_all_three_families(self, celement_sg):
        labels = [label for label, _ in encoding_atoms(celement_sg)]
        assert any(label.startswith("SR∪QR(") for label in labels)
        assert any(label.startswith("ER(") for label in labels)
        assert any(label.startswith("[") and label.endswith("=1]")
                   for label in labels)

    def test_atoms_deterministic(self, two_er_sg):
        first = encoding_atoms(two_er_sg)
        second = encoding_atoms(two_er_sg)
        enc = two_er_sg.encoding()
        assert [(label, sorted(map(repr, enc.states_of(bits))))
                for label, bits in first] == \
            [(label, sorted(map(repr, enc.states_of(bits))))
             for label, bits in second]
