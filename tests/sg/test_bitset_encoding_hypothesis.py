"""Property tests for the packed-integer encoding layer.

Random labelled state graphs (not necessarily consistent STGs — the
bitset layer is pure graph/code plumbing) drive the :class:`Encoding`
kernels against straightforward set-based reference implementations:
bitset round-trips, packed codes, forward closures and per-state reach
sets, successor and predecessor images, the states where a cover is 1, weakly connected
components, event targets, diamonds and the region queries built on
them.  The
encoding itself is built by copying the graph's int-indexed arrays; it
must equal one built by walking the public, identity-keyed API.  A
pickled and reloaded graph must be indistinguishable through that API.
"""

import pickle
from typing import Dict, List, Set, Tuple

from hypothesis import given, settings, strategies as st

from repro._util import FrozenVector
from repro.boolean.cube import Cube
from repro.boolean.minimize import _vector_int
from repro.boolean.sop import SopCover
from repro.sg.graph import StateGraph
from repro.sg.regions import (excitation_regions, quiescent_region,
                              stable_closure, switching_region)

SIGNALS = ("a", "b", "c")
EVENTS = tuple(s + d for s in SIGNALS for d in "+-")


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    sg = StateGraph("prop", inputs=["a"], outputs=["b", "c"])
    for i in range(n):
        bits = draw(st.integers(0, 2 ** len(SIGNALS) - 1))
        sg.add_state(i, FrozenVector(
            {name: (bits >> k) & 1 for k, name in enumerate(SIGNALS)}))
    arcs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.sampled_from(EVENTS),
                  st.integers(0, n - 1)),
        max_size=3 * n, unique=True))
    for source, event, target in arcs:
        sg.add_arc(source, event, target)
    sg.set_initial(0)
    return sg


def reference_encoding(sg: StateGraph) -> Dict:
    """The encoding's fields, from a walk over the public API."""
    states = sg.states
    index = {state: i for i, state in enumerate(states)}
    bit = {name: i for i, name in enumerate(sorted(sg.signals))}
    codes = []
    for state in states:
        packed = 0
        for name, value in sg.code(state).items():
            if value:
                packed |= 1 << bit[name]
        codes.append(packed)
    succ_bits = [0] * len(states)
    pred_bits = [0] * len(states)
    event_bits: Dict[str, int] = {}
    arcs = []
    for i, state in enumerate(states):
        out = []
        for event, target in sg.successors(state):
            j = index[target]
            succ_bits[i] |= 1 << j
            pred_bits[j] |= 1 << i
            event_bits[event] = event_bits.get(event, 0) | (1 << i)
            out.append((event, j))
        arcs.append(tuple(out))
    return {"states": states, "index": index, "bit": bit, "codes": codes,
            "succ_bits": succ_bits, "pred_bits": pred_bits,
            "event_bits": event_bits, "arcs": tuple(arcs)}


def public_view(sg: StateGraph) -> Tuple:
    """Everything the public StateGraph API reveals about a graph."""
    return (sg.name, sg.inputs, sg.outputs, sg.signals, sg.states,
            sg.initial, [sg.code(s) for s in sg.states],
            [sg.successors(s) for s in sg.states],
            [sg.predecessors(s) for s in sg.states],
            [sg.enabled(s) for s in sg.states], sg.bfs_rank(),
            sg.diamonds())


def bitset(sg: StateGraph, states) -> int:
    """Pack states into a bitset over the graph's state indices."""
    index = sg.encoding().index
    return sum(1 << index[state] for state in set(states))


def reference_closure(sg: StateGraph, start: Set, allowed: Set) -> Set:
    closure = set(start) & allowed
    frontier = list(closure)
    while frontier:
        state = frontier.pop()
        for _, target in sg.successors(state):
            if target in allowed and target not in closure:
                closure.add(target)
                frontier.append(target)
    return closure


def reference_components(sg: StateGraph, states: Set) -> List[Set]:
    pool = set(states)
    components = []
    while pool:
        seed = pool.pop()
        component = {seed}
        frontier = [seed]
        while frontier:
            state = frontier.pop()
            neighbours = {t for _, t in sg.successors(state)} \
                | {s for _, s in sg.predecessors(state)}
            for other in neighbours & pool:
                pool.discard(other)
                component.add(other)
                frontier.append(other)
        components.append(component)
    return components


class TestEncodingKernels:
    @given(graphs(), st.integers(0, 2 ** 10 - 1))
    @settings(max_examples=150, deadline=None)
    def test_bitset_roundtrip(self, sg, raw):
        enc = sg.encoding()
        bits = raw & enc.full_mask
        states = enc.states_of(bits)
        assert bitset(sg, states) == bits
        assert states == sorted(states, key=enc.index.__getitem__)

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_packed_codes_match_vector_int(self, sg):
        enc = sg.encoding()
        # Bit order must be exactly the minimizer's packing over the
        # full signal support, so packed codes flow into minimize()
        # without translation.
        for state in sg.states:
            packed = enc.codes[enc.index[state]]
            assert packed == _vector_int(sg.code(state), sg.signals)
            assert enc.unpack(packed) == sg.code(state)
            assert enc.pack(sg.code(state)) == packed

    @given(graphs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_project_matches_vector_int(self, sg, data):
        enc = sg.encoding()
        support = data.draw(st.permutations(SIGNALS))
        for state in sg.states:
            packed = enc.codes[enc.index[state]]
            assert enc.project(packed, support) \
                == _vector_int(sg.code(state), support)

    @given(graphs(), st.integers(0, 2 ** 10 - 1),
           st.integers(0, 2 ** 10 - 1))
    @settings(max_examples=150, deadline=None)
    def test_closure_forward_matches_reference(self, sg, raw_start,
                                               raw_allowed):
        enc = sg.encoding()
        start = raw_start & enc.full_mask
        allowed = raw_allowed & enc.full_mask
        expected = reference_closure(
            sg, set(enc.states_of(start)), set(enc.states_of(allowed)))
        assert set(enc.states_of(
            enc.closure_forward(start, allowed))) == expected

    @given(graphs(), st.integers(0, 2 ** 10 - 1))
    @settings(max_examples=150, deadline=None)
    def test_reach_sets_match_reference(self, sg, raw_allowed):
        """Random graphs carry cycles, self-loops and parallel arcs:
        every state's reach set is its own closure inside ``allowed``,
        and states outside ``allowed`` reach nothing."""
        enc = sg.encoding()
        allowed = raw_allowed & enc.full_mask
        inside = set(enc.states_of(allowed))
        reach = enc.reach_sets(allowed)
        assert len(reach) == len(enc.states)
        for state, bits in zip(enc.states, reach):
            assert set(enc.states_of(bits)) == \
                reference_closure(sg, {state}, inside)

    @given(graphs(), st.integers(0, 2 ** 10 - 1))
    @settings(max_examples=150, deadline=None)
    def test_components_match_reference(self, sg, raw):
        enc = sg.encoding()
        bits = raw & enc.full_mask
        got = [set(enc.states_of(c)) for c in enc.components(bits)]
        expected = reference_components(sg, set(enc.states_of(bits)))
        assert sorted(map(sorted, got)) == sorted(map(sorted, expected))
        # ascending lowest-index order
        lows = [min(enc.index[s] for s in component) for component in got]
        assert lows == sorted(lows)

    @given(graphs(), st.sampled_from(EVENTS), st.integers(0, 2 ** 10 - 1))
    @settings(max_examples=150, deadline=None)
    def test_event_targets_matches_reference(self, sg, event, raw):
        enc = sg.encoding()
        sources = set(enc.states_of(raw & enc.full_mask))
        expected = {target for state in sources
                    for label, target in sg.successors(state)
                    if label == event}
        assert set(enc.states_of(enc.event_targets(
            event, bitset(sg, sources)))) == expected

    @given(graphs(), st.integers(0, 2 ** 10 - 1))
    @settings(max_examples=150, deadline=None)
    def test_images_match_reference(self, sg, raw):
        enc = sg.encoding()
        sources = set(enc.states_of(raw & enc.full_mask))
        bits = bitset(sg, sources)
        assert set(enc.states_of(enc.successor_image(bits))) \
            == {t for s in sources for _, t in sg.successors(s)}
        assert set(enc.states_of(enc.predecessor_image(bits))) \
            == {p for s in sources for _, p in sg.predecessors(s)}

    @given(graphs(), st.lists(st.dictionaries(
        st.sampled_from(SIGNALS), st.integers(0, 1)), max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_cover_bits_match_evaluation(self, sg, cubes):
        enc = sg.encoding()
        cover = SopCover([Cube(literals) for literals in cubes])
        assert set(enc.states_of(enc.cover_bits(cover))) \
            == {s for s in sg.states if cover.evaluate(sg.code(s))}

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_diamond_table_lists_every_corner(self, sg):
        enc = sg.encoding()
        diamonds = enc.diamonds()
        table = enc.diamond_table()
        for i in range(len(sg)):
            assert table[i] == [k for k, d in enumerate(diamonds)
                                if i in (d[0], d[3], d[4], d[5])]
        for bottom, event_a, event_b, side_a, side_b, top in diamonds:
            assert event_a != event_b
            assert (event_a, side_a) in enc.arcs[bottom]
            assert (event_b, side_b) in enc.arcs[bottom]
            assert (event_b, top) in enc.arcs[side_a]
            assert (event_a, top) in enc.arcs[side_b]

    @given(graphs(), st.sampled_from(EVENTS))
    @settings(max_examples=100, deadline=None)
    def test_event_bits_matches_reference(self, sg, event):
        enc = sg.encoding()
        expected = {s for s in sg.states
                    if any(e == event for e, _ in sg.successors(s))}
        assert set(enc.states_of(enc.event_bits(event))) == expected


class TestEncodingFromArrays:
    @given(graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_public_api_walk(self, sg):
        enc = sg.encoding()
        ref = reference_encoding(sg)
        assert enc.states == ref["states"]
        assert enc.index == ref["index"]
        assert enc.bit == ref["bit"]
        assert enc.codes == ref["codes"]
        assert enc.succ_bits == ref["succ_bits"]
        assert enc.pred_bits == ref["pred_bits"]
        assert enc.events == sorted(ref["event_bits"])
        assert {e: enc.event_bits(e) for e in enc.events} \
            == ref["event_bits"]
        assert enc.arcs == ref["arcs"]

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_pickle_roundtrip(self, sg):
        sg.encoding()
        clone = pickle.loads(pickle.dumps(sg))
        assert public_view(clone) == public_view(sg)
        assert reference_encoding(clone) == reference_encoding(sg)

    @given(graphs())
    @settings(max_examples=50, deadline=None)
    def test_encoding_survives_later_mutation(self, sg):
        """The encoding is a snapshot: growing the graph afterwards
        leaves it (and a copy sharing it) unchanged."""
        enc = sg.encoding()
        before = (enc.states, list(enc.codes), enc.arcs,
                  list(enc.succ_bits))
        clone = sg.copy()
        sg.add_state("extra", FrozenVector(dict.fromkeys(SIGNALS, 1)))
        sg.add_arc(sg.states[0], "a+", "extra")
        assert (enc.states, enc.codes, enc.arcs, enc.succ_bits) == before
        assert clone.encoding() is enc
        assert sg.encoding() is not enc
        assert reference_encoding(clone)["arcs"] == before[2]


class TestRegionQueries:
    @given(graphs(), st.sampled_from(EVENTS))
    @settings(max_examples=100, deadline=None)
    def test_excitation_regions_match_reference(self, sg, event):
        excited = {s for s in sg.states
                   if any(e == event for e, _ in sg.successors(s))}
        regions = excitation_regions(sg, event)
        assert set().union(*(r.states for r in regions), set()) \
            == excited
        expected = reference_components(sg, excited)
        assert sorted(sorted(r.states) for r in regions) \
            == sorted(map(sorted, expected))
        assert [r.index for r in regions] \
            == list(range(1, len(regions) + 1))

    @given(graphs(), st.sampled_from(EVENTS))
    @settings(max_examples=100, deadline=None)
    def test_switching_and_quiescent_match_reference(self, sg, event):
        signal = event[:-1]
        enc = sg.encoding()
        for region in excitation_regions(sg, event):
            assert region.bits == bitset(sg, region.states)
            sr = {t for s in region.states
                  for e, t in sg.successors(s) if e == event}
            assert set(enc.states_of(switching_region(sg, region))) == sr
            stable = {s for s in sg.states
                      if not sg.is_excited(s, signal)}
            assert set(enc.states_of(stable_closure(sg, region))) \
                == reference_closure(sg, sr, stable)
            # With no siblings the restricted QR is the closure itself.
            assert quiescent_region(sg, region) \
                == stable_closure(sg, region)
