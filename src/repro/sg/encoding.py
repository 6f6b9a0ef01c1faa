"""The packed integer view of a state graph, and next-state functions.

:class:`Encoding` is the one state-set form of the library: from
reachability to the ``verify/`` oracles, every set of states is a
Python int bitset over the state indices of one graph snapshot.  An
instance fixes

* a stable ``signal -> bit position`` map (sorted signal order, the
  same order :func:`repro.boolean.minimize._vector_int` packs vectors
  in), so every state code becomes one machine int;
* the graph's ``state -> index`` map, so every state *set* (excitation
  region, quiescent region, insertion block, cover zone) is one
  arbitrary-width int — intersection, union, difference, containment
  and emptiness checks are single bulk bitwise operations;
* packed adjacency (successor/predecessor bitsets per state) and
  per-event enabledness bitsets, so forward closures run as
  word-parallel frontier sweeps, the closures of every single state
  inside one subset come from one strongly-connected-component pass,
  and successor/predecessor *images* of whole sets are one table
  lookup per byte of the set;
* the set of states where a cover evaluates to 1, as one AND of value
  half-spaces per cube.

An encoding is built by copying the graph's own int-indexed arrays
(identities, packed codes, per-state ``(event, j)`` arcs) and deriving
the bitsets from them in one pass over the arcs.  Instances are cached
on the graph (:meth:`repro.sg.graph.StateGraph.encoding`) and
invalidated by any mutation, so derived caches (stable closures, value
half-spaces, image tables, diamonds) may live here safely.

Synthesis reads next-state functions through :func:`next_state_ints`:
ON/OFF sets of packed codes, straight from the code array and the
excitation bitsets.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro._util import FrozenVector
from repro.boolean.minimize import _cube_int
from repro.boolean.sop import SopCover
from repro.errors import CscViolation
from repro.sg.graph import Event, State, StateGraph

#: ``(bottom, event_a, event_b, side_a, side_b, top)`` state indices
IndexDiamond = Tuple[int, Event, Event, int, int, int]

#: ``bytes.translate`` table from binary digits to 0/1 bytes
_BINARY_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class Encoding:
    """Packed-integer view of one state graph snapshot.

    All bitsets index states by :attr:`index`; all packed codes place
    signal ``signals[i]`` at bit ``i`` (sorted signal order).  The
    instance never mutates the graph and keeps no reference to it, so
    content-identical copies may share one encoding.
    """

    __slots__ = ("signals", "bit", "states", "index", "codes", "arcs",
                 "full_mask", "succ_bits", "pred_bits", "_event_bits",
                 "_event_arcs", "_excited_bits", "_value_bits",
                 "_closure_cache", "_event_masks", "_image_tables",
                 "_diamonds", "_diamond_table")

    def __init__(self, sg: StateGraph):
        signals = sg.signals
        self.signals: Tuple[str, ...] = signals
        self.bit: Dict[str, int] = {name: i
                                    for i, name in enumerate(signals)}
        # The graph already stores this layout; copy its arrays (the
        # per-state arc tuples are immutable, so they are shared).
        self.states: Tuple[State, ...] = tuple(sg._ids)
        self.index: Dict[State, int] = dict(sg._index)
        self.codes: List[int] = list(sg._codes)
        #: per-state ``(event, j)`` successor arcs, in graph order
        self.arcs: Tuple[Tuple[Tuple[Event, int], ...], ...] = \
            tuple(sg._succ)
        n = len(self.states)
        self.full_mask: int = (1 << n) - 1

        succ_bits = [0] * n
        pred_bits = [0] * n
        event_bits: Dict[Event, int] = {}
        event_arcs: Dict[Event, List[Tuple[int, int]]] = {}
        for i, arcs in enumerate(self.arcs):
            sbit = 1 << i
            for event, j in arcs:
                succ_bits[i] |= 1 << j
                pred_bits[j] |= sbit
                event_bits[event] = event_bits.get(event, 0) | sbit
                event_arcs.setdefault(event, []).append((i, j))
        self.succ_bits: List[int] = succ_bits
        self.pred_bits: List[int] = pred_bits
        self._event_bits = event_bits
        excited: Dict[str, int] = {}
        for event, bits in event_bits.items():
            name = event[:-1]
            excited[name] = excited.get(name, 0) | bits
        self._excited_bits = excited
        self._event_arcs = event_arcs
        self._value_bits: Dict[str, int] = {}
        self._closure_cache: Dict[Tuple[Event, int], int] = {}
        self._event_masks: Optional[Tuple[Dict[Event, int], List[int]]] = None
        #: per-byte image tables, successor then predecessor (lazy)
        self._image_tables: List[Optional[List[List[int]]]] = [None, None]
        self._diamonds: Optional[List[IndexDiamond]] = None
        self._diamond_table: Optional[List[List[int]]] = None

    # ------------------------------------------------------------------
    # Bitset plumbing
    # ------------------------------------------------------------------

    def states_of(self, bits: int) -> List[State]:
        """Unpack a bitset into states, in stable index order."""
        states = self.states
        out: List[State] = []
        while bits:
            low = bits & -bits
            out.append(states[low.bit_length() - 1])
            bits ^= low
        return out

    @staticmethod
    def iter_bits(bits: int) -> Iterator[int]:
        """Yield the set bit positions of a bitset, ascending."""
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def successor_image(self, bits: int) -> int:
        """States entered by one arc from a state of ``bits``."""
        return self._image(0, self.succ_bits, bits)

    def predecessor_image(self, bits: int) -> int:
        """States with an arc into a state of ``bits``."""
        return self._image(1, self.pred_bits, bits)

    def _image(self, kind: int, adjacency: List[int], bits: int) -> int:
        """One lookup per byte of ``bits`` in per-byte tables of the
        adjacency bitsets (built on first use): ``tables[k][byte]`` is
        the OR of ``adjacency[8k + b]`` over the set bits ``b`` of
        ``byte``."""
        tables = self._image_tables[kind]
        if tables is None:
            padded = adjacency + [0] * 7
            tables = []
            for base in range(0, len(adjacency), 8):
                table = [0] * 256
                for byte in range(1, 256):
                    low = byte & -byte
                    table[byte] = (table[byte ^ low]
                                   | padded[base + low.bit_length() - 1])
                tables.append(table)
            self._image_tables[kind] = tables
        out = 0
        for table in tables:
            if not bits:
                break
            out |= table[bits & 255]
            bits >>= 8
        return out

    # ------------------------------------------------------------------
    # Codes
    # ------------------------------------------------------------------

    def pack(self, vector) -> int:
        """Pack a signal vector (mapping) into a machine int."""
        bit = self.bit
        packed = 0
        for name in vector:
            if vector[name]:
                packed |= 1 << bit[name]
        return packed

    def unpack(self, packed: int) -> FrozenVector:
        """The :class:`FrozenVector` of a packed code."""
        return FrozenVector({name: (packed >> i) & 1
                             for i, name in enumerate(self.signals)})

    def codes_of(self, bits: int) -> Set[int]:
        """Distinct packed codes of the states in a bitset."""
        # The reversed binary numeral of ``bits`` holds state i's
        # membership at byte i: one C-level compress over the codes.
        flags = format(bits, "b").encode().translate(_BINARY_FLAGS)
        return set(compress(self.codes, flags[::-1]))

    def project(self, packed: int, support: Sequence[str]) -> int:
        """Re-pack a code onto ``support`` (bit ``i`` = ``support[i]``),
        matching :func:`repro.boolean.minimize._vector_int`."""
        bit = self.bit
        out = 0
        for i, name in enumerate(support):
            if (packed >> bit[name]) & 1:
                out |= 1 << i
        return out

    def cover_bits(self, cover: SopCover) -> int:
        """Bitset of the states whose code ``cover`` evaluates to 1:
        per cube, the AND of its literals' value half-spaces."""
        signals = self.signals
        out = 0
        for cube in cover:
            mask, value = _cube_int(cube, signals)
            bits = self.full_mask
            while mask:
                low = mask & -mask
                half = self.value_bits(signals[low.bit_length() - 1])
                bits &= half if value & low else ~half
                mask ^= low
            out |= bits
        return out

    def value_bits(self, signal: str) -> int:
        """Bitset of states whose code sets ``signal`` to 1."""
        cached = self._value_bits.get(signal)
        if cached is None:
            vbit = 1 << self.bit[signal]
            cached = 0
            for i, code in enumerate(self.codes):
                if code & vbit:
                    cached |= 1 << i
            self._value_bits[signal] = cached
        return cached

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------

    @property
    def events(self) -> List[Event]:
        """The events labelling at least one arc, sorted."""
        return sorted(self._event_bits)

    def event_masks(self) -> Tuple[Dict[Event, int], List[int]]:
        """Per-state enabled-event masks (cached): ``(bit, masks)``
        with ``bit[event]`` a one-bit mask in sorted event order — so
        ascending bits list events sorted — and ``masks[i]`` the OR of
        the events enabled at state ``i``."""
        if self._event_masks is None:
            bit = {event: 1 << k for k, event in enumerate(self.events)}
            masks: List[int] = []
            for arcs in self.arcs:
                mask = 0
                for event, _ in arcs:
                    mask |= bit[event]
                masks.append(mask)
            self._event_masks = (bit, masks)
        return self._event_masks

    def diamonds(self) -> List[IndexDiamond]:
        """Every complete commutativity diamond (cached): both firing
        orders of two different events enabled at ``bottom`` exist and
        meet in ``top``.  Bottoms ascend, event pairs follow the arc
        order of the bottom, tops ascend."""
        if self._diamonds is None:
            arcs = self.arcs
            found: List[IndexDiamond] = []
            for bottom, out in enumerate(arcs):
                for k, (event_a, side_a) in enumerate(out):
                    for event_b, side_b in out[k + 1:]:
                        if event_a == event_b:
                            continue
                        tops_ab = {t for e, t in arcs[side_a]
                                   if e == event_b}
                        tops_ba = {t for e, t in arcs[side_b]
                                   if e == event_a}
                        for top in sorted(tops_ab & tops_ba):
                            found.append((bottom, event_a, event_b,
                                          side_a, side_b, top))
            self._diamonds = found
        return self._diamonds

    def diamond_table(self) -> List[List[int]]:
        """Per-state diamond table (cached): ``table[i]`` lists, in
        ascending order, the positions in :meth:`diamonds` of the
        diamonds with a corner at state ``i``.  Partition growth reads
        it to visit only the diamonds touching a region."""
        if self._diamond_table is None:
            table: List[List[int]] = [[] for _ in self.states]
            for position, diamond in enumerate(self.diamonds()):
                bottom, _, _, side_a, side_b, top = diamond
                for corner in (bottom, side_a, side_b, top):
                    entries = table[corner]
                    if not entries or entries[-1] != position:
                        entries.append(position)
            self._diamond_table = table
        return self._diamond_table

    def event_bits(self, event: Event) -> int:
        """Bitset of states where ``event`` is enabled."""
        return self._event_bits.get(event, 0)

    def excited_bits(self, signal: str) -> int:
        """Bitset of states where some transition of ``signal`` is
        enabled."""
        return self._excited_bits.get(signal, 0)

    def event_targets(self, event: Event, sources: int) -> int:
        """Bitset of states entered by firing ``event`` from
        ``sources`` (the packed switching-region primitive)."""
        out = 0
        for i, j in self._event_arcs.get(event, ()):
            if (sources >> i) & 1:
                out |= 1 << j
        return out

    def closure_forward(self, start: int, allowed: int) -> int:
        """Forward closure of ``start & allowed`` through arcs staying
        inside ``allowed`` — one word-parallel frontier sweep (each
        state's successors are ORed once, so no image tables are
        built)."""
        succ = self.succ_bits
        closure = start & allowed
        frontier = closure
        while frontier:
            step = 0
            bits = frontier
            while bits:
                low = bits & -bits
                step |= succ[low.bit_length() - 1]
                bits ^= low
            frontier = step & allowed & ~closure
            closure |= frontier
        return closure

    def reach_sets(self, allowed: int) -> List[int]:
        """Forward closure of every single state inside ``allowed``:
        ``reach[i] == closure_forward(1 << i, allowed)`` for ``i`` in
        ``allowed``, 0 elsewhere.

        One iterative Tarjan pass condenses the induced subgraph into
        strongly connected components, so cycles cost nothing extra.
        Tarjan completes a component only after every component it
        reaches, so the component's reach set is its own states ORed
        with the finished reach sets of the states its arcs leave to.
        """
        succ = self.succ_bits
        reach = [0] * len(succ)
        order = [0] * len(succ)      # DFS discovery number, 0: unvisited
        low = [0] * len(succ)
        stack: List[int] = []        # Tarjan's stack of open states
        counter = 0
        for root in self.iter_bits(allowed):
            if order[root]:
                continue
            counter += 1
            order[root] = low[root] = counter
            stack.append(root)
            work = [(root, succ[root] & allowed)]
            while work:
                v, rest = work[-1]
                if rest:
                    bit = rest & -rest
                    work[-1] = (v, rest ^ bit)
                    w = bit.bit_length() - 1
                    if not order[w]:
                        counter += 1
                        order[w] = low[w] = counter
                        stack.append(w)
                        work.append((w, succ[w] & allowed))
                    elif not reach[w] and order[w] < low[v]:
                        # w is still open: on the stack, in v's component
                        low[v] = order[w]
                    continue
                work.pop()
                if low[v] == order[v]:
                    members = exits = 0
                    while True:
                        w = stack.pop()
                        members |= 1 << w
                        exits |= succ[w]
                        if w == v:
                            break
                    closure = members
                    exits &= allowed & ~members
                    while exits:
                        bit = exits & -exits
                        closure |= reach[bit.bit_length() - 1]
                        exits ^= bit
                    while members:
                        bit = members & -members
                        reach[bit.bit_length() - 1] = closure
                        members ^= bit
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
        return reach

    def components(self, bits: int) -> List[int]:
        """Weakly connected components of the subgraph induced by
        ``bits`` (adjacency through arcs in either direction), as
        bitsets in ascending lowest-index order."""
        succ, pred = self.succ_bits, self.pred_bits
        components: List[int] = []
        pool = bits
        while pool:
            component = pool & -pool
            frontier = component
            while frontier:
                reach = 0
                probe = frontier
                while probe:
                    low = probe & -probe
                    i = low.bit_length() - 1
                    reach |= succ[i] | pred[i]
                    probe ^= low
                frontier = reach & pool & ~component
                component |= frontier
            components.append(component)
            pool &= ~component
        return components


def next_value(sg: StateGraph, state: State, signal: str) -> int:
    """The *implied value* of a signal at a state.

    1 if the signal is 1 and stable or rising (``a+`` enabled); 0 if it
    is 0 and stable or falling.  This is the function a combinational
    (complete-cover) implementation of the signal must compute.
    """
    value = sg.code(state)[signal]
    if sg.is_excited(state, signal):
        return 1 - value
    return value


def next_state_ints(sg: StateGraph, signal: str,
                    support: Sequence[str]) -> Tuple[List[int], List[int]]:
    """ON / OFF packed-vector sets of the signal's next-state function,
    projected onto ``support`` in :func:`repro.boolean.minimize.
    _vector_int` bit order.

    The ON states are ``value_bits(signal) ^ excited_bits(signal)``:
    1 and stable, or 0 and rising.  Their codes and the OFF states'
    codes are collected as sets, and raise :class:`CscViolation` if
    some *full* code appears in both (checked before projection) —
    exactly the situation in which no logic function can implement the
    signal.  The full support returns the codes as they are.  The
    support of a complete cover — every signal but ``signal``, in
    order — drops the signal's bit with one shift and mask per code;
    any other support re-packs each code with :meth:`Encoding.project`.
    """
    enc = sg.encoding()
    on_bits = enc.value_bits(signal) ^ enc.excited_bits(signal)
    on = enc.codes_of(on_bits)
    off = enc.codes_of(enc.full_mask & ~on_bits)
    clash = on & off
    if clash:
        sample = enc.unpack(min(clash))
        raise CscViolation(
            f"next-state function of {signal!r} is ill-defined on code "
            f"{sample!r} (CSC violation)")
    support = tuple(support)
    signals = enc.signals
    if support == signals:
        return sorted(on), sorted(off)
    position = enc.bit[signal]
    if support == signals[:position] + signals[position + 1:]:
        low = (1 << position) - 1
        high = ~low
        return (sorted({c & low | c >> 1 & high for c in on}),
                sorted({c & low | c >> 1 & high for c in off}))
    return (sorted({enc.project(code, support) for code in on}),
            sorted({enc.project(code, support) for code in off}))
