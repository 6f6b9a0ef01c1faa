"""Seeded inputs of the three workloads, with the reason each was chosen.

Every input reaches the program as ``.g`` text.  The same seed gives
byte-identical inputs: the seed permutes the circuit order of
``table1-cold`` and ``csc-encode`` and draws the arrival times, the
fresh/hot/cold mix, the circuits and their renames of
``service-open``.  No circuit appears twice inside one timed run,
because module-level memo tables (the ``bench_suite`` STG cache, the
``minimize`` packing memo) would make a repeat measure a different
program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

# ----------------------------------------------------------------------
# table1-cold: the paper's Table-1 battery over 22 built-in circuits
# ----------------------------------------------------------------------

_MS = ("ms-scale classic; the battery costs milliseconds, so it weighs "
       "load/reach/synthesize against the mapper")

#: circuit -> why it is in the battery
TABLE1_CIRCUITS: Dict[str, str] = {
    "half": _MS, "chu133": _MS, "chu150": _MS, "converta": _MS,
    "dff": _MS, "ebergen": _MS, "hazard": _MS + "; 1 insertion at k=2",
    "mp-forward-pkt": _MS, "nowick": _MS, "rcv-setup": _MS,
    "rpdft": _MS, "vbe5b": _MS, "vbe5c": _MS, "vbe6a": _MS,
    "alloc-outbound": _MS,
    "seq_mix": "0.3 s; sequencer mix, local-ack baseline n.i.",
    "trimos-send": "0.8 s; join-heavy controller (covers wrdatab's join "
                   "shape)",
    "sbuf-send-pkt2": "1.8 s; fork/join buffer controller",
    "mmu": "1.9 s; fork/join controller (covers master-read's shape)",
    "sbuf-ram-write": "2.5 s; the sbuf-* family's write path",
    "nak-pa": "6 s; the k=2 n.i. search (the mapper proves no divisor "
              "makes progress)",
    "mr1": "~16-19 s; the deepest accepted-insertion chain (16 signals "
           "at k=2)",
}

#: suite circuit -> why it is left out
TABLE1_EXCLUDED: Dict[str, str] = {
    "vbe10b": "same topology as mr1",
    "wrdatab": "16-21 s; its join shape is covered by trimos-send and "
               "nak-pa",
    "master-read": "16-21 s; its fork/join shape is covered by mmu and "
                   "sbuf-*",
    "seq4": "over 60 s per battery",
    "ram-read-sbuf": "over 60 s per battery",
    "sbuf-send-ctl": "over 60 s per battery",
    "mr0": "over 60 s per battery",
    "tsend-bm": "over 60 s per battery",
    "pe-rcv-ifc": "over 60 s per battery (tens of minutes)",
    "pe-send-ifc": "over 60 s per battery (tens of minutes)",
}

#: the smoke configuration: three ms-scale circuits
TABLE1_SMOKE = ("half", "hazard", "dff")

#: a C-element: CSC-clean, in no workload, run once during set-up so
#: lazy imports and first-call costs stay out of the timed runs
WARMUP_G = """.model warmup-celement
.inputs a b
.outputs c
.graph
a+ c+
b+ c+
c+ a- b-
a- c-
b- c-
c- a+ b+
.marking { <c-,a+> <c-,b+> }
.end
"""


def suite_text(name: str) -> str:
    """The canonical ``.g`` text of one built-in circuit."""
    from repro.bench_suite import benchmark
    from repro.stg.writer import write_g
    return write_g(benchmark(name))


def table1_inputs(seed: int, smoke: bool = False
                  ) -> List[Tuple[str, str]]:
    """``(name, g_text)`` of the battery, in seeded order."""
    names = sorted(TABLE1_SMOKE if smoke else TABLE1_CIRCUITS)
    random.Random(seed).shuffle(names)
    return [(name, suite_text(name)) for name in names]


# ----------------------------------------------------------------------
# csc-encode: generated CSC-conflicted families
# ----------------------------------------------------------------------

# Two families whose conflicts grow with their size: chained-handshake
# sequencers (one request serialized into n handshakes; every
# unobserved phase repeat is a conflict) and alternators (one input
# handshaking with n outputs in turn: n equal codes with different
# enabled outputs).  The regions solver runs on every member; the
# blocks solver only up to BLOCKS_MAX_SIZE (beyond it, it exhausts its
# 8-signal budget).
BLOCKS_MAX_SIZE = 6
FAMILY_SIZES = range(2, 13)
CSC_SMOKE = (("seqcsc", 2, "regions"), ("seqcsc", 2, "blocks"),
             ("alternator", 3, "regions"))


def _g_text(name: str, inputs: Sequence[str], outputs: Sequence[str],
            arcs: Sequence[Tuple[str, str]],
            marked: Tuple[str, str]) -> str:
    """A marked graph in ``.g`` form; ``marked`` carries the token."""
    lines = [f".model {name}", ".inputs " + " ".join(inputs),
             ".outputs " + " ".join(outputs), ".graph"]
    lines += [f"{source} {target}" for source, target in
              list(arcs) + [marked]]
    lines += [".marking { <%s,%s> }" % marked, ".end", ""]
    return "\n".join(lines)


def sequencer_g(stages: int) -> str:
    """``stages`` chained handshakes serving one request."""
    arcs = [("r+", "ro1+")]
    for i in range(1, stages + 1):
        arcs += [(f"ro{i}+", f"ai{i}+"), (f"ai{i}+", f"ro{i}-"),
                 (f"ro{i}-", f"ai{i}-")]
        if i < stages:
            arcs.append((f"ai{i}-", f"ro{i + 1}+"))
    arcs += [(f"ai{stages}-", "a+"), ("a+", "r-"), ("r-", "a-")]
    return _g_text(f"seqcsc{stages}",
                   ["r"] + [f"ai{i}" for i in range(1, stages + 1)],
                   ["a"] + [f"ro{i}" for i in range(1, stages + 1)],
                   arcs, ("a-", "r+"))


def alternator_g(outputs: int) -> str:
    """One input handshaking with ``outputs`` outputs in turn."""
    def edge(sign: str, i: int) -> str:
        return f"r{sign}" if i == 1 else f"r{sign}/{i}"

    arcs: List[Tuple[str, str]] = []
    for i in range(1, outputs + 1):
        arcs += [(edge("+", i), f"o{i}+"), (f"o{i}+", edge("-", i)),
                 (edge("-", i), f"o{i}-")]
        if i < outputs:
            arcs.append((f"o{i}-", edge("+", i + 1)))
    return _g_text(f"alternator{outputs}", ["r"],
                   [f"o{i}" for i in range(1, outputs + 1)], arcs,
                   (f"o{outputs}-", "r+"))


_FAMILIES = {"seqcsc": sequencer_g, "alternator": alternator_g}


def csc_warmup_g() -> str:
    """A one-stage sequencer, outside both families (they start at
    2): the csc-encode warm-up, solvable by both methods."""
    return renamed(sequencer_g(1), "warmup-seqcsc1")


@dataclass(frozen=True)
class CscMember:
    """One (circuit, solver method) pair of csc-encode."""

    family: str
    size: int
    method: str
    text: str

    @property
    def name(self) -> str:
        return f"{self.family}{self.size}"

    @property
    def label(self) -> str:
        return f"{self.name}/{self.method}"


def csc_inputs(seed: int, smoke: bool = False) -> List[CscMember]:
    """The csc-encode pairs, in seeded order."""
    if smoke:
        chosen = list(CSC_SMOKE)
    else:
        chosen = [(family, size, method)
                  for family in sorted(_FAMILIES)
                  for size in FAMILY_SIZES
                  for method in ("blocks", "regions")
                  if method == "regions" or size <= BLOCKS_MAX_SIZE]
    random.Random(seed).shuffle(chosen)
    return [CscMember(family, size, method, _FAMILIES[family](size))
            for family, size, method in chosen]


# ----------------------------------------------------------------------
# service-open: an open-loop arrival schedule plus burst batches
# ----------------------------------------------------------------------

#: the ms-scale circuits: per-job compute is 10-50 ms, so transport,
#: queueing, canonicalisation and the store dominate
SERVICE_BASES = ("half", "chu133", "chu150", "converta", "dff", "ebergen",
                 "hazard", "mp-forward-pkt", "nowick", "rcv-setup",
                 "rpdft", "vbe5b", "vbe5c", "vbe6a", "alloc-outbound")


@dataclass(frozen=True)
class Arrival:
    """One job submission of service-open."""

    at: float        # scheduled send time, seconds after phase start
    #: fresh: a base circuit under a new .model name (a new content
    #: key: full compute and store writes); hot: a duplicate of a recent
    #: job, deduplicated while resident; cold: a duplicate of a job
    #: already evicted, whose row is read back from the store; burst: a
    #: fresh job of a phase-2 batch
    kind: str
    base: str        # the built-in circuit it renames
    name: str        # its .model name
    text: str


@dataclass(frozen=True)
class ServicePlan:
    rate: float                 # phase-1 arrivals per second
    arrivals: int               # phase-1 arrival count
    batches: int                # phase-2 batches, one after another
    batch: int                  # jobs per batch: whole rounds of the
                                # base circuits
    retain: int                 # the daemon's --retain-jobs
    hot_window: int = 8         # hot duplicates pick among the last N
    #: the kind mix, dealt in shuffled blocks: 10 fresh, 3 hot, 2 cold
    kinds: Tuple[str, ...] = ("fresh",) * 10 + ("hot",) * 3 + ("cold",) * 2


#: 300 arrivals: at least 200 create a job, so the p95 of their queue
#: wait has ten samples beyond it
SERVICE_PLAN = ServicePlan(rate=12.0, arrivals=300, batches=4, batch=90,
                           retain=24)
SERVICE_SMOKE = ServicePlan(rate=40.0, arrivals=300, batches=3, batch=15,
                            retain=8, hot_window=4)


def renamed(text: str, name: str) -> str:
    """``.g`` text with its ``.model`` line replaced."""
    head, _, rest = text.partition("\n")
    if not head.startswith(".model "):
        raise ValueError("expected a .model line first")
    return f".model {name}\n{rest}"


class _Deck:
    """Deals items in shuffled rounds, so every seed gets the same mix
    and only the order varies."""

    def __init__(self, items: Sequence, rng: random.Random):
        self.items = list(items)
        self.rng = rng
        self.hand: List = []

    def deal(self):
        if not self.hand:
            self.hand = list(self.items)
            self.rng.shuffle(self.hand)
        return self.hand.pop()


def service_inputs(seed: int, plan: ServicePlan
                   ) -> Tuple[List[Arrival], List[List[Arrival]]]:
    """(phase-1 arrivals, phase-2 batches) for one seed.

    Arrival gaps are exponential: the distribution's ``arrivals``
    quantiles, in seeded order, so every seed has the same gaps and
    phase 1 lasts the same time; only their order varies.  Kinds and
    base circuits are dealt from shuffled decks too, so the mix is the
    same for every seed.  Each batch is whole rounds of the base
    circuits.  A cold duplicate targets a fresh job at least
    ``2 * retain`` fresh jobs old, so it has been evicted when it
    arrives; each is drawn once.  Until such a job exists the arrival
    is fresh instead.
    """
    rng = random.Random(seed)
    texts = {base: suite_text(base) for base in SERVICE_BASES}
    bases = _Deck(SERVICE_BASES, rng)
    kinds = _Deck(plan.kinds, rng)
    gaps = [-math.log(1 - (i + 0.5) / plan.arrivals) / plan.rate
            for i in range(plan.arrivals)]
    rng.shuffle(gaps)
    fresh: List[Arrival] = []
    cold_used = set()
    arrivals: List[Arrival] = []
    at = 0.0

    def new_fresh(kind: str, when: float) -> Arrival:
        base = bases.deal()
        name = f"s{seed}-{kind}{len(fresh) + 1:04d}-{base}"
        job = Arrival(when, kind, base, name, renamed(texts[base], name))
        fresh.append(job)
        return job

    for gap in gaps:
        at += gap
        kind = kinds.deal()
        cold_pool = [i for i in range(max(0, len(fresh) - 2 * plan.retain))
                     if i not in cold_used]
        if kind == "cold" and cold_pool:
            index = rng.choice(cold_pool)
            cold_used.add(index)
            target = fresh[index]
        elif kind == "hot" and fresh:
            target = rng.choice(fresh[-plan.hot_window:])
        else:
            arrivals.append(new_fresh("fresh", at))
            continue
        arrivals.append(Arrival(at, kind, target.base, target.name,
                                target.text))
    if plan.batch % len(SERVICE_BASES):
        raise ValueError("a batch must be whole rounds of the bases")
    bases.hand = []                     # the batches start a new round
    batches = [[new_fresh("burst", 0.0) for _ in range(plan.batch)]
               for _ in range(plan.batches)]
    return arrivals, batches
