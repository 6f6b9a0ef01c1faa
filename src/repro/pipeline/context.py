"""Per-circuit synthesis context with memoized artifacts.

A :class:`SynthesisContext` owns every intermediate artifact of the
DATE'97 flow for *one* circuit:

* the parsed :class:`~repro.stg.stg.Stg`;
* the encoded :class:`~repro.sg.graph.StateGraph` (one reachability
  pass, ever);
* the CSC-resolved state graph, when state-signal insertion is
  requested;
* the per-signal :class:`~repro.synthesis.cover.SignalImplementation`
  covers and the initial standard-C netlist;
* :class:`~repro.mapping.decompose.MappingResult` objects, keyed by
  ``(library size, acknowledgment mode, mapper configuration)``.

All artifacts live in a content-keyed :class:`ArtifactCache`, so the
Table-1 battery (k = 2/3/4 plus the local-acknowledgment baseline)
shares a single reachability pass and a single initial synthesis
instead of re-deriving them five times.  ``stats`` counts the actual
computations performed through this context — tests assert on it.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Dict, Optional, Tuple, Union

from repro.mapping.decompose import (MapperConfig, MappingResult,
                                     TechnologyMapper)
from repro.pipeline.cache import ArtifactCache, content_key_of
from repro.sg.graph import StateGraph
from repro.sg.properties import check_speed_independence
from repro.sg.reachability import state_graph_of
from repro.stg.parser import load_g, parse_g
from repro.stg.stg import Stg
from repro.stg.writer import write_g
from repro.synthesis.cover import SignalImplementation, synthesize_all
from repro.synthesis.library import GateLibrary
from repro.synthesis.netlist import Netlist

#: artifact kinds, in flow order (documentation / telemetry labels)
ARTIFACTS = ("stg", "sg", "check", "csc", "implementations", "netlist",
             "map")


class SynthesisContext:
    """Memoized artifacts of the synthesis flow for one circuit."""

    def __init__(self, stg: Stg, cache: Optional[ArtifactCache] = None):
        self._stg = stg
        self.cache = cache if cache is not None else ArtifactCache()
        self._content_key: Optional[str] = None
        #: number of times each artifact was actually *computed* (cache
        #: misses) through this context — the memoization contract is
        #: ``stats["sg"] == 1`` no matter how many mappings ran.
        self.stats: Dict[str, int] = {kind: 0 for kind in ARTIFACTS}
        self.stats["stg"] = 1
        #: trial-synthesis telemetry, accumulated over every mapping
        #: computed through this context: how many signal syntheses
        #: ran across all trial candidates, and how many were skipped
        #: outright because the candidate's rejection was proven first.
        self.stats["signals_resynthesized"] = 0
        self.stats["signals_skipped"] = 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_benchmark(cls, name: str,
                       cache: Optional[ArtifactCache] = None
                       ) -> "SynthesisContext":
        """Context for a circuit of the built-in Table-1 suite."""
        from repro.bench_suite import benchmark
        return cls(benchmark(name), cache=cache)

    @classmethod
    def from_file(cls, path: str,
                  cache: Optional[ArtifactCache] = None
                  ) -> "SynthesisContext":
        """Context for an on-disk ``.g`` file."""
        return cls(load_g(path), cache=cache)

    @classmethod
    def from_g(cls, text: str, name: Optional[str] = None,
               cache: Optional[ArtifactCache] = None
               ) -> "SynthesisContext":
        """Context for inline ``.g`` text."""
        return cls(parse_g(text, name), cache=cache)

    @classmethod
    def of(cls, source: Union[str, Stg, "SynthesisContext"],
           cache: Optional[ArtifactCache] = None) -> "SynthesisContext":
        """Coerce a circuit source into a context.

        Path-like strings (a ``.g`` suffix or a path separator) are
        loaded as files.  Bare names resolve against the built-in
        benchmark suite — a stray same-named file in the working
        directory never shadows a benchmark, and a typo'd name gets
        the registry's "unknown benchmark" error, not a file error.
        Existing contexts pass through unchanged.
        """
        if isinstance(source, SynthesisContext):
            return source
        if isinstance(source, Stg):
            return cls(source, cache=cache)
        import os
        path_like = (source.endswith(".g") or "/" in source
                     or os.sep in source)
        if not path_like:
            from repro.bench_suite import benchmark_names
            if source in benchmark_names() or not os.path.exists(source):
                return cls.from_benchmark(source, cache=cache)
        return cls.from_file(source, cache=cache)

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------

    @property
    def stg(self) -> Stg:
        return self._stg

    @property
    def name(self) -> str:
        return self._stg.name

    @property
    def content_key(self) -> str:
        """SHA-256 of the canonical ``.g`` text — the cache namespace."""
        if self._content_key is None:
            self._content_key = content_key_of(write_g(self._stg))
        return self._content_key

    def _artifact(self, kind: str, params: Tuple, compute):
        def counted():
            self.stats[kind] = self.stats.get(kind, 0) + 1
            return compute()
        return self.cache.get_or_compute(
            (kind, self.content_key) + params, counted)

    def state_graph(self) -> StateGraph:
        """The encoded state graph (one reachability pass per circuit)."""
        return self._artifact("sg", (), lambda: state_graph_of(self._stg))

    def csc_result(self, max_signals: int = 8, method: str = "blocks"):
        """The full CSC solve (state graph + steps + telemetry).

        The artifact is the whole :class:`~repro.mapping.csc.CscResult`
        so that a warm cache hit still carries the per-step telemetry
        (``signals_inserted`` / ``candidates_evaluated``) the pipeline
        reports.
        """
        def compute():
            from repro.mapping.csc import solve_csc
            return solve_csc(self.state_graph(), max_signals=max_signals,
                             method=method)
        return self._artifact("csc", (method, max_signals), compute)

    def csc_state_graph(self, max_signals: int = 8,
                        method: str = "blocks") -> StateGraph:
        """The CSC-resolved state graph (state-signal insertion)."""
        return self.csc_result(max_signals=max_signals, method=method).sg

    def implementations(self, csc: bool = False,
                        csc_method: str = "blocks"
                        ) -> Dict[str, SignalImplementation]:
        """Monotonous covers for every output (one initial synthesis).

        The cache key only mentions the CSC method when CSC solving is
        on — without it every method maps to the same raw state graph,
        and keeping the historical key means old store entries stay
        warm.
        """
        sg = (self.csc_state_graph(method=csc_method) if csc
              else self.state_graph())
        params = (csc, csc_method) if csc else (csc,)
        return self._artifact("implementations", params,
                              lambda: synthesize_all(sg))

    def initial_netlist(self, csc: bool = False,
                        csc_method: str = "blocks") -> Netlist:
        """The complex-gate standard-C netlist before mapping."""
        params = (csc, csc_method) if csc else (csc,)
        return self._artifact(
            "netlist", params,
            lambda: Netlist(self.name,
                            self.implementations(csc, csc_method)))

    def check(self):
        """The speed-independence / implementability property report."""
        return self._artifact(
            "check", (),
            lambda: check_speed_independence(self.state_graph()))

    def mapping(self, literals: int, mode: str = "global",
                config: Optional[MapperConfig] = None) -> MappingResult:
        """Map into a ``literals``-sized library, reusing the shared
        state graph and initial synthesis.

        ``mode`` is ``"global"`` (the paper's method) or ``"local"``
        (the Siegel-style local-acknowledgment baseline, reference
        [12]).  When the configuration asks for CSC solving, the
        CSC-resolved artifacts are used — still computed only once and
        shared across all library sizes.
        """
        if mode not in ("global", "local"):
            raise ValueError(f"unknown acknowledgment mode {mode!r}")
        base = config or MapperConfig()

        def compute() -> MappingResult:
            run_config = base
            csc = base.solve_csc
            if csc:
                from dataclasses import replace
                run_config = replace(base, solve_csc=False)
            if mode == "local":
                run_config = run_config.local_ack()
            sg = (self.csc_state_graph(method=base.csc_method) if csc
                  else self.state_graph())
            mapper = TechnologyMapper(GateLibrary(literals), run_config)
            result = mapper.map(
                sg,
                implementations=self.implementations(csc,
                                                     base.csc_method))
            self.stats["signals_resynthesized"] += (
                result.trial_resynthesized)
            self.stats["signals_skipped"] += result.trial_skipped
            return result

        return self._artifact(
            "map", (literals, mode, astuple(base)), compute)

    def __repr__(self) -> str:
        return (f"SynthesisContext({self.name!r}, "
                f"key={self.content_key[:12]}, stats={self.stats})")
