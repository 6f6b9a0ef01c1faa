"""Command-line interface: the ``si-mapper`` tool.

Sub-commands:

* ``si-mapper map circuit.g [-k LITERALS] [--local-ack] [--dot out.dot]``
  — map one STG (a ``.g`` file or a built-in benchmark name) and print
  the netlist;
* ``si-mapper check circuit.g`` — run the SG property suite;
* ``si-mapper csc circuit.g [--csc-method blocks|regions]`` — solve
  Complete State Coding by state-signal insertion and print the steps;
* ``si-mapper report [names...] [-k ...] [-j JOBS]`` — regenerate
  (part of) Table 1 on the built-in benchmark suite, fanning circuits
  out over worker processes; ``--shard i/N`` runs one machine's
  deterministic slice (writing a shard JSON), ``--merge shard*.json``
  reassembles the byte-identical single-machine report;
* ``si-mapper serve`` — run the artifact cache server that remote
  workers share via ``--cache-url`` / ``SI_MAPPER_CACHE_URL``; with
  ``--workers N`` (the default) it is also the synthesis job service
  behind ``submit``;
* ``si-mapper submit circuit.g --url URL`` — synthesize on a remote
  ``serve`` daemon: POST the STG, poll the job, print the Table-1 row
  as canonical JSON (byte-identical to the local run's row);
* ``si-mapper trace run.trace.json [--tree]`` — summarize a trace
  file recorded by ``--trace`` (``map``/``report``/``submit`` all
  take it; the JSON also loads in Perfetto / ``chrome://tracing``);
* ``si-mapper bench-list`` — list the benchmark suite;
* ``si-mapper show NAME`` — print a built-in benchmark as ``.g``;
* ``si-mapper cache stats|gc|clear`` — inspect or maintain the
  persistent artifact store (local or remote).

Every command runs through :mod:`repro.pipeline`, so repeated stages
(reachability, initial synthesis) are computed once per circuit.  With
``--cache-dir DIR`` (or the ``SI_MAPPER_CACHE`` environment variable)
they are computed once *ever*: artifacts persist in an on-disk store
and later runs — including parallel ``report`` workers — warm-start
from it.  ``--cache-url URL`` (or ``SI_MAPPER_CACHE_URL``) points at a
``si-mapper serve`` daemon instead, ``--cache-s3 SPEC`` (or
``SI_MAPPER_CACHE_S3``) at an S3-compatible bucket — and a directory
plus either shared backend tiers the local disk in front of it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.bench_suite import benchmark, benchmark_names
from repro.errors import ReproError
from repro.mapping.decompose import MapperConfig
from repro.pipeline import (ArtifactCache, Pipeline, PipelineConfig,
                            SynthesisContext)
from repro.stg.writer import write_g
from repro.synthesis.library import GateLibrary

#: environment fallback for ``--cache-dir``
CACHE_ENV = "SI_MAPPER_CACHE"
#: environment fallback for ``--cache-url``
CACHE_URL_ENV = "SI_MAPPER_CACHE_URL"
#: environment fallback for ``--cache-s3``
CACHE_S3_ENV = "SI_MAPPER_CACHE_S3"
#: environment fallback for ``--api-key`` (submit / report --claim)
API_KEY_ENV = "SI_MAPPER_API_KEY"


def _cache_dir_of(args: argparse.Namespace) -> Optional[str]:
    """The persistent store location: flag first, then environment."""
    return getattr(args, "cache_dir", None) or os.environ.get(CACHE_ENV)


def _cache_url_of(args: argparse.Namespace) -> Optional[str]:
    """The cache server address: flag first, then environment."""
    return (getattr(args, "cache_url", None)
            or os.environ.get(CACHE_URL_ENV))


def _cache_s3_of(args: argparse.Namespace) -> Optional[str]:
    """The object-store spec: flag first, then environment."""
    return (getattr(args, "cache_s3", None)
            or os.environ.get(CACHE_S3_ENV))


def _cache_of(args: argparse.Namespace) -> Optional[ArtifactCache]:
    from repro.dist.base import make_store
    store = make_store(_cache_dir_of(args), _cache_url_of(args),
                       _cache_s3_of(args))
    if store is None:
        return None
    return ArtifactCache(disk=store)


def _non_negative_int(text: str) -> int:
    """argparse type for a count that may be 0 but not negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _solve_csc_requested(args: argparse.Namespace) -> bool:
    """Choosing a non-default CSC method implies the stage itself —
    one rule shared by every sub-command that has both flags."""
    return args.solve_csc or args.csc_method != "blocks"


def _cmd_map(args: argparse.Namespace) -> int:
    solve_csc = _solve_csc_requested(args)
    config = PipelineConfig(
        libraries=(args.literals,),
        with_siegel=False,
        local_mode=args.local_ack,
        mapper=MapperConfig(solve_csc=solve_csc,
                            csc_method=args.csc_method),
        verify=args.verify,
        keep_artifacts=True,
        cache_dir=_cache_dir_of(args),
        cache_url=_cache_url_of(args),
        cache_s3=_cache_s3_of(args))
    record = Pipeline(config).run(args.circuit)
    mode = "local" if args.local_ack else "global"
    result = record.mappings[(args.literals, mode)]
    stg = record.stg
    library = GateLibrary(args.literals)
    print(result.summary())
    for step in result.steps:
        print(f"  + {step.signal} for {step.target} via {step.divisor}")
    print()
    print(result.netlist.pretty(library))
    if record.verified:
        print("\nspeed-independence verification: OK")
    if args.timings:
        print("\nstage timings:")
        print(record.timing_summary())
        resynthesized = record.stats.get("signals_resynthesized", 0)
        reused = record.stats.get("signals_reused", 0)
        skipped = record.stats.get("signals_skipped", 0)
        print(f"resynthesis: {resynthesized} signals from scratch, "
              f"{reused} reused, {skipped} skipped")
        print(record.minimizer_summary())
        if solve_csc:
            print(record.csc_summary())
        print(record.cache_summary())
        print(record.artifact_summary())
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(result.sg.to_dot())
        print(f"\nstate graph written to {args.dot}")
    if args.verilog:
        from repro.synthesis.export import to_verilog
        with open(args.verilog, "w", encoding="utf-8") as handle:
            handle.write(to_verilog(result.netlist, stg.inputs,
                                    tuple(s for s in stg.outputs
                                          if s not in stg.internal)))
        print(f"Verilog written to {args.verilog}")
    if args.eqn:
        from repro.synthesis.export import to_eqn
        with open(args.eqn, "w", encoding="utf-8") as handle:
            handle.write(to_eqn(result.netlist))
        print(f"equations written to {args.eqn}")
    return 0 if result.success else 1


def _cmd_check(args: argparse.Namespace) -> int:
    # ``of`` resolves benchmark names as well as paths, exactly like
    # ``si-mapper map``.
    context = SynthesisContext.of(args.circuit, cache=_cache_of(args))
    stg = context.stg
    from repro.stg.analysis import structural_report
    structure = structural_report(stg)
    classes = [label for label, key in (
        ("marked-graph", "marked_graph"),
        ("state-machine", "state_machine"),
        ("free-choice", "free_choice")) if structure.get(key)]
    sg = context.state_graph()
    report = context.check()
    print(f"{stg.name}: {len(sg)} states, "
          f"{len(sg.signals)} signals; "
          f"net class: {', '.join(classes) or 'general'}")
    for problem in structure.get("liveness_problems", []):
        print(f"  STRUCTURE: {problem}")
    if report.implementable:
        print("consistent, speed-independent, CSC: implementable")
        return 0
    for problem in report.all_violations():
        print(f"  VIOLATION: {problem}")
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report import render_report, run_battery
    if args.merge:
        # --merge renders what the shards recorded; it cannot honor a
        # different battery configuration, so refuse one instead of
        # printing a table the flags did not produce
        reconfigured = (args.literals != [2, 3, 4] or args.no_siegel
                        or args.jobs is not None
                        or _solve_csc_requested(args))
        if (args.shard or args.names or args.out or args.claim
                or reconfigured):
            print("error: --merge takes shard files only (it replays "
                  "nothing, prints to stdout, and renders the shards' "
                  "own configuration)", file=sys.stderr)
            return 2
        from repro.dist.shard import merge_shards, read_shard
        _, failures, text = merge_shards(
            [read_shard(path) for path in args.merge])
        print(text)
        return 0 if not failures else 1

    if args.out and not args.shard:
        print("error: --out only makes sense with --shard (the "
              "report itself goes to stdout)", file=sys.stderr)
        return 2
    if args.claim and not args.shard:
        print("error: --claim rides on --shard i/N (N workers share "
              "the claim pool; the position labels this worker's "
              "shard file)", file=sys.stderr)
        return 2
    chosen = list(args.names) if args.names else benchmark_names()
    shard = None
    subset = chosen
    out = None
    claimed_order: Optional[List[str]] = None
    if args.shard:
        from repro.dist.shard import parse_shard, shard_names
        shard = parse_shard(args.shard)
        if args.claim:
            # work stealing: pull circuits from the serve daemon's
            # claim pool instead of the static hash partition — a fast
            # worker drains more of the list, a slow one less
            url = _cache_url_of(args)
            if url is None:
                print("error: --claim needs the serve daemon address "
                      f"(--cache-url or ${CACHE_URL_ENV})",
                      file=sys.stderr)
                return 2
            from repro.dist.client import ServiceClient
            client = ServiceClient(url, api_key=_api_key_of(args))
            claimed_order = client.claim_all(chosen)
            subset = [name for name in chosen
                      if name in set(claimed_order)]
        else:
            subset = shard_names(chosen, *shard)
        out = args.out or (f"table1.shard-{shard[0]}"
                           f"of{shard[1]}.json")
        try:
            # fail on an unwritable destination *before* the battery,
            # not after tens of minutes of mapping
            with open(out, "a", encoding="utf-8"):
                pass
        except OSError as error:
            print(f"error: cannot write shard file {out}: {error}",
                  file=sys.stderr)
            return 2
    mapper = None
    if _solve_csc_requested(args):
        mapper = MapperConfig(solve_csc=True,
                              csc_method=args.csc_method)
    items = run_battery(subset, libraries=tuple(args.literals),
                        with_siegel=not args.no_siegel,
                        config=mapper,
                        progress=True, jobs=args.jobs,
                        cache_dir=_cache_dir_of(args),
                        cache_url=_cache_url_of(args),
                        cache_s3=_cache_s3_of(args))
    rows = [item.record.row for item in items if item.ok]
    failures = [(item.name, item.error) for item in items
                if not item.ok]
    print(render_report(rows, failures))
    if shard is not None:
        from repro.dist.shard import shard_payload, write_shard
        # aggregate this shard's cache traffic so the shard file tells
        # the operator how much the shared tier actually served
        telemetry: dict = {}
        for item in items:
            if item.record is None:
                continue
            for counter, value in item.record.stats.items():
                if counter.startswith(("disk_", "remote_")):
                    telemetry[counter] = (telemetry.get(counter, 0)
                                          + int(value))
        write_shard(out, shard_payload(
            chosen, shard, tuple(args.literals), not args.no_siegel,
            None if mapper is None else repr(mapper), rows, failures,
            telemetry=telemetry, claimed=claimed_order))
        print(f"shard {shard[0]}/{shard[1]}: {len(subset)} of "
              f"{len(chosen)} circuits -> {out}", file=sys.stderr)
    return 0 if len(rows) == len(subset) else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    """Measure the battery and write a BENCH_<n>.json snapshot."""
    from repro import perf
    from repro.bench_suite import subset_names
    if args.names and args.subset:
        print("error: give either explicit names or --subset, not "
              "both", file=sys.stderr)
        return 2
    names = list(args.names) if args.names else subset_names()
    if args.limit is not None:
        names = names[:args.limit]

    baseline = None
    if args.baseline:
        try:
            baseline = perf.load_snapshot(args.baseline)
        except (OSError, ValueError, KeyError) as error:
            print(f"error: cannot load baseline {args.baseline}: "
                  f"{error}", file=sys.stderr)
            return 2

    snapshot = perf.run_bench(
        names, libraries=tuple(args.literals),
        with_siegel=not args.no_siegel, jobs=args.jobs,
        progress=True, cache_dir=_cache_dir_of(args),
        cache_url=_cache_url_of(args),
        cache_s3=_cache_s3_of(args))
    out = args.out or perf.next_bench_path(".")
    perf.write_snapshot(snapshot, out)

    comparison = None
    if baseline is not None:
        comparison = perf.compare(baseline, snapshot)
    print(perf.format_summary(snapshot, comparison))
    print(f"snapshot written to {out}")
    if any(not entry["ok"] for entry in snapshot["circuits"]):
        return 1
    if comparison is not None and args.max_regression is not None:
        if not comparison["common"]:
            print("error: no common ok circuits with the baseline",
                  file=sys.stderr)
            return 1
        if comparison["ratio"] > 1.0 + args.max_regression:
            print(f"error: battery regressed {comparison['ratio']:.3f}x"
                  f" over baseline (allowed "
                  f"{1.0 + args.max_regression:.3f}x)", file=sys.stderr)
            return 1
    return 0


def _cmd_csc(args: argparse.Namespace) -> int:
    """Solve CSC for one circuit and print the insertion steps."""
    from repro.mapping.csc import csc_conflicts
    from repro.sg.properties import csc_violations

    context = SynthesisContext.of(args.circuit, cache=_cache_of(args))
    sg = context.state_graph()
    conflicts = csc_conflicts(sg)
    print(f"{context.name}: {len(sg)} states, "
          f"{len(conflicts)} CSC conflict pairs "
          f"({len(csc_violations(sg))} conflicting codes)")
    result = context.csc_result(max_signals=args.max_signals,
                                method=args.csc_method)
    print(result.summary())
    for step in result.steps:
        cost = "" if step.cost is None else f", cost {step.cost} lits"
        print(f"  + {step.signal} on block [{step.block_label}]: "
              f"{step.conflicts_before} -> {step.conflicts_after} "
              f"conflicts ({step.candidates_evaluated} candidates"
              f"{cost})")
    solved = result.sg
    remaining = csc_violations(solved)
    print(f"solved: {len(solved)} states, "
          f"{len(remaining)} violations remaining")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(solved.to_dot())
        print(f"state graph written to {args.dot}")
    return 0 if not remaining else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.dist.base import make_store
    # Maintenance targets exactly what the operator named: an explicit
    # flag wins outright, so `cache clear --cache-url ...` clears the
    # *server*, never a local store picked up from $SI_MAPPER_CACHE
    # (the tiered composite maintains only its local layer).
    if args.cache_dir or args.cache_url or args.cache_s3:
        store = make_store(args.cache_dir, args.cache_url,
                           args.cache_s3)
    else:
        store = make_store(_cache_dir_of(args), _cache_url_of(args),
                           _cache_s3_of(args))
    if store is None:
        print("error: no cache store (use --cache-dir/--cache-url/"
              f"--cache-s3 or set ${CACHE_ENV}/${CACHE_URL_ENV}/"
              f"${CACHE_S3_ENV})", file=sys.stderr)
        return 2
    if args.action == "stats":
        # a missing or empty store directory is just an empty
        # inventory — never an error
        print(store.report().pretty())
    elif args.action == "gc":
        max_age = (args.max_age_days * 86400.0
                   if args.max_age_days is not None else None)
        removed, freed = store.gc(max_age_seconds=max_age,
                                  max_bytes=args.max_bytes)
        print(f"gc: removed {removed} entries, freed {freed} bytes")
    else:  # clear
        removed, freed = store.clear()
        print(f"clear: removed {removed} entries, freed {freed} bytes")
    return 0


def _api_key_of(args: argparse.Namespace) -> Optional[str]:
    """The tenant key for the job API: flag first, then environment."""
    return (getattr(args, "api_key", None)
            or os.environ.get(API_KEY_ENV))


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the artifact cache server over a local store directory."""
    directory = _cache_dir_of(args)
    if directory is None:
        print("error: serve needs a store directory (use --cache-dir "
              f"or set ${CACHE_ENV})", file=sys.stderr)
        return 2
    # an upstream shared store (tiered *behind* this server's disk for
    # job pipelines) comes only from explicit flags — picking up
    # $SI_MAPPER_CACHE_URL here could point the daemon at itself
    upstream = None
    if args.cache_url and args.cache_s3:
        print("error: --cache-url and --cache-s3 are mutually "
              "exclusive", file=sys.stderr)
        return 2
    if args.cache_url:
        from repro.dist.remote import RemoteArtifactCache
        upstream = RemoteArtifactCache(args.cache_url)
    elif args.cache_s3:
        from repro.dist.objectstore import ObjectStoreArtifactCache
        upstream = ObjectStoreArtifactCache(args.cache_s3)
    api_keys = tuple(part.strip()
                     for chunk in (args.api_keys or [])
                     for part in chunk.split(",") if part.strip())
    from repro.dist.jobs import DEFAULT_RETAIN
    from repro.dist.server import ArtifactServer
    retain = (args.retain_jobs if args.retain_jobs is not None
              else DEFAULT_RETAIN)
    try:
        server = ArtifactServer(directory, host=args.host,
                                port=args.port, verbose=args.verbose,
                                workers=args.workers,
                                api_keys=api_keys, quota=args.quota,
                                request_timeout=args.request_timeout,
                                upstream=upstream,
                                retain_jobs=retain)
    except OSError as error:
        # bind failures (port taken, bad host) are operational errors,
        # not tracebacks
        print(f"error: cannot serve on {args.host}:{args.port}: "
              f"{error}", file=sys.stderr)
        return 2
    jobs = (f", {args.workers} synthesis worker(s)" if args.workers
            else "")
    auth = f", {len(api_keys)} API key(s)" if api_keys else ""
    print(f"serving artifact store {server.store.root} "
          f"at {server.url}{jobs}{auth}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if server.jobs is not None:
            server.jobs.stop()
        server.server_close()
    return 0


def _circuit_g_text(circuit: str) -> str:
    """Resolve a submit source into ``.g`` text: a path when it looks
    like one, a built-in benchmark name otherwise — the same rule as
    :meth:`SynthesisContext.of`."""
    if circuit.endswith(".g") or os.sep in circuit:
        with open(circuit, "r", encoding="utf-8") as handle:
            return handle.read()
    return write_g(benchmark(circuit))


def _cmd_submit(args: argparse.Namespace) -> int:
    """Synthesize on a remote serve daemon and print the Table-1 row."""
    from repro.dist.client import ServiceClient
    from repro.dist.jobs import JobParams
    url = args.url or _cache_url_of(args)
    if url is None:
        print("error: submit needs the service address (--url, "
              f"--cache-url, or ${CACHE_URL_ENV})", file=sys.stderr)
        return 2
    g_text = _circuit_g_text(args.circuit)
    params = JobParams(libraries=tuple(args.literals),
                       with_siegel=not args.no_siegel,
                       solve_csc=_solve_csc_requested(args),
                       csc_method=args.csc_method)
    client = ServiceClient(url, api_key=_api_key_of(args))

    narrated = {"count": 0}

    def narrate(document: dict) -> None:
        if not args.verbose:
            return
        events = document.get("events", [])
        for event in events[narrated["count"]:]:
            if event.get("status") == "done":
                print(f"... {event['stage']}: "
                      f"{event.get('seconds', 0):.3f}s",
                      file=sys.stderr)
        narrated["count"] = len(events)

    row_bytes = client.submit_and_wait(
        g_text, params, poll_seconds=args.poll,
        deadline_seconds=args.timeout, on_progress=narrate)
    sys.stdout.buffer.write(row_bytes)
    sys.stdout.buffer.flush()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Summarize a recorded ``--trace`` file (or any Chrome trace)."""
    from repro.obs.trace import (format_summary, format_tree,
                                 load_trace, summarize_trace)
    events = load_trace(args.file)
    if not events:
        print(f"{args.file}: no spans")
        return 0
    if args.tree:
        print(format_tree(events, max_lines=args.max_lines))
    else:
        print(format_summary(summarize_trace(events), top=args.top))
    return 0


def _cmd_bench_list(args: argparse.Namespace) -> int:
    for name in benchmark_names():
        stg = benchmark(name)
        print(f"{name:>16}  inputs={len(stg.inputs)} "
              f"outputs={len(stg.outputs)}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    print(write_g(benchmark(args.name)), end="")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static analyzer; exit 1 on non-baseline findings."""
    import json as json_module

    from repro.analysis import (Baseline, Finding, describe_rules,
                                lint_paths, select_rules)
    if args.list_rules:
        table = describe_rules()
        width = max(len(rule_id) for rule_id in table)
        for rule_id in sorted(table):
            print(f"{rule_id:<{width}}  {table[rule_id]}")
        return 0
    rules = None
    if args.rules:
        wanted = tuple(part.strip()
                       for chunk in args.rules
                       for part in chunk.split(",") if part.strip())
        try:
            rules = select_rules(wanted)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    paths = args.paths or ["src/repro"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(f"error: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    findings = lint_paths(paths, rules=rules, root=args.root)

    if args.write_baseline:
        previous = None
        if os.path.exists(args.baseline):
            previous = Baseline.load(args.baseline)
        Baseline.from_findings(findings, previous).save(args.baseline)
        print(f"wrote {args.baseline}: {len(findings)} accepted "
              "finding(s)")
        return 0

    accepted: List[Finding] = []
    if not args.no_baseline and os.path.exists(args.baseline):
        new, accepted = Baseline.load(args.baseline).split(findings)
    else:
        new = findings

    if args.json:
        print(json_module.dumps({
            "version": 1,
            "new": [f.to_json() for f in new],
            "accepted": [f.to_json() for f in accepted],
            "summary": {"new": len(new), "accepted": len(accepted)},
        }, indent=2))
    else:
        for finding in new:
            print(finding.render())
        if accepted:
            print(f"({len(accepted)} accepted finding(s) in "
                  f"{args.baseline})")
        if new:
            print(f"{len(new)} new finding(s)")
        else:
            print("clean")
    return 1 if new else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="si-mapper",
        description="Speed-independent technology mapping "
                    "(Cortadella et al., DATE 1997 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    # shared by every sub-command: the persistent artifact store
    caching = argparse.ArgumentParser(add_help=False)
    caching.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="persist expensive artifacts (state "
                              "graphs, syntheses, mappings) under DIR "
                              "and warm-start from them (default: "
                              f"${CACHE_ENV} if set)")
    caching.add_argument("--cache-url", default=None, metavar="URL",
                         help="share artifacts through a 'si-mapper "
                              "serve' daemon at URL; with --cache-dir "
                              "too, the local store tiers in front of "
                              "the server (default: "
                              f"${CACHE_URL_ENV} if set)")
    caching.add_argument("--cache-s3", default=None, metavar="SPEC",
                         help="share artifacts through an S3-"
                              "compatible object store: bucket/prefix "
                              "(boto3 + AWS credential chain) or "
                              "http(s)://endpoint/bucket/prefix "
                              "(unsigned, any S3-compatible endpoint); "
                              "with --cache-dir too, the local store "
                              "tiers in front of the bucket (default: "
                              f"${CACHE_S3_ENV} if set)")

    # shared by the compute commands: span-trace recording
    tracing = argparse.ArgumentParser(add_help=False)
    tracing.add_argument("--trace", default=None, metavar="FILE",
                         help="record this run as Chrome trace-event "
                              "JSON (loadable in Perfetto / "
                              "chrome://tracing; inspect with "
                              "'si-mapper trace FILE')")

    p_map = sub.add_parser("map", help="map an STG into a library",
                           parents=[caching, tracing])
    p_map.add_argument("circuit", help=".g file (or a built-in "
                                       "benchmark name)")
    p_map.add_argument("-k", "--literals", type=int, default=2,
                       help="max literals per gate (default 2)")
    p_map.add_argument("--local-ack", action="store_true",
                       help="Siegel-style local acknowledgment baseline")
    p_map.add_argument("--solve-csc", action="store_true",
                       help="insert state signals to fix CSC conflicts "
                            "before mapping")
    p_map.add_argument("--csc-method", choices=["blocks", "regions"],
                       default="blocks",
                       help="candidate family of the CSC solver: the "
                            "legacy event-pair blocks or the "
                            "region-algebra method of reference [6]; "
                            "choosing 'regions' implies --solve-csc "
                            "(default: blocks)")
    p_map.add_argument("--verilog", help="write the mapped netlist as "
                                         "structural Verilog")
    p_map.add_argument("--eqn", help="write the mapped netlist as SIS "
                                     ".eqn equations")
    p_map.add_argument("--no-verify", dest="verify",
                       action="store_false",
                       help="skip the final SI verification")
    p_map.add_argument("--dot", help="write the final SG as GraphViz")
    p_map.add_argument("--timings", action="store_true",
                       help="print per-stage pipeline timings")
    p_map.set_defaults(func=_cmd_map)

    p_check = sub.add_parser("check", help="verify STG implementability",
                             parents=[caching])
    p_check.add_argument("circuit", help=".g file (or a built-in "
                                         "benchmark name)")
    p_check.set_defaults(func=_cmd_check)

    p_report = sub.add_parser("report",
                              help="regenerate Table 1 (or a subset)",
                              parents=[caching, tracing])
    p_report.add_argument("names", nargs="*",
                          help="benchmark names (default: all 32)")
    p_report.add_argument("-k", "--literals", type=int, nargs="+",
                          default=[2, 3, 4])
    p_report.add_argument("--no-siegel", action="store_true",
                          help="skip the local-ack baseline column")
    p_report.add_argument("-j", "--jobs", type=int, default=None,
                          help="parallel worker processes "
                               "(default: one per CPU; 1 = serial)")
    p_report.add_argument("--solve-csc", action="store_true",
                          help="run the CSC-solving stage before "
                               "mapping (adds the csc column)")
    p_report.add_argument("--csc-method",
                          choices=["blocks", "regions"],
                          default="blocks",
                          help="CSC candidate family; choosing "
                               "'regions' implies --solve-csc")
    p_report.add_argument("--shard", default=None, metavar="I/N",
                          help="run only this machine's slice of the "
                               "circuit list (deterministic partition "
                               "by benchmark-name hash) and write a "
                               "shard JSON for --merge")
    p_report.add_argument("--out", default=None, metavar="FILE",
                          help="with --shard: where to write the "
                               "shard JSON (default: "
                               "table1.shard-IofN.json)")
    p_report.add_argument("--merge", nargs="+", default=None,
                          metavar="FILE",
                          help="merge shard JSON files into the "
                               "byte-identical single-machine report "
                               "(runs nothing)")
    p_report.add_argument("--claim", action="store_true",
                          help="with --shard: pull circuits from the "
                               "serve daemon's work-stealing pool "
                               "(POST /claim) instead of the static "
                               "hash partition")
    p_report.add_argument("--api-key", default=None, metavar="KEY",
                          help="X-SI-Key for --claim against a keyed "
                               f"daemon (default: ${API_KEY_ENV})")
    p_report.set_defaults(func=_cmd_report)

    p_serve = sub.add_parser("serve",
                             help="serve the artifact store to remote "
                                  "workers (--cache-url)",
                             parents=[caching])
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1; use "
                              "0.0.0.0 for a cluster)")
    p_serve.add_argument("--port", type=int, default=8947,
                         help="TCP port (default 8947; 0 = ephemeral)")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log each request to stderr")
    p_serve.add_argument("--workers", type=int, default=2,
                         metavar="N",
                         help="synthesis job workers behind POST "
                              "/jobs (default 2; 0 = cache daemon "
                              "only)")
    p_serve.add_argument("--api-keys", action="append", default=None,
                         metavar="KEY[,KEY...]",
                         help="restrict the job API to these "
                              "X-SI-Key tenants (repeatable; "
                              "default: open)")
    p_serve.add_argument("--quota", type=int, default=0, metavar="N",
                         help="max queued+running jobs per tenant "
                              "(default 0 = unlimited)")
    p_serve.add_argument("--retain-jobs", type=int, default=None,
                         metavar="N",
                         help="finished jobs kept in memory; older "
                              "rows spill to the artifact store and "
                              "restore on demand (default 512)")
    p_serve.add_argument("--request-timeout", type=float,
                         default=30.0, metavar="SECONDS",
                         help="per-connection socket timeout so "
                              "stalled clients cannot pin handler "
                              "threads (default 30)")
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="synthesize on a remote serve daemon and print the "
             "Table-1 row as canonical JSON",
        parents=[caching, tracing])
    p_submit.add_argument("circuit", help=".g file (or a built-in "
                                          "benchmark name)")
    p_submit.add_argument("--url", default=None, metavar="URL",
                          help="the serve daemon (default: "
                               f"--cache-url / ${CACHE_URL_ENV})")
    p_submit.add_argument("--api-key", default=None, metavar="KEY",
                          help="X-SI-Key tenant credential (default: "
                               f"${API_KEY_ENV})")
    p_submit.add_argument("-k", "--literals", type=int, nargs="+",
                          default=[2, 3, 4])
    p_submit.add_argument("--no-siegel", action="store_true",
                          help="skip the local-ack baseline column")
    p_submit.add_argument("--solve-csc", action="store_true",
                          help="run the CSC-solving stage before "
                               "mapping")
    p_submit.add_argument("--csc-method",
                          choices=["blocks", "regions"],
                          default="blocks",
                          help="CSC candidate family; choosing "
                               "'regions' implies --solve-csc")
    p_submit.add_argument("--poll", type=float, default=0.2,
                          metavar="SECONDS",
                          help="status poll interval (default 0.2)")
    p_submit.add_argument("--timeout", type=float, default=600.0,
                          metavar="SECONDS",
                          help="give up after this long (the job "
                               "keeps running server-side; default "
                               "600)")
    p_submit.add_argument("--verbose", action="store_true",
                          help="narrate stage completions to stderr "
                               "while polling")
    p_submit.set_defaults(func=_cmd_submit)

    p_bench = sub.add_parser("bench",
                             help="measure the battery and record a "
                                  "BENCH_<n>.json perf snapshot",
                             parents=[caching])
    p_bench.add_argument("names", nargs="*",
                         help="benchmark names (default: the "
                              "representative subset)")
    p_bench.add_argument("--subset", action="store_true",
                         help="run the representative 16-circuit "
                              "subset (the default when no names are "
                              "given)")
    p_bench.add_argument("--limit", type=int, default=None,
                         metavar="N",
                         help="only the first N circuits of the "
                              "selection (CI smoke runs)")
    p_bench.add_argument("-k", "--literals", type=int, nargs="+",
                         default=[2, 3, 4])
    p_bench.add_argument("--no-siegel", action="store_true",
                         help="skip the local-ack baseline column")
    p_bench.add_argument("-j", "--jobs", type=int, default=1,
                         help="parallel worker processes (default: 1 "
                              "— serial timings are the trajectory)")
    p_bench.add_argument("--out", default=None, metavar="FILE",
                         help="snapshot destination (default: next "
                              "free BENCH_<n>.json in the current "
                              "directory)")
    p_bench.add_argument("--baseline", default=None, metavar="FILE",
                         help="compare against a committed snapshot "
                              "(over the common ok circuits)")
    p_bench.add_argument("--max-regression", type=float, default=0.25,
                         metavar="FRAC",
                         help="with --baseline: fail when total "
                              "seconds regress by more than FRAC "
                              "(default 0.25)")
    p_bench.set_defaults(func=_cmd_bench)

    p_csc = sub.add_parser("csc",
                           help="solve Complete State Coding for an "
                                "STG",
                           parents=[caching])
    p_csc.add_argument("circuit", help=".g file (or a built-in "
                                       "benchmark name)")
    p_csc.add_argument("--csc-method", choices=["blocks", "regions"],
                       default="blocks",
                       help="candidate family (default: blocks)")
    p_csc.add_argument("--max-signals", type=_non_negative_int,
                       default=8,
                       help="insertion budget (default 8)")
    p_csc.add_argument("--dot", help="write the solved SG as GraphViz")
    p_csc.set_defaults(func=_cmd_csc)

    p_trace = sub.add_parser(
        "trace",
        help="summarize a trace file recorded with --trace")
    p_trace.add_argument("file", help="Chrome trace-event JSON "
                                      "(written by --trace)")
    p_trace.add_argument("--top", type=int, default=None, metavar="N",
                         help="only the N most expensive span names")
    p_trace.add_argument("--tree", action="store_true",
                         help="print the per-thread span tree instead "
                              "of the by-name summary")
    p_trace.add_argument("--max-lines", type=int, default=200,
                         metavar="N",
                         help="with --tree: truncate after N lines "
                              "(default 200)")
    p_trace.set_defaults(func=_cmd_trace)

    p_list = sub.add_parser("bench-list", help="list the benchmarks",
                            parents=[caching])
    p_list.set_defaults(func=_cmd_bench_list)

    p_show = sub.add_parser("show", help="print a benchmark as .g",
                            parents=[caching])
    p_show.add_argument("name")
    p_show.set_defaults(func=_cmd_show)

    p_cache = sub.add_parser("cache",
                             help="inspect / maintain the artifact "
                                  "store",
                             parents=[caching])
    p_cache.add_argument("action", choices=["stats", "gc", "clear"],
                         help="stats: inventory; gc: drop stale/"
                              "corrupt/aged entries; clear: drop "
                              "everything")
    p_cache.add_argument("--max-age-days", type=float, default=None,
                         help="with gc: also drop entries older than "
                              "this many days")
    p_cache.add_argument("--max-bytes", type=int, default=None,
                         help="with gc: evict least-recently-used "
                              "entries until the store fits this "
                              "byte budget")
    p_cache.set_defaults(func=_cmd_cache)

    p_lint = sub.add_parser(
        "lint",
        help="statically analyze source for determinism/concurrency/"
             "pickle-safety bugs")
    p_lint.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to lint "
                             "(default: src/repro)")
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable findings (the CI gate "
                             "consumes this)")
    p_lint.add_argument("--baseline", default="lint-baseline.json",
                        metavar="FILE",
                        help="accepted-findings file; findings "
                             "matching it don't fail the run "
                             "(default: %(default)s)")
    p_lint.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline file: report every "
                             "finding as new")
    p_lint.add_argument("--write-baseline", action="store_true",
                        help="accept the current findings: rewrite "
                             "the baseline file (keeping existing "
                             "justifications) and exit 0")
    p_lint.add_argument("--rules", action="append", default=None,
                        metavar="ID[,ID...]",
                        help="run only these rule ids (repeatable)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="list rule ids and descriptions, then "
                             "exit")
    p_lint.add_argument("--root", default=None, metavar="DIR",
                        help="report paths relative to DIR (default: "
                             "current directory; must match how the "
                             "baseline was written)")
    p_lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        trace_out = getattr(args, "trace", None)
        if not trace_out:
            return args.func(args)
        # --trace: run the command under an active tracer, then dump
        # the span tree as Chrome trace-event JSON.  A failing command
        # still writes its partial trace — that is when you want it.
        from repro.obs.trace import Tracer, write_chrome_trace
        tracer = Tracer()
        try:
            with tracer.activate():
                return args.func(args)
        finally:
            count = write_chrome_trace(trace_out, tracer)
            print(f"trace: {count} span(s) written to {trace_out}",
                  file=sys.stderr)
    except ReproError as error:
        # includes UnknownBenchmarkError; a genuine KeyError bug deep
        # in the mapper keeps its traceback
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
