"""Tests for the ``si-mapper`` command-line interface."""

import re

import pytest

from repro.cli import build_parser, main

CELEMENT = """
.model celement
.inputs a b
.outputs c
.graph
a+ c+
b+ c+
c+ a-
c+ b-
a- c-
b- c-
c- a+
c- b+
.marking { <c-,a+> <c-,b+> }
.end
"""


@pytest.fixture
def g_file(tmp_path):
    path = tmp_path / "celement.g"
    path.write_text(CELEMENT)
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_map_defaults(self, g_file):
        args = build_parser().parse_args(["map", g_file])
        assert args.literals == 2
        assert args.verify


class TestCommands:
    def test_map(self, g_file, capsys):
        assert main(["map", g_file, "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "celement" in out
        assert "C(set_c_1, reset_c_1)" in out
        assert "verification: OK" in out

    def test_map_writes_dot(self, g_file, tmp_path, capsys):
        dot = str(tmp_path / "sg.dot")
        assert main(["map", g_file, "--dot", dot]) == 0
        assert "digraph" in open(dot).read()

    def test_check_ok(self, g_file, capsys):
        assert main(["check", g_file]) == 0
        assert "implementable" in capsys.readouterr().out

    def test_check_benchmark_name(self, capsys):
        """`check` resolves built-in benchmark names like `map` does."""
        assert main(["check", "half"]) == 0
        out = capsys.readouterr().out
        assert "half" in out and "implementable" in out

    def test_check_unknown_benchmark(self, capsys):
        assert main(["check", "zzz-no-such"]) == 2
        assert "error" in capsys.readouterr().err

    def test_check_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.g"
        bad.write_text("""
.model bad
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b+/2
b+/2 a+
.marking { <b+/2,a+> }
.end
""")
        assert main(["check", str(bad)]) == 2  # consistency error
        assert "error" in capsys.readouterr().err

    def test_bench_list(self, capsys):
        assert main(["bench-list"]) == 0
        out = capsys.readouterr().out
        assert "vbe10b" in out and "wrdatab" in out

    def test_show(self, capsys):
        assert main(["show", "half"]) == 0
        out = capsys.readouterr().out
        assert ".model half" in out
        assert ".end" in out

    def test_show_unknown(self, capsys):
        assert main(["show", "zzz"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_report_subset(self, capsys):
        assert main(["report", "half", "-k", "2", "--no-siegel"]) == 0
        out = capsys.readouterr().out
        assert "half" in out

    def test_map_local_ack_flag(self, g_file, capsys):
        assert main(["map", g_file, "--local-ack"]) == 0

    def test_map_benchmark_name(self, capsys):
        assert main(["map", "half", "-k", "2", "--timings"]) == 0
        out = capsys.readouterr().out
        assert "half" in out
        assert "stage timings:" in out and "reach" in out
        # the run's minimizer memo counts follow the resynthesis line
        assert re.search(r"^resynthesis: \d+ signals synthesized, \d+ "
                         r"skipped\nminimizer: \d+ solved, \d+ reused, "
                         r"\d+ skipped$", out, re.MULTILINE)

    def test_map_cache_dir_warm_run(self, tmp_path, capsys):
        """Second --cache-dir run: identical output, zero heavy
        computes, disk hits in the telemetry."""
        cache = str(tmp_path / "store")
        argv = ["map", "half", "-k", "2", "--timings",
                "--cache-dir", cache]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 computed" in warm
        assert "sg=0" in warm and "implementations=0" in warm
        assert "disk hits" in warm

        def gates(text):
            return text.split("stage timings:")[0]
        assert gates(warm) == gates(cold)

    def test_cache_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SI_MAPPER_CACHE", str(tmp_path / "env"))
        assert main(["map", "half", "-k", "2"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "sg" in out

    def test_cache_subcommand(self, tmp_path, capsys):
        cache = str(tmp_path / "store")
        assert main(["map", "half", "-k", "2",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        assert "sg" in capsys.readouterr().out
        assert main(["cache", "gc", "--cache-dir", cache]) == 0
        assert "removed 0 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_cache_subcommand_needs_store(self, capsys, monkeypatch):
        monkeypatch.delenv("SI_MAPPER_CACHE", raising=False)
        monkeypatch.delenv("SI_MAPPER_CACHE_URL", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "no cache store" in capsys.readouterr().err

    def test_cache_url_env_var(self, tmp_path, capsys, monkeypatch):
        """SI_MAPPER_CACHE_URL routes every command's artifacts
        through a serve daemon, exactly like --cache-url."""
        from repro.dist.server import ArtifactServer
        monkeypatch.delenv("SI_MAPPER_CACHE", raising=False)
        with ArtifactServer(str(tmp_path / "served"),
                            port=0).start_background() as server:
            monkeypatch.setenv("SI_MAPPER_CACHE_URL", server.url)
            assert main(["map", "half", "-k", "2", "--timings"]) == 0
            out = capsys.readouterr().out
            assert "remote:" in out
            assert main(["cache", "stats"]) == 0
            out = capsys.readouterr().out
            assert server.url in out and "sg" in out

    def test_cache_flag_overrides_env_store(self, tmp_path, capsys,
                                            monkeypatch):
        """`cache` maintenance acts on exactly the store the operator
        named: an explicit --cache-url must not silently tier with a
        local store from $SI_MAPPER_CACHE (whose clear/gc would then
        miss the server)."""
        from repro.dist.server import ArtifactServer
        local = tmp_path / "local-env-store"
        monkeypatch.setenv("SI_MAPPER_CACHE", str(local))
        with ArtifactServer(str(tmp_path / "served"),
                            port=0).start_background() as server:
            from repro.dist.remote import RemoteArtifactCache
            RemoteArtifactCache(server.url).put(("sg", "f" * 64), "x")
            assert main(["cache", "clear",
                         "--cache-url", server.url]) == 0
            assert "removed 1 entries" in capsys.readouterr().out
            assert server.store.report().entries == 0

    def test_serve_needs_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("SI_MAPPER_CACHE", raising=False)
        assert main(["serve"]) == 2
        assert "store directory" in capsys.readouterr().err

    def test_serve_rejects_two_shared_tiers(self, tmp_path, capsys,
                                            monkeypatch):
        """An upstream from --cache-url and one from --cache-s3 is a
        configuration error, reported before any port is bound."""
        import repro.dist.server

        def never(*args, **kwargs):
            raise AssertionError("serve bound a port")
        monkeypatch.setattr(repro.dist.server, "ArtifactServer", never)
        assert main(["serve", "--cache-dir", str(tmp_path),
                     "--cache-url", "http://127.0.0.1:1",
                     "--cache-s3", "http://127.0.0.1:1/b/p"]) == 2
        err = capsys.readouterr().err
        assert "--cache-url" in err and "--cache-s3" in err

    def test_submit_resolves_a_bare_named_file(self, tmp_path,
                                               capsysbinary,
                                               monkeypatch):
        """`submit` resolves its circuit like `map`: a bare-named file
        that is no benchmark is read as a file, and the daemon's row
        is the local run's canonical row."""
        from repro.bench_suite import benchmark
        from repro.dist.jobs import canonical_row_bytes
        from repro.dist.server import ArtifactServer
        from repro.pipeline import Pipeline, PipelineConfig
        from repro.stg.writer import write_g
        (tmp_path / "halfcopy").write_text(write_g(benchmark("half")))
        monkeypatch.chdir(tmp_path)
        with ArtifactServer(str(tmp_path / "served"), port=0,
                            workers=1).start_background() as server:
            assert main(["submit", "halfcopy", "--url", server.url,
                         "-k", "2", "--no-siegel"]) == 0
        record = Pipeline(PipelineConfig(
            libraries=(2,), with_siegel=False,
            keep_artifacts=False)).run("halfcopy")
        assert (capsysbinary.readouterr().out
                == canonical_row_bytes(record.row))

    @staticmethod
    def _badseq_file(tmp_path):
        from repro.stg.writer import write_g
        from tests.conftest import chained_sequencer_stg
        path = tmp_path / "badseq.g"
        path.write_text(write_g(chained_sequencer_stg()))
        return str(path)

    def test_map_solve_csc(self, tmp_path, capsys):
        """CSC-violating input: the pipeline must solve CSC before the
        synthesize stage (the raw graph is not even synthesizable)."""
        path = self._badseq_file(tmp_path)
        assert main(["map", path, "--solve-csc"]) == 0
        out = capsys.readouterr().out
        assert "verification: OK" in out

    @pytest.mark.parametrize("method", ["blocks", "regions"])
    def test_map_csc_method(self, tmp_path, capsys, method):
        path = self._badseq_file(tmp_path)
        assert main(["map", path, "--solve-csc", "--csc-method",
                     method, "--timings"]) == 0
        out = capsys.readouterr().out
        assert "verification: OK" in out
        assert "csc:" in out
        assert "state signals inserted" in out

    def test_csc_subcommand_conflicted(self, tmp_path, capsys):
        path = self._badseq_file(tmp_path)
        assert main(["csc", path, "--csc-method", "regions"]) == 0
        out = capsys.readouterr().out
        assert "CSC conflict pairs" in out
        assert "state signals inserted (regions" in out
        assert "0 violations remaining" in out

    def test_csc_subcommand_clean_benchmark(self, capsys):
        assert main(["csc", "half"]) == 0
        out = capsys.readouterr().out
        assert "0 CSC conflict pairs" in out
        assert "no signals inserted" in out

    def test_csc_subcommand_budget_exhausted(self, tmp_path, capsys):
        path = self._badseq_file(tmp_path)
        assert main(["csc", path, "--max-signals", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["-1", "two"])
    def test_csc_subcommand_rejects_bad_signal_budget(self, tmp_path,
                                                      capsys, budget):
        """A negative or non-integer budget is a usage error (exit 2
        from argparse, with the usage line), not a solver failure."""
        path = self._badseq_file(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["csc", path, "--max-signals", budget])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "--max-signals" in err

    def test_csc_subcommand_writes_dot(self, tmp_path, capsys):
        path = self._badseq_file(tmp_path)
        dot = str(tmp_path / "solved.dot")
        assert main(["csc", path, "--dot", dot]) == 0
        assert "digraph" in open(dot).read()

    def test_report_solve_csc_adds_column(self, capsys):
        assert main(["report", "half", "-k", "2", "--no-siegel",
                     "-j", "1", "--solve-csc"]) == 0
        out = capsys.readouterr().out
        header = [line for line in out.splitlines()
                  if line.startswith("circuit")][0]
        assert header.rstrip().endswith("csc")

    def test_report_without_csc_has_no_column(self, capsys):
        assert main(["report", "half", "-k", "2", "--no-siegel",
                     "-j", "1"]) == 0
        out = capsys.readouterr().out
        header = [line for line in out.splitlines()
                  if line.startswith("circuit")][0]
        assert "csc" not in header


class TestTracing:
    def test_map_trace_writes_loadable_chrome_json(self, tmp_path,
                                                   capsys):
        trace = str(tmp_path / "run.trace.json")
        assert main(["map", "half", "-k", "2", "--trace", trace]) == 0
        err = capsys.readouterr().err
        assert f"span(s) written to {trace}" in err
        import json
        document = json.load(open(trace))
        events = [event for event in document["traceEvents"]
                  if event["ph"] == "X"]
        names = [event["name"] for event in events]
        assert "stage:map" in names
        assert all(event["dur"] >= 0 for event in events)

    def test_report_trace_covers_each_circuit(self, tmp_path, capsys):
        trace = str(tmp_path / "report.trace.json")
        assert main(["report", "half", "hazard", "-k", "2",
                     "--no-siegel", "-j", "1", "--trace", trace]) == 0
        from repro.obs.trace import load_trace
        names = [event["name"] for event in load_trace(trace)]
        assert "circuit:half" in names
        assert "circuit:hazard" in names

    def test_trace_subcommand_summarizes(self, tmp_path, capsys):
        trace = str(tmp_path / "run.trace.json")
        main(["map", "half", "-k", "2", "--trace", trace])
        capsys.readouterr()
        assert main(["trace", trace]) == 0
        out = capsys.readouterr().out
        assert "stage:map" in out
        assert "total" in out

    def test_trace_subcommand_tree(self, tmp_path, capsys):
        trace = str(tmp_path / "run.trace.json")
        main(["map", "half", "-k", "2", "--trace", trace])
        capsys.readouterr()
        assert main(["trace", trace, "--tree"]) == 0
        out = capsys.readouterr().out
        assert "stage:load" in out

    def test_trace_subcommand_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("nonsense")
        assert main(["trace", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_failed_command_still_writes_partial_trace(self, tmp_path,
                                                       capsys):
        trace = str(tmp_path / "fail.trace.json")
        assert main(["map", "no-such-benchmark",
                     "--trace", trace]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        import os
        assert os.path.exists(trace)
