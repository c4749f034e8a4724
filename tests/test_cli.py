"""Tests for the command-line interface."""

import re

import pytest

from repro import cli
from repro.cli import main
from repro.facile.run import RunConfig

ASM = """
        set 5, %o0
        clr %o1
loop:   add %o1, %o0, %o1
        subcc %o0, 1, %o0
        bne loop
        nop
        halt
"""

MINIC = "int main() { out(6 * 7); return 0; }"

FACILE = """
val init = 0;
fun main(pc) {
    val v = mem_read(pc)?verify;
    init = pc + v;
    halt();
}
"""


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(ASM)
    return str(path)


@pytest.fixture
def minic_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(MINIC)
    return str(path)


@pytest.fixture
def facile_file(tmp_path):
    path = tmp_path / "sim.fac"
    path.write_text(FACILE)
    return str(path)


class TestAsm:
    def test_summary(self, asm_file, capsys):
        assert main(["asm", asm_file]) == 0
        out = capsys.readouterr().out
        assert "7 words" in out
        assert "entry 0x1000" in out

    def test_listing_shows_labels(self, asm_file, capsys):
        main(["asm", asm_file, "--listing"])
        out = capsys.readouterr().out
        assert "<loop>" in out

    def test_symbols(self, asm_file, capsys):
        main(["asm", asm_file, "--symbols"])
        assert "loop" in capsys.readouterr().out

    def test_disasm(self, asm_file, capsys):
        main(["asm", asm_file, "--disasm"])
        out = capsys.readouterr().out
        assert "subcc %o0, 1, %o0" in out
        assert "loop:" in out


#: The simulators that fast-forward through a memo table.
MEMOIZING = ("functional", "inorder", "ooo", "ooo-fastsim")


class TestRun:
    @pytest.mark.parametrize(
        "sim", ["golden", "functional", "inorder", "inorder-ref", "ooo", "ooo-ref", "ooo-fastsim"]
    )
    def test_every_simulator_runs(self, asm_file, capsys, sim):
        assert main(["run", asm_file, "--sim", sim]) == 0
        out = capsys.readouterr().out
        assert "kips" in out
        if sim in MEMOIZING:
            assert "retired" in out
            assert re.search(r"^steps: ", out, re.M)

    def test_run_cut_off_at_its_budget_fails(self, tmp_path, capsys):
        """A program still running when the runner's step budget ends
        is reported as such, and the command fails."""
        path = tmp_path / "spin.s"
        path.write_text("loop:   ba loop\n        nop\n        halt\n")
        assert main(["run", str(path), "--sim", "functional"]) == 1
        out = capsys.readouterr().out
        assert "did not halt within 1,000,000 steps" in out

    def test_plain_mode(self, asm_file, capsys):
        assert main(["run", asm_file, "--sim", "ooo", "--plain"]) == 0

    def test_timing_simulators_report_ipc(self, asm_file, capsys):
        main(["run", asm_file, "--sim", "ooo"])
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "mispredicted" in out


class TestMinic:
    def test_compile_and_run(self, minic_file, capsys):
        assert main(["minic", minic_file]) == 0
        out = capsys.readouterr().out
        assert "out(): 42" in out

    def test_emit_asm(self, minic_file, capsys):
        assert main(["minic", minic_file, "--emit-asm"]) == 0
        out = capsys.readouterr().out
        assert "mc_main:" in out
        assert ".text" in out


class TestCompile:
    def test_division_summary(self, facile_file, capsys):
        assert main(["compile", facile_file]) == 0
        out = capsys.readouterr().out
        assert "dynamic result tests: 1" in out

    @pytest.mark.parametrize("engine", ["slow", "fast", "plain"])
    def test_dump_engines(self, facile_file, capsys, engine):
        assert main(["compile", facile_file, "--dump", engine]) == 0
        out = capsys.readouterr().out
        assert f"generated {engine} engine" in out

    def test_no_fold_flag(self, facile_file, capsys):
        assert main(["compile", facile_file, "--no-fold"]) == 0
        assert "constant folds:       0" in capsys.readouterr().out


class TestWorkloads:
    def test_list(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("go", "gcc", "fpppp", "wave5"):
            assert name in out

    def test_run_one(self, capsys):
        assert main(["workloads", "li", "--scale", "2", "--sim", "ooo"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out


class TestCacheLimitDefaults:
    def test_cache_limit_alone_matches_the_runner_api(self, capsys):
        """``--cache-limit`` clears the cache exactly as the runner API
        does with the same ``cache_limit_bytes``, so the CLI and the API
        report the same ``cache:`` line for the same job."""
        from repro.ooo.facile_ooo import run_facile_ooo
        from repro.workloads.suite import build_cached

        limit = 1_000_000
        assert main([
            "workloads", "compress", "--scale", "1", "--sim", "ooo",
            "--cache-limit", str(limit),
        ]) == 0
        cli = capsys.readouterr().out.splitlines()
        run = run_facile_ooo(build_cached("compress", 1), cache_limit_bytes=limit)
        assert run.engine.cache.stats.clears > 0
        api = run.report.lines()

        def cache_lines(lines):
            return [line for line in lines if line.startswith("cache:")]

        assert len(cache_lines(cli)) == 1
        assert cache_lines(cli) == cache_lines(api)


class TestRunnerDefaults:
    """With no flags given, the CLI hands every memoizing runner
    ``RunConfig()``, the one source of each run default, so the CLI and
    the API cannot drift apart on a knob."""

    RUNNERS = {
        "functional": "run_facile_functional",
        "inorder": "run_facile_inorder",
        "ooo": "run_facile_ooo",
        "ooo-fastsim": "run_fastsim",
    }

    @pytest.mark.parametrize("sim", list(RUNNERS))
    def test_cli_defaults_equal_runner_defaults(self, monkeypatch, sim):
        calls = []
        monkeypatch.setattr(cli, self.RUNNERS[sim],
                            lambda program, **kw: calls.append(kw))
        args = cli.build_parser().parse_args(["workloads", "--sim", sim])
        cli._RUNNERS[sim](None, cli.run_config(args))
        assert calls == [{"settings": RunConfig()}]


class TestReportParity:
    """The CLI prints exactly the lines of the run's ``report``, so a
    run driven through the API explains itself the same way."""

    #: One configuration per memoizing simulator: CLI flags, and the
    #: same settings as runner keywords.
    CASES = {
        "functional": (["--trace-threshold", "4"], {"trace_threshold": 4}),
        "inorder": (["--no-trace-jit"], {"trace_jit": False}),
        "ooo": (["--cache-limit", "500000"], {"cache_limit_bytes": 500_000}),
        "ooo-fastsim": (["--cache-limit", "500000"],
                        {"cache_limit_bytes": 500_000}),
    }

    @pytest.mark.parametrize("backend", ["python", "c"])
    @pytest.mark.parametrize("sim", MEMOIZING)
    def test_cli_and_api_print_the_same_report(self, capsys, sim, backend):
        from repro.facile.cbackend import load_kernel
        from repro.workloads.suite import build_cached

        if backend == "c" and not load_kernel().status.available:
            pytest.skip("no C compiler")
        flags, keywords = self.CASES[sim]
        assert main(["workloads", "compress", "--scale", "1", "--sim", sim,
                     "--replay-backend", backend, *flags]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if not line.startswith("host time")]
        runner = getattr(cli, TestRunnerDefaults.RUNNERS[sim])
        run = runner(build_cached("compress", 1), replay_backend=backend,
                     **keywords)
        assert printed == run.report.lines()
