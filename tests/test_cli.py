"""Tests for the command-line interface."""

import inspect

import pytest

from repro import cli
from repro.cli import main

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


class TestRun:
    @pytest.mark.parametrize(
        "sim", ["golden", "functional", "inorder", "inorder-ref", "ooo", "ooo-ref", "ooo-fastsim"]
    )
    def test_every_simulator_runs(self, asm_file, capsys, sim):
        assert main(["run", asm_file, "--sim", sim]) == 0
        out = capsys.readouterr().out
        assert "kips" in out

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
        """``--cache-limit`` without ``--cache-evict`` reclaims with the
        runners' default policy, so the CLI and the API report the same
        eviction stats for the same job."""
        from repro.cli import _report_run
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
        _report_run("ooo", run, 1.0)
        api = capsys.readouterr().out.splitlines()

        def cache_lines(lines):
            return [line for line in lines if line.startswith("cache:")]

        assert len(cache_lines(cli)) == 1
        assert cache_lines(cli) == cache_lines(api)


class TestRunnerDefaults:
    """With no flags given, every keyword the CLI passes to a runner
    equals that runner's own default, so the CLI and the API cannot
    drift apart on a knob (``cache_evict`` once did)."""

    RUNNERS = {
        "functional": "run_facile_functional",
        "inorder": "run_facile_inorder",
        "ooo": "run_facile_ooo",
        "ooo-fastsim": "run_fastsim",
    }

    @pytest.mark.parametrize("sim", list(RUNNERS))
    def test_cli_defaults_equal_runner_defaults(self, monkeypatch, sim):
        name = self.RUNNERS[sim]
        params = inspect.signature(getattr(cli, name)).parameters
        calls = []
        monkeypatch.setattr(cli, name, lambda *args, **kw: calls.append(kw))
        cli._RUNNERS[sim](None, cli.build_parser().parse_args(["workloads"]))
        [passed] = calls
        assert passed
        assert passed == {k: params[k].default for k in passed}
