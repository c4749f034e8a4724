"""Tests for the benchmark harness and paper-style reporting."""

import pytest

from repro.bench.harness import (
    SIMULATORS,
    Measurement,
    harmonic_mean_coverage,
    measure,
)
from repro.bench.reporting import (
    render_generic,
    render_speed_figure,
    render_table1,
    render_table2,
)
from repro.workloads.suite import build_cached


class TestMeasurement:
    def test_kips(self):
        m = Measurement("w", "s", seconds=2.0, retired=100_000, cycles=50_000)
        assert m.kips == 50.0

    def test_fast_fraction(self):
        m = Measurement("w", "s", 1.0, retired=1000, cycles=1, retired_fast=990)
        assert m.fast_fraction == 0.99

    def test_zero_guards(self):
        m = Measurement("w", "s", 0.0, retired=0, cycles=0)
        assert m.kips == 0.0
        assert m.fast_fraction == 0.0


class TestHarmonicMean:
    def test_known_value(self):
        assert harmonic_mean_coverage([1.0, 1.0])[0] == 1.0
        assert abs(harmonic_mean_coverage([2.0, 6.0])[0] - 3.0) < 1e-12

    def test_ignores_nonpositive(self):
        assert harmonic_mean_coverage([2.0, 0.0]) == (2.0, 1, 2)

    def test_empty(self):
        assert harmonic_mean_coverage([]) == (0.0, 0, 0)

    def test_coverage_counts_dropped_cells(self):
        hmean, used, total = harmonic_mean_coverage([2.0, 0.0, 6.0, -1.0])
        assert abs(hmean - 3.0) < 1e-12
        assert used == 2
        assert total == 4

    def test_coverage_full(self):
        hmean, used, total = harmonic_mean_coverage([1.0, 1.0])
        assert (hmean, used, total) == (1.0, 2, 2)

    def test_coverage_all_dropped(self):
        assert harmonic_mean_coverage([0.0, 0.0]) == (0.0, 0, 2)


class TestMeasure:
    @pytest.fixture(scope="class")
    def program(self):
        return build_cached("li", 2)

    @pytest.mark.parametrize("simulator", SIMULATORS)
    def test_every_simulator_measures(self, program, simulator):
        m = measure(simulator, program, "li")
        assert m.retired > 0
        assert m.cycles > 0
        assert m.seconds > 0

    def test_all_simulators_agree_on_cycles(self, program):
        cycles = {measure(sim, program, "li").cycles for sim in SIMULATORS}
        assert len(cycles) == 1

    def test_memoizing_simulators_report_fast_work(self, program):
        for simulator in ("fastsim", "facile"):
            m = measure(simulator, program, "li")
            assert m.retired_fast > 0
            assert m.memo_bytes > 0

    def test_nonmemoizing_report_no_fast_work(self, program):
        for simulator in ("simplescalar", "fastsim-nomemo", "facile-nomemo"):
            m = measure(simulator, program, "li")
            assert m.retired_fast == 0

    def test_unknown_simulator_rejected(self, program):
        with pytest.raises(ValueError):
            measure("nope", program, "li")

    def test_cache_limit_forwarded(self, program):
        m = measure("facile", program, "li", cache_limit_bytes=50_000)
        assert m.memo_clears > 0

    def test_memo_bytes_is_cumulative_on_both_paths(self, program):
        """Both memoizing simulators report the same metric for
        ``memo_bytes``: cumulative recording volume, not the resident
        size at run end (the fastsim path used to report the latter)."""
        for simulator in ("fastsim", "facile"):
            m = measure(simulator, program, "li")
            assert m.memo_bytes_current > 0
            # With no eviction, resident never exceeds what was recorded.
            assert m.memo_bytes >= m.memo_bytes_current

    def test_cumulative_survives_clears(self, program):
        """A budget-bound run clears its cache; the cumulative figure
        keeps counting recording volume while the resident figure drops,
        so the two must diverge — on both memoizing paths."""
        for simulator in ("fastsim", "facile"):
            m = measure(simulator, program, "li", cache_limit_bytes=50_000)
            assert m.memo_clears > 0
            assert m.memo_bytes > m.memo_bytes_current


class TestRendering:
    def _rows(self):
        return [
            Measurement("alpha", "facile", 1.0, 100_000, 50_000, retired_fast=99_000,
                        steps_fast=900, steps_slow=100, memo_bytes=1024 * 100),
            Measurement("alpha", "facile-nomemo", 4.0, 100_000, 50_000),
            Measurement("alpha", "simplescalar", 2.0, 100_000, 50_000),
            Measurement("beta", "facile", 1.0, 200_000, 60_000, retired_fast=150_000,
                        steps_fast=500, steps_slow=500, memo_bytes=1024 * 900),
            Measurement("beta", "facile-nomemo", 5.0, 200_000, 60_000),
            Measurement("beta", "simplescalar", 2.0, 200_000, 60_000),
        ]

    def test_speed_figure_contains_ratios(self):
        text = render_speed_figure(self._rows(), "facile", "facile-nomemo", "Fig")
        assert "alpha" in text and "beta" in text
        assert "2.00x" in text  # alpha memo/base = 100/50
        assert "hmean" in text

    def test_table1_percentages(self):
        text = render_table1(self._rows(), "facile")
        assert "99.000%" in text
        assert "75.000%" in text

    def test_table2_kb(self):
        text = render_table2(self._rows(), "facile")
        assert "100.0" in text
        assert "900.0" in text

    def test_generic_alignment(self):
        text = render_generic("T", ["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "333" in text

    def test_generic_empty_rows(self):
        text = render_generic("T", ["col"], [])
        assert "col" in text

    def test_speed_figure_full_coverage_plain_hmean(self):
        text = render_speed_figure(self._rows(), "facile", "facile-nomemo", "Fig")
        assert "hmean" in text
        assert "hmean 2/2" not in text  # full coverage: plain label
        assert "dropped" not in text

    def test_speed_figure_surfaces_dropped_cells(self):
        """A missing cell must not silently inflate the hmean: the
        label becomes "hmean K/N" and a coverage note is appended."""
        rows = [m for m in self._rows()
                if not (m.workload == "beta" and m.simulator == "facile")]
        text = render_speed_figure(rows, "facile", "facile-nomemo", "Fig")
        assert "hmean 1/2" in text
        assert "1 failed or missing cells were dropped" in text
        assert "missing cell" in text

    def test_speed_figure_zero_cell_counted_as_dropped(self):
        rows = self._rows()
        for m in rows:
            if m.workload == "beta" and m.simulator == "simplescalar":
                m.seconds = 0.0  # kips == 0 → ratio 0 → dropped
        text = render_speed_figure(rows, "facile", "facile-nomemo", "Fig")
        assert "hmean 1/2" in text
