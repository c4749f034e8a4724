"""Benchmark harness: measurement and paper-style table rendering."""

from .harness import SIMULATORS, Measurement, measure
from .reporting import render_speed_figure, render_table1, render_table2

__all__ = [
    "Measurement",
    "SIMULATORS",
    "measure",
    "render_speed_figure",
    "render_table1",
    "render_table2",
]
