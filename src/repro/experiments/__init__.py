"""Experiment drivers: one module per figure of the paper's evaluation."""

from .fig07_mailorder import Fig7Result, run_fig7
from .fig08_prediction import Fig8Result, run_fig8
from .fig09_bookstore import Fig9Result, run_fig9
from .fig10_simulation import Fig10Result, run_fig10a, run_fig10b
from .fig11_scalability import (
    ScalingResult,
    run_fig11a,
    run_fig11b,
    run_fig11c,
    run_fig11d,
    run_fig11f,
)
from .fig11e_incremental import run_fig11e
from .fig12_characteristics import CharacteristicResult, run_fig12a, run_fig12b
from .fig13_serve import Fig13Result, run_fig13
from .tables import render_grid, render_series

__all__ = [
    "CharacteristicResult",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "Fig10Result",
    "Fig13Result",
    "ScalingResult",
    "render_grid",
    "render_series",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10a",
    "run_fig10b",
    "run_fig11a",
    "run_fig11b",
    "run_fig11c",
    "run_fig11d",
    "run_fig11e",
    "run_fig11f",
    "run_fig12a",
    "run_fig12b",
    "run_fig13",
]
