"""The demo scripts run against the current library."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_problem_zoo.py",
                                  "02_accelerated_rates.py",
                                  "03_minibatch_speedup.py",
                                  "04_restart_linear_convergence.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
