"""The demo scripts run, or at least import, against the current library."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_problem_zoo.py",
                                  "04_restart_linear_convergence.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("name", ["02_accelerated_rates.py",
                                  "03_minibatch_speedup.py"])
def test_slow_demo_imports(name):
    # these take minutes to run, so only their imports are checked
    assert callable(runpy.run_path(str(DEMOS / name))["main"])
