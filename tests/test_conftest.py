"""A failing property test reports its falsifying example, and later tests
still run, under the project's warning filters."""

import subprocess
import sys
from pathlib import Path

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_later():
    pass
'''


def test_failing_property_test_reports_its_example(tmp_path, pytestconfig):
    filters = pytestconfig.getini("filterwarnings")
    assert "error::DeprecationWarning" in filters
    (tmp_path / "pytest.ini").write_text(
        "[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    (tmp_path / "conftest.py").write_text(
        (Path(__file__).parent / "conftest.py").read_text())
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tmp_path)], cwd=tmp_path, capture_output=True, text=True,
        timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out
    assert "1 failed, 1 passed" in out
