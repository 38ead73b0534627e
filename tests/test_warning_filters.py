"""The pytest settings in pyproject.toml, run on a project in a
temporary directory: a failing Hypothesis test reports its falsifying
example, and every other warning is still an error."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

SAMPLE_TESTS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_warns():
    warnings.warn("a warning is an error", DeprecationWarning)
'''


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    (tmp_path / "test_sample.py").write_text(SAMPLE_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example: test_fails(" in out, out
    assert "FAILED test_sample.py::test_warns - DeprecationWarning: a warning is an error" in out, out
    assert proc.returncode == 1 and "2 failed" in out, out
