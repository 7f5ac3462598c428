"""The test configuration reports a failing Hypothesis test as a failure.

Reporting a falsifying example makes the Hypothesis plugin import libcst,
which warns through mypy_extensions; the repository's warnings-as-errors
filters must let the session go on to the tests after it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_FAILING_PAIR = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_plain_fails():
    assert False
"""


def test_a_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    (tmp_path / "test_pair.py").write_text(_FAILING_PAIR)
    command = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_pair.py",
    ]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "2 failed" in output.splitlines()[-1]
