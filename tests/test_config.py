"""The test runner's own configuration."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING_TEST = '''
from hypothesis import Phase, given, settings
from hypothesis import strategies as st


@settings(database=None, phases=[Phase.generate])  # the report of a failure found by generation, without shrinking
@given(st.integers())
def test_failing_property(x):
    assert x < 0


def test_later():
    pass
'''


def test_failing_property_does_not_end_the_session(tmp_path):
    # with every warning an error, a warning raised while hypothesis reports a failure was an INTERNALERROR
    # that ended the run before the later tests ran
    (tmp_path / "test_inner.py").write_text(FAILING_PROPERTY_THEN_PASSING_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / "test_inner.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
