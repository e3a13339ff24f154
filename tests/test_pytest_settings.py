"""The suite's pytest settings keep a failing property test an ordinary
failure."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as hs


@settings(derandomize=True, database=None)
@given(hs.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    # with every warning an error, the warning that hypothesis's patch writer
    # sets off on import ended the run with INTERNALERROR (exit 3) before
    # the next test
    (tmp_path / "test_property.py").write_text(FAILING_THEN_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if not k.startswith("PYTEST_")})
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
