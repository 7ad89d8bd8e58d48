"""The test run's own set-up: a failing property test must not stop the
rest of the suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from conftest import SRC_DIR, limit_address_space

REPO = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 1


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    # The child runs in tmp_path, so hypothesis's directory lands there,
    # and loads the suite's conftest as a plugin under pyproject.toml's
    # warning filters.
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC_DIR, str(REPO / "tests"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "conftest", "-c", str(REPO / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=limit_address_space)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout
