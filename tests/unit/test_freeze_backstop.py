"""Unit test: the per-test cap ends a test frozen with the GIL held.

tests/conftest.py caps every test with SIGALRM (or pytest-timeout),
which only runs when the main thread gets the GIL.  A process frozen
while holding it (as CPython 3.11's ``sys._current_frames()`` once froze
under ``make flake``) needs faulthandler's GIL-free timer.  The freezing
test runs in a subprocess under this repo's conftest with a 2 s cap.
"""

import ctypes
import os
import subprocess
import sys
import time

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))

FREEZING_TEST = '''
import ctypes


def test_freezes_holding_the_gil():
    libc = ctypes.PyDLL(None)  # PyDLL: calls keep the GIL
    mutex = ctypes.create_string_buffer(64)  # a default, zeroed mutex
    libc.pthread_mutex_lock(mutex)
    libc.pthread_mutex_lock(mutex)  # relocking it never returns
'''


def _has_pthread_mutex_lock() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "pthread_mutex_lock")
    except OSError:
        return False


@pytest.mark.skipif(not _has_pthread_mutex_lock(),
                    reason="libc has no pthread_mutex_lock")
def test_frozen_test_is_ended_and_named(tmp_path):
    (tmp_path / "conftest.py").write_text("from tests.conftest import *\n")
    (tmp_path / "test_freeze.py").write_text(FREEZING_TEST)
    env = dict(os.environ, DIONEA_TEST_TIMEOUT="2",
               PYTHONPATH=os.pathsep.join(
                   [os.path.join(REPO_ROOT, "src"), REPO_ROOT]))
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tmp_path / "test_freeze.py")],
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
        timeout=30)
    elapsed = time.monotonic() - started
    output = done.stdout + done.stderr
    assert done.returncode != 0, output
    assert "test_freezes_holding_the_gil" in output, output
    assert elapsed < 30
