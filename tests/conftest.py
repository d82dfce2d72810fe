"""Shared fixtures and hygiene for the test suite.

The debugger mutates process-global state (``sys.settrace``, ``os.fork``,
the active-Dionea slot); the ``clean_process_state`` autouse fixture
guarantees every test starts and ends neutral so a failing test cannot
poison its neighbours.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
import traceback

import pytest

#: Per-test wall-clock cap (seconds).  The supervision layer's whole
#: promise is "never hangs"; a regression must fail THIS test quickly,
#: not wedge the suite until the Makefile's job-level timeout fires.
#: Enforced by pytest-timeout when installed, else by the SIGALRM
#: fallback below.  Override per run with DIONEA_TEST_TIMEOUT=<seconds>
#: (0 disables), per test with @pytest.mark.timeout(<seconds>).
DEFAULT_TEST_TIMEOUT = float(os.environ.get("DIONEA_TEST_TIMEOUT", "120"))


def pytest_configure(config):
    has_plugin = config.pluginmanager.hasplugin("timeout")
    config._dionea_alarm_fallback = (  # noqa: SLF001
        not has_plugin and DEFAULT_TEST_TIMEOUT > 0
        and hasattr(signal, "SIGALRM"))
    if has_plugin and DEFAULT_TEST_TIMEOUT > 0:
        # Respect an explicit --timeout from the command line.
        if not getattr(config.option, "timeout", None):
            config.option.timeout = DEFAULT_TEST_TIMEOUT


def _test_timeout(item) -> float:
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        try:
            return float(marker.args[0])
        except (TypeError, ValueError):
            pass
    return DEFAULT_TEST_TIMEOUT


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """SIGALRM-based per-test deadline when pytest-timeout is absent.

    The alarm interrupts even a test blocked inside a lock acquire or a
    socket read on the main thread — the failure names the test and its
    budget instead of the whole run dying to the job-level `timeout(1)`.
    """
    timeout = _test_timeout(item)
    if (not getattr(item.config, "_dionea_alarm_fallback", False)
            or timeout <= 0
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def _expired(signum, frame):
        pytest.fail(f"test exceeded its {timeout:.0f}s deadline "
                    f"(per-test cap; see tests/conftest.py)",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def clean_process_state():
    """Assert and restore process-global debugger state around each test."""
    original_fork = os.fork
    original_urg = (signal.getsignal(signal.SIGURG)
                    if hasattr(signal, "SIGURG") else None)
    yield
    # Restore tracing unconditionally: a failed engine test must not
    # leave a trace function slowing down (or parking!) later tests.
    sys.settrace(None)
    threading.settrace(None)
    # The engine re-arms a demoted main thread via SIGURG; a failed
    # test must not leave its handler (bound to a dead engine) installed
    # for the next test's engine to chain into.
    if (original_urg is not None
            and signal.getsignal(signal.SIGURG) is not original_urg):
        signal.signal(signal.SIGURG, original_urg)
    # A leaked fork patch would make every later fork run dead handlers.
    if os.fork is not original_fork:
        os.fork = original_fork
    # Clear any leaked active Dionea.
    from repro.core import dionea as dionea_module
    with dionea_module._current_lock:  # noqa: SLF001
        dionea_module._current = None


@pytest.fixture
def portfile_path(tmp_path):
    return str(tmp_path / "ports.jsonl")


@pytest.fixture
def debug_pair(portfile_path):
    """A started in-process DebugServer plus an attached DebugClient."""
    from repro.client import DebugClient
    from repro.server import DebugServer

    server = DebugServer(program="test", park_timeout=15.0)
    server.start()
    client = DebugClient()
    session = client.attach("127.0.0.1", server.port)
    yield server, client, session
    client.close()
    server.close()


@pytest.fixture
def dionea(portfile_path):
    """A started Dionea facade with a private portfile."""
    from repro.core import Dionea

    debugger = Dionea(program="test", portfile_path=portfile_path,
                      park_timeout=15.0)
    debugger.start()
    yield debugger
    debugger.stop()


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.01,
               message: str = "condition"):
    """Poll *predicate* until true or fail the test."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture
def waiter():
    return wait_until


def wait_child(pid, timeout=15.0):
    """The exit code of child *pid*; a child still running after
    *timeout* seconds is killed and the test fails."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done == pid:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    raise AssertionError(f"child {pid} did not exit in {timeout}s")


def fork_child(child) -> int:
    """Fork; the child runs *child* and exits 0, or 1 if it raised.
    Returns the child's pid in the parent."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            child()
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    return pid


def fork_while_held(lock, child, timeout: float = 10.0, hold: float = 10.0,
                    forked=None) -> bool:
    """Fork while a second thread holds *lock* (a lock or a context
    manager), as a parent thread mid-update would at any fork.

    The child runs *child* and must exit 0 within *timeout*; a child
    still running then is killed and the test fails.  The holder
    releases when *forked* (an Event; by default set once ``os.fork()``
    returns in the parent) is set, or after *hold* seconds, so a fork
    path that itself waits on *lock* cannot wedge the parent.  Returns
    True when the holder released early.  Never reinitialise locks in
    this (the pytest) process: only a child may.
    """
    if forked is None:
        forked = threading.Event()
    held, early = threading.Event(), []

    def hold_lock():
        sys.settrace(None)  # a traced holder could wait on its own lock
        with lock:
            held.set()
            early.append(not forked.wait(hold))

    holder = threading.Thread(target=hold_lock, name="lock-holder")
    holder.start()
    try:
        assert held.wait(5), "the holder never took the lock"
        pid = fork_child(child)
        forked.set()
        assert wait_child(pid, timeout) == 0
    finally:
        forked.set()
        holder.join(hold + 5)
    return early == [True]
