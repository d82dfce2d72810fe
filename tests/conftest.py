"""Shared fixtures and hygiene for the test suite.

The debugger mutates process-global state (``sys.settrace``, ``os.fork``,
the active-Dionea slot); the ``clean_process_state`` autouse fixture
guarantees every test starts and ends neutral so a failing test cannot
poison its neighbours.
"""

from __future__ import annotations

import faulthandler
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

#: Seconds past a test's cap before the GIL-free backstop ends the whole
#: run: an ordinary overrun fails by name first (pytest-timeout or the
#: SIGALRM fallback); a process frozen with the GIL held, which neither
#: can interrupt, is ended by faulthandler's own C thread with every
#: thread's traceback.
FREEZE_GRACE = 5.0


def pytest_configure(config):
    # pytest's fd capture swallows fd 2 during a test; the backstop
    # writes to a copy of the real stderr taken now.
    config._dionea_freeze_file = os.fdopen(  # noqa: SLF001
        os.dup(sys.stderr.fileno()), "w")
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
    # pytest-timeout's --timeout (pytest_configure defaults it to ours)
    option = getattr(item.config.option, "timeout", None)
    if option:
        return float(option)
    return DEFAULT_TEST_TIMEOUT


def pytest_unconfigure(config):
    freeze_file = getattr(config, "_dionea_freeze_file", None)
    if freeze_file is not None:
        freeze_file.close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Per-test deadline: SIGALRM when pytest-timeout is absent, and a
    GIL-free backstop either way.

    The alarm interrupts even a test blocked inside a lock acquire or a
    socket read on the main thread — the failure names the test and its
    budget instead of the whole run dying to the job-level `timeout(1)`.
    Neither the alarm nor pytest-timeout (a signal handler or a Python
    timer thread) runs while another thread holds the GIL for good, so
    ``faulthandler.dump_traceback_later`` is armed too, *FREEZE_GRACE*
    seconds later: it dumps every thread's stack (naming the test) and
    exits the process.
    """
    timeout = _test_timeout(item)
    if timeout <= 0:
        yield
        return
    freeze_file = getattr(item.config, "_dionea_freeze_file", None)
    if freeze_file is not None:
        faulthandler.dump_traceback_later(timeout + FREEZE_GRACE,
                                          exit=True, file=freeze_file)
    alarm = (getattr(item.config, "_dionea_alarm_fallback", False)
             and threading.current_thread() is threading.main_thread())

    def _expired(signum, frame):
        pytest.fail(f"test exceeded its {timeout:.0f}s deadline "
                    f"(per-test cap; see tests/conftest.py)",
                    pytrace=False)

    if alarm:
        previous = signal.signal(signal.SIGALRM, _expired)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        if alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if freeze_file is not None:
            faulthandler.cancel_dump_traceback_later()


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
