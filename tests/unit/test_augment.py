"""Unit tests: the augmented fork (repro.forkhooks.augment).

These fork real processes (children exit immediately via os._exit), so
they double as the paper's Listing 4 in miniature: alias installed,
handlers bracket the fork, alias removed.
"""

import os

import pytest

from repro.forkhooks.augment import ForkPatcher
from repro.forkhooks.registry import ForkHandlerRegistry
from repro.forkhooks.resilience import run_with_deadline
from repro.util.errors import ForkHookError


@pytest.fixture
def registry():
    return ForkHandlerRegistry()


def reap(pid):
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


class TestInstallUninstall:
    def test_install_replaces_os_fork(self, registry):
        original = os.fork
        patcher = ForkPatcher(registry)
        patcher.install()
        try:
            assert os.fork is not original
            assert patcher.installed
        finally:
            patcher.uninstall()
        assert os.fork is original
        assert not patcher.installed

    def test_double_install_rejected(self, registry):
        patcher = ForkPatcher(registry)
        with patcher:
            with pytest.raises(ForkHookError):
                patcher.install()

    def test_two_patchers_rejected(self, registry):
        first = ForkPatcher(registry)
        second = ForkPatcher(ForkHandlerRegistry())
        with first:
            with pytest.raises(ForkHookError):
                second.install()

    def test_uninstall_without_install_is_noop(self, registry):
        ForkPatcher(registry).uninstall()  # no raise

    def test_foreign_repatch_detected(self, registry):
        patcher = ForkPatcher(registry)
        patcher.install()
        saved = os.fork
        os.fork = lambda: 0  # someone else patches over us
        try:
            with pytest.raises(ForkHookError):
                patcher.uninstall()
            assert not patcher.installed  # though os.fork stays theirs
        finally:
            os.fork = saved
            patcher.uninstall()

    def test_uninstall_is_idempotent(self, registry):
        original = os.fork
        patcher = ForkPatcher(registry)
        patcher.install()
        patcher.uninstall()
        patcher.uninstall()  # second uninstall: silent no-op
        assert os.fork is original
        assert not patcher.installed

    def test_reinstall_after_uninstall(self, registry):
        original = os.fork
        patcher = ForkPatcher(registry)
        for _ in range(3):
            patcher.install()
            assert patcher.installed
            assert os.fork is not original
            patcher.uninstall()
            assert not patcher.installed
            assert os.fork is original

    def test_install_cycle_leaves_no_patcher_behind(self, registry):
        with ForkPatcher(registry):
            pass
        second = ForkPatcher(ForkHandlerRegistry())
        with second:  # the slot was freed; a new patcher may claim it
            assert second.installed
        assert not second.installed


@pytest.mark.forks
class TestAliasBackendForks:
    def test_handlers_bracket_real_fork(self, registry):
        events = []
        registry.register("t",
                          prepare=lambda: events.append("prepare"),
                          parent=lambda: events.append("parent"),
                          child=lambda: os._exit(42))
        with ForkPatcher(registry):
            pid = os.fork()
            # we only ever get here in the parent: the child handler exits
            assert pid > 0
            assert reap(pid) == 42
        assert events == ["prepare", "parent"]

    def test_child_pid_callback(self, registry):
        seen = []
        patcher = ForkPatcher(registry)
        patcher.on_child_forked = seen.append
        with patcher:
            pid = os.fork()
            if pid == 0:
                os._exit(0)
            reap(pid)
        assert seen == [pid]

    def test_prepare_failure_aborts_fork(self, registry):
        """A raising prepare cannot veto the fork: its own parent
        callback undoes it, its set sits out the bracket (the child
        phase would exit 99) and is benched, and the fork proceeds."""
        undone = []
        registry.register("veto", prepare=lambda: 1 / 0,
                          parent=lambda: undone.append("undo"),
                          child=lambda: os._exit(99))
        with ForkPatcher(registry):
            pid = os.fork()
            if pid == 0:
                os._exit(0)
            assert reap(pid) == 0
        assert undone == ["undo"]
        assert [(f.label, f.phase) for f in registry.failures] \
            == [("veto", "prepare")]
        assert registry.quarantine.benched_labels() == ["veto"]

    def test_fork_still_works_after_uninstall(self, registry):
        with ForkPatcher(registry):
            pass
        pid = os.fork()
        if pid == 0:
            os._exit(7)
        assert reap(pid) == 7

    def test_callback_failure_does_not_break_fork(self, registry):
        patcher = ForkPatcher(registry)
        patcher.on_child_forked = lambda pid: 1 / 0
        with patcher:
            pid = os.fork()
            if pid == 0:
                os._exit(0)
            assert reap(pid) == 0


@pytest.mark.forks
class TestReentrancyGuard:
    """fork() from inside a fork handler gets a bare fork, not the
    bracket — re-running prepare under its own held locks would
    deadlock.  Two paths must be covered: a handler running inline on
    the forking thread (thread-local depth), and one running on the
    resilience sandbox thread (handler-context flag)."""

    def test_inline_handler_fork_bypasses_bracket(self, registry):
        phases = []

        def forking_prepare():
            phases.append("prepare")
            inner = os.fork()  # routed to the patched alias
            if inner == 0:
                os._exit(11)
            assert reap(inner) == 11

        registry.register("nested", prepare=forking_prepare,
                          parent=lambda: phases.append("parent"))
        with ForkPatcher(registry):
            pid = os.fork()
            if pid == 0:
                os._exit(0)
            assert reap(pid) == 0
        # one bracket only: the inner fork must not have re-run prepare
        assert phases == ["prepare", "parent"]

    def test_sandboxed_handler_fork_bypasses_bracket(self, registry):
        phases = []

        def forking_prepare():
            phases.append("prepare")
            inner = os.fork()
            if inner == 0:
                os._exit(12)
            assert reap(inner) == 12

        registry.register("t", prepare=lambda: phases.append("prepare"),
                          parent=lambda: phases.append("parent"))
        with ForkPatcher(registry):
            # run the forking handler the way the registry runs an
            # untrusted one: on the sacrificial deadline thread, where
            # the forking thread's depth counter is invisible
            run_with_deadline("sandboxed", "prepare", forking_prepare, 10.0)
        assert phases == ["prepare"]  # the inner fork ran no phases
