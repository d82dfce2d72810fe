"""Unit tests: ordered fork-handler registry (repro.forkhooks.registry).

The ordering discipline is POSIX pthread_atfork's: prepare runs in
reverse registration order, parent/child in registration order
(paper section 5.2 relies on composing with foreign handlers).
"""

import errno
import threading

import pytest

from repro.forkhooks.registry import (
    ForkHandlerRegistry,
    HandlerSet,
    run_around_fork,
)
from repro.forkhooks.syncobjects import SyncObjectRegistry, manage_lock
from repro.testkit.faults import Fault, Schedule, armed, registry as faults
from repro.util.errors import ForkHookError, SyncObjectError


@pytest.fixture
def registry():
    return ForkHandlerRegistry()


class TestRegistration:
    def test_register_and_labels(self, registry):
        registry.register("a", prepare=lambda: None)
        registry.register("b", child=lambda: None)
        assert registry.labels == ["a", "b"]

    def test_empty_handler_set_rejected(self):
        with pytest.raises(ForkHookError):
            HandlerSet(label="empty")

    def test_duplicate_label_rejected(self, registry):
        registry.register("dup", prepare=lambda: None)
        with pytest.raises(ForkHookError):
            registry.register("dup", parent=lambda: None)

    def test_unregister(self, registry):
        registry.register("x", prepare=lambda: None)
        registry.unregister("x")
        assert registry.labels == []

    def test_unregister_unknown_raises(self, registry):
        with pytest.raises(ForkHookError):
            registry.unregister("ghost")

    def test_clear(self, registry):
        registry.register("x", prepare=lambda: None)
        registry.clear()
        assert registry.labels == []


class TestPhaseOrdering:
    def test_prepare_reverse_parent_child_forward(self, registry):
        calls = []
        for name in ("first", "second", "third"):
            registry.register(
                name,
                prepare=lambda n=name: calls.append(f"prep:{n}"),
                parent=lambda n=name: calls.append(f"par:{n}"),
                child=lambda n=name: calls.append(f"chi:{n}"))
        registry.run_prepare()
        assert calls == ["prep:third", "prep:second", "prep:first"]
        calls.clear()
        registry.run_parent()
        assert calls == ["par:first", "par:second", "par:third"]
        calls.clear()
        registry.run_child()
        assert calls == ["chi:first", "chi:second", "chi:third"]

    def test_missing_phases_skipped(self, registry):
        calls = []
        registry.register("only-child", child=lambda: calls.append("c"))
        registry.run_prepare()
        registry.run_parent()
        registry.run_child()
        assert calls == ["c"]


class TestPrepareFailure:
    """The one prepare-failure contract: whatever handler fails, only
    its own parent callback runs as its undo, its set sits out the
    bracket and is benched, every other set stays prepared, and
    run_prepare returns so the fork proceeds."""

    def test_failure_unwinds_already_prepared(self, registry):
        calls = []

        def bad_prepare():
            calls.append("prep:bad")
            raise RuntimeError("no fork for you")

        # prepare runs in reverse registration order: register 'bad'
        # first so that it fails after 'inner' already prepared.
        registry.register("bad", prepare=bad_prepare,
                          parent=lambda: calls.append("undo:bad"))
        registry.register("inner",
                          prepare=lambda: calls.append("prep:inner"),
                          parent=lambda: calls.append("par:inner"))
        prepared = registry.run_prepare()
        assert [h.label for h in prepared] == ["inner"]
        assert calls == ["prep:inner", "prep:bad", "undo:bad"]
        calls.clear()
        registry.run_parent()  # B for the sets still prepared only
        assert calls == ["par:inner"]
        assert registry.quarantine.benched_labels() == ["bad"]

    def test_unwind_failure_recorded_not_raised(self, registry):
        def bad_undo():
            raise ValueError("undo broke")

        registry.register("failing",
                          prepare=lambda: (_ for _ in ()).throw(
                              RuntimeError("prep fails")),
                          parent=bad_undo)
        registry.register("a", prepare=lambda: None)
        prepared = registry.run_prepare()  # returns: nothing raised
        assert [h.label for h in prepared] == ["a"]
        assert [(f.label, f.phase) for f in registry.failures] \
            == [("failing", "prepare"), ("failing", "undo")]


class TestContainedFailures:
    def test_parent_failure_recorded_others_run(self, registry):
        calls = []
        registry.register("bad", parent=lambda: 1 / 0)
        registry.register("good", parent=lambda: calls.append("ok"))
        registry.run_parent()
        assert calls == ["ok"]
        failures = registry.failures
        assert len(failures) == 1
        assert failures[0].label == "bad"
        assert failures[0].phase == "parent"
        assert isinstance(failures[0].exception, ZeroDivisionError)

    def test_child_failure_recorded_others_run(self, registry):
        calls = []
        registry.register("bad", child=lambda: 1 / 0)
        registry.register("good", child=lambda: calls.append("ok"))
        registry.run_child()
        assert calls == ["ok"]
        assert registry.failures[0].phase == "child"

    def test_clear_failures(self, registry):
        registry.register("bad", parent=lambda: 1 / 0)
        registry.run_parent()
        registry.clear_failures()
        assert registry.failures == []


class TestRunAroundFork:
    def test_parent_path(self, registry):
        calls = []
        registry.register("h", prepare=lambda: calls.append("A"),
                          parent=lambda: calls.append("B"),
                          child=lambda: calls.append("C"))
        pid, is_child = run_around_fork(registry, lambda: 1234)
        assert (pid, is_child) == (1234, False)
        assert calls == ["A", "B"]

    def test_child_path(self, registry):
        calls = []
        registry.register("h", prepare=lambda: calls.append("A"),
                          parent=lambda: calls.append("B"),
                          child=lambda: calls.append("C"))
        pid, is_child = run_around_fork(registry, lambda: 0)
        assert (pid, is_child) == (0, True)
        assert calls == ["A", "C"]

    def test_fork_failure_releases_prepare(self, registry):
        calls = []
        registry.register("h", prepare=lambda: calls.append("A"),
                          parent=lambda: calls.append("B"))

        def failing_fork():
            raise OSError("EAGAIN")

        with pytest.raises(OSError):
            run_around_fork(registry, failing_fork)
        assert calls == ["A", "B"]


class TestInjectedFailures:
    """Error paths driven through the testkit's fault points.

    These pin the contract the stress tier leans on: a fork that fails at
    the worst moment (between prepare and fork(2)) must leave the handler
    registry, and any sync-object sweep it brackets, exactly as found.
    """

    @pytest.fixture(autouse=True)
    def clean_faults(self):
        faults().reset()
        yield
        faults().reset()

    def test_injected_fork_failure_unwinds_prepare(self, registry):
        calls = []
        registry.register("h", prepare=lambda: calls.append("prep"),
                          parent=lambda: calls.append("par"),
                          child=lambda: calls.append("chi"))
        with armed("fork.os_fork", Fault.os_error(errno.EAGAIN)):
            with pytest.raises(OSError) as exc_info:
                run_around_fork(registry, lambda: 1234)
        assert exc_info.value.errno == errno.EAGAIN
        # prepare ran, the injected failure aborted the fork, and the
        # parent phase (prepare's undo) ran — never the child phase.
        assert calls == ["prep", "par"]
        assert registry.labels == ["h"]
        assert registry.failures == []

    def test_injected_eintr_at_fork_point_propagates(self, registry):
        calls = []
        registry.register("h", prepare=lambda: calls.append("prep"),
                          parent=lambda: calls.append("par"))
        with armed("fork.os_fork", Fault.eintr()):
            with pytest.raises(InterruptedError):
                run_around_fork(registry, lambda: 1234)
        assert calls == ["prep", "par"]

    def test_scheduled_fork_failures_recover(self, registry):
        """Fail forks 1 and 3 of 4; the survivors must be untouched."""
        depth = {"n": 0}

        def prep():
            depth["n"] += 1

        def par():
            depth["n"] -= 1

        registry.register("balance", prepare=prep, parent=par)
        outcomes = []
        with armed("fork.os_fork", Fault.os_error(errno.EAGAIN),
                   Schedule.on_hits(1, 3)):
            for _ in range(4):
                try:
                    pid, is_child = run_around_fork(registry, lambda: 4321)
                    outcomes.append(pid)
                except OSError:
                    outcomes.append("failed")
                # Whatever happened, prepare must be fully undone.
                assert depth["n"] == 0
            assert faults().stats("fork.os_fork") == (4, 2)
        assert outcomes == ["failed", 4321, "failed", 4321]

    def test_prepare_fault_leaves_sync_sweep_unapplied(self, registry):
        """A prepare handler raising (here: via an injected fault) after
        the sync-object sweep acquired everything leaves the sweep
        whole: it stays prepared through the bracket, the parent phase
        releases all of it, and only the faulty handler is benched —
        nothing is half-applied."""
        sync = SyncObjectRegistry(acquire_timeout=1.0)
        lock_a, lock_b = threading.Lock(), threading.Lock()
        manage_lock(sync, lock_a, name="a")
        manage_lock(sync, lock_b, name="b")

        def faulty_prepare():
            from repro.testkit.faults import maybe_fault
            maybe_fault("test.prepare")

        # Registration order matters: prepare runs in REVERSE order, so
        # the sweep (registered last) prepares first, then the faulty
        # handler fires.
        registry.register("faulty", prepare=faulty_prepare)
        registry.register("sweep",
                          prepare=lambda: sync.take_ownership(),
                          parent=lambda: sync.release_ownership(),
                          child=lambda: sync.reinit_after_fork())
        with armed("test.prepare", Fault.os_error(errno.EIO)):
            prepared = registry.run_prepare()
        assert [h.label for h in prepared] == ["sweep"]
        assert sync.holding and lock_a.locked() and lock_b.locked()
        registry.run_parent()
        assert not sync.holding
        assert not lock_a.locked() and not lock_b.locked()
        # The registry itself is intact; the faulty handler is benched.
        assert registry.labels == ["faulty", "sweep"]
        assert registry.quarantine.benched_labels() == ["faulty"]
        assert [(f.label, f.phase) for f in registry.failures] \
            == [("faulty", "prepare")]

    def test_sweep_acquire_fault_unwinds_partial_acquisition(self):
        """If acquiring sync object k fails, objects 1..k-1 are released
        before the error propagates (take_ownership's own unwind)."""
        sync = SyncObjectRegistry(acquire_timeout=0.1)
        lock_a = threading.Lock()
        manage_lock(sync, lock_a, name="a")
        lock_b = threading.Lock()
        lock_b.acquire()  # a foreign holder: acquisition will time out
        manage_lock(sync, lock_b, name="b")
        with pytest.raises(SyncObjectError):
            sync.take_ownership()
        assert not lock_a.locked()
        assert not sync.holding
        lock_b.release()
