"""Unit tests: wait-for graph and deadlock detection (repro.core.deadlock)."""

import json

from repro.core.deadlock import DeadlockDetector, WaitForGraph
from repro.util.ids import UEId

A = UEId(1, 11)
B = UEId(1, 22)
C = UEId(1, 33)


class TestGraphBookkeeping:
    def test_add_and_clear_wait(self):
        graph = WaitForGraph()
        graph.add_wait(A, "lock1", "app.py:10 (f)")
        assert len(graph.waits()) == 1
        graph.clear_wait(A)
        assert graph.waits() == []

    def test_wait_replaces_previous(self):
        graph = WaitForGraph()
        graph.add_wait(A, "r1", "x:1")
        graph.add_wait(A, "r2", "x:2")
        waits = graph.waits()
        assert len(waits) == 1 and waits[0].resource == "r2"

    def test_holds_and_release(self):
        graph = WaitForGraph()
        graph.add_hold(A, "lock1")
        graph.add_hold(B, "lock1")
        assert graph.holders_of("lock1") == {A, B}
        graph.release_hold(A, "lock1")
        assert graph.holders_of("lock1") == {B}
        graph.release_hold(B, "lock1")
        assert graph.holders_of("lock1") == set()

    def test_release_unknown_is_noop(self):
        WaitForGraph().release_hold(A, "ghost")

    def test_reset(self):
        graph = WaitForGraph()
        graph.add_wait(A, "r", "x:1")
        graph.add_hold(B, "r")
        graph.reset_after_fork()
        assert graph.waits() == [] and graph.holders_of("r") == set()


class TestCycleDetection:
    def test_two_party_deadlock(self):
        graph = WaitForGraph()
        graph.add_hold(A, "L1")
        graph.add_hold(B, "L2")
        graph.add_wait(A, "L2", "app.py:10 (f)")
        graph.add_wait(B, "L1", "app.py:20 (g)")
        cycles = graph.find_cycles()
        assert len(cycles) == 1
        chain = cycles[0]
        assert str(A) in chain and str(B) in chain
        assert "L1" in chain and "L2" in chain

    def test_three_party_ring(self):
        graph = WaitForGraph()
        for ue, held, wanted in ((A, "L1", "L2"), (B, "L2", "L3"),
                                 (C, "L3", "L1")):
            graph.add_hold(ue, held)
            graph.add_wait(ue, wanted, "x:1")
        cycles = graph.find_cycles()
        assert len(cycles) == 1
        assert len([n for n in cycles[0] if n.startswith("ue:")]) == 3

    def test_no_cycle_for_simple_contention(self):
        graph = WaitForGraph()
        graph.add_hold(A, "L1")
        graph.add_wait(B, "L1", "x:1")  # B waits, A runs free
        assert graph.find_cycles() == []

    def test_no_cycle_for_chain(self):
        graph = WaitForGraph()
        graph.add_hold(A, "L1")
        graph.add_hold(B, "L2")
        graph.add_wait(B, "L1", "x:1")
        graph.add_wait(C, "L2", "x:2")
        assert graph.find_cycles() == []

    def test_self_deadlock(self):
        graph = WaitForGraph()
        graph.add_hold(A, "L1")
        graph.add_wait(A, "L1", "x:1")  # non-reentrant lock re-acquired
        cycles = graph.find_cycles()
        assert len(cycles) == 1

    def test_cycle_reported_once(self):
        graph = WaitForGraph()
        graph.add_hold(A, "L1")
        graph.add_hold(B, "L2")
        graph.add_wait(A, "L2", "x:1")
        graph.add_wait(B, "L1", "x:2")
        assert len(graph.find_cycles()) == 1  # not once per start node


class TestOrphanedWaits:
    def test_wait_on_dead_holder_flagged(self):
        graph = WaitForGraph()
        dead = UEId(1, 99)
        graph.add_hold(dead, "L1")
        graph.add_wait(A, "L1", "child.py:14 (work)")
        orphans = graph.orphaned_waits(live_ues=[A])
        assert len(orphans) == 1
        assert orphans[0].location == "child.py:14 (work)"

    def test_wait_on_live_holder_not_flagged(self):
        graph = WaitForGraph()
        graph.add_hold(B, "L1")
        graph.add_wait(A, "L1", "x:1")
        assert graph.orphaned_waits(live_ues=[A, B]) == []

    def test_holderless_resource_not_flagged(self):
        """Queues have producers, not holders: never flag on absence."""
        graph = WaitForGraph()
        graph.add_wait(A, "queue-1", "x:1")
        assert graph.orphaned_waits(live_ues=[A]) == []

    def test_dead_waiter_ignored(self):
        graph = WaitForGraph()
        dead = UEId(1, 99)
        graph.add_hold(dead, "L1")
        graph.add_wait(dead, "L1", "x:1")
        assert graph.orphaned_waits(live_ues=[A]) == []


class TestDetectorReport:
    def test_report_is_wire_safe(self):
        detector = DeadlockDetector()
        detector.graph.add_hold(A, "L1")
        detector.graph.add_hold(B, "L2")
        detector.graph.add_wait(A, "L2", "f.py:1 (a)")
        detector.graph.add_wait(B, "L1", "f.py:2 (b)")
        report = detector.report()
        json.dumps(report)
        assert report["available"]
        assert len(report["cycles"]) == 1
        locations = report["cycles"][0]["locations"]
        assert locations[str(A)] == "f.py:1 (a)"
        assert locations[str(B)] == "f.py:2 (b)"

    def test_all_blocked_false_with_running_threads(self):
        # The calling (test) thread is alive and not waiting.
        detector = DeadlockDetector()
        assert not detector.all_blocked()

    def test_report_lists_plain_waits(self):
        detector = DeadlockDetector()
        detector.graph.add_wait(A, "q", "user.py:14 (main)")
        report = detector.report()
        assert report["waiting"] == [
            {"ue": str(A), "resource": "q", "location": "user.py:14 (main)"}]

    def test_reset_after_fork_clears(self):
        detector = DeadlockDetector()
        detector.graph.add_wait(A, "q", "x:1")
        detector.reset_after_fork()
        assert detector.report()["waiting"] == []
