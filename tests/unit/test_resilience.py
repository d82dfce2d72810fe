"""Unit tests: do-no-harm resilience policy (repro.forkhooks.resilience).

The deadline/quarantine machinery is what keeps a misbehaving fork
handler from freezing or aborting the debuggee's forks; these tests pin
its contract without forking anything.
"""

import threading
import time

import pytest

from repro.forkhooks.resilience import (
    DEADLINE_ENV,
    PhaseTimeout,
    Quarantine,
    REINSTATE_ENV,
    ResiliencePolicy,
    in_handler_context,
    run_with_deadline,
)


class TestPolicyFromEnv:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(DEADLINE_ENV, raising=False)
        monkeypatch.delenv(REINSTATE_ENV, raising=False)
        policy = ResiliencePolicy.from_env()
        assert policy.prepare_deadline == 5.0
        assert policy.reinstate_after == 3

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(DEADLINE_ENV, "0.25")
        monkeypatch.setenv(REINSTATE_ENV, "7")
        policy = ResiliencePolicy.from_env()
        assert policy.prepare_deadline == 0.25
        assert policy.reinstate_after == 7

    @pytest.mark.parametrize("value", ["", "nope", "-1", "0"])
    def test_garbage_and_nonpositive_fall_back(self, monkeypatch, value):
        monkeypatch.setenv(DEADLINE_ENV, value)
        monkeypatch.setenv(REINSTATE_ENV, value)
        policy = ResiliencePolicy.from_env()
        assert policy.prepare_deadline == 5.0
        assert policy.reinstate_after == 3


class TestQuarantine:
    def quarantine(self, reinstate=2):
        return Quarantine(ResiliencePolicy(reinstate_after=reinstate))

    def test_benched_handler_is_skipped(self):
        quarantine = self.quarantine()
        assert not quarantine.should_skip("h")
        quarantine.record_failure("h", "prepare failed")
        assert quarantine.should_skip("h")
        assert quarantine.benched_labels() == ["h"]

    def test_parole_after_clean_forks(self):
        quarantine = self.quarantine(reinstate=2)
        quarantine.record_failure("h", "hung")
        quarantine.note_clean_fork()
        assert quarantine.should_skip("h")  # one clean fork: still benched
        quarantine.note_clean_fork()
        assert not quarantine.should_skip("h")
        assert quarantine.benched_labels() == []

    def test_refailure_resets_the_clock(self):
        quarantine = self.quarantine(reinstate=2)
        quarantine.record_failure("h", "hung")
        quarantine.note_clean_fork()
        quarantine.record_failure("h", "hung again")
        quarantine.note_clean_fork()
        assert quarantine.should_skip("h")  # clock restarted at 2

    def test_benches_are_independent(self):
        quarantine = self.quarantine(reinstate=1)
        quarantine.record_failure("a", "x")
        quarantine.record_failure("b", "y")
        assert quarantine.benched_labels() == ["a", "b"]
        quarantine.note_clean_fork()
        assert quarantine.benched_labels() == []

    def test_clear(self):
        quarantine = self.quarantine()
        quarantine.record_failure("h", "x")
        quarantine.clear()
        assert not quarantine.should_skip("h")


class TestRunWithDeadline:
    def test_completes_within_deadline(self):
        ran = []
        run_with_deadline("ok", "prepare", lambda: ran.append(1), 5.0)
        assert ran == [1]

    def test_handler_exception_reraised(self):
        with pytest.raises(ZeroDivisionError):
            run_with_deadline("boom", "prepare", lambda: 1 / 0, 5.0)

    def test_timeout_raises_and_abandons(self):
        release = threading.Event()
        try:
            with pytest.raises(PhaseTimeout):
                run_with_deadline("hung", "prepare",
                                  lambda: release.wait(30), 0.05)
        finally:
            release.set()  # let the sacrificial thread finish promptly

    def test_sandbox_thread_is_daemon_and_named(self):
        names = []

        def snoop():
            thread = threading.current_thread()
            names.append((thread.name, thread.daemon))

        run_with_deadline("snoop", "prepare", snoop, 5.0)
        assert names == [("dionea-sandbox-snoop-prepare", True)]


class TestHandlerContext:
    def test_set_inside_sandbox_only(self):
        seen = []
        run_with_deadline("ctx", "prepare",
                          lambda: seen.append(in_handler_context()), 5.0)
        assert seen == [True]
        assert not in_handler_context()

    def test_cleared_even_after_handler_raises(self):
        flags = {}

        def boom():
            flags["during"] = in_handler_context()
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            run_with_deadline("ctx", "prepare", boom, 5.0)
        # the flag is thread-local to the (dead) sandbox thread; the
        # calling thread must never see it
        assert not in_handler_context()
