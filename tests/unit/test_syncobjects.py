"""Unit tests: sync-object registry + pre-fork ownership sweep."""

import threading
import time

import pytest

from repro.forkhooks.syncobjects import (
    ManagedSyncObject,
    SyncObjectRegistry,
    manage_lock,
)
from repro.util.errors import SyncObjectError


def managed(name, log):
    """A fake sync object recording its protocol calls."""
    return ManagedSyncObject(
        name=name,
        acquire=lambda timeout: (log.append(f"acq:{name}") or True),
        release=lambda: log.append(f"rel:{name}"),
        reinit=lambda: log.append(f"init:{name}"))


class TestRegistration:
    def test_register_and_len(self):
        registry = SyncObjectRegistry()
        lock = threading.Lock()
        manage_lock(registry, lock)
        assert len(registry) == 1

    def test_weakref_owner_drops_collected_objects(self):
        registry = SyncObjectRegistry()

        class Owner:
            pass

        owner = Owner()
        manage_lock(registry, threading.Lock(), owner=owner)
        assert len(registry) == 1
        del owner
        import gc
        gc.collect()
        assert len(registry) == 0
        assert registry.live_objects() == []

    def test_plain_lock_is_strong_until_unregistered(self):
        registry = SyncObjectRegistry()
        token = manage_lock(registry, threading.Lock())
        import gc
        gc.collect()
        assert len(registry) == 1  # the entry's callbacks keep the lock
        registry.unregister(token)
        assert len(registry) == 0

    def test_unregister(self):
        registry = SyncObjectRegistry()
        lock = threading.Lock()
        token = manage_lock(registry, lock)
        registry.unregister(token)
        assert len(registry) == 0

    def test_global_order_is_registration_order(self):
        registry = SyncObjectRegistry()
        log = []
        owners = [object() for _ in range(3)]
        for i, owner in enumerate(owners):
            registry.register(owner, managed(f"m{i}", log))
        names = [m.name for m in registry.live_objects()]
        assert names == ["m0", "m1", "m2"]


class TestOwnershipSweep:
    def test_take_then_release(self):
        registry = SyncObjectRegistry()
        log = []
        owners = [object(), object()]
        registry.register(owners[0], managed("a", log))
        registry.register(owners[1], managed("b", log))
        assert registry.take_ownership() == 2
        assert registry.holding
        assert log == ["acq:a", "acq:b"]
        assert registry.release_ownership() == 2
        assert not registry.holding
        # release happens in reverse acquisition order
        assert log == ["acq:a", "acq:b", "rel:b", "rel:a"]

    def test_double_take_rejected(self):
        registry = SyncObjectRegistry()
        owner = object()
        registry.register(owner, ManagedSyncObject(
            "x", acquire=lambda t: True, release=lambda: None,
            reinit=lambda: None))
        registry.take_ownership()
        with pytest.raises(SyncObjectError):
            registry.take_ownership()
        registry.release_ownership()

    def test_acquire_timeout_unwinds(self):
        registry = SyncObjectRegistry(acquire_timeout=0.05)
        log = []
        good_owner, stuck_owner = object(), object()
        registry.register(good_owner, managed("good", log))
        registry.register(stuck_owner, ManagedSyncObject(
            "stuck", acquire=lambda t: False, release=lambda: None,
            reinit=lambda: None))
        with pytest.raises(SyncObjectError, match="stuck"):
            registry.take_ownership()
        # the successfully acquired object was released on unwind
        assert log == ["acq:good", "rel:good"]
        assert not registry.holding

    def test_acquire_exception_unwinds(self):
        registry = SyncObjectRegistry()
        log = []
        registry.register(object(), managed("ok", log))

        def explode(timeout):
            raise RuntimeError("broken lock")

        registry.register(object(), ManagedSyncObject(
            "boom", acquire=explode, release=lambda: None,
            reinit=lambda: None))
        with pytest.raises(SyncObjectError):
            registry.take_ownership()
        assert "rel:ok" in log

    def test_real_lock_held_by_other_thread_blocks_then_times_out(self):
        registry = SyncObjectRegistry(acquire_timeout=0.1)
        lock = threading.Lock()
        manage_lock(registry, lock)
        lock.acquire()  # simulate another thread holding it at fork time
        started = time.monotonic()
        with pytest.raises(SyncObjectError):
            registry.take_ownership()
        assert time.monotonic() - started >= 0.09
        lock.release()

    def test_sweep_actually_holds_real_lock(self):
        registry = SyncObjectRegistry()
        lock = threading.Lock()
        manage_lock(registry, lock)
        registry.take_ownership()
        assert lock.locked()
        registry.release_ownership()
        assert not lock.locked()


class TestChildReinit:
    def test_reinit_runs_for_all_live(self):
        registry = SyncObjectRegistry()
        log = []
        owners = [object(), object()]
        for i, owner in enumerate(owners):
            registry.register(owner, managed(f"m{i}", log))
        registry.take_ownership()
        count = registry.reinit_after_fork()
        assert count == 2
        assert "init:m0" in log and "init:m1" in log
        assert not registry.holding

    def test_reinit_failure_contained(self):
        registry = SyncObjectRegistry()
        owner = object()
        registry.register(owner, ManagedSyncObject(
            "bad", acquire=lambda t: True, release=lambda: None,
            reinit=lambda: 1 / 0))
        good_owner = object()
        log = []
        registry.register(good_owner, managed("good", log))
        count = registry.reinit_after_fork()
        assert count == 1  # the good one
        assert "init:good" in log

    def test_manage_lock_reinit_force_releases(self):
        registry = SyncObjectRegistry()
        lock = threading.Lock()
        manage_lock(registry, lock)
        registry.take_ownership()  # lock now held (as at fork time)
        registry.reinit_after_fork()
        assert not lock.locked()  # child sees a usable lock
