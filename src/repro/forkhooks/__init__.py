"""Fork handlers: the paper's core mechanism (sections 5.2-5.4)."""

from .augment import ForkPatcher
from .registry import (
    ForkHandlerRegistry,
    HandlerFailure,
    HandlerSet,
    run_around_fork,
)
from .resilience import PhaseTimeout, Quarantine, ResiliencePolicy
from .syncobjects import ManagedSyncObject, SyncObjectRegistry, manage_lock

__all__ = [
    "ForkPatcher",
    "ForkHandlerRegistry", "HandlerFailure", "HandlerSet", "run_around_fork",
    "PhaseTimeout", "Quarantine", "ResiliencePolicy",
    "ManagedSyncObject", "SyncObjectRegistry", "manage_lock",
]
