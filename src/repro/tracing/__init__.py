"""Trace engine: breakpoints, stepping, per-UE control (paper section 4)."""

from .breakpoints import Breakpoint, BreakpointStore, canonical_file
from .control import ResumeCommand, ResumeGate, UEController
from .engine import TraceEngine, fastpath_enabled
from .linetable import LineTable
from .frames import (
    FrameInfo,
    StackCapture,
    capture_frame,
    capture_stack,
    evaluate_in_frame,
    frame_location,
    source_line,
)
from .sampling import SamplingProfiler, UEProfile
from .stepping import StepMode, StepState
from .watchpoints import WatchHit, Watchpoint, WatchpointStore

__all__ = [
    "fastpath_enabled",
    "LineTable",
    "SamplingProfiler", "UEProfile",
    "WatchHit", "Watchpoint", "WatchpointStore",
    "Breakpoint", "BreakpointStore", "canonical_file",
    "ResumeCommand", "ResumeGate", "UEController",
    "TraceEngine",
    "FrameInfo", "StackCapture", "capture_frame", "capture_stack",
    "evaluate_in_frame", "frame_location", "source_line",
    "StepMode", "StepState",
]
