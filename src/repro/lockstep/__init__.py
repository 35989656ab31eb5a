"""Lockstep substrate: signal categories, checkers, DMR/TMR wrappers."""

from .categories import (
    PORT_FIELDS,
    SC_INDEX,
    SIGNAL_CATEGORIES,
    TOTAL_PORT_SIGNALS,
    PortField,
    SignalCategory,
    diverged_ports,
    diverged_set,
    dsr_value,
    expand_ports,
)
from .checker import CheckerState, LockstepChecker, VotingChecker
from .dmr import DmrLockstep
from .dynamic import ModeSchedule, ModeWindow, sample_schedule
from .tmr import TmrLockstep

__all__ = [
    "PORT_FIELDS", "SC_INDEX", "SIGNAL_CATEGORIES", "TOTAL_PORT_SIGNALS",
    "PortField", "SignalCategory",
    "diverged_ports", "diverged_set", "dsr_value", "expand_ports",
    "CheckerState", "LockstepChecker", "VotingChecker",
    "DmrLockstep", "TmrLockstep",
    "ModeSchedule", "ModeWindow", "sample_schedule",
]
