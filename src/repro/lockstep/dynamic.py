"""Dynamic lockstep: seeded split/locked mode schedules.

Real deployments do not run the comparator continuously.  Doran's
"Dynamic Lockstep Processors" switches a core pair between a *split*
performance mode (no comparison — the cores run independent work or
save energy) and a *locked* safety mode (cycle-by-cycle comparison),
and FlexStep-style designs add *on-demand check windows*: short locked
bursts requested by software inside an otherwise split region (e.g.
around a critical store).  Divergence that manifests inside a split
window is invisible until the next locked cycle — the fault-fuzz
harness uses this module as a scenario axis to measure how detection,
latency and escapes degrade with the comparison duty cycle.

The schedule is a pure function of its inputs (an explicit window list
or a seeded RNG draw), so scenario results stay bit-identical for any
worker count, exactly like the fault schedules.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

#: Window kinds.  ``check`` windows are locked windows that exist
#: because software asked for one (FlexStep on-demand checking); the
#: checker treats them identically to scheduled locked windows, the
#: distinction only matters for reporting.
LOCKED, SPLIT, CHECK = "locked", "split", "check"


@dataclass(frozen=True)
class ModeWindow:
    """One contiguous run of cycles in a single comparison mode."""

    start: int
    length: int
    kind: str           #: "locked" | "split" | "check"

    @property
    def end(self) -> int:
        """First cycle after the window."""
        return self.start + self.length

    @property
    def locked(self) -> bool:
        return self.kind != SPLIT


class ModeSchedule:
    """An immutable split/locked window sequence over a cycle horizon.

    Cycles at or beyond the horizon are **locked**: a core pair that
    overruns its schedule (e.g. a faulty core running past the golden
    halt) falls back to the safe mode rather than escaping comparison
    forever.
    """

    def __init__(self, windows: list[ModeWindow] | tuple[ModeWindow, ...]):
        windows = tuple(w for w in windows if w.length > 0)
        cursor = 0
        for w in windows:
            if w.start != cursor:
                raise ValueError(f"window at {w.start} leaves a gap/overlap "
                                 f"(expected start {cursor})")
            cursor = w.end
        self.windows = windows
        self.horizon = cursor
        self._starts = [w.start for w in windows]

    @classmethod
    def always_locked(cls) -> "ModeSchedule":
        """The degenerate 100%-duty schedule (classic static lockstep)."""
        return cls(())

    def window_at(self, cycle: int) -> ModeWindow | None:
        """The window covering ``cycle``; None beyond the horizon."""
        if cycle < 0:
            raise ValueError("cycle must be non-negative")
        if cycle >= self.horizon:
            return None
        return self.windows[bisect_right(self._starts, cycle) - 1]

    def locked_at(self, cycle: int) -> bool:
        """Is the comparator active on ``cycle``?"""
        window = self.window_at(cycle)
        return True if window is None else window.locked

    def locked_cycles(self) -> int:
        """Locked (comparing) cycles within the horizon."""
        return sum(w.length for w in self.windows if w.locked)

    @property
    def duty(self) -> float:
        """Fraction of in-horizon cycles the comparator is active."""
        if not self.horizon:
            return 1.0
        return self.locked_cycles() / self.horizon

    def __repr__(self) -> str:
        return (f"ModeSchedule({len(self.windows)} windows, "
                f"horizon={self.horizon}, duty={self.duty:.2f})")


def sample_schedule(rng, n_cycles: int, duty: float, *,
                    min_window: int = 8, max_window: int = 64,
                    check_rate: float = 0.25,
                    check_length: int = 4) -> ModeSchedule:
    """Draw a seeded split/locked schedule targeting a duty cycle.

    Alternating locked/split windows: each locked window's length is
    uniform in ``[min_window, max_window]`` and the following split
    window is sized so the local ratio matches ``duty``.  With
    probability ``check_rate`` a split window carries an embedded
    on-demand check window of ``check_length`` cycles at a uniform
    offset — the FlexStep pattern of software requesting a comparison
    burst mid-split.  ``duty=1.0`` degenerates to always-locked.

    ``rng`` is any ``numpy.random.Generator``; callers key it per
    scenario (see :data:`repro.faults.streams.MODE_STREAM`).
    """
    if not 0.0 < duty <= 1.0:
        raise ValueError(f"duty must be in (0, 1], got {duty}")
    if duty >= 1.0 or n_cycles <= 0:
        return ModeSchedule.always_locked()
    windows: list[ModeWindow] = []
    cursor = 0
    while cursor < n_cycles:
        locked_len = int(rng.integers(min_window, max_window + 1))
        windows.append(ModeWindow(cursor, locked_len, LOCKED))
        cursor += locked_len
        if cursor >= n_cycles:
            break
        split_len = max(1, round(locked_len * (1.0 - duty) / duty))
        if float(rng.random()) < check_rate and split_len > 2 * check_length:
            # Embed the on-demand check window inside the split span.
            offset = int(rng.integers(1, split_len - check_length))
            windows.append(ModeWindow(cursor, offset, SPLIT))
            windows.append(ModeWindow(cursor + offset, check_length, CHECK))
            windows.append(ModeWindow(cursor + offset + check_length,
                                      split_len - offset - check_length,
                                      SPLIT))
        else:
            windows.append(ModeWindow(cursor, split_len, SPLIT))
        cursor += split_len
    # Trim the tail to the horizon so duty stays honest.
    trimmed: list[ModeWindow] = []
    for w in windows:
        if w.start >= n_cycles:
            break
        trimmed.append(ModeWindow(w.start, min(w.end, n_cycles) - w.start,
                                  w.kind))
    return ModeSchedule(trimmed)

