"""The compiled step kernel behind the batch fault-injection engine.

The :class:`~repro.faults.batch.BatchInjectionEngine` advances its
structure-of-arrays lanes with the fused C drive loop in
:mod:`repro.faults._cstep` (one call runs force / golden compare /
step for many cycles, returning to Python only on rare-path events,
see DESIGN §5.15).  It is the only batch kernel: tests/test_kernels.py
pins it per cycle to the specification, ``Cpu.step``.

It is the default engine of every campaign driver.  When the
extension cannot load (no C compiler, a sandboxed cache directory,
``REPRO_CSTEP_BUILD=0``), the drivers run the scalar
:class:`~repro.faults.injector.InjectionEngine` instead
(:meth:`repro.faults.parallel.ExecPlan.resolve`): identical records and
PruneStats, at scalar speed.  The engine never enters campaign cache
keys.
"""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs this process may run on.

    The affinity mask, not ``os.cpu_count()``: a process pinned to one
    CPU of a larger host gets one.  Falls back to ``os.cpu_count()``
    where the platform has no affinity call.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def cext_module():
    """The compiled kernel module, or None when unavailable."""
    from . import _cstep
    return _cstep.MODULE


def cext_available() -> bool:
    return cext_module() is not None


def cext_build_error() -> str | None:
    """Why the compiled kernel is unavailable (None when it loaded)."""
    from . import _cstep
    return _cstep.BUILD_ERROR


def resolve_kernel() -> str:
    """The engine a batch request runs on in this process.

    ``"cext"`` when the compiled kernel loaded, else ``"scalar"``: the
    drivers then fall back to the scalar engine.
    """
    return "cext" if cext_available() else "scalar"
