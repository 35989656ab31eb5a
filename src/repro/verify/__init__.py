"""Differential verification of the SR5 pipeline against an ISA model.

The correctness safety net under every campaign number: a single-step
architectural reference model (:mod:`refmodel`), a constrained-random
hazard-stressing program generator (:mod:`progen`), a co-simulation
driver with a delta-debugging shrinker (:mod:`diff`), session coverage
accounting (:mod:`coverage`), fuzz-under-fault-injection
(:mod:`faultfuzz`) and mutation testing of the whole stack
(:mod:`mutation`).  Entry points::

    python -m repro fuzz --programs 2000 --seed 0
    python -m repro fuzz --inject --programs 200 --seed 0
    python -m repro mutate

    from repro.verify import cosim, generate_program
    assert cosim(generate_program(42)).ok
"""

from importlib import import_module

#: Submodule -> the public names it defines.  They load on first access
#: (PEP 562), so a process that imports one submodule (every campaign
#: imports ``refmodel``) does not import, or compile, the rest.
_EXPORTS = {
    "coverage": ("REQUIRED_EVENT_BINS", "Coverage"),
    "diff": ("ARTIFACTS_ENV", "DEFAULT_MAX_CYCLES", "CosimResult",
             "FuzzFailure", "FuzzReport", "Mismatch", "cosim",
             "effective_memory", "load_repro", "resolve_artifacts_dir",
             "run_fuzz", "shrink"),
    "faultfuzz": ("FaultFuzzReport", "FaultOutcome", "run_faultfuzz"),
    "mutation": ("Mutant", "MutationReport", "default_mutants",
                 "run_mutation", "write_report"),
    "progen": ("DATA_BASE", "FUZZ_MEM_WORDS", "Block", "FuzzProgram", "Line",
               "adaptive_weights", "generate_program", "program_strategy"),
    "refmodel": ("RefModel", "cause_name"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
