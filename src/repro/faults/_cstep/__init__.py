"""Loader for the compiled fused batch-step kernel.

Two ways the extension can be present:

* **Installed build** — ``pip install -e .`` compiles
  ``_cstepmodule.c`` via setuptools and drops ``_cstep.*.so`` next to
  this file; a plain relative import finds it.
* **In-tree auto-build** — the repo's dev/CI flow is ``PYTHONPATH=src``
  with no install step, so when the import misses we compile the one
  translation unit ourselves with the system C compiler into a
  per-user cache directory keyed by a hash of the source and the
  interpreter version, then load it with ``ExtensionFileLoader``.
  The cc invocation is a single command with no new Python deps, and
  the cache means every later process (including campaign pool
  workers) loads the ``.so`` without recompiling.

Both paths are best-effort: any failure (no compiler, sandboxed
filesystem, exotic platform) leaves :data:`MODULE` as ``None`` and
:data:`BUILD_ERROR` holding the reason, and the campaign drivers fall
back to the scalar injection engine and golden traces to their Python
build (same records, Python speed).
Set ``REPRO_CSTEP_BUILD=0`` to skip the auto-build (used by the CI
fallback leg to prove the pure-Python path).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: fall back to racing
    fcntl = None  # type: ignore[assignment]

#: The loaded extension module, or None when unavailable.
MODULE = None
#: Human-readable reason MODULE is None (shown when the batch engine
#: cannot start).
BUILD_ERROR: str | None = None

_SOURCE = Path(__file__).with_name("_cstepmodule.c")


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_CSTEP_CACHE")
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "repro_cstep"


@contextlib.contextmanager
def _build_lock(built: Path):
    """Serialize the first-use compile across processes and threads.

    Without this, N pool workers (or N shard threads) that import before
    the artifact exists each spawn a full ``cc -O3`` — correct (the
    write-temp/rename publish is atomic) but N× the latency and disk
    churn.  An ``fcntl.flock`` on a sidecar lockfile makes one builder
    compile while the rest block, then find the artifact published and
    skip straight to loading.  On platforms without fcntl we keep the
    old racy-but-correct behaviour.
    """
    if fcntl is None:
        yield
        return
    lockfile = built.with_name(built.name + ".lock")
    fd = os.open(lockfile, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        # Unlock before close is implicit; the lockfile itself is left
        # in place (unlinking it would let a late-arriving process lock
        # a fresh inode and race the builder holding the old one).
        os.close(fd)


def _build() -> object:
    """Compile _cstepmodule.c with the system cc and import the result."""
    source = _SOURCE.read_bytes()
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    tag = hashlib.sha256(
        source + f"|py{sys.version_info[:2]}|{suffix}".encode()
    ).hexdigest()[:20]
    cache = _cache_dir()
    built = cache / f"_cstep_{tag}{suffix}"
    if not built.exists():
        cache.mkdir(parents=True, exist_ok=True)
        with _build_lock(built):
            if not built.exists():  # loser of the lock finds it built
                _compile(built)
    loader = importlib.machinery.ExtensionFileLoader("_cstep", str(built))
    spec = importlib.util.spec_from_file_location(
        "_cstep", str(built), loader=loader)
    mod = importlib.util.module_from_spec(spec)
    loader.exec_module(mod)
    return mod


def _compile(built: Path) -> None:
    """One cc invocation publishing `built` atomically (temp + rename)."""
    cc = os.environ.get("CC", "cc")
    include = sysconfig.get_paths()["include"]
    tmp = built.with_name(f".{built.name}.{os.getpid()}.tmp")
    cmd = [cc, "-O3", "-shared", "-fPIC", f"-I{include}",
           "-o", str(tmp), str(_SOURCE)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{' '.join(cmd)} failed:\n{proc.stderr.strip()}")
        # Atomic publish: a reader never sees a half-written .so.
        os.replace(tmp, built)
    finally:
        if tmp.exists():
            tmp.unlink()


def _load() -> None:
    global MODULE, BUILD_ERROR
    try:
        from . import _cstep as mod  # installed via setup.py build_ext
        MODULE = mod
        return
    except ImportError:
        pass
    if os.environ.get("REPRO_CSTEP_BUILD", "1") == "0":
        BUILD_ERROR = "auto-build disabled by REPRO_CSTEP_BUILD=0"
        return
    try:
        MODULE = _build()
    except Exception as exc:  # noqa: BLE001 - any failure means fallback
        BUILD_ERROR = f"{type(exc).__name__}: {exc}"


_load()
