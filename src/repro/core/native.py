"""The compiled single-pass stream+collide loop and its loader.

The paper's §V ladder ends in one fused, vectorised loop over
precomputed indices.  :class:`~repro.core.plan.KernelPlan` mirrors every
rung of it in numpy; this module adds the last one: ``_lbm.c``, a small
C loop that performs the plan's whole collision (and, given the gather
table, the pull-stream too) in one block-vectorised pass.  It repeats
:meth:`~repro.core.plan.KernelPlan.collide_into` operation for
operation, so both produce the **same bytes**; the numpy plan stays as
the fallback when no compiler works and as the test oracle.

Build and cache
    The library is compiled with the host C compiler (``$CC``, else
    ``sysconfig``'s ``CC``) using ``-O3 -ffp-contract=off -fPIC`` and
    linked ``-shared``; the source itself selects AVX2 / x86-64-v4 /
    baseline clones at load time (``target_clones``), so nothing is
    ``-march=native`` and one cached binary is valid on every host
    sharing the cache.  It is stored as
    ``kernel_cache_dir()/native/<sha256>.so`` (over source, compiler,
    flags and platform), written to a unique temporary file and moved
    into place with ``os.replace``, and loaded with :mod:`ctypes`, which
    releases the GIL during each call.

When it compiles
    A compile costs 1-2 s and a compiler process of ~50-56 MB, more
    than a short run is worth.  One fixed rule decides, outside the
    step: a library already cached is always loaded (:func:`ensure`);
    a process compiles only after it has stepped
    :data:`COMPILE_AFTER_UPDATES` cell updates on the numpy fallback
    (the drivers report them through :func:`note_fallback`).  That
    compile runs on a background thread and the library is swapped in
    when it is ready, so no run waits for it; until then the numpy
    fallback steps on, with the same bytes.  A failed compile (no
    compiler, ``CC=false``) is not retried in the process.  A forked
    child starts over: no build in flight and no fallback updates.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np

from .kernel_cache import kernel_cache_dir

__all__ = [
    "COMPILE_AFTER_UPDATES",
    "Library",
    "build",
    "ensure",
    "library_path",
    "note_fallback",
]

SOURCE = Path(__file__).with_name("_lbm.c")
#: Compile flags; -ffp-contract=off keeps every rounding where numpy's is.
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC")
LDFLAGS = ("-shared",)
#: Cell updates a process steps on the numpy fallback before compiling.
COMPILE_AFTER_UPDATES = 2_000_000

#: Layout of the constants array (the ``P_*`` offsets in ``_lbm.c``).
P_ONE_MINUS, P_INV_CS2, P_HALF_INV2, P_A3 = 0, 1, 2, 3
P_NEG_HALF_INV2, P_CELL_SCALE, P_GAMMA, P_NFORCE, P_FORCE = 4, 5, 6, 7, 8
MAX_DIM = 3
P_C = P_FORCE + 3 * MAX_DIM
#: Largest velocity set the loop's block buffer is sized for.
MAX_Q = 64

#: The loaded library, or None (read by KernelPlan on every pass).
lib: "Library | None" = None
_fallback_updates = 0
_build_failed = False
_digest: str | None = None
_lock = threading.Lock()
#: The background compile :func:`ensure` started, if any.
_builder: threading.Thread | None = None


class Library:
    """The loaded ``_lbm.c`` entry points, one per population dtype."""

    def __init__(self, path: Path) -> None:
        import ctypes

        self.path = path
        dll = ctypes.CDLL(str(path))
        ptr, i64, i32 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int32
        self.collide = {}
        for dtype in (np.float64, np.float32):
            fn = getattr(dll, f"lbm_collide_f{np.dtype(dtype).itemsize * 8}")
            # (src, gather, n, src_i, out, out_i, out_x, q, d, order, p)
            fn.argtypes = (ptr, ptr, i64, i64, ptr, i64, i64, i32, i32, i32, ptr)
            fn.restype = None
            self.collide[np.dtype(dtype)] = fn


def _compiler() -> list[str]:
    return shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")


def library_path() -> Path:
    """Where this source, compiler, flag set and platform's build lives."""
    global _digest
    if _digest is None:
        h = hashlib.sha256(SOURCE.read_bytes())
        for part in (*_compiler(), *CFLAGS, *LDFLAGS, sysconfig.get_platform()):
            h.update(b"\0" + part.encode())
        _digest = h.hexdigest()
    return kernel_cache_dir() / "native" / f"{_digest}.so"


def _load(path: Path) -> "Library | None":
    global lib, _build_failed
    try:
        lib = Library(path)
    except (OSError, AttributeError):  # unloadable or stale file
        _build_failed = True
    return lib


def _compile(path: Path) -> None:
    """Build the library into ``path`` through a unique temporary file.

    Each dtype is its own compiler run (the file built with and without
    ``-DLBM_F32``), which keeps the compiler's peak memory at one
    translation unit's worth.
    """
    cc = _compiler()
    path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=path.parent, prefix=".build-") as tmp:
        objects = []
        for defines, name in (((), "f64.o"), (("-DLBM_F32",), "f32.o")):
            obj = os.path.join(tmp, name)
            subprocess.run(
                [*cc, *CFLAGS, *defines, "-c", str(SOURCE), "-o", obj],
                check=True, capture_output=True, timeout=300,
            )
            objects.append(obj)
        built = os.path.join(tmp, path.name)
        subprocess.run(
            [*cc, *LDFLAGS, *objects, "-o", built],
            check=True, capture_output=True, timeout=300,
        )
        os.replace(built, path)


def build() -> "Library | None":
    """Load the library, compiling it first if it is not cached.

    Returns None (and never retries in this process) when compiling or
    loading fails.  :func:`ensure` is the work-gated entry the drivers
    use; this one compiles unconditionally.
    """
    global _build_failed
    with _lock:
        if lib is not None or _build_failed:
            return lib
        try:
            path = library_path()
            if not path.exists():
                _compile(path)
        except (OSError, subprocess.SubprocessError):
            _build_failed = True
            return None
        return _load(path)


def ensure() -> "Library | None":
    """The library if it is loaded or cached, else None.

    Loads a cached build.  Once this process has stepped
    :data:`COMPILE_AFTER_UPDATES` on the fallback, starts one
    background :func:`build` (non-daemon, so the interpreter waits for
    it rather than leave a half-written build behind) and returns
    without waiting.  Called by the drivers before stepping and by plan
    construction, never from a step.
    """
    global _build_failed, _builder
    if lib is not None or _build_failed or _builder is not None:
        return lib
    try:
        cached = library_path().exists()
    except OSError:  # source not installed, or the cache is unreadable
        _build_failed = True
        return None
    if cached:
        return build()
    if _fallback_updates >= COMPILE_AFTER_UPDATES:
        _builder = threading.Thread(target=build, name="repro-native-build")
        _builder.start()
    return None


def note_fallback(updates: int) -> None:
    """Count ``updates`` cell updates stepped on the numpy fallback."""
    global _fallback_updates
    _fallback_updates += int(updates)


def _after_fork_in_child() -> None:
    # The parent's build thread does not exist in the child (and may
    # have held the lock); the child loads the parent's build from the
    # cache once it lands, or earns its own compile.
    global _builder, _lock, _fallback_updates
    _builder = None
    _lock = threading.Lock()
    _fallback_updates = 0


os.register_at_fork(after_in_child=_after_fork_in_child)
