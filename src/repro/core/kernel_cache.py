"""The per-user directory compiled and calibrated kernel state lives in.

Two things persist there: the perf-model calibrations
(``perf-model/``, :mod:`repro.perf.model`) and the compiled
stream+collide library (``native/``, :mod:`repro.core.native`).  The
lookup lives in core so the native loader never imports
:mod:`repro.perf`.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["KERNEL_CACHE_ENV", "kernel_cache_dir"]

#: Environment variable overriding the cache root.
KERNEL_CACHE_ENV = "REPRO_KERNEL_CACHE_DIR"


def kernel_cache_dir() -> Path:
    """The root of the kernel cache.

    ``$REPRO_KERNEL_CACHE_DIR`` when set, else the conventional
    per-user cache location (``$XDG_CACHE_HOME``/``~/.cache``) under
    ``repro/kernel-auto`` — the directory name calibrations have
    always been persisted in, kept so existing fits stay found.
    """
    override = os.environ.get(KERNEL_CACHE_ENV)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or (Path.home() / ".cache")
    return Path(base) / "repro" / "kernel-auto"
