"""Fresh-interpreter, roofline and allocation probes.

Startup is measured in child interpreters (the benchmark process has
already paid it).  Each child gets the same environment as every other
process the benchmark starts: see :class:`Env`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from .metrics import median

#: How many fresh interpreters each startup figure is the median of.
STARTS = 7

_IMPORT_PROBE = r"""
import json, sys, time
before = set(sys.modules)
t0 = time.perf_counter()
import repro.api as api
t1 = time.perf_counter()
new = set(sys.modules) - before
third = [m for m in new if m.partition(".")[0] not in sys.stdlib_module_names
         and m.partition(".")[0] not in ("repro", "numpy")]
t2 = time.perf_counter()
api.run_case("taylor-green", steps=1)
t3 = time.perf_counter()
api.run_case("taylor-green", steps=1, overrides={"tau": 0.71})
t4 = time.perf_counter()
print(json.dumps({
    "import_s": t1 - t0,
    "modules": sum(1 for m in new if m == "repro" or m.startswith("repro.")),
    "third_party_modules": len(third),
    "first_call_s": (t3 - t2) - (t4 - t3),
}))
"""

_NUMPY_PROBE = r"""
import time
t0 = time.perf_counter()
import numpy
print(time.perf_counter() - t0)
"""


@dataclasses.dataclass(frozen=True)
class Env:
    """Where the program lives and what its processes see.

    ``work`` is the run's scratch directory inside the checkout; the
    kernel-verdict and perf-model cache is pointed into it so no run
    reads or writes outside the checkout, and each run starts without a
    calibration (the same state on every commit).
    """

    root: Path
    work: Path

    @property
    def src(self) -> Path:
        return self.root / "src"

    def child(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env["REPRO_KERNEL_CACHE_DIR"] = str(self.work / "kernel-cache")
        env["PYTHONUNBUFFERED"] = "1"
        return env

    def python(self, *args: str, **kwargs) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            env=self.child(),
            cwd=self.work,
            capture_output=True,
            text=True,
            timeout=120,
            **kwargs,
        )


def time_fresh_import(env: Env) -> float:
    """Seconds from spawning an interpreter until ``import repro.api``
    has finished in it (the child reports readiness on stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import repro.api; print('ready')"],
        env=env.child(),
        cwd=env.work,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"`import repro.api` failed in a fresh interpreter:\n{err}")
    return elapsed


def setup_samples(env: Env, starts: int = STARTS) -> list[float]:
    return [time_fresh_import(env) for _ in range(starts)]


def startup_layers(env: Env, starts: int = 3) -> dict[str, float]:
    """``repro.*`` startup metrics and ``scenarios.runner.first_call_s``.

    Module counts must repeat exactly across the fresh interpreters; a
    difference means the import graph is not deterministic and is an
    error.
    """
    runs = []
    for _ in range(starts):
        proc = env.python("-c", _IMPORT_PROBE)
        if proc.returncode != 0:
            raise RuntimeError(f"startup probe failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    numpy_s = []
    for _ in range(starts):
        proc = env.python("-c", _NUMPY_PROBE)
        if proc.returncode != 0:
            raise RuntimeError(f"numpy import probe failed:\n{proc.stderr}")
        numpy_s.append(float(proc.stdout.strip()))
    for key in ("modules", "third_party_modules"):
        if len({run[key] for run in runs}) != 1:
            raise RuntimeError(f"repro.{key} differs between fresh interpreters: {runs}")
    return {
        "repro.import_s": median([r["import_s"] for r in runs]),
        "repro.numpy_import_s": median(numpy_s),
        "repro.modules": runs[0]["modules"],
        "repro.third_party_modules": runs[0]["third_party_modules"],
        "scenarios.runner.first_call_s": median([r["first_call_s"] for r in runs]),
    }


def copy_bandwidth(nbytes: int, repeats: int = 30) -> float:
    """numpy copy bandwidth in GB/s on arrays of ``nbytes`` (bytes read
    plus bytes written, per second; median of ``repeats`` copies)."""
    src = np.ones(max(nbytes // 8, 1))
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    return 2 * src.nbytes / median(times) / 1e9


def step_alloc_kb(sim) -> float:
    """tracemalloc peak (KB) during one warm ``sim.step()``."""
    sim.step()
    tracemalloc.start()
    try:
        sim.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024.0
