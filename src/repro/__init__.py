"""repro — reproduction of Randles et al., IPDPS 2013.

*"Performance Analysis of the Lattice Boltzmann Model Beyond
Navier-Stokes"*

Subpackages
-----------
``repro.lattice``
    Discrete velocity models (D3Q15/19/27/39), Gauss-Hermite machinery.
``repro.core``
    The LBM solver: equilibria, BGK/regularized collision, streaming,
    boundary conditions, forcing, units, single-domain driver.
``repro.parallel``
    Simulated-MPI distributed solver with deep-halo ghost cells.
``repro.machine``
    Blue Gene/P & /Q machine models: roofline, torus, memory, caches.
``repro.perf``
    Performance engine: cost model, optimization ladder, event
    simulator, ghost-depth tuner, hybrid-threading model.
``repro.experiments``
    One ``run()`` per paper table/figure + registry.
``repro.scenarios``
    Declarative application workloads: case registry, runner with
    checkpoint/restart, parameter sweeps.

Subpackages and the top-level names below load on first access
(PEP 562), so ``import repro.api`` or ``python -m repro sweep`` pays
only for the modules it uses.
"""

from __future__ import annotations

import importlib
from typing import Any

from ._version import __version__

_SUBPACKAGES = frozenset(
    "analysis api core errors experiments lattice machine parallel perf "
    "scenarios".split()
)

#: Top-level convenience names -> the module that defines them.
_NAMES = {
    "DistributedSimulation": "parallel",
    "get_lattice": "lattice",
    "run_case": "scenarios",
    "run_experiment": "experiments",
    "Simulation": "core",
}

__all__ = [
    "analysis", "api", "core", "DistributedSimulation", "errors", "experiments",
    "get_lattice", "lattice", "machine", "parallel", "perf", "run_case",
    "run_experiment", "scenarios", "Simulation", "__version__",
]


def __getattr__(name: str) -> Any:
    if name in _SUBPACKAGES:
        return importlib.import_module(f".{name}", __name__)
    if name in _NAMES:
        module = importlib.import_module(f".{_NAMES[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
