"""The physical-validity guard of the stability check.

At each stability check the dense and sparse drivers raise
:class:`StabilityError` for non-finite populations, for a speed at or
above the sound speed, and for a total-mass drift beyond the per-dtype
:data:`~repro.core.simulation.MASS_DRIFT_RTOL`.
"""

import numpy as np
import pytest

from repro.core.simulation import MASS_DRIFT_RTOL, Simulation, check_physical
from repro.core.sparse import SparseSimulation
from repro.errors import StabilityError

SHAPE = (6, 5, 4)


def _dense(lattice, dtype, u0):
    sim = Simulation(lattice, SHAPE, tau=0.8, dtype=dtype)
    u = np.zeros((3, *SHAPE))
    u[0] = u0  # a uniform flow is a fixed point: its speed persists
    sim.initialize(1.0, u)
    return sim


def _sparse(lattice, dtype, u0):
    mask = np.zeros(SHAPE, dtype=bool)
    mask[:, 0, :] = True
    sim = SparseSimulation(lattice, mask, tau=0.8, dtype=dtype)
    u = np.zeros((3, *SHAPE))
    u[0] = u0
    sim.initialize(1.0, u)
    return sim


DRIVERS = {"dense": _dense, "sparse": _sparse}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("dtype", ["float64", "float32"])
class TestGuard:
    def test_physical_run_passes(self, q19, driver, dtype):
        sim = DRIVERS[driver](q19, dtype, 0.05)
        sim.run(20, check_stability_every=5)
        assert sim.time_step == 20

    def test_supersonic_state_raises(self, q19, driver, dtype):
        sim = DRIVERS[driver](q19, dtype, 1.5 * np.sqrt(q19.cs2_float))
        with pytest.raises(StabilityError, match="sound speed"):
            sim.run(5, check_stability_every=5)

    def test_mass_drift_raises(self, q19, driver, dtype):
        sim = DRIVERS[driver](q19, dtype, 0.01)
        sim.run(5, check_stability_every=5)  # takes the mass reference
        f = sim.populations()
        f *= 1 + 10 * MASS_DRIFT_RTOL[f.dtype]
        with pytest.raises(StabilityError, match="total mass drifted"):
            sim.run(5, check_stability_every=5)

    def test_unchecked_run_never_raises(self, q19, driver, dtype):
        sim = DRIVERS[driver](q19, dtype, 1.5 * np.sqrt(q19.cs2_float))
        sim.run(3)


def test_non_finite_populations_raise(q19):
    f = np.full((q19.q, 8), 1.0 / q19.q)
    f[3, 2] = np.nan
    with pytest.raises(StabilityError, match="non-finite"):
        with np.errstate(invalid="ignore"):
            check_physical(q19, f, 8.0, "in a test")


def test_tolerances_are_per_dtype():
    assert set(MASS_DRIFT_RTOL) == {np.dtype(np.float64), np.dtype(np.float32)}
    assert MASS_DRIFT_RTOL[np.dtype(np.float32)] > MASS_DRIFT_RTOL[np.dtype(np.float64)]
