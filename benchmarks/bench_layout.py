"""Measured data-layout effect (the paper's §V-B DH optimization).

Compares the paper's collision-optimized velocity-major layout
(struct-of-arrays, ``layout="soa"``) against the cell-major alternative
(array-of-structs, ``layout="aos"``) on this host, both stepped by the
planned kernel: its plan remaps the gather table per layout, so the two
runs share one kernel body and produce byte-identical populations
(tested).  The performance difference is what DH is about.
"""

import numpy as np
import pytest

from repro.core import DistributionField, PlannedKernel, equilibrium
from repro.lattice import get_lattice

SHAPE = (32, 32, 32)


def _field(lattice, layout):
    rng = np.random.default_rng(1)
    rho = 1.0 + 0.01 * rng.standard_normal(SHAPE)
    u = 0.01 * rng.standard_normal((3, *SHAPE))
    return DistributionField(lattice, equilibrium(lattice, rho, u), layout).data


@pytest.mark.parametrize("layout", ["soa", "aos"])
@pytest.mark.parametrize("lname", ["D3Q19", "D3Q39"])
def test_layout_step(benchmark, lname, layout):
    lattice = get_lattice(lname)
    kernel = PlannedKernel(lattice, tau=0.8, shape=SHAPE, layout=layout)
    state = {"f": _field(lattice, layout)}
    kernel.step(state["f"])  # warm the arena

    def step():
        state["f"] = kernel.step(state["f"])

    benchmark(step)
    benchmark.extra_info["layout"] = {
        "soa": "velocity-major (paper's choice)",
        "aos": "cell-major (AoS alternative)",
    }[layout]
    assert np.isfinite(state["f"]).all()
