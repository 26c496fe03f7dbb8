"""Body-force coupling (Guo et al. 2002 forcing for BGK).

A constant body force drives the Poiseuille/channel example flows (the
paper's own benchmarks are periodic and unforced; forcing supports the
application examples).  The scheme adds a source term after collision::

    S_i = w_i (1 - omega/2) [ (c_i - u)/cs2 + (c_i . u) c_i / cs2^2 ] . F

and shifts the velocity used in the equilibrium and in output by
``F/(2 rho)``, which removes the discrete lattice artifacts of naive
forcing and is second-order accurate.

Two implementations share these constants: the planned engine folds the
update into its zero-allocation arena (:class:`~repro.core.plan.KernelPlan`,
dense and sparse), and :meth:`GuoForcing.source_term` is the generic
allocating form the oracle kernels (``roll``, ``naive``) collide
with.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import LatticeError
from ..lattice import VelocitySet
from .moments import density, momentum

__all__ = ["GuoForcing"]


@dataclasses.dataclass
class GuoForcing:
    """Constant body force ``F`` (per unit volume) with Guo coupling.

    Parameters
    ----------
    lattice:
        Velocity set.
    force:
        Force vector, length ``D`` (lattice units).
    """

    lattice: VelocitySet
    force: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.force) != self.lattice.dim:
            raise LatticeError(
                f"force must have {self.lattice.dim} components, got {len(self.force)}"
            )
        self._f_vec = np.asarray(self.force, dtype=np.float64)

    def velocity_shift(self, rho: np.ndarray) -> np.ndarray:
        """Half-force velocity correction ``F / (2 rho)``; shape (D, *S)."""
        shift = self._f_vec.reshape((self.lattice.dim,) + (1,) * rho.ndim)
        return shift / (2.0 * rho[None])

    def collide(self, collision, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Generic Guo-forced BGK collision of ``f`` into ``out``.

        Corrects the velocity by ``F/(2 rho)`` before building feq,
        relaxes (the fusion shared with :meth:`BGKCollision.apply`), then
        adds :meth:`source_term`.  Allocating; the oracle kernels and
        the legacy pair collide through it, the planned engine does not.
        """
        rho = density(f)
        u = momentum(self.lattice, f) / rho[None]
        u += self.velocity_shift(rho)
        feq = collision.equilibrium(rho, u)
        collision.relax_into(f, feq, out)
        out += self.source_term(u, collision.omega)
        return out

    def source_coefficients(self, omega: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-velocity constants of the source, float64, shape ``(Q,)``.

        ``k_i = (1 - omega/2) w_i / cs2`` and ``cF_i = c_i . F``, so that
        ``S_i = k_i (cF_i - u.F + cF_i (c_i . u) / cs2)`` — the same
        source as :meth:`source_term`, factored into the constants the
        planned engine casts once and replays row by row
        (:class:`~repro.core.plan.KernelPlan`).
        """
        lat = self.lattice
        k = (1.0 - 0.5 * omega) * lat.weights / lat.cs2_float
        cF = lat.velocities_as(np.float64) @ self._f_vec
        return k, cF

    def source_term(self, u: np.ndarray, omega: float) -> np.ndarray:
        """Guo source ``S_i`` given the corrected velocity ``u``.

        Returns an array of shape ``(Q, *S)`` to be added to the
        post-collision populations.
        """
        lat = self.lattice
        cs2 = lat.cs2_float
        c = lat.velocities_as(np.float64)  # (Q, D)
        w = lat.weights
        spatial_ndim = u.ndim - 1

        cu = np.tensordot(c, u, axes=([1], [0]))  # (Q, *S)
        cF = np.tensordot(c, self._f_vec, axes=([1], [0]))  # (Q,)
        uF = np.tensordot(self._f_vec, u, axes=([0], [0]))  # (*S,)

        expand_q = (slice(None),) + (None,) * spatial_ndim
        term = (cF[expand_q] - uF[None]) / cs2 + cu * cF[expand_q] / (cs2 * cs2)
        return (1.0 - 0.5 * omega) * w[expand_q] * term
