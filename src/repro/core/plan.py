"""Planned, zero-allocation stream+collide kernel and kernel selection.

The endpoint of the paper's §V single-node optimization ladder is a
kernel in which *everything that can be computed once is computed once*:
index arithmetic is precomputed (LoBr), loops are fused, and the hot
loop touches only preallocated memory.  :class:`KernelPlan` is the
Python analogue — at construction it builds

* the flat gather table for pull-streaming (one ``np.take`` per step,
  indices computed once per shape),
* dtype-cast velocity/weight tables (cached per lattice, see
  :meth:`~repro.lattice.VelocitySet.velocities_as`),
* a scratch arena of per-cell rows (``rho``, ``u``, ``cell``, ``cu``,
  ``term``, ``tmp``; ``a1`` at third order, ``uF`` under forcing; plus
  ``adv`` for the fused step) sized for the grid,

so :meth:`PlannedKernel.step` performs the full stream + moments +
equilibrium + relax update exclusively through ``out=`` ufunc calls:
zero per-step heap allocations (tracemalloc-asserted in the tests).
Bounce-back walls can be folded into the gather table and Guo forcing
into the collision, which makes the plan the driver's one stepping
engine for forced, walled flows as well.

With the compiled loop of :mod:`repro.core.native` loaded, the plan
runs each collision (and, in :meth:`KernelPlan.step_to`, the gather
too) as one pass of that loop instead of the ufunc sequence.  The loop
repeats :meth:`KernelPlan.collide_into` operation for operation, so
both produce the same bytes; the numpy passes stay as the fallback and
the oracle.

The plan also carries the **dtype policy**: built for float32, the
whole update runs in single precision, halving the paper's
bytes-per-cell figure B(Q) — the knob its roofline model (Table II)
says roughly doubles bandwidth-bound throughput.

:func:`make_kernel` is the registry every layer above selects kernels
through (``Simulation(kernel=...)``, ``CaseSpec.kernel``, the CLI
``--kernel`` flag).  The planned engine is the default and the one
stepping engine; ``naive`` and ``roll`` stay registered as the oracles
it is tested against.  ``"auto"`` is an accepted spelling of the
engine (:func:`resolve_kernel_name`): nothing is timed to resolve it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import LatticeError
from ..lattice import VelocitySet
from .boundary import BounceBackWalls
from .equilibrium import equilibrium_order_for
from .fields import LAYOUT_AOS, LAYOUT_SOA, resolve_dtype, resolve_layout
from .forcing import GuoForcing
from .kernels import LBMKernel, NaiveKernel, RollKernel
from .streaming import pull_gather_rows

__all__ = [
    "AUTO_KERNEL",
    "DEFAULT_KERNEL",
    "KernelPlan",
    "PlannedKernel",
    "available_kernels",
    "build_aos_gather_table",
    "build_gather_table",
    "build_slab_gather_table",
    "make_kernel",
    "resolve_kernel_name",
]


def build_gather_table(lattice: VelocitySet, shape: Sequence[int]) -> np.ndarray:
    """Flat pull indices over the flattened ``(Q * N,)`` populations.

    ``table[i * N + flat(x)] = i * N + flat(x - c_i)`` (periodic), so one
    ``np.take(f.reshape(-1), table, out=...)`` advects every population —
    the paper's "minimize index calculation" transformation taken to its
    limit: a single gather with no per-step index arithmetic at all.
    The index math itself is :func:`~repro.core.streaming.pull_gather_rows`;
    this adds the per-velocity row offsets and flattens.
    """
    shape = tuple(int(s) for s in shape)
    rows = pull_gather_rows(lattice, shape)  # (Q, N)
    n = rows.shape[1]
    for i in range(lattice.q):  # in place: no table-sized temporaries
        rows[i] += i * n
    # Deliberately left writable: np.take(mode="clip") copies read-only
    # index arrays into a fresh buffer on every call, which would turn
    # each step into a hidden field-sized allocation.
    return rows.reshape(-1)


def build_aos_gather_table(lattice: VelocitySet, shape: Sequence[int]) -> np.ndarray:
    """Flat pull indices from an **array-of-structs** source buffer.

    AoS stores the populations of one cell contiguously — the flat index
    of ``(cell x, velocity i)`` is ``flat(x) * Q + i`` instead of SoA's
    ``i * N + flat(x)``.  ``table[i * N + flat(x)] = flat(x - c_i) * Q + i``,
    so one ``np.take`` through it streams out of AoS storage *and*
    transposes into the plan's struct-of-arrays scratch in the same
    gather — the "plan-time index-table remapping" that lets both
    layouts share one kernel body (paper §IV's layout study).
    """
    shape = tuple(int(s) for s in shape)
    rows = pull_gather_rows(lattice, shape)  # (Q, N) spatial source index
    rows *= lattice.q
    for i in range(lattice.q):
        rows[i] += i
    return rows.reshape(-1)


def build_slab_gather_table(
    lattice: VelocitySet, padded_shape: Sequence[int], window: slice
) -> np.ndarray:
    """Flat pull indices from a halo-padded slab into an x-window of it.

    ``table[i * Nw + flat_w(x)] = i * Npad + flat_pad(x - c_i)``, where
    destinations range over the compute ``window`` (an x-slice of the
    padded array) and sources live in the *full* padded array: periodic
    along y/z, **non-wrapping** along x — the 1-D slab decomposition
    axis, where wrap-around data arrives by halo exchange instead.  One
    ``np.take`` through this table therefore streams *and* extracts the
    valid window in a single gather, the halo-padded counterpart of
    :func:`build_gather_table`.

    Every source must lie inside the padded array; that holds exactly
    when the window leaves ``k = max_displacement`` planes of padding on
    each side (the deep-halo validity invariant), and is verified here
    so a mis-sized window fails at plan build, not as silent clipping.
    """
    padded_shape = tuple(int(s) for s in padded_shape)
    px = padded_shape[0]
    start, stop, _ = window.indices(px)
    if stop <= start:
        raise LatticeError(f"empty compute window {window} in {padded_shape}")
    coords = np.indices((stop - start, *padded_shape[1:]))
    n_pad = int(np.prod(padded_shape))
    rows = []
    for i, c in enumerate(lattice.velocities):
        sx = coords[0] + start - int(c[0])  # non-wrapping decomposed axis
        if sx.min() < 0 or sx.max() >= px:
            raise LatticeError(
                f"window {start}:{stop} needs sources outside the padded "
                f"array (x extent {px}); widen the padding by "
                f"{lattice.max_displacement} planes per side"
            )
        flat = sx
        for axis in range(1, len(padded_shape)):
            src = (coords[axis] - int(c[axis])) % padded_shape[axis]
            flat = flat * padded_shape[axis] + src
        rows.append((flat + i * n_pad).ravel())
    return np.ascontiguousarray(np.concatenate(rows))


class KernelPlan:
    """Precomputed state for one ``(lattice, shape, order, dtype)`` hot loop.

    Everything :meth:`PlannedKernel.step` needs that does not change
    between steps: the gather table, the cast constant tables, and the
    scratch arena.  Plans are cheap to hold and safe to share between
    steps; they must not be shared between concurrently stepping kernels
    (the arena is mutable state).

    ``shape`` is the plan's *compute* extent.  By default it is also the
    streaming source extent (periodic single domain); a plan built via
    :meth:`for_window` instead computes a movable x-window of a larger
    halo-padded array, gathering its sources from the padded array —
    the extension :class:`~repro.parallel.plan.PlannedSlabKernel` rides.
    ``source_shape`` (default ``shape``) is the spatial shape of the
    array an explicit ``gather`` table pulls from.
    """

    def __init__(
        self,
        lattice: VelocitySet,
        shape: Sequence[int],
        order: int | None = None,
        dtype: "np.dtype | str | None" = None,
        gather: np.ndarray | None = None,
        layout: str | None = None,
        walls: "Sequence[BounceBackWalls]" = (),
        forcing: "GuoForcing | None" = None,
        source_shape: Sequence[int] | None = None,
    ) -> None:
        self.lattice = lattice
        self.shape = tuple(int(s) for s in shape)
        # An explicit gather table may address any source topology (a
        # sparse fluid-site list is a 1-D "shape"); only default periodic
        # tables require the full lattice dimensionality.
        if any(s <= 0 for s in self.shape) or (
            gather is None and len(self.shape) != lattice.dim
        ):
            raise LatticeError(f"bad spatial shape {self.shape} for {lattice.name}")
        self.order = equilibrium_order_for(lattice, order)
        self.dtype = resolve_dtype(dtype)
        self.layout = resolve_layout(layout)
        q = lattice.q
        n = int(np.prod(self.shape))
        self.num_cells = n
        #: x-slice of the source array this plan computes (None = whole).
        self.window: slice | None = None
        #: Spatial shape of the streaming *source* array (== shape for
        #: periodic plans; the padded shape for window plans).
        self.source_shape: tuple[int, ...] = (
            self.shape if source_shape is None else tuple(int(s) for s in source_shape)
        )
        if gather is None:
            builder = (
                build_aos_gather_table
                if self.layout == LAYOUT_AOS
                else build_gather_table
            )
            gather = builder(lattice, self.shape)
            for wall in walls:
                if wall.solid_mask.shape != self.shape:
                    raise LatticeError(
                        f"solid mask shape {wall.solid_mask.shape} != grid "
                        f"{self.shape}"
                    )
                wall.fold_into(gather)
        elif walls:
            raise LatticeError(
                "walls fold only into the plan's own periodic gather table"
            )
        self.gather = gather
        # AoS exit path: the collision writes a contiguous (Q, N) scratch
        # and one take through this transpose permutation scatters it
        # back into cell-major order.  Writing the strided AoS view
        # directly would be exact too, but numpy routes badly-strided
        # ufunc outputs through its buffered iterator — a per-call heap
        # allocation the planned discipline forbids.
        if self.layout == LAYOUT_AOS:
            self._aos_out = np.empty((q, n), dtype=self.dtype)
            self._aos_out_flat = self._aos_out.reshape(-1)
            self._soa_index = np.ascontiguousarray(
                np.arange(q * n, dtype=np.int64).reshape(q, n).T.reshape(-1)
            )
        else:
            self._aos_out = None
            self._aos_out_flat = None
            self._soa_index = None
        # Constant tables, cast once (velocities_as caches per lattice).
        self.c = lattice.velocities_as(self.dtype)  # (Q, D)
        self.w = lattice.weights_as(self.dtype)  # (Q,)
        # Scratch arena: the only memory the per-step update ever writes
        # besides the caller's field itself.  The post-streaming buffer
        # `adv` serves only the fused step_into path (the split
        # stream/collide path streams into the caller's own buffer), so
        # it is allocated lazily on the first fused step.  Everything
        # else is one row per cell: the collision walks the velocities
        # row by row, so no (Q, N) temporary exists at all.
        self._adv: np.ndarray | None = None
        self._adv_flat: np.ndarray | None = None
        self.rho = np.empty(n, dtype=self.dtype)  # density
        self.u = np.empty((lattice.dim, n), dtype=self.dtype)  # velocity
        self.cell = np.empty(n, dtype=self.dtype)  # u^2, then a0
        self.a1 = (  # third-order coefficient
            np.empty(n, dtype=self.dtype) if self.order >= 3 else None
        )
        self.cu = np.empty(n, dtype=self.dtype)  # c_i . u, one velocity
        self.term = np.empty(n, dtype=self.dtype)  # feq_i, one velocity
        self.tmp = np.empty(n, dtype=self.dtype)  # per-cell scratch
        self._u_rows = tuple(self.u[a] for a in range(lattice.dim))
        # Per velocity, (u row, component) pairs over the non-zero
        # components of c_i: the moment sum adds f_i into those rows,
        # and c_i . u is one or two same-shape ufunc calls over them (or
        # none: a lone +1 component reads its u row directly).
        self._c_terms = tuple(
            tuple(
                (self._u_rows[a], float(c[a]))
                for a in range(lattice.dim)
                if c[a] != 0
            )
            for c in lattice.velocities
        )
        # Guo forcing: one extra per-cell row for u.F, plus per-axis force
        # scalars cast once.
        self.forcing = forcing
        self.uF: np.ndarray | None = None
        if forcing is not None:
            if forcing.lattice.dim != lattice.dim:
                raise LatticeError("forcing lattice does not match the plan's")
            force = np.asarray(forcing.force, dtype=np.float64)
            self.uF = np.empty(n, dtype=self.dtype)
            # Zero components add nothing; skipping them skips their passes.
            self._force_axes = tuple(
                (a, self._u_rows[a], _as_scalar(force[a], self.dtype),
                 _as_scalar(0.5 * force[a], self.dtype))
                for a in range(lattice.dim)
                if force[a] != 0.0
            )
        # omega-dependent per-velocity constants (see _constants).
        self._omega: float | None = None
        self._consts: tuple = ()
        # The compiled loop (repro.core.native) runs every pass once its
        # library is loaded; a cached build is loaded here, at plan time.
        native = _load_native()
        self._fits_native = q <= native.MAX_Q and lattice.dim <= native.MAX_DIM
        self._params: np.ndarray | None = None
        self._gather_ptr = self._checked_gather()
        native.ensure()

    @classmethod
    def for_window(
        cls,
        lattice: VelocitySet,
        padded_shape: Sequence[int],
        window: slice,
        order: int | None = None,
        dtype: "np.dtype | str | None" = None,
    ) -> "KernelPlan":
        """A plan computing one x-window of a halo-padded slab array.

        ``stream_into`` then expects the *padded* array as its source
        and the plan's window-sized buffer as its destination; the
        collision arena is sized for the window.  Used per validity
        level by :class:`~repro.parallel.plan.PlannedSlabKernel` (each
        deep-halo sub-step computes a different, shrinking window).
        """
        padded_shape = tuple(int(s) for s in padded_shape)
        start, stop, _ = window.indices(padded_shape[0])
        shape = (stop - start, *padded_shape[1:])
        plan = cls(
            lattice,
            shape,
            order=order,
            dtype=dtype,
            gather=build_slab_gather_table(lattice, padded_shape, window),
            source_shape=padded_shape,
        )
        plan.window = slice(start, stop)
        return plan

    @property
    def nbytes(self) -> int:
        """Bytes held by the arena + gather table (diagnostics)."""
        arrays = (
            self.gather,
            self.rho,
            self.u,
            self.cell,
            self.cu,
            self.term,
            self.tmp,
        )
        extra = sum(
            a.nbytes for a in (self._adv, self.a1, self.uF) if a is not None
        )
        if self._aos_out is not None:
            extra += self._aos_out.nbytes + self._soa_index.nbytes
        return int(sum(a.nbytes for a in arrays)) + extra

    def _fused_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """The (adv, adv_flat) pair for the fused path, allocated once."""
        if self._adv is None:
            self._adv = np.empty(
                (self.lattice.q, self.num_cells), dtype=self.dtype
            )
            self._adv_flat = self._adv.reshape(-1)
        return self._adv, self._adv_flat

    # -- the planned update --------------------------------------------

    def _flat_source(self, f: np.ndarray) -> np.ndarray:
        """``f`` as the flat buffer the gather table indexes.

        SoA plans index the array's own C order.  AoS plans index the
        cell-major physical buffer — ``f`` arrives as the logical
        ``(Q, *shape)`` transposed view over it, and ``moveaxis`` back
        recovers the contiguous buffer without copying.
        """
        if self.layout == LAYOUT_AOS:
            return np.moveaxis(f, 0, -1).reshape(-1)
        return f.reshape(-1)

    def collide_native(self, src: np.ndarray, out: np.ndarray, omega: float) -> None:
        """Collide SoA ``src`` into the layout-native logical array ``out``.

        SoA writes straight through :meth:`collide_into`.  AoS collides
        into the plan's contiguous scratch and scatters it back through
        the transpose permutation in one ``np.take`` — an exact
        permutation (bytes unchanged), so both layouts produce identical
        populations per dtype; the extra pass is the layout's genuine,
        measurable scatter cost.

        With the compiled loop loaded, one pass writes either layout
        directly (same bytes).
        """
        lib = self._library()
        if lib is not None:
            self._compiled(lib, src, False, out, *self._out_strides(), omega)
        elif self.layout == LAYOUT_AOS:
            self.collide_into(src, self._aos_out, omega)
            np.take(
                self._aos_out_flat,
                self._soa_index,
                out=np.moveaxis(out, 0, -1).reshape(-1),
                mode="clip",
            )
        else:
            self.collide_into(src, out.reshape(self.lattice.q, -1), omega)

    def stream_into(self, f: np.ndarray, out: np.ndarray) -> None:
        """Advect ``f`` into ``out`` via the precomputed gather table.

        ``mode="clip"`` writes straight into ``out``; the default
        ``mode="raise"`` routes through a full-size bounce buffer (a
        hidden field-sized allocation per step).  The table's indices
        are in-bounds by construction, so clipping never fires.  ``out``
        is always struct-of-arrays (the scratch side), whatever the
        plan's source layout.
        """
        np.take(self._flat_source(f), self.gather, out=out.reshape(-1), mode="clip")

    def collide_into(self, src: np.ndarray, out_flat: np.ndarray, omega: float) -> None:
        """Relax post-streaming populations ``src`` (shape ``(Q, N)``)
        into ``out_flat`` using only ``out=`` ufunc calls on the arena.

        ``src`` may be the arena's own ``adv`` (the fused path) or any
        ``(Q, N)`` view of a caller-owned buffer (the split path the
        simulation driver uses so boundary conditions can run between
        streaming and collision); ``out_flat`` may be ``src`` itself.
        The result is ``(1 - omega) src + omega feq(src)``.

        After the moments, the update walks the velocities one row at a
        time (loop fusion in the paper's sense): ``c_i . u``, the
        Hermite series, feq and the relaxation of row ``i`` all run on
        per-cell rows that stay in cache, instead of streaming several
        (Q, N) temporaries through memory.

        With Guo forcing the velocity is ``u = (c^T f + F/2) / rho`` and
        the source ``S_i = k_i (cF_i - u.F + cF_i cu_i / cs2)``, with
        ``k_i = (1 - omega/2) w_i / cs2``, is added to each row.
        """
        rho, u, cell, a1 = self.rho, self.u, self.cell, self.a1
        cu, term, tmp = self.cu, self.term, self.tmp
        inv_cs2 = 1.0 / self.lattice.cs2_float
        half_inv2 = 0.5 * inv_cs2 * inv_cs2
        order = self.order
        forced = self.forcing is not None
        gamma, consts = self._constants(omega)

        # moments: rho = sum_i f_i ; u = (sum_i c_i f_i [+ F/2]) / rho,
        # both summed velocity by velocity in order (numpy's axis-0 sum
        # is sequential), exactly as the compiled loop sums them; a BLAS
        # dot for u would round differently.
        src.sum(axis=0, out=rho)
        u.fill(0.0)
        for f_i, terms in zip(src, self._c_terms):
            for u_row, c in terms:
                if c == 1.0:
                    u_row += f_i
                elif c == -1.0:
                    u_row -= f_i
                else:
                    np.multiply(f_i, c, out=tmp)
                    u_row += tmp
        if forced:
            for _, u_row, _, half in self._force_axes:
                u_row += half
        for u_row in self._u_rows:  # u /= rho without broadcast buffering
            u_row /= rho
        if forced:
            # gamma u.F, the part of -k_i u.F that rides the feq weight
            uF = self.uF
            uF.fill(0.0)
            for _, u_row, force, _ in self._force_axes:
                np.multiply(u_row, force, out=tmp)
                uF += tmp
            uF *= gamma
        # Per-cell coefficients of the Hermite series (paper Eqs. 2/3)
        # in Horner form over cu: T = a0 + a1 cu + a2 cu^2 + a3 cu^3 with
        # a0 = 1 - u^2/(2 cs2), a1 = 1/cs2 - u^2/(2 cs2^2) (third order),
        # a2 = 1/(2 cs2^2), a3 = 1/(6 cs2^3); first order is 1 + cu/cs2.
        if order >= 2:
            cell.fill(0.0)
            for u_row in self._u_rows:
                np.multiply(u_row, u_row, out=tmp)
                cell += tmp
            if order >= 3:
                np.multiply(cell, -half_inv2, out=a1)
                a1 += inv_cs2
            cell *= -0.5 * inv_cs2
            cell += 1.0

        one_minus = 1.0 - omega
        for i, (cu_terms, omega_w, s_cu, s_0) in enumerate(consts):
            # cu = c_i . u (None for the rest velocity)
            if cu_terms is None:
                cu_i = None
            elif not cu_terms[1] and cu_terms[0][1] == 1.0:
                cu_i = cu_terms[0][0]  # read-only below
            else:
                cu_i = cu
                (u_row, c), rest = cu_terms
                np.multiply(u_row, c, out=cu)
                for u_row, c in rest:
                    if c == 1.0:
                        cu += u_row
                    elif c == -1.0:
                        cu -= u_row
                    else:
                        np.multiply(u_row, c, out=tmp)
                        cu += tmp
            # term = T_i rho (Horner)
            if cu_i is None:
                if order >= 2:
                    np.multiply(cell, rho, out=term)
                else:
                    np.copyto(term, rho)
            else:
                if order == 1:
                    np.multiply(cu_i, inv_cs2, out=term)
                    term += 1.0
                else:
                    if order >= 3:
                        np.multiply(cu_i, inv_cs2 * half_inv2 / 3.0, out=term)
                        term += half_inv2
                        term *= cu_i
                        term += a1
                    else:
                        np.multiply(cu_i, half_inv2, out=term)
                        term += inv_cs2
                    term *= cu_i
                    term += cell
                term *= rho
            # omega feq_i, plus the Guo source:
            # omega w_i (rho T_i - gamma u.F) + s_0 + s_cu cu_i
            if forced:
                term -= uF
            term *= omega_w
            if s_0:
                np.multiply(cu_i, s_cu, out=tmp)
                tmp += s_0
                term += tmp
            # out_i = (1 - omega) src_i + term (src_i read before written)
            out_row = out_flat[i]
            np.multiply(src[i], one_minus, out=out_row)
            out_row += term

    def _constants(self, omega: float) -> tuple:
        """Per-velocity constants for ``omega``, cast once to the dtype.

        ``(gamma, rows)``: ``gamma = (1 - omega/2) / (omega cs2)`` and,
        per velocity, ``(cu terms, omega w_i, s_cu, s_0)`` with the Guo
        source coefficients ``s_cu = k_i cF_i / cs2`` and
        ``s_0 = k_i cF_i`` (both zero without forcing or where
        ``c_i . F = 0``).  Rebuilt only when ``omega`` changes, together
        with the same constants packed for the compiled loop.
        """
        if omega != self._omega:
            q = self.lattice.q
            cs2 = self.lattice.cs2_float
            if self.forcing is None:
                k, cF = np.zeros(q), np.zeros(q)
            else:
                k, cF = self.forcing.source_coefficients(omega)
            rows = tuple(
                (
                    (terms[0], terms[1:]) if terms else None,
                    _as_scalar(omega * self.lattice.weights[i], self.dtype),
                    _as_scalar(k[i] * cF[i] / cs2, self.dtype),
                    _as_scalar(k[i] * cF[i], self.dtype),
                )
                for i, terms in enumerate(self._c_terms)
            )
            gamma = _as_scalar((1.0 - 0.5 * omega) / (omega * cs2), self.dtype)
            self._consts = (gamma, rows)
            self._params = self._pack_params(omega, gamma, rows)
            self._omega = omega
        return self._consts

    def _pack_params(self, omega: float, gamma: float, rows: tuple) -> np.ndarray:
        """The constants of :meth:`collide_into` as the compiled loop's
        ``p`` array (layout: the ``P_*`` offsets of ``repro.core.native``),
        each the same Python float the numpy plan multiplies by."""
        nat = _native
        q, d = self.lattice.q, self.lattice.dim
        inv_cs2 = 1.0 / self.lattice.cs2_float
        half_inv2 = 0.5 * inv_cs2 * inv_cs2
        p = np.zeros(nat.P_C + q * d + 3 * q)
        p[nat.P_ONE_MINUS] = 1.0 - omega
        p[nat.P_INV_CS2] = inv_cs2
        p[nat.P_HALF_INV2] = half_inv2
        p[nat.P_A3] = inv_cs2 * half_inv2 / 3.0
        p[nat.P_NEG_HALF_INV2] = -half_inv2
        p[nat.P_CELL_SCALE] = -0.5 * inv_cs2
        p[nat.P_GAMMA] = gamma
        if self.forcing is not None:
            p[nat.P_NFORCE] = len(self._force_axes)
            for j, (a, _, force, half) in enumerate(self._force_axes):
                p[nat.P_FORCE + 3 * j : nat.P_FORCE + 3 * j + 3] = (a, force, half)
        p[nat.P_C : nat.P_C + q * d] = self.lattice.velocities.ravel()
        p[nat.P_C + q * d :] = [value for row in rows for value in row[1:]]
        return p

    # -- the compiled loop (repro.core.native) -------------------------

    def _library(self):
        """The loaded compiled loop, when its buffers fit this lattice."""
        return _native.lib if self._fits_native else None

    def _checked_gather(self) -> int | None:
        """The gather table's address for the fused pass, or None when
        the compiled loop may not read through it.

        The loop reads ``src[gather[j]]`` unchecked (``np.take`` clips),
        so the table must be C-contiguous int64 with Q*N entries, each in
        ``[0, Q * prod(source_shape))``.  Checked once, at plan build;
        a table that fails keeps the plan off the fused pass.
        """
        g = self.gather
        q = self.lattice.q
        if not (
            isinstance(g, np.ndarray)
            and g.dtype == np.int64
            and g.flags.c_contiguous
            and g.size == q * self.num_cells
            and g.min() >= 0
            and g.max() < q * math.prod(self.source_shape)
        ):
            return None
        return g.ctypes.data

    def fused_ready(self) -> bool:
        """Whether :meth:`step_to` can run: the compiled loop is loaded
        and the gather table passed :meth:`_checked_gather`."""
        return self._gather_ptr is not None and self._library() is not None

    def _out_strides(self) -> tuple[int, int]:
        """``(out_i, out_x)`` element strides of a layout-native field."""
        if self.layout == LAYOUT_AOS:
            return 1, self.lattice.q
        return self.num_cells, 1

    def _compiled(
        self,
        lib,
        src: np.ndarray,
        fused: bool,
        out: np.ndarray,
        out_i: int,
        out_x: int,
        omega: float,
        offset: int = 0,
    ) -> None:
        """One pass of the compiled loop: collide ``src`` (post-streaming
        ``(Q, N)`` rows; or, ``fused``, the flat buffer the gather table
        pulls from) into ``out`` at element ``offset`` with strides
        ``(out_i, out_x)``.

        The loop trusts its pointers, so dtype, contiguity and extent
        are checked here (the gather table's at plan build): a mismatch
        raises instead of touching memory outside the arrays.
        """
        q, n = self.lattice.q, self.num_cells
        src_size = q * (math.prod(self.source_shape) if fused else n)
        if not (
            src.dtype == out.dtype == self.dtype
            and src.size == src_size
            and (_dense(src) if fused else src.flags.c_contiguous)
            and _dense(out)
            and offset + (q - 1) * out_i + (n - 1) * out_x < out.size
        ):
            raise LatticeError(
                f"compiled pass: {src.dtype.name} {src.shape} -> "
                f"{out.dtype.name} {out.shape} does not match the "
                f"{self.dtype.name} plan for {self.shape}"
            )
        self._constants(omega)
        lib.collide[self.dtype](
            src.ctypes.data,
            self._gather_ptr if fused else None,
            n,
            n,
            out.ctypes.data + offset * self.dtype.itemsize,
            out_i,
            out_x,
            q,
            self.lattice.dim,
            self.order,
            self._params.ctypes.data,
        )

    def step_into(self, f: np.ndarray, omega: float) -> np.ndarray:
        """One fused stream+collide step, result written back into ``f``."""
        adv, adv_flat = self._fused_buffers()
        self.stream_into(f, adv_flat)
        self.collide_native(adv, f, omega)
        return f

    def step_to(self, f: np.ndarray, out: np.ndarray, omega: float) -> np.ndarray:
        """One stream+collide step from ``f`` into a second field ``out``:
        the compiled loop's single fused pass (the pull gather rides the
        collision), with the bytes of :meth:`stream_into` followed by
        :meth:`collide_native`.

        Both are layout-native logical arrays and must not overlap.
        Raises :class:`LatticeError` unless :meth:`fused_ready`.
        """
        if not self.fused_ready():
            raise LatticeError(
                "fused pass: the compiled loop is not loaded or the gather "
                "table is not one it may read (stream, then collide)"
            )
        self._compiled(self._library(), f, True, out, *self._out_strides(), omega)
        return out

    def collide_window(self, src: np.ndarray, padded: np.ndarray, omega: float) -> None:
        """Collide a window plan's streamed ``src`` into its x-window of
        the C-contiguous halo-padded array ``padded``.

        The compiled loop writes the window in place (its cells are one
        contiguous run per velocity); the numpy plan relaxes ``src`` in
        place and copies it into the window.
        """
        lib = self._library()
        if lib is not None:
            plane = math.prod(self.source_shape[1:])
            n_pad = self.source_shape[0] * plane
            offset = self.window.start * plane
            self._compiled(lib, src, False, padded, n_pad, 1, omega, offset)
        else:
            self.collide_into(src, src, omega)
            padded[:, self.window] = src.reshape(self.lattice.q, *self.shape)


#: :mod:`repro.core.native`, imported by the first plan built (so the
#: loader and ctypes stay out of start-up); see :func:`_load_native`.
_native = None


def _load_native():
    """Import the compiled-loop loader (once) and return it."""
    global _native
    if _native is None:
        from . import native

        _native = native
    return _native


def _dense(a: np.ndarray) -> bool:
    """Whether ``a`` is one contiguous buffer starting at its data
    pointer: C order, or a velocity-major view of a cell-major array."""
    return a.flags.c_contiguous or np.moveaxis(a, 0, -1).flags.c_contiguous


def _as_scalar(value: float, dtype: np.dtype) -> float:
    """``value`` rounded to ``dtype``, as the Python float the hot loop
    multiplies by (in-place ufuncs keep the array's dtype)."""
    return float(np.asarray(value, dtype=dtype))


class PlannedKernel(LBMKernel):
    """Zero-allocation planned kernel (the ladder's measured endpoint).

    Holds a :class:`KernelPlan` built lazily for the first shape it
    sees (or eagerly when ``shape`` is given) and replays it every
    step.  Input populations must match the kernel's dtype — silently
    casting would reintroduce exactly the hidden full-lattice copies
    this kernel exists to eliminate.

    :meth:`fuse` turns it into the stepping engine for forced, walled
    flows: full-way bounce-back walls fold into the gather table and
    Guo forcing into the collision, both inside the zero-allocation
    plan.
    """

    name = "planned"

    def __init__(
        self,
        lattice: VelocitySet,
        tau: float,
        order: int | None = None,
        dtype: "np.dtype | str | None" = None,
        shape: Sequence[int] | None = None,
        layout: str | None = None,
    ) -> None:
        super().__init__(lattice, tau, order)
        self.dtype = resolve_dtype(dtype)
        self.layout = resolve_layout(layout)
        self.walls: tuple[BounceBackWalls, ...] = ()
        self.forcing: GuoForcing | None = None
        self._plan: KernelPlan | None = None
        if shape is not None:
            self.plan_for(shape)

    def fuse(
        self,
        walls: Sequence[BounceBackWalls] = (),
        forcing: GuoForcing | None = None,
    ) -> None:
        """Fold bounce-back ``walls`` and Guo ``forcing`` into the plan.

        The streamed array then already carries the walls (applied in
        the given order, see
        :meth:`~repro.core.boundary.BounceBackWalls.fold_into`), and
        :meth:`collide` adds the force.  A plan already built is rebuilt
        for the same shape.
        """
        self.walls = tuple(walls)
        self.forcing = forcing
        if self._plan is not None:
            shape, self._plan = self._plan.shape, None
            self.plan_for(shape)

    def plan_for(self, shape: Sequence[int]) -> KernelPlan:
        """The plan for ``shape``, rebuilding only on a shape change."""
        shape = tuple(int(s) for s in shape)
        if self._plan is None or self._plan.shape != shape:
            self._plan = KernelPlan(
                self.lattice,
                shape,
                order=self.collision.order,
                dtype=self.dtype,
                layout=self.layout,
                walls=self.walls,
                forcing=self.forcing,
            )
        return self._plan

    def _check_dtype(self, f: np.ndarray) -> None:
        if f.dtype != self.dtype:
            raise LatticeError(
                f"planned kernel is built for {self.dtype.name}, got "
                f"{f.dtype.name} populations (rebuild the kernel or cast "
                "the field explicitly)"
            )

    def _check_input(self, f: np.ndarray) -> None:
        """Validate a *layout-native* persistent field array."""
        self._check_dtype(f)
        native = f if self.layout == LAYOUT_SOA else np.moveaxis(f, 0, -1)
        if not native.flags.c_contiguous:
            # reshape(-1) on a strided view returns a *copy*; the out=
            # writes would then land in a throwaway buffer and the
            # caller's array would silently keep its pre-step values.
            raise LatticeError(
                f"planned kernel ({self.layout} layout) requires "
                "layout-contiguous populations (got a strided view; pass "
                "an array whose physical order matches the layout)"
            )

    def _check_soa(self, f: np.ndarray) -> None:
        """Validate a struct-of-arrays scratch-side array."""
        self._check_dtype(f)
        if not f.flags.c_contiguous:
            raise LatticeError(
                "planned kernel requires C-contiguous populations "
                "(got a strided view; pass np.ascontiguousarray(f))"
            )

    def step(self, f: np.ndarray) -> np.ndarray:
        self._check_input(f)
        return self.plan_for(f.shape[1:]).step_into(f, self.collision.omega)

    def stream(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gather-table streaming into SoA ``out`` (split path for drivers)."""
        self._check_input(f)
        self._check_soa(out)
        self.plan_for(f.shape[1:]).stream_into(f, out)
        return out

    def collide(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Planned collision from SoA ``f`` into layout-native ``out``."""
        self._check_soa(f)
        if out is None:
            if self.layout == LAYOUT_AOS:
                raise LatticeError(
                    "aos planned kernel cannot collide in place: the "
                    "source is struct-of-arrays scratch; pass out="
                )
            out = f
        else:
            self._check_input(out)
        plan = self.plan_for(f.shape[1:])
        plan.collide_native(
            f.reshape(self.lattice.q, -1), out, self.collision.omega
        )
        return out


# -- kernel selection -------------------------------------------------------

#: Name -> kernel class; the single registry every selection path uses.
#: ``naive`` and ``roll`` are the oracles the engine is tested against.
KERNELS: dict[str, type[LBMKernel]] = {
    "naive": NaiveKernel,
    "roll": RollKernel,
    "planned": PlannedKernel,
}

#: What ``Simulation`` runs when neither a kernel nor a custom
#: collision is requested: the planned engine, with walls and forcing
#: fused into it.
DEFAULT_KERNEL = "planned"

#: Accepted spelling of the planned engine (see :func:`resolve_kernel_name`).
AUTO_KERNEL = "auto"


def available_kernels() -> tuple[str, ...]:
    """Names of all selectable kernels, sorted (excludes ``"auto"``)."""
    return tuple(sorted(KERNELS))


def resolve_kernel_name(kernel: str) -> str:
    """``kernel`` with the ``"auto"`` spelling resolved to the engine.

    ``"auto"`` (any case) names the planned engine, dense or sparse: it
    is the kernel every measured cell crowns, so nothing is timed.  Every
    other name comes back unchanged.  This is the one place the alias
    lives; :func:`make_kernel`, the sparse registry and
    :class:`~repro.scenarios.spec.CaseSpec` (which stores the resolved
    name, so both spellings share a fingerprint) all call it.
    """
    return DEFAULT_KERNEL if str(kernel).lower() == AUTO_KERNEL else kernel


def make_kernel(
    kernel: "str | LBMKernel",
    lattice: VelocitySet,
    tau: float,
    order: int | None = None,
    dtype: "np.dtype | str | None" = None,
    shape: Sequence[int] | None = None,
    layout: str | None = None,
    domain=None,
) -> LBMKernel:
    """Resolve a kernel selection to a ready instance.

    ``kernel`` may be an :class:`LBMKernel` instance (returned as-is), a
    registry name, or ``"auto"`` (the planned engine).  ``dtype`` and
    ``shape`` matter only to the planned kernel — the oracles adapt to
    whatever dtype the populations carry.

    ``layout`` selects the persistent field's physical order; only the
    planned kernel supports ``"aos"`` (its plan remaps the gather
    table).

    ``domain`` (a :class:`~repro.core.sparse.SparseDomain`) switches to
    the sparse kernels: ``legacy``/``planned``/``auto`` (and the
    registry names ``sparse-legacy``/``sparse-planned``) resolve to
    indirect-addressing kernels streaming that domain's fluid sites.
    """
    layout = resolve_layout(layout)
    if isinstance(kernel, LBMKernel):
        if getattr(kernel, "layout", LAYOUT_SOA) != layout:
            raise LatticeError(
                f"kernel instance uses layout={getattr(kernel, 'layout', LAYOUT_SOA)!r}"
                f" but layout={layout!r} was requested"
            )
        return kernel
    key = resolve_kernel_name(str(kernel).lower())
    if domain is not None:
        if layout != LAYOUT_SOA:
            raise LatticeError(
                "sparse kernels store populations per fluid site "
                "(struct-of-arrays only); layout='aos' is a dense-grid axis"
            )
        from .sparse import make_sparse_kernel  # late: sparse builds on plan

        return make_sparse_kernel(key, domain, tau, order=order, dtype=dtype)
    if key.startswith("sparse-"):
        raise LatticeError(
            f"kernel {kernel!r} streams a SparseDomain; pass domain= "
            "(or select it through SparseSimulation(kernel=...))"
        )
    if key not in KERNELS:
        raise LatticeError(
            f"unknown kernel {kernel!r}; available: "
            f"{', '.join(available_kernels())} (or 'auto')"
        )
    cls = KERNELS[key]
    if cls is PlannedKernel:
        return PlannedKernel(
            lattice, tau, order=order, dtype=dtype, shape=shape, layout=layout
        )
    if layout == LAYOUT_AOS:
        raise LatticeError(
            f"layout='aos' requires the planned kernel (got {kernel!r}); "
            "only its plan can remap the gather table per layout"
        )
    return cls(lattice, tau, order=order)
