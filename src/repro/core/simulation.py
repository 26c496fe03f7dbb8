"""Single-domain simulation driver.

Implements the paper's Fig. 2 loop::

    read initial distr
    for n < max_steps:
        distr_adv = stream(distr)
        distr     = collide(distr_adv)

on one periodic domain (the distributed version lives in
:mod:`repro.parallel.distributed`).  The driver owns the two population
arrays (``distr`` / ``distr_adv``), applies boundary conditions between
streaming and collision, couples an optional body force, and records
wall-clock throughput in MFlup/s (million fluid lattice-point updates
per second, paper Eq. 4).  By default it steps on the planned engine
(:class:`~repro.core.plan.PlannedKernel`), which absorbs bounce-back
walls and Guo forcing so a forced, walled step allocates nothing.
"""

from __future__ import annotations

import contextlib
import math
import time
from typing import Callable, Sequence

import numpy as np

from ..errors import LatticeError, StabilityError
from ..lattice import VelocitySet, get_lattice
from ..telemetry.recorder import NullTelemetry, Telemetry, get_telemetry
from .boundary import BoundaryCondition, split_foldable
from .collision import BGKCollision
from .fields import LAYOUT_SOA, DistributionField, resolve_dtype, resolve_layout
from .forcing import GuoForcing
from .kernels import LBMKernel
from .moments import macroscopic
from .streaming import stream_periodic

__all__ = ["MASS_DRIFT_RTOL", "Simulation", "StepTimings", "check_physical"]

#: Relative drift of the total mass, against the state a checked run
#: started from, that a stability check accepts per population dtype.
#: Every registered case stays within 1e-13 (float64) and 1.2e-5
#: (float32) over its full run; the bounds leave a wide margin, so they
#: only catch a run that has left the physical regime.
MASS_DRIFT_RTOL = {np.dtype(np.float64): 1e-6, np.dtype(np.float32): 1e-3}


def check_physical(
    lattice: VelocitySet, f: np.ndarray, mass_ref: float, where: str
) -> None:
    """Raise :class:`StabilityError` unless velocity-major populations
    ``f`` (``(Q, N)``) are finite, below the sound speed everywhere and
    within :data:`MASS_DRIFT_RTOL` of the reference mass ``mass_ref``.

    A finite total implies finite populations, so the mass sum doubles
    as the non-finite check.  ``where`` names the run in the message.
    """
    rho = f.sum(axis=0)
    mass = float(rho.sum())
    if not math.isfinite(mass):
        raise StabilityError(f"non-finite populations {where}")
    rtol = MASS_DRIFT_RTOL[f.dtype]
    drift = abs(mass - mass_ref) / (abs(mass_ref) or 1.0)
    if not drift <= rtol:
        raise StabilityError(
            f"total mass drifted by {drift:.3g} (relative; limit {rtol:g} "
            f"for {f.dtype.name}) {where}"
        )
    momentum = lattice.velocities_as(f.dtype).T @ f
    speed2 = np.einsum("an,an->n", momentum, momentum) / (rho * rho)
    cs = math.sqrt(lattice.cs2_float)
    top = math.sqrt(float(speed2.max()))
    if not top < cs:
        raise StabilityError(
            f"max |u| = {top:.3g} reached the sound speed c_s = {cs:.3g} {where}"
        )


class StepTimings:
    """Cumulative wall-clock accounting for one simulation.

    Bounce-back walls the planned engine folds into its gather table
    are charged to ``stream_seconds``: they cost no separate pass, so
    ``boundary_seconds`` counts only the operators that still run.
    """

    def __init__(self) -> None:
        self.stream_seconds = 0.0
        self.collide_seconds = 0.0
        self.boundary_seconds = 0.0
        self.steps = 0

    @property
    def total_seconds(self) -> float:
        return self.stream_seconds + self.collide_seconds + self.boundary_seconds

    def mflups(self, num_cells: int) -> float:
        """Measured MFlup/s (paper Eq. 4): ``steps * N / (T * 1e6)``."""
        if self.total_seconds == 0:
            return float("nan")
        return self.steps * num_cells / (self.total_seconds * 1e6)


class Simulation:
    """A single-block periodic LBM simulation.

    Parameters
    ----------
    lattice:
        A :class:`VelocitySet` or a lattice name (``"D3Q19"``/``"D3Q39"``).
    shape:
        Spatial grid shape, e.g. ``(64, 64, 64)``.
    tau:
        BGK relaxation time (ignored when ``collision`` is given).
    order:
        Hermite equilibrium order (``None`` = lattice native).
    collision:
        Custom collision operator exposing ``apply(f, out=None)`` and
        ``omega`` (regularized BGK, MRT).  It runs on the legacy pair
        (``stream_periodic`` + the operator); ``None`` means BGK on a
        kernel.
    boundaries:
        Boundary conditions applied after streaming, in order.  Under
        the planned engine the leading plain
        :class:`~repro.core.boundary.BounceBackWalls` are folded into
        its gather table (see
        :func:`~repro.core.boundary.split_foldable`); the rest run as
        operators.
    forcing:
        Optional :class:`GuoForcing` body force (BGK collisions only).
        The planned engine applies it inside its zero-allocation
        collision; every other kernel and the legacy pair use the
        generic Guo path (the test oracle).
    kernel:
        Which stream/collide implementation advances the populations: a
        registry name (``"planned"``, or the oracles ``"roll"`` and
        ``"naive"``), ``"auto"`` (another spelling of ``"planned"``),
        an :class:`~repro.core.kernels.LBMKernel`
        instance, or ``None``: the planned engine
        (:data:`~repro.core.plan.DEFAULT_KERNEL`) unless a custom
        ``collision`` is given.  Kernels own a BGK collision, so
        ``kernel`` and a custom ``collision`` are mutually exclusive.
        Walls and forcing are fused only into a planned kernel this
        driver builds itself; a kernel *instance* is used as given.
    dtype:
        Population dtype policy, ``"float64"`` (default) or
        ``"float32"`` (halves B(Q) bytes per cell; see README).
    layout:
        Physical memory order of the persistent field: ``"soa"``
        (default, velocity-major — the paper's collision-optimized
        layout) or ``"aos"`` (cell-major, paper §IV's
        propagation-optimized alternative).  AoS requires the planned
        kernel, the default (its plan remaps the gather table per
        layout); results are byte-identical per dtype because every
        layout transform is an exact permutation and the collision
        arithmetic is shared.
    telemetry:
        Structured-event recorder (:class:`~repro.telemetry.Telemetry`).
        ``None`` uses the ambient recorder
        (:func:`repro.telemetry.get_telemetry` — the no-op default
        unless enabled).  When enabled, :meth:`run` emits per-phase
        spans (``phase.stream``/``phase.collide``/``phase.boundary``)
        derived from the same :class:`StepTimings` clocks as ever.
    """

    def __init__(
        self,
        lattice: VelocitySet | str,
        shape: Sequence[int],
        tau: float = 1.0,
        order: int | None = None,
        collision=None,
        boundaries: Sequence[BoundaryCondition] = (),
        forcing: GuoForcing | None = None,
        kernel: "str | LBMKernel | None" = None,
        dtype: "str | np.dtype | None" = None,
        layout: "str | None" = None,
        telemetry: "Telemetry | NullTelemetry | None" = None,
    ) -> None:
        self.lattice = get_lattice(lattice) if isinstance(lattice, str) else lattice
        self.shape = tuple(int(s) for s in shape)
        self.dtype = resolve_dtype(dtype)
        self.layout = resolve_layout(layout)
        self.kernel: LBMKernel | None = None
        self.boundaries = list(boundaries)
        self.forcing = forcing
        #: The boundaries :meth:`step` applies as operators (those not folded
        #: into the planned kernel's gather table).
        self.operators = self.boundaries
        #: True when the kernel itself applies ``forcing``.
        self._fused_forcing = False
        #: The planned engine's plan when one fused stream+collide pass
        #: into the second buffer can replace stream, boundaries, collide
        #: (it runs whenever the plan is ``fused_ready()``).
        self._fused_plan = None
        if kernel is not None and collision is not None:
            raise LatticeError(
                "kernel and collision are mutually exclusive: a kernel "
                "owns its own BGK collision operator"
            )
        if collision is None:
            # late import: plan builds on kernels
            from .plan import DEFAULT_KERNEL, PlannedKernel, make_kernel

            self.kernel = make_kernel(
                DEFAULT_KERNEL if kernel is None else kernel,
                self.lattice,
                tau,
                order=order,
                dtype=self.dtype,
                shape=self.shape,
                layout=self.layout,
            )
            self.collision = self.kernel.collision
            if isinstance(self.kernel, PlannedKernel) and not isinstance(
                kernel, LBMKernel
            ):
                walls, self.operators = split_foldable(self.boundaries)
                self.kernel.fuse(walls=walls, forcing=forcing)
                self._fused_forcing = forcing is not None
            if (
                isinstance(self.kernel, PlannedKernel)
                and not self.operators
                and self.layout == LAYOUT_SOA
                and (forcing is None or self._fused_forcing)
            ):
                self._fused_plan = self.kernel.plan_for(self.shape)
        else:
            if self.layout != LAYOUT_SOA:
                raise LatticeError(
                    "layout='aos' requires a kernel (the planned engine); a "
                    "custom collision runs on the legacy stream/collide "
                    "pair, which is velocity-major only"
                )
            self.collision = collision
        if forcing is not None and not isinstance(self.collision, BGKCollision):
            raise NotImplementedError("forcing is only coupled to BGK collisions")
        # The persistent field carries the layout; the advection scratch
        # stays SoA under either layout (the kernel streams AoS -> SoA
        # and scatters back after collision), so boundary conditions see
        # the same contiguous post-streaming array as ever.
        self.field = DistributionField.zeros(
            self.lattice, self.shape, dtype=self.dtype, layout=self.layout
        )
        self._adv = DistributionField.zeros(self.lattice, self.shape, dtype=self.dtype)
        self.time_step = 0
        self.timings = StepTimings()
        self.telemetry = get_telemetry() if telemetry is None else telemetry
        #: Total mass the physical-validity check measures drift against
        #: (taken when the first checked run starts).
        self._mass_ref: float | None = None

    # -- setup ------------------------------------------------------------

    def set_telemetry(self, telemetry: "Telemetry | NullTelemetry") -> None:
        """Install a structured-event recorder on this simulation."""
        self.telemetry = telemetry

    def initialize(self, rho: np.ndarray | float, u: np.ndarray) -> None:
        """Set populations to the equilibrium of ``(rho, u)``; reset clock."""
        rho_arr = np.broadcast_to(np.asarray(rho, dtype=np.float64), self.shape)
        self.field = DistributionField.from_equilibrium(
            self.lattice,
            np.array(rho_arr),
            u,
            order=self.collision.order,
            dtype=self.dtype,
            layout=self.layout,
        )
        self._adv = DistributionField.zeros(self.lattice, self.shape, dtype=self.dtype)
        self.time_step = 0
        self.timings = StepTimings()
        self._mass_ref = None

    # -- observables --------------------------------------------------------

    @property
    def f(self) -> np.ndarray:
        """Current populations, shape ``(Q, *shape)``, velocity-major.

        Under ``layout="aos"`` this is a contiguous SoA *copy* (mutate
        ``field.data`` to write populations in place): observables and
        checkpoints must reduce over identical bytes in identical order
        for the layouts' results to stay byte-identical, and whole-array
        reductions on a strided view may legally reorder.

        Read it afresh after stepping: the fused step swaps the field
        with the driver's second buffer, so an array held across
        :meth:`step` may be the spare one.
        """
        if self.layout == LAYOUT_SOA:
            return self.field.data
        return self.field.as_soa()

    def macroscopic(self) -> tuple[np.ndarray, np.ndarray]:
        """Density and (force-corrected) velocity fields."""
        rho, u = macroscopic(self.lattice, self.f)
        if self.forcing is not None:
            u = u + self.forcing.velocity_shift(rho)
        return rho, u

    @property
    def num_cells(self) -> int:
        return self.field.num_cells

    def mflups(self) -> float:
        """Measured throughput so far (paper Eq. 4)."""
        return self.timings.mflups(self.num_cells)

    # -- stepping -------------------------------------------------------------

    def _collide(self, f: np.ndarray, out: np.ndarray) -> None:
        if self.forcing is None or self._fused_forcing:
            if self.kernel is not None:
                self.kernel.collide(f, out=out)
            else:
                self.collision.apply(f, out=out)
            return
        # Generic Guo-forced BGK (the oracle path).
        self.forcing.collide(self.collision, f, out)

    def step(self) -> None:
        """Advance one time step: stream, boundaries, collide.

        With the compiled loop loaded and no boundary operator between
        streaming and collision, the step is one fused pass into the
        second buffer, which then becomes the field (booked as collide
        time, as the sparse driver books its fused step).
        """
        f_old = self.field.data
        f_new = self._adv.data

        plan = self._fused_plan
        if plan is not None and plan.fused_ready():
            t0 = time.perf_counter()
            plan.step_to(f_old, f_new, self.collision.omega)
            self.field, self._adv = self._adv, self.field
            self.time_step += 1
            self.timings.steps += 1
            self.timings.collide_seconds += time.perf_counter() - t0
            return

        t0 = time.perf_counter()
        if self.kernel is not None:
            self.kernel.stream(f_old, out=f_new)
        else:
            stream_periodic(self.lattice, f_old, out=f_new)
        t1 = time.perf_counter()
        for bc in self.operators:
            bc.apply(f_new, f_old)
        t2 = time.perf_counter()
        self._collide(f_new, out=f_old)
        t3 = time.perf_counter()

        # distr (f_old) now holds the post-collision state; buffers swap
        # implicitly because we collided back into the original array.
        self.time_step += 1
        self.timings.steps += 1
        self.timings.stream_seconds += t1 - t0
        self.timings.boundary_seconds += t2 - t1
        self.timings.collide_seconds += t3 - t2

    def run(
        self,
        steps: int,
        monitor: Callable[["Simulation"], None] | None = None,
        monitor_every: int = 1,
        check_stability_every: int = 0,
    ) -> None:
        """Run ``steps`` time steps.

        Parameters
        ----------
        monitor:
            Callback invoked every ``monitor_every`` steps with the
            simulation (after the step).
        check_stability_every:
            If positive, check the physical validity of the populations
            at that period (:func:`check_physical`: finite, every speed
            below c_s, total mass within :data:`MASS_DRIFT_RTOL` of the
            first checked state) and raise :class:`StabilityError`
            otherwise.

        With an enabled recorder, one span per phase is emitted for the
        steps this call actually ran (sourced from the :class:`StepTimings`
        deltas, so the hot :meth:`step` path carries no telemetry code
        and its zero-allocation guarantee is untouched).  On the planned
        engine the compiled loop is loaded (or built, once this process
        has stepped enough on the numpy fallback) before the first step.
        """
        drive(self, steps, monitor, monitor_every, check_stability_every)

    def populations(self) -> np.ndarray:
        """The current populations as a velocity-major ``(Q, N)`` array
        (a copy under ``layout="aos"``, see :attr:`f`)."""
        return self.f.reshape(self.lattice.q, -1)

    def describe_state(self) -> str:
        """Where the run stands, for error messages."""
        return (
            f"at step {self.time_step} "
            f"(tau={getattr(self.collision, 'tau', '?')}, "
            f"lattice={self.lattice.name})"
        )


def drive(
    sim,
    steps: int,
    monitor: "Callable | None",
    monitor_every: int,
    check_stability_every: int,
) -> None:
    """The stepping loop shared by the dense and sparse drivers' ``run``.

    Outside the loop it loads (or, past the work threshold, builds) the
    compiled loop for planned engines, takes the mass reference of the
    first checked run, counts fallback cell updates toward the compile
    rule, and emits one ``phase.*`` span per phase from the
    :class:`StepTimings` deltas when the recorder is enabled.
    """
    # With stability checking on, a diverging run's last step computes
    # moments of already non-finite populations before the check can
    # raise; silence numpy's invalid/overflow warnings for that window
    # so divergence is reported once, as StabilityError.
    numeric_guard = (
        np.errstate(invalid="ignore", over="ignore", divide="ignore")
        if check_stability_every
        else contextlib.nullcontext()
    )
    from .plan import PlannedKernel
    from .sparse import PlannedSparseKernel

    native = None
    if isinstance(sim.kernel, (PlannedKernel, PlannedSparseKernel)):
        from . import native

        native.ensure()
    if check_stability_every and sim._mass_ref is None:
        sim._mass_ref = float(sim.populations().sum())
    t = sim.timings
    base = (t.stream_seconds, t.collide_seconds, t.boundary_seconds, t.steps)
    try:
        with numeric_guard:
            for n in range(steps):
                sim.step()
                if monitor is not None and (n + 1) % monitor_every == 0:
                    monitor(sim)
                if check_stability_every and (n + 1) % check_stability_every == 0:
                    check_physical(
                        sim.lattice,
                        sim.populations(),
                        sim._mass_ref,
                        sim.describe_state(),
                    )
    finally:
        done = t.steps - base[3]
        if native is not None and native.lib is None:
            native.note_fallback(done * sim.num_cells)
        if done and sim.telemetry.enabled:
            for phase, seconds in (
                ("stream", t.stream_seconds - base[0]),
                ("collide", t.collide_seconds - base[1]),
                ("boundary", t.boundary_seconds - base[2]),
            ):
                sim.telemetry.record_span(f"phase.{phase}", seconds, rank=0, steps=done)
