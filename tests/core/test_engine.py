"""The planned stepping engine: walls folded into the gather table, Guo
forcing in the plan arena, and the engine as the driver's default."""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    BGKCollision,
    BounceBackWalls,
    DiffuseWallPair,
    GuoForcing,
    KernelPlan,
    MovingWallBounceBack,
    Simulation,
    equilibrium,
    stream_periodic,
)
from repro.core.boundary import split_foldable
from repro.core.sparse import SparseSimulation
from repro.errors import LatticeError
from repro.lattice import get_lattice

SHAPE = (8, 9, 7)


def _walls_mask(shape=SHAPE):
    mask = np.zeros(shape, dtype=bool)
    mask[:, 0, :] = mask[:, -1, :] = True
    mask[3, 4, 2] = True  # an isolated obstacle node
    return mask


def _populations(lattice, shape, seed=5):
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.02 * rng.standard_normal(shape)
    u = 0.02 * rng.standard_normal((3, *shape))
    f = equilibrium(lattice, rho, u) + 1e-4 * rng.standard_normal(
        (lattice.q, *shape)
    )
    return np.ascontiguousarray(f)


def _aos_view(f):
    """The logical (Q, *shape) view over a cell-major copy of ``f``."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(f, 0, -1)), -1, 0)


class TestFoldedWalls:
    @pytest.mark.parametrize("lname", ["D3Q15", "D3Q19", "D3Q27", "D3Q39"])
    @pytest.mark.parametrize("layout", ["soa", "aos"])
    def test_folded_table_equals_stream_then_bounce_back(self, lname, layout):
        lat = get_lattice(lname)
        f = _populations(lat, SHAPE)
        wall = BounceBackWalls(lat, _walls_mask())
        plan = KernelPlan(lat, SHAPE, layout=layout, walls=[wall])
        source = f if layout == "soa" else _aos_view(f)
        folded = np.empty_like(f)
        plan.stream_into(source, folded)

        ref = stream_periodic(lat, f)
        wall.apply(ref, f)
        assert np.array_equal(folded, ref)

    def test_overlapping_walls_compose_in_order(self, q19):
        """Two folded walls equal the two operators applied in turn (a
        node in both masks is reversed twice: back to the streamed
        value)."""
        f = _populations(q19, SHAPE)
        first = BounceBackWalls(q19, _walls_mask())
        other = np.zeros(SHAPE, dtype=bool)
        other[:, :3, 1] = True
        second = BounceBackWalls(q19, other)
        plan = KernelPlan(q19, SHAPE, walls=[first, second])
        folded = np.empty_like(f)
        plan.stream_into(f, folded)

        ref = stream_periodic(q19, f)
        first.apply(ref, f)
        second.apply(ref, f)
        assert np.array_equal(folded, ref)

    def test_wall_mask_shape_checked(self, q19):
        wall = BounceBackWalls(q19, np.zeros((4, 4, 4), dtype=bool))
        with pytest.raises(LatticeError, match="mask shape"):
            KernelPlan(q19, SHAPE, walls=[wall])

    def test_only_leading_plain_walls_fold(self, q19):
        mask = _walls_mask()
        plain = BounceBackWalls(q19, mask)
        moving = MovingWallBounceBack(q19, mask, wall_velocity=(0.01, 0, 0))
        diffuse = DiffuseWallPair(q19, axis=1)
        assert split_foldable([plain, plain, moving]) == (
            [plain, plain],
            [moving],
        )
        # a wall after an operator must see what that operator wrote
        assert split_foldable([diffuse, plain]) == ([], [diffuse, plain])
        assert split_foldable([moving, plain]) == ([], [moving, plain])

    def test_lid_driven_cavity_moving_wall_not_folded(self):
        from repro.scenarios import CaseRunner

        sim, _ = CaseRunner("lid-driven-cavity").build()
        assert [type(bc) for bc in sim.kernel.walls] == [BounceBackWalls]
        assert [type(bc) for bc in sim.operators] == [MovingWallBounceBack]


class TestForcedWalledEngine:
    def _build(self, lattice, dtype, **kwargs):
        sim = Simulation(
            lattice,
            SHAPE,
            tau=0.8,
            boundaries=[BounceBackWalls(lattice, _walls_mask())],
            forcing=GuoForcing(lattice, (1e-5, 2e-6, 0.0)),
            dtype=dtype,
            **kwargs,
        )
        rng = np.random.default_rng(1)
        sim.initialize(
            1.0 + 0.01 * rng.standard_normal(SHAPE),
            0.01 * rng.standard_normal((3, *SHAPE)),
        )
        return sim

    @pytest.mark.parametrize("lname", ["D3Q15", "D3Q19", "D3Q27", "D3Q39"])
    @pytest.mark.parametrize("layout", ["soa", "aos"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matches_generic_guo_path(self, lname, layout, dtype):
        """The engine vs the legacy oracle (roll streaming, operator
        walls, generic Guo collision) over 50 steps."""
        lat = get_lattice(lname)
        steps = 50
        engine = self._build(lat, dtype, layout=layout)
        oracle = self._build(lat, dtype, kernel="roll")
        assert engine.kernel.name == "planned" and engine.operators == []
        assert oracle.operators == oracle.boundaries
        engine.run(steps)
        oracle.run(steps)
        scale = np.abs(oracle.f).max()
        rel = np.abs(engine.f.astype(np.float64) - oracle.f).max() / scale
        bound = 1e-12 if dtype == "float64" else steps * np.finfo(np.float32).eps
        assert rel <= bound

    def test_walls_cost_no_boundary_phase(self, q19):
        sim = self._build(q19, "float64")
        sim.run(5)
        assert sim.operators == []
        if sim._fused_plan is not None and sim._fused_plan.fused_ready():
            # one fused pass per step, booked whole as collide time
            assert sim.timings.boundary_seconds == 0.0 == sim.timings.stream_seconds
        else:
            assert sim.timings.boundary_seconds < 0.1 * sim.timings.stream_seconds

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_warm_step_allocates_nothing(self, dtype):
        shape = (16, 16, 16)
        lat = get_lattice("D3Q19")
        mask = np.zeros(shape, dtype=bool)
        mask[:, 0, :] = mask[:, -1, :] = True
        sim = Simulation(
            lat,
            shape,
            tau=0.8,
            boundaries=[BounceBackWalls(lat, mask)],
            forcing=GuoForcing(lat, (1e-5, 0.0, 0.0)),
            dtype=dtype,
        )
        sim.initialize(1.0, np.zeros((3, *shape)))
        sim.step()  # warm-up
        tracemalloc.start()
        for _ in range(5):
            sim.step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < sim.f.nbytes // 50, f"peak {peak} B vs field {sim.f.nbytes} B"

    def test_omega_change_recasts_source_constants(self, q19):
        """The cached Guo constants follow the omega they are called with."""
        f = _populations(q19, SHAPE).reshape(q19.q, -1)
        forcing = GuoForcing(q19, (1e-5, 0.0, 3e-6))
        plan = KernelPlan(q19, SHAPE, forcing=forcing)
        out = np.empty_like(f)
        plan.collide_into(f, out, 1.0 / 0.8)
        fresh = KernelPlan(q19, SHAPE, forcing=forcing)
        expected = np.empty_like(f)
        fresh.collide_into(f, expected, 1.0 / 1.2)
        plan.collide_into(f, out, 1.0 / 1.2)
        assert np.array_equal(out, expected)


class TestDefaultEngine:
    def test_kernel_none_is_planned(self):
        sim = Simulation("D3Q19", (4, 4, 4), tau=0.8)
        assert sim.kernel is not None and sim.kernel.name == "planned"

    def test_custom_collision_keeps_legacy_pair(self, q19):
        sim = Simulation(q19, (4, 4, 4), collision=BGKCollision(q19, 0.8))
        assert sim.kernel is None

    def test_kernel_instance_is_not_fused(self, q19):
        """A caller's kernel instance is used as given: walls stay
        operators and forcing takes the generic path."""
        from repro.core import PlannedKernel

        kernel = PlannedKernel(q19, 0.8)
        mask = _walls_mask()
        sim = Simulation(
            q19,
            SHAPE,
            kernel=kernel,
            boundaries=[BounceBackWalls(q19, mask)],
            forcing=GuoForcing(q19, (1e-5, 0.0, 0.0)),
        )
        assert kernel.walls == () and kernel.forcing is None
        assert len(sim.operators) == 1


class TestDenseSparseForcing:
    def test_forced_periodic_box_dense_equals_sparse(self, q19):
        """Both drivers run second-order Guo forcing through the same
        plan code: a forced, fully fluid box agrees to 1e-12."""
        shape = (10, 6, 5)
        force = (2e-5, -1e-5, 5e-6)
        rng = np.random.default_rng(4)
        rho = 1.0 + 0.01 * rng.standard_normal(shape)
        u = 0.01 * rng.standard_normal((3, *shape))
        dense = Simulation(q19, shape, tau=0.7, forcing=GuoForcing(q19, force))
        dense.initialize(rho, u)
        sparse = SparseSimulation(
            q19, np.zeros(shape, dtype=bool), tau=0.7, force=force
        )
        sparse.initialize(rho, u)
        dense.run(40)
        sparse.run(40)
        flat = dense.f.reshape(q19.q, -1)
        assert np.abs(sparse.f - flat).max() <= 1e-12 * np.abs(flat).max()

    def test_sparse_planned_matches_generic_guo(self, q19):
        """The sparse oracle (legacy gather + generic Guo collision)
        agrees with the planned sparse engine, walls included."""
        mask = _walls_mask()
        runs = {}
        for kernel in ("legacy", "planned"):
            sim = SparseSimulation(
                q19, mask, tau=0.8, force=(1e-5, 0.0, 0.0), kernel=kernel
            )
            sim.initialize(1.0)
            sim.run(50)
            runs[kernel] = sim.f
        scale = np.abs(runs["legacy"]).max()
        assert np.abs(runs["planned"] - runs["legacy"]).max() <= 1e-12 * scale

    def test_sparse_forcing_injects_momentum_at_force_rate(self, q19):
        """Guo coupling adds exactly F per fluid node per step."""
        from repro.core import total_momentum

        shape = (6, 5, 4)
        force = (2e-6, 0.0, 0.0)
        sim = SparseSimulation(q19, np.zeros(shape, dtype=bool), tau=0.9, force=force)
        sim.initialize(1.0)
        sim.run(30)
        mom = total_momentum(q19, sim.f)
        assert mom[0] == pytest.approx(force[0] * sim.num_cells * 30, rel=1e-9)
