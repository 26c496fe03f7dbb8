"""The compiled stream+collide loop against the numpy plan, byte for byte.

Every comparison runs the same plan twice: once on the compiled loop of
:mod:`repro.core.native` and once with the library unloaded, which makes
the plan fall back to its numpy passes.  The contract is
``np.array_equal``, not a tolerance: the loop repeats
:meth:`KernelPlan.collide_into` operation for operation.  The matrix
covers every lattice and equilibrium order, both dtypes, both layouts,
forced and unforced, walls folded or not, the dense, sparse and slab
paths, and the fused pass against split stream+collide.  Without a
working C compiler (``CC=false``) the comparisons skip and the rest of
the suite runs on the fallback.
"""

import shutil
import threading
import tracemalloc

import numpy as np
import pytest

from repro import api
from repro.core import native
from repro.core.boundary import BounceBackWalls
from repro.core.equilibrium import equilibrium
from repro.core.forcing import GuoForcing
from repro.core.plan import KernelPlan, PlannedKernel
from repro.core.simulation import Simulation
from repro.core.sparse import SparseDomain, make_sparse_kernel
from repro.errors import LatticeError
from repro.lattice import available_lattices, get_lattice
from repro.parallel import DistributedSimulation
from repro.scenarios.cli import main as cli_main

SHAPE = (7, 5, 4)
FORCE = (1e-4, -3e-5, 0.0)
LATTICES = available_lattices()


def _orders(lattice):
    orders = []
    for order in (1, 2, 3):
        try:
            KernelPlan(lattice, (2, 2, 2), order=order)
        except LatticeError:
            continue
        orders.append(order)
    return orders


ORDER_CASES = [
    (name, order) for name in LATTICES for order in _orders(get_lattice(name))
]


@pytest.fixture
def lib():
    built = native.build()
    if built is None:
        pytest.skip("no working C compiler: the numpy plan runs everywhere")
    return built


@pytest.fixture
def numpy_plan(monkeypatch):
    """A switch that unloads the library (and keeps it unloaded)."""

    def off():
        monkeypatch.setattr(native, "lib", None)
        monkeypatch.setattr(native, "_build_failed", True)

    return off


def _populations(lattice, shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.02 * rng.standard_normal(shape)
    u = 0.05 * rng.standard_normal((lattice.dim, *shape))
    f = equilibrium(lattice, rho, u, order=2)
    f = f * (1.0 + 0.01 * rng.standard_normal(f.shape))  # off equilibrium
    return np.ascontiguousarray(f, dtype=dtype)


def _walls(shape):
    mask = np.zeros(shape, dtype=bool)
    mask[:, 0, :] = mask[:, -1, :] = True
    return mask


def _native_field(f, layout):
    """A copy of ``f`` laid out as a layout-native logical array."""
    if layout == "soa":
        return np.array(f, order="C")
    return np.moveaxis(np.array(np.moveaxis(f, 0, -1), order="C"), -1, 0)


class TestCollide:
    @pytest.mark.parametrize("layout", ["soa", "aos"])
    @pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name,order", ORDER_CASES)
    def test_matches_numpy_plan(
        self, lib, numpy_plan, name, order, dtype, forced, layout
    ):
        lattice = get_lattice(name)
        forcing = GuoForcing(lattice, FORCE) if forced else None
        plan = KernelPlan(
            lattice, SHAPE, order=order, dtype=dtype, layout=layout, forcing=forcing
        )
        src = _populations(lattice, SHAPE, dtype).reshape(lattice.q, -1)
        omega = 1.0 / 0.73
        compiled = _native_field(np.zeros((lattice.q, *SHAPE), dtype), layout)
        plan.collide_native(src, compiled, omega)
        numpy_plan()
        reference = _native_field(np.zeros((lattice.q, *SHAPE), dtype), layout)
        plan.collide_native(src, reference, omega)
        assert np.array_equal(compiled, reference)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_in_place_matches_numpy_plan(self, lib, numpy_plan, q39, dtype):
        plan = KernelPlan(q39, SHAPE, dtype=dtype, forcing=GuoForcing(q39, FORCE))
        src = _populations(q39, SHAPE, dtype).reshape(q39.q, -1)
        compiled = src.copy()
        plan.collide_native(compiled, compiled, 1.25)
        numpy_plan()
        reference = src.copy()
        plan.collide_into(reference, reference, 1.25)
        assert np.array_equal(compiled, reference)


class TestDenseStep:
    @pytest.mark.parametrize("walls", [False, True], ids=["periodic", "walls"])
    @pytest.mark.parametrize("layout", ["soa", "aos"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", LATTICES)
    def test_fused_and_split_match_numpy(
        self, lib, numpy_plan, name, dtype, layout, walls
    ):
        """The fused gather+collide pass, the in-place step (gather, then
        the compiled collide) and the numpy split path agree."""
        lattice = get_lattice(name)
        kernel = PlannedKernel(lattice, 0.8, dtype=dtype, layout=layout)
        kernel.fuse(
            walls=[BounceBackWalls(lattice, _walls(SHAPE))] if walls else (),
            forcing=GuoForcing(lattice, FORCE),
        )
        f = _native_field(_populations(lattice, SHAPE, dtype), layout)

        fused = _native_field(np.zeros_like(f), layout)
        kernel.plan_for(SHAPE).step_to(f, fused, kernel.collision.omega)
        in_place = _native_field(f, layout)
        kernel.step(in_place)

        numpy_plan()
        split = _native_field(f, layout)
        adv = np.empty((lattice.q, *SHAPE), dtype)
        kernel.stream(split, adv)
        kernel.collide(adv, out=split)
        assert np.array_equal(fused, split)
        assert np.array_equal(in_place, split)
        with pytest.raises(LatticeError, match="fused pass"):  # no fallback
            kernel.plan_for(SHAPE).step_to(f, fused, kernel.collision.omega)

    @pytest.mark.parametrize("case", ["artery-flow", "lid-driven-cavity"])
    def test_driver_runs_match(self, lib, numpy_plan, case):
        """Fused pass with buffer swap (artery-flow) and gather + compiled
        collide around a boundary operator (lid-driven-cavity)."""
        steps = 30
        compiled = api.run_case(case, steps=steps, analyze=False).result.simulation
        assert (compiled._fused_plan is not None) == (case == "artery-flow")
        numpy_plan()
        reference = api.run_case(case, steps=steps, analyze=False).result.simulation
        assert np.array_equal(compiled.f, reference.f)


class TestSparseStep:
    @pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", ["D3Q15", "D3Q19", "D3Q27"])
    def test_matches_numpy_plan(self, lib, numpy_plan, name, dtype, forced):
        lattice = get_lattice(name)
        mask = _walls(SHAPE)
        mask[3, 2, 1] = True  # an obstacle: bounce-back links inside
        domain = SparseDomain(lattice, mask)
        kernel = make_sparse_kernel(
            "planned",
            domain,
            0.8,
            dtype=dtype,
            forcing=GuoForcing(lattice, FORCE) if forced else None,
        )
        f0 = _populations(lattice, SHAPE, dtype).reshape(lattice.q, -1)
        f0 = np.ascontiguousarray(f0[:, domain.fluid_index])
        compiled = f0.copy()
        for _ in range(3):
            compiled = kernel.step(compiled)
        numpy_plan()
        reference = f0.copy()
        for _ in range(3):
            reference = kernel.step(reference)
        assert np.array_equal(compiled, reference)


class TestSlabWindow:
    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", ["D3Q19", "D3Q39"])
    def test_windows_match_numpy_and_single_domain(
        self, lib, numpy_plan, name, dtype, depth
    ):
        shape = (24, 4, 3)
        lattice = get_lattice(name)
        rng = np.random.default_rng(2)
        rho = 1.0 + 0.02 * rng.standard_normal(shape)
        u = 0.05 * rng.standard_normal((3, *shape))

        def distributed():
            dist = DistributedSimulation(
                lattice, shape, tau=0.8, num_ranks=2, ghost_depth=depth,
                kernel="planned", dtype=dtype,
            )
            dist.initialize(rho, u)
            dist.run(5)
            return dist.gather()

        single = Simulation(lattice, shape, tau=0.8, dtype=dtype)
        single.initialize(rho, u)
        single.run(5)
        compiled = distributed()
        numpy_plan()
        assert np.array_equal(compiled, distributed())
        assert np.array_equal(compiled, single.f)


class TestJsonBodies:
    @pytest.mark.parametrize("case", ["artery-flow", "bifurcating-vessel"])
    def test_case_json_body_is_byte_identical(self, lib, numpy_plan, capsys, case):
        def body():
            assert cli_main(["case", case, "--steps", "60", "--json"]) == 0
            return capsys.readouterr().out

        compiled = body()
        numpy_plan()
        assert compiled == body()


class TestZeroAllocation:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_fused_driver_step_allocates_nothing(self, lib, dtype):
        shape = (16, 16, 16)
        lat = get_lattice("D3Q19")
        sim = Simulation(
            lat,
            shape,
            tau=0.8,
            boundaries=[BounceBackWalls(lat, _walls(shape))],
            forcing=GuoForcing(lat, (1e-5, 0.0, 0.0)),
            dtype=dtype,
        )
        sim.initialize(1.0, np.zeros((3, *shape)))
        assert sim._fused_plan.fused_ready()
        sim.step()
        tracemalloc.start()
        for _ in range(5):
            sim.step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < sim.f.nbytes // 50, f"peak {peak} B vs field {sim.f.nbytes} B"
        assert sim.timings.stream_seconds == 0.0


class TestLoader:
    @pytest.fixture
    def fresh(self, monkeypatch, tmp_path):
        """Module state of a process that has loaded nothing yet, over
        an empty cache."""
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(native, "lib", None)
        monkeypatch.setattr(native, "_build_failed", False)
        monkeypatch.setattr(native, "_fallback_updates", 0)
        monkeypatch.setattr(native, "_digest", None)
        monkeypatch.setattr(native, "_builder", None)
        return tmp_path

    def test_cache_path_is_content_addressed(self, fresh):
        path = native.library_path()
        assert path.parent == fresh / "native"
        assert len(path.stem) == 64 and path.suffix == ".so"

    def test_compiles_only_after_the_work_threshold(self, lib, fresh, monkeypatch):
        """Past the threshold the compile runs in the background: the
        caller returns at once on the fallback and the library is
        swapped in when the build lands."""
        builds = []
        release = threading.Event()

        def fake_compile(path):
            builds.append(path)
            assert release.wait(30)
            path.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(lib.path, path)

        monkeypatch.setattr(native, "_compile", fake_compile)
        assert native.ensure() is None
        native.note_fallback(native.COMPILE_AFTER_UPDATES - 1)
        assert native.ensure() is None and builds == []
        native.note_fallback(1)
        assert native.ensure() is None  # returned while the build waits
        builder = native._builder
        assert builder is not None and builder.is_alive()
        assert native.ensure() is None and builder is native._builder
        release.set()
        builder.join(30)
        assert native.lib is not None and native.ensure() is native.lib
        assert builds == [native.library_path()]

    def test_forked_child_starts_over(self, fresh, monkeypatch):
        monkeypatch.setattr(native, "_lock", native._lock)
        monkeypatch.setattr(native, "_builder", threading.Thread(target=int))
        native.note_fallback(native.COMPILE_AFTER_UPDATES)
        native._after_fork_in_child()
        assert native._builder is None and native._fallback_updates == 0
        assert native._lock.acquire(blocking=False)
        native._lock.release()

    def test_small_runs_never_compile(self, fresh, monkeypatch):
        monkeypatch.setattr(native, "_compile", pytest.fail)
        sim = Simulation("D3Q19", (8, 8, 8), tau=0.8)
        sim.initialize(1.0, np.zeros((3, 8, 8, 8)))
        sim.run(20)
        assert native.lib is None
        assert native._fallback_updates == 20 * 8 * 8 * 8

    def test_cached_library_is_always_loaded(self, lib, fresh):
        path = native.library_path()
        path.parent.mkdir(parents=True)
        shutil.copyfile(lib.path, path)
        KernelPlan(get_lattice("D3Q19"), (4, 4, 4))
        assert native.lib is not None and native.lib.path == path

    def test_failed_compiler_falls_back_once(self, fresh, monkeypatch):
        monkeypatch.setenv("CC", "false")
        assert native.build() is None
        assert native._build_failed
        assert not native.library_path().exists()
        sim = Simulation("D3Q19", (4, 4, 4), tau=0.8)
        sim.initialize(1.0, np.zeros((3, 4, 4, 4)))
        sim.run(3)
        assert sim.timings.stream_seconds > 0.0  # the numpy split path


    def test_missing_source_means_fallback(self, fresh, monkeypatch, tmp_path):
        monkeypatch.setattr(native, "SOURCE", tmp_path / "absent.c")
        assert native.ensure() is None and native._build_failed
        KernelPlan(get_lattice("D3Q19"), (4, 4, 4))  # plans still build


class TestPassValidation:
    """The loop trusts its pointers; the plan refuses buffers that do
    not match it before any pointer is passed."""

    def test_mismatched_buffers_raise(self, lib, q19):
        plan = KernelPlan(q19, SHAPE)
        src = _populations(q19, SHAPE, "float64").reshape(q19.q, -1)
        good = np.empty_like(src)
        for bad_src, bad_out in (
            (src.astype(np.float32), good),
            (src, good.astype(np.float32)),
            (src[:, :-1], good),
            (src, good[:, :-1]),
            (src[:, ::2].repeat(2, axis=1)[:, : src.shape[1]].T.copy().T, good),
        ):
            with pytest.raises(LatticeError, match="compiled pass"):
                plan.collide_native(bad_src, bad_out, 1.25)
        plan.collide_native(src, good, 1.25)

    def test_unreadable_gather_tables_keep_the_fused_pass_off(self, lib, q19):
        """The loop reads through the gather table unchecked, so only a
        C-contiguous int64 table of in-range indices reaches it."""
        table = PlannedKernel(q19, 0.8, shape=SHAPE).plan_for(SHAPE).gather
        f = _populations(q19, SHAPE, "float64")
        out = np.empty_like(f)
        size = table.size
        out_of_range = table.copy()
        out_of_range[-1] = size
        negative = table.copy()
        negative[0] = -1
        for bad in (
            table.astype(np.int32),
            np.repeat(table, 2)[::2],  # strided view
            table[:-1],
            out_of_range,
            negative,
        ):
            plan = KernelPlan(q19, SHAPE, gather=bad)
            assert not plan.fused_ready()
            with pytest.raises(LatticeError, match="fused pass"):
                plan.step_to(f, out, 1.25)
        plan = KernelPlan(q19, SHAPE, gather=table.copy())
        assert plan.fused_ready()
        plan.step_to(f, out, 1.25)
