"""The four workloads.

Each workload drives the program only through its public entry points
(``repro.api``, ``python -m repro``, ``repro serve``) with inputs drawn
from the run's seeded ``random.Random``, checks every output, and
returns an :class:`Outcome`: the end-to-end figures of an untraced run,
the samples behind the headline metrics, and - in a traced run - the
per-layer figures it measures itself.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import random
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable

from . import probes, serveload
from .checks import Tally, check_case, check_cli, parse_single_json
from .layers import case_layers, case_targets
from .metrics import median
from .probes import Env
from .tracing import Tracer


@dataclasses.dataclass
class Context:
    env: Env
    rng: random.Random
    seconds: float
    trace: bool
    #: A short traced pass that only fills per-layer metrics another
    #: workload's traced run does not reach (no end-to-end figures).
    probe: bool = False
    tracer: Tracer = dataclasses.field(default_factory=Tracer)
    _dirs: int = 0

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.env.work / f"{stem}-{self._dirs}"
        path.mkdir(parents=True)
        return path


@dataclasses.dataclass
class Outcome:
    tally: Tally = dataclasses.field(default_factory=Tally)
    #: End-to-end metric -> value (untraced runs).
    e2e: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Headline metric -> samples, for the human summary.
    samples: dict[str, list[float]] = dataclasses.field(default_factory=dict)
    #: Per-layer metric -> value (traced runs).
    layers: dict[str, float] = dataclasses.field(default_factory=dict)
    notes: list[str] = dataclasses.field(default_factory=list)


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(ctx: Context, op: Callable[[], float], min_ops: int) -> list[float]:
    """Run ``op`` (which returns its own wall time) at least ``min_ops``
    times, then while the next one is expected to end within
    ``ctx.seconds`` of the first."""
    times: list[float] = []
    deadline = time.perf_counter() + ctx.seconds
    while len(times) < min_ops or time.perf_counter() + median(times) <= deadline:
        times.append(op())
    return times


def _round(value: float) -> float:
    return float(f"{value:.6g}")


# -- case workloads ------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CaseCall:
    """One ``api.run_case`` of a pass: the case, its seeded overrides
    (drawn only within ranges where the case's own checks pass), and the
    shortening applied to warm-up calls and coverage probes."""

    case: str
    overrides: Callable[[random.Random], dict[str, Any]]
    short: tuple[tuple[str, Any], ...] = ()


def _vessel_overrides(rng: random.Random) -> dict[str, Any]:
    return {
        "tau": _round(rng.uniform(0.76, 0.84)),
        "forcing": (_round(rng.uniform(3.5e-6, 4.5e-6)), 0.0, 0.0),
    }


def _bifurcation_overrides(rng: random.Random) -> dict[str, Any]:
    return {
        "tau": _round(rng.uniform(0.76, 0.84)),
        "forcing": (_round(rng.uniform(0.9e-5, 1.1e-5)), 0.0, 0.0),
    }


def _box_overrides(rng: random.Random) -> dict[str, Any]:
    return {
        "shape": (32, 32, 32),
        "steps": 100,
        "tau": _round(rng.uniform(0.6, 0.9)),
        "u0": _round(rng.uniform(5e-4, 2e-3)),
    }


VESSEL_CALLS = (
    CaseCall("artery-flow", _vessel_overrides, (("steps", 50),)),
    CaseCall("bifurcating-vessel", _bifurcation_overrides),
)
BOX_CALLS = (CaseCall("taylor-green", _box_overrides, (("steps", 10),)),)


def _case_workload(ctx: Context, calls: tuple[CaseCall, ...], min_ops: int) -> Outcome:
    out = Outcome()
    setup = [] if ctx.trace else probes.setup_samples(ctx.env)

    from repro import api

    tracer = ctx.tracer
    sims: list = []

    def one_pass(traced: bool, short: bool = False) -> float:
        updates = 0
        start = time.perf_counter()
        with tracer.operation("case.pass") if traced else contextlib.nullcontext():
            for call in calls:
                overrides = call.overrides(ctx.rng)
                if short:
                    overrides.update(call.short)
                with tracer.span("api.run_case") if traced else contextlib.nullcontext():
                    outcome = api.run_case(call.case, overrides=overrides)
                out.tally.add(check_case(outcome.passed))
                sim = outcome.result.simulation
                updates += sim.num_cells * sim.timings.steps
                if traced:
                    sims.append(sim)
        wall = time.perf_counter() - start
        out.samples.setdefault("mflups", []).append(updates / wall / 1e6)
        out.samples.setdefault("work_rate", []).append(updates / wall)
        return wall

    if ctx.probe:
        with case_targets(tracer):
            one_pass(traced=True, short=True)
        out.layers = case_layers(tracer, sims, "case.pass")
        return out

    # Warm-up: imports, lazy set-up and allocator state, on shortened calls.
    one_pass(traced=False, short=True)
    out.samples.clear()
    if ctx.trace:
        plain = [one_pass(traced=False)]
        n = max(1, min(3, round(ctx.seconds / 2 / plain[0])))
        plain += [one_pass(traced=False) for _ in range(n - 1)]
        with case_targets(tracer):
            traced = [one_pass(traced=True) for _ in range(n)]
        out.layers = case_layers(tracer, sims, "case.pass")
        out.layers["trace.overhead_ratio"] = median(traced) / median(plain)
        return out

    walls = measure(ctx, lambda: one_pass(traced=False), min_ops)
    out.samples["setup_s"] = setup
    out.e2e = {
        "setup_s": median(setup),
        "peak_rss_mb": max(rss_mb(resource.RUSAGE_SELF), rss_mb(resource.RUSAGE_CHILDREN)),
        "op_latency_ms": median(walls) * 1e3,
        "work_rate": median(out.samples["work_rate"]),
    }
    return out


def vessel_forced(ctx: Context) -> Outcome:
    return _case_workload(ctx, VESSEL_CALLS, min_ops=2)


def periodic_box(ctx: Context) -> Outcome:
    return _case_workload(ctx, BOX_CALLS, min_ops=3)


# -- sweep-small ---------------------------------------------------------------

SWEEP_CASE = "taylor-green"
TRACEBACK = "Traceback (most recent call last)"


def sweep_grid(rng: random.Random) -> dict[str, list[float]]:
    """16 one-step variants: four distinct ``tau`` in [0.6, 0.9) by four
    distinct ``u0`` in [5e-4, 2e-3]."""
    taus = sorted(rng.sample(range(6000, 9000), 4))
    u0s = sorted(rng.sample(range(5, 21), 4))
    return {"tau": [t / 10000 for t in taus], "u0": [u / 10000 for u in u0s]}


def _sweep_args(grid: dict[str, list[float]]) -> list[str]:
    args = ["-m", "repro", "sweep", SWEEP_CASE]
    for key, values in grid.items():
        args += ["--param", f"{key}=" + ",".join(repr(v) for v in values)]
    return args + ["--steps", "1", "--json"]


@dataclasses.dataclass
class SweepCounters:
    bad_json: int = 0
    crashes: int = 0
    fleet_dirs: list[Path] = dataclasses.field(default_factory=list)


def _sweep_round(ctx: Context, out: Outcome, counters: SweepCounters, traced: bool) -> float:
    """The three CLI legs on one seeded grid; returns the round's wall time."""
    args = _sweep_args(sweep_grid(ctx.rng))
    pool_dir, fleet_dir = ctx.fresh_dir("sweep-pool"), ctx.fresh_dir("sweep-fleet")
    counters.fleet_dirs.append(fleet_dir)
    legs = (
        ("sweep_cold_vps", ["--jobs", "2", "--cache-dir", str(pool_dir)]),
        ("fleet_cold_vps", ["--workers", "2", "--cache-dir", str(fleet_dir)]),
        ("sweep_warm_vps", ["--jobs", "2", "--cache-dir", str(pool_dir)]),
    )
    reference = None
    total = 0.0
    for metric, extra in legs:
        start = time.perf_counter()
        with ctx.tracer.operation(f"cli.{metric}") if traced else contextlib.nullcontext():
            proc = ctx.env.python(*args, *extra)
        wall = time.perf_counter() - start
        total += wall
        verdict = out.tally.add(check_cli(proc.returncode, proc.stdout, proc.stderr, reference))
        if parse_single_json(proc.stdout) is None:
            counters.bad_json += 1
        if TRACEBACK in proc.stderr:
            counters.crashes += 1
        if reference is None and verdict.ok:
            reference = parse_single_json(proc.stdout)
        out.samples.setdefault(metric, []).append(16 / wall)
    out.samples.setdefault("work_rate", []).append(3 * 16 / total)
    return total


@contextlib.contextmanager
def _captured_fds(path: Path):
    """Send fds 1 and 2 to ``path`` while in-process fleet workers run,
    so their output cannot mix into the benchmark's result line; the
    caller scans it for tracebacks."""
    sys.stdout.flush()
    sys.stderr.flush()
    saved = os.dup(1), os.dup(2)
    with path.open("w") as sink:
        os.dup2(sink.fileno(), 1)
        os.dup2(sink.fileno(), 2)
        try:
            yield
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os.dup2(saved[0], 1)
            os.dup2(saved[1], 2)
            os.close(saved[0])
            os.close(saved[1])


def _sweep_layers(ctx: Context, out: Outcome, counters: SweepCounters) -> None:
    """In-process sweep layers: planning, the executor and scheduler
    overhead factors against the serial per-variant time, cache put and
    lookup, the fleet ledger, and runner layers of the serial baseline."""
    from repro import api
    from repro.scenarios.cache import ResultCache

    tracer = ctx.tracer
    grid = sweep_grid(ctx.rng)
    with tracer.operation("scenarios.executor.plan"):
        request = api.sweep_request(SWEEP_CASE, grid, steps=1)
    api.run_case(SWEEP_CASE, steps=1)  # warm the in-process path
    sims = []
    with case_targets(tracer):
        for variant in request.variants:
            with tracer.operation("sweep.variant"), tracer.span("api.run_case"):
                outcome = api.run_case(SWEEP_CASE, steps=1, overrides=variant)
            out.tally.add(check_case(outcome.passed))
            sims.append(outcome.result.simulation)
    out.layers.update(case_layers(tracer, sims, "sweep.variant"))
    serial = median([s.duration for s in tracer.named("sweep.variant")])
    ideal = len(request) * serial / 2  # two processes, no overhead

    start = time.perf_counter()
    result = api.run_sweep(SWEEP_CASE, grid, steps=1, jobs=2)
    out.layers["scenarios.executor.overhead_factor"] = (time.perf_counter() - start) / ideal
    out.tally.add(check_case(result.passed))

    fleet_dir = ctx.fresh_dir("inproc-fleet")
    counters.fleet_dirs.append(fleet_dir)
    log = ctx.env.work / "inproc-fleet.log"
    start = time.perf_counter()
    with _captured_fds(log):
        result = api.run_sweep(SWEEP_CASE, grid, steps=1, workers=2, cache_dir=fleet_dir)
    out.layers["scenarios.scheduler.overhead_factor"] = (time.perf_counter() - start) / ideal
    out.tally.add(check_case(result.passed))
    if TRACEBACK in log.read_text():
        counters.crashes += 1

    retries = quarantined = 0
    for path in counters.fleet_dirs:
        status = api.sweep_status(path)
        for record in (*status.failing, *status.quarantined):
            retries += record.attempt_count - (1 if record.quarantined else 0)
        quarantined += len(status.quarantined)

    cache_dir = ctx.fresh_dir("inproc-cache")
    with tracer.wrap((ResultCache, "put", "scenarios.cache.put")):
        api.run_sweep(SWEEP_CASE, grid, steps=1, cache_dir=cache_dir)
    hits: list[bool] = []
    lookup = ResultCache.lookup

    def traced_lookup(self, fingerprint):
        with tracer.span("scenarios.cache.lookup"):
            found = lookup(self, fingerprint)
        hits.append(found.hit)
        return found

    ResultCache.lookup = traced_lookup
    try:
        api.run_sweep(SWEEP_CASE, grid, steps=1, cache_dir=cache_dir)  # warm replay
    finally:
        ResultCache.lookup = lookup
    hit_ratio = sum(hits) / len(hits)
    out.layers.update(
        {
            "scenarios.executor.plan_s": tracer.named("scenarios.executor.plan")[-1].duration,
            "scenarios.cache.put_s": median([s.duration for s in tracer.named("scenarios.cache.put")]),
            "scenarios.cache.lookup_s": median(
                [s.duration for s in tracer.named("scenarios.cache.lookup")]
            ),
            "scenarios.cache.hit_ratio": hit_ratio,
            "scenarios.cli.bad_json": float(counters.bad_json),
            "scenarios.workers.crashes": float(counters.crashes),
            "scenarios.workers.retries": float(retries),
            "scenarios.workers.quarantined": float(quarantined),
        }
    )
    if hit_ratio != 1.0:
        out.notes.append(f"warm replay hit ratio {hit_ratio:.3f}, expected 1.0")
        out.tally.wrong += 1


def sweep_small(ctx: Context) -> Outcome:
    out = Outcome()
    counters = SweepCounters()
    if ctx.trace:
        plain = None if ctx.probe else _sweep_round(ctx, out, counters, traced=False)
        traced = _sweep_round(ctx, out, counters, traced=True)
        _sweep_layers(ctx, out, counters)
        if plain is not None:
            out.layers["trace.overhead_ratio"] = traced / plain
        return out

    setup = probes.setup_samples(ctx.env)
    walls = measure(ctx, lambda: _sweep_round(ctx, out, counters, traced=False), 3)
    out.samples["setup_s"] = setup
    out.e2e = {
        "setup_s": median(setup),
        "peak_rss_mb": rss_mb(resource.RUSAGE_CHILDREN),
        "op_latency_ms": median(walls) * 1e3,
        "work_rate": median(out.samples["work_rate"]),
    }
    return out


def serve_mixed(ctx: Context) -> Outcome:
    return serveload.run(ctx, Outcome())


WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "vessel-forced": vessel_forced,
    "periodic-box": periodic_box,
    "sweep-small": sweep_small,
    "serve-mixed": serve_mixed,
}

