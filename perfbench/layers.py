"""Per-layer figures of case runs, derived from spans and simulation timings.

The spans wrap the program's public boundaries from outside (see
:mod:`perfbench.tracing`); the simulation's own ``Simulation.timings`` give
the stream/boundary/collide split of each step.
"""

from __future__ import annotations

from . import probes
from .metrics import median
from .tracing import Tracer

RUNNER_PARTS = ("build", "step", "observe", "analyze", "self")


def case_targets(tracer: Tracer):
    """Trace the layers one ``api.run_case`` goes through.

    ``CaseRunner._record`` is the one place the spec's observables are
    probed; wrapping the probes themselves would change the spec
    fingerprints they are part of.
    """
    from repro import api
    from repro.core.simulation import Simulation
    from repro.core.sparse import SparseSimulation
    from repro.scenarios import executor
    from repro.scenarios.runner import CaseRunner

    return tracer.wrap(
        (CaseRunner, "run", "scenarios.runner.run"),
        (CaseRunner, "build", "scenarios.runner.build"),
        (CaseRunner, "_record", "scenarios.runner.observe"),
        (Simulation, "run", "core.simulation.run"),
        (SparseSimulation, "run", "core.sparse.run"),
        (api, "case_payload", "scenarios.executor.payload"),
        (executor, "case_payload", "scenarios.executor.payload"),
    )


def _add_analyze_spans(tracer: Tracer) -> None:
    """``analysis`` + ``checks`` run after the last observable record of
    ``CaseRunner.run``: give that tail its own span."""
    for run in tracer.named("scenarios.runner.run"):
        kids = tracer.children(run)
        if kids and not any(k.name == "scenarios.runner.analyze" for k in kids):
            last = max(k.end for k in kids)
            tracer.add("scenarios.runner.analyze", last, run.end, run.span_id)


def is_sparse(sim) -> bool:
    from repro.core.sparse import SparseSimulation

    return isinstance(sim, SparseSimulation)


def case_layers(tracer: Tracer, sims: list, op_name: str) -> dict[str, float]:
    """Runner, simulation, sparse and payload layers, per operation, of the
    traced operations called ``op_name`` (each holding ``api.run_case``
    spans) and the simulations those calls returned."""
    _add_analyze_spans(tracer)
    per_op: dict[str, list[float]] = {}
    for op in tracer.named(op_name):
        sums = dict.fromkeys((*RUNNER_PARTS, "payload"), 0.0)
        for call in tracer.under(op, "api.run_case"):
            sums["self"] += tracer.self_time(call)
            for run in tracer.under(call, "scenarios.runner.run"):
                sums["self"] += tracer.self_time(run)
            for key, name in (
                ("build", "scenarios.runner.build"),
                ("observe", "scenarios.runner.observe"),
                ("analyze", "scenarios.runner.analyze"),
                ("payload", "scenarios.executor.payload"),
                ("step", "core.simulation.run"),
                ("step", "core.sparse.run"),
            ):
                sums[key] += sum(s.duration for s in tracer.under(call, name))
        for key, value in sums.items():
            per_op.setdefault(key, []).append(value)
    layers = {f"scenarios.runner.{key}_s": median(per_op[key]) for key in RUNNER_PARTS}
    layers["scenarios.executor.payload_s"] = median(per_op["payload"])

    dense = [s for s in sims if not is_sparse(s)]
    sparse = [s for s in sims if is_sparse(s)]
    if dense:
        steps = sum(s.timings.steps for s in dense)
        for part in ("stream", "boundary", "collide"):
            total = sum(getattr(s.timings, f"{part}_seconds") for s in dense)
            layers[f"core.simulation.{part}_s"] = total / steps
        layers["core.simulation.step_alloc_kb"] = probes.step_alloc_kb(dense[-1])
        layers.update(roofline(dense[-1], layers))
    if sparse:
        steps = sum(s.timings.steps for s in sparse)
        layers["core.sparse.step_s"] = sum(s.timings.total_seconds for s in sparse) / steps
    return layers


def roofline(sim, layers: dict[str, float]) -> dict[str, float]:
    """Copy bandwidth on the simulation's population-array size, measured
    now, and the measured step time over the computed-bytes bound.

    ``bytes_per_cell`` is ``machine.roofline.bytes_per_cell``: computed
    from array sizes, so it ignores cache misses.
    """
    from repro.machine.roofline import bytes_per_cell

    nbytes = sim.f.nbytes
    copy_gbs = probes.copy_bandwidth(nbytes)
    step_s = sum(layers[f"core.simulation.{p}_s"] for p in ("stream", "boundary", "collide"))
    bpc = bytes_per_cell(sim.lattice, str(sim.f.dtype))
    predicted = bpc * sim.num_cells / (copy_gbs * 1e9)
    return {
        "machine.copy_gbs": copy_gbs,
        "machine.working_set_mb": nbytes / 1e6,
        "core.plan.bytes_per_cell": float(bpc),
        "core.plan.overhead_factor": step_s / predicted,
    }
