"""Metric declarations, sample statistics and the ``BENCHMARK.json`` shape.

This module is the one place that names the benchmark's workloads and
metrics.  ``BENCHMARK.json`` at the repository root is generated from it
(``python3 perfbench/run.py --write-manifest``) and a test checks that
the two agree.

Every workload reports every end-to-end metric (on its own unit of work,
see ``README.md``); the headline metrics of each workload (``mflups``,
``sweep_cold_vps``, ``http_p50_ms`` ...) are printed in the human summary
above the JSON line, each as median, tail percentile and sample count.
"""

from __future__ import annotations

import dataclasses
import math
import re
from typing import Sequence

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Seconds one run measures for (``--seconds``).
RUN_SECONDS = 20


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclasses.dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


@dataclasses.dataclass(frozen=True)
class Layer:
    """One per-layer metric of the traced run.

    ``source`` names the workload whose own operations measure it; the
    traced run of any other workload fills it from a short probe of that
    workload (see ``run.py``).  ``moves`` is the end-to-end metric it
    should move, on which workload.
    """

    name: str
    unit: str
    better: str
    source: tuple[str, ...]
    moves: str


WORKLOADS = (
    Workload(
        "vessel-forced",
        "forced, walled dense D3Q19 stepping path (artery-flow) plus the only "
        "core.sparse user (bifurcating-vessel); collide and bounce-back "
        "dominate",
    ),
    Workload(
        "periodic-box",
        "kernel alone: 32^3 taylor-green, no forcing and no walls, 4.98 MB "
        "per population array; the roofline workload",
    ),
    Workload(
        "sweep-small",
        "16 one-step variants through the CLI (cold pool, cold fleet, warm "
        "replay): startup, orchestration and cache writes/reads dominate",
    ),
    Workload(
        "serve-mixed",
        "open-loop POST /v1/case stream on a warm cache, mostly warm hits "
        "plus cold submissions that rewrite queue.json: HTTP and job store",
    ),
)

#: Definitions per workload are in README.md.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
    EndToEnd("op_latency_ms", "ms", "lower", 0.25),
    EndToEnd("work_rate", "1/s", "higher", 0.25),
)

#: Headline metrics printed in the human summary, per workload:
#: name -> (unit, better).
REPORTED = {
    "vessel-forced": {"mflups": ("MFLUP/s", "higher")},
    "periodic-box": {"mflups": ("MFLUP/s", "higher")},
    "sweep-small": {
        "sweep_cold_vps": ("variants/s", "higher"),
        "fleet_cold_vps": ("variants/s", "higher"),
        "sweep_warm_vps": ("variants/s", "higher"),
    },
    # The tail column of http_p50_ms is the p99 (1,000 samples at 20 s).
    "serve-mixed": {
        "http_p50_ms": ("ms", "lower"),
        "http_max_rps": ("req/s", "higher"),
    },
}

_CASES = ("vessel-forced", "periodic-box")
_ALL = tuple(w.name for w in WORKLOADS)
_SWEEP = ("sweep-small",)
_SERVE = ("serve-mixed",)

LAYERS = (
    Layer("repro.import_s", "s", "lower", _ALL, "setup_s (all); sweep_cold_vps"),
    Layer("repro.numpy_import_s", "s", "lower", _ALL, "floor under repro.import_s"),
    Layer("repro.modules", "count", "lower", _ALL, "setup_s (all)"),
    Layer("repro.third_party_modules", "count", "lower", _ALL, "setup_s (all)"),
    Layer("core.simulation.stream_s", "s", "lower", _CASES, "mflups (vessel-forced)"),
    Layer("core.simulation.boundary_s", "s", "lower", _CASES, "mflups (vessel-forced)"),
    Layer("core.simulation.collide_s", "s", "lower", _CASES, "mflups (vessel-forced)"),
    Layer("core.simulation.step_alloc_kb", "KB", "lower", _CASES, "mflups (vessel-forced)"),
    Layer("core.plan.bytes_per_cell", "B", "lower", _CASES, "mflups (periodic-box)"),
    Layer("machine.copy_gbs", "GB/s", "higher", _ALL, "roofline denominator"),
    Layer("machine.working_set_mb", "MB", "lower", _ALL, "population array size"),
    Layer("core.plan.overhead_factor", "ratio", "lower", _CASES, "mflups (periodic-box)"),
    Layer("core.sparse.step_s", "s", "lower", ("vessel-forced",), "mflups (vessel-forced)"),
    Layer("scenarios.runner.build_s", "s", "lower", _CASES, "mflups (case workloads)"),
    Layer("scenarios.runner.step_s", "s", "lower", _CASES, "mflups (case workloads)"),
    Layer("scenarios.runner.observe_s", "s", "lower", _CASES, "mflups (case workloads)"),
    Layer("scenarios.runner.analyze_s", "s", "lower", _CASES, "mflups (case workloads)"),
    Layer("scenarios.runner.self_s", "s", "lower", _CASES, "mflups (case workloads)"),
    Layer("scenarios.runner.first_call_s", "s", "lower", _ALL, "sweep_cold_vps"),
    Layer("scenarios.executor.plan_s", "s", "lower", _SWEEP, "sweep_cold_vps"),
    Layer("scenarios.executor.payload_s", "s", "lower", _CASES, "sweep_cold_vps"),
    Layer("scenarios.executor.overhead_factor", "ratio", "lower", _SWEEP, "sweep_cold_vps"),
    Layer("scenarios.scheduler.overhead_factor", "ratio", "lower", _SWEEP, "fleet_cold_vps"),
    Layer("scenarios.workers.crashes", "count", "lower", _SWEEP, "fleet_cold_vps, error_rate"),
    Layer("scenarios.workers.retries", "count", "lower", _SWEEP, "fleet_cold_vps, error_rate"),
    Layer("scenarios.workers.quarantined", "count", "lower", _SWEEP, "error_rate"),
    Layer("scenarios.cache.put_s", "s", "lower", _SWEEP, "sweep_cold_vps"),
    Layer("scenarios.cache.lookup_s", "s", "lower", _SWEEP, "sweep_warm_vps, http_p50_ms"),
    Layer("scenarios.cache.hit_ratio", "ratio", "higher", _SWEEP, "sweep_warm_vps"),
    Layer("scenarios.cli.bad_json", "count", "lower", _SWEEP, "error_rate (sweep-small)"),
    Layer("serve.jobs.submit_warm_ms", "ms", "lower", _SERVE, "http_p50_ms"),
    Layer("serve.jobs.submit_cold_ms", "ms", "lower", _SERVE, "http_p99_ms, http_max_rps"),
    Layer("serve.jobs.queue_items", "count", "lower", _SERVE, "http_p99_ms"),
    Layer("serve.http.wire_ms", "ms", "lower", _SERVE, "http_p50_ms"),
    Layer("serve.http.shed", "count", "lower", _SERVE, "error_rate (serve-mixed)"),
    Layer("serve.http.late_ms", "ms", "lower", _SERVE, "http_p50_ms (generator health)"),
    Layer("trace.overhead_ratio", "ratio", "lower", _ALL, "none: tracing cost"),
)

WORKLOAD_NAMES = _ALL


def benchmark_manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in LAYERS
        ],
    }


# -- statistics --------------------------------------------------------------

#: Percentiles the tail is chosen from (see :func:`tail`).
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float], better: str) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it.

    The bad side is the high end for lower-is-better metrics and the low
    end for higher-is-better ones (``p1`` is the rate 99% of samples
    beat).  ``None`` below 40 samples, where no percentile above the
    median leaves ten beyond it.
    """
    n = len(values)
    for pct in _TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            if better == "lower":
                return f"p{pct:g}", percentile(values, pct)
            return f"p{100 - pct:g}", -percentile([-v for v in values], pct)
    return None
