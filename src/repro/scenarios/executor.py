"""Per-variant execution pieces shared by every sweep path.

The sweep engine (:class:`~repro.scenarios.scheduler.SweepScheduler`),
its workers, the adaptive sampler and the case API all build on these:
:class:`SweepPlan` (the index-aligned expansion of one sweep),
:func:`_execute_variant` (the one function that runs a variant, inline
or in a worker), the canonical payload builders, and the cache probe.

Results are reduced to their scalar outcomes (metrics, observable
series, checks) before crossing process or disk boundaries; wall-clock
metrics such as ``mflups`` are stripped because they can never be
deterministic, and everything else round-trips through canonical JSON
so a sweep run by N workers emits tables byte-identical to an inline
run and to a warm-cache replay.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..core.io import serialize_result_data
from ..errors import ScenarioError
from ..resilience import FailureLedger, FailureRecord
from ..telemetry.recorder import (
    NullTelemetry,
    Telemetry,
    get_telemetry,
    process_recorder,
)
from .cache import ResultCache, SweepManifest
from .registry import get_case
from .runner import CaseResult, CaseRunner
from .spec import CaseSpec
from .sweep import Sweep, SweepResult

__all__ = [
    "SweepPlan",
    "case_payload",
    "failed_payload",
    "open_cache",
    "record_failure",
    "result_from_payload",
    "usable_entry",
    "NONDETERMINISTIC_METRICS",
]

#: Metrics derived from wall-clock timing: meaningless to cache, fatal
#: to determinism, so the executor drops them from every payload.
#: ``distributed_mflups`` is the scaling-study case's measured slab
#: throughput (PR 5), as host-dependent as the driver's own ``mflups``.
NONDETERMINISTIC_METRICS = frozenset({"mflups", "distributed_mflups"})


@dataclasses.dataclass(frozen=True)
class _VariantTask:
    """One variant's work order (what a worker rebuilds a variant from)."""

    case: CaseSpec | str
    overrides: tuple[tuple[str, Any], ...]
    analyze: bool
    fingerprint: str
    #: Per-run telemetry directory; set, the executing process emits a
    #: ``variant`` span + counters into its own event file there.
    telemetry_dir: str | None = None


def _task_telemetry(task: _VariantTask) -> "Telemetry | NullTelemetry":
    """The recorder ``_execute_variant`` reports through.

    Resolved *in the executing process*: with ``task.telemetry_dir``
    the per-process file recorder (worker processes forked from an
    instrumented parent get their own file, keyed by pid), else the
    ambient recorder — the no-op default, or whatever the surrounding
    worker installed.
    """
    if task.telemetry_dir:
        return process_recorder(task.telemetry_dir)
    return get_telemetry()


def _execute_variant(task: _VariantTask) -> dict[str, Any]:
    """Run one variant and reduce it to a canonical payload.

    Inline runs and fleet workers both call it; recomputing the
    fingerprint in the worker doubles as a cross-process stability
    check on :meth:`CaseSpec.fingerprint`.  With telemetry enabled the
    run is wrapped in a ``variant`` span (fingerprint, case, steps,
    cells) and counted — the raw material for per-worker MFLUP/s
    rollups; the payload itself stays byte-identical either way.
    """
    runner = CaseRunner(task.case, **dict(task.overrides))
    fingerprint = runner.spec.fingerprint()
    if fingerprint != task.fingerprint:
        raise ScenarioError(
            f"variant fingerprint mismatch for case {runner.spec.name!r}: "
            f"scheduler saw {task.fingerprint[:12]}, worker computed "
            f"{fingerprint[:12]} — CaseSpec.fingerprint is not process-stable"
        )
    telemetry = _task_telemetry(task)
    with telemetry.span(
        "variant", fingerprint=fingerprint, case=runner.spec.name
    ) as span:
        result = runner.run(analyze=task.analyze)
        if telemetry.enabled:
            # Late attrs, known only after the run; recorded when the
            # span closes right below.
            steps = int(result.metrics.get("steps_run", 0))
            cells = (
                int(result.simulation.num_cells)
                if result.simulation is not None
                else int(math.prod(runner.spec.shape))
            )
            span.set(steps=steps, cells=cells)
    if telemetry.enabled:
        telemetry.count("variant.completed")
        telemetry.count("variant.updates", steps * cells)
        telemetry.count("variant.seconds", span.seconds or 0.0)
    return case_payload(result, analyze=task.analyze)


def case_payload(result: CaseResult, *, analyze: bool) -> dict[str, Any]:
    """Reduce one finished case run to its canonical cacheable payload.

    The single payload builder behind cache entries, CLI ``--json``
    output and serve HTTP bodies: timing-derived metrics are dropped
    (:data:`NONDETERMINISTIC_METRICS`) and floats round-trip through
    canonical JSON, so the same spec yields byte-identical payloads on
    any host, warm or cold.
    """
    metrics = {
        k: v for k, v in result.metrics.items()
        if k not in NONDETERMINISTIC_METRICS
    }
    payload = json.loads(
        serialize_result_data(metrics, result.series, result.checks)
    )
    payload["case"] = result.spec.name
    # Recorded so a cached analyze=False payload (no analysis metrics,
    # vacuous checks) is never served to an analyze=True sweep.
    payload["analyze"] = analyze
    return payload


def _portable_case_ref(base: CaseSpec) -> CaseSpec | str:
    """What workers rebuild the case from: the registry name when it
    resolves back to this very spec (always picklable, and resolvable
    on *other hosts*), else the spec object itself."""
    try:
        if get_case(base.name) is base:
            return base.name
    except ScenarioError:
        pass
    return base


def result_from_payload(
    spec: CaseSpec, payload: Mapping[str, Any]
) -> CaseResult:
    """Rehydrate a lean :class:`CaseResult` (no simulation attached)."""
    return CaseResult(
        spec=spec,
        simulation=None,
        series={
            str(k): [float(v) for v in vs]
            for k, vs in payload["series"].items()
        },
        metrics=dict(payload["metrics"]),
        checks={str(k): bool(v) for k, v in payload["checks"].items()},
        failed=bool(payload.get("failed", False)),
    )


def failed_payload(case: str, record: Any, *, analyze: bool) -> dict[str, Any]:
    """Placeholder payload for a quarantined variant.

    Shaped like a real :func:`case_payload` (so it rehydrates through
    :func:`result_from_payload` into an explicit ``FAILED`` row) but
    never written to the result cache — the cache stays
    content-addressed over *successful* runs only, and clearing the
    failure ledger is all it takes to retry.
    """
    last = record.last
    return {
        "case": case,
        "analyze": analyze,
        "failed": True,
        "series": {},
        "metrics": {},
        "checks": {},
        "error": {
            "exception": last.exception if last is not None else "unknown",
            "message": last.message if last is not None else "",
            "attempts": record.attempt_count,
        },
    }


def record_failure(
    ledger: FailureLedger,
    fingerprint: str,
    exc: BaseException,
    telemetry: "Telemetry | NullTelemetry",
    worker: str = "",
) -> FailureRecord:
    """Record one failed attempt in the failure ledger (which
    quarantines at ``max_attempts``) and in telemetry — the one failure
    path of workers and inline runs alike.  Check ``.quarantined`` on
    the returned record to learn whether this attempt was the last."""
    record = ledger.record_failure(fingerprint, exc, worker=worker)
    if telemetry.enabled:
        telemetry.count("variant.failed")
        telemetry.event(
            "variant.failed",
            worker=worker,
            fingerprint=fingerprint,
            attempt=record.attempt_count,
            exception=type(exc).__name__,
            message=str(exc)[:200],
        )
        if record.quarantined:
            telemetry.count("variant.quarantined")
            telemetry.event(
                "variant.quarantined",
                worker=worker,
                fingerprint=fingerprint,
                attempts=record.attempt_count,
                exception=type(exc).__name__,
            )
    return record


def usable_entry(
    cache: ResultCache,
    fingerprint: str,
    analyze: bool,
    count: bool = True,
) -> dict[str, Any] | None:
    """The cached payload for one variant iff it matches this sweep's
    ``analyze`` mode (an analyze=False smoke payload has no analysis
    metrics and vacuous checks, so it must never satisfy a full run).

    The default probe goes through :meth:`ResultCache.lookup`, which
    records ``cache.hit``/``cache.miss``/``cache.corrupt`` counters on
    the cache's recorder; ``count=False`` probes silently
    (:meth:`ResultCache.get`) for read-only status checks and
    under-lease re-checks that would otherwise inflate the counters."""
    entry = cache.lookup(fingerprint).payload if count else cache.get(fingerprint)
    if entry is not None and entry.get("analyze") == analyze:
        return entry
    return None


@dataclasses.dataclass(frozen=True)
class SweepPlan:
    """Index-aligned expansion of one sweep, in grid order.

    ``variants`` are the raw grid points, ``overrides`` merge the
    sweep-level step count, ``specs`` are the validated variant specs
    and ``fingerprints`` their content hashes (the cache keys).  All
    four lists share indices; every consumer — executor, distributed
    scheduler, adaptive sampler — derives its work from one plan so
    their outputs are bit-identical over any subset.
    """

    case: str
    parameters: tuple[str, ...]
    variants: list[dict[str, Any]]
    overrides: list[dict[str, Any]]
    specs: list[CaseSpec]
    fingerprints: list[str]
    case_ref: CaseSpec | str

    @classmethod
    def of(cls, sweep: Sweep) -> "SweepPlan":
        base = sweep.spec
        # One expansion; overrides/specs/fingerprints are derived views
        # of it and must stay index-aligned.
        variants = sweep.expand()
        overrides = [sweep._with_steps(v) for v in variants]
        specs = [CaseRunner(base, **o).spec for o in overrides]
        return cls(
            case=base.name,
            parameters=tuple(sweep.parameters),
            variants=variants,
            overrides=overrides,
            specs=specs,
            fingerprints=[spec.fingerprint() for spec in specs],
            case_ref=_portable_case_ref(base),
        )

    def __len__(self) -> int:
        return len(self.variants)

    def task(
        self, index: int, analyze: bool, telemetry_dir: str | None = None
    ) -> _VariantTask:
        """The picklable work order for one variant."""
        return _VariantTask(
            case=self.case_ref,
            overrides=tuple(sorted(self.overrides[index].items())),
            analyze=analyze,
            fingerprint=self.fingerprints[index],
            telemetry_dir=telemetry_dir,
        )

    def result(
        self, indices: Iterable[int], payloads: Mapping[int, Mapping[str, Any]],
        provenance: Mapping[int, str], **extra: Any,
    ) -> SweepResult:
        """Assemble a :class:`SweepResult` over ``indices`` (grid order)."""
        order = sorted(indices)
        return SweepResult(
            case=self.case,
            parameters=self.parameters,
            variants=[self.variants[i] for i in order],
            results=[
                result_from_payload(self.specs[i], payloads[i]) for i in order
            ],
            provenance=[provenance[i] for i in order],
            fingerprints=[self.fingerprints[i] for i in order],
            **extra,
        )


def open_cache(
    cache_dir: str | Path,
    case: str,
    parameters: Iterable[str],
    fingerprints: list[str],
    resume: bool = False,
) -> tuple[ResultCache, SweepManifest]:
    """The (cache, manifest) pair for one sweep over one directory.

    ``resume=True`` requires a manifest from an earlier interrupted run
    of this same sweep (a safety latch: resuming a *different* sweep
    over the same directory is an error, not a silent cache mixup);
    otherwise a fresh manifest is created unless a matching one exists.
    """
    cache = ResultCache(cache_dir)
    parameters = list(parameters)
    if resume:
        manifest = SweepManifest.resume(cache.root, case, parameters, fingerprints)
    else:
        manifest = SweepManifest.load(cache.root)
        if manifest is None or manifest.fingerprints != fingerprints:
            manifest = SweepManifest.create(
                cache.root, case, parameters, fingerprints
            )
    return cache, manifest
