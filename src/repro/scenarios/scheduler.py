"""The sweep execution engine and its shared-directory coordination.

The paper's strong-scaling study ran the lattice Boltzmann model across
hundreds of thousands of independent ranks; this module gives sweeps
the same shape at the campaign level.  :class:`SweepScheduler` is the
one engine every sweep runs through: it probes the result cache once
per variant, hands the pending variants to N worker processes
(:mod:`repro.scenarios.workers`) — local ones it launches itself, or
``repro sweep-worker`` processes on other hosts — and merges the
results in grid order, running any leftovers inline.  The workers
divide the variants between them with nothing but a shared directory
for coordination.

The coordination substrate is the result cache layout, extended with
two artifacts:

``queue.json``
    The published work order: case name, per-variant overrides and
    fingerprints, and the analyze mode.  Host-agnostic — a worker needs
    only this file and the case registry to rebuild each variant.
``leases/<fingerprint>.lease``
    Atomic claim files (:class:`~repro.core.io.ClaimRecord`): a worker
    that creates one owns that variant until it commits or the lease
    expires.  Stale leases — expired TTL, or a same-host owner whose
    pid is gone — are reclaimed by any other worker, so a worker killed
    mid-variant costs one re-run, never a hung sweep.

Correctness never depends on the leases: cache commits are
content-addressed and idempotent (two workers racing on one variant
write byte-identical entries), so leases are purely a
don't-duplicate-work optimisation.  That is what makes the engine
deterministic: an inline run, N workers and a warm-cache replay all
assemble the same payloads in grid order, so their tables are
bit-identical.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import multiprocessing
import os
import socket
import tempfile
import time
import uuid
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..core.io import (
    ClaimRecord,
    break_claim,
    read_claim,
    refresh_claim,
    release_claim,
    write_claim,
)
from ..errors import ScenarioError
from ..resilience import DEFAULT_MAX_ATTEMPTS, FailureLedger, FailureRecord
from ..telemetry.aggregate import FleetRollup
from ..telemetry.recorder import (
    TELEMETRY_DIRNAME,
    NullTelemetry,
    Telemetry,
    get_telemetry,
    process_recorder,
)
from . import executor as _executor
from .cache import (
    QUEUE_FILENAME,
    ResultCache,
    SweepManifest,
    _atomic_write,
    sweep_key,
)
from .executor import (
    SweepPlan,
    _VariantTask,
    failed_payload,
    open_cache,
    record_failure,
    usable_entry,
)
from .sweep import Sweep, SweepResult

__all__ = [
    "DEFAULT_LEASE_TTL",
    "LeaseBoard",
    "SweepScheduler",
    "SweepStatus",
    "WorkItem",
    "WorkQueue",
    "lease_holder",
    "predict_spec_costs",
    "sweep_status",
]

#: Default lease lifetime.  Live workers heartbeat their lease every
#: TTL/4 while a variant runs, so this bounds how long a *killed*
#: worker's variant stays unclaimable — not how slow a variant may be.
DEFAULT_LEASE_TTL = 300.0

_QUEUE_VERSION = 1
LEASE_DIRNAME = "leases"


def _retuple(value: Any) -> Any:
    """Undo JSON's tuple->list coercion on override values.

    The CLI and ``CaseSpec`` use tuples for fixed-arity values
    (``shape``, ``forcing``); round-tripping through ``queue.json``
    must hand workers the same types the scheduler fingerprinted."""
    if isinstance(value, list):
        return tuple(_retuple(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _retuple(v) for k, v in value.items()}
    return value


@dataclasses.dataclass(frozen=True)
class WorkItem:
    """One variant of a published sweep, as a worker sees it.

    ``cost`` is the publisher's predicted wall-clock seconds for the
    variant (from the host's fitted perf-model calibration, see
    :mod:`repro.perf.model`); ``None`` when no calibration covered it.
    Costs are advisory — they order claims, never gate them.  ``case``
    overrides the queue-level case name for this one item (how serve
    appends mix cases onto one queue); ``None`` inherits the queue's.
    """

    index: int
    overrides: dict[str, Any]
    fingerprint: str
    cost: float | None = None
    case: str | None = None

    def task(
        self, case: str, analyze: bool, telemetry_dir: str | None = None
    ) -> _VariantTask:
        return _VariantTask(
            case=self.case or case,
            overrides=tuple(sorted(self.overrides.items())),
            analyze=analyze,
            fingerprint=self.fingerprint,
            telemetry_dir=telemetry_dir,
        )


@dataclasses.dataclass
class WorkQueue:
    """The published work order one sweep exposes to its workers.

    Publishing requires a *registered* case (workers on other hosts
    rebuild variants from the registry by name) and JSON-serialisable
    overrides — closures cannot cross hosts.  The queue's ``key`` ties
    it to the manifest of the same sweep.
    """

    path: Path
    case: str
    parameters: list[str]
    analyze: bool
    items: list[WorkItem]

    @property
    def key(self) -> str:
        return sweep_key(self.case, [item.fingerprint for item in self.items])

    @classmethod
    def publish(
        cls,
        root: str | Path,
        plan: SweepPlan,
        analyze: bool,
        costs: "list[float | None] | None" = None,
        indices: Iterable[int] | None = None,
    ) -> "WorkQueue":
        """Atomically write the work order for ``plan`` under ``root``.

        ``indices`` restricts the order to those plan variants (the
        engine publishes only what its cache probe found missing);
        ``costs`` (index-aligned with the plan) stamps each item with
        its predicted wall-clock seconds so workers can claim
        longest-first; omitted or ``None`` entries publish uncosted.
        """
        if not isinstance(plan.case_ref, str):
            raise ScenarioError(
                f"distributed sweeps need a registered case; "
                f"{plan.case!r} does not resolve through the registry"
            )
        if costs is not None and len(costs) != len(plan.fingerprints):
            raise ScenarioError(
                f"costs must align with the plan: got {len(costs)} for "
                f"{len(plan.fingerprints)} variants"
            )
        chosen = range(len(plan)) if indices is None else sorted(indices)
        items_json: list[dict[str, Any]] = []
        for index in chosen:
            item = {
                "overrides": plan.overrides[index],
                "fingerprint": plan.fingerprints[index],
            }
            if costs is not None and costs[index] is not None:
                item["cost"] = float(costs[index])
            items_json.append(item)
        try:
            text = json.dumps(
                {
                    "version": _QUEUE_VERSION,
                    "case": plan.case,
                    "parameters": list(plan.parameters),
                    "analyze": analyze,
                    "items": items_json,
                },
                indent=1,
                sort_keys=True,
            )
        except (TypeError, ValueError) as exc:
            raise ScenarioError(
                "distributed sweeps need JSON-serialisable overrides "
                f"(case {plan.case!r}): {exc}"
            ) from exc
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        _atomic_write(root / QUEUE_FILENAME, text)
        return cls.load(root)

    @classmethod
    def append(
        cls,
        root: str | Path,
        entries: "list[tuple[str, dict[str, Any], str, float | None]]",
        analyze: bool = True,
    ) -> "WorkQueue":
        """Merge per-case work items into the queue under ``root``.

        ``entries`` are ``(case, overrides, fingerprint, cost)`` tuples;
        each item is written with an explicit per-item ``case`` so one
        queue can carry variants of many cases (the serve front end's
        shape — anything a client asks for lands on the same fleet).
        Existing items win on fingerprint collision, so re-submitting a
        request is idempotent.  Creates the queue when none exists.

        Read-modify-write: callers must serialise concurrent appends
        themselves (the serve process does, under one lock) or an
        append can drop a concurrent writer's items; the file itself is
        always replaced whole through a per-writer temp file, so
        readers never see a torn queue, and workers only ever read it —
        at worst a worker loaded the pre-append snapshot and picks the
        new items up on its next pass.
        """
        if analyze not in (True, False):
            raise ScenarioError(f"analyze must be a bool, got {analyze!r}")
        root = Path(root)
        existing: "WorkQueue | None" = None
        if (root / QUEUE_FILENAME).is_file():
            existing = cls.load(root)
            if existing.analyze != analyze:
                raise ScenarioError(
                    f"queue under {root} was published with "
                    f"analyze={existing.analyze}; cannot append "
                    f"analyze={analyze} items"
                )
        items_json: list[dict[str, Any]] = []
        seen: set[str] = set()
        parameters: list[str] = list(existing.parameters) if existing else []
        if existing is not None:
            for item in existing.items:
                entry: dict[str, Any] = {
                    "case": item.case or existing.case,
                    "overrides": item.overrides,
                    "fingerprint": item.fingerprint,
                }
                if item.cost is not None:
                    entry["cost"] = item.cost
                items_json.append(entry)
                seen.add(item.fingerprint)
        for case, overrides, fingerprint, cost in entries:
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            entry = {
                "case": str(case),
                "overrides": dict(overrides),
                "fingerprint": str(fingerprint),
            }
            if cost is not None:
                entry["cost"] = float(cost)
            items_json.append(entry)
            for name in sorted(overrides):
                if name not in parameters:
                    parameters.append(name)
        if not items_json:
            raise ScenarioError("cannot publish an empty work queue")
        try:
            text = json.dumps(
                {
                    "version": _QUEUE_VERSION,
                    "case": existing.case if existing else str(entries[0][0]),
                    "parameters": parameters,
                    "analyze": analyze,
                    "items": items_json,
                },
                indent=1,
                sort_keys=True,
            )
        except (TypeError, ValueError) as exc:
            raise ScenarioError(
                f"work queue items need JSON-serialisable overrides: {exc}"
            ) from exc
        root.mkdir(parents=True, exist_ok=True)
        _atomic_write(root / QUEUE_FILENAME, text)
        return cls.load(root)

    @classmethod
    def load(cls, root: str | Path) -> "WorkQueue":
        """Read the work order under ``root``; error if absent/corrupt."""
        path = Path(root) / QUEUE_FILENAME
        try:
            raw = json.loads(path.read_text())
            if raw["version"] != _QUEUE_VERSION:
                raise ScenarioError(
                    f"work queue {path} has version {raw['version']}, "
                    f"expected {_QUEUE_VERSION}"
                )
            items = [
                WorkItem(
                    index=index,
                    overrides={
                        str(k): _retuple(v)
                        for k, v in item["overrides"].items()
                    },
                    fingerprint=str(item["fingerprint"]),
                    cost=(
                        float(item["cost"]) if item.get("cost") is not None else None
                    ),
                    case=(
                        str(item["case"]) if item.get("case") is not None else None
                    ),
                )
                for index, item in enumerate(raw["items"])
            ]
            return cls(
                path=path,
                case=str(raw["case"]),
                parameters=[str(p) for p in raw["parameters"]],
                analyze=bool(raw["analyze"]),
                items=items,
            )
        except OSError as exc:
            raise ScenarioError(
                f"no published sweep under {Path(root)}: {exc} — run "
                "`repro sweep ... --cache-dir DIR --publish` first"
            ) from exc
        except (ValueError, KeyError, TypeError) as exc:
            raise ScenarioError(f"corrupt work queue {path}: {exc}") from exc

    def claim_order(self) -> list[WorkItem]:
        """The order workers should try to claim variants in.

        With a predicted cost on *every* item, claims go longest-first
        (LPT scheduling: starting the big variants early bounds the
        makespan at fleet-tail time, where grid order can strand the
        most expensive variant on the last worker).  Any uncosted item
        means the ranking would be arbitrary, so the order falls back
        to grid order wholesale.  Only claiming is reordered — merge
        (:meth:`SweepScheduler.collect`) always assembles grid order,
        so result tables stay bit-identical either way.
        """
        if any(item.cost is None for item in self.items):
            return list(self.items)
        return sorted(self.items, key=lambda item: (-item.cost, item.index))


class LeaseBoard:
    """Per-variant lease files under ``<cache root>/leases/``.

    A lease is an advisory, TTL-bounded exclusive claim: acquiring
    creates ``<fingerprint>.lease`` atomically; releasing removes it;
    a stale lease (expired, or same-host owner dead) may be reclaimed
    by anyone.  Because sweep commits are idempotent, every race here
    degrades to duplicated work, not corruption.
    """

    def __init__(
        self,
        root: str | Path,
        owner: str | None = None,
        ttl: float = DEFAULT_LEASE_TTL,
    ) -> None:
        if ttl <= 0:
            raise ScenarioError(f"lease ttl must be positive, got {ttl}")
        self.dir = Path(root) / LEASE_DIRNAME
        self.dir.mkdir(parents=True, exist_ok=True)
        self.host = socket.gethostname()
        self.pid = os.getpid()
        self.owner = owner or f"{self.host}:{self.pid}:{uuid.uuid4().hex[:8]}"
        self.ttl = float(ttl)

    def path(self, fingerprint: str) -> Path:
        return self.dir / f"{fingerprint}.lease"

    def acquire(self, fingerprint: str) -> bool:
        """Claim one variant; ``False`` if someone else holds it."""
        now = time.time()
        record = ClaimRecord(
            owner=self.owner,
            resource=fingerprint,
            host=self.host,
            pid=self.pid,
            acquired_at=now,
            expires_at=now + self.ttl,
        )
        return write_claim(self.path(fingerprint), record)

    def holder(self, fingerprint: str) -> ClaimRecord | None:
        return read_claim(self.path(fingerprint))

    def renew(self, fingerprint: str) -> bool:
        """Extend our own lease's expiry; ``False`` if we lost it."""
        record = self.holder(fingerprint)
        if record is None or record.owner != self.owner:
            return False
        record.expires_at = time.time() + self.ttl
        refresh_claim(self.path(fingerprint), record)
        return True

    def release(self, fingerprint: str) -> bool:
        """Drop our own lease (no-op on a lease we no longer hold)."""
        return release_claim(self.path(fingerprint), self.owner)

    def stale(self, record: ClaimRecord) -> bool:
        """Expired TTL, or a same-host owner whose process is gone."""
        return _lease_stale(record, self.host, time.time())

    def reclaim(self, fingerprint: str) -> bool:
        """Break a *stale* lease; ``True`` iff we broke it.

        Staleness is the only criterion — deliberately including leases
        whose owner string matches ours, so a worker restarted with the
        same explicit ``--worker-id`` can recover its crashed
        predecessor's lease (a *live* own lease is never stale).  The
        caller still has to :meth:`acquire` afterwards — of many
        concurrent reclaimers exactly one succeeds in breaking, and the
        subsequent acquire is the usual atomic race.
        """
        record = self.holder(fingerprint)
        if record is None or not self.stale(record):
            return False
        return break_claim(self.path(fingerprint))

    def active(self) -> dict[str, ClaimRecord]:
        """All live (non-stale) leases on the board right now."""
        leases: dict[str, ClaimRecord] = {}
        for path in sorted(self.dir.glob("*.lease")):
            record = read_claim(path)
            if record is not None and not self.stale(record):
                leases[record.resource] = record
        return leases


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):  # exists but not ours
        return True
    return True


def _lease_stale(record: ClaimRecord, host: str, now: float) -> bool:
    """The one staleness rule: expired TTL, or a same-host dead owner.

    Shared by :meth:`LeaseBoard.stale` (what workers reclaim by) and
    :func:`sweep_status` (what the read-only view reports), so the two
    can never disagree about which leases are reclaimable.
    """
    if now >= record.expires_at:
        return True
    return record.host == host and not _pid_alive(record.pid)


def lease_holder(
    cache_dir: str | Path, fingerprint: str
) -> ClaimRecord | None:
    """The live holder of one variant's lease, else ``None``.

    Read-only targeted probe (one file stat, no directory scan, never
    creates ``leases/``) — how the serve job view decides a variant is
    *running* rather than merely queued.  Stale leases read as ``None``:
    a dead worker's claim is not progress.
    """
    path = Path(cache_dir) / LEASE_DIRNAME / f"{fingerprint}.lease"
    record = read_claim(path)
    if record is None:
        return None
    if _lease_stale(record, socket.gethostname(), time.time()):
        return None
    return record


@dataclasses.dataclass(frozen=True)
class SweepStatus:
    """Read-only snapshot of a sweep's coordination directory.

    Assembled by :func:`sweep_status` from the manifest, the published
    work queue (if any) and the lease files — the ``repro sweep-status``
    view an operator uses to answer "how far along is this distributed
    sweep, and who is working on what?" without touching any of it.
    """

    root: str
    case: str | None
    parameters: tuple[str, ...]
    total: int
    completed: int
    workers: dict[str, int]
    published: bool
    live_leases: tuple[ClaimRecord, ...]
    stale_leases: tuple[ClaimRecord, ...]
    #: Structured telemetry rollup (cache hit rate, per-worker
    #: throughput, ETA) when the directory has structured-event files;
    #: ``None`` when the fleet ran without telemetry.
    telemetry: FleetRollup | None = None
    #: Failure-ledger view: variants still retrying, and variants
    #: quarantined after ``max_attempts`` (rendered as ``FAILED`` rows
    #: by the merge layer).
    failing: tuple["FailureRecord", ...] = ()
    quarantined: tuple["FailureRecord", ...] = ()

    @property
    def missing(self) -> int:
        return self.total - self.completed

    @property
    def complete(self) -> bool:
        return self.total > 0 and self.completed >= self.total

    def to_payload(self) -> dict[str, Any]:
        """JSON-safe dict form — the body behind ``sweep-status --json``
        and the serve ``GET /v1/fleet`` endpoint (same bytes, by
        construction: both render this through one serializer)."""
        return {
            "root": self.root,
            "case": self.case,
            "parameters": list(self.parameters),
            "variants": {
                "total": self.total,
                "completed": self.completed,
                "missing": self.missing,
            },
            "complete": self.complete,
            "published": self.published,
            "workers": dict(sorted(self.workers.items())),
            "leases": {
                "live": [dataclasses.asdict(r) for r in self.live_leases],
                "stale": [dataclasses.asdict(r) for r in self.stale_leases],
            },
            "telemetry": (
                None if self.telemetry is None else self.telemetry.to_payload()
            ),
            "failures": {
                "failing": [record.to_payload() for record in self.failing],
                "quarantined": [
                    record.to_payload() for record in self.quarantined
                ],
            },
        }

    def summary(self) -> str:
        """Human-readable report (what the CLI prints)."""
        if self.case is None:
            return f"{self.root}: no sweep manifest (nothing published or run here)"
        lines = [
            f"sweep over case {self.case!r} ({', '.join(self.parameters)}) "
            f"under {self.root}",
            f"  variants: {self.total} total, {self.completed} completed, "
            f"{self.missing} missing"
            + (" — complete" if self.complete else ""),
            "  work order: "
            + ("published (sweep-worker ready)" if self.published else "not published"),
        ]
        for worker, count in sorted(self.workers.items()):
            lines.append(f"  worker {worker}: {count} variant(s) completed")
        if self.live_leases:
            lines.append(f"  active leases: {len(self.live_leases)}")
            now = time.time()
            for record in self.live_leases:
                lines.append(
                    f"    {record.resource[:12]} held by {record.owner} "
                    f"({record.host}, pid {record.pid}, "
                    f"expires in {max(0.0, record.expires_at - now):.0f}s)"
                )
        else:
            lines.append("  active leases: none")
        if self.stale_leases:
            lines.append(
                f"  stale leases: {len(self.stale_leases)} "
                "(reclaimable by any worker)"
            )
        if self.failing:
            lines.append(
                f"  failing: {len(self.failing)} variant(s) retrying"
            )
        if self.quarantined:
            lines.append(
                f"  quarantined: {len(self.quarantined)} variant(s) FAILED "
                "after max attempts"
            )
            for record in self.quarantined:
                last = record.last
                detail = (
                    f"{last.exception}: {last.message}" if last is not None else "?"
                )
                lines.append(
                    f"    {record.fingerprint[:12]}: {detail} "
                    f"({record.attempt_count} attempt(s))"
                )
        if self.telemetry is not None:
            lines.extend(self.telemetry.summary_lines())
        return "\n".join(lines)


def sweep_status(cache_dir: str | Path) -> SweepStatus:
    """Inspect a sweep cache directory without mutating it.

    Unlike :class:`LeaseBoard`, this never creates the leases directory
    or breaks stale claims — it only reads what is there: the manifest's
    completion record (with per-worker attribution), whether a work
    order is published, and each lease's liveness (expired TTL, or a
    same-host owner whose pid is gone, counts as stale).
    """
    root = Path(cache_dir)
    if not root.is_dir():
        raise ScenarioError(f"no sweep cache directory at {root}")
    manifest = SweepManifest.load(root)
    published = (root / QUEUE_FILENAME).is_file()
    host = socket.gethostname()
    now = time.time()
    live: list[ClaimRecord] = []
    stale: list[ClaimRecord] = []
    lease_dir = root / LEASE_DIRNAME
    if lease_dir.is_dir():
        for path in sorted(lease_dir.glob("*.lease")):
            record = read_claim(path)
            if record is None:
                continue
            (stale if _lease_stale(record, host, now) else live).append(record)
    workers: dict[str, int] = {}
    if manifest is not None:
        for owner in manifest.workers.values():
            workers[owner] = workers.get(owner, 0) + 1
    total = len(manifest.fingerprints) if manifest is not None else 0
    completed = len(set(manifest.completed)) if manifest is not None else 0
    telemetry: FleetRollup | None = None
    telemetry_dir = root / TELEMETRY_DIRNAME
    if telemetry_dir.is_dir():
        # Read-only like everything else here: load_run only globs and
        # parses the event files.
        from ..telemetry.aggregate import load_run

        telemetry = load_run(telemetry_dir).fleet_stats(
            remaining=total - completed
        )
    ledger_records = FailureLedger(root).load()
    failing = tuple(
        record
        for _, record in sorted(ledger_records.items())
        if not record.quarantined
    )
    quarantined = tuple(
        record
        for _, record in sorted(ledger_records.items())
        if record.quarantined
    )
    return SweepStatus(
        root=str(root),
        case=manifest.case if manifest is not None else None,
        parameters=tuple(manifest.parameters) if manifest is not None else (),
        total=total,
        completed=completed,
        workers=workers,
        published=published,
        live_leases=tuple(live),
        stale_leases=tuple(stale),
        telemetry=telemetry,
        failing=failing,
        quarantined=quarantined,
    )


def predict_spec_costs(specs) -> "list[float | None] | None":
    """Predicted wall-clock seconds per spec, from this host's
    calibration (:func:`repro.perf.model.load_calibration`).

    Returns ``None`` when no calibration exists; individual specs the
    model has no coverage for come back as ``None`` entries.  Inverse
    of the paper's Eq. 4: ``steps * cells / (P * 1e6)``.
    """
    from ..core.plan import DEFAULT_KERNEL
    from ..perf.model import load_calibration

    calibration = load_calibration()
    if calibration is None:
        return None
    costs: list[float | None] = []
    for spec in specs:
        seconds = calibration.predict_case_seconds(
            spec.kernel or DEFAULT_KERNEL,
            spec.lattice,
            spec.dtype,
            spec.shape,
            spec.steps,
        )
        costs.append(None if seconds != seconds else seconds)  # NaN -> None
    return costs


@dataclasses.dataclass
class SweepScheduler:
    """The one sweep execution engine: probe the cache, run the fleet, merge.

    >>> sweep = Sweep("taylor-green", {"tau": [0.6, 0.7, 0.8]}, steps=50)
    >>> result = SweepScheduler(sweep, "shared-cache", workers=4).run()

    Every sweep runs through here — ``repro sweep --jobs N`` (``--workers
    N`` is a spelling of it), :meth:`Sweep.run` and each pass of the
    adaptive sampler — so retry, quarantine, the failure ledger and
    telemetry behave the same on all of them.  :meth:`run` probes the
    cache once per variant, turns variants the ledger quarantined into
    ``FAILED`` rows, and — given at least two workers, at least two
    pending variants and a publishable sweep (a registered case with
    JSON-serialisable overrides) — publishes the pending variants and
    launches that many local worker processes, the loop ``repro
    sweep-worker`` runs on any host sharing the directory.  It then
    merges in grid order, running whatever is still missing inline
    (:meth:`collect`).  ``workers <= 1`` publishes nothing and starts
    no process; ``cache_dir=None`` runs through a temporary directory.

    ``analyze`` runs the analysis hooks (the payload records the mode,
    and mismatched cache entries are re-run); ``lease_ttl`` goes to the
    launched workers; ``resume`` requires the manifest of an earlier
    run of this same sweep; ``telemetry_dir`` records structured JSONL
    events there, one file per process; ``max_attempts`` is how many
    failed attempts the shared ledger allows a variant before it is
    quarantined.
    """

    sweep: Sweep
    cache_dir: str | Path | None = None
    workers: int = 1
    analyze: bool = True
    lease_ttl: float = DEFAULT_LEASE_TTL
    resume: bool = False
    telemetry_dir: str | Path | None = None
    max_attempts: int = DEFAULT_MAX_ATTEMPTS

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ScenarioError(f"workers must be >= 0, got {self.workers}")
        if self.resume and self.cache_dir is None:
            raise ScenarioError("resume requires a cache directory")
        if self.telemetry_dir is not None:
            self.telemetry_dir = str(self.telemetry_dir)

    @functools.cached_property
    def plan(self) -> SweepPlan:
        """The sweep's expansion, computed once per scheduler."""
        return SweepPlan.of(self.sweep)

    def publish(self) -> tuple[SweepPlan, WorkQueue]:
        """Write the whole sweep's work order (queue + manifest) under
        the cache dir and run nothing — ``repro sweep --publish``.

        With a fitted perf-model calibration on this host, every
        variant the model covers is stamped with its predicted cost so
        workers pack longest-first (:meth:`WorkQueue.claim_order`).
        """
        plan = self.plan
        cache, _ = self._open(self.cache_dir)
        costs = predict_spec_costs(plan.specs)
        return plan, WorkQueue.publish(cache.root, plan, self.analyze, costs=costs)

    def run(self) -> SweepResult:
        """Execute the sweep and return it in grid order."""
        payloads, provenance = self.execute()
        return self.plan.result(list(payloads), payloads, provenance)

    def execute(
        self, indices: Iterable[int] | None = None
    ) -> tuple[dict[int, Mapping[str, Any]], dict[int, str]]:
        """The engine behind :meth:`run`: payload and provenance
        (``cached``, ``worker:<id>``, ``run`` or ``failed``) per plan
        index, for ``indices`` (default: every variant)."""
        if self.cache_dir is not None:
            return self._execute(Path(self.cache_dir), indices)
        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as scratch:
            return self._execute(Path(scratch), indices)

    def collect(self) -> SweepResult:
        """Merge the sweep from the cache dir in grid order, after
        external ``sweep-worker`` processes drained a published sweep.

        Variants the workers completed read ``worker:<id>``; variants
        nobody completed run inline (``run``), ignoring leases since the
        fleet has exited (a duplicate of a straggler's run is
        idempotent).  Quarantined variants, and variants that keep
        raising inline until ``max_attempts``, merge as ``FAILED`` rows.
        """
        cache = ResultCache(self.cache_dir)
        cache.telemetry = self._recorder()
        payloads: dict[int, Mapping[str, Any]] = {}
        provenance: dict[int, str] = {}
        self._merge(cache, range(len(self.plan)), payloads, provenance)
        return self.plan.result(list(payloads), payloads, provenance)

    # -- engine steps ------------------------------------------------------

    def _open(self, root: str | Path) -> tuple[ResultCache, SweepManifest]:
        plan = self.plan
        return open_cache(
            root, plan.case, plan.parameters, plan.fingerprints, resume=self.resume
        )

    def _recorder(self) -> "Telemetry | NullTelemetry":
        if self.telemetry_dir is None:
            return get_telemetry()
        return process_recorder(self.telemetry_dir)

    def _execute(
        self, root: Path, indices: Iterable[int] | None
    ) -> tuple[dict[int, Mapping[str, Any]], dict[int, str]]:
        plan = self.plan
        order = range(len(plan)) if indices is None else sorted(set(indices))
        cache, manifest = self._open(root)
        cache.telemetry = recorder = self._recorder()
        payloads: dict[int, Mapping[str, Any]] = {}
        provenance: dict[int, str] = {}
        for index in order:  # the one counted probe per variant
            entry = usable_entry(cache, plan.fingerprints[index], self.analyze)
            if entry is not None:
                payloads[index] = entry
                provenance[index] = "cached"
                if recorder.enabled:
                    recorder.count("variant.cached")
        completed = set(manifest.completed)
        found = [plan.fingerprints[i] for i in payloads]
        if not completed.issuperset(found):
            manifest.completed.extend(f for f in found if f not in completed)
            manifest.save()
        # Quarantined variants are never published; the merge below
        # turns them into FAILED rows.
        quarantined = FailureLedger(root).quarantined()
        pending = [
            index
            for index in order
            if index not in payloads and plan.fingerprints[index] not in quarantined
        ]
        if self.workers >= 2 and len(pending) >= 2:
            try:
                costs = predict_spec_costs(plan.specs)
                WorkQueue.publish(root, plan, self.analyze, costs, indices=pending)
            except ScenarioError:
                pass  # unregistered case or non-JSON overrides: run inline
            else:
                recorder.flush()  # forked workers must not inherit buffered events
                self._launch(root, min(self.workers, len(pending)))
        self._merge(cache, order, payloads, provenance)
        return payloads, provenance

    def _launch(self, root: Path, count: int) -> None:
        """Start ``count`` local workers over ``root`` and wait for them."""
        from .workers import worker_entry  # cycle: workers run queue items

        processes = [
            multiprocessing.Process(
                target=worker_entry,
                args=(str(root),),
                kwargs={
                    "worker_id": f"w{rank + 1}",
                    "lease_ttl": self.lease_ttl,
                    "telemetry_dir": self.telemetry_dir,
                    "max_attempts": self.max_attempts,
                },
            )
            for rank in range(count)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join()

    def _merge(
        self,
        cache: ResultCache,
        order: Iterable[int],
        payloads: dict[int, Mapping[str, Any]],
        provenance: dict[int, str],
    ) -> None:
        """Fill every index of ``order`` missing from ``payloads``: read
        what the fleet committed (silently: merge reads are not cache
        outcomes), else run the variant inline."""
        plan = self.plan
        manifest = SweepManifest.load(cache.root)
        tracked = manifest is not None and manifest.fingerprints == plan.fingerprints
        ledger = FailureLedger(cache.root, max_attempts=self.max_attempts)
        quarantined = ledger.quarantined()
        for index in order:
            if index in payloads:
                continue
            fingerprint = plan.fingerprints[index]
            entry = usable_entry(cache, fingerprint, self.analyze, count=False)
            if entry is not None:
                worker = manifest.workers.get(fingerprint) if manifest else None
                payloads[index] = entry
                provenance[index] = f"worker:{worker}" if worker else "run"
                continue
            record = quarantined.get(fingerprint)
            if record is None:
                entry, record = self._run_inline(index, ledger, cache.telemetry)
            if entry is None:
                payloads[index] = failed_payload(
                    plan.case, record, analyze=self.analyze
                )
                provenance[index] = "failed"
                continue
            cache.put(fingerprint, entry)
            if tracked:
                manifest.record_completion(fingerprint)
            payloads[index] = entry
            provenance[index] = "run"
        cache.telemetry.flush()

    def _run_inline(
        self,
        index: int,
        ledger: FailureLedger,
        recorder: "Telemetry | NullTelemetry",
    ) -> tuple[dict[str, Any] | None, FailureRecord | None]:
        """Run one variant here, retrying until it succeeds or the
        ledger quarantines it: ``(payload, None)`` or ``(None, record)``."""
        task = self.plan.task(index, self.analyze, self.telemetry_dir)
        record = None
        while True:
            try:
                payload = _executor._execute_variant(task)
            except Exception as exc:
                record = record_failure(ledger, task.fingerprint, exc, recorder)
                if record.quarantined:
                    return None, record
                continue
            if record is not None:
                ledger.clear(task.fingerprint)
            return payload, None
