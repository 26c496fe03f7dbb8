"""Per-variant result cache and sweep progress manifest.

The sweep engine keys each variant by its spec's content hash
(:meth:`~repro.scenarios.spec.CaseSpec.fingerprint`) and stores the
variant's scalar outcomes — metrics, observable series, checks — as a
checksummed JSON entry.  Entries are content-addressed: a warm cache
makes re-running an identical sweep (or a superset sweep sharing some
variants) free, and the checksum catches truncated or hand-edited
entries so they are transparently re-run instead of poisoning tables.

A :class:`SweepManifest` sits next to the entries and records which
variants of one particular sweep have completed, so an interrupted
``python -m repro sweep --cache-dir ... --resume`` can prove it is
continuing the same sweep and report what remains.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import uuid
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..core.io import canonical_json
from ..errors import ScenarioError
from ..resilience.ledger import FAILURES_FILENAME
from ..telemetry.recorder import NULL_TELEMETRY, NullTelemetry, Telemetry

__all__ = [
    "CORRUPT_DIRNAME",
    "CacheDiff",
    "CacheLookup",
    "ResultCache",
    "SweepManifest",
    "sweep_key",
]

logger = logging.getLogger(__name__)

#: Entry format version.  Bumped whenever stored results change for
#: specs whose fingerprint does not: version 2 marks the switch of the
#: default engine (``kernel=None``) from the legacy roll pair to the
#: planned kernel with fused walls and forcing, whose bits differ by
#: rounding.  An entry of another version is a miss and re-runs.
_ENTRY_VERSION = 2

#: Name of the distributed work order file (written by
#: :class:`repro.scenarios.scheduler.WorkQueue`); reserved alongside the
#: manifest so cache key listings never mistake it for an entry.
QUEUE_FILENAME = "queue.json"

#: Sidecar directory corrupt entries are renamed into (see
#: :meth:`ResultCache.quarantine_corrupt`).
CORRUPT_DIRNAME = "corrupt"


def _atomic_write(path: Path, text: str) -> None:
    """Write via a sibling temp file + rename so readers never see a
    half-written entry (a crashed sweep must not leave corrupt state
    that a resume would trust).  The temp name is unique per writer, so
    concurrent commits of the same entry never share (and unlink) one
    temp file."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _checksum(data: Any) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def sweep_key(case: str, fingerprints: Sequence[str]) -> str:
    """Identity of one sweep: the case plus its ordered variant hashes."""
    return _checksum({"case": case, "fingerprints": list(fingerprints)})


@dataclasses.dataclass(frozen=True)
class CacheLookup:
    """One cache probe's outcome: a status plus the payload on a hit.

    ``status`` distinguishes what :meth:`ResultCache.get` historically
    conflated: ``"hit"`` (valid entry), ``"miss"`` (no entry at all) and
    ``"corrupt"`` (an entry exists but is truncated, tampered, or filed
    under the wrong key) — so corrupt counters are truthful and corrupt
    paths get logged instead of silently re-run.
    """

    status: str  # "hit" | "miss" | "corrupt"
    payload: dict[str, Any] | None = None

    @property
    def hit(self) -> bool:
        return self.status == "hit"


class ResultCache:
    """Content-addressed store of per-variant sweep results.

    Each entry lives at ``<root>/<fingerprint>.json`` as::

        {"version": 2, "fingerprint": ..., "checksum": ..., "data": {...}}

    where ``data`` holds the serialisable outcome payload and
    ``checksum`` is the SHA-256 of its canonical JSON.  :meth:`get`
    returns ``None`` for missing, truncated, tampered or mismatched
    entries — the caller simply re-runs those variants.  :meth:`lookup`
    is the observable variant: it distinguishes missing from corrupt,
    logs corrupt entry paths, and counts ``cache.hit`` /
    ``cache.miss`` / ``cache.corrupt`` on the attached recorder.
    """

    def __init__(
        self,
        root: str | Path,
        telemetry: "Telemetry | NullTelemetry | None" = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry

    def entry_path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def _load(self, fingerprint: str) -> CacheLookup:
        """Read and validate one entry (no counters — the shared
        validator behind both :meth:`get` and :meth:`lookup`)."""
        path = self.entry_path(fingerprint)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return CacheLookup("miss")
        except OSError:
            return CacheLookup("corrupt")
        try:
            envelope = json.loads(text)
        except ValueError:
            return CacheLookup("corrupt")
        if not isinstance(envelope, dict):
            return CacheLookup("corrupt")
        if isinstance(envelope.get("version"), int) and (
            envelope["version"] != _ENTRY_VERSION
        ):
            # Well-formed but from another format version: stale, not
            # corrupt — re-run it and let put() overwrite the slot.
            return CacheLookup("miss")
        data = envelope.get("data")
        if (
            envelope.get("version") != _ENTRY_VERSION
            or envelope.get("fingerprint") != fingerprint
            or not isinstance(data, dict)
            or envelope.get("checksum") != _checksum(data)
        ):
            return CacheLookup("corrupt")
        return CacheLookup("hit", data)

    def get(self, fingerprint: str) -> dict[str, Any] | None:
        """The cached payload for one variant, or ``None`` if unusable."""
        return self._load(fingerprint).payload

    def lookup(self, fingerprint: str) -> CacheLookup:
        """Probe one entry, counting and logging the outcome.

        Counters record storage-level probe outcomes (``cache.hit``,
        ``cache.miss``, ``cache.corrupt``); a corrupt entry additionally
        logs its path — a tampered or torn entry is worth an operator's
        attention even though it is transparently re-run.
        """
        found = self._load(fingerprint)
        if found.status == "corrupt":
            path = self.entry_path(fingerprint)
            moved = self.quarantine_corrupt(fingerprint)
            logger.warning(
                "corrupt cache entry at %s (quarantined to %s; will re-run)",
                path,
                moved,
            )
            self.telemetry.count("cache.corrupt", path=str(path))
        else:
            self.telemetry.count(f"cache.{found.status}")
        return found

    def quarantine_corrupt(self, fingerprint: str) -> Path | None:
        """Move a corrupt entry aside so the slot is cheaply rewritable.

        An atomic rename into the ``corrupt/`` sidecar directory: later
        probes of this fingerprint are plain misses instead of re-paying
        the parse-and-log cost, :meth:`put` re-warms the slot normally,
        and the torn bytes stay on disk for postmortems.  Racing peers
        are fine — exactly one rename wins, the rest return ``None``.
        """
        path = self.entry_path(fingerprint)
        sidecar = self.root / CORRUPT_DIRNAME
        try:
            sidecar.mkdir(parents=True, exist_ok=True)
            target = sidecar / path.name
            os.replace(path, target)
        except OSError:
            return None
        return target

    def put(self, fingerprint: str, data: Mapping[str, Any]) -> Path:
        """Store one variant's payload (atomically; overwrites)."""
        text = canonical_json(data)  # canonicalise once: checksum + data
        envelope = {
            "version": _ENTRY_VERSION,
            "fingerprint": fingerprint,
            "checksum": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "data": json.loads(text),
        }
        path = self.entry_path(fingerprint)
        _atomic_write(path, json.dumps(envelope, sort_keys=True, indent=1))
        return path

    def keys(self) -> tuple[str, ...]:
        """Fingerprints of every readable-looking entry on disk."""
        reserved = {SweepManifest.FILENAME, QUEUE_FILENAME, FAILURES_FILENAME}
        return tuple(
            sorted(p.stem for p in self.root.glob("*.json") if p.name not in reserved)
        )

    def checksum(self, fingerprint: str) -> str | None:
        """The payload checksum of one valid entry, else ``None``.

        Validity is exactly :meth:`get`'s — one validator, two views."""
        data = self.get(fingerprint)
        return None if data is None else _checksum(data)

    def diff(self, other: "ResultCache") -> "CacheDiff":
        """Compare two sweep caches entry-by-entry.

        Entries are matched by fingerprint and compared by payload
        checksum, so two caches populated by different hosts/processes
        from the same sweep diff as identical — the cache-aware
        analysis primitive behind "what changed between these two sweep
        runs?".  Invalid entries count as missing.
        """
        mine = {fp: self.checksum(fp) for fp in self.keys()}
        theirs = {fp: other.checksum(fp) for fp in other.keys()}
        mine = {fp: c for fp, c in mine.items() if c is not None}
        theirs = {fp: c for fp, c in theirs.items() if c is not None}
        shared = set(mine) & set(theirs)
        return CacheDiff(
            only_self=tuple(sorted(set(mine) - set(theirs))),
            only_other=tuple(sorted(set(theirs) - set(mine))),
            differing=tuple(
                sorted(fp for fp in shared if mine[fp] != theirs[fp])
            ),
            matching=tuple(
                sorted(fp for fp in shared if mine[fp] == theirs[fp])
            ),
        )


@dataclasses.dataclass(frozen=True)
class CacheDiff:
    """Outcome of :meth:`ResultCache.diff`, as sorted fingerprint sets."""

    only_self: tuple[str, ...]
    only_other: tuple[str, ...]
    differing: tuple[str, ...]
    matching: tuple[str, ...]

    @property
    def identical(self) -> bool:
        return not (self.only_self or self.only_other or self.differing)

    def summary(self) -> str:
        return (
            f"{len(self.matching)} matching, {len(self.differing)} differing, "
            f"{len(self.only_self)} only-left, {len(self.only_other)} only-right"
        )


@dataclasses.dataclass
class SweepManifest:
    """Progress record of one sweep over one cache directory.

    ``completed`` lists variant fingerprints in completion order; the
    sweep engine and its workers update it after every variant so a
    crash loses at most the in-flight runs.  ``workers`` attributes each
    completion to the worker that ran it (inline runs leave no entry).
    """

    path: Path
    case: str
    parameters: list[str]
    fingerprints: list[str]
    completed: list[str] = dataclasses.field(default_factory=list)
    workers: dict[str, str] = dataclasses.field(default_factory=dict)

    FILENAME = "manifest.json"

    @property
    def key(self) -> str:
        return sweep_key(self.case, self.fingerprints)

    def missing(self) -> list[str]:
        done = set(self.completed)
        return [fp for fp in self.fingerprints if fp not in done]

    @property
    def complete(self) -> bool:
        return not self.missing()

    def record_completion(self, fingerprint: str, worker: str | None = None) -> None:
        """Merge-save one completion from a possibly concurrent writer.

        Distributed workers share one manifest file; a plain
        read-modify-write would let two workers erase each other's
        completions.  Re-reading the on-disk state and unioning before
        the atomic save narrows the lost-update window to near zero —
        and a lost update is *only* cosmetic anyway, because completion
        is always recomputable from the content-addressed cache
        entries, which each worker writes before recording here.
        """
        latest = SweepManifest.load(self.path.parent)
        if latest is not None and latest.key == self.key:
            for done in latest.completed:
                if done not in self.completed:
                    self.completed.append(done)
            for done, owner in latest.workers.items():
                self.workers.setdefault(done, owner)
        if fingerprint not in self.completed:
            self.completed.append(fingerprint)
        if worker is not None:
            self.workers[fingerprint] = worker
        self.save()

    def save(self) -> Path:
        _atomic_write(
            self.path,
            json.dumps(
                {
                    "key": self.key,
                    "case": self.case,
                    "parameters": self.parameters,
                    "fingerprints": self.fingerprints,
                    "completed": self.completed,
                    "workers": self.workers,
                },
                indent=1,
            ),
        )
        return self.path

    @classmethod
    def create(
        cls,
        root: str | Path,
        case: str,
        parameters: Sequence[str],
        fingerprints: Sequence[str],
    ) -> "SweepManifest":
        manifest = cls(
            path=Path(root) / cls.FILENAME,
            case=case,
            parameters=list(parameters),
            fingerprints=list(fingerprints),
        )
        manifest.save()
        return manifest

    @classmethod
    def load(cls, root: str | Path) -> "SweepManifest | None":
        """Read the manifest under ``root``; ``None`` if absent/corrupt."""
        path = Path(root) / cls.FILENAME
        try:
            raw = json.loads(path.read_text())
            manifest = cls(
                path=path,
                case=str(raw["case"]),
                parameters=[str(p) for p in raw["parameters"]],
                fingerprints=[str(f) for f in raw["fingerprints"]],
                completed=[str(f) for f in raw["completed"]],
                workers={
                    str(k): str(v) for k, v in raw.get("workers", {}).items()
                },
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return manifest

    @classmethod
    def resume(
        cls,
        root: str | Path,
        case: str,
        parameters: Sequence[str],
        fingerprints: Sequence[str],
    ) -> "SweepManifest":
        """The manifest of an interrupted run of *this* sweep.

        Raises :class:`ScenarioError` when there is nothing to resume
        or the on-disk manifest belongs to a different sweep.
        """
        manifest = cls.load(root)
        if manifest is None:
            raise ScenarioError(
                f"nothing to resume: no sweep manifest under {root}"
            )
        if manifest.key != sweep_key(case, fingerprints):
            raise ScenarioError(
                f"cannot resume: manifest under {root} records a different "
                f"sweep (case {manifest.case!r} over "
                f"{', '.join(manifest.parameters)})"
            )
        return manifest
