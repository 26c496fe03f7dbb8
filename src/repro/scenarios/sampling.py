"""Adaptive grid sampling: coarse sweep, then refine where it matters.

Full Cartesian expansion scales multiplicatively — a 5-parameter sweep
with 8 values per axis is 32768 variants.  The paper's own parameter
studies (ghost-cell depth, hybrid splits) show the response surfaces
are smooth almost everywhere and interesting in narrow regions; this
module exploits that: run a **coarse pass** over a stride-subsampled
grid, measure how fast a chosen observable changes between adjacent
coarse points, and run a **refinement pass** only over the skipped
points inside the fastest-changing segments.

Each pass runs through the same sweep engine as an exhaustive sweep
(:meth:`~repro.scenarios.scheduler.SweepScheduler.execute` over the
pass's subset of plan indices): every variant is addressed by its spec
fingerprint, run inline or by ``jobs`` local workers, retried and
quarantined through the same failure ledger, and cached in the same
directory — so a sampled row is byte-identical to the exhaustive
sweep's row for that variant, and an adaptive pass over a warm
exhaustive cache executes nothing.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from pathlib import Path
from typing import Any, Mapping

from ..errors import ScenarioError
from ..resilience import DEFAULT_MAX_ATTEMPTS
from .scheduler import SweepScheduler
from .sweep import Sweep, SweepResult

__all__ = ["AdaptiveSampler", "coarse_axis_indices"]


def coarse_axis_indices(size: int, stride: int) -> list[int]:
    """Every ``stride``-th index plus the last (endpoints always run)."""
    indices = list(range(0, size, stride))
    if indices[-1] != size - 1:
        indices.append(size - 1)
    return indices


@dataclasses.dataclass(frozen=True)
class _Segment:
    """Two adjacent coarse points along one axis, other axes fixed.

    ``lo``/``hi`` are *axis indices* into that axis's value list; the
    points strictly between them were skipped by the coarse pass and
    are what refinement would add.
    """

    axis: int
    lo: int
    hi: int
    fixed: tuple[int, ...]  # coarse indices of the other axes, in axis order

    def coordinate(self, at: int) -> tuple[int, ...]:
        coordinate = list(self.fixed)
        coordinate.insert(self.axis, at)
        return tuple(coordinate)

    def skipped(self) -> list[tuple[int, ...]]:
        return [self.coordinate(i) for i in range(self.lo + 1, self.hi)]


@dataclasses.dataclass
class AdaptiveSampler:
    """Run one sweep adaptively instead of exhaustively.

    >>> sampler = AdaptiveSampler(
    ...     Sweep("taylor-green", {"tau": [0.6, 0.7, 0.8, 0.9, 1.0],
    ...                            "shape": [(8, 8, 4), (16, 16, 4)]}),
    ...     observable="final_kinetic_energy",
    ... )
    >>> result = sampler.run()
    >>> result.grid_total, len(result.results)  # e.g. (10, 8)

    Parameters
    ----------
    sweep:
        The full Cartesian sweep to sample.
    observable:
        What "changes fastest" is measured on: a metric name
        (``steps_run``, an analysis metric) or ``final_<series>`` for
        the last value of a recorded observable series.
    coarse_stride:
        Keep every k-th value per axis in the coarse pass (endpoints
        always kept).
    refine_fraction:
        Fraction of refinable segments (those with skipped points),
        fastest-changing first, whose skipped points run in the
        refinement pass.  ``1.0`` refines every segment — still fewer
        runs than exhaustive whenever more than one segment exists and
        the grid has interior points on some axis.
    jobs / cache_dir / max_attempts:
        Forwarded to the sweep engine
        (:class:`~repro.scenarios.scheduler.SweepScheduler`'s
        ``workers``, ``cache_dir`` and ``max_attempts``) for each pass.
        A variant that keeps raising becomes a ``FAILED`` row; its
        observable counts as NaN, so the segments around it are
        refined first.
    """

    sweep: Sweep
    observable: str
    coarse_stride: int = 2
    refine_fraction: float = 0.5
    jobs: int = 1
    cache_dir: str | Path | None = None
    max_attempts: int = DEFAULT_MAX_ATTEMPTS

    def __post_init__(self) -> None:
        if self.coarse_stride < 2:
            raise ScenarioError(
                f"coarse stride must be >= 2 (got {self.coarse_stride}); "
                "stride 1 is just the exhaustive sweep"
            )
        if not 0.0 <= self.refine_fraction <= 1.0:
            raise ScenarioError(
                f"refine fraction must be in [0, 1], got {self.refine_fraction}"
            )
        if self.jobs < 1:
            raise ScenarioError(f"jobs must be >= 1, got {self.jobs}")

    # -- passes ------------------------------------------------------------

    def run(self, *, analyze: bool = True) -> SweepResult:
        """Coarse pass, pick segments, refinement pass, merged result.

        The result covers only the executed subset (in grid order) and
        carries ``grid_total`` (the exhaustive count) plus per-row
        ``stages`` (``"coarse"``/``"refined"``).
        """
        scheduler = SweepScheduler(
            self.sweep,
            self.cache_dir,
            workers=self.jobs,
            analyze=analyze,
            max_attempts=self.max_attempts,
        )
        plan = scheduler.plan
        sizes = [len(values) for values in self.sweep.parameters.values()]
        coordinates = list(itertools.product(*(range(n) for n in sizes)))
        flat = {coordinate: i for i, coordinate in enumerate(coordinates)}

        coarse_axes = [coarse_axis_indices(size, self.coarse_stride) for size in sizes]
        coarse = [flat[c] for c in itertools.product(*coarse_axes)]
        payloads, provenance = scheduler.execute(coarse)

        values = {index: self._observable_value(payloads[index]) for index in coarse}
        segments = self._segments(coarse_axes)
        chosen = self._fastest(segments, values, flat)
        refined: list[int] = []
        seen = set(coarse)
        for segment in chosen:
            for coordinate in segment.skipped():
                index = flat[coordinate]
                if index not in seen:
                    seen.add(index)
                    refined.append(index)
        if refined:
            more, more_provenance = scheduler.execute(refined)
            payloads.update(more)
            provenance.update(more_provenance)

        stages = {index: "coarse" for index in coarse}
        stages.update({index: "refined" for index in refined})
        order = sorted(seen)
        result = plan.result(
            order,
            payloads,
            provenance,
            grid_total=len(plan),
            stages=[stages[i] for i in order],
        )
        return result

    # -- helpers -----------------------------------------------------------

    def _observable_value(self, payload: Mapping[str, Any]) -> float:
        if payload.get("failed"):
            return math.nan  # quarantined: no outcome to measure
        name = self.observable
        metrics = payload.get("metrics", {})
        series = payload.get("series", {})
        if name in metrics:
            return float(metrics[name])
        if name.startswith("final_") and name[6:] in series:
            return float(series[name[6:]][-1])
        if name in series:
            return float(series[name][-1])
        available = sorted(metrics) + sorted(
            f"final_{s}" for s in series if s != "step"
        )
        raise ScenarioError(
            f"unknown observable {name!r} for adaptive sampling; "
            f"available: {', '.join(available)}"
        )

    def _segments(self, coarse_axes: list[list[int]]) -> list[_Segment]:
        """All refinable adjacent-coarse-point pairs, deterministic order."""
        segments: list[_Segment] = []
        for axis, indices in enumerate(coarse_axes):
            others = [coarse_axes[a] for a in range(len(coarse_axes)) if a != axis]
            for lo, hi in zip(indices, indices[1:]):
                if hi - lo <= 1:
                    continue  # coarse pass already ran everything here
                for fixed in itertools.product(*others):
                    segments.append(_Segment(axis, lo, hi, tuple(fixed)))
        return segments

    def _fastest(
        self,
        segments: list[_Segment],
        values: Mapping[int, float],
        flat: Mapping[tuple[int, ...], int],
    ) -> list[_Segment]:
        """The top ``refine_fraction`` of segments by observable change.

        NaN deltas sort as infinitely fast — an observable blowing up
        inside a segment is exactly the region to look at more closely.
        Ties and ordering are broken by (axis, lo, fixed), so the
        selection is deterministic across processes and hosts.
        """
        if not segments or self.refine_fraction == 0.0:
            return []

        def delta(segment: _Segment) -> float:
            lo = values[flat[segment.coordinate(segment.lo)]]
            hi = values[flat[segment.coordinate(segment.hi)]]
            change = abs(hi - lo)
            return math.inf if math.isnan(change) else change

        ranked = sorted(
            segments,
            key=lambda s: (-delta(s), s.axis, s.lo, s.fixed),
        )
        keep = max(1, math.ceil(self.refine_fraction * len(ranked)))
        return ranked[:keep]
