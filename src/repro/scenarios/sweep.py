"""Parameter sweeps: expand a grid of overrides into case variants.

A :class:`Sweep` takes one registered case and a mapping of parameter
name -> candidate values, expands the Cartesian product into variant
:class:`~repro.scenarios.spec.CaseSpec` instances (spec fields like
``tau``/``lattice``/``steps`` override directly; anything else lands in
``params`` for the case factories), runs each one, and renders a
comparison table through :mod:`repro.analysis.tables`.
"""

from __future__ import annotations

import dataclasses
import itertools
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..analysis.tables import append_column, render_csv, render_table
from .registry import get_case
from .runner import CaseResult, CaseRunner
from .spec import CaseSpec

__all__ = ["Sweep", "SweepResult"]

#: Metrics every run records, pinned to the front of comparison tables.
_LEADING_METRICS = ("steps_run", "mflups")


@dataclasses.dataclass
class SweepResult:
    """Outcome of one sweep: variant overrides paired with run results.

    ``provenance`` (when the sweep ran through the sweep engine) records
    per variant whether it was freshly ``"run"`` inline, served
    ``"cached"``, completed by a worker (``"worker:<id>"``) or
    quarantined (``"failed"``);
    ``fingerprints`` carries the matching cache keys.  Adaptively
    sampled sweeps additionally record the full grid size in
    ``grid_total`` (the rows cover only the sampled subset) and each
    row's sampling ``stages`` entry (``"coarse"``/``"refined"``).
    """

    case: str
    parameters: tuple[str, ...]
    variants: list[dict[str, Any]]
    results: list[CaseResult]
    provenance: list[str] | None = None
    fingerprints: list[str] | None = None
    grid_total: int | None = None
    stages: list[str] | None = None

    def _columns(self) -> list[str]:
        # Collect over a *sorted* union of names so the column order is
        # a function of what the results contain, never of the order
        # they arrived in (cache hits complete out of order).
        metric_names: set[str] = set()
        observable_names: set[str] = set()
        for result in self.results:
            metric_names.update(
                name for name in result.metrics if name not in self.parameters
            )
            observable_names.update(
                name for name in result.series if name != "step"
            )
        leading = [n for n in _LEADING_METRICS if n in metric_names]
        trailing = sorted(metric_names.difference(_LEADING_METRICS))
        return leading + trailing + [
            f"final_{n}" for n in sorted(observable_names)
        ]

    @property
    def runs_executed(self) -> int:
        """How many variants actually ran (vs served from cache) —
        whether by this process (``"run"``) or a worker it launched.
        Quarantined ``"failed"`` placeholders never ran, so they do not
        count."""
        if self.provenance is None:
            return len(self.results)
        return sum(
            1 for source in self.provenance if source not in ("cached", "failed")
        )

    @property
    def failed_count(self) -> int:
        """How many variants are quarantined ``FAILED`` placeholders."""
        return sum(1 for result in self.results if result.failed)

    def rows(
        self, *, provenance: bool = False
    ) -> tuple[list[str], list[list[str]]]:
        """Comparison-table headers and rows (parameters, then outcomes).

        ``provenance=True`` merges the per-variant ``source`` column
        (``run``/``cached``).  It is opt-in because the *data* columns
        are deterministic — byte-identical between a cold serial run, a
        parallel run and a warm-cache replay — while provenance
        necessarily reflects how this particular invocation executed.
        """

        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.5g}"
            if isinstance(value, bool):
                return "yes" if value else "no"
            return str(value)

        columns = self._columns()
        headers = list(self.parameters) + columns + ["checks"]
        table: list[list[str]] = []
        for overrides, result in zip(self.variants, self.results):
            row = [fmt(overrides[p]) for p in self.parameters]
            for column in columns:
                if column.startswith("final_") and column[6:] in result.series:
                    row.append(fmt(result.final(column[6:])))
                else:
                    row.append(fmt(result.metrics.get(column, "-")))
            if result.failed:
                row.append("FAILED")  # quarantined: no payload to judge
            else:
                row.append("PASS" if result.passed else "FAIL")
            table.append(row)
        if provenance and self.provenance is not None:
            headers, table = append_column(headers, table, "source", self.provenance)
        if provenance and self.stages is not None:
            headers, table = append_column(headers, table, "stage", self.stages)
        return headers, table

    def to_table(self, *, provenance: bool = False) -> str:
        headers, table = self.rows(provenance=provenance)
        return render_table(
            headers,
            table,
            title=f"Sweep over {self.case}: " + " x ".join(self.parameters),
        )

    def to_csv(self, *, provenance: bool = False) -> str:
        headers, table = self.rows(provenance=provenance)
        return render_csv(headers, table)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)


@dataclasses.dataclass
class Sweep:
    """Cartesian-product batch runner over one case.

    >>> sweep = Sweep("taylor-green", {"tau": [0.6, 0.8], "lattice":
    ...               ["D3Q19", "D3Q27"]}, steps=50)
    >>> print(sweep.run().to_table())

    Parameters
    ----------
    case:
        Registered case name or an explicit spec.
    parameters:
        Ordered mapping name -> sequence of values.  Spec fields
        (``tau``, ``lattice``, ``shape``, ``steps``...) override the
        spec; other names are case knobs routed into ``spec.params``.
    steps:
        Optional step-count override applied to every variant.
    overrides:
        Optional fixed overrides applied to every variant (e.g. the
        CLI's ``--kernel``/``--dtype`` flags).  Grid parameters win on
        a name collision; like the grid values, these flow through
        each variant's fingerprint, so the sweep cache distinguishes
        kernel/dtype choices.
    """

    case: str | CaseSpec
    parameters: Mapping[str, Sequence[Any]]
    steps: int | None = None
    overrides: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        self.parameters = {k: list(v) for k, v in self.parameters.items()}
        self.overrides = dict(self.overrides or {})
        if not self.parameters:
            raise ValueError("sweep needs at least one parameter")
        for name, values in self.parameters.items():
            if not values:
                raise ValueError(f"sweep parameter {name!r} has no values")

    @property
    def spec(self) -> CaseSpec:
        return self.case if isinstance(self.case, CaseSpec) else get_case(self.case)

    def expand(self) -> list[dict[str, Any]]:
        """All variant override dicts, last parameter varying fastest."""
        names = list(self.parameters)
        grid = itertools.product(*(self.parameters[n] for n in names))
        return [dict(zip(names, values)) for values in grid]

    def specs(self) -> list[CaseSpec]:
        """The expanded variant specs (validated)."""
        return [
            CaseRunner(self.spec, **overrides).spec
            for overrides in self.variant_overrides()
        ]

    def variant_overrides(self) -> list[dict[str, Any]]:
        """Per-variant override dicts with the sweep-level steps merged."""
        return [self._with_steps(overrides) for overrides in self.expand()]

    def fingerprints(self) -> list[str]:
        """Content hashes of every variant spec (the sweep cache keys)."""
        return [spec.fingerprint() for spec in self.specs()]

    def _with_steps(self, overrides: dict[str, Any]) -> dict[str, Any]:
        """One variant's full override dict: sweep-level fixed overrides
        (and step count), with the grid values taking precedence."""
        merged = {**self.overrides, **overrides}
        if self.steps is not None and "steps" not in merged:
            merged["steps"] = self.steps
        return merged

    def run(
        self,
        *,
        analyze: bool = True,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        resume: bool = False,
    ) -> SweepResult:
        """Run every variant and collect the comparison.

        With ``jobs > 1``, a ``cache_dir`` or ``resume``, runs through
        the sweep engine (:class:`~repro.scenarios.scheduler.SweepScheduler`):
        ``jobs`` local workers share the variants, per-variant results
        are cached by spec fingerprint, a variant that keeps raising
        becomes a ``FAILED`` row, and results come back *lean* (scalar
        outcomes only, no simulation attached, timing metrics
        stripped).  The default in-process path keeps the full
        simulations and timing metrics on each :class:`CaseResult`
        (so its tables include the nondeterministic ``mflups`` column;
        the CLI always goes through the engine instead).
        """
        if jobs != 1 or cache_dir is not None or resume:
            from .scheduler import SweepScheduler

            return SweepScheduler(
                self, cache_dir, workers=jobs, analyze=analyze, resume=resume
            ).run()
        base = self.spec
        variants = self.expand()
        results = [
            CaseRunner(base, **self._with_steps(overrides)).run(analyze=analyze)
            for overrides in variants
        ]
        return SweepResult(
            case=base.name,
            parameters=tuple(self.parameters),
            variants=variants,
            results=results,
        )
