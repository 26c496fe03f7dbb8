"""One failure semantics on every sweep path.

A variant whose run raises is retried through the shared failure
ledger, then quarantined into an explicit ``FAILED`` row; it never
aborts the sweep.  That holds whether the sweep runs inline
(``jobs=1``), on a local worker fleet (``jobs=2``, ``workers=2``),
through :meth:`Sweep.run`, the adaptive sampler or the CLI.  The
surviving rows are byte-identical to a fault-free sweep on every path.

The failure is injected by patching :meth:`CaseRunner.run` in this
process; fleet workers are forked from it and inherit the patch.
"""

import shutil

import pytest

from repro import api
from repro.core.io import render_response
from repro.resilience import FailureLedger
from repro.scenarios import CaseRunner, Sweep
from repro.scenarios.cli import main as cli_main
from repro.telemetry import load_run

CASE = "taylor-green"
TAUS = [0.6, 0.7, 0.8, 0.9]
POISON = 1  # index of the variant that raises (tau = 0.7)
STEPS = 5
ATTEMPTS = 2


@pytest.fixture(scope="module")
def clean():
    """The fault-free sweep, for comparing the surviving rows."""
    return api.run_sweep(CASE, {"tau": TAUS}, steps=STEPS)


@pytest.fixture
def poisoned(monkeypatch):
    real = CaseRunner.run

    def run(self, *args, **kwargs):
        if self.spec.tau == TAUS[POISON]:
            raise RuntimeError("injected divergence")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(CaseRunner, "run", run)


def assert_failed_row(result, clean):
    """Exactly the poisoned row is FAILED; every other row (table,
    CSV, payload) is byte-identical to the fault-free sweep."""
    assert result.failed_count == 1
    assert result.provenance[POISON] == "failed"
    assert result.results[POISON].failed
    rows = result.to_csv().splitlines()
    clean_rows = clean.to_csv().splitlines()
    assert rows[0] == clean_rows[0]
    for index, (row, clean_row) in enumerate(zip(rows[1:], clean_rows[1:])):
        if index == POISON:
            assert row.endswith(",FAILED")
        else:
            assert row == clean_row
    payload = api.sweep_payload(result)["results"]
    clean_payload = api.sweep_payload(clean)["results"]
    assert payload[POISON]["failed"] is True
    assert [r for i, r in enumerate(payload) if i != POISON] == [
        r for i, r in enumerate(clean_payload) if i != POISON
    ]


def ledger_record(cache_dir, result):
    """The quarantined variant's ledger record, minus who ran it."""
    record = FailureLedger(cache_dir).record(result.fingerprints[POISON])
    assert record is not None
    return (
        record.quarantined,
        record.attempt_count,
        [(a.exception, a.message) for a in record.attempts],
    )


EXPECTED_RECORD = (
    True,
    ATTEMPTS,
    [("RuntimeError", "injected divergence")] * ATTEMPTS,
)


@pytest.mark.parametrize(
    "count", [{"jobs": 1}, {"jobs": 2}, {"workers": 2}], ids=lambda c: str(c)
)
def test_raising_variant_is_a_failed_row(tmp_path, clean, poisoned, count):
    result = api.run_sweep(
        CASE,
        {"tau": TAUS},
        steps=STEPS,
        cache_dir=tmp_path,
        max_attempts=ATTEMPTS,
        **count,
    )
    assert_failed_row(result, clean)
    assert ledger_record(tmp_path, result) == EXPECTED_RECORD
    # the quarantined variant is never cached, so clearing the ledger
    # is all a retry takes
    assert result.fingerprints[POISON] not in api.open_cache(tmp_path).keys()


def test_sweep_run_with_jobs(clean, poisoned):
    sweep = Sweep(CASE, {"tau": TAUS}, steps=STEPS)
    assert_failed_row(sweep.run(jobs=2), clean)


def test_adaptive_sampler(tmp_path, clean, poisoned):
    """The poisoned variant lands in the refinement pass; the sampled
    rows around it keep their fault-free bytes."""
    result = api.run_sweep(
        CASE,
        {"tau": TAUS},
        steps=STEPS,
        jobs=2,
        cache_dir=tmp_path,
        adaptive="final_kinetic_energy",
        max_attempts=ATTEMPTS,
    )
    assert result.stages == ["coarse", "refined", "coarse", "coarse"]
    assert_failed_row(result, clean)
    assert ledger_record(tmp_path, result) == EXPECTED_RECORD


def test_cli_jobs_json_matches_inline_body(tmp_path, poisoned, capsys):
    inline = api.run_sweep(
        CASE,
        {"tau": TAUS},
        steps=STEPS,
        cache_dir=tmp_path / "inline",
        max_attempts=ATTEMPTS,
    )
    code = cli_main([
        "sweep", CASE, "--param", "tau=" + ",".join(map(str, TAUS)),
        "--steps", str(STEPS), "--jobs", "2", "--json",
        "--cache-dir", str(tmp_path / "fleet"),
        "--max-attempts", str(ATTEMPTS),
    ])
    assert code == 1  # a FAILED row fails the sweep, it does not abort it
    out = capsys.readouterr().out
    assert out == render_response("sweep", api.sweep_payload(inline)) + "\n"


def test_jobs_telemetry_per_worker_files_and_warm_counts(tmp_path):
    grid = {"tau": TAUS}
    cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
    cold = api.run_sweep(
        CASE, grid, steps=STEPS, jobs=2, cache_dir=cold_dir, telemetry=True
    )
    assert cold.runs_executed == len(TAUS)
    aggregate = load_run(cold_dir)
    assert aggregate.dropped == 0
    names = [path.name for path in aggregate.files]
    assert sum(name.startswith("w1-") for name in names) == 1
    assert sum(name.startswith("w2-") for name in names) == 1
    assert aggregate.counters["variant.completed"] == cold.runs_executed

    # the same cache without the cold run's events
    shutil.copytree(
        cold_dir, warm_dir, ignore=shutil.ignore_patterns("telemetry")
    )
    warm = api.run_sweep(
        CASE, grid, steps=STEPS, jobs=2, cache_dir=warm_dir, telemetry=True
    )
    assert warm.runs_executed == 0
    counters = load_run(warm_dir).counters
    assert counters["variant.cached"] == counters["cache.hit"] == len(TAUS)
    assert "variant.completed" not in counters


def test_unphysical_variant_is_quarantined_not_cached(tmp_path):
    """A ``u0=5`` taylor-green variant (far above the sound speed) stays
    finite for a while; the validity guard turns it into a quarantined
    FAILED row instead of a cached, tabulated result."""
    result = api.run_sweep(
        CASE,
        {"u0": [1e-3, 5.0]},
        steps=STEPS,
        cache_dir=tmp_path,
        max_attempts=ATTEMPTS,
    )
    assert result.failed_count == 1
    assert result.provenance[1] == "failed" and result.results[1].failed
    assert not result.results[0].failed
    record = FailureLedger(tmp_path).record(result.fingerprints[1])
    assert record is not None and record.quarantined
    assert {a.exception for a in record.attempts} == {"StabilityError"}
    assert "sound speed" in record.attempts[0].message
    keys = api.open_cache(tmp_path).keys()
    assert result.fingerprints[0] in keys
    assert result.fingerprints[1] not in keys
