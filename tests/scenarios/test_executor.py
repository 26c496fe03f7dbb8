"""The sweep engine's execution guarantees: worker-count determinism,
interruption and resume, exact run counts, inline fallback."""

import dataclasses

import pytest

from repro import api
from repro.errors import ScenarioError
from repro.scenarios import (
    ResultCache,
    Sweep,
    SweepManifest,
    SweepScheduler,
    get_case,
    steady_state,
)
from repro.scenarios import executor as executor_module

TAUS = [0.55, 0.7, 0.8, 0.95]


def make_sweep(taus=TAUS):
    return Sweep(
        "taylor-green", {"tau": list(taus), "shape": [(8, 8, 4)]}, steps=10
    )


def run(sweep, cache_dir=None, workers=1, analyze=False, **kw):
    return SweepScheduler(
        sweep, cache_dir, workers=workers, analyze=analyze, **kw
    ).run()


class Interrupted(BaseException):
    """A kill mid-sweep: not a variant failure, so nothing catches it."""


class TestDeterminism:
    def test_jobs1_and_jobs4_bit_identical(self, tmp_path):
        """The headline guarantee: four workers change nothing — same
        tables, same cache keys, same cache bytes."""
        serial = run(make_sweep(), tmp_path / "serial", workers=1)
        parallel = run(make_sweep(), tmp_path / "parallel", workers=4)

        assert serial.to_table() == parallel.to_table()
        assert serial.to_csv() == parallel.to_csv()
        assert serial.fingerprints == parallel.fingerprints

        serial_keys = ResultCache(tmp_path / "serial").keys()
        assert serial_keys == ResultCache(tmp_path / "parallel").keys()
        assert len(serial_keys) == len(TAUS)
        for key in serial_keys:
            assert (tmp_path / "serial" / f"{key}.json").read_bytes() == (
                tmp_path / "parallel" / f"{key}.json"
            ).read_bytes()

    def test_uncached_parallel_matches_serial(self, tmp_path):
        serial = run(make_sweep(TAUS[:2]), workers=1)
        parallel = run(make_sweep(TAUS[:2]), workers=2)
        assert serial.to_table() == parallel.to_table()
        for a, b in zip(serial.results, parallel.results):
            assert a.series == b.series
            assert a.metrics == b.metrics

    def test_timing_metrics_stripped_from_payloads(self, tmp_path):
        result = run(make_sweep(TAUS[:2]), tmp_path)
        for case_result in result.results:
            assert "mflups" not in case_result.metrics
            assert case_result.metrics["steps_run"] == 10

    def test_inline_run_publishes_nothing(self, tmp_path):
        """One worker means no fleet: no work order, no leases."""
        run(make_sweep(TAUS[:2]), tmp_path, workers=1)
        assert not (tmp_path / "queue.json").exists()
        assert not (tmp_path / "leases").exists()


class TestInterruptionAndResume:
    def test_interrupted_after_2_resumes_with_exactly_2_runs(
        self, tmp_path, monkeypatch
    ):
        """The acceptance scenario: a 4-variant sweep dies after 2
        variants; the resumed sweep executes exactly the missing 2."""
        real = executor_module._execute_variant
        calls = []

        def crashing(task):
            if len(calls) == 2:
                raise Interrupted("simulated crash")
            calls.append(task.fingerprint)
            return real(task)

        monkeypatch.setattr(executor_module, "_execute_variant", crashing)
        with pytest.raises(Interrupted, match="simulated crash"):
            run(make_sweep(), tmp_path)
        assert len(ResultCache(tmp_path).keys()) == 2
        manifest = SweepManifest.load(tmp_path)
        assert sorted(manifest.completed) == sorted(calls)
        assert len(manifest.missing()) == 2

        executed = []

        def counting(task):
            executed.append(task.fingerprint)
            return real(task)

        monkeypatch.setattr(executor_module, "_execute_variant", counting)
        result = run(make_sweep(), tmp_path, resume=True)
        assert len(executed) == 2
        assert sorted(executed) == sorted(manifest.missing())
        assert result.provenance.count("cached") == 2
        assert result.provenance.count("run") == 2
        assert result.runs_executed == 2
        assert SweepManifest.load(tmp_path).complete

    def test_resumed_table_matches_uninterrupted_run(self, tmp_path):
        uninterrupted = run(make_sweep())
        # "Interrupt" by completing only the first two variants.
        run(make_sweep(TAUS[:2]), tmp_path)
        resumed = run(make_sweep(), tmp_path, workers=2)
        assert resumed.runs_executed == 2
        assert resumed.provenance[:2] == ["cached", "cached"]
        # the two missing variants went to the fleet, which attributes
        # them in the manifest of the full sweep
        assert all(p.startswith("worker:w") for p in resumed.provenance[2:])
        assert resumed.to_table() == uninterrupted.to_table()
        assert SweepManifest.load(tmp_path).complete

    def test_resume_without_manifest_errors(self, tmp_path):
        with pytest.raises(ScenarioError, match="nothing to resume"):
            run(make_sweep(), tmp_path, resume=True)

    def test_resume_different_sweep_errors(self, tmp_path):
        run(make_sweep(TAUS[:2]), tmp_path)
        other = Sweep(
            "taylor-green", {"tau": [0.66], "shape": [(8, 8, 4)]}, steps=10
        )
        with pytest.raises(ScenarioError, match="different"):
            run(other, tmp_path, resume=True)

    def test_resume_requires_cache_dir(self):
        with pytest.raises(ScenarioError, match="cache directory"):
            SweepScheduler(make_sweep(), resume=True)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ScenarioError, match="jobs"):
            api.run_sweep("taylor-green", {"tau": [0.7]}, jobs=0)


class TestCaseRefPortability:
    def test_registered_spec_object_runs_on_the_fleet(self, tmp_path):
        """A registered spec object resolves to its registry name, so
        closure-valued fields (steady_state stops) never have to cross
        a process boundary: workers rebuild the case by name."""
        spec = get_case("poiseuille-channel")
        assert spec.stop_when is not None  # the hazardous field
        sweep = Sweep(spec, {"tau": [0.9, 1.0]}, steps=10)
        result = run(sweep, tmp_path, workers=2)
        assert result.runs_executed == 2
        assert all(p.startswith("worker:w") for p in result.provenance)
        assert [r.metrics["steps_run"] for r in result.results] == [10, 10]

    def test_unpublishable_spec_runs_inline(self, tmp_path):
        """An unregistered spec holding a closure cannot be rebuilt by a
        worker; jobs=2 then runs every variant inline, publishing
        nothing, and the table is the one-worker table."""
        spec = dataclasses.replace(
            get_case("taylor-green"),
            name="tg-unregistered",
            stop_when=steady_state(lambda sim: 0.0),
        )
        sweep = Sweep(spec, {"tau": [0.6, 0.8], "shape": [(8, 8, 4)]}, steps=10)
        fleet = run(sweep, tmp_path / "fleet", workers=2)
        assert fleet.provenance == ["run", "run"]
        assert not (tmp_path / "fleet" / "queue.json").exists()
        inline = run(sweep, tmp_path / "inline", workers=1)
        assert fleet.to_table() == inline.to_table()
        assert fleet.to_csv() == inline.to_csv()

    def test_unpicklable_override_value_falls_back_to_serial(self):
        """Closure-valued sweep *parameters* cannot be published; they
        run inline just like closure-bearing specs."""
        sweep = Sweep(
            "taylor-green",
            {
                "profile": [lambda x: x, lambda x: 2 * x],
                "shape": [(8, 8, 4)],
            },
            steps=10,
        )
        result = run(sweep, workers=4)
        assert result.runs_executed == 2
        assert result.provenance == ["run", "run"]
        assert [r.metrics["steps_run"] for r in result.results] == [10, 10]


class TestAnalyzeFlagCaching:
    def test_analyze_false_entries_not_served_to_analyze_true(self, tmp_path):
        """Regression: a smoke sweep (analyze=False) must not poison
        the cache with vacuously-passing, metric-less payloads."""
        sweep = Sweep("taylor-green", {"tau": [0.7]}, steps=40)
        smoke = run(sweep, tmp_path, analyze=False)
        assert smoke.results[0].checks == {}
        full = run(sweep, tmp_path, analyze=True)
        assert full.runs_executed == 1  # cache miss: analyze differs
        assert "decay_error" in full.results[0].metrics
        assert full.results[0].checks  # real verdicts, not vacuous PASS
        # and the analyze=True entry now serves analyze=True warm runs
        warm = run(sweep, tmp_path, analyze=True)
        assert warm.runs_executed == 0


class TestSweepRunDelegation:
    def test_sweep_run_routes_to_the_engine(self, tmp_path):
        result = make_sweep(TAUS[:2]).run(
            analyze=False, jobs=2, cache_dir=tmp_path
        )
        assert all(p.startswith("worker:w") for p in result.provenance)
        assert result.runs_executed == 2
        # Lean results: scalar outcomes only, no simulation attached.
        assert all(r.simulation is None for r in result.results)

    def test_default_run_keeps_simulations(self):
        result = make_sweep(TAUS[:2]).run(analyze=False)
        assert result.provenance is None
        assert all(r.simulation is not None for r in result.results)
