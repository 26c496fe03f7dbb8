"""The ``repro.api`` facade: one code path for CLI, HTTP and library."""

import json

import pytest

from repro import api
from repro.core.io import render_response, response_envelope
from repro.errors import ScenarioError

CASE = "taylor-green"
SMALL = {"shape": (10, 10, 4)}


class TestCaseRequest:
    def test_fingerprint_matches_spec(self):
        request = api.case_request(CASE, steps=5, overrides=SMALL)
        assert request.fingerprint == request.spec.fingerprint()
        assert request.overrides["steps"] == 5

    def test_decoded_json_overrides_fingerprint_identically(self):
        # JSON bodies carry lists; decode_overrides retuples them so the
        # fingerprint matches what --set shape=10,10,4 produces.
        from_json = api.case_request(
            CASE, steps=5, overrides=api.decode_overrides({"shape": [10, 10, 4]})
        )
        native = api.case_request(CASE, steps=5, overrides=SMALL)
        assert from_json.fingerprint == native.fingerprint

    def test_invalid_override_raises(self):
        with pytest.raises(ScenarioError):
            api.case_request(CASE, overrides={"lattice": "D3Q999"})


class TestRunCase:
    def test_cold_then_warm_payloads_identical(self, tmp_path):
        cold = api.run_case(CASE, steps=5, overrides=SMALL, cache_dir=tmp_path)
        warm = api.run_case(CASE, steps=5, overrides=SMALL, cache_dir=tmp_path)
        assert not cold.cached and warm.cached
        assert cold.payload == warm.payload
        assert render_response("case", cold.payload) == render_response(
            "case", warm.payload
        )

    def test_warm_hit_runs_zero_steps(self, tmp_path, monkeypatch):
        api.run_case(CASE, steps=5, overrides=SMALL, cache_dir=tmp_path)
        from repro.scenarios.runner import CaseRunner

        def boom(self, **kwargs):
            raise AssertionError("a warm request must not execute")

        monkeypatch.setattr(CaseRunner, "run", boom)
        warm = api.run_case(CASE, steps=5, overrides=SMALL, cache_dir=tmp_path)
        assert warm.cached
        assert warm.result.simulation is None

    def test_cache_dir_rejects_checkpoint(self, tmp_path):
        with pytest.raises(ScenarioError, match="checkpoint"):
            api.run_case(
                CASE,
                steps=5,
                overrides=SMALL,
                cache_dir=tmp_path,
                checkpoint=str(tmp_path / "x.npz"),
            )


class TestAutoSpelling:
    """kernel='auto' is stored as 'planned' when the spec is built:
    same fingerprint, same cache entry, same bytes."""

    def test_case_request_records_planned(self):
        auto = api.case_request(CASE, steps=5, overrides=SMALL, kernel="auto")
        planned = api.case_request(CASE, steps=5, overrides=SMALL, kernel="planned")
        assert auto.spec.kernel == "planned"
        assert auto.fingerprint == planned.fingerprint

    def test_override_spelling_shares_the_fingerprint(self):
        """The alias holds for every way a kernel reaches the spec, not
        only the kernel= option: overrides and sweep axes too."""
        planned = api.case_request(CASE, steps=5, overrides=SMALL, kernel="planned")
        via_override = api.case_request(
            CASE, steps=5, overrides={**SMALL, "kernel": "auto"}
        )
        assert via_override.spec.kernel == "planned"
        assert via_override.fingerprint == planned.fingerprint
        axis = api.sweep_request(CASE, {"kernel": ["auto", "roll"]}, steps=5)
        assert [spec.kernel for spec in axis.specs] == ["planned", "roll"]
        assert axis.fingerprints[0] == (
            api.case_request(CASE, steps=5, kernel="planned").fingerprint
        )

    def test_run_case_payload_and_cache_entry_shared(self, tmp_path):
        auto = api.run_case(
            CASE, steps=5, overrides=SMALL, kernel="auto", cache_dir=tmp_path
        )
        assert not auto.cached
        planned = api.run_case(
            CASE, steps=5, overrides=SMALL, kernel="planned", cache_dir=tmp_path
        )
        assert planned.cached  # the 'auto' run warmed the planned entry
        assert render_response("case", auto.payload) == render_response(
            "case", planned.payload
        )

    def test_sweeps_resolve_auto(self, tmp_path):
        grid = {"tau": [0.7, 0.8]}
        auto = api.sweep_request(CASE, grid, steps=5, kernel="auto")
        planned = api.sweep_request(CASE, grid, steps=5, kernel="planned")
        assert auto.fingerprints == planned.fingerprints
        ran = {
            kernel: api.sweep_payload(
                api.run_sweep(CASE, grid, steps=5, kernel=kernel)
            )
            for kernel in ("auto", "planned")
        }
        assert ran["auto"] == ran["planned"]


class TestSweepRequest:
    def test_expansion_is_aligned(self):
        request = api.sweep_request(CASE, {"tau": [0.7, 0.8]}, steps=5)
        assert len(request) == 2
        assert request.parameters == ("tau",)
        assert [v["tau"] for v in request.variants] == [0.7, 0.8]
        assert len(request.fingerprints) == len(set(request.fingerprints))

    def test_assemble_requires_every_variant_warm(self, tmp_path):
        request = api.sweep_request(
            CASE, {"tau": [0.7, 0.8]}, steps=5
        )
        assert api.assemble_sweep(request, tmp_path) is None
        api.run_case(
            CASE, steps=5, overrides={"tau": 0.7}, cache_dir=tmp_path
        )
        assert api.assemble_sweep(request, tmp_path) is None
        api.run_case(
            CASE, steps=5, overrides={"tau": 0.8}, cache_dir=tmp_path
        )
        result = api.assemble_sweep(request, tmp_path)
        assert result is not None
        assert result.passed

    def test_run_sweep_payload_matches_assembled(self, tmp_path):
        grid = {"tau": [0.7, 0.8]}
        ran = api.run_sweep(CASE, grid, steps=5, cache_dir=tmp_path)
        request = api.sweep_request(CASE, grid, steps=5)
        assembled = api.assemble_sweep(request, tmp_path)
        assert api.sweep_payload(ran) == api.sweep_payload(assembled)


class TestSweepOptionValidation:
    def test_workers_without_cache_dir_use_a_temporary_one(self):
        result = api.run_sweep(CASE, {"tau": [0.7, 0.8]}, steps=5, workers=2)
        assert result.passed
        assert all(p.startswith("worker:w") for p in result.provenance)

    def test_workers_and_jobs_are_one_count(self, tmp_path):
        grid = {"tau": [0.7, 0.8]}
        by_workers = api.run_sweep(
            CASE, grid, steps=5, workers=2, cache_dir=tmp_path / "w"
        )
        by_jobs = api.run_sweep(
            CASE, grid, steps=5, jobs=2, cache_dir=tmp_path / "j"
        )
        both = api.run_sweep(
            CASE, grid, steps=5, jobs=2, workers=2, cache_dir=tmp_path / "b"
        )
        assert api.sweep_payload(by_workers) == api.sweep_payload(by_jobs)
        assert by_workers.to_csv() == by_jobs.to_csv() == both.to_csv()
        assert api.check_sweep_options(cache_dir=None, workers=3) == 3
        assert api.check_sweep_options(cache_dir=None) == 1
        with pytest.raises(ScenarioError, match="disagree"):
            api.run_sweep(CASE, grid, workers=2, jobs=3)

    def test_telemetry_needs_cache_dir(self):
        with pytest.raises(ScenarioError, match="--telemetry"):
            api.run_sweep(CASE, {"tau": [0.7]}, telemetry=True)


class TestEnvelope:
    def test_schema_versioned_and_canonical(self):
        rendered = render_response("thing", {"b": 1, "a": (1, 2)})
        assert rendered == '{"data":{"a":[1,2],"b":1},"kind":"thing","schema":1}'
        assert json.loads(rendered) == response_envelope(
            "thing", {"b": 1, "a": (1, 2)}
        )

    def test_nan_is_rejected(self):
        with pytest.raises(ValueError):
            render_response("thing", {"x": float("nan")})


class TestPredictCost:
    def test_no_calibration_returns_none(self, tmp_path):
        estimate = api.predict_cost(
            kernel="planned",
            lattice="D3Q19",
            path=tmp_path / "missing.json",
        )
        assert estimate is None
