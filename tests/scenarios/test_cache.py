"""ResultCache/SweepManifest units + warm/corrupt/partial cache behavior."""

import json

import pytest

from repro.errors import ScenarioError
from repro.scenarios import ResultCache, Sweep, SweepManifest, SweepScheduler
from repro.scenarios import executor as executor_module
from repro.scenarios.cache import sweep_key

PAYLOAD = {
    "case": "x",
    "metrics": {"steps_run": 10, "err": 0.125},
    "series": {"step": [0.0, 5.0], "mass": [1.0, 1.0]},
    "checks": {"ok": True},
}


def make_sweep():
    return Sweep(
        "taylor-green", {"tau": [0.6, 0.8], "shape": [(8, 8, 4)]}, steps=10
    )


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("abc123", PAYLOAD)
        assert cache.get("abc123") == PAYLOAD
        assert cache.keys() == ("abc123",)

    def test_missing_entry_is_none(self, tmp_path):
        assert ResultCache(tmp_path).get("nope") is None

    def test_truncated_entry_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("abc123", PAYLOAD)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.get("abc123") is None

    def test_tampered_entry_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("abc123", PAYLOAD)
        envelope = json.loads(path.read_text())
        envelope["data"]["metrics"]["err"] = 99.0  # checksum now stale
        path.write_text(json.dumps(envelope))
        assert cache.get("abc123") is None

    def test_entry_under_wrong_key_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("abc123", PAYLOAD)
        path.rename(tmp_path / "def456.json")
        assert cache.get("def456") is None

    def test_manifest_not_listed_as_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepManifest.create(tmp_path, "x", ["tau"], ["abc123"])
        cache.put("abc123", PAYLOAD)
        assert cache.keys() == ("abc123",)

    def test_corrupt_entry_moved_to_sidecar_and_rewarmable(self, tmp_path):
        from repro.scenarios.cache import CORRUPT_DIRNAME

        cache = ResultCache(tmp_path)
        path = cache.put("abc123", PAYLOAD)
        torn = path.read_text()[:40]
        path.write_text(torn)
        assert cache.lookup("abc123").status == "corrupt"
        # the torn bytes were preserved for post-mortem, not destroyed
        assert not path.exists()
        sidecar = tmp_path / CORRUPT_DIRNAME / path.name
        assert sidecar.read_text() == torn
        # ...and the slot re-warms like any cold fingerprint
        assert cache.lookup("abc123").status == "miss"
        cache.put("abc123", PAYLOAD)
        assert cache.get("abc123") == PAYLOAD
        assert cache.keys() == ("abc123",)  # sidecar dir never listed


class TestSweepManifest:
    def test_create_load_round_trip(self, tmp_path):
        created = SweepManifest.create(tmp_path, "x", ["tau"], ["f1", "f2"])
        created.record_completion("f1")
        loaded = SweepManifest.load(tmp_path)
        assert loaded.case == "x"
        assert loaded.completed == ["f1"]
        assert loaded.missing() == ["f2"]
        assert not loaded.complete
        assert loaded.key == sweep_key("x", ["f1", "f2"])

    def test_load_absent_or_corrupt_is_none(self, tmp_path):
        assert SweepManifest.load(tmp_path) is None
        (tmp_path / SweepManifest.FILENAME).write_text("{not json")
        assert SweepManifest.load(tmp_path) is None

    def test_resume_rejects_mismatched_sweep(self, tmp_path):
        SweepManifest.create(tmp_path, "x", ["tau"], ["f1"])
        with pytest.raises(ScenarioError, match="different"):
            SweepManifest.resume(tmp_path, "y", ["tau"], ["f1"])


class TestWarmCacheSweeps:
    def test_warm_cache_executes_zero_runs_same_table(
        self, tmp_path, monkeypatch
    ):
        cold = SweepScheduler(
            make_sweep(), tmp_path, workers=1, analyze=False
        ).run()
        assert cold.runs_executed == 2

        def forbidden(task):  # any execution attempt is a failure
            raise AssertionError("warm cache must not run variants")

        monkeypatch.setattr(executor_module, "_execute_variant", forbidden)
        warm = SweepScheduler(
            make_sweep(), tmp_path, workers=1, analyze=False
        ).run()
        assert warm.runs_executed == 0
        assert warm.provenance == ["cached", "cached"]
        assert warm.to_table() == cold.to_table()
        assert warm.to_csv() == cold.to_csv()

    def test_corrupted_entry_is_rerun(self, tmp_path):
        cold = SweepScheduler(
            make_sweep(), tmp_path, workers=1, analyze=False
        ).run()
        cache = ResultCache(tmp_path)
        victim = cache.keys()[0]
        cache.entry_path(victim).write_text("garbage{{{")
        repaired = SweepScheduler(
            make_sweep(), tmp_path, workers=1, analyze=False
        ).run()
        assert repaired.runs_executed == 1
        assert sorted(repaired.provenance) == ["cached", "run"]
        assert repaired.to_table() == cold.to_table()
        # the re-run rewrote a valid entry
        assert cache.get(victim) is not None

    def test_partial_entry_is_rerun(self, tmp_path):
        cold = SweepScheduler(
            make_sweep(), tmp_path, workers=1, analyze=False
        ).run()
        cache = ResultCache(tmp_path)
        victim = cache.keys()[1]
        path = cache.entry_path(victim)
        path.write_text(path.read_text()[:40])  # simulated torn write
        repaired = SweepScheduler(
            make_sweep(), tmp_path, workers=1, analyze=False
        ).run()
        assert repaired.runs_executed == 1
        assert repaired.to_table() == cold.to_table()

    def test_cache_shared_across_jobs_settings(self, tmp_path):
        SweepScheduler(
            make_sweep(), tmp_path, workers=2, analyze=False
        ).run()
        warm = SweepScheduler(
            make_sweep(), tmp_path, workers=1, analyze=False
        ).run()
        assert warm.runs_executed == 0


class TestConcurrentManifest:
    def make_manifest(self, root):
        return SweepManifest.create(root, "case", ["tau"], ["f1", "f2", "f3"])

    def test_record_completion_merges_concurrent_writers(self, tmp_path):
        """Two in-memory manifests (two workers) over one file: neither
        erases the other's completions."""
        a = self.make_manifest(tmp_path)
        b = SweepManifest.load(tmp_path)
        a.record_completion("f1", worker="wa")
        b.record_completion("f2", worker="wb")
        merged = SweepManifest.load(tmp_path)
        assert sorted(merged.completed) == ["f1", "f2"]
        assert merged.workers == {"f1": "wa", "f2": "wb"}

    def test_record_completion_ignores_foreign_manifest(self, tmp_path):
        mine = self.make_manifest(tmp_path)
        SweepManifest.create(tmp_path, "other-case", ["kn"], ["g1"]).save()
        mine.record_completion("f1")
        assert mine.completed == ["f1"]  # no union with the foreign sweep

    def test_workers_map_roundtrips(self, tmp_path):
        manifest = self.make_manifest(tmp_path)
        manifest.record_completion("f3", worker="w9")
        assert SweepManifest.load(tmp_path).workers == {"f3": "w9"}

    def test_legacy_manifest_without_workers_loads(self, tmp_path):
        manifest = self.make_manifest(tmp_path)
        raw = json.loads(manifest.path.read_text())
        del raw["workers"]
        manifest.path.write_text(json.dumps(raw))
        assert SweepManifest.load(tmp_path).workers == {}


class TestCacheDiff:
    def test_identical_caches(self, tmp_path):
        a = ResultCache(tmp_path / "a")
        b = ResultCache(tmp_path / "b")
        a.put("f1", PAYLOAD)
        b.put("f1", PAYLOAD)
        diff = a.diff(b)
        assert diff.identical
        assert diff.matching == ("f1",)
        assert "1 matching" in diff.summary()

    def test_differing_and_one_sided_entries(self, tmp_path):
        a = ResultCache(tmp_path / "a")
        b = ResultCache(tmp_path / "b")
        a.put("shared", PAYLOAD)
        b.put("shared", {**PAYLOAD, "metrics": {"steps_run": 99}})
        a.put("only-a", PAYLOAD)
        b.put("only-b", PAYLOAD)
        diff = a.diff(b)
        assert not diff.identical
        assert diff.differing == ("shared",)
        assert diff.only_self == ("only-a",)
        assert diff.only_other == ("only-b",)

    def test_invalid_entries_count_as_missing(self, tmp_path):
        a = ResultCache(tmp_path / "a")
        b = ResultCache(tmp_path / "b")
        a.put("f1", PAYLOAD)
        b.put("f1", PAYLOAD)
        (b.root / "f1.json").write_text("{torn")
        diff = a.diff(b)
        assert diff.only_self == ("f1",)
        assert a.checksum("f1") is not None
        assert b.checksum("f1") is None


class TestCacheLookup:
    def make_cache(self, tmp_path):
        from repro.telemetry import Telemetry

        return ResultCache(tmp_path, telemetry=Telemetry.in_memory())

    def test_statuses(self, tmp_path):
        cache = self.make_cache(tmp_path)
        assert cache.lookup("absent").status == "miss"
        cache.put("abc123", PAYLOAD)
        found = cache.lookup("abc123")
        assert found.status == "hit" and found.hit
        assert found.payload == PAYLOAD
        cache.entry_path("abc123").write_text("{torn")
        torn = cache.lookup("abc123")
        assert torn.status == "corrupt"
        assert torn.payload is None and not torn.hit

    def test_entry_of_older_version_is_a_miss(self, tmp_path):
        """A v1 entry predates the planned default engine: its bits can
        differ for an unchanged fingerprint, so it must re-run (a miss,
        not a hit, and not a corrupt entry to quarantine)."""
        from repro.scenarios.cache import _ENTRY_VERSION

        assert _ENTRY_VERSION >= 2
        cache = self.make_cache(tmp_path)
        path = cache.put("abc123", PAYLOAD)
        envelope = json.loads(path.read_text())
        envelope["version"] = 1
        path.write_text(json.dumps(envelope))
        assert cache.get("abc123") is None
        assert cache.lookup("abc123").status == "miss"
        assert path.exists()  # left in place for put() to overwrite
        assert cache.telemetry.counters == {"cache.miss": 1}
        cache.put("abc123", PAYLOAD)
        assert cache.lookup("abc123").hit

    def test_corrupt_entry_logged_and_counted(self, tmp_path, caplog):
        cache = self.make_cache(tmp_path)
        cache.put("abc123", PAYLOAD)
        path = cache.entry_path("abc123")
        path.write_text("{torn")
        with caplog.at_level("WARNING", logger="repro.scenarios.cache"):
            assert cache.lookup("abc123").status == "corrupt"
        assert "corrupt cache entry" in caplog.text
        t = cache.telemetry
        assert t.counters["cache.corrupt"] == 1
        corrupt = [
            e
            for e in t.events()
            if e["type"] == "count" and e["name"] == "cache.corrupt"
        ]
        assert corrupt[0]["attrs"]["path"] == str(path)

    def test_get_probes_silently_lookup_counts(self, tmp_path):
        cache = self.make_cache(tmp_path)
        assert cache.get("absent") is None
        assert cache.telemetry.counters == {}
        assert cache.lookup("absent").status == "miss"
        cache.put("abc123", PAYLOAD)
        assert cache.lookup("abc123").hit
        assert cache.telemetry.counters == {"cache.miss": 1, "cache.hit": 1}
