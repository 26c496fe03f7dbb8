"""Fleet telemetry: concurrent multi-worker sweeps merge without loss,
worker reports carry telemetry-sourced fields, heartbeats are emitted,
and sweep-status renders the rollup."""

import math
import time

import pytest

from repro.scenarios import (
    Sweep,
    SweepScheduler,
    sweep_status,
)
from repro.scenarios.scheduler import LeaseBoard
from repro.scenarios.workers import lease_heartbeat, run_worker
from repro.telemetry import Telemetry, load_run


def make_sweep(taus=(0.6, 0.7, 0.8)):
    return Sweep("taylor-green", {"tau": list(taus)}, steps=10)


class TestMultiWorkerMerge:
    def test_two_worker_sweep_merges_without_loss(self, tmp_path):
        telemetry_dir = tmp_path / "telemetry"
        result = SweepScheduler(
            make_sweep(), tmp_path, workers=2, telemetry_dir=telemetry_dir
        ).run()
        assert result.passed

        aggregate = load_run(tmp_path)
        # one exclusively-owned file per launched worker plus the
        # engine's own (its cache probes), no torn lines
        assert len(aggregate.files) == 3
        workers = [f for f in aggregate.files if f.name.startswith(("w1-", "w2-"))]
        assert len(workers) == 2
        assert aggregate.dropped == 0
        # every variant executed exactly once, fleet-wide
        counters = aggregate.counters
        assert counters["variant.completed"] == 3
        spans = aggregate.variant_spans()
        assert len(spans) == 3
        assert {s["attrs"]["fingerprint"] for s in spans} == set(
            result.fingerprints
        )
        # span attrs and counters describe the same work
        updates = sum(
            s["attrs"]["steps"] * s["attrs"]["cells"] for s in spans
        )
        assert counters["variant.updates"] == updates
        stats = aggregate.worker_stats()
        assert sum(w.variants for w in stats.values()) == 3
        assert set(stats) <= {"w1", "w2"}

    def test_forked_workers_write_own_files(self, tmp_path):
        telemetry_dir = tmp_path / "telemetry"
        result = SweepScheduler(
            make_sweep(),
            tmp_path,
            workers=2,
            analyze=False,
            telemetry_dir=telemetry_dir,
        ).run()
        assert result.runs_executed == 3
        aggregate = load_run(tmp_path)
        assert aggregate.dropped == 0
        assert aggregate.counters["variant.completed"] == 3
        # workers forked from the parent must not share its file
        assert len(aggregate.files) >= 2

    def test_warm_replay_counts_cached_variants(self, tmp_path):
        telemetry_dir = tmp_path / "telemetry"
        SweepScheduler(make_sweep(), tmp_path, analyze=False).run()
        warm = SweepScheduler(
            make_sweep(),
            tmp_path,
            analyze=False,
            telemetry_dir=telemetry_dir,
        ).run()
        assert warm.runs_executed == 0
        aggregate = load_run(tmp_path)
        assert aggregate.counters["variant.cached"] == 3
        assert aggregate.counters["cache.hit"] == 3
        assert aggregate.cache_hit_rate() == 1.0


class TestWorkerReport:
    def test_report_fields_sourced_from_telemetry(self, tmp_path):
        SweepScheduler(make_sweep(), tmp_path, workers=0).publish()
        telemetry_dir = tmp_path / "telemetry"

        first = run_worker(
            tmp_path, worker_id="w1", telemetry_dir=telemetry_dir
        )
        assert len(first.completed) == 3
        assert first.cache_hits == 0
        assert first.mflups > 0
        assert "MFLUP/s" in first.summary()

        second = run_worker(
            tmp_path, worker_id="w2", telemetry_dir=telemetry_dir
        )
        assert second.completed == []
        assert second.cache_hits == 3
        assert math.isnan(second.mflups)
        assert "3 cache hit(s)" in second.summary()

    def test_report_defaults_without_recorder(self, tmp_path):
        SweepScheduler(make_sweep((0.7,)), tmp_path, workers=0).publish()
        report = run_worker(tmp_path, worker_id="w1")
        assert report.cache_hits == 0
        assert math.isnan(report.mflups)
        assert "cache hit" not in report.summary()
        assert "MFLUP/s" not in report.summary()


class TestHeartbeat:
    def test_heartbeat_emits_events(self, tmp_path):
        board = LeaseBoard(tmp_path, owner="w1", ttl=0.2)
        assert board.acquire("fp123")
        recorder = Telemetry.in_memory(process="w1")
        try:
            with lease_heartbeat(board, "fp123", recorder):
                time.sleep(0.18)  # ttl/4 = 50 ms -> a few beats
        finally:
            board.release("fp123")
        beats = [
            e for e in recorder.events() if e["name"] == "worker.heartbeat"
        ]
        assert beats
        assert beats[0]["attrs"] == {"worker": "w1", "fingerprint": "fp123"}

    def test_heartbeat_defaults_to_silent(self, tmp_path):
        board = LeaseBoard(tmp_path, owner="w1", ttl=0.2)
        assert board.acquire("fp123")
        try:
            with lease_heartbeat(board, "fp123"):
                time.sleep(0.12)
        finally:
            board.release("fp123")  # no recorder, no error


class TestStatusRollup:
    def test_status_includes_telemetry_lines(self, tmp_path):
        SweepScheduler(
            make_sweep(), tmp_path, workers=2,
            telemetry_dir=tmp_path / "telemetry",
        ).run()
        status = sweep_status(tmp_path)
        assert status.telemetry is not None
        assert status.telemetry.events > 0
        assert status.to_payload()["telemetry"]["events"] > 0
        summary = status.summary()
        assert "telemetry:" in summary
        assert "cache hit rate" in summary
        assert "MFLUP/s" in summary

    def test_status_without_telemetry_stays_bare(self, tmp_path):
        SweepScheduler(make_sweep((0.7,)), tmp_path, analyze=False).run()
        status = sweep_status(tmp_path)
        assert status.telemetry is None
        assert status.to_payload()["telemetry"] is None
        assert "telemetry:" not in status.summary()


@pytest.mark.parametrize("workers", [1, 2])
def test_telemetry_never_changes_the_table(tmp_path, workers):
    """Observation is not perturbation at the sweep level either: the
    data columns are byte-identical with and without telemetry."""
    plain = SweepScheduler(make_sweep(), tmp_path / "a", analyze=False).run()
    instrumented = SweepScheduler(
        make_sweep(),
        tmp_path / "b",
        workers=workers,
        analyze=False,
        telemetry_dir=tmp_path / "b" / "telemetry",
    ).run()
    assert instrumented.to_table() == plain.to_table()
    assert instrumented.to_csv() == plain.to_csv()
