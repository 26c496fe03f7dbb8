"""Distributed sweep scheduler: leases, determinism, crash recovery."""

import multiprocessing
import threading
import time

import pytest

from repro.core.io import ClaimRecord, read_claim, write_claim
from repro.errors import ScenarioError
from repro.scenarios import (
    ResultCache,
    Sweep,
    SweepManifest,
    SweepScheduler,
    WorkQueue,
    get_case,
    run_worker,
)
from repro.scenarios.executor import SweepPlan
from repro.scenarios.scheduler import LeaseBoard

TAUS = [0.55, 0.7, 0.8, 0.95]


def make_sweep(taus=TAUS):
    return Sweep(
        "taylor-green", {"tau": list(taus), "shape": [(8, 8, 4)]}, steps=10
    )


def cache_bytes(root):
    reserved = {"manifest.json", "queue.json"}
    return {
        p.name: p.read_bytes()
        for p in sorted(root.glob("*.json"))
        if p.name not in reserved
    }


class TestLeaseBoard:
    def test_acquire_is_exclusive(self, tmp_path):
        a = LeaseBoard(tmp_path, owner="a")
        b = LeaseBoard(tmp_path, owner="b")
        assert a.acquire("fp1")
        assert not b.acquire("fp1")
        assert b.acquire("fp2")  # other variants stay claimable

    def test_release_frees_only_own_lease(self, tmp_path):
        a = LeaseBoard(tmp_path, owner="a")
        b = LeaseBoard(tmp_path, owner="b")
        assert a.acquire("fp")
        assert not b.release("fp")  # not b's to release
        assert a.release("fp")
        assert b.acquire("fp")

    def test_live_lease_cannot_be_reclaimed(self, tmp_path):
        a = LeaseBoard(tmp_path, owner="a", ttl=3600)
        b = LeaseBoard(tmp_path, owner="b", ttl=3600)
        assert a.acquire("fp")
        assert not b.reclaim("fp")
        assert b.holder("fp").owner == "a"

    def test_restarted_worker_reclaims_its_own_stale_lease(self, tmp_path):
        """A worker restarted with the same explicit --worker-id must
        recover its crashed predecessor's lease, not deadlock on it."""
        board = LeaseBoard(tmp_path, owner="w1")
        dead_previous = ClaimRecord(
            owner="w1",  # same id, earlier incarnation
            resource="fp",
            host="elsewhere",
            pid=1,
            acquired_at=time.time() - 100,
            expires_at=time.time() - 50,
        )
        assert write_claim(board.path("fp"), dead_previous)
        assert not board.acquire("fp")  # O_EXCL: file still there
        assert board.reclaim("fp")
        assert board.acquire("fp")

    def test_heartbeat_keeps_slow_variant_lease_live(self, tmp_path):
        from repro.scenarios.workers import lease_heartbeat

        board = LeaseBoard(tmp_path, owner="slow", ttl=0.4)
        peer = LeaseBoard(tmp_path, owner="peer", ttl=0.4)
        assert board.acquire("fp")
        with lease_heartbeat(board, "fp"):
            time.sleep(1.0)  # well past the original expiry
            record = peer.holder("fp")
            assert record is not None and not peer.stale(record)
            assert not peer.reclaim("fp")
        assert board.release("fp")

    def test_expired_lease_is_reclaimed(self, tmp_path):
        board = LeaseBoard(tmp_path, owner="b")
        stale = ClaimRecord(
            owner="dead",
            resource="fp",
            host="elsewhere",
            pid=1,
            acquired_at=time.time() - 100,
            expires_at=time.time() - 50,
        )
        assert write_claim(board.path("fp"), stale)
        assert board.reclaim("fp")
        assert board.acquire("fp")
        assert board.holder("fp").owner == "b"

    def test_dead_same_host_pid_is_stale_before_expiry(self, tmp_path):
        child = multiprocessing.Process(target=lambda: None)
        child.start()
        child.join()  # pid now dead, almost surely not yet recycled
        board = LeaseBoard(tmp_path, owner="b", ttl=3600)
        record = ClaimRecord(
            owner="crashed",
            resource="fp",
            host=board.host,
            pid=child.pid,
            acquired_at=time.time(),
            expires_at=time.time() + 3600,
        )
        assert write_claim(board.path("fp"), record)
        assert board.stale(record)
        assert board.reclaim("fp")

    def test_renew_extends_expiry(self, tmp_path):
        board = LeaseBoard(tmp_path, owner="a", ttl=60)
        assert board.acquire("fp")
        before = board.holder("fp").expires_at
        time.sleep(0.01)
        assert board.renew("fp")
        assert board.holder("fp").expires_at > before
        other = LeaseBoard(tmp_path, owner="b", ttl=60)
        assert not other.renew("fp")  # not the owner

    def test_active_lists_live_leases_only(self, tmp_path):
        board = LeaseBoard(tmp_path, owner="a")
        assert board.acquire("live")
        stale = ClaimRecord(
            owner="dead",
            resource="gone",
            host="elsewhere",
            pid=1,
            acquired_at=0.0,
            expires_at=1.0,
        )
        write_claim(board.path("gone"), stale)
        assert set(board.active()) == {"live"}

    def test_break_claim_races_have_one_winner(self, tmp_path):
        board = LeaseBoard(tmp_path, owner="x")
        stale = ClaimRecord(
            owner="dead", resource="fp", host="h", pid=1,
            acquired_at=0.0, expires_at=1.0,
        )
        write_claim(board.path("fp"), stale)
        from repro.core.io import break_claim

        first = break_claim(board.path("fp"))
        second = break_claim(board.path("fp"))
        assert first and not second
        assert read_claim(board.path("fp")) is None


    def test_write_claim_publishes_complete_records_only(self, tmp_path):
        """A claim appears on disk only fully written (temp file + link),
        so a contender never reads an empty claim and breaks a live lock;
        winner and loser both leave no temp file behind."""
        path = tmp_path / "fp.lease"
        record = ClaimRecord(
            owner="a", resource="fp", host="h", pid=1,
            acquired_at=0.0, expires_at=1e12,
        )
        assert write_claim(path, record)
        assert read_claim(path) == record
        other = ClaimRecord(
            owner="b", resource="fp", host="h", pid=2,
            acquired_at=0.0, expires_at=1e12,
        )
        assert not write_claim(path, other)
        assert read_claim(path) == record
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fp.lease"]


class TestWorkQueue:
    def test_publish_load_roundtrip_preserves_fingerprints(self, tmp_path):
        plan = SweepPlan.of(make_sweep())
        WorkQueue.publish(tmp_path, plan, analyze=False)
        queue = WorkQueue.load(tmp_path)
        assert queue.case == "taylor-green"
        assert [i.fingerprint for i in queue.items] == plan.fingerprints
        # tuple-valued overrides survive the JSON round-trip
        assert queue.items[0].overrides["shape"] == (8, 8, 4)
        # and the worker-side task agrees with the scheduler's
        assert queue.items[0].task("taylor-green", False) == plan.task(0, False)

    def test_load_without_publish_errors(self, tmp_path):
        with pytest.raises(ScenarioError, match="no published sweep"):
            WorkQueue.load(tmp_path)

    def test_corrupt_queue_errors(self, tmp_path):
        (tmp_path / "queue.json").write_text("{not json")
        with pytest.raises(ScenarioError, match="corrupt work queue"):
            WorkQueue.load(tmp_path)

    @pytest.mark.parametrize("second", ["publish", "append"])
    def test_concurrent_queue_writers_never_collide(self, tmp_path, second):
        """Two sweeps writing one directory's queue.json used to share a
        fixed queue.json.tmp, so one writer's rename could take the
        other's temp file away (FileNotFoundError).  Every write now
        goes through its own temp file."""
        plan = SweepPlan.of(make_sweep())
        entries = [
            ("taylor-green", overrides, fingerprint, None)
            for overrides, fingerprint in zip(plan.overrides, plan.fingerprints)
        ]
        writers = {
            "publish": lambda: WorkQueue.publish(tmp_path, plan, analyze=False),
            "append": lambda: WorkQueue.append(tmp_path, entries, analyze=False),
        }
        errors = []

        def hammer(write):
            try:
                for _ in range(200):
                    write()
            except Exception as exc:  # collected, asserted below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(writers[name],))
            for name in ("publish", second)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        queue = WorkQueue.load(tmp_path)
        assert [item.fingerprint for item in queue.items] == plan.fingerprints
        assert list(tmp_path.glob("*.tmp")) == []

    def test_unregistered_case_rejected(self, tmp_path):
        import dataclasses

        spec = dataclasses.replace(get_case("taylor-green"), name="tg-local")
        plan = SweepPlan.of(Sweep(spec, {"tau": [0.6, 0.8]}, steps=10))
        with pytest.raises(ScenarioError, match="registered case"):
            WorkQueue.publish(tmp_path, plan, analyze=False)


class TestDistributedDeterminism:
    def test_workers1_workers4_and_warm_bit_identical(self, tmp_path):
        """The headline guarantee extended to distributed execution:
        an inline run, 1 worker, 4 workers and a warm replay emit
        the same tables and the same cache bytes."""
        serial = SweepScheduler(make_sweep(), tmp_path / "serial", workers=0).run()
        one = SweepScheduler(make_sweep(), tmp_path / "w1", workers=1).run()
        four = SweepScheduler(make_sweep(), tmp_path / "w4", workers=4).run()
        warm = SweepScheduler(make_sweep(), tmp_path / "w4", workers=4).run()

        assert serial.to_table() == one.to_table() == four.to_table()
        assert serial.to_csv() == one.to_csv() == four.to_csv() == warm.to_csv()
        assert (
            cache_bytes(tmp_path / "serial")
            == cache_bytes(tmp_path / "w1")
            == cache_bytes(tmp_path / "w4")
        )
        assert warm.runs_executed == 0
        assert all(p == "cached" for p in warm.provenance)

    def test_worker_provenance_attributes_completions(self, tmp_path):
        result = SweepScheduler(make_sweep(), tmp_path, workers=2).run()
        assert all(p.startswith("worker:w") for p in result.provenance)
        assert result.runs_executed == len(TAUS)
        manifest = SweepManifest.load(tmp_path)
        assert sorted(manifest.completed) == sorted(result.fingerprints)
        assert set(manifest.workers) == set(result.fingerprints)

    def test_scheduler_without_workers_runs_inline(self, tmp_path):
        result = SweepScheduler(make_sweep(TAUS[:2]), tmp_path, workers=0).run()
        assert result.provenance == ["run", "run"]
        assert result.to_table() == SweepScheduler(
            make_sweep(TAUS[:2])
        ).run().to_table()

    def test_invalid_workers_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="workers"):
            SweepScheduler(make_sweep(), tmp_path, workers=-1)


class TestWorkerLoop:
    def publish(self, root, sweep=None, analyze=True):
        scheduler = SweepScheduler(sweep or make_sweep(), root, workers=0,
                                   analyze=analyze)
        return scheduler, scheduler.publish()[0]

    def test_single_worker_drains_the_queue(self, tmp_path):
        scheduler, plan = self.publish(tmp_path)
        report = run_worker(tmp_path, worker_id="solo")
        assert sorted(report.completed) == sorted(plan.fingerprints)
        assert not report.reclaimed
        # a second worker finds nothing to do
        again = run_worker(tmp_path, worker_id="late")
        assert again.completed == []
        assert again.already_cached == len(plan.fingerprints)

    def test_max_variants_stops_early(self, tmp_path):
        scheduler, plan = self.publish(tmp_path)
        report = run_worker(tmp_path, worker_id="partial", max_variants=2)
        assert len(report.completed) == 2
        assert report.already_cached == 0
        finisher = run_worker(tmp_path, worker_id="finisher", max_variants=1)
        assert len(finisher.completed) == 1
        # the early return still reports the peer's entries as cached
        assert finisher.already_cached == 2

    def test_killed_worker_is_reclaimed_and_table_unchanged(self, tmp_path):
        """The acceptance scenario: a worker dies mid-variant leaving a
        lease and no cache entry; a peer reclaims the stale lease, runs
        the variant, and the final table matches an uninterrupted run
        byte for byte."""
        scheduler, plan = self.publish(tmp_path)
        # Complete all but the last variant.
        run_worker(tmp_path, worker_id="early", max_variants=len(plan) - 1)
        victim = plan.fingerprints[-1]
        board = LeaseBoard(tmp_path, owner="observer")
        crashed = ClaimRecord(
            owner="killed-mid-variant",
            resource=victim,
            host="gone-host",
            pid=1,
            acquired_at=time.time() - 120,
            expires_at=time.time() - 60,  # TTL long expired
        )
        assert write_claim(board.path(victim), crashed)
        assert ResultCache(tmp_path).get(victim) is None  # died before commit

        rescuer = run_worker(tmp_path, worker_id="rescuer")
        assert rescuer.reclaimed == [victim]
        assert rescuer.completed == [victim]

        merged = scheduler.collect()
        reference = SweepScheduler(make_sweep()).run()
        assert merged.to_table() == reference.to_table()
        assert merged.to_csv() == reference.to_csv()

    def test_live_peer_lease_is_respected(self, tmp_path):
        scheduler, plan = self.publish(tmp_path)
        board = LeaseBoard(tmp_path, owner="busy-peer", ttl=3600)
        held = plan.fingerprints[0]
        assert board.acquire(held)
        report = run_worker(tmp_path, worker_id="polite")
        assert held not in report.completed
        assert len(report.completed) == len(plan.fingerprints) - 1
        assert board.holder(held).owner == "busy-peer"

    def test_worker_without_published_sweep_errors(self, tmp_path):
        with pytest.raises(ScenarioError, match="no published sweep"):
            run_worker(tmp_path)

    def test_analyze_mode_recorded_in_queue(self, tmp_path):
        self.publish(tmp_path, analyze=False)
        run_worker(tmp_path, worker_id="smoke")
        entry = ResultCache(tmp_path).get(SweepPlan.of(make_sweep()).fingerprints[0])
        assert entry["analyze"] is False


class TestCostAwarePacking:
    """Publishers with a fitted calibration stamp predicted costs and
    workers claim longest-first; everything else stays bit-identical."""

    @staticmethod
    def ladder_sweep():
        # Costs genuinely differ across these variants (D3Q39 roll is
        # ~8x the work of D3Q19 planned); tau alone would tie them all.
        return Sweep(
            "taylor-green",
            {"lattice": ["D3Q19", "D3Q39"], "kernel": ["roll", "planned"]},
            steps=5,
        )

    @pytest.fixture
    def calibrated(self, tmp_path, monkeypatch):
        from pathlib import Path

        from repro.perf.model import fit, save_calibration

        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path / "calib"))
        repo = Path(__file__).resolve().parents[2]
        save_calibration(fit([repo / f"BENCH_PR{n}.json" for n in (3, 4, 5)]))

    def test_publish_stamps_costs_and_orders_claims_lpt(
        self, tmp_path, calibrated
    ):
        scheduler = SweepScheduler(
            self.ladder_sweep(), tmp_path / "cache", workers=0
        )
        _, queue = scheduler.publish()
        costs = [item.cost for item in queue.items]
        assert all(c is not None and c > 0 for c in costs)
        order = queue.claim_order()
        assert [i.cost for i in order] == sorted(costs, reverse=True)
        # D3Q39 roll (the most expensive cell in the history) goes first.
        assert order[0].overrides["lattice"] == "D3Q39"
        assert order[0].overrides["kernel"] == "roll"
        # The stamped costs survive the queue.json round trip.
        reloaded = WorkQueue.load(tmp_path / "cache")
        assert [i.cost for i in reloaded.items] == costs

    def test_without_calibration_claims_stay_grid_order(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path / "nocalib"))
        scheduler = SweepScheduler(
            self.ladder_sweep(), tmp_path / "cache", workers=0
        )
        _, queue = scheduler.publish()
        assert all(item.cost is None for item in queue.items)
        assert queue.claim_order() == queue.items

    def test_any_uncosted_item_disables_the_reordering(self, tmp_path):
        plan = SweepPlan.of(self.ladder_sweep())
        queue = WorkQueue.publish(
            tmp_path, plan, analyze=True, costs=[9.0, None, 1.0, 2.0]
        )
        assert queue.claim_order() == queue.items

    def test_misaligned_costs_rejected(self, tmp_path):
        plan = SweepPlan.of(self.ladder_sweep())
        with pytest.raises(ScenarioError, match="align"):
            WorkQueue.publish(tmp_path, plan, analyze=True, costs=[1.0])

    def test_costed_run_table_matches_uncosted_reference(
        self, tmp_path, calibrated
    ):
        sweep = self.ladder_sweep()
        packed = SweepScheduler(sweep, tmp_path / "cache", workers=2).run()
        assert all(p.startswith("worker:w") for p in packed.provenance)
        reference = SweepScheduler(sweep).run()
        assert packed.to_table() == reference.to_table()
        assert packed.to_csv() == reference.to_csv()
