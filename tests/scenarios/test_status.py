"""`repro sweep-status`: the read-only progress/lease view."""

import pytest

from repro.errors import ScenarioError
from repro.scenarios import LeaseBoard, Sweep, SweepScheduler, sweep_status
from repro.scenarios.cli import main as cli_main


@pytest.fixture
def finished_sweep_dir(tmp_path):
    cache_dir = tmp_path / "cache"
    sweep = Sweep("taylor-green", {"tau": [0.7, 0.8]}, steps=10)
    SweepScheduler(sweep, cache_dir).run()
    return cache_dir


class TestSweepStatus:
    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="no sweep cache"):
            sweep_status(tmp_path / "nowhere")

    def test_directory_without_manifest(self, tmp_path):
        status = sweep_status(tmp_path)
        assert status.case is None
        assert "no sweep manifest" in status.summary()

    def test_completed_sweep(self, finished_sweep_dir):
        status = sweep_status(finished_sweep_dir)
        assert status.case == "taylor-green"
        assert status.parameters == ("tau",)
        assert status.total == 2
        assert status.completed == 2
        assert status.missing == 0
        assert status.complete
        assert not status.published
        text = status.summary()
        assert "2 total, 2 completed, 0 missing" in text
        assert "complete" in text
        assert "active leases: none" in text

    def test_live_and_stale_leases_reported(self, finished_sweep_dir):
        live_board = LeaseBoard(finished_sweep_dir, owner="w-live", ttl=3600)
        assert live_board.acquire("f" * 64)
        stale_board = LeaseBoard(finished_sweep_dir, owner="w-stale", ttl=0.001)
        assert stale_board.acquire("e" * 64)
        import time

        time.sleep(0.01)
        status = sweep_status(finished_sweep_dir)
        assert [r.owner for r in status.live_leases] == ["w-live"]
        assert [r.owner for r in status.stale_leases] == ["w-stale"]
        text = status.summary()
        assert "active leases: 1" in text
        assert "w-live" in text
        assert "stale leases: 1" in text

    def test_status_is_read_only(self, finished_sweep_dir):
        before = sorted(p.name for p in finished_sweep_dir.rglob("*"))
        sweep_status(finished_sweep_dir)
        after = sorted(p.name for p in finished_sweep_dir.rglob("*"))
        assert after == before

    def test_published_sweep_shows_work_order(self, tmp_path):
        from repro.scenarios import SweepScheduler

        cache_dir = tmp_path / "shared"
        sweep = Sweep("taylor-green", {"tau": [0.7, 0.8]}, steps=10)
        SweepScheduler(sweep, cache_dir, workers=0).publish()
        status = sweep_status(cache_dir)
        assert status.published
        assert status.total == 2
        assert status.completed == 0
        assert "published" in status.summary()


class TestStatusCli:
    def test_smoke(self, finished_sweep_dir, capsys):
        code = cli_main(["sweep-status", "--cache-dir", str(finished_sweep_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "taylor-green" in out
        assert "2 completed" in out

    def test_error_path(self, tmp_path, capsys):
        code = cli_main(["sweep-status", "--cache-dir", str(tmp_path / "x")])
        assert code == 2
        assert "error" in capsys.readouterr().err
