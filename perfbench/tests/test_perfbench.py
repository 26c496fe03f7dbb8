"""Tests of the benchmark itself.

    python -m pytest perfbench/tests -q

The end-to-end tests run each workload for one second in a subprocess,
so the file takes a few minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import metrics
from perfbench.checks import Tally, Verdict, check_cli, check_http
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _all_metrics():
    return [*metrics.END_TO_END, *metrics.LAYERS]


def test_metric_names_and_units_are_well_formed():
    names = [m.name for m in _all_metrics()]
    assert len(names) == len(set(names))
    for m in _all_metrics():
        assert NAME.fullmatch(m.name) and metrics.NAME_RE.fullmatch(m.name), m.name
        assert metrics.UNIT_RE.fullmatch(m.unit), m.unit
        assert m.better in ("lower", "higher")
    for w in metrics.WORKLOADS:
        assert metrics.NAME_RE.fullmatch(w.name) and len(w.why) <= 200
    for workload, reported in metrics.REPORTED.items():
        assert workload in metrics.WORKLOAD_NAMES
        assert all(NAME.fullmatch(name) for name in reported)


def test_bounds_and_setup_metric():
    bounds = {m.name: m.bound for m in metrics.END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in metrics.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")


def test_every_layer_has_a_source_workload():
    for layer in metrics.LAYERS:
        assert layer.source and set(layer.source) <= set(metrics.WORKLOAD_NAMES)


def test_manifest_matches_declarations():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metrics.benchmark_manifest()


def test_tail_needs_ten_samples_beyond():
    assert metrics.tail(list(range(39)), "lower") is None
    assert metrics.tail(list(range(40)), "lower") == ("p75", 29)
    label, value = metrics.tail(list(range(1000)), "lower")
    assert label == "p99" and sum(v > value for v in range(1000)) == 10
    label, value = metrics.tail(list(range(1000)), "higher")
    assert label == "p1" and sum(v < value for v in range(1000)) == 10


# -- output checker ------------------------------------------------------------

BODY = {"data": {"passed": True, "results": [1, 2]}, "kind": "sweep"}
TEXT = json.dumps(BODY)


def test_cli_check_counts_non_json_stdout():
    verdict = check_cli(0, "worker w1: ran 8 variant(s)\n" + TEXT + "\n", "", None)
    assert not verdict.ok and not verdict.wrong
    assert not check_cli(0, "", "", None).ok


def test_cli_check_counts_body_that_differs_from_other_legs():
    other = json.dumps({"data": {"passed": True, "results": [1, 3]}, "kind": "sweep"})
    verdict = check_cli(0, other, "", BODY)
    assert not verdict.ok and verdict.wrong
    assert check_cli(0, TEXT + "\n", "", BODY).ok


def test_cli_check_counts_exit_codes_and_tracebacks():
    assert not check_cli(2, TEXT, "", None).ok
    crashed = check_cli(0, TEXT, "Traceback (most recent call last):\n  ...", None)
    assert not crashed.ok and crashed.reason == "traceback on stderr"


def test_http_check_counts_non_2xx_and_wrong_bodies():
    assert not check_http(500, b"{}", None).ok
    assert not check_http(0, b"", None).ok
    shed = check_http(503, b"{}", None)
    assert not shed.ok and shed.reason == "503 shed"
    assert check_http(202, b"{}", None).ok
    assert check_http(200, b"abc", b"abc").ok
    wrong = check_http(200, b"abd", b"abc")
    assert not wrong.ok and wrong.wrong
    assert not check_http(202, b"{}", b"abc").ok


def test_tally_error_rate():
    tally = Tally()
    for verdict in (Verdict(True), Verdict(False, "x"), Verdict(False, "x", True)):
        tally.add(verdict)
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 2, 1)
    assert tally.reasons == {"x": 2}
    assert tally.error_rate == pytest.approx(2 / 3)


# -- tracing --------------------------------------------------------------------


def test_self_time_subtracts_covered_child_intervals():
    tracer = Tracer()
    with tracer.operation("root") as root_id:
        with tracer.span("child"):
            pass
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
    root = next(s for s in tracer.spans if s.span_id == root_id)
    kids = tracer.children(root)
    assert [k.name for k in kids] == ["child", "child"]
    assert tracer.self_time(root) == pytest.approx(
        root.duration - sum(k.duration for k in kids)
    )
    assert {s.trace_id for s in tracer.spans} == {root_id}
    assert len(tracer.under(root, "grandchild")) == 1


def test_wrap_restores_and_rejects_missing_attributes():
    class Owner:
        def f(self):
            return 7

    tracer = Tracer()
    original = Owner.__dict__["f"]
    with tracer.wrap((Owner, "f", "owner.f")):
        assert Owner().f() == 7
    assert Owner.__dict__["f"] is original
    assert [s.name for s in tracer.spans] == ["owner.f"]
    with pytest.raises(KeyError):
        with tracer.wrap((Owner, "missing", "x")):
            pass


# -- end to end -----------------------------------------------------------------


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


@pytest.mark.parametrize("workload", metrics.WORKLOAD_NAMES)
def test_workload_emits_exactly_its_end_to_end_metrics(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    result = _result(proc)
    declared = {m.name: m.unit for m in metrics.END_TO_END}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    summary = proc.stdout
    for name in metrics.REPORTED[workload]:
        assert re.search(rf"^  {re.escape(name)} +median ", summary, re.M), name
    if workload in ("vessel-forced", "periodic-box"):
        assert result["failed"] == 0 and result["correct"]


@pytest.mark.parametrize("workload", ["periodic-box", "sweep-small", "serve-mixed"])
def test_traced_run_emits_exactly_the_per_layer_metrics(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    result = _result(proc)
    declared = {m.name: m.unit for m in metrics.LAYERS}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["scenarios.cache.hit_ratio"]["value"] == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "--workload", "periodic-box", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
