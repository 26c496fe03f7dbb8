"""The import graph loads only what a command uses.

``repro/__init__`` resolves its subpackages lazily and ``python -m
repro`` imports the paper experiments only for experiment commands, so
the scenario API and CLI never load the paper-model subpackages
(``experiments``, ``machine``, ``parallel``, ``perf``), nor the
compiled-loop loader.  Each check runs in a fresh interpreter, because
this test process has long since imported everything.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"
PAPER_MODEL = ("experiments", "machine", "parallel", "perf")


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # -X importtime writes one "import time: self | cumulative | name"
    # line per module imported, to stderr.
    return {
        match.group(1)
        for match in re.finditer(r"^import time:.*\|\s*(\S+)$", proc.stderr, re.M)
    }


def _paper_model(modules):
    return sorted(
        name
        for name in modules
        if name.split(".")[:2] in (["repro", sub] for sub in PAPER_MODEL)
    )


def test_import_api_skips_the_paper_model():
    modules = _run("-c", "import repro.api")
    assert "repro.api" in modules
    assert _paper_model(modules) == []


def test_cases_command_skips_the_paper_model():
    modules = _run("-m", "repro", "cases")
    assert "repro.scenarios.cli" in modules
    assert _paper_model(modules) == []


@pytest.fixture(scope="module")
def numpy_modules():
    return _run("-c", "import numpy")


@pytest.mark.parametrize(
    "args", [("-c", "import repro.api"), ("-m", "repro", "cases")], ids=["api", "cases"]
)
def test_startup_skips_the_compiled_loop(args, numpy_modules):
    """The compiled-loop loader and ctypes load on the first plan, not at
    start-up (numpy may import ctypes itself; repro adds nothing)."""
    modules = _run(*args)
    assert "repro.core.native" not in modules
    assert "ctypes" not in modules - numpy_modules


def test_perf_model_loads_without_the_rest_of_perf():
    modules = _run("-c", "import repro.perf.model")
    perf = {name for name in modules if name.startswith("repro.perf")}
    assert perf == {"repro.perf", "repro.perf.model"}


def test_lazy_package_still_resolves_every_name():
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    assert repro.Simulation.__name__ == "Simulation"
    assert callable(repro.run_experiment)
    assert callable(repro.run_case)
