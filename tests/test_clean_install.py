"""A clean install imports every ``repro`` module.

``pyproject.toml`` declares numpy as the only runtime dependency.  The
subprocess below puts a ``sys.meta_path`` finder in front of the import
system that refuses every top-level module outside the standard
library, numpy and ``repro`` itself, then imports each module under
``repro``.  An undeclared import therefore fails here even on a machine
where that package happens to be installed.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import importlib
    import importlib.abc
    import pkgutil
    import sys

    ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


    class DeclaredOnly(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] not in ALLOWED:
                raise ModuleNotFoundError(f"undeclared dependency {name!r}")
            return None


    def fail(name):
        raise ImportError(f"cannot import package {name}")


    sys.meta_path.insert(0, DeclaredOnly())
    import repro

    names = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.", onerror=fail)
    ]
    for name in names:
        importlib.import_module(name)
    print(len(names))
    """
)


def test_every_module_imports_with_declared_dependencies_only():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.strip()) > 50


def test_declared_runtime_dependencies_are_what_the_blocker_allows():
    """The blocker above allows numpy; the declaration must say the same,
    so neither can drift without this test noticing."""
    # A regex, not tomllib: tomllib needs Python 3.11 and the project
    # supports 3.10.  The [project] table's list is the only top-level
    # `dependencies = [...]` key in pyproject.toml.
    text = (SRC.parent / "pyproject.toml").read_text()
    match = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert match is not None, "pyproject.toml declares no dependencies"
    declared = {
        re.split(r"[\s<>=!~\[;]", dep, maxsplit=1)[0].lower()
        for dep in re.findall(r"[\"']([^\"']+)[\"']", match.group(1))
    }
    assert declared == {"numpy"}
