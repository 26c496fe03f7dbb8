"""Output checks: every workload checks what the program returned before
any metric is printed.

Failures are counted, never worked around: a CLI leg whose stdout is not
exactly one JSON document fails even if a JSON line could be cut out of
it, and nothing is retried.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any


@dataclasses.dataclass
class Verdict:
    """One checked operation.

    ``ok`` is false for any failure.  ``wrong`` marks the subset where the
    program returned a result that disagrees with the reference (as
    opposed to failing to return one): only those make a run incorrect.
    """

    ok: bool
    reason: str = ""
    wrong: bool = False


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: dict[str, int] = dataclasses.field(default_factory=dict)

    def add(self, verdict: Verdict) -> Verdict:
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            self.reasons[verdict.reason] = self.reasons.get(verdict.reason, 0) + 1
        if verdict.wrong:
            self.wrong += 1
        return verdict

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        for reason, n in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + n

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def parse_single_json(stdout: str) -> Any:
    """The JSON document stdout consists of, or ``None`` when stdout is
    anything else (empty, extra lines, trailing text)."""
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_case(passed: bool) -> Verdict:
    """A case run: every physics check of the case must pass."""
    return Verdict(True) if passed else Verdict(False, "case check failed", True)


def check_cli(
    returncode: int, stdout: str, stderr: str, reference: Any | None
) -> Verdict:
    """One ``repro sweep --json`` invocation against the round's reference
    body (``None`` while no leg has produced one yet).

    Fails on a non-zero exit, a traceback on stderr (a worker died even
    if the parent exited 0), stdout that is not exactly one JSON body, a
    sweep whose variants did not pass, or a body that differs from the
    other legs'.
    """
    if returncode != 0:
        return Verdict(False, f"exit {returncode}")
    if "Traceback (most recent call last)" in stderr:
        return Verdict(False, "traceback on stderr")
    body = parse_single_json(stdout)
    if body is None:
        return Verdict(False, "stdout is not one JSON body")
    if not body.get("data", {}).get("passed", False):
        return Verdict(False, "sweep did not pass", True)
    if reference is not None and body != reference:
        return Verdict(False, "body differs from other legs", True)
    return Verdict(True)


def check_http(status: int, body: bytes, expected: bytes | None) -> Verdict:
    """One ``POST /v1/case`` answer.  Warm requests (``expected`` set)
    must answer 200 with exactly ``expected``; cold ones any 2xx."""
    if status == 503:
        return Verdict(False, "503 shed")
    if not 200 <= status < 300:
        return Verdict(False, f"HTTP {status}")
    if expected is not None:
        if status != 200:
            return Verdict(False, f"warm request answered {status}", True)
        if body != expected:
            return Verdict(False, "warm body differs from run_case", True)
    return Verdict(True)
