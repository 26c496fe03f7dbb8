"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root: the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are a human summary.  ``--trace 0`` reports the end-to-end metrics of
an untraced run; ``--trace 1`` reports the per-layer metrics of a traced
run and writes its spans to ``.perfbench_out/``.

``python3 perfbench/run.py --write-manifest`` regenerates
``BENCHMARK.json`` from ``perfbench/metrics.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import metrics, probes  # noqa: E402
from perfbench.metrics import END_TO_END, LAYERS, REPORTED, median, tail  # noqa: E402
from perfbench.tracing import write_spans  # noqa: E402

WORK_DIRNAME = ".perfbench_work"
OUT_DIRNAME = ".perfbench_out"


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=metrics.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _fill_from_probes(name: str, seed: int, env, layers: dict, sources: dict, tracers: list):
    """Per-layer metrics this workload does not reach come from a short
    traced probe of a workload that does (see ``Layer.source``)."""
    from perfbench.workloads import WORKLOADS, Context

    for other in metrics.WORKLOAD_NAMES:
        missing = [m for m in LAYERS if m.name not in layers and other in m.source]
        if other == name or not missing:
            continue
        ctx = Context(env, random.Random(f"{seed}/{other}"), 2.0, trace=True, probe=True)
        tracers.append(ctx.tracer)
        found = WORKLOADS[other](ctx).layers
        for metric in missing:
            if metric.name in found:
                layers[metric.name] = found[metric.name]
                sources[metric.name] = f"probe:{other}"


def _summary_rows(outcome, workload: str) -> list[str]:
    rows = []
    units = {m.name: (m.unit, m.better) for m in END_TO_END if m.name == "setup_s"}
    units.update(REPORTED[workload])
    for name, (unit, better) in units.items():
        values = outcome.samples.get(name)
        if not values:
            continue
        t = tail(values, better)
        tail_text = f"{t[0]}={t[1]:.4g}" if t else "-"
        rows.append(f"  {name:<16} median {median(values):<12.6g} tail {tail_text:<16} n={len(values):<5} {unit}")
    return rows


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing "
              "(run from the repository root)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / WORK_DIRNAME / f"{args.workload}-{args.seed}-{os.getpid()}"
    env = probes.Env(ROOT, work)
    os.environ["REPRO_KERNEL_CACHE_DIR"] = env.child()["REPRO_KERNEL_CACHE_DIR"]
    work.mkdir(parents=True)
    try:
        from perfbench.workloads import WORKLOADS, Context

        ctx = Context(env, random.Random(args.seed), args.seconds, trace=bool(args.trace))
        outcome = WORKLOADS[args.workload](ctx)
        tally = outcome.tally
        if args.trace:
            layers = probes.startup_layers(env)
            sources = dict.fromkeys(layers, "startup probe")
            for key, value in outcome.layers.items():
                layers[key] = value
                sources[key] = "own"
            tracers = [ctx.tracer]
            _fill_from_probes(args.workload, args.seed, env, layers, sources, tracers)
            missing = [m.name for m in LAYERS if m.name not in layers]
            if missing:
                raise RuntimeError(f"per-layer metrics not measured: {missing}")
            spans = write_spans(
                ROOT / OUT_DIRNAME / f"spans-{args.workload}-{args.seed}.jsonl", tracers
            )
            reported = {m.name: (layers[m.name], m.unit) for m in LAYERS}
        else:
            reported = {m.name: (outcome.e2e[m.name], m.unit) for m in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / WORK_DIRNAME).rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    if args.trace:
        for m in LAYERS:
            print(f"  {m.name:<38} {layers[m.name]:<14.6g} {m.unit:<6} [{sources[m.name]}]  moves {m.moves}")
        print(f"  spans written to {spans.relative_to(ROOT)}")
    else:
        for row in _summary_rows(outcome, args.workload):
            print(row)
        for m in END_TO_END:
            print(f"  {m.name:<16} {reported[m.name][0]:<14.6g} {m.unit}")
    print(f"  error_rate {tally.failed}/{tally.attempted} = {tally.error_rate:.4g}"
          + "".join(f"; {reason}: {n}" for reason, n in sorted(tally.reasons.items())))
    for note in outcome.notes:
        print(f"  note: {note}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    if args.write_manifest:
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        path.write_text(json.dumps(metrics.benchmark_manifest(), indent=2) + "\n")
        print(f"wrote {path}")
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
