#!/usr/bin/env python3
"""sketchsolve benchmark.

Runs one workload in this process (closed loop, one client): set-up,
the ``diagnose``, ``run`` and ``validate`` commands through
``sketchsolve.cli.main`` with ``--threads 1``, and a solve to relative
accuracy 1e-6, round after round until ``--seconds`` have been spent.
Every output is checked. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a result file with the environment block goes to
``bench/results/``.

    python3 bench/run.py --workload reference --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each
    python3 bench/run.py --workload kaczmarz-1000x200 --seed 1 --record

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, with the
tracing overhead measured against the untraced rounds. ``--record``
stores the default seed's outputs in ``bench/expected.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

END_TO_END = {
    "setup_s": "s",
    "diagnose_s": "s",
    "run_s": "s",
    "validate_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
}
MAX_REPS = 500
# Layer shares quoted when the benchmark was specified: (workload, metric) -> share.
QUOTED_SHARES = {
    ("kaczmarz-1000x200", "share.expected_Z_of_diagnose"): 0.80,
    ("reference", "share.mc_of_validate"): 0.85,
}
SHARE_TOLERANCE = 0.10


class Tally:
    """Operations attempted and failed; an operation is a command, a solve or an output check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, label: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failures.append(label + (": " + detail if detail else ""))
            print(f"FAILED {label} {detail}".rstrip(), file=sys.stderr)


def execute(op, tally: Tally, tracer=None):
    """Run one operation; returns (seconds, outcome, span), or None if it failed."""
    from workloads import Outcome

    if op.prepare is not None:
        op.prepare()
    span = None
    try:
        t0 = time.perf_counter()
        if tracer is None:
            result = op.call()
        else:
            result, span = tracer.run(f"op.{op.name}", op.call)
        elapsed = time.perf_counter() - t0
        outcome = op.verify(result) if op.verify is not None else Outcome()
    except Exception:  # a traceback is a failed operation, not the end of the run
        tally.add(op.name, False, traceback.format_exc())
        return None
    tally.add(op.name, outcome.ok, "non-zero exit" if not outcome.ok else "")
    for label, ok in outcome.checks:
        tally.add(label, ok)
    return (elapsed, outcome, span) if outcome.ok else None


def measure(plan, seconds: float, trace: bool, tally: Tally, anchors):
    """Round after round of every operation until the time budget is spent."""
    from tracing import Tracer, install, layer_metrics

    untraced = {op.name: [] for op in plan.ops}
    traced = {op.name: [] for op in plan.ops}
    layer_rounds, first_observed = [], None
    # The process's first set-up also starts numpy's BLAS and LAPACK (about
    # 1 s here); one untimed, uncounted set-up keeps that out of setup_s.
    execute(plan.ops[0], Tally())
    start = time.perf_counter()
    n_rounds = 0
    while True:
        round_start = time.perf_counter()
        tracer = Tracer() if trace and n_rounds % 2 == 1 else None
        installation = install(tracer) if tracer is not None else None
        op_spans, observed = {}, {}
        try:
            for op in plan.ops:
                reps, spent = 0, 0.0
                while True:
                    res = execute(op, tally, tracer)
                    if res is None:
                        break
                    elapsed, outcome, span = res
                    (untraced if tracer is None else traced)[op.name].append(elapsed)
                    observed.setdefault(op.name, outcome.observed)
                    op_spans.setdefault(op.name, span)
                    reps, spent = reps + 1, spent + elapsed
                    if trace or (reps >= op.min_reps and spent >= op.repeat_s) or reps >= MAX_REPS:
                        break
        finally:
            if installation is not None:
                installation.restore()
        if tracer is not None and len(op_spans) == len(plan.ops):
            layer_rounds.append(layer_metrics(tracer, op_spans, observed, anchors))
        first_observed = first_observed or observed
        n_rounds += 1
        now = time.perf_counter()
        if n_rounds >= (2 if trace else 1) and now - start + (now - round_start) > seconds:
            break
    return untraced, traced, layer_rounds, first_observed, n_rounds


def end_to_end(untraced: dict) -> dict:
    from stats import summarize

    out = {f"{name}_s": summarize(samples) for name, samples in untraced.items()}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB
    out["peak_rss_mb"] = {"n": 1, "median": rss_mb, "tail": None}
    return out


def per_layer(untraced: dict, traced: dict, layer_rounds: list) -> dict:
    out = {}
    for name in layer_rounds[0] if layer_rounds else ():
        values = [r[name] for r in layer_rounds]
        out[name] = {"n": len(values), "median": statistics.median(values)}
    base = sum(statistics.median(v) for v in untraced.values() if v)
    with_trace = sum(statistics.median(v) for v in traced.values() if v)
    out["trace.overhead"] = {"n": len(layer_rounds), "median": with_trace / base - 1.0 if base else None}
    return out


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report_lines(metrics: dict, units: dict) -> list[str]:
    lines = []
    for name, unit in units.items():
        m = metrics.get(name, {"n": 0, "median": None})
        tail = m.get("tail")
        tail_text = f"  p{tail['p']:g} {_fmt(tail['value'])}" if tail else ""
        lines.append(f"{name:<52} {_fmt(m['median']):>12} {unit:<8} n={m['n']}{tail_text}")
    return lines


def share_statements(workload: str, metrics: dict) -> list[str]:
    lines = []
    for (name, metric), quoted in QUOTED_SHARES.items():
        if name != workload:
            continue
        measured = metrics[metric]["median"]
        held = measured is not None and abs(measured - quoted) <= SHARE_TOLERANCE
        lines.append(
            f"{metric}: measured {_fmt(measured)}, quoted about {quoted:.2f}: "
            f"{'held' if held else 'did not hold'} (tolerance {SHARE_TOLERANCE:.2f})"
        )
    return lines


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "sketchsolve" / "__init__.py").is_file():
        print(f"error: no sketchsolve sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import sketchsolve

    if Path(sketchsolve.__file__).resolve().parent != (src / "sketchsolve").resolve():
        print(f"error: imported sketchsolve from {sketchsolve.__file__}, not {src}", file=sys.stderr)
        return 2
    from sketchsolve import validation

    from envinfo import environment
    from tracing import layer_units
    from workloads import WORKLOADS, Plan, load_expected

    workload = WORKLOADS[args.workload]
    anchors = list(validation.LIBRARY_CHECKS) + list(validation.PROBLEM_CHECKS)
    expected = None if args.record else load_expected(workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    try:
        plan = Plan(workload, args.seed, workdir, expected)
        untraced, traced, layer_rounds, observed, n_rounds = measure(
            plan, args.seconds, bool(args.trace), tally, anchors
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(tally.failures)
    if args.trace:
        units = {name: unit for name, (unit, _) in layer_units(anchors).items()}
        metrics = per_layer(untraced, traced, layer_rounds)
    else:
        units = END_TO_END
        metrics = end_to_end(untraced)
    header = (
        f"workload {workload.name}  seed {args.seed}  trace {args.trace}  rounds {n_rounds}  "
        f"ops_failed {failed}/{tally.attempted} = {failed / max(tally.attempted, 1):.3g}"
    )
    lines = [header, *report_lines(metrics, units)]
    if args.trace and layer_rounds:
        lines += share_statements(workload.name, metrics)
    print("\n".join(lines))

    result = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": n_rounds,
        "environment": environment(ROOT),
        "attempted": tally.attempted,
        "failed": failed,
        "failures": tally.failures,
        "units": units,
        "metrics": metrics,
        "samples_s": {"untraced": untraced, "traced": traced},
    }
    (RESULTS / f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )
    if args.record:
        record(workload.name, args.seed, observed)

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": tally.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics.get(name, {}).get("median"), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


def record(name: str, seed: int, observed: dict):
    from workloads import DEFAULT_SEED, EXPECTED_FILE

    if name != "reference" and seed != DEFAULT_SEED:
        raise SystemExit(f"record with --seed {DEFAULT_SEED}, the seed the comparison uses")
    data = json.loads(EXPECTED_FILE.read_text(encoding="utf-8")) if EXPECTED_FILE.exists() else {}
    data[name] = {
        "diagnostics": observed["diagnose"]["diagnostics"],
        "final_l2_mean": observed["run"]["final_l2_mean"],
        "solve_iterations": observed["solve"]["solve_iterations"],
    }
    EXPECTED_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def run_all(args) -> int:
    """Every workload in its own process, then one table of the end-to-end metrics."""
    from workloads import WORKLOADS

    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, check=False)
        status = status or proc.returncode
        path = RESULTS / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
        if proc.returncode == 0 and path.exists():
            rows.append(json.loads(path.read_text(encoding="utf-8")))
    print()
    for res in rows:
        print(f"== {res['workload']}: ops_failed {res['failed']}/{res['attempted']}")
        print("\n".join(report_lines(res["metrics"], res["units"])))
    return status


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=60.0, help="time budget of the measured rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store this run's outputs as the expected ones")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
