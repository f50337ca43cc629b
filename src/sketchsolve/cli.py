"""Config-driven experiment runner.

Subcommands:

* ``run <config>``      solve with the configured methods, write traces,
                        fitted-versus-predicted rates, diagnostics and a
                        summary with the enabled checks
* ``diagnose <config>`` spectrum and exactness only
* ``validate <config>`` full numerical validation suite

Artifacts are byte-deterministic for a fixed (config, seed) on the same
numpy/BLAS build and BLAS thread count (a multi-threaded BLAS may round
differently): floats are written in shortest round-trip form, keys are
sorted, and row order is fixed. The only wall-clock text is the one
generated_at line in summary.json. ``--threads`` is accepted and
changes nothing; it does not set the BLAS thread count.

Exit codes: 0 all enabled checks passed, 1 a check failed, 2 invalid
input (including a system whose expected operator sees nothing).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import MIN_FIT_POINTS, fit_rate, theoretical_rates
from .config import ConfigError, ExperimentConfig, build_distribution, build_problem, build_solvers, load_config
from .linalg import InconsistentSystemError
from .mmio import ParseError
from .reformulation import DegenerateSpectrumError, TooFewSamplesError, build_reformulation
# run_basic, run_parallel and run_accelerated stay importable from here and
# from analysis because bench/tracing.py wraps them where it looks them up
from .solvers import run_accelerated, run_basic, run_parallel, run_trajectories  # noqa: F401
from .validation import (
    FITTED_CHECKS,
    LIBRARY_CHECKS,
    PROBLEM_CHECKS,
    REPLICATED_CHECKS,
    ValidationOptions,
    run_validation,
)

DEFAULT_RUN_CHECKS = ["lemma:pathwise-step-identities", "lemma:spectrum-in-unit-interval"]


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _write_csv(path: Path, header: list[str], rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict):
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _trace_text(traces) -> str:
    """The trace CSV of a run: a header, then one line per recorded value.

    A line is ``iter,metric,value,replication``, replications in order,
    each with its ``error_sq``, ``sketch_loss`` and ``step_sq`` (those
    recorded). Each block of one metric of one replication is formatted
    by one ``%`` call on a template of its lines, built once per metric
    and length with the replication id filled in once per block; ``%r``
    writes a float as ``repr``, as :func:`_fmt` does.
    """
    templates, blocks = {}, ["iter,metric,value,replication\n"]
    for rep, trace in enumerate(traces):
        for name in ("error_sq", "sketch_loss", "step_sq"):
            values = getattr(trace, name)
            if values is None:
                continue
            shape = (name, len(values))
            if shape not in templates:
                # split where the replication id goes: joining the pieces by it fills every line
                templates[shape] = "".join(f"{k},{name},%r,\0\n" for k in range(len(values))).split("\0")
            blocks.append(str(rep).join(templates[shape]) % tuple(values.tolist()))
    return "".join(blocks)


def _run_solver(method, label, base, mu, problem, dist, reform, cfg):
    omega, iters = base.omega, base.max_iters
    traces = run_trajectories(problem, dist, base, method, range(cfg.replications))
    text = _trace_text(traces)
    with np.errstate(over="ignore", invalid="ignore"):  # a divergent run sums to inf or nan
        l2_mean = np.stack([t.error_sq for t in traces]).mean(axis=0)
    diverged = [t.diverged_at for t in traces if t.diverged_at is not None]
    fitted = fit_rate(np.maximum(l2_mean, 0.0)) if not diverged and iters + 1 >= MIN_FIT_POINTS else None
    if fitted is not None and fitted.floored:
        fitted = None  # trajectories hit exact zero; a geometric fit is meaningless
    rates = theoretical_rates(reform.spectrum, omega, tau=base.tau, mu=mu)
    summary = {
        "label": label,
        "method": method,
        "omega": omega,
        "iterations": iters,
        "replications": cfg.replications,
        "final_l2_mean": float(l2_mean[-1]) if np.isfinite(l2_mean[-1]) else None,
        "diverged_at": min(diverged, default=None),
        "predicted": rates.to_dict(),
    }
    if fitted is not None:
        summary["fitted_l2_rate"] = fitted.rate
        summary["fit_residual"] = fitted.residual
    return text, summary


def _checks(cfg: ExperimentConfig, default: list[str]) -> list[str]:
    """The configured check names, ``default`` when unset.

    An unknown name raises ConfigError, as does a single replication
    with a check whose Monte Carlo moments need at least two, or fewer
    iterations than a check that fits a rate to them needs.
    """
    checks = default if cfg.checks is None else cfg.checks
    unknown = [name for name in checks if name not in LIBRARY_CHECKS and name not in PROBLEM_CHECKS]
    if unknown:
        raise ConfigError("checks", f"unknown check {unknown[0]!r}")
    replicated = [name for name in checks if name in REPLICATED_CHECKS]
    if cfg.replications < 2 and replicated:
        raise ConfigError(
            "<root>.replications", f"must be at least 2 for the Monte Carlo check {replicated[0]!r}"
        )
    fitted = [name for name in checks if name in FITTED_CHECKS]
    if cfg.iterations + 1 < MIN_FIT_POINTS and fitted:
        raise ConfigError(
            "<root>.iterations",
            f"must be at least {MIN_FIT_POINTS - 1} for the rate-fitting check {fitted[0]!r}",
        )
    return checks


def _validation_options(cfg: ExperimentConfig, solvers) -> ValidationOptions:
    """The checks' options: ω of the first basic solver, τ of the first parallel one.

    ``solvers`` is what :func:`build_solvers` returns; without a basic
    or a parallel solver ω = 1 or τ = 2. The checks assume the
    mean-square regime, so a basic ω outside (0, 2) leaves them at
    ω = 1 and a note on stderr says so.
    """
    label, omega = next(((label, c.omega) for label, method, c, _ in solvers if method == "basic"), (None, 1.0))
    tau = next((c.tau for _, method, c, _ in solvers if method == "parallel"), 2)
    if not 0.0 < omega < 2.0:
        note = f"{label} steps at omega={float(omega)!r}, outside (0, 2); the checks run at omega=1.0"
        print(f"note: {note}", file=sys.stderr)
        omega = 1.0
    return ValidationOptions(
        seed=cfg.seed, replications=cfg.replications, iterations=cfg.iterations, omega=omega, tau=tau
    )


def _setup(cfg: ExperimentConfig, out_dir: Path):
    """Problem, distribution, reformulation and solvers of a config; writes diagnostics.json.

    Every solver spec is resolved before anything is written, so an
    invalid one leaves the output directory untouched.
    """
    problem, _ = build_problem(cfg)
    dist = build_distribution(cfg, problem)
    try:
        reform = build_reformulation(
            problem, dist, seed=cfg.seed, n_samples=cfg.expectation_samples, support_cap=cfg.support_cap
        )
    except TooFewSamplesError:
        raise ConfigError(
            "<root>.expectation_samples", "must be at least 2 for a Monte Carlo estimate of E[Z]"
        ) from None
    solvers = build_solvers(cfg, reform.spectrum)
    _write_json(out_dir / "diagnostics.json", reform.diagnostics())
    return problem, dist, reform, solvers


def _write_summary(out_dir: Path, command: str, cfg: ExperimentConfig, results, **extra) -> int:
    """Write summary.json; returns the exit code, 1 when a check failed."""
    failed = [r.anchor for r in results if not r.passed]
    payload = {
        "command": command,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "seed": cfg.seed,
        **extra,
        "checks": [r.to_dict() for r in results],
        "failed_checks": failed,
    }
    _write_json(out_dir / "summary.json", payload)
    return 1 if failed else 0


def cmd_diagnose(cfg: ExperimentConfig, out_dir: Path) -> int:
    _setup(cfg, out_dir)
    return 0


def cmd_run(cfg: ExperimentConfig, out_dir: Path) -> int:
    checks = _checks(cfg, DEFAULT_RUN_CHECKS)
    problem, dist, reform, solvers = _setup(cfg, out_dir)
    solver_summaries, rate_rows = [], []
    for label, method, config, mu in solvers:
        text, summary = _run_solver(method, label, config, mu, problem, dist, reform, cfg)
        _write_text(out_dir / f"trace_{label}.csv", text)
        solver_summaries.append(summary)
        if "fitted_l2_rate" in summary:
            # each method against its own L2 factor; the accelerated method
            # has no L2 bound of its own and is compared with the basic one
            bound = "parallel_factor" if summary["method"] == "parallel" else "l2_upper_factor"
            predicted = summary["predicted"][bound]
            rate_rows.append((label, "l2_rate", predicted, summary["fitted_l2_rate"], summary["fit_residual"]))
    _write_csv(out_dir / "rates.csv", ["label", "quantity", "predicted", "fitted", "residual"], rate_rows)

    results = run_validation(problem, reform, _validation_options(cfg, solvers), checks)
    return _write_summary(out_dir, "run", cfg, results, solvers=solver_summaries)


def cmd_validate(cfg: ExperimentConfig, out_dir: Path) -> int:
    checks = _checks(cfg, [*LIBRARY_CHECKS, *PROBLEM_CHECKS])
    problem, _, reform, solvers = _setup(cfg, out_dir)
    results = run_validation(problem, reform, _validation_options(cfg, solvers), checks)
    _write_csv(
        out_dir / "checks.csv",
        ["anchor", "passed", "margin"],
        [(r.anchor, int(r.passed), r.margin) for r in results],
    )
    for result in results:
        print(f"{'PASS' if result.passed else 'FAIL'} {result.anchor} margin={result.margin:.3e}")
    return _write_summary(out_dir, "validate", cfg, results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sketchsolve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "diagnose", "validate"):
        cmd = sub.add_parser(name)
        cmd.add_argument("config", help="path to the JSON experiment configuration")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--output-dir", default=None, help="override the output directory")
        cmd.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, seed=args.seed)
        out_dir = Path(args.output_dir or cfg.output_dir or "out")
        command = {"run": cmd_run, "diagnose": cmd_diagnose, "validate": cmd_validate}[args.command]
        return command(cfg, out_dir)
    except (ConfigError, ParseError, InconsistentSystemError, DegenerateSpectrumError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
