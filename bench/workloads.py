"""The benchmark's workloads: generated inputs, timed operations and output checks.

Every workload runs the CLI commands in-process through
``sketchsolve.cli.main`` with ``--threads 1`` and a solve to a stated
accuracy, one after another (closed loop, one client). Why each
workload exists, and which defects its design steps around, is written
down in ``bench/NOTES.md``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

# Sketch streams, Monte Carlo E[Z] and the library checks draw from the
# master seed; --seed varies only the generated system. See NOTES.md for
# the library check that fails on some master seeds.
MASTER_SEED = 20240801
DEFAULT_SEED = 1
SOLVE_RELATIVE_TOL = 1e-6

# Every check that runs no Monte Carlo experiment and does not
# re-enumerate E[H] (theorem:exactness-characterization would, over a
# 1000 x 1000 H per atom).
NON_MC_CHECKS = [
    "lemma:sketch-identities",
    "identity:kaczmarz-expected-operator",
    "theorem:proximal-equivalence",
    "lemma:woodbury-identity",
    "lemma:psd-sandwich-identity",
    "lemma:range-restricted-eigenvalue",
    "lemma:two-term-recurrence-closed-form",
    "lemma:quadratic-bounds",
    "theorem:equivalent-solution-sets",
    "lemma:spectrum-in-unit-interval",
    "lemma:pathwise-step-identities",
    "theorem:optimal-relaxation-argmin",
]
ALL_CHECKS = 22
COMMANDS = ("diagnose", "run", "validate")


def _kaczmarz_config(rows: int, cols: int, seed: int) -> dict:
    return {
        "seed": MASTER_SEED,
        "problem": {"kind": "gaussian-consistent", "rows": rows, "cols": cols, "seed": seed},
        "metric": {"kind": "identity"},
        "distribution": {"kind": "kaczmarz"},
        "solvers": [
            {"method": "basic", "omega": 1.0, "label": "basic-unit"},
            {"method": "parallel", "omega": 1.0, "tau": 8, "label": "parallel-8"},
            {"method": "accelerated", "omega": 1.0, "mu": "auto", "label": "accelerated"},
        ],
        "replications": 20,
        "iterations": 200,
    }


def _countsketch_config(seed: int) -> dict:
    return {
        "seed": MASTER_SEED,
        "problem": {"kind": "spd-with-B-equals-A", "size": 120, "condition": 50.0, "seed": seed},
        "metric": {"kind": "auto"},
        "distribution": {"kind": "count-sketch", "columns": 4},
        "solvers": [
            {"method": "basic", "omega": 1.0, "label": "basic-unit"},
            {"method": "parallel", "omega": 1.0, "tau": 4, "label": "parallel-4"},
            {"method": "accelerated", "omega": 1.0, "mu": "auto", "label": "accelerated"},
        ],
        "replications": 10,
        "iterations": 100,
        "expectation_samples": 1000,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    verdict: str  # expected exactness verdict
    estimation: str  # expected kind of E[Z] estimate
    solve_cap: int  # iteration budget of the solve
    generate: object = None  # seed -> config dict; None reads the reference demo as is
    lambdas: tuple | None = None  # seed-independent spectrum, where known
    validate_checks: list | None = None  # None runs the full suite

    def configs(self, seed: int) -> tuple[Path | dict, Path | dict]:
        """(main config, validate config): a path read as is, or a generated dict."""
        if self.generate is None:
            path = ROOT / "demos" / "reference_config.json"
            return path, path
        main = self.generate(seed)
        validate = dict(main)
        if self.validate_checks is not None:
            validate["checks"] = list(self.validate_checks)
        return main, validate


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="reference",
            why=(
                "demos/reference_config.json as it stands: 2x2 diagonal, Kaczmarz, four solvers, "
                "R=400, K=25; time goes to the per-step Python path, replication fan-out and 11 "
                "Monte Carlo calls"
            ),
            verdict="exact",
            estimation="exact",
            solve_cap=1000,
            lambdas=(0.8, 0.2),
        ),
        Workload(
            name="kaczmarz-500x100",
            why=(
                "Gaussian 500x100, B=I, Kaczmarz sampling: E[Z] is enumerated exactly over 500 "
                "atoms, so most time is reformulation and linalg; solvers use only the O(m+n) "
                "coordinate path"
            ),
            verdict="exact",
            estimation="exact",
            solve_cap=50_000,
            generate=functools.partial(_kaczmarz_config, 500, 100),
            validate_checks=NON_MC_CHECKS,
        ),
        Workload(
            name="countsketch-spd-120",
            why=(
                "SPD 120x120, kappa=50, B=A, CountSketch q=4: 1.4e8 support atoms exceed the cap, "
                "so Monte Carlo E[Z], the general qxq step, a dense B and validation with four skips"
            ),
            verdict="undecidable",
            estimation="monte-carlo",
            solve_cap=50_000,
            generate=_countsketch_config,
        ),
        # The ROADMAP ladder step. One command takes 6-10 s here, so a run of
        # the benchmark's length holds one sample of each and the figures
        # spread by 10-20 % between runs: it is run by hand and by
        # ``--workload all``, and is not listed in BENCHMARK.json.
        Workload(
            name="kaczmarz-1000x200",
            why=(
                "Gaussian 1000x200, B=I, Kaczmarz sampling: E[Z] is enumerated exactly over 1000 "
                "atoms (1000x1000 H each), so most time is reformulation and linalg"
            ),
            verdict="exact",
            estimation="exact",
            solve_cap=50_000,
            generate=functools.partial(_kaczmarz_config, 1000, 200),
            validate_checks=NON_MC_CHECKS,
        ),
    )
}


# -- output checks ------------------------------------------------------


def close(a, b, rtol: float = 1e-6, atol: float = 1e-12) -> bool:
    """Recursive comparison that admits roundoff in floats."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k], rtol, atol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y, rtol, atol) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(float(a), float(b), rel_tol=rtol, abs_tol=atol)
    return a == b


@dataclass
class Outcome:
    """Result of one operation: the output checks it passed or failed."""

    ok: bool = True  # False when the operation itself failed (non-zero exit)
    checks: list = field(default_factory=list)  # (label, ok)
    observed: dict = field(default_factory=dict)  # values recorded with --record

    def check(self, label: str, ok: bool):
        self.checks.append((label, bool(ok)))


def _load_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_diagnostics(workload: Workload, out_dir: Path, expected: dict | None, outcome: Outcome):
    diag = _load_json(out_dir / "diagnostics.json")
    outcome.observed["diagnostics"] = diag
    ok = diag["exactness"] == workload.verdict and diag["estimation"]["kind"] == workload.estimation
    if workload.lambdas is not None:
        ok = ok and close(diag["lambdas"], list(workload.lambdas), rtol=0.0, atol=1e-12)
    outcome.check(f"diagnose: verdict {workload.verdict}", ok)
    if expected is not None:
        outcome.check("diagnose: matches recorded diagnostics", close(diag, expected["diagnostics"]))


def check_run(workload: Workload, out_dir: Path, expected: dict | None, outcome: Outcome, n_solvers: int):
    summary = _load_json(out_dir / "summary.json")
    finals = {s["label"]: s["final_l2_mean"] for s in summary["solvers"]}
    outcome.observed["final_l2_mean"] = finals
    outcome.check(
        "run: every final_l2_mean finite",
        len(finals) == n_solvers and all(math.isfinite(v) for v in finals.values()),
    )
    if expected is not None:
        outcome.check("run: matches recorded final_l2_mean", close(finals, expected["final_l2_mean"]))


def check_validate(out_dir: Path, n_checks: int, outcome: Outcome):
    summary = _load_json(out_dir / "summary.json")
    outcome.check(
        f"validate: {n_checks} checks, none failed",
        len(summary["checks"]) == n_checks and not summary["failed_checks"],
    )


# -- operations ---------------------------------------------------------


@dataclass
class Op:
    """One timed operation: ``call`` is timed, ``prepare`` and ``verify`` are not.

    Untraced rounds repeat an operation until it has run ``min_reps``
    times and for ``repeat_s`` seconds, so that short operations give
    more samples per run.
    """

    name: str
    call: object
    prepare: object = None
    verify: object = None  # verify(result) -> Outcome
    min_reps: int = 1
    repeat_s: float = 1.0


class Plan:
    """Generated inputs and the operations of one workload run."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, expected: dict | None):
        from sketchsolve import cli, config

        self.workload = workload
        self.expected = expected
        self.workdir = workdir
        main, validate = workload.configs(seed)
        self.config_path = self._materialize(main, "config.json")
        self.validate_path = self._materialize(validate, "validate_config.json")
        raw = _load_json(self.config_path)
        self.n_solvers = len(raw["solvers"])
        self.state = None
        self._residual_scale = None
        self._cli = cli
        self._config = config
        self.ops = [Op("setup", self._setup, min_reps=3, repeat_s=0.25)]
        self.ops += [self._command(name) for name in COMMANDS]
        self.ops.append(Op("solve", self._solve, verify=self._verify_solve))

    def _materialize(self, cfg, filename: str) -> Path:
        if isinstance(cfg, Path):
            return cfg
        path = self.workdir / filename
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path

    def _setup(self):
        cfg = self._config.load_config(self.config_path)
        problem, _ = self._config.build_problem(cfg)
        dist = self._config.build_distribution(cfg, problem)
        self.state = (cfg, problem, dist)
        return self.state

    def _command(self, name: str) -> Op:
        out_dir = self.workdir / f"out_{name}"
        config_path = self.validate_path if name == "validate" else self.config_path

        def prepare():
            shutil.rmtree(out_dir, ignore_errors=True)

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return self._cli.main([name, str(config_path), "--output-dir", str(out_dir), "--threads", "1"])

        def verify(code):
            outcome = Outcome(ok=code == 0)
            if code != 0:
                return outcome
            outcome.observed["artifact_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
            if name == "diagnose":
                check_diagnostics(self.workload, out_dir, self.expected, outcome)
            elif name == "run":
                check_run(self.workload, out_dir, self.expected, outcome, self.n_solvers)
            else:
                n_checks = len(self.workload.validate_checks or ()) or ALL_CHECKS
                check_validate(out_dir, n_checks, outcome)
            return outcome

        return Op(name, call, prepare, verify)

    def _solve(self):
        from sketchsolve import solvers

        cfg, problem, dist = self.state
        x0 = np.zeros(problem.n)
        start_error = problem.metric.norm(x0 - problem.project(x0))
        config = solvers.SolverConfig(
            omega=1.0,
            max_iters=self.workload.solve_cap,
            master_seed=cfg.seed,
            tol=SOLVE_RELATIVE_TOL * start_error,
            record=("error_sq", "iterates"),
        )
        return solvers.run_basic(problem, dist, config, x0=x0), config.tol

    def _verify_solve(self, result):
        trace, tol = result
        _, problem, _ = self.state
        outcome = Outcome()
        iterations = len(trace.error_sq) - 1
        outcome.observed["solve_iterations"] = iterations
        outcome.check("solve: converged", trace.converged is True)
        if self._residual_scale is None:
            # ||A x - b|| <= ||A B^{-1/2}||_2 ||x - x*||_B
            self._residual_scale = float(np.linalg.norm(problem.A @ problem.metric.inv_sqrt, 2))
        residual = float(np.linalg.norm(problem.A @ trace.iterates[-1] - problem.b))
        outcome.check("solve: small residual", residual <= 1.01 * self._residual_scale * tol + 1e-12)
        if self.expected is not None:
            outcome.check(
                "solve: matches recorded iteration count",
                abs(iterations - self.expected["solve_iterations"]) <= 2,
            )
        return outcome


def load_expected(workload: Workload, seed: int) -> dict | None:
    """Values recorded at the commit that defined the benchmark, for the default seed."""
    if workload.name != "reference" and seed != DEFAULT_SEED:
        return None
    return _load_json(EXPECTED_FILE)[workload.name]
