import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from sketchsolve import validation
from sketchsolve.analysis import monte_carlo_moments
from sketchsolve.cli import main
from sketchsolve.linalg import Problem
from sketchsolve.problems import gaussian_consistent
from sketchsolve.reformulation import build_reformulation
from sketchsolve.sketching import Coordinate, SketchSample, kaczmarz_distribution
from sketchsolve.solvers import SolverConfig, run_basic
from sketchsolve.validation import (
    LIBRARY_CHECKS,
    PROBLEM_CHECKS,
    ValidationOptions,
    run_validation,
)

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "reference_config.json"


@pytest.fixture(scope="module")
def reference():
    problem = Problem(np.diag([1.0, 2.0]), [1.0, 2.0])
    reform = build_reformulation(problem, kaczmarz_distribution(problem.A))
    return problem, reform


OPTIONS = ValidationOptions(seed=99, replications=250, iterations=20, instances=60, oracle_instances=120)


@pytest.mark.parametrize("name", sorted(LIBRARY_CHECKS))
def test_library_checks_pass(name, reference):
    problem, reform = reference
    [result] = run_validation(problem, reform, OPTIONS, [name])
    assert result.passed, result.details


@pytest.mark.parametrize("name", sorted(PROBLEM_CHECKS))
def test_problem_checks_pass(name, reference):
    problem, reform = reference
    [result] = run_validation(problem, reform, OPTIONS, [name])
    assert result.passed, result.details


def test_unknown_check_rejected(reference):
    problem, reform = reference
    with pytest.raises(ValueError):
        run_validation(problem, reform, OPTIONS, ["theorem:flat-earth"])


def test_exactness_check_flags_biased_sampling():
    # sampling only the first row of the identity leaves a solution gap
    problem = Problem(np.eye(2), np.ones(2))
    reform = build_reformulation(problem, Coordinate([1.0, 0.0]))
    [result] = run_validation(problem, reform, OPTIONS, ["theorem:exactness-characterization"])
    assert result.passed
    assert result.details["verdict"] == "not-exact"


def test_convergence_window_decides_at_overflow(reference):
    # at omega = 2.6 / lambda_max the Monte Carlo mean error of the reference
    # system overflows within 600 iterations; the overflow is the non-decay
    problem, reform = reference
    options = ValidationOptions(seed=99, replications=8, iterations=600)
    [result] = run_validation(problem, reform, options, ["corollary:convergence-window"])
    first = result.details["first_nonfinite_iterate"]
    assert 1 < first <= options.iterations
    assert result.passed
    assert np.isfinite(result.margin) and result.margin > 0.0
    assert result.margin == result.details["growth_rate"] - 1.0


def test_monte_carlo_spectrum_path():
    # gaussian sketches have no finite support: spectrum-prediction checks
    # either widen their bands by the eigenvalue uncertainty or skip
    from sketchsolve.sketching import Gaussian
    from sketchsolve.sketching import stream as _stream

    rng = _stream(123, 0)
    a = rng.standard_normal((6, 4))
    problem = Problem(a, a @ rng.standard_normal(4))
    reform = build_reformulation(problem, Gaussian(6, 2), n_samples=3000, seed=5)
    assert reform.estimation.kind == "monte-carlo"
    names = [
        "theorem:expected-iterate-recursion",
        "theorem:l2-two-sided-band",
        "theorem:value-decay",
        "theorem:parallel-rate-bound",
        "theorem:accelerated-mean-decay",
        "theorem:exactness-characterization",
    ]
    results = run_validation(problem, reform, OPTIONS, names)
    assert all(r.passed for r in results), [(r.anchor, r.details) for r in results]
    skipped = {r.anchor for r in results if "skipped" in r.details}
    assert "theorem:value-decay" in skipped
    assert "theorem:expected-iterate-recursion" not in skipped


def test_results_are_deterministic(reference):
    problem, reform = reference
    names = ["theorem:expected-iterate-recursion", "theorem:l2-two-sided-band"]
    a = run_validation(problem, reform, OPTIONS, names)
    b = run_validation(problem, reform, OPTIONS, names)
    assert [(r.anchor, r.margin) for r in a] == [(r.anchor, r.margin) for r in b]


def test_range_eigen_bound_master_seed_7():
    # the check passes at this master seed; the instance on which it used to
    # fail is built as a Problem directly in the next test
    result = LIBRARY_CHECKS["lemma:range-restricted-eigenvalue"](ValidationOptions(seed=7))
    assert result.passed, result.details


def test_seed_7_range_eigen_instance_is_consistent():
    # instance 125 of the range-eigenvalue check's stream at master seed 7, a
    # 5 x 5 system with smallest singular value 1.9e-4: Problem used to reject
    # it as inconsistent (residual 8.8e-9 against a tolerance of 6.7e-10) while
    # the pseudoinverse went through the squared-condition core
    from sketchsolve.sketching import stream

    rng = stream(7, validation.VALIDATION_STREAM, 6)
    for k in range(126):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        a = rng.standard_normal((m, n))
        planted = rng.standard_normal(n)
        if k < 125:
            rng.standard_normal(m)
    assert a.shape == (5, 5)
    assert np.linalg.svd(a, compute_uv=False)[-1] < 2e-4
    problem = Problem(a, a @ planted)
    assert problem.consistency_residual <= 1e-10 * (1.0 + np.linalg.norm(problem.b))
    assert np.allclose(problem.min_norm_solution, planted, atol=1e-8)


def _exact_cesaro_error(problem, probabilities, x0, iterations):
    """Exact E||hat_x_k - x*||^2, k = 1..iterations, of Kaczmarz at omega = 1 on a diagonal system.

    Each step zeroes the error of the coordinate it draws, so coordinate j
    of x_t - x* is its start value until j is first drawn, a geometric
    time T_j with P(T_j >= t) = q_j^t, q_j = 1 - p_j. Coordinate j of
    hat_x_k - x* is then its start value times sum_{t<k} [T_j >= t] / k,
    whose expected square is sum_{t,u<k} q_j^max(t,u) / k^2 =
    sum_{s<k} (2s + 1) q_j^s / k^2.
    """
    e0 = x0 - problem.project(x0)
    s = np.arange(iterations)[:, None]
    k = np.arange(1, iterations + 1)
    return np.cumsum((2 * s + 1) * (1.0 - probabilities) ** s, axis=0) @ (e0 * e0) / k**2


def test_cesaro_norm_bound_holds_for_the_exact_expectation(reference):
    # the reference problem at the validation start of master seed 1007:
    # the exact expectation breaks r0 / (2 w(2-w) lambda_min_plus k), the
    # norm bound the check used to apply, and keeps under the one the
    # value bound gives, twice that
    problem, reform = reference
    probabilities = reform.dist.probabilities
    x0 = validation._validation_start(problem, ValidationOptions(seed=1007))
    exact = _exact_cesaro_error(problem, probabilities, x0, 25)

    # the closed form against every draw sequence of 8 steps, through the solver
    config = SolverConfig(omega=1.0, max_iters=8, master_seed=1, record=("iterates",))
    enumerated = np.zeros(8)
    for rows in product(range(2), repeat=8):
        samples = [SketchSample(cols=(i,), m=2) for i in rows]
        iterates = run_basic(problem, reform.dist, config, x0=x0, samples=samples).iterates[:-1]
        average = np.cumsum(iterates, axis=0) / np.arange(1, 9)[:, None]
        enumerated += np.prod(probabilities[list(rows)]) * ((average - problem.project(x0)) ** 2).sum(axis=1)
    assert np.allclose(enumerated, exact[:8], rtol=1e-13, atol=0.0)

    lmin = reform.spectrum.lambda_min_plus
    r0 = float(np.sum((x0 - problem.project(x0)) ** 2))
    k = np.arange(1, 26)
    assert exact[6] - r0 / (2.0 * lmin * 7) > 0.1
    assert np.max(exact / (r0 / (lmin * k))) < 0.61


def test_cesaro_check_passes_at_master_seed_1007(tmp_path, capsys):
    # the check failed here while it applied the halved norm bound
    cfg = dict(json.loads(REFERENCE_CONFIG.read_text()), checks=["theorem:cesaro-average-bounds"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", str(path), "--seed", "1007", "--output-dir", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.startswith("PASS theorem:cesaro-average-bounds")


def test_accelerated_check_pinned_at_n_20():
    # recorded before the envelope recurrence was vectorised over the
    # eigenvalues: a 60 x 20 Gaussian Kaczmarz problem (R = 40, K = 30),
    # every gap and the margin bit for bit
    a, b, *_ = gaussian_consistent(60, 20, seed=3)
    problem = Problem(a, b)
    reform = build_reformulation(problem, kaczmarz_distribution(a))
    options = ValidationOptions(seed=20240801, replications=40, iterations=30)
    [result] = run_validation(problem, reform, options, ["theorem:accelerated-mean-decay"])
    assert result.passed
    assert float(result.margin).hex() == "0x1.603679b80e0e8p-17"
    gaps = {key: float(result.details[key]).hex() for key in ("tracking_gap", "root_gap", "envelope_gap")}
    assert gaps == {
        "tracking_gap": "-0x1.3ce74fc4ef11fp+1",
        "root_gap": "-0x1.2a6de7eed3800p-12",
        "envelope_gap": "-0x1.603679b80e0e8p-17",
    }


MC_OPTIONS = ValidationOptions(seed=99, replications=40, iterations=10, omega=1.0, tau=2)


@pytest.fixture
def mc_calls(monkeypatch):
    """Arguments of every Monte Carlo experiment run_validation starts."""
    calls = []

    def counted(problem, dist, config, replications, iterations, **kwargs):
        calls.append((problem, kwargs.get("method", "basic"), config, replications))
        return monte_carlo_moments(problem, dist, config, replications, iterations, **kwargs)

    monkeypatch.setattr(validation, "monte_carlo_moments", counted)
    return calls


def _outcomes(results):
    return repr([r.to_dict() for r in results])


def test_each_monte_carlo_experiment_runs_once(reference, mc_calls):
    # eleven requests: five for basic omega = 1 (expected iterates, L2 band,
    # Cesaro, value decay, Jensen), L2 band at 0.5 and 1.5, value decay's
    # general regime, the convergence window, parallel and accelerated
    problem, reform = reference
    run_validation(problem, reform, MC_OPTIONS, list(PROBLEM_CHECKS))
    assert len(mc_calls) == 7
    assert len({(method, config, reps) for _, method, config, reps in mc_calls}) == 7


def test_shared_experiments_equal_fresh_ones(reference):
    problem, reform = reference
    together = run_validation(problem, reform, MC_OPTIONS, list(PROBLEM_CHECKS))
    alone = [run_validation(problem, reform, MC_OPTIONS, [name])[0] for name in PROBLEM_CHECKS]
    assert _outcomes(together) == _outcomes(alone)


def test_calls_share_no_experiments(reference, mc_calls):
    problem, reform = reference
    other = Problem(np.diag([1.0, 3.0]), [2.0, 3.0])
    other_reform = build_reformulation(other, kaczmarz_distribution(other.A))
    first = run_validation(other, other_reform, MC_OPTIONS, list(PROBLEM_CHECKS))
    run_validation(problem, reform, MC_OPTIONS, list(PROBLEM_CHECKS))
    mc_calls.clear()
    again = run_validation(other, other_reform, MC_OPTIONS, list(PROBLEM_CHECKS))
    assert len(mc_calls) == 7 and all(p is other for p, *_ in mc_calls)
    assert _outcomes(again) == _outcomes(first)


def test_kaczmarz_check_reads_the_reformulation_expected_Z(monkeypatch):
    # the check takes E[Z] straight from expected_Z; build_reformulation gives the same bits
    calls = []
    original = validation.expected_Z

    def recorded(a, metric, dist, **kwargs):
        out = original(a, metric, dist, **kwargs)
        calls.append((a, out[0]))
        return out

    monkeypatch.setattr(validation, "expected_Z", recorded)
    for options in (OPTIONS, ValidationOptions(seed=20240801)):
        calls.clear()
        result = LIBRARY_CHECKS["identity:kaczmarz-expected-operator"](options)
        assert result.passed and len(calls) == result.details["instances"] > 0
        for a, ez in calls:
            reform = build_reformulation(Problem(a, a @ np.ones(a.shape[1])), kaczmarz_distribution(a))
            assert ez.tobytes() == reform.expected_Z.tobytes()
