"""Numerical validation suite for the convergence theory.

Every check audits one identity, bound, or rate statement and reports a
:class:`CheckResult` carrying a stable anchor string, a verdict, and
the worst margin observed (positive margins mean slack, negative mean
violation). A check names its anchor once, where it is registered in
``LIBRARY_CHECKS`` or ``PROBLEM_CHECKS``. Library-level checks draw
their own random instances from the master seed, in a fixed order; the
oracle checks then evaluate all instances of one shape as one stack.
Problem-level checks run Monte Carlo experiments on the configured
problem and distribution, and checks of one :func:`run_validation` call
that need the same experiment share one run of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    _closed_form,
    expected_mean_error,
    fit_rate,
    iterate_recurrence,
    monte_carlo_moments,
    rho_basic,
    rho_parallel,
    solve_recurrence,
    theoretical_rates,
    xi_factor,
)
from .linalg import Problem, SpdMatrix, _symmetrize, b_pseudoinverse
from .oracles import (
    psd_sandwich_residual,
    random_smw_instances,
    range_restricted_eigen_bound,
    smw_inverse,
)
from .reformulation import (
    Reformulation,
    _gram_pinvs,
    _weighted_z_sum,
    build_reformulation,
    expected_Z,
    sketched_projection,
    sketched_system,
    stochastic_gradient,
    stochastic_value,
)
from .sketching import SketchSample, _row_norm_probabilities, kaczmarz_distribution, stream
from .solvers import (
    SolverConfig,
    acceleration_parameters,
    basic_step,
    pathwise_residuals,
    prox_step,
    run_basic,
    stepsize_policy,
)

__all__ = [
    "CheckResult",
    "ValidationOptions",
    "run_validation",
    "LIBRARY_CHECKS",
    "PROBLEM_CHECKS",
    "REPLICATED_CHECKS",
    "FITTED_CHECKS",
]

VALIDATION_STREAM = 303


@dataclass
class CheckResult:
    """Outcome of one validation check."""

    anchor: str
    passed: bool
    margin: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "anchor": self.anchor,
            "passed": bool(self.passed),
            "margin": float(self.margin),
            "details": self.details,
        }


@dataclass(frozen=True)
class ValidationOptions:
    """Sizes for the validation runs; defaults keep a full pass fast."""

    seed: int = 0
    replications: int = 400
    iterations: int = 25
    instances: int = 120
    oracle_instances: int = 300
    omega: float = 1.0
    tau: int = 2


# anchor -> check, in registration order: a library check takes the
# options, a problem check (problem, reform, options, experiments)
LIBRARY_CHECKS = {}
PROBLEM_CHECKS = {}
# anchors of the checks whose Monte Carlo experiments take
# ``options.replications``, which must then be at least 2
REPLICATED_CHECKS = set()
# anchors of the checks that fit a rate to ``options.iterations`` + 1
# points, which must then be at least MIN_FIT_POINTS
FITTED_CHECKS = set()

_MC_SKIP_REASON = "needs an exactly known expected operator; estimation is Monte Carlo"


def _check(
    registry: dict, anchor: str, exact_only: bool = False, replicated: bool = False, fitted: bool = False
):
    """Register a check under its anchor.

    The decorated function returns ``(passed, margin, details)``; what is
    registered, and bound to its name, returns the :class:`CheckResult`.
    An ``exact_only`` problem check is skipped, as passed with margin 0,
    when E[Z] is a Monte Carlo estimate. A ``replicated`` check joins
    ``REPLICATED_CHECKS``, a ``fitted`` one ``FITTED_CHECKS``.
    """
    if replicated:
        REPLICATED_CHECKS.add(anchor)
    if fitted:
        FITTED_CHECKS.add(anchor)

    def register(check):
        @functools.wraps(check)
        def run(*args):
            if exact_only and args[1].estimation.kind != "exact":  # args[1] is the reformulation
                return CheckResult(anchor, True, 0.0, {"skipped": _MC_SKIP_REASON})
            return CheckResult(anchor, *check(*args))

        registry[anchor] = run
        return run

    return register


def _within(worst: float, tol: float, **details):
    """Verdict of a worst residual: passed at ``worst <= tol``, margin ``tol - worst``."""
    return worst <= tol, tol - worst, details


def _gap(worst: float, slack: float = 0.0, **details):
    """Verdict of a worst gap (or failure count): passed at ``worst <= slack``, margin ``-worst``."""
    return worst <= slack, -worst, details


def _random_instance(rng):
    """Random consistent (A, b, B, dense sketch) of small dimensions, b = A x_planted."""
    m, n, q = int(rng.integers(2, 7)), int(rng.integers(2, 7)), int(rng.integers(1, 4))
    a = rng.standard_normal((m, n))
    x_planted = rng.standard_normal(n)
    base = rng.standard_normal((n, n))
    metric = SpdMatrix(base @ base.T + 2.0 * np.eye(n))
    return a, a @ x_planted, metric, SketchSample(rng.standard_normal((m, q)))


# ---------------------------------------------------------------------------
# Library-level checks (problem independent)
# ---------------------------------------------------------------------------


@_check(LIBRARY_CHECKS, "lemma:sketch-identities")
def check_sketch_identities(options: ValidationOptions):
    """Gradient, Hessian-fixed-point, projection and value identities.

    For random (A, b, B, S, x): the sketch gradient equals the sketch
    Hessian applied to itself, equals its own weighted-pseudoinverse
    image, and equals x minus the compressed projection; additionally
    f_S(x) = ||grad f_S(x)||_B^2 / 2 and one full step lands on the
    compressed solution set (f_S drops to zero).
    """
    rng = stream(options.seed, VALIDATION_STREAM, 1)
    worst = 0.0
    tol = 1e-8
    for _ in range(options.instances):
        a, b, metric, sample = _random_instance(rng)
        sys = sketched_system(a, b, metric, sample)
        x = rng.standard_normal(metric.dim)
        grad = stochastic_gradient(sys, x)
        scale = max(1.0, float(np.linalg.norm(grad)))
        hessian = metric.inv @ sys.Z
        hess_grad = hessian @ grad
        pinv_grad = b_pseudoinverse(hessian, metric) @ grad
        proj_diff = x - sketched_projection(sys, x)
        worst = max(
            worst,
            float(np.linalg.norm(hess_grad - grad)) / scale,
            float(np.linalg.norm(pinv_grad - grad)) / scale,
            float(np.linalg.norm(proj_diff - grad)) / scale,
        )
        value = stochastic_value(sys, x)
        half_grad_sq = 0.5 * metric.norm_sq(grad)
        worst = max(worst, abs(value - half_grad_sq) / max(1.0, value))
        worst = max(worst, stochastic_value(sys, x - grad) / max(1.0, value))
    return _within(worst, tol, instances=options.instances, worst_residual=worst)


@_check(LIBRARY_CHECKS, "identity:kaczmarz-expected-operator")
def check_kaczmarz_expected_operator(options: ValidationOptions):
    """Row sampling by squared norms averages Z to A'A normalized by ||A||_F^2."""
    rng = stream(options.seed, VALIDATION_STREAM, 2)
    tol = 1e-12
    worst = 0.0
    trials = max(20, options.instances // 4)
    for _ in range(trials):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        a = rng.standard_normal((m, n))
        rng.standard_normal(n)  # a planted solution: unused, drawn to keep the draw order
        ez, _ = expected_Z(a, SpdMatrix.identity(n), kaczmarz_distribution(a))
        target = a.T @ a / float(np.sum(a * a))
        scale = max(1.0, float(np.abs(target).max()))
        worst = max(worst, float(np.abs(ez - target).max()) / scale)
    return _within(worst, tol, instances=trials, worst_residual=worst)


@_check(LIBRARY_CHECKS, "theorem:proximal-equivalence")
def check_prox_equivalence(options: ValidationOptions):
    """The sketched step solves the sketch-regularized proximal problem."""
    rng = stream(options.seed, VALIDATION_STREAM, 3)
    tol = 1e-8
    worst = 0.0
    trials = max(20, options.instances // 2)
    for _ in range(trials):
        a, b, metric, sample = _random_instance(rng)
        problem = Problem(a, b, metric)
        x = rng.standard_normal(problem.n)
        for omega in (0.1, 0.5, 0.9, 1.0):
            direct = basic_step(problem, x, sample, omega)
            prox = prox_step(problem, x, sample, omega)
            scale = max(1.0, float(np.linalg.norm(direct)))
            worst = max(worst, float(np.linalg.norm(direct - prox)) / scale)
    return _within(worst, tol, instances=trials, worst_residual=worst)


def _max_abs(stack: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each matrix in a stack."""
    return np.abs(stack).max(axis=(-2, -1))


@_check(LIBRARY_CHECKS, "lemma:woodbury-identity")
def check_woodbury(options: ValidationOptions):
    """Low-rank update inverse identity against direct inversion (relative)."""
    rng = stream(options.seed, VALIDATION_STREAM, 4)
    tol = 1e-9
    worst = 0.0
    for inst in random_smw_instances(rng, options.oracle_instances):
        direct = np.linalg.inv(inst.M + inst.C @ inst.N @ inst.D)
        gap = _max_abs(smw_inverse(inst) - direct)
        worst = max(worst, float((gap / np.maximum(1.0, _max_abs(direct))).max()))
    return _within(worst, tol, instances=options.oracle_instances, worst_residual=worst)


@_check(LIBRARY_CHECKS, "lemma:psd-sandwich-identity")
def check_psd_sandwich(options: ValidationOptions):
    """Pseudoinverse sandwich identity on rank-deficient PSD matrices.

    Instances are well-scaled by construction: Q diag(lambda) Q' with Q
    from the QR factorization of a Gaussian matrix and nonzero
    eigenvalues in [0.1, 10], the regime where the absolute residual is
    meaningful.
    """
    rng = stream(options.seed, VALIDATION_STREAM, 5)
    tol = 1e-9
    groups = {}
    for _ in range(options.oracle_instances):
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(1, n + 1))
        gauss = rng.standard_normal((n, n))
        lam = np.zeros(n)
        lam[:rank] = rng.uniform(0.1, 10.0, size=rank)
        groups.setdefault(n, []).append((gauss, lam, rng.uniform(0.05, 5.0)))
    worst = 0.0
    for items in groups.values():
        gauss, lam, mu = (np.stack(parts) for parts in zip(*items))
        q, _ = np.linalg.qr(gauss)
        mats = (q * lam[:, None, :]) @ np.swapaxes(q, -1, -2)
        worst = max(worst, float(psd_sandwich_residual(mats, mu).max()))
    return _within(worst, tol, instances=options.oracle_instances, worst_residual=worst)


@_check(LIBRARY_CHECKS, "lemma:range-restricted-eigenvalue")
def check_range_eigen_bound(options: ValidationOptions):
    """Smallest-nonzero-eigenvalue bound on the compressed range.

    Each instance is a random m-by-n A with B = I under row-norm
    (Kaczmarz) sampling and x = B^{-1/2} A' w for a random w. E[Z] comes
    from the kernels of :func:`expected_Z` over the support of row
    sampling, every row one atom, and lambda_min_plus from the rank
    threshold of :func:`spectrum_of`, for all instances of one shape at
    once.
    """
    rng = stream(options.seed, VALIDATION_STREAM, 6)
    trials = options.oracle_instances
    groups = {}
    for _ in range(trials):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        a = rng.standard_normal((m, n))
        rng.standard_normal(n)  # a planted solution: unused, drawn to keep the draw order
        groups.setdefault((m, n), []).append((a, rng.standard_normal(m)))
    failures = 0
    for (_, n), items in groups.items():
        a, w = (np.stack(parts) for parts in zip(*items))
        metric = SpdMatrix.identity(n)
        rows = a[..., None, :]  # atom i of each support is row i, alone
        ez = _symmetrize(_weighted_z_sum(rows, _gram_pinvs(rows, metric), _row_norm_probabilities(a)))
        x = (w[:, None, :] @ a @ metric.inv_sqrt)[:, 0]  # (B^{-1/2} A' w)' = w' A B^{-1/2}
        failures += int(np.count_nonzero(~range_restricted_eigen_bound(ez, metric, x)))
    return _gap(float(failures), instances=trials, failures=failures)


@_check(LIBRARY_CHECKS, "lemma:two-term-recurrence-closed-form")
def check_recurrence_closed_form(options: ValidationOptions):
    """Closed trigonometric recurrence solution against direct iteration."""
    rng = stream(options.seed, VALIDATION_STREAM, 7)
    tol = 1e-9
    worst = 0.0
    for _ in range(options.oracle_instances):
        e_coef = float(rng.uniform(-1.8, 1.8))
        upper = -e_coef * e_coef / 4.0
        f_coef = float(rng.uniform(-0.999, upper - 1e-3)) if upper - 1e-3 > -0.999 else -0.999
        xi0, xi1 = (float(v) for v in rng.standard_normal(2))
        k = int(rng.integers(2, 201))
        direct = iterate_recurrence(e_coef, f_coef, xi0, xi1, k)
        closed = solve_recurrence(e_coef, f_coef, xi0, xi1, k)
        worst = max(worst, abs(direct - closed) / max(1.0, abs(direct)))
    return _within(worst, tol, instances=options.oracle_instances, worst_residual=worst)


@_check(LIBRARY_CHECKS, "lemma:quadratic-bounds")
def check_quadratic_bounds(options: ValidationOptions):
    """Gradient-value sandwich and the two norm bounds on f."""
    rng = stream(options.seed, VALIDATION_STREAM, 8)
    tol = 1e-9
    worst = -np.inf
    trials = max(20, options.instances // 4)
    for _ in range(trials):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        a = rng.standard_normal((m, n))
        base = rng.standard_normal((n, n))
        metric = SpdMatrix(base @ base.T + 2.0 * np.eye(n))
        problem = Problem(a, a @ rng.standard_normal(n), metric)
        reform = build_reformulation(problem, kaczmarz_distribution(a))
        lmin, lmax = reform.spectrum.lambda_min_plus, reform.spectrum.lambda_max
        exact = reform.exactness() == "exact"
        for _ in range(4):
            x = rng.standard_normal(problem.n)
            f_val = reform.f_value(x)
            half_grad = 0.5 * metric.norm_sq(reform.grad_f(x))
            scale = max(1.0, f_val)
            worst = max(
                worst,
                (lmin * f_val - half_grad) / scale,
                (half_grad - lmax * f_val) / scale,
            )
            x_star_any = reform.x_star
            worst = max(
                worst, (f_val - 0.5 * lmax * metric.norm_sq(x - x_star_any)) / scale
            )
            if exact:
                proj = problem.project(x)
                worst = max(
                    worst, (0.5 * lmin * metric.norm_sq(x - proj) - f_val) / scale
                )
    return _within(worst, tol, instances=trials, worst_violation=worst)


@_check(LIBRARY_CHECKS, "theorem:equivalent-solution-sets")
def check_equivalent_solution_sets(options: ValidationOptions):
    """For finite supports, grad f vanishes iff every atom's loss vanishes."""
    rng = stream(options.seed, VALIDATION_STREAM, 9)
    trials = max(20, options.instances // 6)
    failures = 0
    for _ in range(trials):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        a = rng.standard_normal((m, n))
        a[:, -1] = 0.0  # force a nontrivial null space
        problem = Problem(a[:, :], a @ np.append(rng.standard_normal(n - 1), 0.0))
        dist = kaczmarz_distribution(a)
        reform = build_reformulation(problem, dist)
        support = reform.estimation.support
        in_set = reform.x_star + np.append(np.zeros(n - 1), rng.standard_normal())
        out_set = reform.x_star + rng.standard_normal(n) + np.append(np.ones(n - 1), 0.0)
        systems = [sketched_system(problem.A, problem.b, problem.metric, s) for s, _ in support]
        for x, expected_zero in ((in_set, True), (out_set, None)):
            grad_zero = float(np.linalg.norm(reform.grad_f(x))) <= 1e-9
            atoms_zero = max(stochastic_value(sys, x) for sys in systems) <= 1e-18
            if grad_zero != atoms_zero:
                failures += 1
            if expected_zero is True and not grad_zero:
                failures += 1
    return _gap(float(failures), instances=trials, failures=failures)


# ---------------------------------------------------------------------------
# Problem-level checks (use the configured problem and distribution)
# ---------------------------------------------------------------------------


@_check(PROBLEM_CHECKS, "lemma:spectrum-in-unit-interval")
def check_spectrum_range(
    problem: Problem, reform: Reformulation, options: ValidationOptions, experiments
):
    """Eigenvalues lie in [0, 1]; with single-column sketches they sum to 1."""
    lam = reform.spectrum.lambdas_raw
    worst = max(float(lam[0] - 1.0), float(-lam[-1]))
    tol = reform.estimation.eigenvalue_slack
    details = {"lambda_max_raw": float(lam[0]), "lambda_min_raw": float(lam[-1])}
    passed = worst <= tol
    # B^{-1}Z of a one-column sketch is a projector of rank one (zero if S'A = 0), so
    # trace(W) = E trace(B^{-1}Z) is 1 unless a sketch sees nothing, exact or Monte Carlo
    if reform.dist.q == 1:
        trace_gap = abs(float(lam.sum()) - 1.0)
        details["trace_gap"] = trace_gap
        passed = passed and trace_gap <= 1e-9
        worst = max(worst, trace_gap - 1e-9 + tol)
    return passed, tol - worst, details


@_check(PROBLEM_CHECKS, "theorem:exactness-characterization")
def check_exactness_verdict(
    problem: Problem, reform: Reformulation, options: ValidationOptions, experiments
):
    """Exactness verdict, cross-checked against the sufficient condition.

    When E[H] is available and positive definite, the verdict must be
    "exact"; a Monte Carlo expectation must yield "undecidable".
    """
    verdict = reform.exactness()
    details = {"verdict": verdict, "estimation": reform.estimation.kind}
    if reform.estimation.kind != "exact":
        return verdict == "undecidable", 0.0, details
    eh = reform.expected_H()
    passed = verdict in ("exact", "not-exact")
    if eh is not None:
        eig_min = float(np.linalg.eigvalsh(eh)[0])
        details["expected_H_min_eigenvalue"] = eig_min
        if eig_min > 1e-12:
            passed = passed and verdict == "exact"
    return passed, 0.0, details


@_check(PROBLEM_CHECKS, "lemma:pathwise-step-identities")
def check_pathwise_identities(
    problem: Problem, reform: Reformulation, options: ValidationOptions, experiments
):
    """Per-step energy identities of the basic method at several stepsizes."""
    tol = 1e-9
    worst = 0.0
    rng = stream(options.seed, VALIDATION_STREAM, 10)
    x0 = rng.standard_normal(problem.n)
    for omega in (0.5, options.omega, 1.6):
        cfg = SolverConfig(omega=omega, max_iters=options.iterations, master_seed=options.seed)
        trace = run_basic(problem, reform.dist, cfg, x0=x0)
        dec, step = pathwise_residuals(trace)
        worst = max(worst, dec, step)
    return _within(worst, tol, worst_residual=worst)


def _lambda_uncertainty(reform: Reformulation) -> float:
    """Eigenvalue error bound for Monte Carlo estimated spectra.

    By eigenvalue perturbation, |lambda_i(West) - lambda_i(W)| is at most
    the spectral-norm error of W, bounded by the standard error of the
    estimated operator amplified through the inverse weighting.
    """
    if reform.estimation.kind == "exact":
        return 0.0
    b_min = float(reform.problem.metric.eigenvalues[-1])
    return 3.0 * (reform.estimation.se_norm or 0.0) / b_min


@_check(PROBLEM_CHECKS, "theorem:expected-iterate-recursion", replicated=True)
def check_expected_iterates(
    problem: Problem, reform: Reformulation, options: ValidationOptions, experiments
):
    """Transformed mean errors follow (1 - w lambda_i)^k componentwise (4 SE)."""
    moments = experiments()
    lam = reform.spectrum.lambdas_raw
    k = np.arange(options.iterations + 1)[:, None]
    predicted = (1.0 - options.omega * lam[None, :]) ** k * moments.initial_transformed[None, :]
    # means below the per-component Monte Carlo resolution (trajectories are
    # pathwise bounded by the initial weighted norm for 0 <= w <= 2) cannot
    # be distinguished from zero, so the tolerance is floored there
    floor = 5.0 * np.sqrt(moments.l2_error[0]) / options.replications
    # an estimated spectrum shifts each factor by at most w * delta
    delta = _lambda_uncertainty(reform)
    if delta > 0.0:
        base = np.abs(1.0 - options.omega * lam[None, :])
        widen = ((base + options.omega * delta) ** k - base**k) * np.abs(
            moments.initial_transformed[None, :]
        )
    else:
        widen = 0.0
    gap = (
        np.abs(moments.transformed_mean - predicted)
        - 4.0 * moments.transformed_se
        - floor
        - widen
        - 1e-12
    )
    worst = float(gap.max())
    return _gap(worst, replications=options.replications, worst_gap=worst)


@_check(PROBLEM_CHECKS, "lemma:null-component-anchoring", replicated=True)
def check_null_component_anchoring(
    problem: Problem, reform: Reformulation, options: ValidationOptions, experiments
):
    """Zero-eigenvalue components stay at zero when anchored at proj(x_0)."""
    lam = reform.spectrum.lambdas_raw
    null_idx = np.where(lam <= reform.spectrum.rank_threshold)[0]
    if null_idx.size == 0:
        return True, 0.0, {"note": "spectrum has no zero eigenvalues"}
    moments = experiments()
    gap = (
        np.abs(moments.transformed_mean[:, null_idx])
        - 4.0 * moments.transformed_se[:, null_idx]
        - 1e-12
    )
    worst = float(gap.max())
    return _gap(worst, null_components=int(null_idx.size), worst_gap=worst)


@_check(PROBLEM_CHECKS, "theorem:l2-two-sided-band", replicated=True)
def check_l2_band(
    problem: Problem, reform: Reformulation, options: ValidationOptions, experiments
):
    """E||x_k - x*||_B^2 sits inside the two-sided geometric band (3 SE).

    For Monte Carlo estimated spectra the band is widened by the
    eigenvalue uncertainty (optimistic lambda_min_plus for the upper
    side, pessimistic lambda_max for the lower side).
    """
    delta = _lambda_uncertainty(reform)
    lmin = max(reform.spectrum.lambda_min_plus - delta, 0.0)
    lmax = min(reform.spectrum.lambda_max + delta, 1.0)
    worst = -np.inf
    for omega in (0.5, options.omega, 1.5):
        moments = experiments(omega=omega)
        k = np.arange(options.iterations + 1)
        r0 = moments.l2_error[0]
        upper = (1.0 - omega * (2.0 - omega) * lmin) ** k * r0
        lower = (1.0 - omega * (2.0 - omega) * lmax) ** k * r0
        worst = max(
            worst,
            float(np.max(moments.l2_error - upper - 3.0 * moments.l2_se)),
            float(np.max(lower - moments.l2_error - 3.0 * moments.l2_se)),
        )
    return _gap(worst, 1e-12, replications=options.replications, worst_gap=worst)


@_check(PROBLEM_CHECKS, "theorem:cesaro-average-bounds", exact_only=True, replicated=True)
def check_cesaro_bounds(
    problem: Problem, reform: Reformulation, options: ValidationOptions, experiments
):
    """O(1/k) bounds for the running-average iterate (norm and value).

    For hat_x_k = (1/k) sum_{t<k} x_t, E f(hat_x_k) <= r0 / (2 w(2-w) k).
    hat_x_k - x* lies in range(B^{-1}A'), so x* is its projection too,
    and f(x) >= (lambda_min_plus/2) ||x - x*||_B^2 (lemma:quadratic-bounds)
    gives E ||hat_x_k - x*||_B^2 <= r0 / (w(2-w) lambda_min_plus k).
    """
    omega = options.omega
    moments = experiments()
    lmin = reform.spectrum.lambda_min_plus
    r0 = moments.l2_error[0]
    k = np.arange(1, options.iterations + 1)
    bound_norm = r0 / (omega * (2.0 - omega) * lmin * k)
    bound_value = r0 / (2.0 * omega * (2.0 - omega) * k)
    worst = float(
        np.max(moments.cesaro_error[1:] - bound_norm - 3.0 * moments.cesaro_error_se[1:])
    )
    worst = max(
        worst,
        float(np.max(moments.cesaro_f[1:] - bound_value - 3.0 * moments.cesaro_f_se[1:])),
    )
    return _gap(worst, 1e-12, replications=options.replications, worst_gap=worst)


@_check(PROBLEM_CHECKS, "theorem:value-decay", exact_only=True, replicated=True)
def check_value_decay(
    problem: Problem, reform: Reformulation, options: ValidationOptions, experiments
):
    """Both geometric bounds on E f(x_k), each in its own stepsize regime."""
    worst = -np.inf
    details = {}
    spectrum = reform.spectrum
    omega_general = min(options.omega, 1.9 / spectrum.zeta)
    for tag, omega in (("general", omega_general), ("exactness", options.omega)):
        moments = experiments(omega=omega)
        rates = theoretical_rates(spectrum, omega)
        k = np.arange(options.iterations + 1)
        if tag == "general":
            bound = rates.f_factor_general**k * moments.f_mean[0]
        else:
            bound = (
                rates.f_factor_under_exactness**k
                * 0.5
                * spectrum.lambda_max
                * moments.l2_error[0]
            )
        gap = float(np.max(moments.f_mean - bound - 3.0 * moments.f_se))
        details[f"worst_gap_{tag}"] = gap
        worst = max(worst, gap)
    return _gap(worst, 1e-12, **details)


@_check(PROBLEM_CHECKS, "corollary:convergence-window", fitted=True)
def check_convergence_window(
    problem: Problem, reform: Reformulation, options: ValidationOptions, experiments
):
    """Stepsizes beyond 2/lambda_max leave the mean error non-decaying.

    A mean error that overflows has not decayed: the check then decides
    at its first non-finite iterate, with the mean growth factor per
    step up to there as the rate.
    """
    omega = 1.3 * 2.0 / reform.spectrum.lambda_max
    moments = experiments(omega=omega, replications=max(options.replications // 2, 2))
    norms = np.sqrt(np.maximum(moments.mean_error_norm_sq, 1e-300))
    finite = np.isfinite(norms)
    if finite.all():
        rate = fit_rate(norms).rate
        return rate >= 1.0, rate - 1.0, {"omega": omega, "fitted_rate": rate}
    first = int(np.argmin(finite))
    rate = float((norms[first - 1] / norms[0]) ** (1.0 / (first - 1))) if first > 1 else 1.0
    details = {"omega": omega, "first_nonfinite_iterate": first, "growth_rate": rate}
    return True, max(rate - 1.0, 0.0), details


@_check(PROBLEM_CHECKS, "theorem:optimal-relaxation-argmin")
def check_optimal_relaxation(
    problem: Problem, reform: Reformulation, options: ValidationOptions, experiments
):
    """The contraction factor is minimized at 2/(lambda_min_plus + lambda_max)."""
    spectrum = reform.spectrum
    omega_star = stepsize_policy(spectrum, "optimal")
    grid = np.linspace(1e-6, 2.0 / spectrum.lambda_max - 1e-6, 1000)
    values = np.array([rho_basic(spectrum, w) for w in grid])
    best = float(grid[int(np.argmin(values))])
    spacing = float(grid[1] - grid[0])
    gap = abs(best - omega_star)
    rho_star = rho_basic(spectrum, omega_star)
    all_above = bool(np.all(values >= rho_star - 1e-12))
    return gap <= spacing and all_above, spacing - gap, {"omega_star": omega_star, "grid_argmin": best}


@_check(PROBLEM_CHECKS, "theorem:parallel-rate-bound", exact_only=True, replicated=True)
def check_parallel_rate_bound(
    problem: Problem, reform: Reformulation, options: ValidationOptions, experiments
):
    """Per-step L2 contraction of the parallel method obeys its factor."""
    tau = options.tau
    xi = xi_factor(reform.spectrum, tau)
    omega = 1.0 / xi
    moments = experiments("parallel", omega=omega, tau=tau)
    rho = rho_parallel(reform.spectrum, omega, tau)
    l2 = moments.l2_error
    se = moments.l2_se
    gaps = l2[1:] - rho * l2[:-1] - 3.0 * (se[1:] + rho * se[:-1]) - 1e-12
    worst = float(gaps.max())
    return _gap(worst, tau=tau, omega=omega, rho=rho, worst_gap=worst)


@_check(PROBLEM_CHECKS, "theorem:accelerated-mean-decay", exact_only=True, replicated=True)
def check_accelerated_mean(
    problem: Problem, reform: Reformulation, options: ValidationOptions, experiments
):
    """Accelerated mean errors track the two-term recursion and its envelope.

    Three parts: (a) the Monte Carlo mean error norm matches the exact
    mean recursion within sampling error; (b) for every positive
    eigenvalue the recursion's characteristic roots are complex with
    modulus sqrt((gamma-1)(1 - w lambda_i)) <= 1 - sqrt(mu); (c) each
    transformed mean component stays under its closed-form envelope
    2 (1-sqrt(mu))^k (|C0| + |C1|).
    """
    spectrum = reform.spectrum
    omega = 1.0 / spectrum.lambda_max
    gamma, mu = acceleration_parameters(spectrum, omega)
    iters = max(options.iterations, 12)
    x0 = _validation_start(problem, options)
    moments = experiments("accelerated", omega=omega, gamma=gamma, iterations=iters)
    exact = expected_mean_error(reform, omega, iters, x0=x0, method="accelerated", gamma=gamma)
    mc_norm = np.sqrt(np.maximum(moments.mean_error_norm_sq, 0.0))
    noise = np.sqrt(np.maximum(moments.l2_error, 0.0)) / np.sqrt(moments.replications)
    worst_track = float(np.max(np.abs(mc_norm - exact) - 4.0 * noise - 1e-12))

    factor = 1.0 - np.sqrt(mu)
    anchor_x = problem.project(x0)
    w0 = spectrum.U.T @ problem.metric.sqrt @ (x0 - anchor_x)
    lam = spectrum.lambdas_raw
    e_coef = gamma * (1.0 - omega * lam)
    f_coef = (1.0 - gamma) * (1.0 - omega * lam)
    # positive eigenvalues only; a component with E = F = 0, where w lambda = 1, is
    # annihilated after two steps. lambda <= lambda_max = 1/w, so a computed w lambda
    # above 1 (real roots) is roundoff of w lambda = 1 and annihilated too
    live = (lam > spectrum.rank_threshold) & (omega * lam < 1.0)
    e_coef, f_coef, w0 = e_coef[live], f_coef[live], w0[live]
    worst_root = max(
        np.max(e_coef * e_coef + 4.0 * f_coef, initial=-np.inf),  # must be negative (complex roots)
        np.max(np.sqrt(np.maximum(-f_coef, 0.0)) - factor * (1.0 + 1e-12), initial=-np.inf),
    )
    bound = np.array([2.0 * _recurrence_constants(*coefs) for coefs in zip(e_coef, f_coef, w0)])
    # the recurrence started at (w0, w0), one step for every component at once
    prev = value = w0
    worst_envelope = -np.inf
    for k in range(iters + 1):
        if k >= 2:
            prev, value = value, e_coef * value + f_coef * prev
        gaps = np.abs(value) - bound * factor**k * (1.0 + 1e-9)
        worst_envelope = max(worst_envelope, np.max(gaps, initial=-np.inf))
    worst = max(worst_track, worst_root, worst_envelope)
    return _gap(
        worst,
        omega=omega,
        gamma=gamma,
        mu=mu,
        tracking_gap=worst_track,
        root_gap=worst_root,
        envelope_gap=worst_envelope,
    )


def _recurrence_constants(e_coef: float, f_coef: float, w0: float) -> float:
    """|C0| + |C1| of the closed-form recurrence solution started at (w0, w0)."""
    sol = _closed_form(e_coef, f_coef, w0, w0)
    return abs(sol.c0) + abs(sol.c1)


@_check(PROBLEM_CHECKS, "identity:mean-vs-mean-square", replicated=True)
def check_jensen(
    problem: Problem, reform: Reformulation, options: ValidationOptions, experiments
):
    """||E e_k||_B^2 never exceeds E||e_k||_B^2 beyond sampling noise."""
    gap = experiments().jensen_gap()
    return _gap(gap, 1e-12, worst_gap=gap)


def _validation_start(problem: Problem, options: ValidationOptions) -> np.ndarray:
    rng = stream(options.seed, VALIDATION_STREAM, 99)
    return problem.min_norm_solution + rng.standard_normal(problem.n)


def _experiments(problem: Problem, reform: Reformulation, options: ValidationOptions):
    """The Monte Carlo experiments of one validation pass, each run once.

    Returns ``experiments(method="basic", *, omega, tau, gamma,
    iterations, replications)``, the :func:`monte_carlo_moments` of the
    method from the validation start; ``omega``, ``iterations`` and
    ``replications`` default to those of ``options``, and the streams
    are keyed by its seed. Every check of a pass starts from the same
    x_0, so these arguments fix an experiment: checks that ask for the
    same one share one result, computed with ``reform`` so that it
    carries every moment. The results are read-only.
    """
    x0 = _validation_start(problem, options)
    done = {}

    def experiments(
        method: str = "basic",
        *,
        omega: float | None = None,
        tau: int = 1,
        gamma: float | None = None,
        iterations: int | None = None,
        replications: int | None = None,
    ):
        config = SolverConfig(
            omega=options.omega if omega is None else omega,
            max_iters=options.iterations if iterations is None else iterations,
            master_seed=options.seed,
            tau=tau,
            gamma=gamma,
        )
        replications = options.replications if replications is None else replications
        key = (method, config, replications)
        if key not in done:
            result = monte_carlo_moments(
                problem,
                reform.dist,
                config,
                replications,
                config.max_iters,
                reform=reform,
                method=method,
                x0=x0,
            )
            for value in vars(result).values():
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
            done[key] = result
        return done[key]

    return experiments


def run_validation(
    problem: Problem,
    reform: Reformulation,
    options: ValidationOptions,
    checks: list[str] | None = None,
) -> list[CheckResult]:
    """Run the selected checks (all by default) in a fixed order.

    Problem-level checks share the Monte Carlo experiments of this call:
    one that several checks ask for runs once.
    """
    selected = list(LIBRARY_CHECKS) + list(PROBLEM_CHECKS) if checks is None else list(checks)
    experiments = _experiments(problem, reform, options)
    results = []
    for name in selected:
        if name in LIBRARY_CHECKS:
            results.append(LIBRARY_CHECKS[name](options))
        elif name in PROBLEM_CHECKS:
            results.append(PROBLEM_CHECKS[name](problem, reform, options, experiments))
        else:
            raise ValueError(f"unknown check {name!r}")
    return results
