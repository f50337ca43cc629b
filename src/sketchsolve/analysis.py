"""Monte Carlo moment estimation, rate prediction and rate fitting.

The convergence theory makes statements about expectations:
E[x_k - x*] evolves by the deterministic recursion (I - w B^{-1}E[Z]),
E||x_k - x*||_B^2 is squeezed by a two-sided geometric band, E f(x_k)
decays geometrically, and the running average enjoys O(1/k) bounds.
This module estimates all of those quantities from independent
replications (each on its own random stream, reduced in a fixed order),
evaluates the closed-form predicted rates, extracts empirical rates by
least squares on the log scale, and solves the two-term linear
recurrence that governs the accelerated method's mean errors.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .linalg import Problem, _as_vector
from .reformulation import Reformulation, Spectrum, rho_basic
from .sketching import SketchDistribution
# run_basic, run_parallel and run_accelerated stay importable from here and
# from cli because bench/tracing.py wraps them where it looks them up
from .solvers import SolverConfig, run_accelerated, run_basic, run_parallel, run_trajectories  # noqa: F401

__all__ = [
    "MomentEstimates",
    "monte_carlo_moments",
    "RatePrediction",
    "theoretical_rates",
    "rho_basic",
    "xi_factor",
    "rho_parallel",
    "RateFit",
    "fit_rate",
    "RecurrenceSolution",
    "solve_recurrence",
    "iterate_recurrence",
    "expected_mean_error",
]

LOG_FLOOR = 1e-300
# points a rate fit needs past its burn-in
MIN_FIT_POINTS = 5


@dataclass(eq=False)
class MomentEstimates:
    """Per-iteration Monte Carlo estimates over R replications.

    Arrays are indexed by iteration k = 0..K. Transformed coordinates
    are w_k = U'B^{1/2}(x_k - x*), the basis in which the expected
    error evolves componentwise. Cesaro rows hold the running-average
    iterate (1/k) sum x_t for k >= 1 (index 0 is NaN).
    """

    replications: int
    mean_error_norm_sq: np.ndarray  # (K+1,)  ||E[x_k - x*]||_B^2
    transformed_mean: np.ndarray | None  # (K+1, n)
    transformed_se: np.ndarray | None  # (K+1, n)
    l2_error: np.ndarray  # (K+1,)  E ||x_k - x*||_B^2
    l2_se: np.ndarray
    f_mean: np.ndarray | None
    f_se: np.ndarray | None
    cesaro_error: np.ndarray
    cesaro_error_se: np.ndarray
    cesaro_f: np.ndarray | None
    cesaro_f_se: np.ndarray | None
    initial_transformed: np.ndarray | None  # U'B^{1/2}(x_0 - x*)

    def jensen_gap(self) -> float:
        """max_k of ||E e_k||_B^2 - E||e_k||_B^2 - 3 SE (should be <= 0)."""
        return float(np.max(self.mean_error_norm_sq - self.l2_error - 3.0 * self.l2_se))


def _moments(values: np.ndarray):
    """Mean and standard error over the leading (replication) axis.

    The moments of a divergent run overflow to inf or nan without
    warnings, as its errors do.
    """
    r = values.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        se = np.zeros(values.shape[1:]) if r < 2 else values.std(axis=0, ddof=1) / math.sqrt(r)
        return values.mean(axis=0), se


def _from_step_one(samples: np.ndarray):
    """Mean and standard error of (R, K) samples of iterations 1..K; NaN at iteration 0."""
    mean, se = np.full((2, samples.shape[1] + 1), np.nan)
    mean[1:], se[1:] = _moments(samples)
    return mean, se


def _quadratic_forms(errors: np.ndarray, mat: np.ndarray | None) -> np.ndarray:
    """e' M e for every row e of an (..., n) stack, through one matrix product; None is M = I.

    The forms of a divergent run overflow to inf or nan without
    warnings, as its errors do.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if mat is None:
            return (errors * errors).sum(-1)
        weighted = (errors.reshape(-1, errors.shape[-1]) @ mat).reshape(errors.shape)
        return (weighted * errors).sum(-1)


def monte_carlo_moments(
    problem: Problem,
    dist: SketchDistribution,
    config: SolverConfig,
    replications: int,
    iterations: int,
    *,
    reform: Reformulation | None = None,
    method: str = "basic",
    x0=None,
    x1=None,
) -> MomentEstimates:
    """Estimate the theorem-tracked moments by independent replications.

    Replication r draws from streams keyed by (master seed, r, worker),
    all in lockstep through :func:`run_trajectories`, whose ``error_sq``
    rows are the L2 samples. Transformed-coordinate and f-value moments
    need ``reform`` (for U and E[Z]) and are skipped without it.
    """
    if replications < 2:
        raise ValueError("need at least 2 replications")
    cfg = replace(config, max_iters=int(iterations), record=("error_sq", "iterates"), tol=None)
    traces = run_trajectories(problem, dist, cfg, method, range(replications), x0=x0, x1=x1)
    errors = np.stack([t.iterates for t in traces]) - traces[0].anchor  # (R, K+1, n)
    metric = problem.metric

    # e @ I is e exactly, so B = I skips that product
    weight = None if metric.is_identity else metric.mat
    l2_error, l2_se = _moments(np.stack([t.error_sq for t in traces]))
    mean_error = errors.mean(axis=0)
    mean_error_norm_sq = _quadratic_forms(mean_error, weight)

    transformed_mean = transformed_se = initial_transformed = None
    f_mean = f_se = cesaro_f = cesaro_f_se = None
    if reform is not None:
        basis = metric.sqrt @ reform.spectrum.U  # columns B^{1/2} u_i
        w = errors @ basis  # (R, K+1, n)
        transformed_mean, transformed_se = _moments(w)
        initial_transformed = w[0, 0].copy()
        f_samples = 0.5 * _quadratic_forms(errors, reform.expected_Z)
        f_mean, f_se = _moments(f_samples)

    # Running-average iterate: hat_x_k = (1/k) sum_{t<k} x_t, for k >= 1.
    prefix = np.cumsum(errors, axis=1)
    k_idx = np.arange(1, errors.shape[1])
    cesaro_err = prefix[:, :-1, :] / k_idx[None, :, None]
    cesaro_samples = _quadratic_forms(cesaro_err, weight)
    cesaro_error, cesaro_error_se = _from_step_one(cesaro_samples)
    if reform is not None:
        cf = 0.5 * _quadratic_forms(cesaro_err, reform.expected_Z)
        cesaro_f, cesaro_f_se = _from_step_one(cf)

    return MomentEstimates(
        replications=replications,
        mean_error_norm_sq=mean_error_norm_sq,
        transformed_mean=transformed_mean,
        transformed_se=transformed_se,
        l2_error=l2_error,
        l2_se=l2_se,
        f_mean=f_mean,
        f_se=f_se,
        cesaro_error=cesaro_error,
        cesaro_error_se=cesaro_error_se,
        cesaro_f=cesaro_f,
        cesaro_f_se=cesaro_f_se,
        initial_transformed=initial_transformed,
    )


def xi_factor(spectrum: Spectrum, tau: int) -> float:
    """Minibatch variance factor 1/tau + (1 - 1/tau) lambda_max."""
    tau = int(tau)
    return 1.0 / tau + (1.0 - 1.0 / tau) * spectrum.lambda_max


def rho_parallel(spectrum: Spectrum, omega: float, tau: int) -> float:
    """Parallel-method L2 factor 1 - w(2 - w xi(tau)) lambda_min_plus."""
    return 1.0 - omega * (2.0 - omega * xi_factor(spectrum, tau)) * spectrum.lambda_min_plus


@dataclass(frozen=True)
class RatePrediction:
    """Closed-form per-iteration factors for a given (omega, tau, mu).

    ``flags`` marks parameter regimes outside the assumptions of the
    corresponding statements; the factors are still evaluated.
    """

    omega: float
    tau: int
    mu: float | None
    mean_error_factor: float  # ||E e_k||_B^2 per-iteration factor
    l2_upper_factor: float
    l2_lower_factor: float
    parallel_factor: float
    parallel_optimal_omega: float
    parallel_optimal_factor: float
    parallel_limit_factor: float  # tau -> infinity with omega = 1/lambda_max
    f_factor_general: float
    f_factor_under_exactness: float
    accel_factor: float | None
    flags: tuple[str, ...]

    def to_dict(self) -> dict:
        out = asdict(self)
        out["flags"] = list(self.flags)
        if self.mu is None:
            del out["mu"], out["accel_factor"]
        return out


def theoretical_rates(
    spectrum: Spectrum, omega: float, tau: int = 1, mu: float | None = None
) -> RatePrediction:
    """Evaluate every closed-form rate for the given parameters.

    Regimes the statements exclude are flagged, not rejected: the
    caller decides what to do with, say, a stepsize outside
    (0, 2/lambda_max).
    """
    omega = float(omega)
    tau = int(tau)
    lmax = spectrum.lambda_max
    lmin = spectrum.lambda_min_plus
    xi = xi_factor(spectrum, tau)
    flags = []
    if not 0.0 < omega < 2.0 / lmax:
        flags.append("mean-error-divergent")
    if not 0.0 < omega < 2.0:
        flags.append("outside-l2-regime")
    if not 0.0 < omega < 2.0 / xi:
        flags.append("outside-parallel-regime")
    if omega > 2.0 / spectrum.zeta:
        flags.append("outside-f-general-regime")
    accel_factor = None
    if mu is not None:
        mu = float(mu)
        accel_factor = (1.0 - math.sqrt(mu)) ** 2
        if not 0.0 < mu < omega * lmin:
            flags.append("mu-outside-admissible-interval")
        if not 0.0 < omega <= 1.0 / lmax:
            flags.append("omega-outside-accelerated-regime")
    return RatePrediction(
        omega=omega,
        tau=tau,
        mu=mu,
        mean_error_factor=rho_basic(spectrum, omega),
        l2_upper_factor=1.0 - omega * (2.0 - omega) * lmin,
        l2_lower_factor=1.0 - omega * (2.0 - omega) * lmax,
        parallel_factor=rho_parallel(spectrum, omega, tau),
        parallel_optimal_omega=1.0 / xi,
        parallel_optimal_factor=1.0 - lmin / xi,
        parallel_limit_factor=1.0 - 1.0 / spectrum.zeta,
        f_factor_general=1.0 - 2.0 * lmin * omega + lmax * omega * omega,
        f_factor_under_exactness=1.0 - omega * (2.0 - omega) * lmin,
        accel_factor=accel_factor,
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class RateFit:
    """Least-squares geometric rate of a positive series."""

    rate: float
    residual: float  # RMS residual of the log-linear fit
    floored: bool  # True when non-positive entries were floored

    def __float__(self):
        return self.rate


def fit_rate(series, burn_in: int = 0) -> RateFit:
    """Fit series[k] ~ C * rate^k on k >= burn_in, at least MIN_FIT_POINTS of them.

    Entries at or below zero are floored at 1e-300 before taking logs
    (fast runs underflow); the fit is flagged when that happens.
    """
    s = np.asarray(series, dtype=float).reshape(-1)
    burn_in = int(burn_in)
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    need = burn_in + MIN_FIT_POINTS
    if s.size < need:
        raise ValueError(f"need at least burn_in + {MIN_FIT_POINTS} = {need} points, got {s.size}")
    tail = s[burn_in:]
    floored = bool(np.any(tail <= 0.0))
    logs = np.log(np.maximum(tail, LOG_FLOOR))
    k = np.arange(burn_in, s.size, dtype=float)
    slope, intercept = np.polyfit(k, logs, 1)
    fitted = slope * k + intercept
    residual = float(np.sqrt(np.mean((fitted - logs) ** 2)))
    return RateFit(rate=float(np.exp(slope)), residual=residual, floored=floored)


@dataclass(frozen=True)
class RecurrenceSolution:
    """Closed form of xi_{k+1} = E xi_k + F xi_{k-1} with complex roots.

    Roots are alpha +/- i beta with alpha = E/2 and
    beta = sqrt(-E^2 - 4F)/2; then
    xi_k = 2 M^k (C0 cos(theta k) + C1 sin(theta k)) with
    M = sqrt(alpha^2 + beta^2) and theta = atan2(beta, alpha).
    """

    e_coef: float
    f_coef: float
    alpha: float
    beta: float
    modulus: float
    angle: float
    c0: float
    c1: float

    def value(self, k: int) -> float:
        return float(
            2.0
            * self.modulus**k
            * (self.c0 * math.cos(self.angle * k) + self.c1 * math.sin(self.angle * k))
        )


def _closed_form(e_coef: float, f_coef: float, xi0: float, xi1: float) -> RecurrenceSolution:
    disc = e_coef * e_coef + 4.0 * f_coef
    if disc >= 0.0:
        raise ValueError("closed trigonometric form needs complex roots (E^2 + 4F < 0)")
    alpha = e_coef / 2.0
    beta = math.sqrt(-disc) / 2.0
    modulus = math.hypot(alpha, beta)
    angle = math.atan2(beta, alpha)
    c0 = xi0 / 2.0
    c1 = (xi1 / (2.0 * modulus) - c0 * math.cos(angle)) / math.sin(angle)
    return RecurrenceSolution(
        e_coef=e_coef,
        f_coef=f_coef,
        alpha=alpha,
        beta=beta,
        modulus=modulus,
        angle=angle,
        c0=c0,
        c1=c1,
    )


def iterate_recurrence(e_coef: float, f_coef: float, xi0: float, xi1: float, k: int) -> float:
    """Evaluate the two-term recurrence by direct iteration."""
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return float(xi0)
    prev, cur = float(xi0), float(xi1)
    for _ in range(k - 1):
        prev, cur = cur, e_coef * cur + f_coef * prev
    return cur


def solve_recurrence(e_coef: float, f_coef: float, xi0: float, xi1: float, k: int) -> float:
    """Value xi_k of the two-term recurrence.

    Uses the closed trigonometric form when the characteristic roots
    are complex (E^2 + 4F < 0) and direct iteration otherwise.
    """
    disc = float(e_coef) ** 2 + 4.0 * float(f_coef)
    if disc < 0.0:
        return _closed_form(float(e_coef), float(f_coef), float(xi0), float(xi1)).value(int(k))
    return iterate_recurrence(e_coef, f_coef, xi0, xi1, k)


def expected_mean_error(
    reform: Reformulation,
    omega: float,
    iterations: int,
    x0=None,
    *,
    method: str = "basic",
    gamma: float | None = None,
) -> np.ndarray:
    """Exact trajectory of ||E[x_k - x*]||_B for the basic or accelerated method.

    Iterates the deterministic mean recursions driven by
    M = I - w B^{-1} E[Z]: the basic mean error satisfies
    r_{k+1} = M r_k and the accelerated one
    r_{k+1} = gamma M r_k + (1 - gamma) M r_{k-1} (with x_1 = x_0).
    The anchor is x* = proj(x_0).
    """
    problem = reform.problem
    x_init = np.zeros(problem.n) if x0 is None else _as_vector(x0, problem.n)
    anchor = problem.project(x_init)
    r = x_init - anchor
    m_op = np.eye(problem.n) - float(omega) * (problem.metric.inv @ reform.expected_Z)
    norms = np.empty(int(iterations) + 1)
    metric = problem.metric
    norms[0] = metric.norm(r)
    if method == "basic":
        cur = r.copy()
        for k in range(1, int(iterations) + 1):
            cur = m_op @ cur
            norms[k] = metric.norm(cur)
        return norms
    if method == "accelerated":
        if gamma is None:
            raise ValueError("accelerated mean recursion needs gamma")
        prev = r.copy()
        cur = r.copy()
        norms[1] = metric.norm(cur)
        for k in range(2, int(iterations) + 1):
            nxt = gamma * (m_op @ cur) + (1.0 - gamma) * (m_op @ prev)
            prev, cur = cur, nxt
            norms[k] = metric.norm(cur)
        return norms
    raise ValueError(f"unknown method {method!r}")
