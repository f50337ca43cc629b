import numpy as np
import pytest

from sketchsolve.analysis import (
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
from sketchsolve.linalg import Problem
from sketchsolve.reformulation import build_reformulation
from sketchsolve.sketching import FixedIdentity, kaczmarz_distribution, stream
from sketchsolve.solvers import SolverConfig


def reference_reformulation():
    problem = Problem(np.diag([1.0, 2.0]), [1.0, 2.0])
    return problem, build_reformulation(problem, kaczmarz_distribution(problem.A))


class TestFitRate:
    def test_exact_geometric(self):
        series = 0.64 ** np.arange(40)
        fit = fit_rate(series)
        assert abs(fit.rate - 0.64) <= 1e-10
        assert fit.residual <= 1e-10

    def test_constant_series(self):
        assert fit_rate(np.ones(10)).rate == pytest.approx(1.0, abs=1e-12)

    def test_burn_in(self):
        series = np.concatenate([[100.0, 50.0], 0.5 ** np.arange(20)])
        assert fit_rate(series, burn_in=2).rate == pytest.approx(0.5, abs=1e-10)

    def test_floors_nonpositive(self):
        series = np.array([1.0, 0.5, 0.25, 0.0, 0.0, 0.0])
        fit = fit_rate(series)
        assert fit.floored

    def test_too_short(self):
        with pytest.raises(ValueError):
            fit_rate([1.0, 0.5, 0.25], burn_in=0)


class TestRecurrence:
    def test_period_four(self):
        # E=0, F=-1 rotates with period 4: 1, 0, -1, 0, ...
        expected = [1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0]
        for k, value in enumerate(expected):
            assert solve_recurrence(0.0, -1.0, 1.0, 0.0, k) == pytest.approx(value, abs=1e-12)

    def test_one_term_fallback(self):
        # F=0 degenerates to xi_k = E^{k-1} xi_1
        for k in range(1, 8):
            assert solve_recurrence(0.7, 0.0, 3.0, 2.0, k) == pytest.approx(2.0 * 0.7 ** (k - 1))

    def test_closed_form_matches_iteration(self):
        rng = stream(61, 0)
        worst = 0.0
        for _ in range(1000):
            e_coef = float(rng.uniform(-1.8, 1.8))
            f_coef = float(rng.uniform(-0.999, -e_coef * e_coef / 4.0 - 1e-3))
            xi0, xi1 = (float(v) for v in rng.standard_normal(2))
            k = int(rng.integers(0, 201))
            direct = iterate_recurrence(e_coef, f_coef, xi0, xi1, k)
            closed = solve_recurrence(e_coef, f_coef, xi0, xi1, k)
            worst = max(worst, abs(direct - closed) / max(1.0, abs(direct)))
        assert worst <= 1e-9

    def test_accelerated_coefficients_envelope(self):
        # coefficients induced by one eigenvalue of the accelerated mean
        # recursion stay under the 2(1-sqrt(mu))^k (|C0|+|C1|) envelope
        lam, omega = 0.2, 1.0
        mu = 0.99 * omega * lam
        gamma = 2.0 / (1.0 + np.sqrt(mu))
        e_coef = gamma * (1.0 - omega * lam)
        f_coef = (1.0 - gamma) * (1.0 - omega * lam)
        assert e_coef**2 + 4.0 * f_coef < 0.0
        from sketchsolve.analysis import _closed_form

        sol = _closed_form(e_coef, f_coef, 1.0, 1.0)
        bound = 2.0 * (abs(sol.c0) + abs(sol.c1))
        for k in range(0, 120):
            value = iterate_recurrence(e_coef, f_coef, 1.0, 1.0, k)
            assert abs(value) <= bound * (1.0 - np.sqrt(mu)) ** k * (1.0 + 1e-9)


class TestTheoreticalRates:
    def test_reference_mean_error_factors(self):
        _, reform = reference_reformulation()
        spec = reform.spectrum
        assert rho_basic(spec, 1.0) == pytest.approx(0.64, abs=1e-12)
        assert rho_basic(spec, 2.0) == pytest.approx(0.36, abs=1e-12)
        assert rho_basic(spec, 1.25) == pytest.approx(0.5625, abs=1e-12)

    def test_reference_parallel_factors(self):
        _, reform = reference_reformulation()
        spec = reform.spectrum
        assert xi_factor(spec, 2) == pytest.approx(0.9, abs=1e-12)
        rates = theoretical_rates(spec, 1.0 / 0.9, tau=2)
        assert rates.parallel_optimal_omega == pytest.approx(1.0 / 0.9, abs=1e-12)
        assert rates.parallel_optimal_factor == pytest.approx(1.0 - 0.2 / 0.9, abs=1e-12)
        assert rates.parallel_limit_factor == pytest.approx(0.75, abs=1e-12)
        assert rho_parallel(spec, 1.0 / 0.9, 2) == pytest.approx(1.0 - 0.2 / 0.9, abs=1e-12)

    def test_acceleration_factor(self):
        _, reform = reference_reformulation()
        mu = 0.99 * 0.2
        rates = theoretical_rates(reform.spectrum, 1.0, mu=mu)
        assert rates.accel_factor == pytest.approx((1.0 - np.sqrt(mu)) ** 2, abs=1e-12)

    def test_flags(self):
        _, reform = reference_reformulation()
        assert "mean-error-divergent" in theoretical_rates(reform.spectrum, 2.6).flags
        assert "mean-error-divergent" not in theoretical_rates(reform.spectrum, 1.0).flags
        bad_mu = theoretical_rates(reform.spectrum, 1.0, mu=0.5)
        assert "mu-outside-admissible-interval" in bad_mu.flags

    def test_optimal_omega_minimizes_on_grid(self):
        _, reform = reference_reformulation()
        spec = reform.spectrum
        omega_star = 2.0 / (spec.lambda_min_plus + spec.lambda_max)
        grid = np.linspace(1e-6, 2.0 / spec.lambda_max - 1e-6, 1000)
        values = [rho_basic(spec, w) for w in grid]
        assert abs(grid[int(np.argmin(values))] - omega_star) <= grid[1] - grid[0]
        assert min(values) >= rho_basic(spec, omega_star) - 1e-12


class TestMonteCarloMoments:
    def test_zero_stepsize_constant(self):
        problem, reform = reference_reformulation()
        cfg = SolverConfig(omega=0.0, max_iters=5, master_seed=2)
        moments = monte_carlo_moments(problem, reform.dist, cfg, 5, 5, reform=reform)
        assert np.allclose(moments.l2_error, moments.l2_error[0])
        assert np.allclose(moments.f_mean, moments.f_mean[0])

    def test_identity_sketch_one_step(self):
        problem, _ = reference_reformulation()
        cfg = SolverConfig(omega=1.0, max_iters=4, master_seed=2)
        moments = monte_carlo_moments(problem, FixedIdentity(2), cfg, 3, 4, x0=np.array([5.0, 5.0]))
        assert np.all(moments.l2_error[1:] <= 1e-12)

    def test_two_calls_give_identical_results(self):
        problem, reform = reference_reformulation()
        cfg = SolverConfig(omega=1.0, max_iters=10, master_seed=5)
        kwargs = dict(reform=reform, x0=np.array([3.0, -2.0]))
        a = monte_carlo_moments(problem, reform.dist, cfg, 50, 10, **kwargs)
        b = monte_carlo_moments(problem, reform.dist, cfg, 50, 10, **kwargs)
        assert np.array_equal(a.l2_error, b.l2_error)
        assert np.array_equal(a.transformed_mean, b.transformed_mean)
        assert np.array_equal(a.cesaro_error, b.cesaro_error, equal_nan=True)

    def test_jensen_consistency(self):
        problem, reform = reference_reformulation()
        cfg = SolverConfig(omega=1.0, max_iters=15, master_seed=6)
        moments = monte_carlo_moments(
            problem, reform.dist, cfg, 200, 15, reform=reform, x0=np.array([4.0, 1.0])
        )
        assert moments.jensen_gap() <= 1e-12

    def test_transformed_components_track_prediction(self):
        problem, reform = reference_reformulation()
        omega = 1.0
        replications = 1500
        cfg = SolverConfig(omega=omega, max_iters=12, master_seed=7)
        moments = monte_carlo_moments(
            problem, reform.dist, cfg, replications, 12, reform=reform, x0=np.array([0.0, 0.0])
        )
        lam = reform.spectrum.lambdas_raw
        k = np.arange(13)[:, None]
        predicted = (1.0 - omega * lam[None, :]) ** k * moments.initial_transformed[None, :]
        # components are pathwise bounded by the initial weighted norm, so
        # means below ~bound/R are invisible to R replications; floor the
        # tolerance at that resolution
        floor = 5.0 * np.sqrt(moments.l2_error[0]) / replications
        gap = np.abs(moments.transformed_mean - predicted) - 4.0 * moments.transformed_se - floor
        assert gap.max() <= 1e-12


class TestExpectedMeanError:
    def test_basic_matches_eigen_formula(self):
        problem, reform = reference_reformulation()
        omega = 1.25
        x0 = np.array([-2.0, 3.0])
        norms = expected_mean_error(reform, omega, 10, x0=x0)
        anchor = problem.project(x0)
        w0 = reform.spectrum.U.T @ problem.metric.sqrt @ (x0 - anchor)
        lam = reform.spectrum.lambdas_raw
        for k in range(11):
            expected = np.sqrt(np.sum(((1 - omega * lam) ** k * w0) ** 2))
            assert norms[k] == pytest.approx(expected, abs=1e-12)

    def test_accelerated_matches_componentwise_recurrence(self):
        problem, reform = reference_reformulation()
        omega = 1.25
        mu = 0.99 * omega * reform.spectrum.lambda_min_plus
        gamma = 2.0 / (1.0 + np.sqrt(mu))
        x0 = np.array([2.0, -1.0])
        norms = expected_mean_error(reform, omega, 15, x0=x0, method="accelerated", gamma=gamma)
        anchor = problem.project(x0)
        w0 = reform.spectrum.U.T @ problem.metric.sqrt @ (x0 - anchor)
        lam = reform.spectrum.lambdas_raw
        for k in range(15):
            comps = [
                iterate_recurrence(
                    gamma * (1 - omega * lam[i]), (1 - gamma) * (1 - omega * lam[i]),
                    w0[i], w0[i], k,
                )
                for i in range(2)
            ]
            assert norms[k] == pytest.approx(np.hypot(*comps), abs=1e-10)
