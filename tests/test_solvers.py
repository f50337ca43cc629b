import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sketchsolve import solvers
from sketchsolve.linalg import Problem, SpdMatrix, _symmetrize, pseudoinverse
from sketchsolve.reformulation import build_reformulation, sketched_projection, sketched_system
from sketchsolve.sketching import (
    Block,
    CountSketch,
    FixedIdentity,
    Gaussian,
    SketchSample,
    kaczmarz_distribution,
    stream,
)
from sketchsolve.solvers import (
    SolverConfig,
    Workspace,
    _stack_sketches,
    acceleration_parameters,
    basic_step,
    parallel_step,
    pathwise_residuals,
    prox_step,
    run_accelerated,
    run_basic,
    run_parallel,
    run_trajectories,
    stepsize_policy,
)


def column(m, i):
    return SketchSample(cols=(i,), m=m)


def reference_problem():
    return Problem(np.diag([1.0, 2.0]), [1.0, 2.0])


def reference_spectrum():
    problem = reference_problem()
    return build_reformulation(problem, kaczmarz_distribution(problem.A)).spectrum


def random_problem(rng, weighted=True):
    m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    a = rng.standard_normal((m, n))
    if weighted:
        g = rng.standard_normal((n, n))
        metric = SpdMatrix(g @ g.T + 2 * np.eye(n))
    else:
        metric = SpdMatrix.identity(n)
    return Problem(a, a @ rng.standard_normal(n), metric)


class TestBasicStep:
    def test_solution_is_fixed_point(self):
        rng = stream(41, 0)
        problem = random_problem(rng)
        s = SketchSample(rng.standard_normal((problem.m, 2)))
        out = basic_step(problem, problem.min_norm_solution, s, 1.3)
        assert np.abs(out - problem.min_norm_solution).max() <= 1e-9

    def test_identity_sketch_projects(self):
        rng = stream(42, 0)
        problem = random_problem(rng)
        x = rng.standard_normal(problem.n)
        out = basic_step(problem, x, FixedIdentity(problem.m).sample(rng), 1.0)
        assert np.abs(out - problem.project(x)).max() <= 1e-9

    def test_row_update(self):
        problem = reference_problem()
        out = basic_step(problem, np.zeros(2), column(2, 1), 1.0)
        assert np.allclose(out, [0.0, 1.0])

    def test_matches_sgd_form(self):
        rng = stream(43, 0)
        for _ in range(20):
            problem = random_problem(rng)
            s = SketchSample(rng.standard_normal((problem.m, 2)))
            sys = sketched_system(problem.A, problem.b, problem.metric, s)
            x = rng.standard_normal(problem.n)
            omega = float(rng.uniform(0.2, 1.9))
            from sketchsolve.reformulation import stochastic_gradient

            expected = x - omega * stochastic_gradient(sys, x)
            assert np.abs(basic_step(problem, x, s, omega) - expected).max() <= 1e-9


class TestGeneralStep:
    @staticmethod
    def dense_step(problem, x, sketch, omega):
        s = sketch.matrix
        v = problem.metric.inv @ problem.A.T @ s
        gram = _symmetrize(s.T @ (problem.A @ v))
        y = s.T @ (problem.A @ x - problem.b)
        u = pseudoinverse(gram) @ y
        return x - omega * (v @ u), 0.5 * float(y @ u)

    def test_gathered_step_matches_dense_matrix_step(self):
        # index-set sketches gather rows and drop signs; the dense S gives the same step
        rng = stream(56, 0)
        for _ in range(30):
            problem = random_problem(rng)
            ws = Workspace(problem)
            x = rng.standard_normal(problem.n)
            q = min(3, problem.m)
            for dist in (CountSketch(problem.m, 3), Block(problem.m, q), Block(problem.m, q, True)):
                sketch = dist.sample(rng)
                assert sketch.cols is not None
                omega = float(rng.uniform(0.2, 1.9))
                (x_next,), (loss,) = ws.general_step(x[None], _stack_sketches([[sketch]]), omega)
                x_next, loss = x_next[0], loss[0]
                dense_next, dense_loss = self.dense_step(problem, x, sketch, omega)
                scale = max(np.linalg.norm(x), np.linalg.norm(dense_next))
                assert np.linalg.norm(x_next - dense_next) <= 1e-12 * scale
                assert abs(loss - dense_loss) <= 1e-12 * max(abs(dense_loss), 1e-300)

    def test_stacked_rows_and_groups_match_dense_steps(self):
        # R = 2 rows, each averaging a group of tau = 2 sketches, against one dense step per sketch
        rng = stream(57, 0)
        for _ in range(20):
            problem = random_problem(rng)
            ws = Workspace(problem)
            x = rng.standard_normal((2, problem.n))
            m = problem.m
            q = min(3, m)
            for dist in (CountSketch(m, 3), CountSketch(m, 1), Block(m, q), Gaussian(m, 2)):
                groups = [[dist.sample(rng) for _ in range(2)] for _ in range(2)]
                omega = float(rng.uniform(0.2, 1.9))
                (x_next,), (loss,) = ws.general_step(x, _stack_sketches(groups), omega)
                assert x_next.shape == x.shape and loss.shape == (2,)
                for r, group in enumerate(groups):
                    steps = [self.dense_step(problem, x[r], sketch, omega) for sketch in group]
                    dense_next, dense_loss = (steps[0][0] + steps[1][0]) / 2, steps[0][1]
                    scale = max(np.linalg.norm(x[r]), np.linalg.norm(dense_next))
                    assert np.linalg.norm(x_next[r] - dense_next) <= 1e-12 * scale
                    assert abs(loss[r] - dense_loss) <= 1e-12 * max(abs(dense_loss), 1e-300)

    def test_mixed_groups_rejected(self):
        problem = random_problem(stream(58, 0))
        ws = Workspace(problem)
        x = np.zeros((1, problem.n))
        index = SketchSample(cols=(0, 1), m=problem.m)
        for other in (SketchSample(cols=(0,), m=problem.m), SketchSample(index.matrix.copy())):
            with pytest.raises(ValueError):
                _stack_sketches([[index, other]])
        with pytest.raises(ValueError):  # groups of different sizes
            _stack_sketches([[index], [index, index]])


class TestRunBasic:
    def test_zero_stepsize_is_constant(self):
        problem = reference_problem()
        dist = kaczmarz_distribution(problem.A)
        cfg = SolverConfig(omega=0.0, max_iters=8, master_seed=1, record=("error_sq", "iterates"))
        trace = run_basic(problem, dist, cfg, x0=np.array([3.0, -1.0]))
        assert np.all(trace.iterates == trace.iterates[0])

    def test_unit_stepsize_monotone(self):
        rng = stream(44, 0)
        for omega in (0.5, 1.0, 1.5):
            problem = random_problem(rng)
            dist = kaczmarz_distribution(problem.A)
            cfg = SolverConfig(omega=omega, max_iters=40, master_seed=7)
            trace = run_basic(problem, dist, cfg, x0=rng.standard_normal(problem.n))
            assert np.all(np.diff(trace.error_sq) <= 1e-12)

    def test_pathwise_identities(self):
        rng = stream(45, 0)
        for omega in (0.0, 0.5, 1.0, 1.7, 2.0, 2.6):
            problem = random_problem(rng)
            dist = kaczmarz_distribution(problem.A)
            cfg = SolverConfig(omega=omega, max_iters=30, master_seed=9)
            trace = run_basic(problem, dist, cfg, x0=rng.standard_normal(problem.n))
            dec, step = pathwise_residuals(trace)
            assert dec <= 1e-9
            assert step <= 1e-9

    def test_pathwise_identities_general_sketches(self):
        rng = stream(46, 0)
        problem = random_problem(rng)
        for dist in (Block(problem.m, min(2, problem.m)), Gaussian(problem.m, 2)):
            cfg = SolverConfig(omega=1.2, max_iters=25, master_seed=11)
            trace = run_basic(problem, dist, cfg, x0=rng.standard_normal(problem.n))
            dec, step = pathwise_residuals(trace)
            assert dec <= 1e-9
            assert step <= 1e-9

    def test_deterministic_given_seed(self):
        problem = reference_problem()
        dist = kaczmarz_distribution(problem.A)
        cfg = SolverConfig(omega=1.0, max_iters=20, master_seed=123, record=("error_sq", "iterates"))
        a = run_basic(problem, dist, cfg, x0=np.array([5.0, 5.0]))
        b = run_basic(problem, dist, cfg, x0=np.array([5.0, 5.0]))
        assert np.array_equal(a.iterates, b.iterates)

    def test_early_stop_flags_convergence(self):
        problem = reference_problem()
        cfg = SolverConfig(omega=1.0, max_iters=5, master_seed=3, tol=1e-12)
        trace = run_basic(problem, FixedIdentity(2), cfg, x0=np.array([4.0, 4.0]))
        assert trace.converged is True
        assert len(trace.error_sq) <= 3

    def test_budget_exhaustion_flags_not_converged(self):
        problem = reference_problem()
        dist = kaczmarz_distribution(problem.A)
        cfg = SolverConfig(omega=0.5, max_iters=3, master_seed=3, tol=1e-14)
        trace = run_basic(problem, dist, cfg, x0=np.array([4.0, 4.0]))
        assert trace.converged is False


class TestParallel:
    def test_single_sketch_matches_basic(self):
        rng = stream(47, 0)
        problem = random_problem(rng)
        s = SketchSample(rng.standard_normal((problem.m, 2)))
        x = rng.standard_normal(problem.n)
        assert np.allclose(parallel_step(problem, x, [s], 1.3), basic_step(problem, x, s, 1.3))

    def test_identical_sketches_match_basic(self):
        rng = stream(48, 0)
        problem = random_problem(rng)
        s = SketchSample(rng.standard_normal((problem.m, 1)))
        x = rng.standard_normal(problem.n)
        out = parallel_step(problem, x, [s, s, s], 0.9)
        assert np.abs(out - basic_step(problem, x, s, 0.9)).max() <= 1e-12

    def test_two_row_average(self):
        problem = reference_problem()
        out = parallel_step(problem, np.zeros(2), [column(2, 0), column(2, 1)], 1.0)
        assert np.allclose(out, [0.5, 0.5])

    def test_tau_one_trace_equals_basic(self):
        problem = reference_problem()
        dist = kaczmarz_distribution(problem.A)
        kwargs = dict(x0=np.array([2.0, -3.0]))
        cfg = SolverConfig(omega=1.0, max_iters=15, master_seed=77, record=("error_sq", "iterates"))
        basic = run_basic(problem, dist, cfg, **kwargs)
        par = run_parallel(problem, dist, cfg, **kwargs)
        assert np.array_equal(basic.iterates, par.iterates)

    def test_tau_one_trace_equals_basic_general_dist(self):
        rng = stream(49, 0)
        problem = random_problem(rng)
        dist = Gaussian(problem.m, 2)
        cfg = SolverConfig(omega=1.1, max_iters=10, master_seed=5, record=("error_sq", "iterates"))
        basic = run_basic(problem, dist, cfg, x0=np.zeros(problem.n))
        par = run_parallel(problem, dist, cfg, x0=np.zeros(problem.n))
        assert np.array_equal(basic.iterates, par.iterates)

    def test_deterministic_across_runs(self):
        problem = reference_problem()
        dist = kaczmarz_distribution(problem.A)
        cfg = SolverConfig(omega=1.0, tau=4, max_iters=12, master_seed=31, record=("error_sq", "iterates"))
        a = run_parallel(problem, dist, cfg, x0=np.array([1.0, -1.0]))
        b = run_parallel(problem, dist, cfg, x0=np.array([1.0, -1.0]))
        assert np.array_equal(a.iterates, b.iterates)

    def test_vectorized_coordinate_path_matches_stepwise(self):
        # the coordinate fast path must agree with explicit averaging
        problem = reference_problem()
        dist = kaczmarz_distribution(problem.A)
        tau, iters = 3, 6
        cfg = SolverConfig(omega=1.0, tau=tau, max_iters=iters, master_seed=13, record=("error_sq", "iterates"))
        fast = run_parallel(problem, dist, cfg, x0=np.array([2.0, 2.0]))
        gens = [stream(13, 202, 0, i) for i in range(tau)]
        rows = np.stack([dist.sample_indices(g, iters) for g in gens])
        x = np.array([2.0, 2.0])
        for k in range(iters):
            x = parallel_step(problem, x, [column(2, int(r)) for r in rows[:, k]], 1.0)
        assert np.abs(fast.iterates[-1] - x).max() <= 1e-12


class TestProx:
    def test_matches_basic_step(self):
        rng = stream(50, 0)
        for _ in range(40):
            problem = random_problem(rng)
            q = int(rng.integers(1, 3))
            s = SketchSample(rng.standard_normal((problem.m, q)))
            x = rng.standard_normal(problem.n)
            for omega in (0.1, 0.5, 0.9, 1.0):
                direct = basic_step(problem, x, s, omega)
                prox = prox_step(problem, x, s, omega)
                assert np.linalg.norm(direct - prox) <= 1e-8 * max(1.0, np.linalg.norm(direct))

    def test_unit_stepsize_is_projection(self):
        rng = stream(51, 0)
        problem = random_problem(rng)
        s = SketchSample(rng.standard_normal((problem.m, 1)))
        sys = sketched_system(problem.A, problem.b, problem.metric, s)
        x = rng.standard_normal(problem.n)
        assert np.allclose(prox_step(problem, x, s, 1.0), sketched_projection(sys, x))

    def test_unit_stepsize_is_computed_apart_from_the_step_kernel(self, monkeypatch):
        # proximal equivalence at omega = 1 compares two computations, not basic_step with itself
        rng = stream(52, 0)
        problem = random_problem(rng)
        s = SketchSample(rng.standard_normal((problem.m, 2)))
        x = rng.standard_normal(problem.n)
        direct = basic_step(problem, x, s, 1.0)

        def no_kernel(*args):
            raise AssertionError("prox_step reached the step kernel")

        monkeypatch.setattr(solvers, "basic_step", no_kernel)
        monkeypatch.setattr(solvers, "workspace", no_kernel)
        assert np.linalg.norm(prox_step(problem, x, s, 1.0) - direct) <= 1e-10 * max(1.0, np.linalg.norm(direct))

    def test_small_stepsize_stays_near_start(self):
        rng = stream(52, 0)
        problem = random_problem(rng)
        s = SketchSample(rng.standard_normal((problem.m, 1)))
        x = rng.standard_normal(problem.n)
        out = prox_step(problem, x, s, 1e-8)
        assert np.linalg.norm(out - x) <= 1e-6

    def test_rejects_bad_omega(self):
        problem = reference_problem()
        with pytest.raises(ValueError):
            prox_step(problem, np.zeros(2), column(2, 0), 0.0)
        with pytest.raises(ValueError):
            prox_step(problem, np.zeros(2), column(2, 0), 1.5)


class TestAccelerated:
    def test_gamma_one_reduces_to_basic(self):
        rng = stream(53, 0)
        problem = random_problem(rng)
        dist = Gaussian(problem.m, 1)
        draws = [dist.sample(rng) for _ in range(12)]
        x0 = rng.standard_normal(problem.n)
        x0 = problem.project(x0) + problem.metric.inv @ problem.A.T @ rng.standard_normal(problem.m)
        acc_cfg = SolverConfig(omega=1.0, gamma=1.0, max_iters=12, master_seed=0, record=("error_sq", "iterates"))
        acc = run_accelerated(problem, dist, acc_cfg, x0=x0, samples=draws)
        basic_cfg = SolverConfig(omega=1.0, max_iters=11, master_seed=0, record=("error_sq", "iterates"))
        basic = run_basic(problem, dist, basic_cfg, x0=x0, samples=draws[1:])
        assert np.abs(acc.iterates[1:] - basic.iterates).max() <= 1e-12

    def test_range_condition_rejected(self):
        problem = Problem(np.array([[1.0, 0.0]]), [1.0])
        dist = kaczmarz_distribution(problem.A)
        cfg = SolverConfig(omega=1.0, gamma=1.5, max_iters=5, master_seed=2)
        with pytest.raises(ValueError):
            run_accelerated(problem, dist, cfg, x0=np.zeros(2), x1=np.array([0.0, 1.0]))

    def test_valid_start_pair_accepted(self):
        problem = Problem(np.array([[1.0, 0.0]]), [1.0])
        dist = kaczmarz_distribution(problem.A)
        cfg = SolverConfig(omega=1.0, gamma=1.5, max_iters=5, master_seed=2)
        trace = run_accelerated(problem, dist, cfg, x0=np.zeros(2), x1=np.array([0.5, 0.0]))
        assert len(trace.error_sq) == 6

    def test_needs_gamma(self):
        problem = reference_problem()
        dist = kaczmarz_distribution(problem.A)
        cfg = SolverConfig(omega=1.0, max_iters=5, master_seed=2)
        with pytest.raises(ValueError, match="accelerated method needs gamma"):
            run_accelerated(problem, dist, cfg)

    def test_mu_sets_gamma(self):
        spectrum = reference_spectrum()
        gamma, mu = acceleration_parameters(spectrum, 1.0, mu=0.198)
        assert mu == 0.198
        assert gamma == pytest.approx(2.0 / (1.0 + np.sqrt(0.198)))

    def test_gamma_bits_equal_the_closed_form_on_both_paths(self):
        spectrum = reference_spectrum()
        given = acceleration_parameters(spectrum, 1.0, mu=0.198)[0]
        auto_gamma, auto_mu = acceleration_parameters(spectrum, 1.25)
        for gamma, mu in ((given, 0.198), (auto_gamma, auto_mu)):
            assert np.float64(gamma).tobytes() == np.float64(2.0 / (1.0 + np.sqrt(mu))).tobytes()
        assert auto_mu == 0.99 * 1.25 * spectrum.lambda_min_plus

    @pytest.mark.parametrize("mu", [0.0, 1.0, -0.5, 1.5])
    def test_given_mu_outside_unit_interval_rejected(self, mu):
        spectrum = reference_spectrum()
        with pytest.raises(ValueError, match="mu must lie in"):
            acceleration_parameters(spectrum, 1.0, mu=mu)

    def test_converges_on_reference(self):
        problem = reference_problem()
        dist = kaczmarz_distribution(problem.A)
        reform = build_reformulation(problem, dist)
        omega = 1.0 / reform.spectrum.lambda_max
        gamma, _ = acceleration_parameters(reform.spectrum, omega)
        cfg = SolverConfig(omega=omega, gamma=gamma, max_iters=120, master_seed=4)
        trace = run_accelerated(problem, dist, cfg, x0=np.array([9.0, -7.0]))
        # single trajectories fluctuate (only the mean error has a proved
        # rate), so only ask for a comfortable relative reduction
        assert trace.error_sq[-1] <= 1e-6 * trace.error_sq[0]


class TestTrajectoryEngine:
    def test_rows_equal_single_replication_runs(self):
        rng = stream(57, 0)
        problem = random_problem(rng)
        x0 = rng.standard_normal(problem.n)
        runners = {"basic": run_basic, "parallel": run_parallel, "accelerated": run_accelerated}
        for dist in (kaczmarz_distribution(problem.A), Gaussian(problem.m, 2)):
            for method, runner in runners.items():
                cfg = SolverConfig(
                    omega=0.9, tau=3, gamma=1.2, max_iters=12, master_seed=8, record=("error_sq", "iterates")
                )
                batch = run_trajectories(problem, dist, cfg, method, range(4), x0=x0)
                for r, trace in enumerate(batch):
                    single = runner(problem, dist, cfg, x0=x0, replication=r)
                    assert np.array_equal(trace.iterates, single.iterates)
                    # the batch takes B-norms of all rows in one product
                    assert np.allclose(trace.error_sq, single.error_sq, rtol=1e-13, atol=0.0)
                    assert trace.seed_key == single.seed_key

    def test_unknown_method_rejected(self):
        problem = reference_problem()
        cfg = SolverConfig(omega=1.0, max_iters=3, master_seed=1)
        with pytest.raises(ValueError):
            run_trajectories(problem, FixedIdentity(2), cfg, "heavy-ball")

    def test_samples_drive_one_replication_only(self):
        problem = reference_problem()
        cfg = SolverConfig(omega=1.0, max_iters=2, master_seed=1)
        with pytest.raises(ValueError):
            run_trajectories(problem, FixedIdentity(2), cfg, replications=range(2), samples=[column(2, 0)] * 2)

    def test_accelerated_honours_tol(self):
        problem = reference_problem()
        dist = kaczmarz_distribution(problem.A)
        reform = build_reformulation(problem, dist)
        omega = 1.0 / reform.spectrum.lambda_max
        gamma, _ = acceleration_parameters(reform.spectrum, omega)
        cfg = SolverConfig(omega=omega, gamma=gamma, max_iters=500, master_seed=4, tol=1e-6)
        trace = run_accelerated(problem, dist, cfg, x0=np.array([9.0, -7.0]))
        assert trace.converged is True
        assert len(trace.error_sq) < 501
        assert np.sqrt(trace.error_sq[-1]) <= 1e-6 < np.sqrt(trace.error_sq[-2])

    def test_accelerated_budget_exhaustion_flags_not_converged(self):
        problem = reference_problem()
        dist = kaczmarz_distribution(problem.A)
        cfg = SolverConfig(omega=1.0, gamma=1.5, max_iters=3, master_seed=3, tol=1e-14)
        trace = run_accelerated(problem, dist, cfg, x0=np.array([4.0, 4.0]))
        assert trace.converged is False
        assert len(trace.error_sq) == 4

    def test_divergent_run_flags_first_non_finite_error(self):
        problem = reference_problem()
        dist = kaczmarz_distribution(problem.A)
        cfg = SolverConfig(omega=3.0, max_iters=2000, master_seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow is silenced, not reported per step
            trace = run_basic(problem, dist, cfg)
        k = trace.diverged_at
        assert k is not None and k > 0
        assert np.all(np.isfinite(trace.error_sq[:k]))
        assert not np.isfinite(trace.error_sq[k])
        assert len(trace.error_sq) == 2001
        assert run_basic(problem, dist, replace(cfg, omega=1.0)).diverged_at is None


    @pytest.mark.parametrize(
        "omega, iters, tol, covers",
        [
            (3.0, 640, 1e-3, lambda traces: {t.diverged_at is None for t in traces} == {True, False}),
            (1e100, 6, 1e-3, lambda traces: all(np.isnan(t.error_sq[-1]) for t in traces)),
            (1.0, 3, 1e-12, lambda traces: {t.converged for t in traces} == {True, False}),
        ],
        ids=["some-rows-overflow", "nan-errors", "some-rows-converge"],
    )
    def test_flags_equal_row_by_row_rule(self, omega, iters, tol, covers):
        problem = reference_problem()
        dist = kaczmarz_distribution(problem.A)
        cfg = SolverConfig(omega=omega, max_iters=iters, master_seed=1, tol=tol)
        traces = run_trajectories(problem, dist, cfg, "basic", range(8))
        assert covers(traces)
        for trace in traces:
            e = trace.error_sq
            finite = np.isfinite(e)
            assert trace.diverged_at == (None if finite.all() else int(np.argmin(finite)))
            assert trace.converged is (math.sqrt(max(float(e[-1]), 0.0)) <= tol)


class TestStepsizePolicy:
    def test_reference_values(self):
        problem = reference_problem()
        reform = build_reformulation(problem, kaczmarz_distribution(problem.A))
        assert stepsize_policy(reform.spectrum, "unit") == 1.0
        assert stepsize_policy(reform.spectrum, "inverse-lambda-max") == pytest.approx(1.25)
        assert stepsize_policy(reform.spectrum, "optimal") == pytest.approx(2.0, abs=1e-12)

    def test_unknown_policy(self):
        problem = reference_problem()
        reform = build_reformulation(problem, kaczmarz_distribution(problem.A))
        with pytest.raises(ValueError):
            stepsize_policy(reform.spectrum, "bogus")
