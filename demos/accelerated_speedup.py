"""Acceleration on an ill-conditioned system: zeta vs sqrt(zeta).

With stepsize w = 1/lambda_max the basic method needs on the order of
zeta iterations to shrink the expected error by a fixed factor; the
two-step accelerated method with mu just under w * lambda_min_plus and
gamma = 2/(1 + sqrt(mu)) needs on the order of sqrt(zeta). This script
builds diagonal problems of growing condition number under
squared-row-norm sampling, computes both mean-error trajectories from
the exact expectation recursions, and reports iterations to reach 1e-4
of the initial error. A short Monte Carlo run confirms the simulated
accelerated method tracks the recursion.
"""

import numpy as np

from sketchsolve import (
    Problem,
    SolverConfig,
    acceleration_parameters,
    build_reformulation,
    diagonal_problem,
    expected_mean_error,
    kaczmarz_distribution,
    monte_carlo_moments,
    stream,
)


def crossing(norms, threshold):
    below = np.maximum.accumulate(norms[::-1])[::-1] <= threshold
    hits = np.where(below)[0]
    return int(hits[0]) if hits.size else None


def main():
    print("zeta      basic  accelerated  speedup  sqrt(zeta)")
    for condition in (100.0, 1000.0, 10000.0):
        a, b, metric, _ = diagonal_problem(size=20, condition=condition)
        problem = Problem(a, b, metric)
        reform = build_reformulation(problem, kaczmarz_distribution(a))
        spec = reform.spectrum
        omega = 1.0 / spec.lambda_max
        gamma, _ = acceleration_parameters(spec, omega, mu=0.99 / spec.zeta)
        x0 = problem.min_norm_solution + stream(1, 0).standard_normal(problem.n)
        basic = expected_mean_error(reform, omega, int(20 * condition), x0=x0)
        accel = expected_mean_error(
            reform, omega, int(40 * np.sqrt(condition)) + 200, x0=x0,
            method="accelerated", gamma=gamma,
        )
        k_basic = crossing(basic, 1e-4 * basic[0])
        k_accel = crossing(accel, 1e-4 * accel[0])
        print(
            f"{spec.zeta:8.1f}  {k_basic:5d}  {k_accel:11d}  "
            f"{k_basic / k_accel:7.1f}  {np.sqrt(spec.zeta):10.1f}"
        )

    print()
    print("Monte Carlo cross-check (zeta = 1000, 2000 replications):")
    print("only the expected error has a guarantee; single accelerated")
    print("trajectories disperse fast at this conditioning, so the empirical")
    print("mean resolves the recursion for the first few steps only")
    a, b, metric, _ = diagonal_problem(size=20, condition=1000.0)
    problem = Problem(a, b, metric)
    reform = build_reformulation(problem, kaczmarz_distribution(a))
    spec = reform.spectrum
    omega = 1.0 / spec.lambda_max
    gamma, _ = acceleration_parameters(spec, omega, mu=0.99 / spec.zeta)
    x0 = problem.min_norm_solution + stream(1, 0).standard_normal(problem.n)
    cfg = SolverConfig(omega=omega, gamma=gamma, max_iters=8, master_seed=17)
    moments = monte_carlo_moments(
        problem, reform.dist, cfg, 2000, 8, method="accelerated", x0=x0
    )
    exact = expected_mean_error(reform, omega, 8, x0=x0, method="accelerated", gamma=gamma)
    mc = np.sqrt(np.maximum(moments.mean_error_norm_sq, 0.0))
    noise = np.sqrt(np.maximum(moments.l2_error, 0.0)) / np.sqrt(2000.0)
    for k in range(9):
        flag = "" if 4 * noise[k] <= 0.5 * exact[0] else "   <- averaging no longer informative"
        print(f"  k={k}  simulated {mc[k]:9.4f}  recursion {exact[k]:.4f}  noise {noise[k]:9.4f}{flag}")


if __name__ == "__main__":
    main()
