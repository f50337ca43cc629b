"""Randomized projection solvers for consistent weighted linear systems.

Three iterative methods built on the same sketched step

    phi(x, S) = x - omega * B^{-1} A'S (S'A B^{-1} A'S)^+ S'(Ax - b),

which relaxes the B-projection of x onto the compressed set
{x : S'Ax = S'b}:

* the basic method draws one fresh sketch per iteration,
* the parallel method averages tau independent steps from the same
  point (a minibatch), and
* the accelerated method combines steps from the last two iterates
  with an affine weight gamma, giving square-root dependence on the
  condition number for the right (gamma, omega).

A proximal step is included as an equivalence oracle: for
0 < omega <= 1 the sketched step equals the minimizer of
f_S(z) + (1-omega)/(2 omega) ||z - x||_B^2.

One trajectory engine, :func:`run_trajectories`, runs every method: it
steps all replications in lockstep as one (R, n) array, by the row step
:meth:`Workspace.coordinate_step` under Coordinate sampling and else by
the stacked :meth:`Workspace.general_step`, which the single steps share.
Trajectories are reproducible: each (replication, worker) pair owns a
keyed counter-based stream, so a replication's trace does not depend on
which other replications run beside it.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass

import numpy as np

from .linalg import Problem, _as_vector, _readonly, _svd_pinv, _symmetrize, pseudoinverse
from .reformulation import Spectrum
from .sketching import Coordinate, SketchDistribution, SketchSample, generator, stream_keys, uniforms

__all__ = [
    "TRAJECTORY_STREAM",
    "SolverConfig",
    "IterationTrace",
    "Workspace",
    "workspace",
    "run_trajectories",
    "basic_step",
    "parallel_step",
    "prox_step",
    "run_basic",
    "run_parallel",
    "run_accelerated",
    "stepsize_policy",
    "acceleration_parameters",
    "pathwise_residuals",
]

TRAJECTORY_STREAM = 202
METHODS = ("basic", "parallel", "accelerated")


@dataclass(frozen=True)
class SolverConfig:
    """Parameters shared by the three solvers.

    ``omega`` is the relaxation parameter (stepsize), ``tau`` the number
    of averaged sketches per iteration (parallel method only), and
    ``gamma``/``mu`` the acceleration parameters (``gamma`` wins if both
    are given, otherwise gamma = 2/(1+sqrt(mu))). ``master_seed`` is
    mandatory; no wall-clock seeding happens anywhere.
    """

    omega: float
    max_iters: int
    master_seed: int
    tau: int = 1
    gamma: float | None = None
    mu: float | None = None
    record: tuple[str, ...] = ("error_sq",)
    tol: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.omega):
            raise ValueError("omega must be finite")
        if int(self.tau) < 1:
            raise ValueError("tau must be at least 1")
        if int(self.max_iters) < 1:
            raise ValueError("max_iters must be at least 1")
        object.__setattr__(self, "tau", int(self.tau))
        object.__setattr__(self, "max_iters", int(self.max_iters))
        object.__setattr__(self, "master_seed", int(self.master_seed))


@dataclass(eq=False)
class IterationTrace:
    """Recorded error sequences of one solver trajectory.

    ``error_sq[k]`` is ||x_k - x*||_B^2 against the anchor
    x* = proj(x_0), the B-projection of the start onto the solution
    set. For the basic method, ``sketch_loss[k]`` is f_{S_k}(x_k) and
    ``step_sq[k]`` is ||x_{k+1} - x_k||_B^2, both computed from
    independent quantities so the per-step identities can be audited.
    ``converged`` says whether the last error is within ``tol`` (None
    without one); ``diverged_at`` is the first iteration whose error is
    not finite (None if every error is finite).
    """

    method: str
    omega: float
    anchor: np.ndarray
    error_sq: np.ndarray
    tau: int = 1
    gamma: float | None = None
    sketch_loss: np.ndarray | None = None
    step_sq: np.ndarray | None = None
    iterates: np.ndarray | None = None
    seed_key: tuple | None = None
    elapsed: float = 0.0
    converged: bool | None = None
    diverged_at: int | None = None

    @property
    def final_error(self) -> float:
        return float(np.sqrt(max(self.error_sq[-1], 0.0)))


class Workspace:
    """Per-problem caches shared by all steps of a run.

    Stores B^{-1}A', its transpose (row i is B^{-1}a_i) and the diagonal
    of A B^{-1} A', so single-row sketches take a closed-form O(m + n)
    step. Build it with :func:`workspace`, which caches it per problem.
    """

    def __init__(self, problem: Problem):
        self.A = problem.A
        self.b = problem.b
        self.binv_at = _readonly(problem.metric.inv @ problem.A.T)
        self.binv_rows = _readonly(np.ascontiguousarray(self.binv_at.T))
        self.row_gram = _readonly(np.einsum("ij,ji->i", problem.A, self.binv_at))
        # a row with a zero gram takes no step: y / inf = 0
        self._step_gram = _readonly(np.where(self.row_gram > 0.0, self.row_gram, np.inf))
        # e @ I is e exactly, so B = I skips that product
        self._metric = None if np.array_equal(problem.metric.mat, np.eye(problem.n)) else problem.metric.mat

    def norm_sq(self, e: np.ndarray) -> np.ndarray:
        """||e_r||_B^2 for every row of e, with the products of e_r @ B @ e_r."""
        be = e if self._metric is None else e @ self._metric
        if len(e) == 1:
            return be[0] @ e[0]
        return (be[:, None, :] @ e[:, :, None])[:, 0, 0]

    def coordinate_step(self, x: np.ndarray, cols: np.ndarray, omega: float):
        """Averaged steps for S = e_{cols[r, i]}, all rows of x at once.

        ``x`` is (R, n) and ``cols`` is (R, tau); row r of the result is
        the mean over i of the steps from x[r] with S = e_{cols[r, i]}.
        Returns (x_next, sketch_loss), the loss of each row's first step.
        """
        if cols.shape == (1, 1):
            # one row, one sketch: vector products, bitwise equal to the stacked ones
            i = cols[0, 0]
            y = self.A[i] @ x[0] - self.b[i]
            coef = y / self._step_gram[i]
            return x - (omega * coef) * self.binv_rows[i], 0.5 * y * coef
        y = (self.A[cols] @ x[:, :, None])[:, :, 0] - self.b[cols]
        coef = y / self._step_gram[cols]
        x_next = x - ((coef * (omega / cols.shape[1]))[:, None, :] @ self.binv_rows[cols])[:, 0, :]
        return x_next, 0.5 * y[:, 0] * coef[:, 0]

    def general_step(self, x: np.ndarray, sketches, omega: float):
        """Averaged sketched steps for one iteration, all rows of x at once.

        ``x`` is (R, n) and ``sketches`` holds R groups of tau sketches, all
        index sets or all dense, all with the same q; row r of the result
        is the mean of the steps from x[r] with the sketches of group r.
        Returns (x_next, sketch_loss), the loss of each row's first step.

        An index-set sketch gathers its rows: S'A = A[cols] and
        S'(Ax - b) = (Ax - b)[cols]. Column signs are dropped because
        D (D G D)^+ D = G^+ for a diagonal sign matrix D, and a one-column
        set takes the closed-form step. A dense sketch is multiplied out.
        Every q-by-q gram of the (R, tau) stack is pseudo-inverted at the
        cutoff of :func:`pseudoinverse`.
        """
        flat = [sketch for group in sketches for sketch in group]
        kinds = {(len(group), sketch.cols is None, sketch.q) for group in sketches for sketch in group}
        if len(kinds) != 1:
            raise ValueError(f"groups must share one size, kind and q; got (tau, dense, q) in {sorted(kinds)}")
        ((tau, dense, q),) = kinds
        if dense:
            s = np.array([sketch.matrix for sketch in flat]).reshape(len(sketches), tau, -1, q)
            s_t = s.swapaxes(-1, -2)
            v = self.binv_at @ s
            gram = s_t @ (self.A @ v)
            y = (s_t @ (self.A @ x[:, :, None] - self.b[:, None])[:, None])[..., 0]
        else:
            cols = np.array([sketch.cols for sketch in flat]).reshape(len(sketches), tau, q)
            rows = self.A[cols]
            y = (rows @ x[:, None, :, None])[..., 0] - self.b[cols]
            if q == 1:
                coef = y / self._step_gram[cols]
                z = x[:, None] - (omega * coef) * self.binv_rows[cols[..., 0]]
                return z.sum(axis=1) / tau, 0.5 * y[:, 0, 0] * coef[:, 0, 0]
            v = self.binv_rows[cols].swapaxes(-1, -2)
            gram = rows @ v
        u = _svd_pinv(_symmetrize(gram), np.finfo(float).eps * q) @ y[..., None]
        z = x[:, None] - omega * (v @ u)[..., 0]
        loss = 0.5 * (y[:, 0, None, :] @ u[:, 0])[:, 0, 0]
        return z.sum(axis=1) / tau, loss


# a Workspace holds no reference to its problem, so an entry lives as long as the problem
_WORKSPACES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def workspace(problem: Problem) -> Workspace:
    """The :class:`Workspace` of a problem, built once while the problem lives."""
    ws = _WORKSPACES.get(problem)
    if ws is None:
        ws = _WORKSPACES[problem] = Workspace(problem)
    return ws


def basic_step(problem: Problem, x, sketch: SketchSample, omega: float) -> np.ndarray:
    """One step of the basic method from x with the given sketch."""
    return parallel_step(problem, x, [sketch], omega)


def parallel_step(problem: Problem, x, sketches, omega: float) -> np.ndarray:
    """Average of independent sketched steps taken from the same x."""
    if len(sketches) < 1:
        raise ValueError("need at least one sketch")
    rows = _as_vector(x, problem.n)[None]
    return workspace(problem).general_step(rows, [list(sketches)], float(omega))[0][0]


def prox_step(problem: Problem, x, sketch: SketchSample, omega: float) -> np.ndarray:
    """Proximal form of the sketched step, valid for 0 < omega <= 1.

    Solves the regularized normal equations
    (mu B + A'HA) z = A'H b + mu B x with mu = (1 - omega)/omega by a
    dense factorization; at omega = 1 the regularization vanishes and
    the step returns the projection onto the compressed solution set.
    """
    omega = float(omega)
    if not 0.0 < omega <= 1.0:
        raise ValueError(f"prox step requires 0 < omega <= 1, got {omega}")
    v = _as_vector(x, problem.n)
    if omega == 1.0:
        return basic_step(problem, v, sketch, 1.0)
    s = sketch.matrix
    c = problem.A.T @ s
    gram = _symmetrize(s.T @ (problem.A @ (problem.metric.inv @ c)))
    gram_pinv = pseudoinverse(gram)
    z_op = c @ gram_pinv @ c.T
    mu = (1.0 - omega) / omega
    lhs = z_op + mu * problem.metric.mat
    rhs = c @ (gram_pinv @ (s.T @ problem.b)) + mu * (problem.metric.mat @ v)
    return np.linalg.solve(lhs, rhs)


def _acceleration_gamma(config: SolverConfig) -> float:
    if config.gamma is not None:
        return float(config.gamma)
    if config.mu is None:
        raise ValueError("accelerated method needs gamma or mu")
    mu = float(config.mu)
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    return 2.0 / (1.0 + np.sqrt(mu))


def _within(error_sq: float, tol: float) -> bool:
    return math.sqrt(max(float(error_sq), 0.0)) <= tol


def _sketch_steps(ws, dist, config, method, replications, tau, samples):
    """The function (x, k) -> (mean sketched step, first sketch loss) of iteration k.

    Coordinate sampling draws the uniforms of all R x tau streams up
    front, through one re-keyed Philox generator (:func:`uniforms`), maps
    them to row indices with one ``searchsorted`` and steps all
    replications in one gathered update. Other distributions build one
    generator per stream and draw the R x tau sketches of each iteration
    from them; these, or the given ``samples`` (one replication), take
    one stacked :meth:`Workspace.general_step` per iteration.
    """
    omega, k_max = config.omega, config.max_iters
    if samples is not None:
        if len(replications) != 1:
            raise ValueError("given samples drive exactly one replication")
        if len(samples) < k_max:
            raise ValueError(f"need {k_max} samples, got {len(samples)}")
        groups = samples[:k_max] if method == "parallel" else [[s] for s in samples[:k_max]]
        for k, group in enumerate(groups):
            if len(group) != tau:
                raise ValueError(f"iteration {k}: expected {tau} sketches, got {len(group)}")
        return lambda x, k: ws.general_step(x, [groups[k]], omega)
    keys = stream_keys(
        config.master_seed, TRAJECTORY_STREAM, np.asarray(replications)[:, None], np.arange(tau)
    )
    if isinstance(dist, Coordinate):
        # (R, tau, K) uniforms; searchsorted writes the (K, R, tau) indices contiguously
        rows = dist.indices(uniforms(keys, k_max).transpose(2, 0, 1))
        return lambda x, k: ws.coordinate_step(x, rows[k], omega)
    sources = [[generator(key) for key in row] for row in keys]
    return lambda x, k: ws.general_step(x, [[dist.sample(g) for g in row] for row in sources], omega)


def run_trajectories(
    problem: Problem,
    dist: SketchDistribution,
    config: SolverConfig,
    method: str = "basic",
    replications=(0,),
    x0=None,
    x1=None,
    samples=None,
) -> list[IterationTrace]:
    """Run one method for every replication in lockstep, as one (R, n) array.

    Returns one trace per replication, in order; replication r, worker i
    draws from the stream (master_seed, TRAJECTORY_STREAM, r, i), so each
    trace equals the run of that replication alone. Every method takes
    the same sketched step phi: the parallel method averages ``config.tau``
    of them, and the accelerated method sets x_1 (``x1``, by default x_0),
    then x_{k+1} = gamma phi(x_k, S_k) + (1 - gamma) phi(x_{k-1}, S_{k-1}).
    All traces stop together, after ``config.max_iters`` steps or once
    every replication is within ``config.tol``. ``samples`` replaces the
    streams of one replication: a sketch (parallel: a group of ``tau``)
    per iteration. A divergent run is not an error: its errors overflow
    to non-finite values and ``diverged_at`` records where.
    """
    t0 = time.perf_counter()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    ws = workspace(problem)
    start = np.zeros(problem.n) if x0 is None else _as_vector(x0, problem.n).copy()
    anchor = problem.project(start)
    tau = config.tau if method == "parallel" else 1
    k_max = config.max_iters
    gamma = None
    if method == "accelerated":
        second = start if x1 is None else _as_vector(x1, problem.n)
        d = start - second
        residual = problem.metric.norm(d - problem.range_projector_apply(d))
        if residual > 1e-9 * (1.0 + problem.metric.norm(d)):
            raise ValueError(f"x0 - x1 must lie in range(B^{{-1}}A'); projection residual {residual:.3e}")
        gamma = _acceleration_gamma(config)

    step = _sketch_steps(ws, dist, config, method, replications, tau, samples)

    n_reps = len(replications)
    error_sq = np.empty((n_reps, k_max + 1))
    sketch_loss = np.empty((n_reps, k_max)) if method == "basic" else None
    step_sq = np.empty((n_reps, k_max)) if method == "basic" else None
    iterates = np.empty((n_reps, k_max + 1, problem.n)) if "iterates" in config.record else None
    x = np.repeat(start[None], n_reps, axis=0)
    error_sq[:, 0] = ws.norm_sq(x - anchor)
    if iterates is not None:
        iterates[:, 0] = x
    tol, steps, z_prev = config.tol, 0, None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(k_max):
            # the test is monotone in the error, and a nan maximum fails it
            if tol is not None and _within(error_sq[:, k].max(), tol):
                break
            z, loss = step(x, k)
            if method != "accelerated":
                x_next = z
            elif k == 0:
                x_next = np.repeat(second[None], n_reps, axis=0)
            else:
                x_next = gamma * z + (1.0 - gamma) * z_prev
            z_prev = z
            error_sq[:, k + 1] = ws.norm_sq(x_next - anchor)
            if sketch_loss is not None:
                sketch_loss[:, k] = loss
                step_sq[:, k] = ws.norm_sq(x_next - x)
            if iterates is not None:
                iterates[:, k + 1] = x_next
            x = x_next
            steps = k + 1

    elapsed = time.perf_counter() - t0
    error_sq = error_sq[:, : steps + 1]
    finite = np.isfinite(error_sq)
    diverged_at = [None] * n_reps
    if not finite.all():
        # the first non-finite error of each row; argmin lands on a finite one only if all are
        first_bad = np.argmin(finite, axis=1)
        for r in np.flatnonzero(~finite[np.arange(n_reps), first_bad]):
            diverged_at[r] = int(first_bad[r])
    converged = [None] * n_reps
    if tol is not None:
        # _within for every row at once: a nan error is not within tol
        converged = (np.sqrt(np.maximum(error_sq[:, -1], 0.0)) <= tol).tolist()
    key = (config.master_seed, TRAJECTORY_STREAM)
    return [
        IterationTrace(
            method=method,
            omega=config.omega,
            tau=tau,
            gamma=gamma,
            anchor=anchor,
            error_sq=error_sq[r],
            sketch_loss=None if sketch_loss is None else sketch_loss[r, :steps],
            step_sq=None if step_sq is None else step_sq[r, :steps],
            iterates=None if iterates is None else iterates[r, : steps + 1],
            seed_key=key + ((rep,) if method == "parallel" else (rep, 0)),
            elapsed=elapsed,
            converged=converged[r],
            diverged_at=diverged_at[r],
        )
        for r, rep in enumerate(replications)
    ]


def run_basic(
    problem: Problem,
    dist: SketchDistribution,
    config: SolverConfig,
    x0=None,
    replication: int = 0,
    samples: list[SketchSample] | None = None,
) -> IterationTrace:
    """Run the basic method for one replication.

    One fresh sketch per iteration, from the stream (master_seed,
    replication, worker 0) or from ``samples``. Exhausting the budget
    without reaching ``config.tol`` flags the trace as not converged.
    """
    return run_trajectories(problem, dist, config, "basic", (replication,), x0, samples=samples)[0]


def run_parallel(
    problem: Problem,
    dist: SketchDistribution,
    config: SolverConfig,
    x0=None,
    replication: int = 0,
    samples: list[list[SketchSample]] | None = None,
) -> IterationTrace:
    """Run the parallel (minibatch) method with ``config.tau`` workers.

    Worker i draws from the stream (master_seed, replication, i). With
    tau = 1 the trajectory coincides with the basic method.
    """
    return run_trajectories(problem, dist, config, "parallel", (replication,), x0, samples=samples)[0]


def run_accelerated(
    problem: Problem,
    dist: SketchDistribution,
    config: SolverConfig,
    x0=None,
    x1=None,
    replication: int = 0,
    samples: list[SketchSample] | None = None,
) -> IterationTrace:
    """Run the accelerated method from the starts x_0 and x_1.

    x_1 = x_0 by default; x_0 - x_1 must lie in range(B^{-1}A').
    ``config.gamma`` is used when set, else gamma = 2/(1 + sqrt(mu)).
    """
    return run_trajectories(problem, dist, config, "accelerated", (replication,), x0, x1, samples)[0]


def stepsize_policy(spectrum: Spectrum, kind: str) -> float:
    """Relaxation parameter for a named policy.

    "unit" gives 1, "inverse-lambda-max" gives 1/lambda_max, and
    "optimal" gives 2/(lambda_min_plus + lambda_max), the minimizer of
    the mean-error contraction factor.
    """
    if kind == "unit":
        return 1.0
    if kind == "inverse-lambda-max":
        return 1.0 / spectrum.lambda_max
    if kind == "optimal":
        return 2.0 / (spectrum.lambda_min_plus + spectrum.lambda_max)
    raise ValueError(f"unknown stepsize policy {kind!r}")


def acceleration_parameters(spectrum: Spectrum, omega: float, safety: float = 0.99):
    """Theory-backed (gamma, mu) for the accelerated method.

    mu = safety * omega * lambda_min_plus keeps mu strictly inside the
    admissible interval (0, omega * lambda_min_plus); a stepsize that
    makes it non-positive, where sqrt(mu) is undefined, is rejected.
    """
    if not 0.0 < safety < 1.0:
        raise ValueError("safety must lie in (0, 1)")
    mu = safety * float(omega) * spectrum.lambda_min_plus
    if not mu > 0.0:
        raise ValueError(f"auto mu = {float(mu):.6g} is not positive at omega = {float(omega):.6g}")
    gamma = 2.0 / (1.0 + np.sqrt(mu))
    return gamma, mu


def pathwise_residuals(trace: IterationTrace) -> tuple[float, float]:
    """Worst relative residuals of the two per-step identities.

    For every recorded basic-method step,
    ||x_{k+1}-x*||_B^2 = ||x_k-x*||_B^2 - 2 w(2-w) f_{S_k}(x_k) and
    ||x_{k+1}-x_k||_B^2 = 2 w^2 f_{S_k}(x_k) must hold exactly up to
    roundoff. Returns (decrement residual, step-length residual).
    """
    if trace.sketch_loss is None or trace.step_sq is None:
        raise ValueError("trace does not carry per-step sketch losses")
    w = trace.omega
    e, loss, step = trace.error_sq, trace.sketch_loss, trace.step_sq
    e_next = e[1 : len(loss) + 1]
    # once the error has fallen ~8 orders below its running peak, the
    # residual A x - b is pure cancellation dust; floor the comparison
    # scale there so the check measures algebra, not roundoff
    floor = np.sqrt(np.finfo(float).eps) * max(float(e.max()), 1e-300)
    err_scale = np.maximum(np.maximum(e[: len(loss)], np.abs(e_next)), floor)
    decrement = np.abs(e_next - (e[: len(loss)] - 2.0 * w * (2.0 - w) * loss)) / err_scale
    predicted_step = 2.0 * w * w * loss
    step_res = np.abs(step - predicted_step) / np.maximum(np.maximum(step, predicted_step), floor)
    return float(decrement.max(initial=0.0)), float(step_res.max(initial=0.0))
