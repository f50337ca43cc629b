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
steps all replications in lockstep as one (R, n) array (one replication
as a row vector), by :meth:`Workspace.coordinate_step` under Coordinate
sampling and else by the stacked :meth:`Workspace.general_step`, which
the single steps share. Its loop takes the sketched step alone, a chunk
of iterations at a time: x_{k+1} goes straight into its row of the
iterate block (or of one reused chunk buffer when iterates are not
recorded). After each chunk, the error norms and step lengths of all
its rows are taken in bulk by :meth:`Workspace.norms_sq`, bit-equal to
the vector products of one iteration, and the ``tol`` test stops the
run at the first row within it; the steps past that row are dropped.
A chunk's rows fit a byte budget. The per-step records are time-major
(K+1, R) rows, transposed once at the end. A run that ``tol`` can stop
early starts with short chunks that double, so a short solve steps
little past its stop, and draws its Coordinate indices on demand, in
blocks that double, so it draws only about what it uses, not
``max_iters``.
Trajectories are reproducible: each (replication, worker) pair owns a
keyed counter-based stream, so a replication's trace does not depend on
which other replications run beside it, nor on how its draws are chunked.
"""

from __future__ import annotations

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
_EPS = np.finfo(float).eps
# draws per stream before a run that tol can stop early asks for more
_FIRST_DRAWS = 64
# iterations run in chunks whose iterate rows fit in _CHUNK_BYTES (at most
# _MAX_CHUNK); norms and the tol test run once per chunk. A run that tol can
# stop early starts at _FIRST_CHUNK and doubles, so a short solve steps little
# past its stop, and every chunk end from _FIRST_DRAWS on is a draw boundary.
_CHUNK_BYTES = 1 << 16
_MAX_CHUNK = 64
_FIRST_CHUNK = 8
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
        # the one-row step reads b and the grams as floats
        self._b_list, self._gram_list = self.b.tolist(), self._step_gram.tolist()
        # e @ I is e exactly, so B = I skips that product
        self._metric = None if np.array_equal(problem.metric.mat, np.eye(problem.n)) else problem.metric.mat

    def norms_sq(self, e: np.ndarray) -> np.ndarray:
        """||e_k||_B^2 of every row of a (c, n) block, or of every (k, r) of a (c, R, n) stack.

        Each value is bit-equal to the product one vector or block takes
        alone: a row goes through a stack of (1, n) @ M products, the
        gemv of ``e_k.dot(M)`` (a 2-D ``e @ M`` is a gemm, which rounds
        differently), and a block through ``e_k @ M``; the dot is a
        batched (1, n) @ (n, 1) product.
        """
        if self._metric is None:
            be = e
        elif e.ndim == 2:
            be = (e[:, None, :] @ self._metric)[:, 0]
        else:
            be = e @ self._metric
        return (be[..., None, :] @ e[..., :, None])[..., 0, 0]

    def coordinate_step(self, x: np.ndarray, cols, omega: float, out=None):
        """Averaged steps for S = e_{cols[r, i]}, all rows of x at once.

        ``x`` is (R, n) and ``cols`` is (R, tau); row r of the result is
        the mean over i of the steps from x[r] with S = e_{cols[r, i]}.
        Returns (x_next, sketch_loss), the loss of each row's first step;
        ``x_next`` is written to ``out`` when given. A row vector ``x``
        takes the one step S = e_cols for an integer ``cols``, with a
        float loss.
        """
        if x.ndim == 1:
            # vector products on floats, bitwise equal to the stacked ones
            y = float(self.A[cols].dot(x)) - self._b_list[cols]
            coef = y / self._gram_list[cols]
            x_next = np.multiply(self.binv_rows[cols], omega * coef, out=out)
            return np.subtract(x, x_next, out=x_next), 0.5 * y * coef
        y = (self.A[cols] @ x[:, :, None])[:, :, 0] - self.b[cols]
        coef = y / self._step_gram[cols]
        step = ((coef * (omega / cols.shape[1]))[:, None, :] @ self.binv_rows[cols])[:, 0, :]
        return np.subtract(x, step, out=out), 0.5 * y[:, 0] * coef[:, 0]

    def general_step(self, x: np.ndarray, sketches, omega: float, out=None):
        """Averaged sketched steps for one iteration, all rows of x at once.

        ``x`` is (R, n) and ``sketches`` holds R groups of tau sketches, all
        index sets or all dense, all with the same q; row r of the result
        is the mean of the steps from x[r] with the sketches of group r.
        Returns (x_next, sketch_loss), the loss of each row's first step;
        ``x_next`` is written to ``out`` when given.

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
                return np.divide(z.sum(axis=1), tau, out=out), 0.5 * y[:, 0, 0] * coef[:, 0, 0]
            v = self.binv_rows[cols].swapaxes(-1, -2)
            gram = rows @ v
        u = _svd_pinv(_symmetrize(gram), _EPS * q) @ y[..., None]
        z = x[:, None] - omega * (v @ u)[..., 0]
        loss = 0.5 * (y[:, 0, None, :] @ u[:, 0])[:, 0, 0]
        return np.divide(z.sum(axis=1), tau, out=out), loss


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


def _within_tol(error_sq: np.ndarray, tol: float) -> np.ndarray:
    """sqrt(max(e, 0)) <= tol for every entry e; a nan is not within tol."""
    return np.sqrt(np.maximum(error_sq, 0.0)) <= tol


def _chunk_rows(row_bytes: int) -> int:
    """Iterations per chunk: the largest power of two, at most ``_MAX_CHUNK``,
    whose rows of ``row_bytes`` each fit ``_CHUNK_BYTES``, and at least 1."""
    rows = min(_MAX_CHUNK, max(1, _CHUNK_BYTES // row_bytes))
    return 1 << (rows.bit_length() - 1)


def _sketch_steps(ws, dist, config, method, replications, tau, samples):
    """The step (x, k, out) -> first sketch loss of iteration k.

    It writes the mean sketched step from x to ``out``: rows x (n,) for
    one replication, (R, n) blocks for more. Coordinate sampling maps the
    uniforms of all R x tau streams, drawn through one re-keyed Philox
    generator (:func:`uniforms`), to row indices with one
    ``searchsorted``. A run that ``config.tol`` can stop early draws
    them on demand: ``_FIRST_DRAWS`` per stream, then, whenever they run
    out, a redraw from counter 0 at double the length (capped at
    ``max_iters``) of which only the new part is mapped. A redraw repeats
    the earlier uniforms bit for bit, so the indices are those of one
    draw. Other runs draw all ``max_iters`` at once. One stream takes the
    one-row :meth:`Workspace.coordinate_step` on Python integers; more
    take it stacked. Other distributions build one generator per stream
    and draw the R x tau sketches of each iteration from them; these, or
    the given ``samples`` (one replication), take one stacked
    :meth:`Workspace.general_step` per iteration.
    """
    omega, k_max = config.omega, config.max_iters

    def stacked(kernel, x, sketches, out):
        if x.ndim == 2:
            return kernel(x, sketches, omega, out)[1]
        # a row vector steps as a one-row block
        return kernel(x[None], sketches, omega, out[None])[1][0]

    if samples is not None:
        if len(replications) != 1:
            raise ValueError("given samples drive exactly one replication")
        if len(samples) < k_max:
            raise ValueError(f"need {k_max} samples, got {len(samples)}")
        groups = samples[:k_max] if method == "parallel" else [[s] for s in samples[:k_max]]
        for k, group in enumerate(groups):
            if len(group) != tau:
                raise ValueError(f"iteration {k}: expected {tau} sketches, got {len(group)}")
        return lambda x, k, out: stacked(ws.general_step, x, [groups[k]], out)
    keys = stream_keys(
        config.master_seed, TRAJECTORY_STREAM, np.asarray(replications)[:, None], np.arange(tau)
    )
    if not isinstance(dist, Coordinate):
        sources = [[generator(key) for key in row] for row in keys]
        return lambda x, k, out: stacked(
            ws.general_step, x, [[dist.sample(g) for g in row] for row in sources], out
        )

    one = keys.size == 2

    def draw(start, stop):
        # (R, tau, stop) uniforms; searchsorted writes the (stop - start, R, tau)
        # indices contiguously
        block = dist.indices(uniforms(keys, stop)[..., start:].transpose(2, 0, 1))
        return block.reshape(-1).tolist() if one else list(block)

    cols = draw(0, k_max if config.tol is None else min(k_max, _FIRST_DRAWS))

    def step(x, k, out):
        if k == len(cols):
            cols.extend(draw(k, min(2 * k, k_max)))
        if one:
            return ws.coordinate_step(x, cols[k], omega, out)[1]
        return stacked(ws.coordinate_step, x, cols[k], out)

    return step


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

    # one replication steps as a row vector, more as an (R, n) block; the
    # records are time-major: row k holds iteration k of every replication
    n_reps = len(replications)
    lead = () if n_reps == 1 else (n_reps,)
    chunk = _chunk_rows(8 * n_reps * problem.n)
    error_sq = np.empty((k_max + 1, *lead))
    sketch_loss = np.empty((k_max, *lead)) if method == "basic" else None
    step_sq = np.empty((k_max, *lead)) if method == "basic" else None
    if "iterates" in config.record:
        # x_{k+1} goes into row k + 1 of the iterate block
        iterates = np.empty((n_reps, k_max + 1, problem.n))
        path = iterates[0] if n_reps == 1 else iterates.swapaxes(0, 1)
    else:
        # x_{k+j+1} goes into row j + 1 of one reused chunk, whose last row starts the next
        iterates, path = None, np.empty((chunk + 1, *lead, problem.n))
    z_path = np.empty((2, *lead, problem.n)) if method == "accelerated" else None
    diff = np.empty((chunk, *lead, problem.n))
    path[0] = start
    error_sq[0] = ws.norms_sq(np.subtract(path[:1], anchor, out=diff[:1]))[0]
    tol, k = config.tol, 0
    # the tol test is monotone in the error, and a nan maximum fails it
    steps = 0 if tol is not None and _within_tol(error_sq[0].max(), tol) else None
    with np.errstate(over="ignore", invalid="ignore"):
        while steps is None and k < k_max:
            c = min(chunk if tol is None else max(k, _FIRST_CHUNK), chunk, k_max - k)
            rows = path[: c + 1] if iterates is None else path[k : k + c + 1]
            if method != "accelerated":
                losses = [step(rows[j], k + j, rows[j + 1]) for j in range(c)]
                if sketch_loss is not None:
                    sketch_loss[k : k + c] = losses
            else:
                for j in range(c):
                    z = z_path[(k + j) % 2]
                    step(rows[j], k + j, z)
                    if k + j == 0:
                        rows[1] = second
                    else:
                        np.multiply(z, gamma, out=rows[j + 1])
                        rows[j + 1] += (1.0 - gamma) * z_path[(k + j - 1) % 2]
            errors = error_sq[k + 1 : k + c + 1]
            errors[...] = ws.norms_sq(np.subtract(rows[1:], anchor, out=diff[:c]))
            if step_sq is not None:
                step_sq[k : k + c] = ws.norms_sq(np.subtract(rows[1:], rows[:-1], out=diff[:c]))
            if tol is not None:
                hits = np.flatnonzero(_within_tol(errors if n_reps == 1 else errors.max(axis=1), tol))
                if hits.size:
                    steps = k + 1 + int(hits[0])
            k += c
            if iterates is None:
                path[0] = rows[-1]
    if steps is None:
        steps = k

    elapsed = time.perf_counter() - t0
    # the records, transposed once to one row per replication
    error_sq = np.ascontiguousarray(error_sq.reshape(k_max + 1, n_reps)[: steps + 1].T)
    if sketch_loss is not None:
        sketch_loss = np.ascontiguousarray(sketch_loss.reshape(k_max, n_reps)[:steps].T)
        step_sq = np.ascontiguousarray(step_sq.reshape(k_max, n_reps)[:steps].T)
    finite = np.isfinite(error_sq)
    diverged_at = [None] * n_reps
    if not finite.all():
        # the first non-finite error of each row; argmin lands on a finite one only if all are
        first_bad = np.argmin(finite, axis=1)
        for r in np.flatnonzero(~finite[np.arange(n_reps), first_bad]):
            diverged_at[r] = int(first_bad[r])
    converged = [None] * n_reps
    if tol is not None:
        converged = _within_tol(error_sq[:, -1], tol).tolist()
    key = (config.master_seed, TRAJECTORY_STREAM)
    return [
        IterationTrace(
            method=method,
            omega=config.omega,
            tau=tau,
            gamma=gamma,
            anchor=anchor,
            error_sq=error_sq[r],
            sketch_loss=None if sketch_loss is None else sketch_loss[r],
            step_sq=None if step_sq is None else step_sq[r],
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
