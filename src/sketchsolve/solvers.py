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
as a row vector), a chunk of iterations at a time. Its step kernels,
:meth:`Workspace.coordinate_step` under Coordinate sampling and else the
stacked :meth:`Workspace.general_step` (which the single steps share, as
one-iteration chunks), each take a whole chunk's sketches: one stacked
pass computes what the sketches alone fix (gathered rows, b[cols],
grams and their pseudoinverses), then a loop over the chunk's
iterations computes only the products with x, each on the operands a
one-iteration call gives it, so no trace depends on the chunking. One
replication under Coordinate sampling loops on Python floats and cached
row views. x_{k+1} goes straight into its row of the iterate block (or
of one reused chunk buffer when iterates are not recorded). After each
chunk, the error norms and step lengths of all its rows are taken in
bulk by :meth:`Workspace.norms_sq`, bit-equal to the vector products of
one iteration, and the ``tol`` test stops the run at the first row
within it; the steps past that row are dropped. A chunk's rows fit a
byte budget, and so does the largest stack of one kernel call. The
per-step records are time-major (K+1, R) rows, transposed once at the
end. A run that ``tol`` can stop early starts with short chunks that
double, so a short solve steps little past its stop, and draws its index
sets on demand, in blocks that double, so it draws only about what it
uses, not ``max_iters``. Every index-set family is drawn in bulk, a
whole stream per call (Coordinate through :func:`uniforms`, the others
through their ``draw``), and steps on arrays of column indices; only
dense Gaussian sketches are drawn one per stream and iteration.
The accelerated method steps one iteration per kernel call, because
each of its steps starts from a combination of the last two.
Trajectories are reproducible: each (replication, worker) pair owns a
keyed counter-based stream, so a replication's trace does not depend on
which other replications run beside it, nor on how its draws are chunked.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .linalg import Problem, _as_vector, _readonly, _svd_pinv, _symmetrize, pseudoinverse
from .reformulation import Spectrum
from .sketching import (
    Coordinate,
    Gaussian,
    SketchDistribution,
    SketchSample,
    _rekeyed,
    generator,
    stream_keys,
    uniforms,
)

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
# _MAX_CHUNK); norms and the tol test run once per chunk, and one kernel call's
# largest stack fits _CHUNK_BYTES too (or the call steps one iteration). A run
# that tol can stop early starts at _FIRST_CHUNK and doubles, so a short solve
# steps little past its stop, and every chunk end from _FIRST_DRAWS on is a
# draw boundary.
_CHUNK_BYTES = 1 << 16
_MAX_CHUNK = 64
_FIRST_CHUNK = 8
METHODS = ("basic", "parallel", "accelerated")


@dataclass(frozen=True)
class SolverConfig:
    """Parameters shared by the three solvers.

    ``omega`` is the relaxation parameter (stepsize), ``tau`` the number
    of averaged sketches per iteration (parallel method only), and
    ``gamma`` the weight the accelerated method steps with (it needs
    one; :func:`acceleration_parameters` gives the theory's
    gamma = 2/(1+sqrt(mu))). ``master_seed`` is mandatory; no
    wall-clock seeding happens anywhere.
    """

    omega: float
    max_iters: int
    master_seed: int
    tau: int = 1
    gamma: float | None = None
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
    converged: bool | None = None
    diverged_at: int | None = None


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
        # the one-row loop reads b and the grams as floats, and rows of A and B^{-1}A' as cached views
        self._b_list, self._gram_list = self.b.tolist(), self._step_gram.tolist()
        self._a_rows, self._v_rows = list(self.A), list(self.binv_rows)
        # e @ I is e exactly, so B = I skips that product
        self._metric = None if problem.metric.is_identity else problem.metric.mat

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
        """A chunk of averaged steps for S = e_i, all rows of x at once.

        ``x`` is the (R, n) start and ``cols`` the chunk's (c, R, tau)
        row indices. Iteration j steps from the previous iterate (x for
        j = 0): row r becomes the mean over i of its steps with
        S = e_{cols[j, r, i]}, written to ``out[j]``. Returns (out, loss),
        with the (c, R) loss of each row's first step. A row vector
        ``x`` takes c single steps, ``cols`` being c integers, and the
        loss is a list of c floats.

        The gathers that depend on the indices alone are taken once for
        the chunk; each iteration computes only the products with x.
        """
        c = len(cols)
        out = np.empty((c, *x.shape)) if out is None else out
        if x.ndim == 1:
            # Python floats and cached row views, bitwise equal to the stacked products
            a_rows, v_rows, b, gram = self._a_rows, self._v_rows, self._b_list, self._gram_list
            multiply, subtract, losses = np.multiply, np.subtract, []
            for i, nxt in zip(cols, out):
                y = float(a_rows[i].dot(x)) - b[i]
                coef = y / gram[i]
                multiply(v_rows[i], omega * coef, nxt)
                subtract(x, nxt, nxt)
                losses.append(0.5 * y * coef)
                x = nxt
            return out, losses
        rows, v_rows, b, gram = self.A[cols], self.binv_rows[cols], self.b[cols], self._step_gram[cols]
        loss, scale = np.empty((c, len(x))), omega / cols.shape[2]
        for j in range(c):
            y = (rows[j] @ x[:, :, None])[:, :, 0] - b[j]
            coef = y / gram[j]
            x = np.subtract(x, ((coef * scale)[:, None, :] @ v_rows[j])[:, 0, :], out=out[j])
            loss[j] = 0.5 * y[:, 0] * coef[:, 0]
        return out, loss

    def general_step(self, x: np.ndarray, sketches: np.ndarray, omega: float, out=None):
        """A chunk of averaged sketched steps, all rows of x at once.

        ``x`` is the (R, n) start and ``sketches`` the chunk's
        (c, R, tau, q) integer array of index-set columns or
        (c, R, tau, m, q) stack of dense sketches. Iteration j steps from
        the previous iterate (x for j = 0): row r becomes the mean of its
        tau steps with the sketches [j, r], written to ``out[j]``.
        Returns (out, loss), with the (c, R) loss of each row's first step.

        One stacked pass first computes what the sketches alone fix: the
        gathered rows S'A = A[cols] and b[cols] of index sets, or the
        multiplied-out products of dense sketches, and every q-by-q gram
        with its pseudoinverse at the cutoff of :func:`pseudoinverse`.
        Each iteration then computes only the products with x, each on
        the operands a one-iteration call gives it. Column signs take no
        part because D (D G D)^+ D = G^+ for a diagonal sign matrix D,
        and a one-column set takes the closed-form step.
        """
        c, tau, q = sketches.shape[0], sketches.shape[2], sketches.shape[-1]
        out = np.empty((c, *x.shape)) if out is None else out
        loss = np.empty((c, len(x)))
        dense = sketches.ndim == 5
        if dense:
            s_t = sketches.swapaxes(-1, -2)
            v = self.binv_at @ sketches
            gram = s_t @ (self.A @ v)
        else:
            rows, b = self.A[sketches], self.b[sketches]
            if q == 1:
                gram, v_rows = self._step_gram[sketches], self.binv_rows[sketches[..., 0]]
                for j in range(c):
                    y = (rows[j] @ x[:, None, :, None])[..., 0] - b[j]
                    coef = y / gram[j]
                    z = x[:, None] - (omega * coef) * v_rows[j]
                    x = np.divide(z.sum(axis=1), tau, out=out[j])
                    loss[j] = 0.5 * y[:, 0, 0] * coef[:, 0, 0]
                return out, loss
            v = self.binv_rows[sketches].swapaxes(-1, -2)
            gram = rows @ v
        pinv = _svd_pinv(_symmetrize(gram), _EPS * q)
        for j in range(c):
            if dense:
                y = (s_t[j] @ (self.A @ x[:, :, None] - self.b[:, None])[:, None])[..., 0]
            else:
                y = (rows[j] @ x[:, None, :, None])[..., 0] - b[j]
            u = pinv[j] @ y[..., None]
            z = x[:, None] - omega * (v[j] @ u)[..., 0]
            x = np.divide(z.sum(axis=1), tau, out=out[j])
            loss[j] = 0.5 * (y[:, 0, None, :] @ u[:, 0])[:, 0, 0]
        return out, loss


# a Workspace holds no reference to its problem, so an entry lives as long as the problem
_WORKSPACES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def workspace(problem: Problem) -> Workspace:
    """The :class:`Workspace` of a problem, built once while the problem lives."""
    ws = _WORKSPACES.get(problem)
    if ws is None:
        ws = _WORKSPACES[problem] = Workspace(problem)
    return ws


def _stack_sketches(groups) -> np.ndarray:
    """R groups of tau :class:`SketchSample` as the one-iteration chunk :meth:`Workspace.general_step` takes.

    Index sets give their (1, R, tau, q) columns and dense sketches their
    (1, R, tau, m, q) matrices; the groups must share one size, kind and q.
    """
    kinds = {(len(group), sketch.cols is None, sketch.q) for group in groups for sketch in group}
    if len(kinds) != 1:
        raise ValueError(f"groups must share one size, kind and q; got (tau, dense, q) in {sorted(kinds)}")
    ((tau, dense, q),) = kinds
    sketches = [sketch.matrix if dense else sketch.cols for group in groups for sketch in group]
    return np.array(sketches).reshape((1, len(groups), tau, -1, q) if dense else (1, len(groups), tau, q))


def basic_step(problem: Problem, x, sketch: SketchSample, omega: float) -> np.ndarray:
    """One step of the basic method from x with the given sketch."""
    return parallel_step(problem, x, [sketch], omega)


def parallel_step(problem: Problem, x, sketches, omega: float) -> np.ndarray:
    """Average of independent sketched steps taken from the same x."""
    if len(sketches) < 1:
        raise ValueError("need at least one sketch")
    rows = _as_vector(x, problem.n)[None]
    return workspace(problem).general_step(rows, _stack_sketches([list(sketches)]), float(omega))[0][0, 0]


def prox_step(problem: Problem, x, sketch: SketchSample, omega: float) -> np.ndarray:
    """Proximal form of the sketched step, valid for 0 < omega <= 1.

    Solves the regularized normal equations
    (mu B + A'HA) z = A'H b + mu B x with mu = (1 - omega)/omega by a
    dense factorization; at omega = 1 the regularization vanishes and
    the step is the projection x - B^{-1} C G^+ S'(Ax - b) onto the
    compressed solution set, from the same dense factors C = A'S and
    G^+ = (C' B^{-1} C)^+, not from the step kernel.
    """
    omega = float(omega)
    if not 0.0 < omega <= 1.0:
        raise ValueError(f"prox step requires 0 < omega <= 1, got {omega}")
    v = _as_vector(x, problem.n)
    s = sketch.matrix
    c = problem.A.T @ s
    gram = _symmetrize(s.T @ (problem.A @ (problem.metric.inv @ c)))
    gram_pinv = pseudoinverse(gram)
    if omega == 1.0:
        return v - problem.metric.inv @ (c @ (gram_pinv @ (s.T @ (problem.A @ v - problem.b))))
    z_op = c @ gram_pinv @ c.T
    mu = (1.0 - omega) / omega
    lhs = z_op + mu * problem.metric.mat
    rhs = c @ (gram_pinv @ (s.T @ problem.b)) + mu * (problem.metric.mat @ v)
    return np.linalg.solve(lhs, rhs)


def _within_tol(error_sq: np.ndarray, tol: float) -> np.ndarray:
    """sqrt(max(e, 0)) <= tol for every entry e; a nan is not within tol."""
    return np.sqrt(np.maximum(error_sq, 0.0)) <= tol


def _chunk_rows(row_bytes: int) -> int:
    """Iterations per chunk: the largest power of two whose rows of
    ``row_bytes`` each fit ``_CHUNK_BYTES``, at least 1 and at most ``_MAX_CHUNK``."""
    rows = max(1, _CHUNK_BYTES // row_bytes)
    return min(_MAX_CHUNK, 1 << (rows.bit_length() - 1))


def _sketch_steps(ws, dist, config, method, replications, tau, samples):
    """The step (x, k, c, out) -> first sketch losses of iterations k to k + c - 1.

    It writes the mean sketched step of iteration k + j to ``out[j]``,
    each from the one before (x for j = 0): rows x (n,) for one
    replication, (R, n) blocks for more. Index-set families draw the
    sketches of all R x tau streams up front, stream by stream, through
    one re-keyed Philox generator: Coordinate sampling maps the uniforms
    of :func:`uniforms` to row indices with one ``searchsorted``, and
    every other family takes its ``draw`` law. A run that ``config.tol``
    can stop early draws on demand: ``_FIRST_DRAWS`` per stream, then,
    whenever a chunk runs past them, a redraw from counter 0 at double
    the length (at least to the chunk's end, at most ``max_iters``) of
    which only the new part is kept. A redraw repeats the earlier draws
    bit for bit, so the sketches are those of one draw. Other runs draw
    all ``max_iters`` at once. One-stream Coordinate sketches take one
    :meth:`Workspace.coordinate_step` per chunk, on Python integers;
    other index sets take the stacked kernel of their family on
    (c, R, tau) or (c, R, tau, q) slices. Gaussian sketches, which are
    dense, are drawn one per stream and iteration, in iteration order,
    for each kernel call, and the given ``samples`` (one replication)
    take one kernel call per iteration. A stacked kernel call spans as
    many iterations as keep its largest stack, R x tau x q x max(n, m)
    floats an iteration for dense sketches and R x tau x q x n for index
    sets, within ``_CHUNK_BYTES``.
    """
    omega, k_max = config.omega, config.max_iters
    n_reps, (m, n) = len(replications), ws.A.shape

    def stacked(kernel, sketches, span):
        def step(x, k, c, out):
            if x.ndim == 1:
                # a row vector steps as a one-row block
                return step(x[None], k, c, out[:, None])[:, 0]
            losses = []
            for j in range(0, c, span):
                block, loss = kernel(x, sketches(k + j, min(span, c - j)), omega, out[j : j + span])
                losses.append(loss)
                x = block[-1]
            return losses[0] if len(losses) == 1 else np.concatenate(losses)

        return step

    def span(q, dense=False):
        return max(1, _CHUNK_BYTES // (8 * n_reps * tau * q * (max(n, m) if dense else n)))

    if samples is not None:
        if len(replications) != 1:
            raise ValueError("given samples drive exactly one replication")
        if len(samples) < k_max:
            raise ValueError(f"need {k_max} samples, got {len(samples)}")
        groups = samples[:k_max] if method == "parallel" else [[s] for s in samples[:k_max]]
        for k, group in enumerate(groups):
            if len(group) != tau:
                raise ValueError(f"iteration {k}: expected {tau} sketches, got {len(group)}")
        chunks = [_stack_sketches([group]) for group in groups]
        return stacked(ws.general_step, lambda k, d: chunks[k], 1)
    keys = stream_keys(
        config.master_seed, TRAJECTORY_STREAM, np.asarray(replications)[:, None], np.arange(tau)
    )
    if isinstance(dist, Gaussian):
        sources = [[generator(key) for key in row] for row in keys]

        def gaussian(k, d):
            return np.array([[[dist.sample(g).matrix for g in row] for row in sources] for _ in range(d)])

        return stacked(ws.general_step, gaussian, span(dist.q, dense=True))

    if isinstance(dist, Coordinate):
        one = keys.size == 2

        def draw(start, stop):
            # (R, tau, stop) uniforms; searchsorted writes the (stop - start, R, tau)
            # indices contiguously
            block = dist.indices(uniforms(keys, stop)[..., start:].transpose(2, 0, 1))
            return block.reshape(-1).tolist() if one else block

    else:
        one, streams = False, keys.reshape(-1, 2)

        def draw(start, stop):
            # each stream's columns from counter 0, kept from start as (stop - start, R, tau, q)
            block = np.empty((stop - start, len(streams), dist.q), dtype=np.intp)
            for i, rng in enumerate(_rekeyed(streams)):
                block[:, i] = dist.draw(rng, stop)[0][start:]
            return block.reshape(stop - start, *keys.shape[:-1], dist.q)

    drawn = draw(0, k_max if config.tol is None else min(k_max, _FIRST_DRAWS))

    def sketches(k, d):
        nonlocal drawn
        if k + d > len(drawn):
            more = draw(len(drawn), min(k_max, max(2 * len(drawn), k + d)))
            drawn = drawn + more if one else np.concatenate((drawn, more))
        return drawn[k : k + d]

    if one:
        return lambda x, k, c, out: ws.coordinate_step(x, sketches(k, c), omega, out)[1]
    if isinstance(dist, Coordinate):
        return stacked(ws.coordinate_step, sketches, span(1))
    return stacked(ws.general_step, sketches, span(dist.q))


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
        if config.gamma is None:
            raise ValueError("accelerated method needs gamma")
        gamma = float(config.gamma)

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
                losses = step(rows[0], k, c, rows[1:])
                if sketch_loss is not None:
                    sketch_loss[k : k + c] = losses
            else:
                for j in range(c):
                    z = z_path[(k + j) % 2]
                    step(rows[j], k + j, 1, z[None])
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

    x_1 = x_0 by default; x_0 - x_1 must lie in range(B^{-1}A'); the
    weight is ``config.gamma``.
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


def acceleration_parameters(spectrum: Spectrum, omega: float, mu: float | None = None):
    """Theory-backed (gamma, mu) for the accelerated method: gamma = 2/(1+sqrt(mu)).

    A given ``mu`` must lie in (0, 1). Without one, mu = 0.99 * omega *
    lambda_min_plus keeps mu strictly inside the admissible interval
    (0, omega * lambda_min_plus); a stepsize that makes it non-positive,
    where sqrt(mu) is undefined, is rejected.
    """
    if mu is None:
        mu = 0.99 * float(omega) * spectrum.lambda_min_plus
        if not mu > 0.0:
            raise ValueError(f"auto mu = {float(mu):.6g} is not positive at omega = {float(omega):.6g}")
    else:
        mu = float(mu)
        if not 0.0 < mu < 1.0:
            raise ValueError(f"mu must lie in (0, 1), got {mu}")
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
