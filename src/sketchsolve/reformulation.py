"""Per-sketch operators, their expectations, and spectral diagnostics.

A sketch S turns the system Ax = b into the compressed system
S'Ax = S'b. Two operators summarize what one sketch sees:

    H = S (S' A B^{-1} A' S)^+ S'        (m by m, symmetric PSD)
    Z = A' H A                           (n by n, symmetric PSD)

B^{-1}Z is the B-orthogonal projector onto range(B^{-1}A'S), which is
why Z B^{-1} Z = Z. The sketch loss

    f_S(x) = (Ax - b)' H (Ax - b) / 2

measures (half) the squared B-distance from x to the compressed
solution set, and its average over sketches drives every solver here.
The spectrum of W = B^{-1/2} E[Z] B^{-1/2} controls all convergence
rates; eigenvalues always lie in [0, 1].

Expectations never form H. For an index-set sketch S'A is the gathered
rows C = A[cols] (column signs cancel in both H and Z), so each atom
needs only its q-by-q gram G = C B^{-1} C' and Z = C' G^+ C. A finite
support is processed as stacked (N, q, n) row blocks in chunks of
bounded size: batched grams and pseudoinverses, then E[Z] as one
contraction per chunk and E[H] as a scatter-add of the q-by-q blocks
p G^+. A Monte Carlo E[Z] over an index family takes all its sketches
from one ``draw`` call and stacks their rows and grams the same way,
with one Z and one running-mean update per draw, in draw order.
``sketched_system`` keeps one sketch's factors A'S and G^+, forms its
H and Z only when they are read, and is the reference the expectations
are tested against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    Problem,
    SpdMatrix,
    _as_matrix,
    _as_vector,
    _readonly,
    _svd_pinv,
    _symmetrize,
    pseudoinverse,
    sym_eigendecomposition,
)
from .sketching import DEFAULT_SUPPORT_CAP, Gaussian, SketchDistribution, SketchSample, Support, stream

__all__ = [
    "DegenerateSpectrumError",
    "TooFewSamplesError",
    "SketchedSystem",
    "sketched_system",
    "stochastic_value",
    "stochastic_gradient",
    "sketched_projection",
    "EstimationInfo",
    "expected_Z",
    "Spectrum",
    "rho_basic",
    "spectrum_of",
    "Reformulation",
    "build_reformulation",
    "check_exactness",
]

EXPECTATION_STREAM = 101
# Monte Carlo draws of E[Z] when the support is not enumerable
DEFAULT_EXPECTATION_SAMPLES = 10_000

# upper bound on the bytes of one chunk of gathered sketch rows (N, q, n)
# in the stacked expectations; the working set is a few times this
_CHUNK_BYTES = 1 << 24


class DegenerateSpectrumError(ValueError):
    """All eigenvalues of W are numerically zero (the matrix sees nothing)."""


class TooFewSamplesError(ValueError):
    """A Monte Carlo E[Z] was asked for with fewer than two samples."""


@dataclass(frozen=True, eq=False)
class SketchedSystem:
    """Operators induced by one sketch of a weighted linear system.

    The loss, gradient and projection read only ``compressed_map`` and
    ``gram_pinv``; the m-by-m ``H`` and n-by-n ``Z`` are formed from
    them on first read, read-only.
    """

    A: np.ndarray
    b: np.ndarray
    metric: SpdMatrix
    sketch: SketchSample
    compressed_map: np.ndarray  # A'S, cached for gradient evaluations
    gram_pinv: np.ndarray  # (S'A B^{-1} A'S)^+

    @functools.cached_property
    def H(self) -> np.ndarray:
        s = self.sketch.matrix
        return _readonly(_symmetrize(s @ self.gram_pinv @ s.T))

    @functools.cached_property
    def Z(self) -> np.ndarray:
        c = self.compressed_map
        return _readonly(_symmetrize(c @ self.gram_pinv @ c.T))


def sketched_system(A, b, metric: SpdMatrix, sketch: SketchSample) -> SketchedSystem:
    """The factors of one sketch's operators: A'S and the gram pseudoinverse.

    ``A`` is m by n, ``metric`` is the n by n SPD weighting, and the
    sketch matrix must have m rows. A sketch with S'A = 0 is legal and
    yields H = 0, Z = 0.
    """
    a = _as_matrix(A, "A")
    rhs = _as_vector(b, a.shape[0], "b")
    s = sketch.matrix
    if s.shape[0] != a.shape[0]:
        raise ValueError(f"sketch has {s.shape[0]} rows, system has {a.shape[0]}")
    if metric.dim != a.shape[1]:
        raise ValueError(f"metric dimension {metric.dim} does not match {a.shape[1]} unknowns")
    compressed = a.T @ s
    gram = _symmetrize(compressed.T @ metric.inv @ compressed)
    gram_pinv = _symmetrize(pseudoinverse(gram))
    return SketchedSystem(
        A=a,
        b=rhs,
        metric=metric,
        sketch=sketch,
        compressed_map=_readonly(compressed),
        gram_pinv=_readonly(gram_pinv),
    )


def stochastic_value(sys: SketchedSystem, x) -> float:
    """Sketch loss f_S(x) = (Ax - b)' H (Ax - b) / 2, always >= 0."""
    v = _as_vector(x, sys.A.shape[1])
    y = sys.sketch.matrix.T @ (sys.A @ v - sys.b)
    return 0.5 * float(y @ sys.gram_pinv @ y)


def stochastic_gradient(sys: SketchedSystem, x) -> np.ndarray:
    """Gradient of f_S at x in the B-geometry: B^{-1} A' H (Ax - b).

    Equals x minus the B-projection of x onto the compressed solution
    set, and is a fixed point of the sketch Hessian B^{-1}Z.
    """
    v = _as_vector(x, sys.A.shape[1])
    y = sys.sketch.matrix.T @ (sys.A @ v - sys.b)
    return sys.metric.inv @ (sys.compressed_map @ (sys.gram_pinv @ y))


def sketched_projection(sys: SketchedSystem, x) -> np.ndarray:
    """B-norm projection of x onto {x : S'Ax = S'b}."""
    return _as_vector(x, sys.A.shape[1]) - stochastic_gradient(sys, x)


@dataclass(frozen=True)
class EstimationInfo:
    """How an expectation was obtained: exactly or by Monte Carlo.

    An exact estimate keeps the ``support`` it summed over, for E[H] and
    the checks to read; it is left out of repr, comparisons and to_dict.
    """

    kind: str  # "exact" or "monte-carlo"
    n_samples: int | None = None
    se_norm: float | None = None  # spectral norm of the standard-error matrix
    support: Support | None = field(default=None, repr=False, compare=False)

    @property
    def eigenvalue_slack(self) -> float:
        """How far an eigenvalue of W may stray outside [0, 1]: roundoff, plus 3 SE for Monte Carlo."""
        return 1e-8 if self.kind == "exact" else 1e-8 + 3.0 * (self.se_norm or 0.0)

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.n_samples is not None:
            out["n_samples"] = int(self.n_samples)
        if self.se_norm is not None:
            out["se_norm"] = float(self.se_norm)
        return out


def _sketched_rows(a: np.ndarray, sketch: SketchSample) -> np.ndarray:
    """S'A of one sketch as a (1, q, n) stack; index sets gather rows, unsigned."""
    return (sketch.matrix.T @ a if sketch.cols is None else a[list(sketch.cols)])[None]


def _gram_pinvs(rows: np.ndarray, metric: SpdMatrix, per_block: bool = False) -> np.ndarray:
    """(C B^{-1} C')^+ for each (q, n) block C of an (..., q, n) stack, symmetrized.

    Uses the cutoff of :func:`pseudoinverse` on every q-by-q gram. The
    C B^{-1} products are one product of all the stacked rows, or with
    ``per_block`` one per block, on the operands a lone block gives it.
    """
    q, n = rows.shape[-2:]
    if per_block:
        binv_rows = rows @ metric.inv
    else:
        binv_rows = (rows.reshape(-1, n) @ metric.inv).reshape(rows.shape)
    gram = _symmetrize(rows @ np.swapaxes(binv_rows, -1, -2))
    return _symmetrize(_svd_pinv(gram, np.finfo(float).eps * q))


def _support_chunks(a: np.ndarray, metric: SpdMatrix, support: Support):
    """Yield (cols, probs, rows, gram pinvs) over the support in bounded chunks.

    Column signs are dropped: with S = P D for a selection P and a
    diagonal D of +-1, D (D G D)^+ D = G^+, so H and Z do not depend on D.
    """
    step = max(1, _CHUNK_BYTES // (8 * support.q * a.shape[1]))
    for lo in range(0, len(support), step):
        cols = support.cols[lo : lo + step]
        rows = a[cols]
        yield cols, support.probs[lo : lo + step], rows, _gram_pinvs(rows, metric)


def _drawn_blocks(a: np.ndarray, metric: SpdMatrix, dist: SketchDistribution, rng, count: int):
    """Yield (rows, gram pinv) of ``count`` draws from ``rng``, one (1, q, n) and (1, q, q) pair per draw.

    An index family takes every draw from one ``draw`` call, bit-equal to
    ``count`` calls of ``sample``, and gathers rows and pseudo-inverts
    grams in stacked chunks of bounded size, each product on the operands
    one draw gives it alone. Gaussian sketches are sampled one at a time.
    """
    if isinstance(dist, Gaussian):
        for _ in range(count):
            rows = _sketched_rows(a, dist.sample(rng))
            yield rows, _gram_pinvs(rows, metric)
        return
    cols = dist.draw(rng, count)[0]
    step = max(1, _CHUNK_BYTES // (8 * dist.q * a.shape[1]))
    for lo in range(0, count, step):
        rows = a[cols[lo : lo + step]]
        gram_pinv = _gram_pinvs(rows, metric, per_block=True)
        for k in range(len(rows)):
            yield rows[k : k + 1], gram_pinv[k : k + 1]


def _weighted_z_sum(rows: np.ndarray, gram_pinv: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k w_k C_k' G_k^+ C_k as one contraction over the (..., K, q, n) stack.

    einsum adds the atoms one after another, in support order, as a
    per-atom sum does; leading axes are independent supports.
    """
    return np.einsum("...kqi,...kqj->...ij", rows, weights[..., None, None] * (gram_pinv @ rows))


def expected_Z(
    A,
    metric: SpdMatrix,
    dist: SketchDistribution,
    *,
    n_samples: int = DEFAULT_EXPECTATION_SAMPLES,
    seed: int = 0,
    support_cap: int = DEFAULT_SUPPORT_CAP,
):
    """Expectation of Z over the sketch distribution.

    Uses the enumerated support (exact weighted sum over its stacked
    atoms) when available, otherwise a Monte Carlo mean of ``n_samples``
    draws from the stream (seed, EXPECTATION_STREAM) with a reported
    standard error. Only Z is computed per atom or draw, never H. The
    result is symmetrized either way. The support, enumerated at
    ``support_cap``, rides on an exact estimate's info.

    Returns
    -------
    (ndarray, EstimationInfo)
    """
    a = _as_matrix(A, "A")
    n = a.shape[1]
    support = dist.support(support_cap)
    if support is not None:
        ez = np.zeros((n, n))
        for _, probs, rows, gram_pinv in _support_chunks(a, metric, support):
            ez += _weighted_z_sum(rows, gram_pinv, probs)
        return _symmetrize(ez), EstimationInfo(kind="exact", support=support)
    if n_samples < 2:
        raise TooFewSamplesError("Monte Carlo estimation needs at least 2 samples")
    rng = stream(seed, EXPECTATION_STREAM)
    mean = np.zeros((n, n))
    m2 = np.zeros_like(mean)
    one = np.ones(1)
    # one Welford update per draw, in draw order
    for k, (rows, gram_pinv) in enumerate(_drawn_blocks(a, metric, dist, rng, n_samples), start=1):
        z = _symmetrize(_weighted_z_sum(rows, gram_pinv, one))
        delta = z - mean
        mean += delta / k
        m2 += delta * (z - mean)
    se_matrix = np.sqrt(m2 / (n_samples * (n_samples - 1)))
    se_norm = float(np.linalg.norm(se_matrix, 2))
    return _symmetrize(mean), EstimationInfo(kind="monte-carlo", n_samples=n_samples, se_norm=se_norm)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenstructure of W = B^{-1/2} E[Z] B^{-1/2}.

    ``lambdas`` are clamped to [0, 1] for reporting; the raw values are
    retained. ``lambda_min_plus`` is the smallest eigenvalue above
    ``rank_threshold`` and ``zeta = lambda_max / lambda_min_plus`` is the
    condition number governing every convergence rate.
    """

    W: np.ndarray
    U: np.ndarray
    lambdas: np.ndarray
    lambdas_raw: np.ndarray
    lambda_max: float
    lambda_min_plus: float
    zeta: float
    rank_threshold: float
    estimation: EstimationInfo

    def to_dict(self) -> dict:
        return {
            "lambdas": [float(v) for v in self.lambdas],
            "lambda_max": float(self.lambda_max),
            "lambda_min_plus": float(self.lambda_min_plus),
            "zeta": float(self.zeta),
            "rank_threshold": float(self.rank_threshold),
            "estimation": self.estimation.to_dict(),
        }


def rho_basic(spectrum: Spectrum, omega: float) -> float:
    """Mean-error contraction factor max over positive eigenvalues of (1-wl)^2."""
    lo = (1.0 - omega * spectrum.lambda_min_plus) ** 2
    hi = (1.0 - omega * spectrum.lambda_max) ** 2
    return max(lo, hi)


def _positive_floor(lam_raw: np.ndarray):
    """(rank threshold, lambda_min_plus) of descending eigenvalues, or of each row of a stack.

    The threshold is ``1e-10 * max(lambda_0, 0)``;
    lambda_min_plus is the smallest eigenvalue above it, clamped to
    [0, 1], and infinite where no eigenvalue is above it.
    """
    threshold = 1e-10 * np.maximum(lam_raw[..., 0], 0.0)
    # an eigenvalue above the (nonnegative) threshold needs clamping only at 1
    positive = np.where(lam_raw > threshold[..., None], np.minimum(lam_raw, 1.0), np.inf)
    return threshold, positive.min(axis=-1)


def spectrum_of(ez, metric: SpdMatrix, estimation: EstimationInfo | None = None) -> Spectrum:
    """Eigendecomposition of W with the condition number of the setup.

    Raises :class:`DegenerateSpectrumError` when every eigenvalue falls
    below the rank threshold, which only happens for A = 0.
    """
    estimation = estimation or EstimationInfo(kind="exact")
    w = _symmetrize(metric.inv_sqrt @ _as_matrix(ez, "expected Z") @ metric.inv_sqrt)
    u, lam_raw = sym_eigendecomposition(w, sym_tol=1e-8)
    slack = estimation.eigenvalue_slack
    if lam_raw[0] > 1.0 + slack or lam_raw[-1] < -slack:
        raise ValueError(
            f"eigenvalues of W must lie in [0, 1], got range "
            f"[{lam_raw[-1]:.3e}, {lam_raw[0]:.3e}]"
        )
    lam = np.clip(lam_raw, 0.0, 1.0)
    lambda_max = float(lam[0])
    threshold, lambda_min_plus = _positive_floor(lam_raw)
    if lambda_max <= 0.0 or lambda_min_plus == np.inf:
        raise DegenerateSpectrumError("all eigenvalues of W are numerically zero")
    lambda_min_plus = float(lambda_min_plus)
    return Spectrum(
        W=_readonly(w),
        U=_readonly(u),
        lambdas=_readonly(lam),
        lambdas_raw=_readonly(lam_raw),
        lambda_max=lambda_max,
        lambda_min_plus=lambda_min_plus,
        zeta=lambda_max / lambda_min_plus,
        rank_threshold=float(threshold),
        estimation=estimation,
    )


class Reformulation:
    """A problem paired with a sketch distribution and its diagnostics.

    Carries E[Z] (exact or Monte Carlo), the spectrum of W, and a cached
    anchor solution x0* (the minimum-B-norm solution) so the averaged
    loss f and its gradient can be evaluated directly:

        f(x) = (x - x0*)' E[Z] (x - x0*) / 2
        grad f(x) = B^{-1} E[Z] (x - x0*)

    Any solution works as the anchor; the cached one is used throughout.
    """

    def __init__(
        self,
        problem: Problem,
        dist: SketchDistribution,
        ez: np.ndarray,
        estimation: EstimationInfo,
        spectrum: Spectrum,
    ):
        self.problem = problem
        self.dist = dist
        self.expected_Z = _readonly(np.array(ez))
        self.estimation = estimation
        self.spectrum = spectrum
        self.x_star = problem.min_norm_solution
        self._expected_H = None

    def f_value(self, x) -> float:
        e = _as_vector(x, self.problem.n) - self.x_star
        return 0.5 * float(e @ self.expected_Z @ e)

    def grad_f(self, x) -> np.ndarray:
        e = _as_vector(x, self.problem.n) - self.x_star
        return self.problem.metric.inv @ (self.expected_Z @ e)

    def expected_H(self) -> np.ndarray | None:
        """E[H] over the support E[Z] was summed over; None for a Monte Carlo E[Z].

        Each atom adds its q-by-q block p G^+ at rows and columns
        ``cols``; no per-atom m-by-m H is formed.
        """
        if self._expected_H is None:
            support = self.estimation.support
            if support is None:
                return None
            eh = np.zeros((self.problem.m, self.problem.m))
            chunks = _support_chunks(self.problem.A, self.problem.metric, support)
            for cols, probs, _, gram_pinv in chunks:
                index = (cols[:, :, None], cols[:, None, :])
                np.add.at(eh, index, probs[:, None, None] * gram_pinv)
            self._expected_H = _readonly(_symmetrize(eh))
        return self._expected_H

    def exactness(self) -> str:
        return check_exactness(self)

    def diagnostics(self) -> dict:
        spec = self.spectrum
        omega_star = 2.0 / (spec.lambda_min_plus + spec.lambda_max)
        out = spec.to_dict()
        out["exactness"] = self.exactness()
        out["omega_star"] = omega_star
        out["rho_unit"] = rho_basic(spec, 1.0)
        out["rho_inverse_lambda_max"] = rho_basic(spec, 1.0 / spec.lambda_max)
        out["rho_omega_star"] = rho_basic(spec, omega_star)
        return out


def build_reformulation(
    problem: Problem,
    dist: SketchDistribution,
    *,
    seed: int = 0,
    n_samples: int = DEFAULT_EXPECTATION_SAMPLES,
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> Reformulation:
    """Estimate E[Z], decompose W, and bundle the diagnostics."""
    if dist.m != problem.m:
        raise ValueError(f"distribution is over {dist.m}-row sketches, system has {problem.m} rows")
    ez, info = expected_Z(
        problem.A,
        problem.metric,
        dist,
        n_samples=n_samples,
        seed=seed,
        support_cap=support_cap,
    )
    spec = spectrum_of(ez, problem.metric, info)
    return Reformulation(problem, dist, ez, info, spec)


def check_exactness(reform: Reformulation) -> str:
    """Decide whether minimizing f recovers exactly the solutions of Ax = b.

    The criterion is null(E[Z]) = null(A). Substituting x = B^{-1/2} y,
    it reads null(W) = null(A B^{-1/2}) with W = B^{-1/2} E[Z] B^{-1/2},
    which is decided on n-by-n objects the reformulation already holds:
    the eigendecomposition of W from its spectrum, and the singular
    values S and right singular vectors V' of the thin SVD
    A B^{-1/2} = U S V' kept by its problem. Three tests, in order, each
    relative to ``tol = 1e-8``:

    1. the ranks agree: eigenvalues of W above ``tol * lambda_max``
       against singular values above ``tol * sigma_max``;
    2. A B^{-1/2} annihilates the null basis N of W: the entries of
       S V' N (that is U' A B^{-1/2} N) stay within ``tol * sigma_max``;
    3. W annihilates the complement of the row space span(V_r) of
       A B^{-1/2}: the entries of W - (W V_r) V_r' stay within
       ``tol * lambda_max``.

    Only the thin V enters, so wide systems and a dense B take the same
    path. Needs an exactly known E[Z]; with a Monte Carlo estimate the
    verdict is "undecidable".

    Returns one of "exact", "not-exact", "undecidable".
    """
    if reform.estimation.kind != "exact":
        return "undecidable"
    tol = 1e-8
    problem, spectrum = reform.problem, reform.spectrum
    sv, vt = problem.singular_values, problem.right_singular_vectors
    lam, w = spectrum.lambdas_raw, spectrum.W
    scale_a = max(float(sv[0]), 1e-300)
    scale_w = max(float(lam[0]), 1e-300)
    rank = int((sv > tol * sv[0]).sum())
    if int((lam > tol * scale_w).sum()) != rank:
        return "not-exact"
    null_w = spectrum.U[:, rank:]
    if null_w.shape[1] and float(np.abs((sv[:, None] * vt) @ null_w).max()) > tol * scale_a:
        return "not-exact"
    if rank < problem.n:
        row = vt[:rank].T
        if float(np.abs(w - (w @ row) @ row.T).max()) > tol * scale_w:
            return "not-exact"
    return "exact"
