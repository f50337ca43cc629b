"""Dense linear-algebra substrate.

Pseudoinverses, symmetric eigendecompositions, B-weighted geometry
(norms, matrix square roots) and :class:`Problem`, a system Ax = b that
certifies its own consistency and projects onto its solution set.
Everything here is dense and aimed at desk-scale systems (dimensions
up to a few thousand); all returned arrays are read-only so instances
can be shared freely across threads.

The weighted pseudoinverse of an m-by-n system factorizes the m-by-n
matrix A B^{-1/2}, never the m-by-m core A B^{-1} A', whose condition
number is the square of it. :class:`Problem` computes that thin SVD
A B^{-1/2} = U S V' once and it serves three uses: the pseudoinverse
behind projections, the consistency check, and the exactness verdict.
Exactness asks whether null(E[Z]) = null(A); with W = B^{-1/2} E[Z]
B^{-1/2} that is null(W) = null(A B^{-1/2}), an n-by-n question that S
and V' (kept on the problem) and the eigendecomposition of W answer
without touching A again.
"""

from __future__ import annotations

import numpy as np

# a consistent system leaves a least-norm residual of at most this times 1 + ||b||
_CONSISTENCY_TOL = 1e-10

__all__ = [
    "InconsistentSystemError",
    "pseudoinverse",
    "sym_eigendecomposition",
    "SpdMatrix",
    "b_pseudoinverse",
    "Problem",
]


class InconsistentSystemError(ValueError):
    """Raised when a linear system Ax = b has no solution."""

    def __init__(self, residual: float, tol: float):
        self.residual = float(residual)
        self.tol = float(tol)
        super().__init__(
            f"system is inconsistent: best-approximation residual "
            f"{self.residual:.6e} exceeds tolerance {self.tol:.6e}"
        )


def _as_matrix(mat, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """A finite, non-empty float matrix; with ``stack``, also an (..., r, c) stack of them."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 and not (stack and a.ndim > 2):
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if a.shape[-2] < 1 or a.shape[-1] < 1:
        raise ValueError(f"{name} must be non-empty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def _as_vector(vec, length: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.asarray(vec, dtype=float).reshape(-1)
    if length is not None and v.size != length:
        raise ValueError(f"{name} has length {v.size}, expected {length}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite entries")
    return v


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def _pinv_from_svd(u: np.ndarray, s: np.ndarray, vt: np.ndarray, rel_tol: float) -> np.ndarray:
    """Pseudoinverse V S^+ U' assembled from a thin SVD (or a stack of them).

    Singular values at or below ``rel_tol`` times the largest one of the
    same matrix are treated as zero.
    """
    inv_s = np.divide(1.0, s, out=np.zeros(s.shape), where=s > rel_tol * s[..., :1])
    return (vt.swapaxes(-1, -2) * inv_s[..., None, :]) @ u.swapaxes(-1, -2)


def _svd_pinv(a: np.ndarray, rel_tol: float) -> np.ndarray:
    """Pseudoinverse of a matrix, or of each matrix in an (..., r, c) stack.

    A 1-by-1 [g] is inverted as 1/g under the same cutoff (+0 where it
    drops g, as at g = 0): the SVD's result bit for bit at zero and
    subnormal g and for 6.72e-139 <= |g| <= 1.49e138, where LAPACK does
    not rescale, and within 2 ulps of it elsewhere.
    """
    if a.shape[-2:] == (1, 1):
        s = np.abs(a)
        return np.divide(1.0, a, out=np.zeros(a.shape), where=s > rel_tol * s)
    return _pinv_from_svd(*np.linalg.svd(a, full_matrices=False), rel_tol)


def pseudoinverse(mat, rel_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``rel_tol * sigma_max`` are treated as zero.
    The default threshold is ``eps * max(rows, cols)``, the usual
    numerically robust rank cutoff.

    Parameters
    ----------
    mat : array_like, shape (m, n)
    rel_tol : float, optional
        Relative singular-value cutoff in (0, 1).

    Returns
    -------
    ndarray, shape (n, m)
    """
    a = _as_matrix(mat)
    if rel_tol is None:
        rel_tol = np.finfo(float).eps * max(a.shape)
    elif not (0.0 < rel_tol < 1.0):
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    return _svd_pinv(a, rel_tol)


def sym_eigendecomposition(mat, sym_tol: float = 1e-10):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Returns ``(U, lambdas)`` with orthonormal columns in ``U`` and
    ``U @ diag(lambdas) @ U.T`` reconstructing the input. Raises if the
    input is asymmetric beyond ``sym_tol`` (relative to the largest
    entry). An (..., n, n) stack is decomposed matrix by matrix, each
    checked against its own largest entry.
    """
    a = _as_matrix(mat, stack=True)
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    if (np.abs(a - np.swapaxes(a, -1, -2)).max(axis=(-2, -1)) > sym_tol * scale).any():
        raise ValueError("matrix is not symmetric within tolerance")
    lam, u = np.linalg.eigh(_symmetrize(a))
    return u[..., ::-1].copy(), lam[..., ::-1].copy()


class SpdMatrix:
    """A symmetric positive definite matrix with cached factorizations.

    Holds the matrix together with its symmetric square root, inverse
    square root and inverse, all computed once at construction from a
    symmetric eigendecomposition. Eigenvalues at or below
    ``1e-12 * lambda_max`` are an error, not clamped: the weighting
    matrix must be strictly positive definite. ``is_identity`` records
    once whether it is exactly I, where products with it can be skipped.
    """

    def __init__(self, mat):
        a = _as_matrix(mat, "spd matrix")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"spd matrix must be square, got shape {a.shape}")
        scale = float(np.abs(a).max())
        if scale == 0.0:
            raise ValueError("spd matrix is zero")
        if float(np.abs(a - a.T).max()) > 1e-12 * scale:
            raise ValueError("spd matrix is not symmetric within tolerance")
        a = _symmetrize(a)
        lam, u = np.linalg.eigh(a)
        if lam[-1] <= 0.0 or lam[0] <= 1e-12 * lam[-1]:
            raise ValueError(
                f"matrix is not positive definite: eigenvalue range "
                f"[{lam[0]:.3e}, {lam[-1]:.3e}]"
            )
        self.dim = a.shape[0]
        self.is_identity = bool(np.array_equal(a, np.eye(self.dim)))
        self.mat = _readonly(a)
        self.sqrt = _readonly(_symmetrize((u * np.sqrt(lam)) @ u.T))
        self.inv_sqrt = _readonly(_symmetrize((u / np.sqrt(lam)) @ u.T))
        self.inv = _readonly(_symmetrize((u / lam) @ u.T))
        self.eigenvalues = _readonly(lam[::-1].copy())

    @classmethod
    def identity(cls, n: int) -> "SpdMatrix":
        """The n-by-n identity; its factorizations are all I, so none is computed."""
        n = int(n)
        if n < 1:
            raise ValueError(f"identity dimension must be positive, got {n}")
        out = cls.__new__(cls)
        out.dim = n
        out.is_identity = True
        out.mat = out.sqrt = out.inv_sqrt = out.inv = _readonly(np.eye(n))
        out.eigenvalues = _readonly(np.ones(n))
        return out

    @classmethod
    def from_diagonal(cls, values) -> "SpdMatrix":
        v = _as_vector(values, name="diagonal")
        return cls(np.diag(v))

    def norm_sq(self, x) -> float:
        x = _as_vector(x, self.dim)
        return float(x @ self.mat @ x)

    def norm(self, x) -> float:
        return float(np.sqrt(max(self.norm_sq(x), 0.0)))

    def __repr__(self):
        return f"SpdMatrix(dim={self.dim})"


def b_pseudoinverse(mat, metric: SpdMatrix) -> np.ndarray:
    """Weighted pseudoinverse B^{-1} M' (M B^{-1} M')^+.

    Computed as B^{-1/2} (M B^{-1/2})^+ from the thin SVD
    M B^{-1/2} = U S V', without forming the core M B^{-1} M' = U S^2 U'.
    Singular values are kept where S_i > sqrt(eps * rows) * S_0, that is
    S_i^2 > eps * rows * S_0^2: the rank decision :func:`pseudoinverse`
    would make on that core. Reduces to the ordinary Moore-Penrose
    pseudoinverse when the metric is the identity. ``mat`` must have
    ``metric.dim`` columns.
    """
    return _b_pinv_from_svd(_weighted_svd(_as_matrix(mat), metric), metric)


def _weighted_svd(a: np.ndarray, metric: SpdMatrix):
    """Thin SVD ``(U, S, V')`` of A B^{-1/2}, the factor step of :func:`b_pseudoinverse`."""
    if a.shape[1] != metric.dim:
        raise ValueError(
            f"matrix has {a.shape[1]} columns, metric has dimension {metric.dim}"
        )
    return np.linalg.svd(a @ metric.inv_sqrt, full_matrices=False)


def _b_pinv_from_svd(factors, metric: SpdMatrix) -> np.ndarray:
    """B^{-1/2} (A B^{-1/2})^+ from :func:`_weighted_svd`, the assemble step."""
    u, s, vt = factors
    rel_tol = np.sqrt(np.finfo(float).eps * u.shape[0])
    return metric.inv_sqrt @ _pinv_from_svd(u, s, vt, rel_tol)


class Problem:
    """A consistent linear system Ax = b together with an SPD weighting B.

    Consistency is certified at construction; the certified residual is
    kept on the instance. The weighted pseudoinverse of A is cached so
    projections onto the solution set are cheap to repeat. It comes from
    one thin SVD A B^{-1/2} = U S V', whose singular values S
    (``singular_values``, descending, min(m, n) of them) and right
    singular vectors V' (``right_singular_vectors``, min(m, n) by n) are
    kept read-only: the exactness verdict of a reformulation reads them
    instead of factoring A again.
    """

    def __init__(self, mat, rhs, metric: SpdMatrix | None = None):
        self.A = _readonly(_as_matrix(mat, "A"))
        self.b = _readonly(_as_vector(rhs, self.A.shape[0], "b"))
        self.m, self.n = self.A.shape
        self.metric = SpdMatrix.identity(self.n) if metric is None else metric
        if self.metric.dim != self.n:
            raise ValueError(
                f"metric dimension {self.metric.dim} does not match {self.n} unknowns"
            )
        factors = _weighted_svd(self.A, self.metric)
        _, sv, vt = factors
        self._dagger = _readonly(_b_pinv_from_svd(factors, self.metric))
        self.singular_values = _readonly(sv)
        self.right_singular_vectors = _readonly(vt)
        x_min = self._dagger @ self.b
        self.consistency_residual = float(np.linalg.norm(self.A @ x_min - self.b))
        bound = _CONSISTENCY_TOL * (1.0 + float(np.linalg.norm(self.b)))
        if self.consistency_residual > bound:
            raise InconsistentSystemError(self.consistency_residual, bound)
        self.min_norm_solution = _readonly(x_min)

    def project(self, x) -> np.ndarray:
        """B-norm projection of x onto the solution set."""
        v = _as_vector(x, self.n)
        return v - self._dagger @ (self.A @ v - self.b)

    def range_projector_apply(self, d) -> np.ndarray:
        """B-orthogonal projection of d onto range(B^{-1} A')."""
        v = _as_vector(d, self.n)
        return self._dagger @ (self.A @ v)

    def __repr__(self):
        return f"Problem(m={self.m}, n={self.n})"
