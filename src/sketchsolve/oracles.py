"""Standalone numerical oracles for identities the solvers rely on.

These live apart from the solver code on purpose: nothing in the main
path imports them, so they can be used by the test suite and the
validation report to audit the algebra independently.

Every oracle takes a single instance (2-D matrices) or a stack of
instances of one shape with leading axes (``(..., r, c)`` matrices),
and evaluates a stack matrix by matrix with the same arithmetic as one
instance: a stacked result equals the per-instance results bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SpdMatrix, _as_matrix, _symmetrize, sym_eigendecomposition
from .reformulation import _positive_floor

__all__ = [
    "SmwInstance",
    "smw_inverse",
    "random_smw_instance",
    "random_smw_instances",
    "psd_sandwich_residual",
    "range_restricted_eigen_bound",
]


@dataclass(frozen=True, eq=False)
class SmwInstance:
    """Instance (M, C, N, D) of the low-rank update inverse identity.

    Each field is one matrix, or a stack of matrices with the same
    leading axes in every field.
    """

    M: np.ndarray
    C: np.ndarray
    N: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.M, "M", stack=True)
        c = _as_matrix(self.C, "C", stack=True)
        n = _as_matrix(self.N, "N", stack=True)
        d = _as_matrix(self.D, "D", stack=True)
        if m.shape[-2] != m.shape[-1] or n.shape[-2] != n.shape[-1]:
            raise ValueError("M and N must be square")
        if c.shape[-2:] != (m.shape[-1], n.shape[-1]) or d.shape[-2:] != (n.shape[-1], m.shape[-1]):
            raise ValueError("C must be n-by-q and D q-by-n")
        if not m.shape[:-2] == c.shape[:-2] == n.shape[:-2] == d.shape[:-2]:
            raise ValueError("M, C, N and D must stack the same number of matrices")
        for name, mat in (("M", m), ("N", n)):
            if (np.linalg.cond(mat) >= 1e12).any():
                raise ValueError(f"{name} is too ill-conditioned (cond >= 1e12)")


def smw_inverse(inst: SmwInstance) -> np.ndarray:
    """Inverse of M + C N D through the Sherman-Morrison-Woodbury form.

    Returns M^{-1} - M^{-1}C (N^{-1} + D M^{-1} C)^{-1} D M^{-1}, one
    inverse per stacked instance. A singular inner matrix
    N^{-1} + D M^{-1} C raises LinAlgError.
    """
    m_inv = np.linalg.inv(inst.M)
    n_inv = np.linalg.inv(inst.N)
    inner = n_inv + inst.D @ m_inv @ inst.C
    inner_inv = np.linalg.inv(inner)
    return m_inv - m_inv @ inst.C @ inner_inv @ inst.D @ m_inv


def random_smw_instances(rng, count: int, max_cond: float = 1e3) -> list[SmwInstance]:
    """The instances of ``count`` repeated :func:`random_smw_instance` calls, stacked by shape.

    Every candidate consumes the same random numbers whether or not it
    is accepted, so each round draws as many candidates as are still
    needed, tests them in one stack per shape and keeps the accepted
    ones: the same candidates are drawn and accepted as one call at a
    time would, and ``rng`` ends in the same state. Returns one stacked
    :class:`SmwInstance` per shape (n, q), each holding its instances in
    draw order.
    """
    accepted: dict[tuple[int, int], list] = {}
    need = int(count)
    while need > 0:
        drawn: dict[tuple[int, int], list] = {}
        for _ in range(need):
            n, q = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            m = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            c = rng.standard_normal((n, q))
            nn = rng.standard_normal((q, q)) + 3.0 * np.eye(q)
            d = rng.standard_normal((q, n))
            drawn.setdefault((n, q), []).append((m, c, nn, d))
        for shape, candidates in drawn.items():
            m, c, nn, d = (np.stack(parts) for parts in zip(*candidates))
            inner = np.linalg.inv(nn) + d @ np.linalg.inv(m) @ c
            ok = (np.linalg.cond(inner) <= max_cond) & (np.linalg.cond(m + c @ nn @ d) <= max_cond)
            kept = [cand for cand, keep in zip(candidates, ok) if keep]
            if kept:
                accepted.setdefault(shape, []).extend(kept)
                need -= len(kept)
    return [SmwInstance(*(np.stack(parts) for parts in zip(*group))) for group in accepted.values()]


def random_smw_instance(rng, max_cond: float = 1e3) -> SmwInstance:
    """Well-conditioned random instance for auditing the update identity.

    Rejects draws where the inner matrix N^{-1} + D M^{-1} C or the
    updated matrix M + CND exceed ``max_cond``; near-singular inner
    matrices make the identity numerically vacuous.
    """
    [stack] = random_smw_instances(rng, 1, max_cond)
    return SmwInstance(stack.M[0], stack.C[0], stack.N[0], stack.D[0])


def psd_sandwich_residual(mat, mu):
    """Residual of the pseudoinverse sandwich identity.

    For symmetric PSD M and mu > 0,

        P^{1/2} (I + (1/mu) P^{1/2} M P^{1/2})^{-1} P^{1/2}
            = mu/(1+mu) * P,        P = M^+.

    The middle factor behaves as if P^{1/2} M P^{1/2} were the identity
    even when M is rank deficient. Returns the max-abs difference of
    the two sides: a float for one matrix, one residual per matrix for
    an (..., n, n) stack, with ``mu`` a scalar or one value per matrix.
    """
    mu = np.asarray(mu, dtype=float)
    if (mu <= 0.0).any():
        raise ValueError("mu must be positive")
    a = _symmetrize(_as_matrix(mat, "M", stack=True))
    u, lam = sym_eigendecomposition(a)
    cutoff = 1e-12 * np.maximum(np.abs(lam[..., :1]), 1.0)
    inv_lam = np.where(np.abs(lam) > cutoff, 1.0 / np.where(np.abs(lam) > cutoff, lam, 1.0), 0.0)
    u_t = np.swapaxes(u, -1, -2)
    p = _symmetrize((u * inv_lam[..., None, :]) @ u_t)
    p_half = _symmetrize((u * np.sqrt(np.maximum(inv_lam, 0.0))[..., None, :]) @ u_t)
    mu = mu[..., None, None]
    n = a.shape[-1]
    lhs = p_half @ np.linalg.inv(np.eye(n) + (1.0 / mu) * (p_half @ a @ p_half)) @ p_half
    rhs = (mu / (1.0 + mu)) * p
    residual = np.abs(lhs - rhs).max(axis=(-2, -1))
    return float(residual) if residual.ndim == 0 else residual


def range_restricted_eigen_bound(ez, metric: SpdMatrix, x, lambda_min_plus=None):
    """Check x'Wx >= lambda_min_plus(W) x'x - 1e-9 on range(B^{-1/2}A').

    W = B^{-1/2} E[Z] B^{-1/2}; the bound holds for every x in the
    stated range under exactness, even though W may be singular. The
    caller supplies x already in that range (for example
    x = B^{-1/2} A' w for a random w). Without ``lambda_min_plus`` it
    is found by the rank threshold of :func:`spectrum_of`. For an
    (..., n, n) stack of E[Z] under one metric, with an (..., n) stack
    of x, returns one verdict per instance; for one instance, a bool.
    """
    w = _symmetrize(metric.inv_sqrt @ _as_matrix(ez, "expected Z", stack=True) @ metric.inv_sqrt)
    v = np.asarray(x, dtype=float).reshape(w.shape[:-1])
    if lambda_min_plus is None:
        _, lam = sym_eigendecomposition(w)
        _, lambda_min_plus = _positive_floor(lam)
        if (lambda_min_plus == np.inf).any():
            raise ValueError("W has no nonzero eigenvalues")
    row, col = v[..., None, :], v[..., :, None]
    ok = (row @ w @ col)[..., 0, 0] >= lambda_min_plus * (row @ col)[..., 0, 0] - 1e-9
    return bool(ok) if ok.ndim == 0 else ok
