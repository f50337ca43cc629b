"""Reference problem generators.

All generators return ``(A, b, metric, x_planted)`` with the right-hand
side constructed as b = A @ x_planted, so the systems are consistent by
construction (the gossip generator uses b = 0 and x_planted = 0).
"""

from __future__ import annotations

import numpy as np

from .linalg import SpdMatrix
from .sketching import stream

__all__ = [
    "gaussian_consistent",
    "diagonal_problem",
    "spd_with_matching_metric",
    "gossip_incidence",
]


def gaussian_consistent(rows: int, cols: int, seed: int = 0):
    """Dense Gaussian A with a planted solution."""
    rng = stream(seed, 7, 1)
    a = rng.standard_normal((rows, cols))
    x = rng.standard_normal(cols)
    return a, a @ x, SpdMatrix.identity(cols), x


def diagonal_problem(diagonal=None, size: int | None = None, condition: float | None = None,
                     planted=None, seed: int = 0):
    """Diagonal A, optionally shaped to a target row-sampling condition number.

    With ``size`` and ``condition`` given, the diagonal is a geometric
    ramp from 1 to sqrt(condition): squared-row-norm sampling then has
    largest-to-smallest eigenvalue ratio exactly ``condition``.
    """
    if diagonal is None:
        if size is None or condition is None:
            raise ValueError("need either an explicit diagonal or size and condition")
        if size < 2 or condition < 1.0:
            raise ValueError("size must be >= 2 and condition >= 1")
        diagonal = np.geomspace(1.0, np.sqrt(condition), int(size))
    d = np.asarray(diagonal, dtype=float).reshape(-1)
    if np.any(d == 0.0):
        raise ValueError("diagonal entries must be nonzero")
    a = np.diag(d)
    if planted is None:
        x = np.ones(d.size) if seed == 0 else stream(seed, 7, 2).standard_normal(d.size)
    else:
        x = np.asarray(planted, dtype=float).reshape(-1)
        if x.size != d.size:
            raise ValueError("planted solution has wrong length")
    return a, a @ x, SpdMatrix.identity(d.size), x


def spd_with_matching_metric(size: int, condition: float = 10.0, seed: int = 0):
    """Symmetric positive definite A used as its own weighting matrix."""
    if size < 1 or condition < 1.0:
        raise ValueError("size must be >= 1 and condition >= 1")
    rng = stream(seed, 7, 3)
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    lam = np.geomspace(1.0, condition, size)
    a = 0.5 * ((q * lam) @ q.T + ((q * lam) @ q.T).T)
    x = rng.standard_normal(size)
    return a, a @ x, SpdMatrix(a), x


def _connected(n_nodes: int, edges) -> bool:
    seen = {0}
    frontier = [0]
    adj = [[] for _ in range(n_nodes)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == n_nodes


def gossip_incidence(nodes: int, topology: str = "random", extra_edges: int = 0,
                     edges=None, seed: int = 0):
    """Edge-incidence system of a connected graph with b = 0.

    Each edge (u, v) contributes the row e_u - e_v, so A @ 1 = 0 and the
    solution set of Ax = 0 is the consensus line. Explicit edge lists
    are accepted but must describe a connected graph.
    """
    if nodes < 2:
        raise ValueError("need at least 2 nodes")
    if edges is not None:
        edge_list = [(int(u), int(v)) for u, v in edges]
        for u, v in edge_list:
            if not (0 <= u < nodes and 0 <= v < nodes) or u == v:
                raise ValueError(f"invalid edge ({u}, {v})")
        if not _connected(nodes, edge_list):
            raise ValueError("edge list does not describe a connected graph")
    elif topology == "path":
        edge_list = [(i, i + 1) for i in range(nodes - 1)]
    elif topology == "cycle":
        edge_list = [(i, (i + 1) % nodes) for i in range(nodes)]
    elif topology == "random":
        rng = stream(seed, 7, 4)
        order = rng.permutation(nodes)
        edge_list = [(int(order[i]), int(order[i + 1])) for i in range(nodes - 1)]
        present = set(tuple(sorted(e)) for e in edge_list)
        attempts = 0
        while len(edge_list) < nodes - 1 + extra_edges and attempts < 100 * (extra_edges + 1):
            u, v = (int(x) for x in rng.integers(0, nodes, size=2))
            attempts += 1
            if u != v and tuple(sorted((u, v))) not in present:
                present.add(tuple(sorted((u, v))))
                edge_list.append((u, v))
    else:
        raise ValueError(f"unknown topology {topology!r}")
    a = np.zeros((len(edge_list), nodes))
    for row, (u, v) in enumerate(edge_list):
        a[row, u] = 1.0
        a[row, v] = -1.0
    x = np.zeros(nodes)
    return a, np.zeros(len(edge_list)), SpdMatrix.identity(nodes), x

