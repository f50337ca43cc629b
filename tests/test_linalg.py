import numpy as np
import pytest

from sketchsolve.linalg import (
    InconsistentSystemError,
    Problem,
    SpdMatrix,
    _pinv_from_svd,
    _svd_pinv,
    b_pseudoinverse,
    pseudoinverse,
    sym_eigendecomposition,
)
from sketchsolve.sketching import stream


def identity_metric(n):
    return SpdMatrix.identity(n)


class TestPseudoinverse:
    def test_identity(self):
        assert np.allclose(pseudoinverse(np.eye(3)), np.eye(3))

    def test_diagonal_with_zero(self):
        assert np.allclose(pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_rank_one(self):
        m = np.ones((2, 2))
        p = pseudoinverse(m)
        assert np.allclose(p, 0.25 * np.ones((2, 2)))

    def test_penrose_conditions_random(self):
        rng = stream(11, 0)
        for _ in range(50):
            rows, cols = rng.integers(1, 7, size=2)
            rank = int(rng.integers(1, min(rows, cols) + 1))
            m = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
            p = pseudoinverse(m)
            scale = max(1.0, np.abs(m).max())
            assert np.abs(m @ p @ m - m).max() <= 1e-9 * scale
            assert np.abs(p @ m @ p - p).max() <= 1e-9 * max(1.0, np.abs(p).max())
            assert np.abs((m @ p) - (m @ p).T).max() <= 1e-9
            assert np.abs((p @ m) - (p @ m).T).max() <= 1e-9

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            pseudoinverse(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            pseudoinverse(np.eye(2), rel_tol=1.5)


def svd_route(a, rel_tol):
    """The SVD pseudoinverse that 1-by-1 matrices no longer take, kept as the oracle."""
    return _pinv_from_svd(*np.linalg.svd(a, full_matrices=False), rel_tol)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestOneByOnePseudoinverse:
    # LAPACK leaves a matrix unscaled when its norm lies in [sqrt(tiny) / eps, eps / sqrt(tiny)],
    # about [6.72e-139, 1.49e138]: there, and at zero and subnormal g, the routes agree bit for bit
    G = [2.5, -3.0, 1 / 3, -0.1, 7.0, 1e-100, -1e100, 1.4e138, -6.8e-139, 5e-324, -5e-324, 1e-310, 2e-308, 0.0, -0.0]

    @pytest.mark.parametrize("rel_tol", [np.finfo(float).eps, 1e-8, 0.5, 0.999])
    def test_equals_svd_route_bitwise(self, rel_tol):
        rng = stream(12, 0)
        g = np.concatenate(
            [self.G, rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-138.1, 138.1, 2000)]
        )
        stack = g[:, None, None]
        with np.errstate(over="ignore"):  # 1/g overflows to inf below 5.6e-309, on both routes
            expected = svd_route(stack, rel_tol)
            assert np.array_equal(bits(_svd_pinv(stack, rel_tol)), bits(expected))
            nested = _svd_pinv(stack.reshape(5, -1, 1, 1), rel_tol)
            assert np.array_equal(bits(nested), bits(expected).reshape(5, -1, 1, 1))
            for k in range(len(self.G)):
                assert bits(pseudoinverse(stack[k], rel_tol)) == bits(expected[k])

    def test_zero_gives_positive_zero(self):
        for g in (0.0, -0.0):
            assert bits(pseudoinverse([[g]])) == bits(0.0)
            assert bits(svd_route(np.array([[g]]), 1e-15)) == bits(0.0)
        # the default cutoff drops nothing else, not even the smallest subnormal
        with np.errstate(over="ignore"):
            assert pseudoinverse([[5e-324]])[0, 0] == np.inf
            assert pseudoinverse([[-5e-324]])[0, 0] == -np.inf

    def test_rescaled_range_is_the_correctly_rounded_reciprocal(self):
        rng = stream(13, 0)
        g = rng.choice([-1.0, 1.0], 4000) * np.concatenate(
            [10.0 ** rng.uniform(-307.6, -138.2, 2000), 10.0 ** rng.uniform(138.2, 308.2, 2000)]
        )
        stack = g[:, None, None]
        got = _svd_pinv(stack, 1e-15)
        assert np.array_equal(bits(got), bits(1.0 / stack))
        assert np.abs(bits(got) - bits(svd_route(stack, 1e-15))).max() <= 2


class TestEigendecomposition:
    def test_diagonal(self):
        u, lam = sym_eigendecomposition(np.diag([3.0, 1.0]))
        assert np.allclose(lam, [3.0, 1.0])
        assert np.allclose(np.abs(u), np.eye(2))

    def test_identity(self):
        _, lam = sym_eigendecomposition(np.eye(4))
        assert np.allclose(lam, np.ones(4))

    def test_two_by_two(self):
        # characteristic polynomial of [[2,1],[1,2]] has roots 3 and 1
        u, lam = sym_eigendecomposition(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(lam, [3.0, 1.0])
        assert np.abs(u.T @ u - np.eye(2)).max() <= 1e-10
        assert np.abs((u * lam) @ u.T - np.array([[2, 1], [1, 2]])).max() <= 1e-9

    def test_descending_and_reconstruction_random(self):
        rng = stream(12, 0)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            g = rng.standard_normal((n, n))
            m = g + g.T
            u, lam = sym_eigendecomposition(m)
            assert np.all(np.diff(lam) <= 1e-12)
            assert np.abs(u.T @ u - np.eye(n)).max() <= 1e-10
            assert np.abs((u * lam) @ u.T - m).max() <= 1e-9 * max(1.0, np.abs(m).max())

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eigendecomposition(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestSpdMatrix:
    def test_factors(self):
        rng = stream(13, 0)
        g = rng.standard_normal((4, 4))
        b = SpdMatrix(g @ g.T + 4 * np.eye(4))
        assert np.abs(b.sqrt @ b.sqrt - b.mat).max() <= 1e-10 * np.abs(b.mat).max()
        assert np.abs(b.inv_sqrt @ b.mat @ b.inv_sqrt - np.eye(4)).max() <= 1e-10
        assert np.abs(b.inv @ b.mat - np.eye(4)).max() <= 1e-9

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            SpdMatrix(np.diag([1.0, -1.0]))

    def test_rejects_semidefinite(self):
        with pytest.raises(ValueError):
            SpdMatrix(np.diag([1.0, 0.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SpdMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_arrays_are_readonly(self):
        b = SpdMatrix.identity(2)
        with pytest.raises(ValueError):
            b.mat[0, 0] = 2.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 100])
    def test_identity_equals_factorized_eye_bitwise(self, n):
        built, factorized = SpdMatrix.identity(n), SpdMatrix(np.eye(n))
        assert built.dim == factorized.dim == n
        for attr in ("mat", "sqrt", "inv_sqrt", "inv", "eigenvalues"):
            got, want = getattr(built, attr), getattr(factorized, attr)
            assert got.dtype == want.dtype and got.shape == want.shape, attr
            assert got.tobytes() == want.tobytes(), attr
            assert not got.flags.writeable, attr

    def test_identity_rejects_empty(self):
        with pytest.raises(ValueError):
            SpdMatrix.identity(0)


class TestBNorm:
    def test_zero(self):
        assert identity_metric(2).norm(np.zeros(2)) == 0.0

    def test_euclidean(self):
        assert identity_metric(2).norm([3.0, 4.0]) == pytest.approx(5.0)

    def test_weighted(self):
        assert SpdMatrix.from_diagonal([4.0, 1.0]).norm([1.0, 2.0]) == pytest.approx(np.sqrt(8.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            identity_metric(2).norm([1.0, 2.0, 3.0])

    def test_positive_definite(self):
        rng = stream(14, 0)
        b = SpdMatrix.from_diagonal([2.0, 3.0, 5.0])
        for _ in range(20):
            x = rng.standard_normal(3)
            assert b.norm(x) > 0.0


class TestBPseudoinverse:
    def test_identity_metric_matches_pinv(self):
        rng = stream(15, 0)
        m = rng.standard_normal((3, 5))
        assert np.abs(b_pseudoinverse(m, identity_metric(5)) - pseudoinverse(m)).max() <= 1e-10

    def test_identity_matrix(self):
        b = SpdMatrix.from_diagonal([2.0, 7.0])
        assert np.allclose(b_pseudoinverse(np.eye(2), b), np.eye(2))

    def test_row_vector_oracle(self):
        # hand evaluation of B^{-1}M'(M B^{-1} M')^+ for M = [1 0], B = diag(4, 1)
        m = np.array([[1.0, 0.0]])
        b = SpdMatrix.from_diagonal([4.0, 1.0])
        out = b_pseudoinverse(m, b)
        assert np.allclose(out, np.array([[1.0], [0.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            b_pseudoinverse(np.ones((2, 3)), identity_metric(2))

    def test_rank_deficient_dense_metric(self):
        # B^{-1/2} pinv(A B^{-1/2}) on a rank-2 A with repeated and zero rows
        rng = stream(16, 0)
        a = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
        a[4] = a[0]
        a[5] = 0.0
        g = rng.standard_normal((4, 4))
        metric = SpdMatrix(g @ g.T + 0.5 * np.eye(4))
        target = metric.inv_sqrt @ np.linalg.pinv(a @ metric.inv_sqrt)
        out = b_pseudoinverse(a, metric)
        assert np.abs(out - target).max() <= 1e-10 * np.abs(target).max()
        # the weighted Penrose conditions: A X A = A and B X A is symmetric
        assert np.abs(a @ out @ a - a).max() <= 1e-10 * np.abs(a).max()
        bxa = metric.mat @ out @ a
        assert np.abs(bxa - bxa.T).max() <= 1e-10 * np.abs(bxa).max()

    def test_zero_matrix(self):
        assert np.array_equal(b_pseudoinverse(np.zeros((3, 2)), identity_metric(2)), np.zeros((2, 3)))


class TestConsistency:
    def test_single_row(self):
        assert Problem([[1.0, 0.0]], [1.0]).consistency_residual <= 1e-12

    def test_contradictory_rows(self):
        # least-norm point (1.5, 0) leaves residual ||(0.5, -0.5)|| against 1e-10 (1 + ||b||)
        with pytest.raises(InconsistentSystemError) as err:
            Problem([[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0])
        assert err.value.residual == pytest.approx(np.sqrt(0.5))
        assert err.value.tol == pytest.approx(1e-10 * (1.0 + np.sqrt(5.0)))

    def test_dependent_rows_consistent(self):
        assert Problem([[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0]).consistency_residual <= 1e-12


class TestProjection:
    def test_fixed_point(self):
        x = np.array([1.5, 0.5])
        assert np.allclose(Problem([[1.0, 1.0]], [2.0]).project(x), x)

    def test_coordinate(self):
        out = Problem([[1.0, 0.0]], [1.0]).project(np.zeros(2))
        assert np.allclose(out, [1.0, 0.0])

    def test_weighted_lagrange_oracle(self):
        # minimize x'Bx subject to x1 + x2 = 2 with B = diag(1, 4):
        # stationarity gives x = (1.6, 0.4)
        problem = Problem([[1.0, 1.0]], [2.0], SpdMatrix.from_diagonal([1.0, 4.0]))
        assert np.allclose(problem.project(np.zeros(2)), [1.6, 0.4], atol=1e-12)

    def test_inconsistent_raises(self):
        # an inconsistent system has no solution set to project onto: Problem refuses it
        with pytest.raises(InconsistentSystemError):
            Problem([[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0], SpdMatrix.from_diagonal([1.0, 4.0]))

    def test_idempotent_and_minimal(self):
        rng = stream(16, 0)
        for _ in range(30):
            m, n = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            a = rng.standard_normal((m, n))
            x_pl = rng.standard_normal(n)
            g = rng.standard_normal((n, n))
            metric = SpdMatrix(g @ g.T + 2 * np.eye(n))
            problem = Problem(a, a @ x_pl, metric)
            x = rng.standard_normal(n)
            p = problem.project(x)
            p2 = problem.project(p)
            assert np.abs(p - p2).max() <= 1e-9
            assert np.linalg.norm(a @ p - problem.b) <= 1e-9 * (1 + np.linalg.norm(problem.b))
            # B-minimality against other members of the solution set
            _, _, vt = np.linalg.svd(a)
            rank = np.linalg.matrix_rank(a)
            for _ in range(3):
                y = x_pl + vt[rank:].T @ rng.standard_normal(n - rank) if rank < n else x_pl
                assert metric.norm(p - x) <= metric.norm(y - x) + 1e-9
            # x - p is B-orthogonal to the null space of A
            if rank < n:
                null_b = vt[rank:].T
                assert np.abs(null_b.T @ metric.mat @ (x - p)).max() <= 1e-9


class TestProblem:
    def test_consistent_construction(self):
        p = Problem(np.diag([1.0, 2.0]), [1.0, 2.0])
        assert p.consistency_residual <= 1e-12

    def test_inconsistent_raises(self):
        with pytest.raises(InconsistentSystemError):
            Problem([[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0])

    def test_project_matches_weighted_normal_equations(self):
        # x - B^-1 A' (A B^-1 A')^+ (Ax - b), with numpy's pseudoinverse of the core
        rng = stream(17, 0)
        a = rng.standard_normal((2, 4))
        x_pl = rng.standard_normal(4)
        g = rng.standard_normal((4, 4))
        for metric in (None, SpdMatrix(g @ g.T + np.eye(4))):
            p = Problem(a, a @ x_pl, metric)
            x = rng.standard_normal(4)
            b_inv = p.metric.inv
            expected = x - b_inv @ a.T @ np.linalg.pinv(a @ b_inv @ a.T) @ (a @ x - p.b)
            assert np.allclose(p.project(x), expected)

    @pytest.mark.parametrize("shape", [(6, 4), (3, 5)])
    def test_keeps_read_only_factors_of_weighted_matrix(self, shape):
        # the thin SVD behind the pseudoinverse stays on the problem, read-only
        rng = stream(18, shape[0])
        a = rng.standard_normal(shape)
        g = rng.standard_normal((shape[1], shape[1]))
        metric = SpdMatrix(g @ g.T + 0.5 * np.eye(shape[1]))
        p = Problem(a, a @ rng.standard_normal(shape[1]), metric)
        k = min(shape)
        assert p.singular_values.shape == (k,)
        assert p.right_singular_vectors.shape == (k, shape[1])
        weighted = a @ metric.inv_sqrt
        assert np.allclose(p.singular_values, np.linalg.svd(weighted, compute_uv=False))
        rebuilt = (p.right_singular_vectors.T * p.singular_values**2) @ p.right_singular_vectors
        assert np.allclose(rebuilt, weighted.T @ weighted)
        assert np.array_equal(p._dagger, b_pseudoinverse(a, metric))
        for factor in (p.singular_values, p.right_singular_vectors, p._dagger):
            assert not factor.flags.writeable
            with pytest.raises(ValueError):
                factor[0] = 1.0
