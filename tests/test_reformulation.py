import numpy as np
import pytest

from sketchsolve.linalg import Problem, SpdMatrix
from sketchsolve.reformulation import (
    DegenerateSpectrumError,
    build_reformulation,
    check_exactness,
    expected_Z,
    sketched_projection,
    sketched_system,
    spectrum_of,
    stochastic_gradient,
    stochastic_value,
)
from sketchsolve.sketching import (
    Block,
    Coordinate,
    CountMin,
    CountSketch,
    FixedIdentity,
    Gaussian,
    SketchSample,
    kaczmarz_distribution,
    stream,
)


def column(m, i):
    return SketchSample(cols=(i,), m=m)


def random_problem(rng, m=None, n=None, weighted=True):
    m = int(m if m is not None else rng.integers(2, 7))
    n = int(n if n is not None else rng.integers(2, 7))
    a = rng.standard_normal((m, n))
    if weighted:
        g = rng.standard_normal((n, n))
        metric = SpdMatrix(g @ g.T + 2 * np.eye(n))
    else:
        metric = SpdMatrix.identity(n)
    return Problem(a, a @ rng.standard_normal(n), metric)


class TestSketchedSystem:
    def test_full_identity_sketch(self):
        rng = stream(21, 0)
        a = rng.standard_normal((2, 4))  # full row rank a.s.
        problem = Problem(a, a @ rng.standard_normal(4))
        sys = sketched_system(a, problem.b, problem.metric, FixedIdentity(2).sample(rng))
        assert np.abs(sys.H - np.linalg.inv(a @ a.T)).max() <= 1e-9
        assert np.abs(sys.Z - a.T @ np.linalg.inv(a @ a.T) @ a).max() <= 1e-9

    def test_single_row_sketch(self):
        a = np.diag([1.0, 2.0])
        sys = sketched_system(a, np.array([1.0, 2.0]), SpdMatrix.identity(2), column(2, 0))
        assert np.allclose(sys.Z, np.diag([1.0, 0.0]))

    def test_sketch_orthogonal_to_rows(self):
        # S'A = 0 collapses both operators to zero
        a = np.array([[1.0, 0.0]])
        s = SketchSample(np.array([[0.0]]))
        sys = sketched_system(a, np.array([0.0]), SpdMatrix.identity(2), s)
        assert np.all(sys.Z == 0.0)
        binv = SpdMatrix.identity(2).inv
        assert np.abs(sys.H @ (a @ binv @ a.T) @ sys.H - sys.H).max() <= 1e-12

    def test_projector_identities(self):
        rng = stream(22, 0)
        for _ in range(40):
            problem = random_problem(rng)
            q = int(rng.integers(1, 4))
            s = SketchSample(rng.standard_normal((problem.m, q)))
            sys = sketched_system(problem.A, problem.b, problem.metric, s)
            binv_z = problem.metric.inv @ sys.Z
            scale = max(1.0, np.abs(sys.Z).max())
            assert np.abs(sys.Z @ problem.metric.inv @ sys.Z - sys.Z).max() <= 1e-9 * scale
            assert np.abs(binv_z @ binv_z - binv_z).max() <= 1e-9 * max(1.0, np.abs(binv_z).max())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sketched_system(np.eye(2), np.ones(2), SpdMatrix.identity(2), SketchSample(np.ones((3, 1))))

    @pytest.mark.parametrize("dense", [True, False])
    def test_lazy_operators_equal_eager_expressions_bitwise(self, dense):
        from sketchsolve.linalg import _symmetrize, pseudoinverse

        rng = stream(24, 0)
        for _ in range(30):
            problem = random_problem(rng)
            q = int(rng.integers(1, min(problem.m, 3) + 1))
            if dense:
                s = SketchSample(rng.standard_normal((problem.m, q)))
            else:
                s = SketchSample(cols=tuple(rng.choice(problem.m, q, replace=False)), m=problem.m)
            sys = sketched_system(problem.A, problem.b, problem.metric, s)
            assert "H" not in vars(sys) and "Z" not in vars(sys)
            # the eager reference: H and Z formed at once from the same factors
            c = problem.A.T @ s.matrix
            gram_pinv = _symmetrize(pseudoinverse(_symmetrize(c.T @ problem.metric.inv @ c)))
            h = _symmetrize(s.matrix @ gram_pinv @ s.matrix.T)
            z = _symmetrize(c @ gram_pinv @ c.T)
            assert sys.H.tobytes() == h.tobytes() and sys.Z.tobytes() == z.tobytes()
            assert sys.H is sys.H and sys.Z is sys.Z
            for op in (sys.H, sys.Z):
                assert not op.flags.writeable
                with pytest.raises(ValueError):
                    op[0, 0] = 1.0


class TestStochasticValue:
    def test_zero_on_solutions(self):
        rng = stream(23, 0)
        problem = random_problem(rng)
        x_sol = problem.min_norm_solution
        s = SketchSample(rng.standard_normal((problem.m, 2)))
        sys = sketched_system(problem.A, problem.b, problem.metric, s)
        assert stochastic_value(sys, x_sol) <= 1e-18

    def test_reference_value(self):
        # row 2 of diag(1, 2) at x = (1, 0): residual -2, row gram 4
        a = np.diag([1.0, 2.0])
        sys = sketched_system(a, np.array([1.0, 2.0]), SpdMatrix.identity(2), column(2, 1))
        assert stochastic_value(sys, np.array([1.0, 0.0])) == pytest.approx(0.5)

    def test_full_step_zeroes_value(self):
        rng = stream(24, 0)
        for _ in range(30):
            problem = random_problem(rng)
            s = SketchSample(rng.standard_normal((problem.m, 1)))
            sys = sketched_system(problem.A, problem.b, problem.metric, s)
            x = rng.standard_normal(problem.n)
            stepped = x - stochastic_gradient(sys, x)
            assert stochastic_value(sys, stepped) <= 1e-12


class TestStochasticGradient:
    def test_zero_on_solutions(self):
        rng = stream(25, 0)
        problem = random_problem(rng)
        s = SketchSample(rng.standard_normal((problem.m, 2)))
        sys = sketched_system(problem.A, problem.b, problem.metric, s)
        grad = stochastic_gradient(sys, problem.min_norm_solution)
        assert np.abs(grad).max() <= 1e-9

    def test_row_sampling_closed_form(self):
        a = np.diag([1.0, 2.0])
        b = np.array([1.0, 2.0])
        sys = sketched_system(a, b, SpdMatrix.identity(2), column(2, 1))
        x = np.array([0.0, 0.0])
        expected = (a[1] @ x - b[1]) / (a[1] @ a[1]) * a[1]
        assert np.allclose(stochastic_gradient(sys, x), expected)

    def test_gradient_is_hessian_fixed_point(self):
        rng = stream(26, 0)
        for _ in range(30):
            problem = random_problem(rng)
            s = SketchSample(rng.standard_normal((problem.m, 2)))
            sys = sketched_system(problem.A, problem.b, problem.metric, s)
            x = rng.standard_normal(problem.n)
            grad = stochastic_gradient(sys, x)
            hess_grad = problem.metric.inv @ sys.Z @ grad
            assert np.abs(hess_grad - grad).max() <= 1e-8 * max(1.0, np.abs(grad).max())

    def test_identity_suite(self):
        rng = stream(27, 0)
        for _ in range(60):
            problem = random_problem(rng)
            q = int(rng.integers(1, 4))
            s = SketchSample(rng.standard_normal((problem.m, q)))
            sys = sketched_system(problem.A, problem.b, problem.metric, s)
            x = rng.standard_normal(problem.n)
            grad = stochastic_gradient(sys, x)
            scale = max(1.0, float(np.linalg.norm(grad)))
            proj_gap = x - sketched_projection(sys, x)
            assert np.linalg.norm(proj_gap - grad) <= 1e-8 * scale
            value = stochastic_value(sys, x)
            assert abs(value - 0.5 * problem.metric.norm_sq(grad)) <= 1e-8 * max(1.0, value)


class TestExpectedZ:
    def test_kaczmarz_closed_form(self):
        rng = stream(28, 0)
        for _ in range(20):
            m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            a = rng.standard_normal((m, n))
            ez, info = expected_Z(a, SpdMatrix.identity(n), kaczmarz_distribution(a))
            assert info.kind == "exact"
            target = a.T @ a / np.sum(a * a)
            assert np.abs(ez - target).max() <= 1e-12 * max(1.0, np.abs(target).max())

    def test_fixed_identity_single_atom(self):
        rng = stream(29, 0)
        a = rng.standard_normal((3, 4))
        ez, info = expected_Z(a, SpdMatrix.identity(4), FixedIdentity(3))
        sys = sketched_system(a, np.zeros(3), SpdMatrix.identity(4), FixedIdentity(3).sample(rng))
        assert info.kind == "exact"
        assert np.abs(ez - sys.Z).max() <= 1e-12

    def test_multiset_supports_match_ordered_enumeration(self):
        # count and block-with-replacement supports collapse ordered column
        # draws into multisets; the induced operators are invariant under
        # column order and signs, so the expectations must agree with brute
        # force over ordered tuples
        import itertools

        rng = stream(30, 0)
        m, n = 3, 4
        a = rng.standard_normal((m, n))
        g = rng.standard_normal((n, n))
        metric = SpdMatrix(g @ g.T + 2 * np.eye(n))
        zeros = np.zeros(m)

        def z_of(cols, signs=None):
            s = np.zeros((m, len(cols)))
            for j, c in enumerate(cols):
                s[c, j] = 1.0 if signs is None else signs[j]
            return sketched_system(a, zeros, metric, SketchSample(s)).Z

        brute = sum(z_of(t) for t in itertools.product(range(m), repeat=2)) / m**2
        for dist in (CountMin(m, 2), Block(m, 2, with_replacement=True)):
            ez, info = expected_Z(a, metric, dist)
            assert info.kind == "exact"
            assert np.abs(ez - brute).max() <= 1e-12

        def z_signed(js):
            cols = [j % m for j in js]
            signs = [1 if j < m else -1 for j in js]
            return z_of(cols, signs)

        brute_signed = sum(
            z_signed(t) for t in itertools.product(range(2 * m), repeat=2)
        ) / (2 * m) ** 2
        ez, info = expected_Z(a, metric, CountSketch(m, 2))
        assert info.kind == "exact"
        assert np.abs(ez - brute_signed).max() <= 1e-12

    def test_gaussian_monte_carlo(self):
        # symmetry forces E[Z] = c I and the trace of each draw is 1, so c = 1/2
        ez, info = expected_Z(np.eye(2), SpdMatrix.identity(2), Gaussian(2, 1), seed=31)
        assert info.kind == "monte-carlo"
        assert info.n_samples == 10_000
        assert np.linalg.norm(ez - 0.5 * np.eye(2), 2) <= 3.0 * info.se_norm


def _oracle_system(weighted, zero_row=False):
    rng = stream(38, int(weighted))
    m, n = 5, 4
    a = rng.standard_normal((m, n))
    if zero_row:
        a[2] = 0.0
    if weighted:
        g = rng.standard_normal((n, n))
        metric = SpdMatrix(g @ g.T + 0.5 * np.eye(n))
    else:
        metric = SpdMatrix.identity(n)
    return Problem(a, a @ rng.standard_normal(n), metric)


ORACLE_SUPPORTS = {
    "fixed-identity": (FixedIdentity(5), False),
    "coordinate-zero-probability": (Coordinate([0.3, 0.0, 0.2, 0.4, 0.1]), False),
    "coordinate-zero-row": (Coordinate([0.2] * 5), True),
    "block": (Block(5, 2), False),
    "block-with-replacement": (Block(5, 3, with_replacement=True), False),
    "count-min": (CountMin(5, 2), False),
    "count-sketch": (CountSketch(5, 2), False),
}


def _relative_gap(x, reference):
    return np.abs(x - reference).max() / np.abs(reference).max()


class TestStackedExpectations:
    """Stacked expectations against the per-atom sum over sketched_system."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["identity-B", "dense-B"])
    @pytest.mark.parametrize("name", list(ORACLE_SUPPORTS))
    def test_expected_Z_matches_atom_sum(self, name, weighted):
        dist, zero_row = ORACLE_SUPPORTS[name]
        problem = _oracle_system(weighted, zero_row)
        atoms = [(sketched_system(problem.A, problem.b, problem.metric, s), p) for s, p in dist.support()]
        reference = sum(p * sys.Z for sys, p in atoms)
        ez, info = expected_Z(problem.A, problem.metric, dist)
        assert info.kind == "exact"
        assert _relative_gap(ez, reference) <= 1e-12
        if zero_row:
            assert not atoms[2][0].Z.any()

    @pytest.mark.parametrize("weighted", [False, True], ids=["identity-B", "dense-B"])
    @pytest.mark.parametrize("name", list(ORACLE_SUPPORTS))
    def test_expected_H_matches_atom_sum(self, name, weighted):
        dist, zero_row = ORACLE_SUPPORTS[name]
        problem = _oracle_system(weighted, zero_row)
        reference = sum(
            p * sketched_system(problem.A, problem.b, problem.metric, s).H for s, p in dist.support()
        )
        eh = build_reformulation(problem, dist).expected_H()
        assert _relative_gap(eh, reference) <= 1e-12

    @pytest.mark.parametrize("weighted", [False, True], ids=["identity-B", "dense-B"])
    def test_support_spanning_several_chunks(self, weighted, monkeypatch):
        from sketchsolve import reformulation

        problem = _oracle_system(weighted)
        dist = Block(5, 2)  # 10 atoms of 2 rows; the budget below holds 3 atoms
        reference_z = sum(
            p * sketched_system(problem.A, problem.b, problem.metric, s).Z for s, p in dist.support()
        )
        reference_h = sum(
            p * sketched_system(problem.A, problem.b, problem.metric, s).H for s, p in dist.support()
        )
        monkeypatch.setattr(reformulation, "_CHUNK_BYTES", 3 * 8 * 2 * problem.n)
        chunks = list(reformulation._support_chunks(problem.A, problem.metric, dist.support()))
        assert [len(probs) for _, probs, _, _ in chunks] == [3, 3, 3, 1]
        ez, _ = expected_Z(problem.A, problem.metric, dist)
        assert _relative_gap(ez, reference_z) <= 1e-12
        assert _relative_gap(build_reformulation(problem, dist).expected_H(), reference_h) <= 1e-12

    @pytest.mark.parametrize("weighted", [False, True], ids=["identity-B", "dense-B"])
    def test_instance_stacks_match_expected_Z(self, weighted):
        # a leading instance axis on the support kernels: row sampling of
        # several systems of one shape under one metric, bit for bit
        from sketchsolve.linalg import _symmetrize
        from sketchsolve.reformulation import _gram_pinvs, _weighted_z_sum
        from sketchsolve.sketching import _row_norm_probabilities

        rng = stream(42, 0)
        for m, n in ((2, 5), (4, 4), (6, 3)):
            metric = random_problem(rng, m, n, weighted).metric
            a = rng.standard_normal((7, m, n))
            rows = a[..., None, :]
            probs = _row_norm_probabilities(a)
            stacked = _symmetrize(_weighted_z_sum(rows, _gram_pinvs(rows, metric), probs))
            for k in range(len(a)):
                dist = kaczmarz_distribution(a[k])
                assert np.array_equal(probs[k], dist.probabilities)
                assert np.array_equal(stacked[k], expected_Z(a[k], metric, dist)[0])

    @pytest.mark.parametrize("dist", [Gaussian(5, 2), CountSketch(5, 3)], ids=repr)
    def test_monte_carlo_draws_match_sketched_systems(self, dist):
        # the estimate is the mean Z over the expectation stream's draws, in order
        from sketchsolve.reformulation import EXPECTATION_STREAM

        problem = _oracle_system(True)
        rng = stream(41, EXPECTATION_STREAM)
        draws = [
            sketched_system(problem.A, problem.b, problem.metric, dist.sample(rng)).Z
            for _ in range(200)
        ]
        ez, info = expected_Z(problem.A, problem.metric, dist, n_samples=200, seed=41, support_cap=1)
        assert info.kind == "monte-carlo"
        assert _relative_gap(ez, np.mean(draws, axis=0)) <= 1e-12

    @pytest.mark.parametrize("weighted", [False, True], ids=["identity-B", "dense-B"])
    @pytest.mark.parametrize(
        "family", ["kaczmarz", "block-1", "block-3", "countsketch-1", "countsketch-3", "countmin-2"]
    )
    def test_monte_carlo_index_draws_match_the_per_sample_loop(self, family, weighted, monkeypatch):
        # one bulk draw and chunked stacks give, bit for bit, the estimate of
        # one sample, gram and update at a time
        from sketchsolve import reformulation
        from sketchsolve.linalg import _symmetrize
        from sketchsolve.reformulation import EXPECTATION_STREAM, _gram_pinvs, _sketched_rows, _weighted_z_sum

        problem = random_problem(stream(43, 0), 12, 6, weighted)
        a, metric, m = problem.A, problem.metric, problem.m
        dist = {
            "kaczmarz": kaczmarz_distribution(a),
            "block-1": Block(m, 1),
            "block-3": Block(m, 3),
            "countsketch-1": CountSketch(m, 1),
            "countsketch-3": CountSketch(m, 3),
            "countmin-2": CountMin(m, 2),
        }[family]
        rng, n_samples = stream(44, EXPECTATION_STREAM), 50
        mean, m2, one = np.zeros((6, 6)), np.zeros((6, 6)), np.ones(1)
        for k in range(1, n_samples + 1):
            rows = _sketched_rows(a, dist.sample(rng))
            z = _symmetrize(_weighted_z_sum(rows, _gram_pinvs(rows, metric), one))
            delta = z - mean
            mean += delta / k
            m2 += delta * (z - mean)
        se_norm = float(np.linalg.norm(np.sqrt(m2 / (n_samples * (n_samples - 1))), 2))
        # chunks of 7 draws
        monkeypatch.setattr(reformulation, "_CHUNK_BYTES", 7 * 8 * dist.q * 6)
        ez, info = expected_Z(a, metric, dist, n_samples=n_samples, seed=44, support_cap=1)
        assert info.kind == "monte-carlo" and info.se_norm == se_norm
        assert ez.tobytes() == _symmetrize(mean).tobytes()


class TestSpectrum:
    def test_identity_sketch_condition_one(self):
        rng = stream(32, 0)
        a = rng.standard_normal((3, 3))
        problem = Problem(a, a @ np.ones(3))
        reform = build_reformulation(problem, FixedIdentity(3))
        assert reform.spectrum.zeta == pytest.approx(1.0, abs=1e-9)

    def test_reference_spectrum(self):
        problem = Problem(np.diag([1.0, 2.0]), [1.0, 2.0])
        reform = build_reformulation(problem, kaczmarz_distribution(problem.A))
        assert np.abs(reform.spectrum.lambdas - [0.8, 0.2]).max() <= 1e-12
        assert reform.spectrum.zeta == pytest.approx(4.0, abs=1e-12)

    def test_vector_sketch_trace_one(self):
        rng = stream(33, 0)
        for _ in range(10):
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            a = rng.standard_normal((m, n))
            problem = Problem(a, a @ rng.standard_normal(n))
            reform = build_reformulation(problem, kaczmarz_distribution(a))
            assert abs(reform.spectrum.lambdas_raw.sum() - 1.0) <= 1e-9

    def test_unit_interval(self):
        rng = stream(34, 0)
        for _ in range(10):
            problem = random_problem(rng)
            reform = build_reformulation(problem, kaczmarz_distribution(problem.A))
            lam = reform.spectrum.lambdas_raw
            assert lam[0] <= 1.0 + 1e-8
            assert lam[-1] >= -1e-8

    def test_degenerate_error(self):
        with pytest.raises(DegenerateSpectrumError):
            spectrum_of(np.zeros((2, 2)), SpdMatrix.identity(2))


class TestExactness:
    def test_kaczmarz_exact(self):
        rng = stream(35, 0)
        a = rng.standard_normal((4, 3))
        problem = Problem(a, a @ np.ones(3))
        reform = build_reformulation(problem, kaczmarz_distribution(a))
        assert check_exactness(reform) == "exact"

    def test_single_atom_not_exact(self):
        problem = Problem(np.eye(2), np.ones(2))
        reform = build_reformulation(problem, Coordinate([1.0, 0.0]))
        assert check_exactness(reform) == "not-exact"
        assert np.allclose(reform.expected_Z, np.diag([1.0, 0.0]))

    def test_gaussian_undecidable(self):
        problem = Problem(np.eye(2), np.ones(2))
        reform = build_reformulation(problem, Gaussian(2, 1), n_samples=200)
        assert check_exactness(reform) == "undecidable"

    def test_rank_deficient_matrix_still_exact(self):
        # a null column: null(A) is nontrivial but matches null(E[Z])
        a = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        problem = Problem(a, np.array([1.0, 2.0]))
        reform = build_reformulation(problem, kaczmarz_distribution(a))
        assert check_exactness(reform) == "exact"

    @staticmethod
    def original_coordinates_verdict(reform, tol=1e-8):
        """The verdict from fresh factors in the original coordinates, as an oracle:
        a full SVD of A and an eigendecomposition of E[Z], null(E[Z]) = null(A)."""
        a, ez = reform.problem.A, reform.expected_Z
        _, sv, vt = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
        rank_a = int((sv > tol * sv[0]).sum())
        lam, u = np.linalg.eigh(ez)
        lam, u = lam[::-1], u[:, ::-1]
        rank_z = int((lam > tol * max(lam[0], 1e-300)).sum())
        null_a, null_z = vt[rank_a:].T, u[:, rank_z:]
        if rank_a != rank_z:
            return "not-exact"
        if null_a.shape[1] and np.abs(ez @ null_a).max() > tol * np.linalg.norm(ez, 2):
            return "not-exact"
        if null_z.shape[1] and np.abs(a @ null_z).max() > tol * sv[0]:
            return "not-exact"
        return "exact"

    def test_verdicts_match_original_coordinates(self):
        # random small instances: wide and tall, rank-deficient A, dense B,
        # a zero-probability row, Block supports and a one-row distribution
        rng = stream(38, 0)
        seen = {"exact": 0, "not-exact": 0, "wide": 0, "tall": 0, "deficient": 0}
        for _ in range(400):
            m, n = (int(v) for v in rng.integers(1, 9, size=2))
            r = int(rng.integers(1, min(m, n) + 1))
            a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            metric = SpdMatrix.identity(n)
            if rng.random() < 0.5:
                g = rng.standard_normal((n, n))
                metric = SpdMatrix(g @ g.T + 0.5 * np.eye(n))
            problem = Problem(a, a @ rng.standard_normal(n), metric)
            kind = int(rng.integers(4))
            if kind == 0:
                dist = kaczmarz_distribution(a)
            elif kind == 1:
                p = rng.random(m) + 0.1
                p[int(rng.integers(m))] = 0.0
                dist = Coordinate(p / p.sum()) if m > 1 else FixedIdentity(1)
            elif kind == 2:
                dist = Block(m, int(rng.integers(1, m + 1)))
            else:
                dist = Coordinate(np.eye(m)[int(rng.integers(m))])
            reform = build_reformulation(problem, dist)
            verdict = check_exactness(reform)
            assert verdict == self.original_coordinates_verdict(reform), (m, n, r, kind)
            seen[verdict] += 1
            seen["wide"] += m < n
            seen["tall"] += m > n
            seen["deficient"] += r < min(m, n)
        assert min(seen.values()) >= 20, seen

    def test_reads_factors_without_decomposing(self, monkeypatch):
        # the verdict comes from the problem's SVD and the spectrum's eigh
        rng = stream(39, 0)
        a = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 5))
        g = rng.standard_normal((5, 5))
        problem = Problem(a, a @ rng.standard_normal(5), SpdMatrix(g @ g.T + np.eye(5)))
        reform = build_reformulation(problem, Block(3, 2))
        calls = []

        def counting(name, original):
            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return counted

        # numpy's own functions (the matrix 2-norm among them) call the
        # names of its implementation module, so both are counted
        for module in {np.linalg, getattr(np.linalg, "_linalg", np.linalg)}:
            for name in ("svd", "eigh", "eigvalsh"):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        np.linalg.norm(np.eye(2), 2)
        assert calls
        calls.clear()
        assert reform.exactness() == "exact"
        assert calls == []


class TestAveragedLoss:
    def reference(self):
        problem = Problem(np.diag([1.0, 2.0]), [1.0, 2.0])
        return build_reformulation(problem, kaczmarz_distribution(problem.A))

    def test_zero_on_solutions(self):
        reform = self.reference()
        assert reform.f_value(np.array([1.0, 1.0])) <= 1e-15
        assert np.abs(reform.grad_f(np.array([1.0, 1.0]))).max() <= 1e-12

    def test_reference_value(self):
        reform = self.reference()
        assert reform.f_value(np.zeros(2)) == pytest.approx(0.5, abs=1e-12)

    def test_matches_expected_H_form(self):
        rng = stream(36, 0)
        problem = random_problem(rng, weighted=False)
        reform = build_reformulation(problem, kaczmarz_distribution(problem.A))
        eh = reform.expected_H()
        for _ in range(10):
            x = rng.standard_normal(problem.n)
            residual = problem.A @ x - problem.b
            direct = 0.5 * residual @ eh @ residual
            assert abs(reform.f_value(x) - direct) <= 1e-10 * max(1.0, direct)

    def test_sandwich_bounds(self):
        rng = stream(37, 0)
        for _ in range(15):
            problem = random_problem(rng)
            reform = build_reformulation(problem, kaczmarz_distribution(problem.A))
            lmin, lmax = reform.spectrum.lambda_min_plus, reform.spectrum.lambda_max
            x = rng.standard_normal(problem.n)
            f_val = reform.f_value(x)
            half_grad = 0.5 * problem.metric.norm_sq(reform.grad_f(x))
            assert lmin * f_val <= half_grad + 1e-9 * max(1.0, f_val)
            assert half_grad <= lmax * f_val + 1e-9 * max(1.0, f_val)
            # norm bounds, the lower one under exactness with the projection anchor
            any_sol = reform.x_star
            assert f_val <= 0.5 * lmax * problem.metric.norm_sq(x - any_sol) + 1e-9
            proj = problem.project(x)
            assert 0.5 * lmin * problem.metric.norm_sq(x - proj) <= f_val + 1e-9

    def test_equivalent_zero_sets(self):
        # with finite support, grad f vanishes exactly where every atom's loss does
        a = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        problem = Problem(a, np.array([1.0, 2.0]))
        dist = kaczmarz_distribution(a)
        reform = build_reformulation(problem, dist)
        support = dist.support()
        inside = reform.x_star + np.array([0.0, 0.0, 3.0])
        outside = reform.x_star + np.array([0.5, -0.25, 3.0])
        for x, expect_zero in ((inside, True), (outside, False)):
            losses = [
                stochastic_value(sketched_system(a, problem.b, problem.metric, s), x)
                for s, _ in support
            ]
            grad_zero = np.linalg.norm(reform.grad_f(x)) <= 1e-12
            assert grad_zero == expect_zero
            assert (max(losses) <= 1e-18) == expect_zero
