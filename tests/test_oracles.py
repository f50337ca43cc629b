import numpy as np
import pytest

from sketchsolve.linalg import Problem, SpdMatrix, sym_eigendecomposition
from sketchsolve.oracles import (
    SmwInstance,
    psd_sandwich_residual,
    random_smw_instance,
    random_smw_instances,
    range_restricted_eigen_bound,
    smw_inverse,
)
from sketchsolve.reformulation import _positive_floor, build_reformulation
from sketchsolve.sketching import kaczmarz_distribution, stream


class TestSmw:
    def test_zero_update_gives_plain_inverse(self):
        rng = stream(71, 0)
        m = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        inst = SmwInstance(M=m, C=np.zeros((4, 2)), N=np.eye(2), D=np.zeros((2, 4)))
        assert np.abs(smw_inverse(inst) - np.linalg.inv(m)).max() <= 1e-12

    def test_rank_one_update_of_identity(self):
        e1 = np.zeros((2, 1))
        e1[0, 0] = 1.0
        inst = SmwInstance(M=np.eye(2), C=e1, N=np.eye(1), D=e1.T)
        assert np.allclose(smw_inverse(inst), np.diag([0.5, 1.0]))

    def test_random_instances(self):
        rng = stream(72, 0)
        worst = 0.0
        for _ in range(200):
            inst = random_smw_instance(rng)
            direct = np.linalg.inv(inst.M + inst.C @ inst.N @ inst.D)
            gap = float(np.abs(smw_inverse(inst) - direct).max())
            worst = max(worst, gap / max(1.0, float(np.abs(direct).max())))
        assert worst <= 1e-9

    def test_rejects_ill_conditioned(self):
        with pytest.raises(ValueError):
            SmwInstance(M=np.diag([1.0, 1e-15]), C=np.eye(2), N=np.eye(2), D=np.eye(2))


class TestPsdSandwich:
    def test_identity(self):
        assert psd_sandwich_residual(np.eye(3), 1.0) <= 1e-15

    def test_rank_deficient_diagonal(self):
        # diag(4, 0) with mu = 3: both sides equal diag(3/16, 0)
        assert psd_sandwich_residual(np.diag([4.0, 0.0]), 3.0) <= 1e-12

    def test_random_psd(self):
        rng = stream(73, 0)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 6))
            rank = int(rng.integers(1, n + 1))
            g = rng.standard_normal((n, rank))
            worst = max(worst, psd_sandwich_residual(g @ g.T, float(rng.uniform(0.1, 5.0))))
        assert worst <= 1e-9

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            psd_sandwich_residual(np.eye(2), 0.0)


class TestRangeBound:
    def test_zero_vector(self):
        assert range_restricted_eigen_bound(np.diag([0.2, 0.8]), SpdMatrix.identity(2), np.zeros(2))

    def test_reference_problem(self):
        problem = Problem(np.diag([1.0, 2.0]), [1.0, 2.0])
        reform = build_reformulation(problem, kaczmarz_distribution(problem.A))
        rng = stream(74, 0)
        for _ in range(50):
            x = problem.metric.inv_sqrt @ problem.A.T @ rng.standard_normal(2)
            assert range_restricted_eigen_bound(
                reform.expected_Z, problem.metric, x, reform.spectrum.lambda_min_plus
            )

    def test_full_rank_holds_everywhere(self):
        rng = stream(75, 0)
        a = rng.standard_normal((5, 3))
        problem = Problem(a, a @ np.ones(3))
        reform = build_reformulation(problem, kaczmarz_distribution(a))
        for _ in range(20):
            assert range_restricted_eigen_bound(
                reform.expected_Z, problem.metric, rng.standard_normal(3)
            )

    def test_random_rank_deficient(self):
        rng = stream(76, 0)
        for _ in range(100):
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            a = rng.standard_normal((m, n))
            g = rng.standard_normal((n, n))
            metric = SpdMatrix(g @ g.T + 2 * np.eye(n))
            problem = Problem(a, a @ rng.standard_normal(n), metric)
            reform = build_reformulation(problem, kaczmarz_distribution(a))
            x = metric.inv_sqrt @ a.T @ rng.standard_normal(m)
            assert range_restricted_eigen_bound(
                reform.expected_Z, metric, x, reform.spectrum.lambda_min_plus
            )


def _mixed_psd(rng, count):
    """Random PSD matrices of sizes 2-5 and ranks 1-n, in draw order."""
    mats = []
    for _ in range(count):
        n = int(rng.integers(2, 6))
        g = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        mats.append(g @ g.T)
    return mats


class TestStacks:
    """Stacked oracle calls equal the one-instance calls bit for bit."""

    def test_sampler_reproduces_repeated_single_draws(self):
        for seed in (81, 82):
            rng_one, rng_stack = stream(seed, 0), stream(seed, 0)
            singles = [random_smw_instance(rng_one) for _ in range(60)]
            stacks = random_smw_instances(rng_stack, 60)
            assert sum(len(s.M) for s in stacks) == 60
            assert len({s.M.shape[1:] + s.N.shape[1:] for s in stacks}) == len(stacks) > 5
            for s in stacks:
                same = [i for i in singles if i.M.shape == s.M.shape[1:] and i.N.shape == s.N.shape[1:]]
                for name in "MCND":
                    assert np.array_equal(getattr(s, name), np.stack([getattr(i, name) for i in same]))
            # both generators stop after the last accepted candidate
            assert rng_one.integers(2**62) == rng_stack.integers(2**62)

    def test_sampler_tightened_cond_rejects_in_rounds(self):
        rng_one, rng_stack = stream(83, 0), stream(83, 0)
        singles = [random_smw_instance(rng_one, max_cond=4.0) for _ in range(20)]
        stacks = random_smw_instances(rng_stack, 20, max_cond=4.0)
        assert sorted(i.M.tobytes() for i in singles) == sorted(m.tobytes() for s in stacks for m in s.M)
        assert rng_one.integers(2**62) == rng_stack.integers(2**62)

    def test_smw_inverse_stack(self):
        for inst in random_smw_instances(stream(84, 0), 40):
            stacked = smw_inverse(inst)
            for k in range(len(inst.M)):
                one = SmwInstance(inst.M[k], inst.C[k], inst.N[k], inst.D[k])
                assert np.array_equal(stacked[k], smw_inverse(one))

    def test_stack_fields_must_agree(self):
        c, n, d = np.ones((2, 2, 1)), np.ones((2, 1, 1)), np.ones((2, 1, 2))
        with pytest.raises(ValueError):
            SmwInstance(M=np.stack([np.eye(2)] * 3), C=c, N=n, D=d)
        with pytest.raises(ValueError):
            SmwInstance(M=np.stack([np.eye(2), np.diag([1.0, 1e-15])]), C=c, N=n, D=d)

    def test_psd_sandwich_stack(self):
        rng = stream(85, 0)
        mats = _mixed_psd(rng, 60)
        mus = rng.uniform(0.1, 5.0, size=60)
        for n in range(2, 6):
            idx = [k for k, mat in enumerate(mats) if mat.shape == (n, n)]
            stacked = psd_sandwich_residual(np.stack([mats[k] for k in idx]), mus[idx])
            assert stacked.shape == (len(idx),)
            singles = [psd_sandwich_residual(mats[k], float(mus[k])) for k in idx]
            assert all(type(r) is float for r in singles)
            assert np.array_equal(stacked, singles)

    def test_psd_sandwich_stack_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            psd_sandwich_residual(np.stack([np.eye(2)] * 2), np.array([1.0, 0.0]))

    def test_range_bound_stack(self):
        rng = stream(86, 0)
        for m, n in ((2, 3), (4, 4), (6, 2)):
            cases = []
            for _ in range(15):
                a = rng.standard_normal((m, n))
                g = rng.standard_normal((n, n))
                metric = SpdMatrix(g @ g.T + 2 * np.eye(n)) if not cases else cases[0][2]
                problem = Problem(a, a @ rng.standard_normal(n), metric)
                reform = build_reformulation(problem, kaczmarz_distribution(a))
                x = metric.inv_sqrt @ a.T @ rng.standard_normal(m)
                cases.append((reform.expected_Z, x, metric, reform.spectrum.lambda_min_plus))
            ez, x, metrics, lmin = zip(*cases)
            metric = metrics[0]
            # bounds 1e-9 / x'x off each Rayleigh quotient, alternately below
            # and above the 1e-9 slack, so that both verdicts occur
            quotients = [v @ metric.inv_sqrt @ z @ metric.inv_sqrt @ v / (v @ v) for z, v in zip(ez, x)]
            tight = [r + s * 2e-9 / (v @ v) for r, v, s in zip(quotients, x, np.resize([-1.0, 1.0], 15))]
            for given in (None, lmin, tight):
                stacked = range_restricted_eigen_bound(
                    np.stack(ez), metric, np.stack(x), None if given is None else np.array(given)
                )
                singles = [
                    range_restricted_eigen_bound(ez[k], metric, x[k], None if given is None else float(given[k]))
                    for k in range(15)
                ]
                assert all(type(v) is bool for v in singles)
                assert stacked.tolist() == singles
            assert stacked.tolist() == [True, False] * 7 + [True]

    def test_range_bound_threshold_is_the_spectrum_one(self):
        rng = stream(87, 0)
        for _ in range(20):
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            a = rng.standard_normal((m, n))
            reform = build_reformulation(Problem(a, a @ rng.standard_normal(n)), kaczmarz_distribution(a))
            _, lam = sym_eigendecomposition(np.stack([reform.spectrum.W] * 2))
            assert np.array_equal(_positive_floor(lam)[1], [reform.spectrum.lambda_min_plus] * 2)

    def test_sym_eigendecomposition_stack(self):
        mats = [m for m in _mixed_psd(stream(88, 0), 30) if m.shape == (3, 3)]
        u, lam = sym_eigendecomposition(np.stack(mats))
        for k, mat in enumerate(mats):
            u_one, lam_one = sym_eigendecomposition(mat)
            assert np.array_equal(u[k], u_one) and np.array_equal(lam[k], lam_one)
        with pytest.raises(ValueError):
            sym_eigendecomposition(np.stack([np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]])]))
