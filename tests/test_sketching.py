import numpy as np
import pytest

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

# frozen chi-squared quantiles (0.9999 upper tail) by degrees of freedom
CHI2_9999 = {1: 15.137, 2: 18.421, 3: 21.108, 5: 25.745, 9: 33.720}


def empirical_counts(dist, draws, seed=0):
    rng = stream(seed, 9, 0)
    counts = {}
    for _ in range(draws):
        key = dist.sample(rng).key
        counts[key] = counts.get(key, 0) + 1
    return counts


def chi2_statistic(dist, draws, seed=0):
    support = dist.support()
    counts = empirical_counts(dist, draws, seed=seed)
    stat = 0.0
    for sample, prob in support:
        expected = prob * draws
        observed = counts.pop(sample.key, 0)
        stat += (observed - expected) ** 2 / expected
    assert not counts, f"samples outside the enumerated support: {counts}"
    return stat, len(support) - 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "dist",
        [
            Coordinate([0.3, 0.2, 0.5]),
            Block(5, 2),
            Block(5, 2, with_replacement=True),
            Gaussian(4, 2),
            CountSketch(3, 2),
            CountMin(3, 2),
        ],
    )
    def test_same_seed_same_draws(self, dist):
        a = [dist.sample(stream(77, 1, i)).matrix for i in range(3)]
        b = [dist.sample(stream(77, 1, i)).matrix for i in range(3)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_distinct_streams_differ(self):
        dist = Gaussian(4, 2)
        x = dist.sample(stream(77, 1, 0)).matrix
        y = dist.sample(stream(77, 1, 1)).matrix
        assert not np.array_equal(x, y)

    def test_batch_indices_match_scalar_draws(self):
        # the solvers pre-draw coordinate indices in one vectorized call;
        # that call must consume the stream exactly like repeated draws
        dist = Coordinate([0.1, 0.5, 0.15, 0.25])
        batch = dist.sample_indices(stream(5, 2), 64)
        gen = stream(5, 2)
        singles = [dist.sample(gen).cols[0] for _ in range(64)]
        assert np.array_equal(batch, singles)


class TestFixedIdentity:
    def test_always_identity(self):
        dist = FixedIdentity(3)
        for i in range(4):
            assert np.array_equal(dist.sample(stream(0, i)).matrix, np.eye(3))

    def test_support(self):
        [(sample, prob)] = FixedIdentity(2).support()
        assert prob == 1.0
        assert np.array_equal(sample.matrix, np.eye(2))


class TestCoordinate:
    def test_degenerate(self):
        dist = Coordinate([1.0, 0.0, 0.0])
        rng = stream(1, 0)
        for _ in range(10):
            s = dist.sample(rng)
            assert s.cols == (0,)

    def test_single_unit_entry(self):
        dist = Coordinate([0.25, 0.25, 0.5])
        rng = stream(2, 0)
        for _ in range(50):
            mat = dist.sample(rng).matrix
            assert mat.shape == (3, 1)
            assert np.sum(mat != 0.0) == 1
            assert mat.max() == 1.0

    def test_support_drops_zero_probability(self):
        support = Coordinate([0.2, 0.8, 0.0]).support()
        assert len(support) == 2
        assert [p for _, p in support] == [0.2, 0.8]

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            Coordinate([0.5, 0.6])
        with pytest.raises(ValueError):
            Coordinate([-0.1, 1.1])

    def test_frequencies(self):
        dist = Coordinate([0.2, 0.8])
        stat, dof = chi2_statistic(dist, 100_000)
        assert stat <= CHI2_9999[dof]


class TestBlock:
    def test_without_replacement_support(self):
        support = Block(3, 2).support()
        assert len(support) == 3
        assert all(p == pytest.approx(1.0 / 3.0) for _, p in support)
        for sample, _ in support:
            assert sample.matrix.shape == (3, 2)
            assert len(set(sample.cols)) == 2

    def test_support_probabilities_sum_to_one(self):
        for dist in (Block(5, 2), Block(4, 2, with_replacement=True), CountSketch(2, 2), CountMin(3, 2)):
            support = dist.support()
            assert sum(p for _, p in support) == pytest.approx(1.0, abs=1e-12)

    def test_support_cap(self):
        assert Block(30, 15).support(cap=1000) is None

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            Block(3, 4)

    def test_frequencies(self):
        stat, dof = chi2_statistic(Block(5, 2), 100_000, seed=3)
        assert stat <= CHI2_9999[dof]


class TestGaussian:
    def test_shape_and_no_support(self):
        dist = Gaussian(5, 3)
        assert dist.sample(stream(4, 0)).matrix.shape == (5, 3)
        assert dist.support() is None


class TestCountFamilies:
    def test_count_sketch_law(self):
        # m=2, q=1: the four signed unit columns each appear 1/4 of the time
        dist = CountSketch(2, 1)
        counts = empirical_counts(dist, 100_000, seed=6)
        assert set(counts) == {((0, 1),), ((0, -1),), ((1, 1),), ((1, -1),)}
        for value in counts.values():
            assert abs(value / 100_000 - 0.25) <= 0.01

    def test_count_min_columns_from_identity(self):
        dist = CountMin(3, 2)
        rng = stream(7, 0)
        for _ in range(20):
            mat = dist.sample(rng).matrix
            assert np.all((mat == 0.0) | (mat == 1.0))
            assert np.all(mat.sum(axis=0) == 1.0)

    def test_count_sketch_frequencies(self):
        stat, dof = chi2_statistic(CountSketch(2, 1), 100_000, seed=8)
        assert stat <= CHI2_9999[dof]

    def test_count_min_support_enumerates_multisets(self):
        support = CountMin(2, 2).support()
        # multisets {00, 01, 11} with probabilities 1/4, 1/2, 1/4
        probs = sorted(p for _, p in support)
        assert probs == pytest.approx([0.25, 0.25, 0.5])


def dense_columns(m, cols, signs=None):
    """S built column by column, as dense draws were before sketches became index sets."""
    mat = np.zeros((m, len(cols)))
    for j, i in enumerate(cols):
        mat[i, j] = 1.0 if signs is None else float(signs[j])
    return mat


class TestIndexSetSamples:
    @pytest.mark.parametrize(
        "dist",
        [
            FixedIdentity(4),
            Coordinate([0.1, 0.2, 0.3, 0.4]),
            Block(4, 2),
            Block(4, 3, with_replacement=True),
            CountSketch(4, 3),
            CountMin(4, 3),
        ],
        ids=repr,
    )
    def test_matrix_matches_dense_construction(self, dist):
        rng = stream(12, 0)
        samples = [dist.sample(rng) for _ in range(40)] + [s for s, _ in dist.support()]
        for sample in samples:
            mat = sample.matrix
            assert np.array_equal(mat, dense_columns(dist.m, sample.cols, sample.signs))
            assert sample.q == mat.shape[1]
            assert not mat.flags.writeable
            assert sample.matrix is mat  # built once

    def test_support_is_stacked(self):
        support = CountSketch(3, 2).support()
        assert support.cols.shape == support.signs.shape == (len(support), 2)
        assert support.probs.shape == (len(support),)
        for k, (sample, prob) in enumerate(support):
            assert sample.cols == tuple(support.cols[k])
            assert sample.signs == tuple(support.signs[k])
            assert prob == support.probs[k]

    def test_needs_matrix_or_index_set(self):
        with pytest.raises(ValueError):
            SketchSample(cols=(0, 1))


class TestKaczmarzDistribution:
    def test_identity_rows(self):
        dist = kaczmarz_distribution(np.eye(2))
        assert np.allclose(dist.probabilities, [0.5, 0.5])

    def test_weighted_rows(self):
        dist = kaczmarz_distribution(np.diag([1.0, 2.0]))
        assert np.allclose(dist.probabilities, [0.2, 0.8])

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            kaczmarz_distribution(np.array([[1.0, 0.0], [0.0, 0.0]]))
