import warnings

import numpy as np
import pytest

from sketchsolve import sketching
from sketchsolve.sketching import (
    Block,
    Coordinate,
    CountMin,
    CountSketch,
    FixedIdentity,
    Gaussian,
    SketchSample,
    _PhiloxKey,
    _rekeyed,
    generator,
    kaczmarz_distribution,
    stream,
    stream_keys,
    uniforms,
)

# frozen chi-squared quantiles (0.9999 upper tail) by degrees of freedom
CHI2_9999 = {1: 15.137, 2: 18.421, 3: 21.108, 5: 25.745, 9: 33.720}


def empirical_counts(dist, draws, seed=0):
    """Draws per ``SketchSample.key``, all taken by one ``draw`` (bit-equal to ``draws`` samples)."""
    cols, signs = dist.draw(stream(seed, 9, 0), draws)
    signs = np.ones_like(cols) if signs is None else signs
    # a key is its (column, sign) pairs in sorted order: sort each row by 2 * column + (sign > 0)
    pairs = np.sort(2 * cols + (signs > 0), axis=1)
    rows, counts = np.unique(pairs, axis=0, return_counts=True)
    return {
        tuple(zip((row // 2).tolist(), (2 * (row % 2) - 1).tolist())): int(count)
        for row, count in zip(rows, counts)
    }


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


def seed_sequence_key(master_seed, *key):
    return np.random.SeedSequence(master_seed, spawn_key=key).generate_state(2, np.uint64)


MASTER_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 20240801]
SCALAR_KEYS = [(), (0,), (202, 0, 0), (202, 399, 3), (2**32 - 1, 2**32), (2**64 + 3, 7), (0,) * 6]


class TestStreamKeys:
    @pytest.mark.parametrize("master_seed", MASTER_SEEDS)
    @pytest.mark.parametrize("key", SCALAR_KEYS)
    def test_one_stream_equals_seed_sequence(self, master_seed, key):
        got = stream_keys(master_seed, *key)
        assert got.dtype == np.uint64 and got.shape == (2,)
        assert np.array_equal(got, seed_sequence_key(master_seed, *key))

    @pytest.mark.parametrize("master_seed", MASTER_SEEDS)
    @pytest.mark.parametrize("key", SCALAR_KEYS)
    def test_vectorised_hash_equals_seed_sequence(self, master_seed, key):
        # an array column makes every word of the scalar prefix go through the port
        got = stream_keys(master_seed, *key, np.arange(3))
        assert got.dtype == np.uint64 and got.shape == (3, 2)
        for j, row in enumerate(got):
            assert np.array_equal(row, seed_sequence_key(master_seed, *key, j))

    @pytest.mark.parametrize("master_seed", [0, 2**32, 2**64 + 3])
    def test_array_columns_broadcast(self, master_seed):
        reps = np.array([0, 1, 7, 2**32 - 1])
        workers = np.arange(3, dtype=np.uint32)
        got = stream_keys(master_seed, 202, reps[:, None], workers)
        assert got.shape == (4, 3, 2)
        for r, rep in enumerate(reps):
            for i in workers:
                assert np.array_equal(got[r, i], seed_sequence_key(master_seed, 202, int(rep), int(i)))

    def test_array_master_seed_broadcasts(self):
        seeds = np.array([3, 2**32 - 1])
        got = stream_keys(seeds, 5)
        for row, seed in zip(got, seeds):
            assert np.array_equal(row, seed_sequence_key(int(seed), 5))

    def test_one_stream_keys_equal_seed_sequence_over_many_keys(self):
        # the one-stream path reads the four uint32 state words as two uint64 words
        rng = np.random.default_rng(11)
        for _ in range(600):
            seed, rep, worker = (int(v) for v in rng.integers(0, 2**32, size=3))
            want = seed_sequence_key(seed, 202, rep, worker)
            assert np.array_equal(stream_keys(seed, 202, rep, worker), want)
            got = stream_keys(seed, 202, np.array([rep])[:, None], np.array([worker]))
            assert got.shape == (1, 1, 2) and np.array_equal(got[0, 0], want)

    def test_one_element_arrays_are_one_stream(self):
        got = stream_keys(9, np.array([[4]]), np.array([2**32]))
        assert got.shape == (1, 1, 2)
        assert np.array_equal(got[0, 0], seed_sequence_key(9, 4, 2**32))

    @pytest.mark.parametrize(
        "args", [(-1,), (0, -3), (0, np.array([1, -1])), (np.array([-1]), 0), (np.array([-1, 1]), 0)]
    )
    def test_negative_components_rejected(self, args):
        with pytest.raises(ValueError):
            stream_keys(*args)
        if all(np.ndim(a) == 0 for a in args):
            with pytest.raises(ValueError):  # as SeedSequence does
                seed_sequence_key(*args)

    def test_array_entries_beyond_32_bits_rejected(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            stream_keys(0, np.array([1, 2**32]))

    @pytest.mark.parametrize("component", [1.5, np.array([1.0]), np.array([1.0, 2.0])])
    def test_non_integer_components_rejected(self, component):
        with pytest.raises(TypeError):
            stream_keys(0, component)

    def test_no_overflow_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stream_keys(2**64 + 3, 2**40, 2**32 - 1)
            stream_keys(np.uint64(2**63), np.uint32(2**32 - 1), np.arange(5))
            stream_keys(2**64 - 1, np.array([0, 2**32 - 1], dtype=np.uint32)[:, None], np.arange(4))
            stream(np.uint32(2**32 - 1), np.int64(9)).random(8)

    @pytest.mark.parametrize("key", [(0,), (202, 3, 1), (2**64 + 3,)])
    def test_stream_draws_equal_seed_sequence_generator(self, key):
        want = np.random.Generator(np.random.Philox(np.random.SeedSequence(20240801, spawn_key=key)))
        assert np.array_equal(stream(20240801, *key).random(8), want.random(8))

    def test_batched_generators_draw_like_streams(self):
        keys = stream_keys(20240801, 202, np.arange(3)[:, None], np.arange(2))
        for r in range(3):
            for i in range(2):
                assert np.array_equal(generator(keys[r, i]).random(8), stream(20240801, 202, r, i).random(8))


def assert_same_state(got: dict, want: dict):
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, dict):
            assert_same_state(got[name], value)
        else:
            assert np.array_equal(got[name], value), name


class TestUniforms:
    # counts that are not multiples of four leave buffered Philox words behind,
    # which must not leak into the next key's draws
    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (5, 4)])
    @pytest.mark.parametrize("count", [1, 3, 4, 5, 1000])
    def test_rows_equal_one_generator_per_key(self, shape, count):
        rows, cols = shape
        keys = stream_keys(20240801, 202, np.arange(rows)[:, None], np.arange(cols))
        got = uniforms(keys, count)
        assert got.shape == (rows, cols, count)
        for r in range(rows):
            for i in range(cols):
                assert np.array_equal(got[r, i], generator(keys[r, i]).random(count)), (r, i)

    @pytest.mark.parametrize("count", [1, 3, 4, 5])
    def test_rekeyed_state_equals_fresh_philox(self, count):
        keys = stream_keys(7, 202, np.arange(5)[:, None], np.arange(4)).reshape(-1, 2)
        for k, rng in enumerate(_rekeyed(keys)):
            assert_same_state(rng.bit_generator.state, np.random.Philox(_PhiloxKey(keys[k])).state)
            rng.random(count)
        assert k == len(keys) - 1

    def test_single_key_draws_like_stream(self):
        assert np.array_equal(uniforms(stream_keys(3, 202, 0, 0), 6), stream(3, 202, 0, 0).random(6))

    def test_no_keys_draw_nothing(self):
        assert uniforms(np.empty((0, 3, 2), dtype=np.uint64), 4).shape == (0, 3, 4)

    @pytest.mark.parametrize("tau", [1, 4])
    def test_batched_coordinate_rows_equal_sample_indices(self, tau):
        dist = Coordinate([0.1, 0.5, 0.15, 0.25])
        keys = stream_keys(20240801, 202, np.arange(6)[:, None], np.arange(tau))
        rows = dist.indices(uniforms(keys, 50))
        for r in range(6):
            for i in range(tau):
                assert np.array_equal(rows[r, i], dist.sample_indices(generator(keys[r, i]), 50)), (r, i)


def _one_sketch_laws():
    """(family, per-call law): each law is the one-sketch draw each family
    made before it stated its law as a bulk ``draw``, giving (cols, signs)."""

    def countsketch(rng, m, q):
        j = rng.integers(0, 2 * m, size=q)
        return j % m, np.where(j < m, 1, -1)

    coordinate = Coordinate([0.1, 0.5, 0.15, 0.25])
    return [
        (Block(9, 4), lambda rng: (np.sort(rng.permutation(9)[:4]), None)),
        (Block(5, 5), lambda rng: (np.sort(rng.permutation(5)[:5]), None)),
        (Block(9, 4, with_replacement=True), lambda rng: (np.sort(rng.integers(0, 9, size=4)), None)),
        (CountSketch(6, 3), lambda rng: countsketch(rng, 6, 3)),
        (CountSketch(6, 1), lambda rng: countsketch(rng, 6, 1)),
        (CountMin(7, 3), lambda rng: (rng.integers(0, 7, size=3), None)),
        (FixedIdentity(4), lambda rng: (np.arange(4), None)),
        (coordinate, lambda rng: (np.array([coordinate.indices(rng.random())]), None)),
    ]


LAWS = _one_sketch_laws()
LAW_IDS = [repr(dist) for dist, _ in LAWS]


def _same_draw(got, want):
    (cols, signs), (want_cols, want_signs) = got, want
    assert np.array_equal(cols, want_cols)
    assert (signs is None) == (want_signs is None)
    if signs is not None:
        assert np.array_equal(signs, want_signs)


class TestDrawLaws:
    """Each index family's bulk ``draw`` is its one-sketch law, repeated."""

    @pytest.mark.parametrize("seed", [7, 31])
    @pytest.mark.parametrize("dist, law", LAWS, ids=LAW_IDS)
    def test_draw_equals_repeated_one_sketch_law(self, dist, law, seed):
        count = 24
        bulk, single = stream(seed, 3), stream(seed, 3)
        cols, signs = dist.draw(bulk, count)
        assert cols.shape == (count, dist.q) and (signs is None or signs.shape == cols.shape)
        laws = [law(single) for _ in range(count)]
        want_signs = None if laws[0][1] is None else np.array([s for _, s in laws])
        _same_draw((cols, signs), (np.array([c for c, _ in laws]), want_signs))
        # both streams stand at the same state afterwards
        assert bulk.random() == single.random()

    @pytest.mark.parametrize("dist, law", LAWS, ids=LAW_IDS)
    def test_sample_is_the_first_draw(self, dist, law):
        cols, signs = law(stream(5, 1))
        sample = dist.sample(stream(5, 1))
        assert sample.cols == tuple(int(c) for c in cols) and sample.m == dist.m
        assert sample.signs == (None if signs is None else tuple(int(s) for s in signs))

    @pytest.mark.parametrize("dist, law", LAWS, ids=LAW_IDS)
    def test_a_shorter_draw_is_a_prefix_and_two_calls_continue_one(self, dist, law):
        for a, b in [(1, 2), (5, 12), (12, 64)]:
            short, (cols, signs) = dist.draw(stream(11, 2), a), dist.draw(stream(11, 2), b)
            _same_draw(short, (cols[:a], None if signs is None else signs[:a]))
            rng = stream(11, 2)
            first, second = dist.draw(rng, a), dist.draw(rng, b - a)
            joined = [np.concatenate([x, y]) if x is not None else None for x, y in zip(first, second)]
            _same_draw(tuple(joined), (cols, signs))

    @pytest.mark.parametrize("dist, law", LAWS, ids=LAW_IDS)
    def test_rekeyed_draws_equal_fresh_generators(self, dist, law):
        keys = stream_keys(31, 202, np.arange(4)[:, None], np.arange(3)).reshape(-1, 2)
        for k, rng in enumerate(_rekeyed(keys)):
            _same_draw(dist.draw(rng, 10), dist.draw(generator(keys[k]), 10))
        assert k == len(keys) - 1

    def test_block_tiles_continue_the_stream(self, monkeypatch):
        # a tile of two rows at a time gives the draw of one tile
        dist = Block(9, 4)
        want = dist.draw(stream(7, 4), 11)
        monkeypatch.setattr(sketching, "_TILE_BYTES", 2 * 8 * 9)
        _same_draw(dist.draw(stream(7, 4), 11), want)


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

    @pytest.mark.parametrize("label", [{"cols": (0,)}, {"signs": (1,)}, {"cols": (0,), "signs": (-1,)}])
    def test_matrix_with_index_set_rejected(self, label):
        # S = [1, 1]' labelled cols=(0,) stepped as e_0 but projected as S
        with pytest.raises(ValueError, match="not both"):
            SketchSample(np.ones((2, 1)), **label)


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
