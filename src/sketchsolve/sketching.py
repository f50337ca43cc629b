"""Distributions over sketching matrices S with m rows.

A sketch compresses the system Ax = b to S'Ax = S'b. Each distribution
can draw samples from a seeded counter-based generator and, when its
support is a reasonably small finite set, enumerate that support exactly
so expectations can be computed without Monte Carlo.

Structured sketches (fixed identity, coordinate, block, count families)
are index sets: column j of S is ``signs[j] * e_{cols[j]}``, so S'A is a
gather of signed rows of A and no dense m-by-q matrix is needed. Each
index family states its law once, as ``draw(rng, count)``: ``(count, q)``
columns and signs, bit-equal to ``count`` one-sketch draws in turn, so
the trajectory engine draws a whole stream in one call. ``sample`` is
the one-sketch case of ``draw``; only Gaussian, which is dense, has its
own. A :class:`SketchSample` carries only ``cols`` and ``signs``; its
dense ``matrix`` is built on first access. An enumerated support is one
:class:`Support`: stacked ``(N, q)`` column (and sign) arrays with
``(N,)`` probabilities.

Streams are keyed by (master seed, stream ids...) through a Philox
counter-based bit generator, so concurrent tasks can own disjoint
streams without coordination and every draw sequence is reproducible.
:func:`stream_keys` derives the Philox keys of many streams at once with
numpy's SeedSequence pool hash, vectorised over broadcast integer
arrays; :func:`stream` is its one-row case. Every generator is
bit-identical to ``Generator(Philox(SeedSequence(seed, spawn_key=key)))``,
and a batch of streams builds no SeedSequence. :func:`uniforms` draws
from many keyed streams through one Philox generator that is restarted
on each key in turn, so a batch builds one generator, not one per stream.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys

import numpy as np

__all__ = [
    "stream",
    "stream_keys",
    "generator",
    "uniforms",
    "SketchSample",
    "Support",
    "SketchDistribution",
    "FixedIdentity",
    "Coordinate",
    "Block",
    "Gaussian",
    "CountSketch",
    "CountMin",
    "kaczmarz_distribution",
]

DEFAULT_SUPPORT_CAP = 100_000
# bytes of the arange(m) tile Block.draw permutes at once
_TILE_BYTES = 1 << 20


# numpy's SeedSequence pool hash (numpy/random/bit_generator.pyx): a pool
# of four uint32 words, its hashmix and mix functions and their constants
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_LITTLE_ENDIAN = sys.byteorder == "little"


def _key_words(value) -> list:
    """The uint32 words of one key component, least significant first.

    An integer gives as many words as SeedSequence gives it (0 gives
    one), as Python integers; an integer array gives one uint32 array,
    so its entries must be below 2**32.
    """
    if np.ndim(value) == 0:
        n = operator.index(value)
        if n < 0:
            raise ValueError(f"stream key components must be non-negative, got {n}")
        words = [n & _MASK32]
        while n > _MASK32:
            n >>= 32
            words.append(n & _MASK32)
        return words
    arr = np.asarray(value)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"stream key components must be integers, got dtype {arr.dtype}")
    if arr.size and arr.min() < 0:
        raise ValueError("stream key components must be non-negative")
    if arr.size and arr.max() > _MASK32:
        raise ValueError("array stream key components must be below 2**32; pass a larger one as an integer")
    return [arr.astype(np.uint32)]


def _hashmix(value, const: int, mult: int):
    """One hash step: the hashed word and the next hash constant.

    Words are Python integers or uint32 arrays; masking keeps integers
    to 32 bits and leaves arrays, whose products wrap, unchanged.
    """
    value = value ^ const
    const = (const * mult) & _MASK32
    value = (value * const) & _MASK32
    return value ^ (value >> 16), const


def stream_keys(master_seed, *key) -> np.ndarray:
    """Philox keys of the streams (master_seed, *key), computed together.

    Every argument is a non-negative integer or an integer array; arrays
    broadcast against each other. Returns a uint64 array of shape
    ``broadcast shape + (2,)`` whose every row equals
    ``SeedSequence(master_seed, spawn_key=key).generate_state(2, np.uint64)``
    for that element's key. One stream is hashed by SeedSequence itself;
    more are hashed together by a port of its pool hash, which takes
    array entries as one 32-bit word each, so they must be below 2**32.
    """
    args = [a if isinstance(a, (int, np.integer)) else np.asarray(a) for a in (master_seed, *key)]
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    if all(a.size == 1 for a in arrays):
        # one stream: numpy's compiled SeedSequence hashes a single key
        # about twice as fast as this port does on Python integers
        if arrays:
            args = [a.item() if isinstance(a, np.ndarray) else a for a in args]
        sequence = np.random.SeedSequence(args[0], spawn_key=args[1:])
        if _LITTLE_ENDIAN:
            # generate_state(2, np.uint64) reads these four words as little-endian pairs
            state = sequence.generate_state(4).view(np.uint64)
        else:
            state = sequence.generate_state(2, np.uint64)
        return state.reshape((1,) * max(a.ndim for a in arrays) + (2,)) if arrays else state
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    entropy = _key_words(args[0])
    spawn = [w for a in args[1:] for w in _key_words(a)]
    if spawn and len(entropy) < _POOL_SIZE:
        # as SeedSequence: a spawned sequence zero-pads its entropy to the pool size
        entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy += spawn

    # fill the pool from the first words (zeros past the entropy), mix every
    # pool word into every other, then every further word into all four;
    # words[:4] is the pool and words[4:] the further words
    const, words = _INIT_A, []
    for i in range(_POOL_SIZE):
        word, const = _hashmix(entropy[i] if i < len(entropy) else 0, const, _MULT_A)
        words.append(word)
    words += entropy[_POOL_SIZE:]
    pool = range(_POOL_SIZE)
    steps = [(s, d) for s in pool for d in pool if s != d]
    steps += [(s, d) for s in range(_POOL_SIZE, len(words)) for d in pool]
    for src, dst in steps:
        word, const = _hashmix(words[src], const, _MULT_A)
        mixed = (((_MIX_MULT_L * words[dst]) & _MASK32) - ((_MIX_MULT_R * word) & _MASK32)) & _MASK32
        words[dst] = mixed ^ (mixed >> 16)

    const, state = _INIT_B, []
    for word in words[:_POOL_SIZE]:
        word, const = _hashmix(word, const, _MULT_B)
        state.append(word.astype(np.uint64) if isinstance(word, np.ndarray) else word)
    # two uint64 words from four uint32 words, each pair little-endian
    keys = np.empty((*shape, 2), dtype=np.uint64)
    keys[..., 0] = state[0] | state[1] << 32
    keys[..., 1] = state[2] | state[3] << 32
    return keys


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """A seed sequence that holds one precomputed Philox key.

    Philox asks its seed sequence for ``generate_state(2, np.uint64)``.
    Passing this object builds no SeedSequence, where ``Philox(key=...)``
    would build one from operating-system entropy.
    """

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds one Philox key: two uint64 words")
        return self.key


def generator(key: np.ndarray) -> np.random.Generator:
    """The Philox generator of one row of :func:`stream_keys`."""
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def _rekeyed(keys: np.ndarray):
    """One Philox generator, yielded once per key row of ``keys``.

    Before each further yield it is restarted on the next key through the
    public ``bit_generator.state`` setter: counter 0 and an empty buffer,
    as a fresh ``Philox`` of that key has. One key builds one generator
    and restarts nothing.
    """
    rng = generator(keys[0])
    fresh = rng.bit_generator.state if len(keys) > 1 else None
    yield rng
    for key in keys[1:]:
        fresh["state"]["key"] = key
        rng.bit_generator.state = fresh
        yield rng


def uniforms(keys: np.ndarray, count: int) -> np.ndarray:
    """``generator(key).random(count)`` for every key row, as one ``(..., count)`` array.

    ``keys`` is a ``(..., 2)`` array from :func:`stream_keys`.
    """
    keys, count = np.asarray(keys, dtype=np.uint64), int(count)
    flat = keys.reshape(-1, 2)
    out = np.empty((len(flat), count))
    for row, rng in zip(out, _rekeyed(flat)):
        rng.random(out=row)
    return out.reshape(*keys.shape[:-1], count)


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for the stream (master_seed, *key).

    Distinct keys give statistically independent streams; the same key
    always reproduces the same draw sequence regardless of how many
    other streams are in use. The generator is bit-identical to
    ``Generator(Philox(SeedSequence(master_seed, spawn_key=key)))``.
    """
    return generator(stream_keys(master_seed, *key))


class SketchSample:
    """One drawn sketching matrix S with m rows and q columns.

    Either a dense ``matrix`` (Gaussian draws) or an index set, never
    both: column ``j`` of S is ``signs[j] * e_{cols[j]}`` (signs default
    to +1), and ``m`` gives the row count. The dense matrix of an index
    set is built on first access; a matrix with ``cols`` or ``signs`` is
    an error. ``key`` is a canonical hashable label used to match
    empirical frequencies against an enumerated support. Column order
    and signs do not affect the induced operators, so keys are sorted.
    """

    __slots__ = ("_matrix", "cols", "signs", "m")

    def __init__(self, matrix=None, cols=None, signs=None, m: int | None = None):
        self._matrix = matrix
        self.cols = None if cols is None else tuple(int(c) for c in cols)
        self.signs = None if signs is None else tuple(int(s) for s in signs)
        self.m = m if matrix is None else matrix.shape[0]
        self.__post_init__()

    def __post_init__(self):
        """Freeze a given matrix, which takes no index set; an index set must know its row count."""
        if self._matrix is not None:
            if self.cols is not None or self.signs is not None:
                raise ValueError("a sketch is a matrix or an index set, not both")
            self._matrix.flags.writeable = False
        elif self.cols is None or self.m is None:
            raise ValueError("a sketch needs a matrix, or column indices and a row count m")

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            mat = np.zeros((self.m, len(self.cols)))
            mat[self.cols, np.arange(len(self.cols))] = 1.0 if self.signs is None else self.signs
            mat.flags.writeable = False
            self._matrix = mat
        return self._matrix

    @property
    def q(self) -> int:
        return len(self.cols) if self._matrix is None else self._matrix.shape[1]

    @property
    def key(self):
        if self.cols is None:
            return None
        signs = self.signs if self.signs is not None else (1,) * len(self.cols)
        return tuple(sorted(zip(self.cols, signs)))


class Support:
    """An enumerated finite sketch distribution, stacked.

    Atom ``k`` is the index-set sketch with columns ``cols[k]`` and
    signs ``signs[k]`` (None: all +1), drawn with probability
    ``probs[k]``. ``len`` is the atom count; iterating yields
    ``(SketchSample, probability)`` pairs of the same atoms in order.
    """

    def __init__(self, m: int, cols, probs, signs=None):
        self.m = int(m)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.probs = np.asarray(probs, dtype=float)
        self.signs = None if signs is None else np.asarray(signs, dtype=np.intp)
        for arr in (self.cols, self.probs, self.signs):
            if arr is not None:
                arr.flags.writeable = False

    @property
    def q(self) -> int:
        return self.cols.shape[1]

    def __len__(self) -> int:
        return len(self.probs)

    def __iter__(self):
        for k, cols in enumerate(self.cols):
            signs = None if self.signs is None else self.signs[k]
            yield SketchSample(cols=cols, signs=signs, m=self.m), float(self.probs[k])


def _multiset_probability(counts, alphabet_size: int) -> float:
    q = sum(counts)
    coef = math.factorial(q)
    for c in counts:
        coef //= math.factorial(c)
    return float(coef) / float(alphabet_size) ** q


def _multisets(alphabet_size: int, q: int, cap: int):
    """Stacked q-multisets of range(alphabet_size) and their probabilities.

    A multiset's probability is that of drawing it with q independent
    uniform draws. None when there are more than ``cap`` multisets.
    """
    if math.comb(alphabet_size + q - 1, q) > cap:
        return None
    combos = list(itertools.combinations_with_replacement(range(alphabet_size), q))
    probs = [_multiset_probability([c.count(j) for j in set(c)], alphabet_size) for c in combos]
    return np.array(combos, dtype=np.intp), np.array(probs)


class SketchDistribution:
    """Base class: a distribution over sketching matrices with m rows and q columns.

    An index-set family states its law once, as :meth:`draw`, and
    :meth:`sample` is its one-sketch case. A dense family has no index
    law and overrides :meth:`sample` instead.
    """

    m: int
    q: int

    def draw(self, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray | None]:
        """``count`` index-set sketches: ``(count, q)`` columns and signs.

        Row k is the k-th sketch; signs are None when every sign is +1.
        The rows equal ``count`` one-sketch draws in turn from the same
        stream state, so ``draw(g, a)`` is the prefix of ``draw(g, b)``
        from the same state for a < b, and two calls continue the stream
        as one call does.
        """
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> SketchSample:
        """One sketch: the one row of ``draw(rng, 1)``."""
        cols, signs = self.draw(rng, 1)
        return SketchSample(cols=cols[0], signs=None if signs is None else signs[0], m=self.m)

    def support(self, cap: int = DEFAULT_SUPPORT_CAP) -> Support | None:
        """Enumerated support, or None.

        None means the support is continuous or larger than ``cap``.
        """
        return None


class FixedIdentity(SketchDistribution):
    """S equals the m-by-m identity with probability one."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m must be positive")
        self.m = self.q = int(m)

    def draw(self, rng, count):
        # the one atom; it consumes no draws
        return np.broadcast_to(np.arange(self.m), (count, self.m)), None

    def support(self, cap: int = DEFAULT_SUPPORT_CAP):
        return Support(self.m, np.arange(self.m)[None, :], [1.0])

    def __repr__(self):
        return f"FixedIdentity(m={self.m})"


class Coordinate(SketchDistribution):
    """S is the unit column e_i with probability p_i."""

    def __init__(self, probabilities):
        p = np.asarray(probabilities, dtype=float).reshape(-1)
        if p.size < 1 or np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {float(p.sum())!r}, expected 1")
        self.m, self.q = int(p.size), 1
        self.probabilities = p.copy()
        self.probabilities.flags.writeable = False
        cum = np.cumsum(p)
        cum[-1] = 1.0
        self._cum = cum

    def indices(self, uniforms: np.ndarray) -> np.ndarray:
        """The row index of each uniform in [0, 1), by inverse transform; same shape."""
        return np.searchsorted(self._cum, uniforms, side="right")

    def sample_indices(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` row indices in one call.

        Uses inverse-transform sampling on one uniform per draw, so the
        sequence is identical to ``count`` single draws from the same
        stream state.
        """
        return self.indices(rng.random(count))

    def draw(self, rng, count):
        # one uniform per draw, mapped as sample_indices maps them
        return self.indices(rng.random(count))[:, None], None

    def support(self, cap: int = DEFAULT_SUPPORT_CAP):
        rows = np.flatnonzero(self.probabilities > 0.0)
        if len(rows) > cap:
            return None
        return Support(self.m, rows[:, None], self.probabilities[rows])

    def __repr__(self):
        return f"Coordinate(m={self.m})"


class Block(SketchDistribution):
    """S is a random q-column submatrix of the m-by-m identity.

    By default the q columns form a uniformly random q-subset (sampling
    without replacement); with ``with_replacement=True`` the q columns
    are drawn independently and may repeat.
    """

    def __init__(self, m: int, q: int, with_replacement: bool = False):
        if not 1 <= q <= m:
            raise ValueError(f"need 1 <= q <= m, got q={q}, m={m}")
        self.m = int(m)
        self.q = int(q)
        self.with_replacement = bool(with_replacement)

    def draw(self, rng, count):
        if self.with_replacement:
            return np.sort(rng.integers(0, self.m, size=(count, self.q)), axis=1), None
        # each row the first q entries of a permutation(m); permuting the rows
        # of an arange(m) tile in turn continues the stream as single
        # permutations do, and a tile of at most _TILE_BYTES is filled at once
        cols = np.empty((count, self.q), dtype=np.intp)
        rows = max(1, _TILE_BYTES // (8 * self.m))
        for start in range(0, count, rows):
            tile = np.broadcast_to(np.arange(self.m), (min(rows, count - start), self.m))
            cols[start : start + rows] = rng.permuted(tile, axis=1)[:, : self.q]
        return np.sort(cols, axis=1), None

    def support(self, cap: int = DEFAULT_SUPPORT_CAP):
        if self.with_replacement:
            stacked = _multisets(self.m, self.q, cap)
            return None if stacked is None else Support(self.m, *stacked)
        count = math.comb(self.m, self.q)
        if count > cap:
            return None
        cols = np.array(list(itertools.combinations(range(self.m), self.q)), dtype=np.intp)
        return Support(self.m, cols, np.full(count, 1.0 / count))

    def __repr__(self):
        return f"Block(m={self.m}, q={self.q}, with_replacement={self.with_replacement})"


class Gaussian(SketchDistribution):
    """S is m-by-q with independent standard normal entries."""

    def __init__(self, m: int, q: int):
        if m < 1 or q < 1:
            raise ValueError("m and q must be positive")
        self.m = int(m)
        self.q = int(q)

    def sample(self, rng):
        return SketchSample(rng.standard_normal((self.m, self.q)))

    def __repr__(self):
        return f"Gaussian(m={self.m}, q={self.q})"


class CountSketch(SketchDistribution):
    """q columns drawn uniformly with replacement from [I, -I]."""

    def __init__(self, m: int, q: int):
        if m < 1 or q < 1:
            raise ValueError("m and q must be positive")
        self.m = int(m)
        self.q = int(q)

    def draw(self, rng, count):
        # j < m is +e_j, j >= m is -e_{j-m}
        j = rng.integers(0, 2 * self.m, size=(count, self.q))
        return j % self.m, np.where(j < self.m, 1, -1)

    def support(self, cap: int = DEFAULT_SUPPORT_CAP):
        stacked = _multisets(2 * self.m, self.q, cap)
        if stacked is None:
            return None
        js, probs = stacked
        return Support(self.m, js % self.m, probs, signs=np.where(js < self.m, 1, -1))

    def __repr__(self):
        return f"CountSketch(m={self.m}, q={self.q})"


class CountMin(SketchDistribution):
    """q columns drawn uniformly with replacement from the identity."""

    def __init__(self, m: int, q: int):
        if m < 1 or q < 1:
            raise ValueError("m and q must be positive")
        self.m = int(m)
        self.q = int(q)

    def draw(self, rng, count):
        return rng.integers(0, self.m, size=(count, self.q)), None

    def support(self, cap: int = DEFAULT_SUPPORT_CAP):
        stacked = _multisets(self.m, self.q, cap)
        return None if stacked is None else Support(self.m, *stacked)

    def __repr__(self):
        return f"CountMin(m={self.m}, q={self.q})"


def _row_norm_probabilities(a: np.ndarray) -> np.ndarray:
    """Squared row norms over their total, for a matrix or each matrix of an (..., m, n) stack.

    Every row must be nonzero, otherwise its selection probability would
    be paired with an undefined projection.
    """
    row_sq = np.einsum("...ij,...ij->...i", a, a)
    if np.any(row_sq == 0.0):
        raise ValueError(f"matrix has an all-zero row at index {int(np.argmin(row_sq) % a.shape[-2])}")
    return row_sq / row_sq.sum(axis=-1, keepdims=True)


def kaczmarz_distribution(mat) -> Coordinate:
    """Row sampling with probabilities proportional to squared row norms."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    return Coordinate(_row_norm_probabilities(a))
