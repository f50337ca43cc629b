"""The chunked trajectory loop stops where a per-iteration tol test would.

``run_trajectories`` steps a chunk of iterations, then takes their
error norms, step lengths and ``tol`` test in bulk, and stops at the
first row of the chunk within ``tol``; the steps past it are discarded.
These tests pin that a ``tol`` run which stops inside a chunk equals, bit
for bit, the run whose budget is that iteration count, that a start
already within ``tol`` takes no step, that stops on either side of a
draw boundary keep the on-demand draw bound, and that the chunk length
rule keeps a chunk within its byte budget.
"""

import functools

import numpy as np
import pytest

from sketchsolve import solvers
from sketchsolve.linalg import Problem, SpdMatrix
from sketchsolve.problems import gaussian_consistent
from sketchsolve.sketching import kaczmarz_distribution, stream, uniforms
from sketchsolve.solvers import SolverConfig, run_trajectories

SEED = 11


@functools.cache
def setup(dense: bool):
    a, b, _, _ = gaussian_consistent(40, 12, seed=SEED)
    rng = stream(SEED, 1)
    g = rng.standard_normal((12, 12))
    metric = SpdMatrix(0.05 * g @ g.T + np.eye(12)) if dense else None
    problem = Problem(a, b, metric)
    x0 = rng.standard_normal(12)
    return problem, kaczmarz_distribution(a), x0, x0 + 0.1 * rng.standard_normal(12)


def _start_error(problem, x0):
    return problem.metric.norm(x0 - problem.project(x0))


def _traces(problem, dist, config, method, reps, x0, x1):
    return run_trajectories(problem, dist, config, method, reps, x0, x1 if method == "accelerated" else None)


def _assert_same(got, want):
    for name in ("error_sq", "sketch_loss", "step_sq", "iterates"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _is_chunk_end(k: int) -> bool:
    # a power of two, or a multiple of the 64-row cap
    return k & (k - 1) == 0 or k % 64 == 0


@pytest.mark.parametrize("record", [("error_sq",), ("error_sq", "iterates")])
@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("reps", [(0,), (0, 1, 2)])
@pytest.mark.parametrize("method", ["basic", "parallel", "accelerated"])
def test_tol_stop_inside_a_chunk_equals_the_budget_run(method, reps, dense, record):
    problem, dist, x0, x1 = setup(dense)

    def config(**kwargs):
        return SolverConfig(omega=1.0, tau=2, gamma=1.2, master_seed=SEED, record=record, **kwargs)

    free = _traces(problem, dist, config(max_iters=300), method, reps, x0, x1)
    worst = np.max([trace.error_sq for trace in free], axis=0)
    # the first iteration past 40 inside a chunk whose worst error is a new low: tol stops there
    stop = next(k for k in range(40, 301) if not _is_chunk_end(k) and worst[k] < worst[:k].min())
    tol = float(np.sqrt(worst[stop]))
    stopped = _traces(problem, dist, config(max_iters=3000, tol=tol), method, reps, x0, x1)
    assert len(stopped[0].error_sq) - 1 == stop
    assert all(trace.converged for trace in stopped)
    budget = _traces(problem, dist, config(max_iters=stop), method, reps, x0, x1)
    for got, want in zip(stopped, budget, strict=True):
        _assert_same(got, want)
        assert want.converged is None


@pytest.mark.parametrize("reps", [(0,), (0, 1, 2)])
@pytest.mark.parametrize("method", ["basic", "accelerated"])
def test_start_within_tol_takes_no_step(monkeypatch, method, reps):
    problem, dist, x0, _ = setup(True)

    def no_step(*args, **kwargs):
        raise AssertionError("stepped")

    monkeypatch.setattr(solvers.Workspace, "coordinate_step", no_step)
    config = SolverConfig(
        omega=1.0, gamma=1.2, max_iters=100, master_seed=SEED, record=("error_sq", "iterates"),
        tol=2.0 * _start_error(problem, x0),
    )
    for trace in run_trajectories(problem, dist, config, method, reps, x0):
        assert trace.converged is True
        assert trace.error_sq.shape == (1,) and trace.iterates.shape == (1, problem.n)
        assert np.array_equal(trace.iterates[0], x0)
        if method == "basic":
            assert trace.sketch_loss.shape == trace.step_sq.shape == (0,)


@pytest.mark.parametrize("method, reps", [("basic", (0,)), ("parallel", (0, 1, 2))])
@pytest.mark.parametrize("stop", [63, 64, 65, 129])
def test_stops_around_draw_boundaries_keep_the_draw_bound(monkeypatch, method, reps, stop):
    problem, dist, x0, _ = setup(False)
    # under relaxation no step leaves the error as it was, so tol first holds at `stop`
    free = SolverConfig(omega=0.9, tau=2, max_iters=200, master_seed=SEED)
    worst = np.max([t.error_sq for t in run_trajectories(problem, dist, free, method, reps, x0)], axis=0)
    assert np.all(np.diff(worst[: stop + 1]) < 0.0)
    counts = []

    def recording(keys, count):
        counts.append(count)
        return uniforms(keys, count)

    monkeypatch.setattr(solvers, "uniforms", recording)
    config = SolverConfig(
        omega=0.9, tau=2, max_iters=5000, master_seed=SEED, tol=float(np.sqrt(worst[stop]))
    )
    traces = run_trajectories(problem, dist, config, method, reps, x0)
    assert len(traces[0].error_sq) - 1 == stop
    assert counts and max(counts) <= max(solvers._FIRST_DRAWS, 2 * stop), counts


@pytest.mark.parametrize(
    "reps, n", [(1, 2), (1, 100), (20, 100), (400, 2), (3, 700), (400, 5000), (1, 10**6)]
)
def test_chunk_length_stays_within_the_byte_budget(reps, n):
    row_bytes = 8 * reps * n
    rows = solvers._chunk_rows(row_bytes)
    assert 1 <= rows <= solvers._MAX_CHUNK and rows & (rows - 1) == 0
    # the largest power of two that fits, or one row when none does
    assert rows * row_bytes <= solvers._CHUNK_BYTES or rows == 1
    assert rows == solvers._MAX_CHUNK or 2 * rows * row_bytes > solvers._CHUNK_BYTES
    # every draw boundary from the first on is a chunk end
    assert solvers._FIRST_DRAWS % rows == 0 and solvers._FIRST_DRAWS % solvers._FIRST_CHUNK == 0


def test_a_short_solve_steps_one_first_chunk(monkeypatch):
    problem, dist, x0, _ = setup(False)
    free = SolverConfig(omega=0.9, max_iters=3, master_seed=SEED)
    error_sq = run_trajectories(problem, dist, free, "basic", (0,), x0)[0].error_sq
    calls = []
    original = solvers.Workspace.coordinate_step

    def counting(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(solvers.Workspace, "coordinate_step", counting)
    config = SolverConfig(omega=0.9, max_iters=1000, master_seed=SEED, tol=float(np.sqrt(error_sq[3])))
    assert len(run_trajectories(problem, dist, config, "basic", (0,), x0)[0].error_sq) == 4
    # the first chunk of a tol run is short, so a quick stop steps little past it
    assert len(calls) == solvers._FIRST_CHUNK
