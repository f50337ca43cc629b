import json

import numpy as np
import pytest

from sketchsolve.config import PROBLEM_KINDS, build_problem, load_config
from sketchsolve.linalg import Problem
from sketchsolve.problems import (
    diagonal_problem,
    gaussian_consistent,
    gossip_incidence,
    spd_with_matching_metric,
)
from sketchsolve.reformulation import build_reformulation
from sketchsolve.sketching import kaczmarz_distribution


class TestDiagonal:
    def test_planted_solution(self):
        a, b, metric, x = diagonal_problem(diagonal=[1.0, 2.0], planted=[1.0, 1.0])
        assert np.allclose(b, [1.0, 2.0])
        assert np.allclose(a @ x, b)

    def test_condition_target(self):
        a, b, metric, _ = diagonal_problem(size=12, condition=1000.0)
        problem = Problem(a, b, metric)
        reform = build_reformulation(problem, kaczmarz_distribution(a))
        assert reform.spectrum.zeta == pytest.approx(1000.0, rel=1e-9)

    def test_rejects_zero_diagonal(self):
        with pytest.raises(ValueError):
            diagonal_problem(diagonal=[1.0, 0.0])


class TestGaussian:
    def test_consistent_by_construction(self):
        a, b, metric, x = gaussian_consistent(50, 20, seed=5)
        problem = Problem(a, b, metric)
        assert problem.consistency_residual <= 1e-10 * (1 + np.linalg.norm(b))
        assert np.linalg.norm(a @ x - b) <= 1e-9 * (1 + np.linalg.norm(b))


class TestSpd:
    def test_metric_equals_matrix(self):
        a, b, metric, _ = spd_with_matching_metric(6, condition=50.0, seed=3)
        assert np.allclose(a, metric.mat)
        assert np.allclose(a, a.T)
        assert np.linalg.eigvalsh(a)[0] > 0


class TestGossip:
    def test_path_graph_incidence(self):
        a, b, metric, _ = gossip_incidence(3, topology="path")
        assert a.shape == (2, 3)
        assert np.allclose(a @ np.ones(3), 0.0)
        assert np.all(b == 0.0)

    def test_random_graph_connected_null_space(self):
        a, b, _, _ = gossip_incidence(12, topology="random", extra_edges=5, seed=9)
        assert np.allclose(a @ np.ones(12), 0.0)
        # connected graph: null space of the incidence matrix is the consensus line
        assert np.linalg.matrix_rank(a) == 11

    def test_explicit_edges(self):
        a, _, _, _ = gossip_incidence(3, edges=[(0, 1), (1, 2)])
        assert a.shape == (2, 3)

    def test_disconnected_edges_rejected(self):
        with pytest.raises(ValueError):
            gossip_incidence(4, edges=[(0, 1), (2, 3)])

    def test_kaczmarz_on_gossip_averages(self):
        # projecting onto one edge constraint averages the two endpoint values
        from sketchsolve.solvers import SolverConfig, run_basic

        a, b, metric, _ = gossip_incidence(8, topology="cycle")
        problem = Problem(a, b, metric)
        dist = kaczmarz_distribution(a)
        cfg = SolverConfig(omega=1.0, max_iters=400, master_seed=21, record=("error_sq", "iterates"))
        x0 = np.arange(8.0)
        trace = run_basic(problem, dist, cfg, x0=x0)
        assert np.allclose(trace.anchor, np.full(8, x0.mean()))
        assert trace.error_sq[-1] <= 1e-6 * trace.error_sq[0]


SEED = 20240801

# one config per generated kind, against the generator call it should make:
# seed falls back to the config seed, condition to 10, topology to "random"
# and extra_edges to 0
GENERATED = [
    ({"kind": "diagonal", "diagonal": [1.0, 2.0]}, lambda: diagonal_problem(diagonal=[1.0, 2.0], seed=SEED)),
    (
        {"kind": "diagonal", "size": 5, "condition": 100, "planted": [1, 2, 3, 4, 5]},
        lambda: diagonal_problem(size=5, condition=100.0, planted=[1.0, 2.0, 3.0, 4.0, 5.0], seed=SEED),
    ),
    ({"kind": "gaussian-consistent", "rows": 4, "cols": 3}, lambda: gaussian_consistent(4, 3, seed=SEED)),
    ({"kind": "spd-with-B-equals-A", "size": 4}, lambda: spd_with_matching_metric(4, condition=10.0, seed=SEED)),
    (
        {"kind": "spd-with-B-equals-A", "size": 4, "condition": 50.0, "seed": 3},
        lambda: spd_with_matching_metric(4, condition=50.0, seed=3),
    ),
    (
        {"kind": "graph-incidence-gossip", "nodes": 6, "seed": 2},
        lambda: gossip_incidence(6, topology="random", extra_edges=0, seed=2),
    ),
    (
        {"kind": "graph-incidence-gossip", "nodes": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
        lambda: gossip_incidence(5, topology="path"),
    ),
]


class TestBuildProblem:
    def test_every_generated_kind_is_covered(self):
        assert {problem["kind"] for problem, _ in GENERATED} == PROBLEM_KINDS - {"files"}

    @pytest.mark.parametrize("spec, generate", GENERATED)
    def test_dispatch(self, tmp_path, spec, generate):
        path = tmp_path / "config.json"
        config = {"seed": SEED, "problem": spec, "metric": {"kind": "auto"}, "distribution": {"kind": "kaczmarz"}}
        path.write_text(json.dumps(config))
        problem, planted = build_problem(load_config(path))
        a, b, metric, x = generate()
        assert np.array_equal(problem.A, a) and np.array_equal(problem.b, b)
        assert np.array_equal(problem.metric.mat, metric.mat)
        assert np.array_equal(planted, x)
