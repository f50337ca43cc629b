"""Solves to tolerance pinned bit for bit.

``fixtures/solve_traces.json`` holds, as ``float.hex`` strings, three
Kaczmarz runs on a Gaussian 60x20 system with a dense weighting B, each
stopped by ``tol`` after a few hundred iterations:

* a one-replication basic run (126 iterations: ``error_sq``,
  ``iterates``, ``sketch_loss`` and ``step_sq``),
* a lockstep parallel run of replications 0-2 with tau = 2 that records
  iterates (196 iterations: ``error_sq`` and the final iterate of each
  replication), and
* a one-replication accelerated run from x_1 != x_0 that records no
  iterates (292 iterations: ``error_sq``).

Each stops past the first chunk of on-demand draws, so the draws that
extend a stream are pinned too.

The fixture was recorded from the engine that drew every stream's whole
``max_iters`` budget up front and stepped out of place; an engine that
draws on demand and writes its iterates in place must reproduce every
value exactly. Do not re-record the fixture to make this test pass. A second test
checks that no draw asks a stream for more than max(first chunk,
2 x iterations) uniforms.

    PYTHONPATH=src python tests/test_solve_traces.py --record   # rewrite the fixture
"""

import functools
import json
import sys
from pathlib import Path

import numpy as np

from sketchsolve import solvers
from sketchsolve.linalg import Problem, SpdMatrix
from sketchsolve.problems import gaussian_consistent
from sketchsolve.sketching import kaczmarz_distribution, stream, uniforms
from sketchsolve.solvers import SolverConfig, run_accelerated, run_basic, run_trajectories

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "solve_traces.json"
SEED = 43
BUDGET = 2000


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).reshape(-1)]


@functools.cache
def setup():
    a, b, _, _ = gaussian_consistent(60, 20, seed=SEED)
    rng = stream(SEED, 1)
    g = rng.standard_normal((20, 20))
    problem = Problem(a, b, SpdMatrix(0.02 * g @ g.T + np.eye(20)))
    x0 = rng.standard_normal(20)
    x1 = x0 + 0.1 * rng.standard_normal(20)
    return problem, kaczmarz_distribution(a), x0, x1


def _tol(problem, x0, relative):
    return relative * problem.metric.norm(x0 - problem.project(x0))


def runs() -> dict:
    """Label -> the function that runs that solve."""
    problem, dist, x0, x1 = setup()
    basic = SolverConfig(
        omega=1.0, max_iters=BUDGET, master_seed=SEED, tol=_tol(problem, x0, 1e-1),
        record=("error_sq", "iterates"),
    )
    parallel = SolverConfig(
        omega=1.2, tau=2, max_iters=BUDGET, master_seed=SEED, tol=_tol(problem, x0, 5e-2),
        record=("error_sq", "iterates"),
    )
    accelerated = SolverConfig(
        omega=1.0, gamma=1.3, max_iters=BUDGET, master_seed=SEED, tol=_tol(problem, x0, 1e-2)
    )
    return {
        "basic": lambda: [run_basic(problem, dist, basic, x0=x0, replication=3)],
        "parallel": lambda: run_trajectories(problem, dist, parallel, "parallel", (0, 1, 2), x0),
        "accelerated": lambda: [run_accelerated(problem, dist, accelerated, x0=x0, x1=x1)],
    }


@functools.cache
def compute() -> dict:
    out = {}
    for label, run in runs().items():
        for r, trace in enumerate(run()):
            record = {"error_sq": _hex(trace.error_sq)}
            if label == "basic":
                record["iterates"] = _hex(trace.iterates)
                record["sketch_loss"] = _hex(trace.sketch_loss)
                record["step_sq"] = _hex(trace.step_sq)
            elif label == "parallel":
                record["final"] = _hex(trace.iterates[-1])
            out[f"{label}/{r}"] = record
    return out


def test_tol_stopped_solves_draw_on_demand(monkeypatch):
    counts = []

    def recording(keys, count):
        counts.append(count)
        return uniforms(keys, count)

    monkeypatch.setattr(solvers, "uniforms", recording)
    for label, run in runs().items():
        counts.clear()
        iterations = len(run()[0].error_sq) - 1
        assert iterations > solvers._FIRST_DRAWS, label
        assert counts and max(counts) <= max(solvers._FIRST_DRAWS, 2 * iterations), (label, counts)


def test_solve_traces_match_fixture_bitwise():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = compute()
    assert sorted(got) == sorted(expected)
    for key, record in expected.items():
        assert got[key] == record, key


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
