"""Traces of the non-Kaczmarz sketch families pinned bit for bit.

``fixtures/family_traces.json`` holds, as ``float.hex`` strings, the
per-step records (``error_sq``, and ``sketch_loss``/``step_sq`` for the
basic method) and the final iterates of replications 0-2 of every
index-set family and of Gaussian sketches, each run with the basic,
parallel (tau = 3) and accelerated methods on one problem with a dense
weighting B and one with B = I. It adds a one-column CountSketch run and
runs driven by given ``samples``. Coordinate (Kaczmarz) sampling is
pinned by ``reference_traces.json``. The fixture was recorded from the
per-sketch step loop that preceded the stacked step kernel; the kernel
must reproduce every value exactly. Do not re-record the fixture to make
this test pass.

    PYTHONPATH=src python tests/test_family_traces.py --record   # rewrite the fixture
"""

import functools
import json
import sys
from pathlib import Path

import numpy as np

from sketchsolve.linalg import Problem, SpdMatrix
from sketchsolve.sketching import Block, CountMin, CountSketch, FixedIdentity, Gaussian, stream
from sketchsolve.solvers import SolverConfig, run_trajectories

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "family_traces.json"
REPLICATIONS = (0, 1, 2)
ITERATIONS = 8
SEED = 31
METHODS = {
    "basic": SolverConfig(omega=0.9, max_iters=ITERATIONS, master_seed=SEED, record=("iterates",)),
    "parallel": SolverConfig(
        omega=1.3, tau=3, max_iters=ITERATIONS, master_seed=SEED, record=("iterates",)
    ),
    "accelerated": SolverConfig(
        omega=1.0, gamma=1.2, max_iters=ITERATIONS, master_seed=SEED, record=("iterates",)
    ),
}


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).reshape(-1)]


def problems() -> dict:
    rng = stream(SEED, 0)
    # dense B, rank-deficient A: some grams are singular and hit the pseudoinverse cutoff
    a = rng.standard_normal((12, 7)) @ rng.standard_normal((7, 9))
    g = rng.standard_normal((9, 9))
    dense = Problem(a, a @ rng.standard_normal(9), SpdMatrix(g @ g.T + 2.0 * np.eye(9)))
    a = rng.standard_normal((10, 17))
    identity = Problem(a, a @ rng.standard_normal(17))
    return {"dense-B": dense, "identity-B": identity}


def families(m: int) -> dict:
    return {
        "fixed-identity": FixedIdentity(m),
        "block": Block(m, 3),
        "block-replace": Block(m, 3, with_replacement=True),
        "countsketch": CountSketch(m, 3),
        "countmin": CountMin(m, 3),
        "gaussian": Gaussian(m, 2),
    }


def _record(traces) -> dict:
    out = {}
    for rep, trace in zip(REPLICATIONS, traces):
        record = {"error_sq": _hex(trace.error_sq), "final": _hex(trace.iterates[-1])}
        if trace.sketch_loss is not None:
            record["sketch_loss"] = _hex(trace.sketch_loss)
            record["step_sq"] = _hex(trace.step_sq)
        out[str(rep)] = record
    return out


@functools.cache
def compute() -> dict:
    out = {}
    for pname, problem in problems().items():
        x0 = stream(SEED, 1).standard_normal(problem.n)
        for fname, dist in families(problem.m).items():
            for method, config in METHODS.items():
                traces = run_trajectories(problem, dist, config, method, REPLICATIONS, x0)
                out[f"{pname}/{fname}/{method}"] = _record(traces)
        # one-column index sketches that are not Coordinate sampling
        traces = run_trajectories(
            problem, CountSketch(problem.m, 1), METHODS["parallel"], "parallel", REPLICATIONS, x0
        )
        out[f"{pname}/countsketch-1/parallel"] = _record(traces)
        # given samples: a group of tau sketches per iteration, and one sketch per iteration
        rng = stream(SEED, 2)
        groups = [[CountSketch(problem.m, 2).sample(rng) for _ in range(3)] for _ in range(ITERATIONS)]
        trace = run_trajectories(
            problem, None, METHODS["parallel"], "parallel", (0,), x0, samples=groups
        )
        out[f"{pname}/samples/parallel"] = _record(trace)
        singles = [Gaussian(problem.m, 3).sample(rng) for _ in range(ITERATIONS)]
        trace = run_trajectories(problem, None, METHODS["basic"], "basic", (0,), x0, samples=singles)
        out[f"{pname}/samples/basic"] = _record(trace)
    return out


def test_family_traces_match_fixture_bitwise():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = compute()
    assert sorted(got) == sorted(expected)
    for key, record in expected.items():
        assert got[key] == record, key


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
