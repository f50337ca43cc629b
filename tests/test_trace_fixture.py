"""Reference traces pinned bit for bit.

``fixtures/reference_traces.json`` holds, as ``float.hex`` strings, the
per-step records of the four solvers of ``demos/reference_config.json``
(replications 0-2, K = 25) and Monte Carlo moments (R = 50, K = 10), as
computed by the per-replication solver loops that preceded the lockstep
trajectory engine. The engine must reproduce every value exactly: a
fixed (seed, replication, worker) stream key fixes the trace. Do not
re-record the fixture to make this test pass.

    PYTHONPATH=src python tests/test_trace_fixture.py --record   # rewrite the fixture
"""

import functools
import json
import sys
from pathlib import Path

import numpy as np

from sketchsolve.analysis import monte_carlo_moments
from sketchsolve.config import build_distribution, build_problem, load_config
from sketchsolve.reformulation import build_reformulation
from sketchsolve.solvers import (
    SolverConfig,
    acceleration_parameters,
    run_accelerated,
    run_basic,
    run_parallel,
    stepsize_policy,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "reference_traces.json"
REPLICATIONS = (0, 1, 2)
ITERATIONS = 25
MC_REPLICATIONS = 50
MC_ITERATIONS = 10


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).reshape(-1)]


@functools.cache
def compute() -> dict:
    cfg = load_config(ROOT / "demos" / "reference_config.json")
    problem, _ = build_problem(cfg)
    dist = build_distribution(cfg, problem)
    reform = build_reformulation(problem, dist)
    spectrum = reform.spectrum
    seed = cfg.seed
    gamma, mu = acceleration_parameters(spectrum, 1.25)
    configs = {
        "basic-unit": ("basic", SolverConfig(omega=1.0, max_iters=ITERATIONS, master_seed=seed)),
        "basic-optimal": (
            "basic",
            SolverConfig(
                omega=stepsize_policy(spectrum, "optimal"), max_iters=ITERATIONS, master_seed=seed
            ),
        ),
        "parallel-4": (
            "parallel",
            SolverConfig(omega=1.1111111111111112, tau=4, max_iters=ITERATIONS, master_seed=seed),
        ),
        "accelerated": (
            "accelerated",
            SolverConfig(omega=1.25, gamma=gamma, mu=mu, max_iters=ITERATIONS, master_seed=seed),
        ),
    }
    runners = {"basic": run_basic, "parallel": run_parallel, "accelerated": run_accelerated}
    out = {"traces": {}, "monte_carlo": {}}
    for label, (method, config) in configs.items():
        for rep in REPLICATIONS:
            trace = runners[method](problem, dist, config, replication=rep)
            record = {"error_sq": _hex(trace.error_sq)}
            if trace.sketch_loss is not None:
                record["sketch_loss"] = _hex(trace.sketch_loss)
                record["step_sq"] = _hex(trace.step_sq)
            out["traces"][f"{label}/{rep}"] = record
        moments = monte_carlo_moments(
            problem, dist, config, MC_REPLICATIONS, MC_ITERATIONS, reform=reform, method=method
        )
        out["monte_carlo"][label] = {
            "l2_error": _hex(moments.l2_error),
            "transformed_mean": _hex(moments.transformed_mean),
        }
    return out


def test_traces_match_fixture_bitwise():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = compute()
    assert sorted(got["traces"]) == sorted(expected["traces"])
    for key, record in expected["traces"].items():
        assert got["traces"][key] == record, key


def test_monte_carlo_moments_match_fixture_bitwise():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = compute()
    assert got["monte_carlo"] == expected["monte_carlo"]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
