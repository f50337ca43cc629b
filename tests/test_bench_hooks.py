"""The library names the benchmark tracer hooks into still exist.

``bench/tracing.py`` wraps attributes of sketchsolve by name, among them
the two step kernels, ``Coordinate.sample_indices``, ``sample`` where a
class defines it and ``reformulation.check_exactness``; renaming one would
break a traced benchmark run. These tests install a tracer, run one tiny
basic-method solve through each step kernel or one exactness verdict,
and check that each hook was counted and that restoring puts every
original attribute back.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from sketchsolve import reformulation, sketching, solvers
from sketchsolve.linalg import Problem

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
HOOKS = [
    (solvers.Workspace, "general_step"),
    (solvers.Workspace, "coordinate_step"),
    (sketching.Coordinate, "sample_indices"),
] + [
    # index families inherit sample from the base class; only Gaussian has its own
    (cls, "sample")
    for cls in (sketching.SketchDistribution, sketching.Gaussian)
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_hooks_count_both_step_kernels_and_restore():
    tracing = load_tracing()
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in HOOKS}
    problem = Problem(np.diag([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    config = solvers.SolverConfig(omega=1.0, max_iters=3, master_seed=5)
    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    try:
        for owner, attr in HOOKS:
            assert vars(owner)[attr] is not originals[owner, attr], (owner.__name__, attr)
        solvers.run_basic(problem, sketching.Block(3, 2), config)
        solvers.run_basic(problem, sketching.kaczmarz_distribution(problem.A), config)
    finally:
        installation.restore()
    assert tracer.calls("solvers.general_step") > 0
    assert tracer.calls("solvers.coordinate_step") > 0
    for owner, attr in HOOKS:
        assert vars(owner)[attr] is originals[owner, attr], (owner.__name__, attr)


def test_tracer_counts_one_exactness_verdict_and_restores():
    tracing = load_tracing()
    original = vars(reformulation)["check_exactness"]
    problem = Problem(np.diag([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    reform = reformulation.build_reformulation(problem, sketching.kaczmarz_distribution(problem.A))
    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    try:
        assert vars(reformulation)["check_exactness"] is not original
        assert reform.exactness() == "exact"
    finally:
        installation.restore()
    assert tracer.calls("reformulation.check_exactness") == 1
    assert vars(reformulation)["check_exactness"] is original
