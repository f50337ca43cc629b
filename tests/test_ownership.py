"""Each quantity several modules use is computed once, by one owner.

The enumerated support belongs to ``expected_Z`` (kept on the exact
estimate's info; nothing asks for it again, and q comes from the
distribution), the B = I decision to ``SpdMatrix.is_identity``, the
per-replication ||x_k - x*||_B^2 to the trajectory engine's
``error_sq``, the raw solver specs to ``config.build_solvers``, and an
index family's sketches to its ``draw``: the engine steps on the drawn
columns and builds no ``SketchSample``.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from sketchsolve import cli
from sketchsolve.analysis import monte_carlo_moments
from sketchsolve.linalg import Problem, SpdMatrix
from sketchsolve.reformulation import build_reformulation, expected_Z
from sketchsolve.sketching import (
    DEFAULT_SUPPORT_CAP,
    Block,
    Coordinate,
    CountMin,
    CountSketch,
    FixedIdentity,
    Gaussian,
    SketchSample,
)
from sketchsolve.solvers import SolverConfig, run_trajectories
from sketchsolve.validation import ValidationOptions, run_validation

REFERENCE = Path(__file__).resolve().parent.parent / "demos" / "reference_config.json"


def counting_support(dist, calls: list):
    """Make ``dist.support`` record each call in ``calls``."""
    support = dist.support

    def counted(*args, **kwargs):
        calls.append(args)
        return support(*args, **kwargs)

    dist.support = counted
    return dist


def support_calls(tmp_path, monkeypatch, command, config: dict) -> list:
    """The ``support`` calls of one successful command on ``config``."""
    calls = []
    build = cli.build_distribution
    monkeypatch.setattr(
        cli, "build_distribution", lambda cfg, problem: counting_support(build(cfg, problem), calls)
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, str(path), "--output-dir", str(tmp_path / "out")]) == 0
    return calls


@pytest.mark.parametrize("command", ["diagnose", "run", "validate"])
def test_each_command_enumerates_the_configured_support_once(tmp_path, monkeypatch, command):
    config = json.loads(REFERENCE.read_text())
    assert len(support_calls(tmp_path, monkeypatch, command, config)) == 1


def test_one_expectation_sample_enumerates_once(tmp_path, monkeypatch):
    # E[Z] is exact here, so the one sample goes unused and nothing asks again
    config = dict(json.loads(REFERENCE.read_text()), expectation_samples=1)
    assert len(support_calls(tmp_path, monkeypatch, "run", config)) == 1


def test_monte_carlo_trace_test_asks_no_support(tmp_path, monkeypatch, capsys):
    # Block q = 3 over 80 rows has 82,160 atoms: above the cap, below the default one
    config = {
        "seed": 1,
        "problem": {"kind": "gaussian-consistent", "rows": 80, "cols": 5, "seed": 2},
        "distribution": {"kind": "block", "block_size": 3},
        "support_cap": 1000,
        "expectation_samples": 200,
        "checks": ["lemma:spectrum-in-unit-interval"],
    }
    assert support_calls(tmp_path, monkeypatch, "validate", config) == [(1000,)]
    assert capsys.readouterr().out.startswith("PASS lemma:spectrum-in-unit-interval")


class RaisedCapOnly(Coordinate):
    """Row sampling whose support is enumerable only above the default cap."""

    def support(self, cap=DEFAULT_SUPPORT_CAP):
        return super().support(cap) if cap > DEFAULT_SUPPORT_CAP else None


def test_checks_read_the_support_at_the_configured_cap():
    a = np.random.default_rng(2).standard_normal((6, 3))
    problem = Problem(a, a @ np.ones(3))
    calls = []
    dist = counting_support(RaisedCapOnly(np.full(6, 1.0 / 6.0)), calls)
    reform = build_reformulation(problem, dist, support_cap=2 * DEFAULT_SUPPORT_CAP)
    assert reform.estimation.kind == "exact"
    assert reform.expected_H() is not None
    checks = ["lemma:spectrum-in-unit-interval", "theorem:exactness-characterization"]
    spectrum, exactness = run_validation(problem, reform, ValidationOptions(), checks)
    assert spectrum.passed and "trace_gap" in spectrum.details
    assert exactness.passed and exactness.details["expected_H_min_eigenvalue"] > 0.0
    assert len(calls) == 1


def test_exact_estimate_keeps_its_support_out_of_its_reports():
    dist = Block(4, 2)
    a = np.random.default_rng(1).standard_normal((4, 3))
    _, info = expected_Z(a, SpdMatrix.identity(3), dist)
    assert len(info.support) == 6 and info.support.q == 2
    assert info.to_dict() == {"kind": "exact"}
    assert repr(info) == "EstimationInfo(kind='exact', n_samples=None, se_norm=None)"
    assert info == type(info)(kind="exact")
    _, mc = expected_Z(a, SpdMatrix.identity(3), Gaussian(4, 2), n_samples=20)
    assert mc.support is None
    assert mc.eigenvalue_slack == 1e-8 + 3.0 * mc.se_norm and info.eigenvalue_slack == 1e-8


def test_identity_decided_once_by_the_metric():
    assert SpdMatrix.identity(3).is_identity
    assert SpdMatrix(np.eye(3)).is_identity
    assert SpdMatrix.from_diagonal([1.0, 1.0]).is_identity
    assert not SpdMatrix.from_diagonal([1.0, 2.0]).is_identity
    assert not SpdMatrix(np.eye(2) + 1e-12 * np.ones((2, 2))).is_identity


@pytest.mark.parametrize(
    "method, config",
    [
        ("basic", SolverConfig(omega=1.0, max_iters=15, master_seed=4)),
        ("parallel", SolverConfig(omega=1.2, max_iters=15, master_seed=4, tau=3)),
        ("accelerated", SolverConfig(omega=1.0, max_iters=15, master_seed=4, gamma=1.3)),
    ],
)
def test_l2_moments_are_the_engine_error_sq(method, config):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((12, 7))
    g = rng.standard_normal((7, 7))
    problem = Problem(a, a @ rng.standard_normal(7), SpdMatrix(g @ g.T + np.eye(7)))
    dist = Block(12, 2)
    x0 = rng.standard_normal(7)
    reform = build_reformulation(problem, dist)
    moments = monte_carlo_moments(problem, dist, config, 30, 15, reform=reform, method=method, x0=x0)
    traces = run_trajectories(problem, dist, config, method, range(30), x0=x0)
    assert np.array_equal(moments.l2_error, np.stack([t.error_sq for t in traces]).mean(axis=0))


@pytest.mark.parametrize("method", ["basic", "parallel", "accelerated"])
@pytest.mark.parametrize(
    "dist", [Block(12, 3), Block(12, 3, True), CountSketch(12, 2), CountMin(12, 2), FixedIdentity(12)], ids=repr
)
def test_index_families_step_on_their_drawn_columns(monkeypatch, dist, method):
    # each family's draw owns its sketches; the engine builds no SketchSample from them
    rng = np.random.default_rng(5)
    a = rng.standard_normal((12, 7))
    problem = Problem(a, a @ rng.standard_normal(7))
    built = []
    init = SketchSample.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SketchSample, "__init__", counting)
    config = SolverConfig(omega=1.0, max_iters=10, master_seed=4, tau=2, gamma=1.2, tol=1e-3)
    run_trajectories(problem, dist, config, method, range(3))
    assert built == []


def test_only_config_reads_the_solver_specs():
    # every solver field that reaches a trace, a file name or a check comes from config.build_solvers
    readers = {
        path.name
        for path in Path(cli.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "solvers"
    }
    assert readers == {"config.py"}
