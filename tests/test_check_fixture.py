"""Problem-level check margins on the reference config, pinned bit for bit.

``fixtures/reference_checks.json`` holds, as ``float.hex`` strings, the
margin and verdict of every problem-level check of
``demos/reference_config.json``, run with the validation options that
``sketchsolve validate`` derives from that config at reduced sizes
(R = 80, K = 15). The values were recorded before the Monte Carlo
experiments of one validation pass were shared between checks; sharing
must not change a single bit. Do not re-record the fixture to make this
test pass.

    PYTHONPATH=src python tests/test_check_fixture.py --record   # rewrite the fixture
"""

import dataclasses
import functools
import json
import sys
from pathlib import Path

from sketchsolve.cli import _validation_options
from sketchsolve.config import build_distribution, build_problem, build_solvers, load_config
from sketchsolve.reformulation import build_reformulation
from sketchsolve.validation import PROBLEM_CHECKS, run_validation

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "reference_checks.json"
REPLICATIONS = 80
ITERATIONS = 15


@functools.cache
def compute() -> dict:
    cfg = load_config(ROOT / "demos" / "reference_config.json")
    problem, _ = build_problem(cfg)
    reform = build_reformulation(problem, build_distribution(cfg, problem))
    options = _validation_options(cfg, build_solvers(cfg, reform.spectrum))
    options = dataclasses.replace(options, replications=REPLICATIONS, iterations=ITERATIONS)
    results = run_validation(problem, reform, options, list(PROBLEM_CHECKS))
    return {r.anchor: {"passed": bool(r.passed), "margin": float(r.margin).hex()} for r in results}


def test_check_margins_match_fixture_bitwise():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert compute() == expected


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
