"""Library check margins at the CLI's options, pinned bit for bit.

``fixtures/library_checks.json`` holds, for each of the nine
``LIBRARY_CHECKS``, the margin as a ``float.hex`` string, the verdict and
the instance and failure counts, run with the validation options that
``sketchsolve validate`` derives from ``demos/reference_config.json``
(master seed 20240801, 120 and 300 instances). The values were recorded
while every check still evaluated its instances one at a time; drawing
the same instances and evaluating them in shape-grouped stacks must not
change them. Do not re-record the fixture to make this test pass.

    PYTHONPATH=src python tests/test_library_fixture.py --record   # rewrite the fixture
"""

import functools
import json
import sys
from pathlib import Path

import pytest

from sketchsolve.cli import _validation_options
from sketchsolve.config import build_distribution, build_problem, build_solvers, load_config
from sketchsolve.reformulation import build_reformulation
from sketchsolve.validation import LIBRARY_CHECKS

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "library_checks.json"


@functools.cache
def compute() -> dict:
    cfg = load_config(ROOT / "demos" / "reference_config.json")
    problem, _ = build_problem(cfg)
    spectrum = build_reformulation(problem, build_distribution(cfg, problem)).spectrum
    options = _validation_options(cfg, build_solvers(cfg, spectrum))
    out = {}
    for name, check in LIBRARY_CHECKS.items():
        result = check(options)
        entry = {"passed": bool(result.passed), "margin": float(result.margin).hex()}
        for key in ("instances", "failures"):
            if key in result.details:
                entry[key] = int(result.details[key])
        out[result.anchor] = entry
    return out


@pytest.mark.parametrize("anchor", sorted(LIBRARY_CHECKS))
def test_library_check_matches_fixture_bitwise(anchor):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert compute()[anchor] == expected[anchor]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
