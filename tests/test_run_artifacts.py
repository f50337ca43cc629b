"""Every artifact of ``sketchsolve run`` pinned byte for byte.

``fixtures/run_artifacts.json`` holds the exit code and the sha256 of
every file that ``run`` writes, for two configs:

* ``reference``: ``demos/reference_config.json`` as it stands;
* ``divergent``: the same config with basic-unit ``omega`` 1e100,
  R = 20 and K = 50, so that traces hold ``inf`` and ``nan`` rows and
  the summary records a divergence.

The one wall-clock line of ``summary.json`` (``generated_at``) is left
out before hashing. The hashes were recorded before the Kaczmarz stream
draws and the trace writer were batched; batching must not change a
byte. Do not re-record the fixture to make this test pass.

    PYTHONPATH=src python tests/test_run_artifacts.py --record   # rewrite the fixture
"""

import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from sketchsolve.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "run_artifacts.json"
GENERATED_AT = re.compile(rb'^  "generated_at": "[^"]*",\n', re.MULTILINE)


def _configs() -> dict:
    reference = json.loads((ROOT / "demos" / "reference_config.json").read_text(encoding="utf-8"))
    divergent = json.loads(json.dumps(reference))
    divergent["solvers"][0]["omega"] = 1e100
    divergent.update(replications=20, iterations=50)
    return {"reference": reference, "divergent": divergent}


def _artifacts(config: dict, work: Path) -> dict:
    work.mkdir(parents=True)
    path = work / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = work / "out"
    record = {"exit": main(["run", str(path), "--output-dir", str(out)])}
    for file in sorted(out.iterdir()):
        data = file.read_bytes()
        if file.name == "summary.json":
            data, count = GENERATED_AT.subn(b"", data)
            assert count == 1, "summary.json must carry exactly one generated_at line"
        record[file.name] = hashlib.sha256(data).hexdigest()
    return record


def compute(work: Path) -> dict:
    return {name: _artifacts(config, work / name) for name, config in _configs().items()}


@pytest.mark.parametrize("name", sorted(_configs()))
def test_run_artifacts_match_fixture(name, tmp_path):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))[name]
    assert _artifacts(_configs()[name], tmp_path / name) == expected


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    with tempfile.TemporaryDirectory() as tmp:
        recorded = compute(Path(tmp))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
