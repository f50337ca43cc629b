import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sketchsolve.analysis import theoretical_rates
from sketchsolve.cli import _trace_text, main
from sketchsolve.config import ConfigError, build_distribution, build_problem, load_config
from sketchsolve.reformulation import build_reformulation
from sketchsolve.solvers import IterationTrace

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "seed": 20240801,
        "problem": {"kind": "diagonal", "diagonal": [1.0, 2.0], "planted": [1.0, 1.0]},
        "distribution": {"kind": "kaczmarz"},
        "solvers": [{"method": "basic", "omega": 1.0, "label": "basic-unit"}],
        "replications": 60,
        "iterations": 15,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.seed == 20240801
        problem, planted = build_problem(cfg)
        assert np.allclose(problem.A, np.diag([1.0, 2.0]))
        assert np.allclose(planted, [1.0, 1.0])
        dist = build_distribution(cfg, problem)
        assert np.allclose(dist.probabilities, [0.2, 0.8])

    def test_missing_seed(self, tmp_path):
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps({"problem": {"kind": "diagonal"}, "distribution": {"kind": "kaczmarz"}}))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "seed" in str(err.value)

    def test_unknown_problem_kind_names_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"seed": 1, "problem": {"kind": "warp"}, "distribution": {"kind": "kaczmarz"}})
        )
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value).startswith("problem.kind")

    def test_distribution_kinds(self, tmp_path):
        for dist_cfg, cls_name in [
            ({"kind": "fixed-identity"}, "FixedIdentity"),
            ({"kind": "coordinate", "probabilities": [0.5, 0.5]}, "Coordinate"),
            ({"kind": "block", "block_size": 2}, "Block"),
            ({"kind": "gaussian", "columns": 1}, "Gaussian"),
            ({"kind": "count-sketch", "columns": 2}, "CountSketch"),
            ({"kind": "count-min", "columns": 2}, "CountMin"),
        ]:
            cfg = load_config(write_config(tmp_path, distribution=dist_cfg))
            problem, _ = build_problem(cfg)
            assert type(build_distribution(cfg, problem)).__name__ == cls_name

    def test_metric_from_file(self, tmp_path):
        mtx = tmp_path / "metric.mtx"
        mtx.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 4.0\n2 2 1.0\n"
        )
        cfg = load_config(write_config(tmp_path, metric={"kind": "file", "path": str(mtx)}))
        problem, _ = build_problem(cfg)
        assert np.allclose(problem.metric.mat, np.diag([4.0, 1.0]))

    def test_problem_from_files(self, tmp_path):
        mtx = tmp_path / "a.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 2.0\n")
        rhs = tmp_path / "b.txt"
        rhs.write_text("1.0\n2.0\n")
        cfg = load_config(
            write_config(tmp_path, problem={"kind": "files", "matrix": str(mtx), "rhs": str(rhs)})
        )
        problem, planted = build_problem(cfg)
        assert planted is None
        assert np.allclose(problem.A, np.diag([1.0, 2.0]))


class TestCliCommands:
    def test_diagnose_reports_reference_spectrum(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["diagnose", str(cfg), "--output-dir", str(out)]) == 0
        payload = json.loads((out / "diagnostics.json").read_text())
        assert payload["lambdas"] == [0.8, 0.2]
        assert payload["zeta"] == 4.0
        assert payload["exactness"] == "exact"
        assert payload["omega_star"] == pytest.approx(2.0, abs=1e-12)
        assert payload["rho_unit"] == pytest.approx(0.64, abs=1e-12)
        assert payload["rho_omega_star"] == pytest.approx(0.36, abs=1e-12)

    def test_run_writes_traces_and_summary(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out)]) == 0
        trace = (out / "trace_basic-unit.csv").read_text().splitlines()
        assert trace[0] == "iter,metric,value,replication"
        assert len(trace) > 60 * 15
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed_checks"] == []
        assert {c["anchor"] for c in summary["checks"]} == {
            "lemma:pathwise-step-identities",
            "lemma:spectrum-in-unit-interval",
        }

    def test_fixed_identity_converges_in_one_step(self, tmp_path):
        cfg = write_config(
            tmp_path,
            distribution={"kind": "fixed-identity"},
            replications=3,
            iterations=4,
        )
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out)]) == 0
        payload = json.loads((out / "diagnostics.json").read_text())
        assert payload["zeta"] == pytest.approx(1.0, abs=1e-9)
        rows = (out / "trace_basic-unit.csv").read_text().splitlines()[1:]
        final = [r for r in rows if r.startswith("4,error_sq")]
        assert all(float(r.split(",")[2]) <= 1e-20 for r in final)

    def test_validate_exit_zero_and_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, replications=200)
        out = tmp_path / "out"
        assert main(["validate", str(cfg), "--output-dir", str(out)]) == 0
        checks = (out / "checks.csv").read_text().splitlines()
        assert checks[0] == "anchor,passed,margin"
        assert all(line.split(",")[1] == "1" for line in checks[1:])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed_checks"] == []

    def test_seed_override_changes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", str(cfg), "--output-dir", str(out1)])
        main(["run", str(cfg), "--output-dir", str(out2), "--seed", "7"])
        t1 = (out1 / "trace_basic-unit.csv").read_text()
        t2 = (out2 / "trace_basic-unit.csv").read_text()
        assert t1 != t2

    def test_rates_compare_each_method_with_its_own_factor(self, tmp_path):
        solvers = [
            {"method": "basic", "omega": 0.5, "label": "basic-half"},
            {"method": "parallel", "omega": 1.1111111111111112, "tau": 4, "label": "parallel-4"},
        ]
        cfg = write_config(tmp_path, solvers=solvers, replications=100, iterations=25)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out)]) == 0
        rows = [line.split(",") for line in (out / "rates.csv").read_text().splitlines()[1:]]
        predicted = {label: float(value) for label, _, value, _, _ in rows}
        problem, _ = build_problem(load_config(cfg))
        spectrum = build_reformulation(problem, build_distribution(load_config(cfg), problem)).spectrum
        parallel = theoretical_rates(spectrum, 1.1111111111111112, tau=4)
        assert predicted["parallel-4"] == parallel.parallel_factor
        assert predicted["parallel-4"] == pytest.approx(0.765432, abs=1e-6)
        assert predicted["basic-half"] == theoretical_rates(spectrum, 0.5).l2_upper_factor

    def test_divergent_run_is_flagged_not_raised(self, tmp_path):
        config = json.loads((ROOT / "demos" / "reference_config.json").read_text())
        config["solvers"][0]["omega"] = 3.0
        config.update(iterations=2000, replications=20)
        path = tmp_path / "divergent.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", str(path), "--output-dir", str(out)])
        assert code in (0, 1)
        summary = json.loads((out / "summary.json").read_text())
        solvers = {s["label"]: s for s in summary["solvers"]}
        divergent = solvers.pop("basic-unit")
        assert isinstance(divergent["diverged_at"], int) and divergent["diverged_at"] > 0
        assert divergent["final_l2_mean"] is None
        assert "fitted_l2_rate" not in divergent
        assert all(s["diverged_at"] is None for s in solvers.values())
        rates = (out / "rates.csv").read_text()
        assert "basic-unit" not in rates
        trace = (out / "trace_basic-unit.csv").read_text().splitlines()
        assert trace[-1].startswith("1999,step_sq,")

    def test_missing_config_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "nope.json" in capsys.readouterr().err

    def test_bad_field_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 1, "problem": {"kind": "nope"}, "distribution": {"kind": "kaczmarz"}}))
        assert main(["run", str(path)]) == 2
        assert "problem.kind" in capsys.readouterr().err

    def test_missing_matrix_file_names_path(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            problem={"kind": "files", "matrix": str(tmp_path / "ghost.mtx"), "rhs": str(tmp_path / "b.txt")},
        )
        assert main(["run", str(path)]) == 2
        assert "ghost.mtx" in capsys.readouterr().err

    def test_invalid_metric_values_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, metric={"kind": "diagonal", "values": [1.0, -1.0]})
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "sketchsolve.cli", "diagnose", str(cfg), "--output-dir", str(tmp_path / "o")],
            capture_output=True,
            env=env,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: metric:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "solver",
        [
            '{"method": "parallel", "omega": 1.0, "tau": 0}',
            '{"method": "basic", "omega": 1.0, "iterations": 0}',
            '{"method": "basic", "policy": "bogus"}',
            '{"method": "basic", "omega": "fast"}',
            '{"method": "basic", "omega": 1e400}',
            '{"method": "accelerated", "omega": 0.5, "mu": -0.5}',
            '{"method": "accelerated", "omega": -0.5}',
        ],
    )
    def test_invalid_solver_specs_exit_two(self, tmp_path, capsys, solver):
        # the bad spec follows a valid one: every spec is resolved before the first trace is written
        cfg = json.loads((ROOT / "demos" / "reference_config.json").read_text())
        cfg["solvers"] = [{"method": "basic", "omega": 1.0}, "SOLVER"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace('"SOLVER"', solver))
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "sketchsolve.cli", "run", str(path), "--output-dir", str(out)],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: solvers[1]")
        assert "Traceback" not in proc.stderr
        assert not list(out.glob("trace_*.csv"))
        # validate reads the solver specs for its options, so it rejects them too
        assert main(["validate", str(path), "--output-dir", str(tmp_path / "v")]) == 2
        assert capsys.readouterr().err.startswith("error: solvers[1]")

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_unknown_check_exits_two(self, tmp_path, command):
        # check names are resolved before the setup writes anything or a check runs
        cfg = json.loads((ROOT / "demos" / "reference_config.json").read_text())
        cfg["checks"] = ["lemma:spectrum-in-unit-interval", "theorem:flat-earth"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "sketchsolve.cli", command, str(path), "--output-dir", str(out)],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: checks:")
        assert "theorem:flat-earth" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list(out.glob("trace_*.csv"))

    @pytest.mark.parametrize(
        "command, overrides, field",
        [
            ("validate", {"replications": 1}, "<root>.replications"),
            ("run", {"replications": 1, "checks": ["theorem:l2-two-sided-band"]}, "<root>.replications"),
        ]
        + [
            (
                command,
                {"expectation_samples": 1, "distribution": {"kind": "gaussian", "columns": 1}},
                "<root>.expectation_samples",
            )
            for command in ("diagnose", "run", "validate")
        ],
    )
    def test_too_few_monte_carlo_samples_exit_two(self, tmp_path, command, overrides, field):
        # a standard error needs two samples: one replication or one E[Z] draw is a config error
        cfg = json.loads((ROOT / "demos" / "reference_config.json").read_text())
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "sketchsolve.cli", command, str(path), "--output-dir", str(tmp_path / "o")],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {field}:")
        assert "Traceback" not in proc.stderr

    def test_one_replication_runs_without_monte_carlo_checks(self, tmp_path, capsys):
        cfg = json.loads((ROOT / "demos" / "reference_config.json").read_text())
        cfg.update(replications=1, expectation_samples=1)  # E[Z] is exact here: the samples go unused
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--output-dir", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    def test_inconsistent_system_exits_two(self, tmp_path, capsys):
        mtx = tmp_path / "a.mtx"
        mtx.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 1 1.0\n"
        )
        rhs = tmp_path / "b.txt"
        rhs.write_text("1.0\n2.0\n")
        path = write_config(
            tmp_path, problem={"kind": "files", "matrix": str(mtx), "rhs": str(rhs)}
        )
        assert main(["run", str(path)]) == 2
        assert "inconsistent" in capsys.readouterr().err

    def test_entry_point_runs_as_module(self, tmp_path):
        cfg = write_config(tmp_path, replications=5, iterations=5)
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "sketchsolve.cli", "diagnose", str(cfg), "--output-dir", str(tmp_path / "o")],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0


def per_line_trace_text(traces) -> str:
    """The trace CSV as written one f-string per line, before block templates."""
    lines = [
        f"{k},{name},{value!r},{rep}"
        for rep, trace in enumerate(traces)
        for name in ("error_sq", "sketch_loss", "step_sq")
        if getattr(trace, name) is not None
        for k, value in enumerate(getattr(trace, name).tolist())
    ]
    return "\n".join(["iter,metric,value,replication", *lines]) + "\n"


class TestTraceWriter:
    SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e16, 1e-05, 5e-324, 0.1 + 0.2, -1.5, 2.0**-1074 * 3])

    def trace(self, error_sq, sketch_loss=None, step_sq=None):
        return IterationTrace("basic", 1.0, np.zeros(2), error_sq, sketch_loss=sketch_loss, step_sq=step_sq)

    def test_blocks_equal_per_line_format(self):
        values = self.SPECIAL
        traces = [
            self.trace(np.append(values, 1.0), values, values[::-1].copy()),
            self.trace(np.append(values[::-1], 7.0), values[::-1].copy(), values),
        ] * 6  # replication ids past 9
        assert _trace_text(traces) == per_line_trace_text(traces)

    def test_zero_step_and_unrecorded_metrics(self):
        empty = np.empty(0)
        traces = [
            self.trace(np.array([4.0]), empty, empty),  # zero steps: empty sketch_loss and step_sq
            self.trace(self.SPECIAL),  # parallel and accelerated record error_sq only
            self.trace(np.array([-0.0])),
        ]
        assert _trace_text(traces) == per_line_trace_text(traces)
        assert _trace_text([]) == per_line_trace_text([]) == "iter,metric,value,replication\n"
