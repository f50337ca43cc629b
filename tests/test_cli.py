import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sketchsolve.analysis import theoretical_rates
from sketchsolve.cli import _trace_text, _validation_options, main
from sketchsolve.config import (
    DISTRIBUTION_KINDS,
    ConfigError,
    build_distribution,
    build_problem,
    build_solvers,
    load_config,
)
from sketchsolve.linalg import InconsistentSystemError
from sketchsolve.reformulation import build_reformulation
from sketchsolve.solvers import IterationTrace, acceleration_parameters, stepsize_policy

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

    def test_build_solvers_resolves_every_spec_in_order(self, tmp_path):
        specs = [
            {"method": "basic", "policy": "optimal"},
            {"method": "parallel", "omega": 1, "tau": 4, "iterations": 7, "label": "p"},
            {"method": "accelerated", "omega": 1.25},
            # a given gamma with an automatic mu computes no mu, so omega may be negative
            {"method": "accelerated", "omega": -0.5, "gamma": 1.5, "mu": "auto"},
            {"method": "accelerated", "omega": 1.0, "mu": 0.1},
            {"method": "accelerated", "omega": 1.0, "mu": 0.1, "gamma": 1.2},
        ]
        cfg = load_config(write_config(tmp_path, solvers=specs))
        problem, _ = build_problem(cfg)
        spectrum = build_reformulation(problem, build_distribution(cfg, problem)).spectrum
        labels, methods, configs, mus = zip(*build_solvers(cfg, spectrum))
        assert labels == ("basic-0", "p", "accelerated-2", "accelerated-3", "accelerated-4", "accelerated-5")
        assert methods == tuple(spec["method"] for spec in specs)
        assert all(config.master_seed == cfg.seed for config in configs)
        assert (configs[0].omega, configs[0].max_iters) == (stepsize_policy(spectrum, "optimal"), 15)
        assert (configs[1].omega, configs[1].tau, configs[1].max_iters) == (1.0, 4, 7)
        assert configs[0].gamma is configs[1].gamma is mus[0] is mus[1] is None
        assert (configs[2].gamma, mus[2]) == acceleration_parameters(spectrum, 1.25)
        assert (configs[3].gamma, mus[3]) == (1.5, None)
        assert (configs[4].gamma, mus[4]) == acceleration_parameters(spectrum, 1.0, mu=0.1)
        assert (configs[5].gamma, mus[5]) == (1.2, 0.1)

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

    @pytest.mark.parametrize("kind", sorted(DISTRIBUTION_KINDS))
    def test_distribution_kinds(self, tmp_path, kind):
        fields, cls_name = {
            "fixed-identity": ({}, "FixedIdentity"),
            "coordinate": ({"probabilities": [0.5, 0.5]}, "Coordinate"),
            "kaczmarz": ({}, "Coordinate"),
            "block": ({"block_size": 2}, "Block"),
            "gaussian": ({"columns": 1}, "Gaussian"),
            "count-sketch": ({"columns": 2}, "CountSketch"),
            "count-min": ({"columns": 2}, "CountMin"),
        }[kind]
        cfg = load_config(write_config(tmp_path, distribution={"kind": kind, **fields}))
        problem, _ = build_problem(cfg)
        assert type(build_distribution(cfg, problem)).__name__ == cls_name

    @pytest.mark.parametrize("with_replacement", [False, True])
    def test_block_with_replacement_is_read_as_bool(self, tmp_path, with_replacement):
        distribution = {"kind": "block", "block_size": 2, "with_replacement": with_replacement}
        cfg = load_config(write_config(tmp_path, distribution=distribution))
        problem, _ = build_problem(cfg)
        assert build_distribution(cfg, problem).with_replacement is with_replacement

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

    def test_problem_rejected_by_problem_is_config_error(self, tmp_path):
        cfg = load_config(write_config(tmp_path, problem={"kind": "gaussian-consistent", "rows": 0, "cols": 3}))
        with pytest.raises(ConfigError) as err:
            build_problem(cfg)
        assert err.value.path == "problem"
        assert "must be non-empty" in str(err.value)

    def test_inconsistent_system_stays_its_own_error(self, tmp_path):
        mtx = tmp_path / "a.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 1 1.0\n")
        rhs = tmp_path / "b.txt"
        rhs.write_text("1.0\n2.0\n")
        cfg = load_config(
            write_config(tmp_path, problem={"kind": "files", "matrix": str(mtx), "rhs": str(rhs)})
        )
        with pytest.raises(InconsistentSystemError) as err:
            build_problem(cfg)
        assert type(err.value) is InconsistentSystemError
        assert str(err.value).startswith("system is inconsistent: best-approximation residual ")


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

    @pytest.mark.parametrize("seed", [1, 2])
    def test_validate_fixed_identity_accelerated_decay(self, tmp_path, capsys, seed):
        # W = I puts w lambda within roundoff of 1, where the recurrence has real
        # roots; such a component is annihilated, not a closed-form error
        cfg = write_config(
            tmp_path,
            problem={"kind": "gaussian-consistent", "rows": 40, "cols": 8, "seed": 1},
            distribution={"kind": "fixed-identity"},
            replications=12,
            iterations=60,
            checks=["theorem:accelerated-mean-decay"],
        )
        out = tmp_path / "out"
        assert main(["validate", str(cfg), "--seed", str(seed), "--output-dir", str(out)]) in (0, 1)
        assert json.loads((out / "summary.json").read_text())["seed"] == seed
        assert "Traceback" not in capsys.readouterr().err

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
        "overrides, field",
        [
            ({"problem": {"kind": "gaussian-consistent", "rows": "ten", "cols": 2}}, "problem.rows"),
            ({"problem": {"kind": "gaussian-consistent", "rows": True, "cols": 2}}, "problem.rows"),
            ({"seed": True}, "<root>.seed"),
            ({"replications": True}, "<root>.replications"),
            ({"problem": {"kind": "graph-incidence-gossip", "nodes": 2, "edges": 5}}, "problem.edges"),
            ({"problem": {"kind": "graph-incidence-gossip", "nodes": 2, "edges": [5]}}, "problem"),
            ({"problem": {"kind": "spd-with-B-equals-A", "size": 3.5}}, "problem.size"),
            ({"problem": {"kind": "diagonal", "size": 2, "condition": "big"}}, "problem.condition"),
            ({"problem": {"kind": "diagonal", "diagonal": 5}}, "problem.diagonal"),
            ({"metric": {"kind": "diagonal", "values": [[1], [2]]}}, "metric"),
            ({"distribution": {"kind": "coordinate", "probabilities": [[0.5], [0.5]]}}, "distribution"),
            (
                {"distribution": {"kind": "block", "block_size": 1, "with_replacement": "false"}},
                "distribution.with_replacement",
            ),
            # out of range, though an enumerable support never reads them
            ({"expectation_samples": 0}, "<root>.expectation_samples"),
            ({"expectation_samples": -5}, "<root>.expectation_samples"),
            ({"support_cap": -1}, "<root>.support_cap"),
        ],
    )
    def test_wrong_typed_fields_exit_two(self, tmp_path, overrides, field):
        cfg = write_config(tmp_path, **overrides)
        proc = subprocess.run(
            [sys.executable, "-m", "sketchsolve.cli", "diagnose", str(cfg), "--output-dir", str(tmp_path / "o")],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {field}:")
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
            # each field is read with its JSON type, never converted
            '{"method": "parallel", "omega": 1.0, "tau": 2.5}',
            '{"method": "basic", "omega": "1.0"}',
            '{"method": "basic", "omega": true}',
            '{"method": "basic", "omega": 1.0, "iterations": "12"}',
            '{"method": "accelerated", "omega": 1.0, "mu": "0.5"}',
            # a label names the trace file, so it is unique, the default ones included,
            # and made of portable file-name characters
            '{"method": "basic", "omega": 0.5, "label": "basic-0"}',
            '{"method": "basic", "omega": 0.5, "label": "a,b"}',
            '{"method": "basic", "omega": 0.5, "label": ""}',
            '{"method": "basic", "omega": 0.5, "label": "a/b"}',
            '{"method": "basic", "omega": 0.5, "label": "a b"}',
        ],
    )
    def test_invalid_solver_specs_exit_two(self, tmp_path, capsys, solver):
        # the bad spec follows a valid one: every spec is resolved before anything is written
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
        assert not out.exists()
        # validate reads the solver specs for its options, so it rejects them too
        assert main(["validate", str(path), "--output-dir", str(tmp_path / "v")]) == 2
        assert capsys.readouterr().err.startswith("error: solvers[1]")

    def test_duplicate_label_exits_two_before_any_trace(self, tmp_path):
        cfg = json.loads((ROOT / "demos" / "reference_config.json").read_text())
        cfg["solvers"].append({"method": "basic", "omega": 0.5, "label": "basic-optimal"})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "sketchsolve.cli", "run", str(path), "--output-dir", str(out)],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: solvers[4].label: 'basic-optimal' is already the label of solvers[1]\n"
        assert not list(out.glob("trace_*.csv"))

    def test_escaping_label_exits_two_and_writes_nothing(self, tmp_path):
        cfg = json.loads((ROOT / "demos" / "reference_config.json").read_text())
        cfg["solvers"] = [{"method": "basic", "omega": 1.0, "label": "../../escaped"}]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "sketchsolve.cli", "run", str(path), "--output-dir", "a/out"],
            capture_output=True,
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=SRC),
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: solvers[0].label: '../../escaped' must be one or more of")
        assert not (tmp_path / "a" / "out").exists()
        assert not (tmp_path / "a" / "escaped.csv").exists()

    def test_label_with_a_dot_is_accepted(self, tmp_path):
        path = write_config(tmp_path, solvers=[{"method": "basic", "omega": 1.0, "label": "basic-unit.v2"}])
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 0
        assert (out / "trace_basic-unit.v2.csv").exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("route", ["config", "override"])
    def test_negative_master_seed_exits_two(self, tmp_path, command, route):
        path = write_config(tmp_path, seed=-1 if route == "config" else 20240801)
        out = tmp_path / "out"
        override = ["--seed", "-1"] if route == "override" else []
        proc = subprocess.run(
            [sys.executable, "-m", "sketchsolve.cli", command, str(path), "--output-dir", str(out), *override],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: <root>.seed: must be non-negative, got -1\n"
        assert not out.exists()

    def test_negative_problem_seed_names_its_field(self, tmp_path):
        path = write_config(tmp_path, problem={"kind": "gaussian-consistent", "rows": 10, "cols": 2, "seed": -1})
        proc = subprocess.run(
            [sys.executable, "-m", "sketchsolve.cli", "diagnose", str(path), "--output-dir", str(tmp_path / "o")],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: problem.seed:")
        assert proc.stderr == "error: problem.seed: must be non-negative, got -1\n"
        assert "Traceback" not in proc.stderr

    def test_checks_run_at_the_resolved_stepsize_and_tau(self, tmp_path):
        # a policy sets the basic omega, and the parallel spec runs at its default tau
        solvers = [{"method": "basic", "policy": "inverse-lambda-max"}, {"method": "parallel", "omega": 1.0}]
        cfg = load_config(write_config(tmp_path, solvers=solvers))
        problem, _ = build_problem(cfg)
        spectrum = build_reformulation(problem, build_distribution(cfg, problem)).spectrum
        options = _validation_options(cfg, build_solvers(cfg, spectrum))
        assert (options.omega, options.tau) == (1.25, 1)

    def test_checks_without_basic_or_parallel_solver_use_the_defaults(self, tmp_path):
        options = _validation_options(load_config(write_config(tmp_path, solvers=[])), [])
        assert (options.omega, options.tau) == (1.0, 2)

    def test_out_of_regime_stepsize_is_noted(self, tmp_path, capsys):
        # the divergent config of tests/test_run_artifacts.py, whose checks stay at omega = 1
        cfg = json.loads((ROOT / "demos" / "reference_config.json").read_text())
        cfg["solvers"][0]["omega"] = 1e100
        cfg.update(replications=20, iterations=50)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == (
            "note: basic-unit steps at omega=1e+100, outside (0, 2); the checks run at omega=1.0\n"
        )

    @pytest.mark.parametrize("command, iterations", [("run", 3), ("validate", 1), ("validate", 3)])
    def test_too_few_iterations_for_a_rate_fit_exit_two(self, tmp_path, command, iterations):
        # corollary:convergence-window fits a rate to iterations + 1 mean errors
        cfg = json.loads((ROOT / "demos" / "reference_config.json").read_text())
        cfg["iterations"] = iterations
        if command == "run":
            cfg["checks"] = ["corollary:convergence-window"]
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
        assert proc.stderr == (
            "error: <root>.iterations: must be at least 4 for the rate-fitting check "
            "'corollary:convergence-window'\n"
        )
        assert not list(out.glob("*"))

    def test_fewest_iterations_for_a_rate_fit_pass(self, tmp_path, capsys):
        cfg = json.loads((ROOT / "demos" / "reference_config.json").read_text())
        cfg.update(iterations=4, checks=["corollary:convergence-window"])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", str(path), "--output-dir", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().out.startswith("PASS corollary:convergence-window")

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

    def test_zero_support_cap_forces_monte_carlo(self, tmp_path):
        path = write_config(tmp_path, support_cap=0, expectation_samples=50)
        assert main(["diagnose", str(path), "--output-dir", str(tmp_path / "o")]) == 0
        diagnostics = json.loads((tmp_path / "o" / "diagnostics.json").read_text())
        assert diagnostics["estimation"]["kind"] == "monte-carlo"
        assert diagnostics["estimation"]["n_samples"] == 50

    def test_probability_sum_is_printed_as_a_number(self, tmp_path):
        path = write_config(tmp_path, distribution={"kind": "coordinate", "probabilities": [0.7, 0.7]})
        proc = subprocess.run(
            [sys.executable, "-m", "sketchsolve.cli", "diagnose", str(path), "--output-dir", str(tmp_path / "o")],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: distribution: probabilities sum to 1.4, expected 1\n"

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

    @pytest.mark.parametrize(
        "problem, message",
        [
            # all-zero A and b: consistent, but E[Z] = 0 and W has no positive eigenvalue
            ({"kind": "files", "matrix": "zero.mtx", "rhs": "zero.txt"}, "all eigenvalues of W are numerically zero"),
            ({"kind": "gaussian-consistent", "rows": 0, "cols": 3}, "problem: A must be non-empty"),
        ],
    )
    def test_degenerate_input_exits_two(self, tmp_path, problem, message):
        (tmp_path / "zero.mtx").write_text("%%MatrixMarket matrix array real general\n2 2\n0\n0\n0\n0\n")
        (tmp_path / "zero.txt").write_text("0\n0\n")
        problem = {k: str(tmp_path / v) if k in ("matrix", "rhs") else v for k, v in problem.items()}
        path = write_config(
            tmp_path, problem=problem, distribution={"kind": "coordinate", "probabilities": [0.5, 0.5]}
        )
        proc = subprocess.run(
            [sys.executable, "-m", "sketchsolve.cli", "diagnose", str(path), "--output-dir", str(tmp_path / "o")],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {message}")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o" / "diagnostics.json").exists()

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
