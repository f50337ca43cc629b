"""Experiment configuration: JSON schema, validation, and object builders.

The file format is plain JSON. Schema errors carry the dotted path of
the offending field so misconfigurations are easy to locate. The master
seed is mandatory; nothing ever falls back to wall-clock entropy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .linalg import Problem, SpdMatrix
from .mmio import ParseError, load_matrix_market, load_vector
from .problems import ProblemSpec, generate_problem
from .sketching import (
    Block,
    Coordinate,
    CountMin,
    CountSketch,
    FixedIdentity,
    Gaussian,
    SketchDistribution,
    kaczmarz_distribution,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "build_problem", "build_distribution"]

PROBLEM_KINDS = {
    "gaussian-consistent",
    "diagonal",
    "spd-with-B-equals-A",
    "graph-incidence-gossip",
    "files",
}
DISTRIBUTION_KINDS = {
    "fixed-identity",
    "coordinate",
    "kaczmarz",
    "block",
    "gaussian",
    "count-sketch",
    "count-min",
}
SOLVER_METHODS = {"basic", "parallel", "accelerated"}


class ConfigError(ValueError):
    """Invalid configuration; carries the dotted path of the bad field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _get(mapping: dict, key: str, path: str, kind=None, required: bool = True, default=None):
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise ConfigError(f"{path}.{key}", f"expected {names}, got {type(value).__name__}")
    return value


@dataclass
class ExperimentConfig:
    """Typed view of an experiment configuration file."""

    seed: int
    problem: dict
    metric: dict
    distribution: dict
    solvers: list[dict]
    replications: int = 200
    iterations: int = 25
    expectation_samples: int = 10_000
    support_cap: int = 100_000
    checks: list[str] | None = None
    output_dir: str | None = None


def load_config(path) -> ExperimentConfig:
    """Parse and validate a configuration file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError("<root>", f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")

    seed = _get(raw, "seed", "<root>", int)
    if isinstance(seed, bool):
        raise ConfigError("<root>.seed", "expected int, got bool")
    problem = _get(raw, "problem", "<root>", dict)
    kind = _get(problem, "kind", "problem", str)
    if kind not in PROBLEM_KINDS:
        raise ConfigError("problem.kind", f"unknown kind {kind!r}; expected one of {sorted(PROBLEM_KINDS)}")

    metric = _get(raw, "metric", "<root>", dict, required=False, default={"kind": "identity"})
    metric_kind = _get(metric, "kind", "metric", str)
    if metric_kind not in {"identity", "diagonal", "file", "auto"}:
        raise ConfigError("metric.kind", f"unknown kind {metric_kind!r}")

    distribution = _get(raw, "distribution", "<root>", dict)
    dist_kind = _get(distribution, "kind", "distribution", str)
    if dist_kind not in DISTRIBUTION_KINDS:
        raise ConfigError(
            "distribution.kind", f"unknown kind {dist_kind!r}; expected one of {sorted(DISTRIBUTION_KINDS)}"
        )

    solvers = _get(raw, "solvers", "<root>", list, required=False, default=[])
    for idx, solver in enumerate(solvers):
        if not isinstance(solver, dict):
            raise ConfigError(f"solvers[{idx}]", "each solver must be an object")
        method = _get(solver, "method", f"solvers[{idx}]", str)
        if method not in SOLVER_METHODS:
            raise ConfigError(f"solvers[{idx}].method", f"unknown method {method!r}")

    replications = _get(raw, "replications", "<root>", int, required=False, default=200)
    iterations = _get(raw, "iterations", "<root>", int, required=False, default=25)
    if replications < 1:
        raise ConfigError("<root>.replications", "must be at least 1")
    if iterations < 1:
        raise ConfigError("<root>.iterations", "must be at least 1")

    checks = _get(raw, "checks", "<root>", list, required=False)
    if checks is not None and not all(isinstance(c, str) for c in checks):
        raise ConfigError("<root>.checks", "must be a list of check names")

    return ExperimentConfig(
        seed=int(seed),
        problem=problem,
        metric=metric,
        distribution=distribution,
        solvers=list(solvers),
        replications=int(replications),
        iterations=int(iterations),
        expectation_samples=int(
            _get(raw, "expectation_samples", "<root>", int, required=False, default=10_000)
        ),
        support_cap=int(_get(raw, "support_cap", "<root>", int, required=False, default=100_000)),
        checks=checks,
        output_dir=_get(raw, "output_dir", "<root>", str, required=False),
    )


def _build_metric(cfg: ExperimentConfig, n: int, generated: SpdMatrix) -> SpdMatrix:
    kind = cfg.metric["kind"]
    if kind in ("identity", "auto"):
        return generated if kind == "auto" else SpdMatrix.identity(n)
    try:
        if kind == "diagonal":
            values = _get(cfg.metric, "values", "metric", list)
            if len(values) != n:
                raise ConfigError("metric.values", f"expected {n} entries, got {len(values)}")
            return SpdMatrix.from_diagonal([float(v) for v in values])
        path = _get(cfg.metric, "path", "metric", str)
        return SpdMatrix(load_matrix_market(path))
    except (ConfigError, ParseError):
        raise
    except ValueError as exc:
        raise ConfigError("metric", str(exc)) from None


def build_problem(cfg: ExperimentConfig):
    """Materialize the problem from a config; returns (Problem, x_planted)."""
    spec = cfg.problem
    kind = spec["kind"]
    if kind == "files":
        matrix_path = _get(spec, "matrix", "problem", str)
        rhs_path = _get(spec, "rhs", "problem", str)
        a = load_matrix_market(matrix_path)
        b = load_vector(rhs_path)
        if b.size != a.shape[0]:
            raise ConfigError(
                "problem.rhs", f"right-hand side has {b.size} entries, matrix has {a.shape[0]} rows"
            )
        metric = _build_metric(cfg, a.shape[1], SpdMatrix.identity(a.shape[1]))
        return Problem(a, b, metric), None
    pspec = ProblemSpec(
        kind=kind,
        rows=spec.get("rows"),
        cols=spec.get("cols"),
        size=spec.get("size"),
        condition=spec.get("condition"),
        diagonal=tuple(spec["diagonal"]) if "diagonal" in spec else None,
        planted=tuple(spec["planted"]) if "planted" in spec else None,
        nodes=spec.get("nodes"),
        topology=spec.get("topology", "random"),
        extra_edges=spec.get("extra_edges", 0),
        edges=tuple(tuple(e) for e in spec["edges"]) if "edges" in spec else None,
        seed=spec.get("seed", cfg.seed),
    )
    try:
        a, b, generated_metric, planted = generate_problem(pspec)
    except ValueError as exc:
        raise ConfigError("problem", str(exc)) from None
    metric = _build_metric(cfg, a.shape[1], generated_metric)
    return Problem(a, b, metric), planted


def build_distribution(cfg: ExperimentConfig, problem: Problem) -> SketchDistribution:
    """Materialize the sketch distribution from a config."""
    spec = cfg.distribution
    kind = spec["kind"]
    m = problem.m
    try:
        if kind == "fixed-identity":
            return FixedIdentity(m)
        if kind == "kaczmarz":
            return kaczmarz_distribution(problem.A)
        if kind == "coordinate":
            probs = _get(spec, "probabilities", "distribution", list)
            if len(probs) != m:
                raise ConfigError(
                    "distribution.probabilities", f"expected {m} entries, got {len(probs)}"
                )
            return Coordinate([float(p) for p in probs])
        if kind == "block":
            q = _get(spec, "block_size", "distribution", int)
            return Block(m, q, with_replacement=bool(spec.get("with_replacement", False)))
        columns = _get(spec, "columns", "distribution", int)
        if kind == "gaussian":
            return Gaussian(m, columns)
        if kind == "count-sketch":
            return CountSketch(m, columns)
        return CountMin(m, columns)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("distribution", str(exc)) from None
