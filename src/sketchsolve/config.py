"""Experiment configuration: JSON schema, validation, and object builders.

The file format is plain JSON. Schema errors carry the dotted path of
the offending field so misconfigurations are easy to locate. The master
seed is mandatory; nothing ever falls back to wall-clock entropy.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace

from .linalg import InconsistentSystemError, Problem, SpdMatrix
from .mmio import ParseError, load_matrix_market, load_vector
from .problems import diagonal_problem, gaussian_consistent, gossip_incidence, spd_with_matching_metric
from .reformulation import DEFAULT_EXPECTATION_SAMPLES, Spectrum
from .sketching import (
    DEFAULT_SUPPORT_CAP,
    Block,
    Coordinate,
    CountMin,
    CountSketch,
    FixedIdentity,
    Gaussian,
    SketchDistribution,
    kaczmarz_distribution,
)
from .solvers import METHODS, SolverConfig, acceleration_parameters, stepsize_policy

__all__ = [
    "ConfigError", "ExperimentConfig", "load_config", "build_problem", "build_distribution", "build_solvers"
]

DISTRIBUTION_KINDS = {
    "fixed-identity",
    "coordinate",
    "kaczmarz",
    "block",
    "gaussian",
    "count-sketch",
    "count-min",
}


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
    # a JSON true or false is a Python bool, which is also an int
    if kind is not None and (not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool)):
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise ConfigError(f"{path}.{key}", f"expected {names}, got {type(value).__name__}")
    return value


# each generated problem kind: its generator, the int fields it needs, and the
# types of its optional fields (a field left out takes the generator's default)
_GENERATORS = {
    "gaussian-consistent": (gaussian_consistent, ("rows", "cols"), {}),
    "diagonal": (
        diagonal_problem,
        (),
        {"diagonal": list, "size": int, "condition": (int, float), "planted": list},
    ),
    "spd-with-B-equals-A": (spd_with_matching_metric, ("size",), {"condition": (int, float)}),
    "graph-incidence-gossip": (
        gossip_incidence,
        ("nodes",),
        {"topology": str, "extra_edges": int, "edges": list},
    ),
}
PROBLEM_KINDS = {*_GENERATORS, "files"}
_LABEL = re.compile(r"[A-Za-z0-9._-]+")  # the POSIX portable file-name characters


@dataclass
class ExperimentConfig:
    """Typed view of an experiment configuration file."""

    seed: int
    problem: dict
    metric: dict
    distribution: dict
    solvers: list[dict]
    replications: int
    iterations: int
    expectation_samples: int
    support_cap: int
    checks: list[str] | None = None
    output_dir: str | None = None


def load_config(path, seed: int | None = None) -> ExperimentConfig:
    """Parse and validate a configuration file.

    ``seed``, when given, replaces the file's master seed, which is
    still required; the seed used must be non-negative.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError("<root>", f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")

    file_seed = _get(raw, "seed", "<root>", int)
    seed = file_seed if seed is None else seed
    if seed < 0:
        raise ConfigError("<root>.seed", f"must be non-negative, got {seed}")
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
        if method not in METHODS:
            raise ConfigError(f"solvers[{idx}].method", f"unknown method {method!r}")

    replications = _get(raw, "replications", "<root>", int, required=False, default=200)
    iterations = _get(raw, "iterations", "<root>", int, required=False, default=25)
    if replications < 1:
        raise ConfigError("<root>.replications", "must be at least 1")
    if iterations < 1:
        raise ConfigError("<root>.iterations", "must be at least 1")

    expectation_samples = _get(
        raw, "expectation_samples", "<root>", int, required=False, default=DEFAULT_EXPECTATION_SAMPLES
    )
    support_cap = _get(raw, "support_cap", "<root>", int, required=False, default=DEFAULT_SUPPORT_CAP)
    if expectation_samples < 1:
        raise ConfigError("<root>.expectation_samples", "must be at least 1")
    if support_cap < 0:
        raise ConfigError("<root>.support_cap", "must be non-negative")

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
        expectation_samples=int(expectation_samples),
        support_cap=int(support_cap),
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
    except (TypeError, ValueError) as exc:
        raise ConfigError("metric", str(exc)) from None


def build_problem(cfg: ExperimentConfig):
    """Materialize the problem from a config; returns (Problem, x_planted).

    A system ``Problem`` rejects (say, an empty one) raises ConfigError;
    an inconsistent one still raises InconsistentSystemError.
    """
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
        metric, planted = _build_metric(cfg, a.shape[1], SpdMatrix.identity(a.shape[1])), None
    else:
        generator, needs, optional = _GENERATORS[kind]
        args = [_get(spec, key, "problem", int, required=False) for key in needs]
        kwargs = {key: _get(spec, key, "problem", types) for key, types in optional.items() if key in spec}
        seed = _get(spec, "seed", "problem", int, required=False, default=cfg.seed)
        if seed < 0:
            raise ConfigError("problem.seed", f"must be non-negative, got {seed}")
        if None in args:
            raise ConfigError("problem", f"{kind} needs {' and '.join(needs)}")
        try:
            a, b, generated_metric, planted = generator(*args, **kwargs, seed=seed)
        except (TypeError, ValueError) as exc:
            raise ConfigError("problem", str(exc)) from None
        metric = _build_metric(cfg, a.shape[1], generated_metric)
    try:
        return Problem(a, b, metric), planted
    except InconsistentSystemError:
        raise
    except ValueError as exc:
        raise ConfigError("problem", str(exc)) from None


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
            replacement = _get(spec, "with_replacement", "distribution", bool, required=False, default=False)
            return Block(m, q, with_replacement=replacement)
        columns = _get(spec, "columns", "distribution", int)
        if kind == "gaussian":
            return Gaussian(m, columns)
        if kind == "count-sketch":
            return CountSketch(m, columns)
        return CountMin(m, columns)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError("distribution", str(exc)) from None


def _build_solver(spec: dict, path: str, cfg: ExperimentConfig, spectrum: Spectrum):
    """(SolverConfig, mu) of one solver spec; mu is None unless the rates use one."""
    omega = _get(spec, "omega", path, (int, float), required=False)
    policy = _get(spec, "policy", path, str, required=False)
    iterations = _get(spec, "iterations", path, int, required=False, default=cfg.iterations)
    tau = _get(spec, "tau", path, int, required=False, default=1)
    gamma = _get(spec, "gamma", path, (int, float), required=False)
    mu = _get(spec, "mu", path, (int, float, str), required=False, default="auto")
    if isinstance(mu, str) and mu != "auto":
        raise ConfigError(f"{path}.mu", f"expected a number or 'auto', got {mu!r}")
    if omega is None and policy is None:
        raise ValueError("needs omega or policy")
    omega = float(omega) if omega is not None else stepsize_policy(spectrum, policy)
    config = SolverConfig(omega=omega, max_iters=iterations, master_seed=cfg.seed, tau=tau)
    if spec["method"] != "accelerated":
        return config, None
    if mu == "auto" and gamma is not None:
        return replace(config, gamma=float(gamma)), None  # no mu is computed
    implied, mu = acceleration_parameters(spectrum, omega, None if mu == "auto" else mu)
    return replace(config, gamma=float(implied if gamma is None else gamma)), mu


def build_solvers(cfg: ExperimentConfig, spectrum: Spectrum) -> list[tuple[str, str, SolverConfig, float | None]]:
    """(label, method, SolverConfig, mu) of every solver spec, in spec order.

    A spec's label defaults to ``f"{method}-{index}"``. It names the
    trace file, so it is one or more of the portable file-name
    characters ``A-Z a-z 0-9 . _ -`` and differs from every earlier
    one. ``omega`` or ``policy`` sets the stepsize; the accelerated
    method steps with the given ``gamma`` or the one
    :func:`acceleration_parameters` implies by ``mu`` (automatic unless
    given), and ``mu`` is what its predicted rates read. An invalid
    spec raises ConfigError.
    """
    solvers, labels = [], {}
    for index, spec in enumerate(cfg.solvers):
        path = f"solvers[{index}]"
        method = spec["method"]
        label = _get(spec, "label", path, str, required=False, default=f"{method}-{index}")
        if not _LABEL.fullmatch(label):
            raise ConfigError(f"{path}.label", f"{label!r} must be one or more of A-Z a-z 0-9 . _ -")
        if label in labels:
            raise ConfigError(f"{path}.label", f"{label!r} is already the label of solvers[{labels[label]}]")
        labels[label] = index
        try:
            solvers.append((label, method, *_build_solver(spec, path, cfg, spectrum)))
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(path, str(exc)) from None
    return solvers
