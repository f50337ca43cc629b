"""In-memory spans around calls into sketchsolve, installed only for traced runs.

A span records (id, name, parent id, start, end). Spans are made by
wrapping the names where callers look them up (for example
``sketchsolve.cli.build_reformulation`` or ``SpdMatrix.norm_sq``), so
nothing under ``src/`` changes. Hot leaf calls (norms, sketch draws,
single steps, one sketched system) would produce millions of spans, so
each (parent, name) pair of those is kept as one aggregate span whose
duration is the summed time and whose ``calls`` attribute is the count.
Everything stays in memory until the traced round ends.
"""

from __future__ import annotations

import collections
import functools
import time
from dataclasses import dataclass, field

# parent id of a leaf called inside another leaf: its time is already
# covered by the outer leaf, so it must not reduce any span's self time
NESTED = -1


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus that of its direct children.

    Children run inside their parent on one thread and do not overlap,
    so the part of the parent's interval they cover is the sum of their
    durations.
    """
    covered = collections.defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


class Tracer:
    """Collects spans and counts for one traced round."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts = collections.Counter()
        self._stack: list[int] = []
        self._leaves: dict[tuple, Span] = {}
        self._leaf_depth = 0

    def _parent(self):
        return self._stack[-1] if self._stack else None

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name``; returns (result, span)."""
        span = Span(len(self.spans), name, self._parent(), 0.0, 0.0)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = self.clock()
        try:
            return fn(*args, **kwargs), span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        """A span-recording stand-in for fn; ``count(result, *args)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result, _ = self.run(name, fn, *args, **kwargs)
            if count is not None:
                self.counts.update(count(result, *args, **kwargs))
            return result

        return traced

    def wrap_leaf(self, fn, name: str, count=None):
        """Like :meth:`wrap`, but aggregates all calls per (parent, name)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = NESTED if self._leaf_depth else self._parent()
            self._leaf_depth += 1
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - t0
                self._leaf_depth -= 1
            span = self._leaves.get((parent, name))
            if span is None:
                span = Span(len(self.spans), name, parent, 0.0, 0.0, {"calls": 0})
                self.spans.append(span)
                self._leaves[(parent, name)] = span
            span.end += elapsed
            span.attrs["calls"] += 1
            if count is not None:
                self.counts.update(count(result, *args, **kwargs))
            return result

        return traced

    def wrap_counter(self, fn, count):
        """Counts only, no timing (for calls too small to time)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts.update(count(result, *args, **kwargs))
            return result

        return counted

    # -- derived figures -------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(s.attrs.get("calls", 1) for s in self.spans if s.name == name)

    def self_total(self, name: str) -> float:
        own = self_times(self.spans)
        return sum(own[s.id] for s in self.spans if s.name == name)

    def within(self, ancestor: Span, name: str) -> float:
        """Summed duration of spans named ``name`` below ``ancestor``.

        Nested matches are not counted twice: a match inside another
        match is skipped.
        """
        by_id = {s.id: s for s in self.spans}
        total = 0.0
        for span in self.spans:
            if span.name != name:
                continue
            node, inside, shadowed = span.parent, False, False
            while node is not None and node != NESTED:
                if node == ancestor.id:
                    inside = True
                    break
                if by_id[node].name == name:
                    shadowed = True
                node = by_id[node].parent
            if inside and not shadowed:
                total += span.duration
        return total


class Installation:
    """Replaces attributes with traced stand-ins and restores them on exit."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_item(self, mapping: dict, key, value):
        self._saved.append((mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self):
        for owner, key, value in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._saved.clear()


def _steps(trace, *args, **kwargs):
    return {"solvers.steps": len(trace.error_sq) - 1}


def _mc_rep_steps(result, problem, dist, config, replications, iterations, **kwargs):
    return {"analysis.mc_rep_steps": int(replications) * int(iterations)}


def _check_outcome(result, *args, **kwargs):
    return {
        "validation.checks_failed": int(not result.passed),
        "validation.checks_skipped": int("skipped" in result.details),
    }


def _sketch_bytes(result, sample):
    m, q = sample.matrix.shape
    return {"sketching.dense_sketch_bytes": m * q * 8}


def _h_bytes(result, a, *args, **kwargs):
    m = len(a)
    return {"reformulation.H_bytes": m * m * 8}


def _atoms(result, *args, **kwargs):
    return {"sketching.support_atoms": 0 if result is None else len(result)}


def _one_draw(result, *args, **kwargs):
    return {"sketching.draws": 1}


def _index_draws(result, dist, rng, count):
    return {"sketching.draws": int(count)}


def install(tracer: Tracer) -> Installation:
    """Wrap the public functions of every sketchsolve module where they are looked up."""
    from sketchsolve import analysis, cli, config, linalg, reformulation, sketching, solvers, validation

    inst = Installation()

    def span(owner, attr, name, count=None):
        inst.set(owner, attr, tracer.wrap(getattr(owner, attr), name, count))

    def leaf(owner, attr, name, count=None):
        inst.set(owner, attr, tracer.wrap_leaf(getattr(owner, attr), name, count))

    for attr in ("load_config", "build_problem", "build_distribution"):
        span(cli, attr, f"config.{attr}")
    span(config, "Problem", "linalg.Problem")
    leaf(linalg.SpdMatrix, "norm_sq", "linalg.norm_sq")

    for cls in (
        sketching.SketchDistribution,
        sketching.FixedIdentity,
        sketching.Coordinate,
        sketching.Block,
        sketching.Gaussian,
        sketching.CountSketch,
        sketching.CountMin,
    ):
        if "sample" in vars(cls):
            leaf(cls, "sample", "sketching.sample", _one_draw)
        if "support" in vars(cls):
            leaf(cls, "support", "sketching.support", _atoms)
    leaf(sketching.Coordinate, "sample_indices", "sketching.sample", _index_draws)
    inst.set(
        sketching.SketchSample,
        "__post_init__",
        tracer.wrap_counter(sketching.SketchSample.__post_init__, _sketch_bytes),
    )

    for owner in (cli, validation):
        span(owner, "build_reformulation", "reformulation.build_reformulation")
    for owner in (reformulation, validation):
        leaf(owner, "sketched_system", "reformulation.sketched_system", _h_bytes)
    for attr in ("expected_Z", "spectrum_of", "check_exactness"):
        span(reformulation, attr, f"reformulation.{attr}")

    for owner in (cli, analysis, solvers):
        for attr in ("run_basic", "run_parallel", "run_accelerated"):
            span(owner, attr, f"solvers.{attr}", _steps)
    span(validation, "run_basic", "solvers.run_basic", _steps)
    leaf(solvers.Workspace, "coordinate_step", "solvers.coordinate_step")
    leaf(solvers.Workspace, "general_step", "solvers.general_step")

    for attr in ("fit_rate", "theoretical_rates"):
        span(cli, attr, f"analysis.{attr}")
    span(validation, "monte_carlo_moments", "analysis.monte_carlo_moments", _mc_rep_steps)

    span(cli, "run_validation", "validation.run_validation")
    for registry in (validation.LIBRARY_CHECKS, validation.PROBLEM_CHECKS):
        for anchor, check in list(registry.items()):
            inst.set_item(registry, anchor, tracer.wrap(check, f"validation.{anchor}", _check_outcome))
    return inst


# -- per-layer metrics --------------------------------------------------

_TRAJECTORIES = ("solvers.run_basic", "solvers.run_parallel", "solvers.run_accelerated")


def anchor_metric(anchor: str) -> str:
    return "validation." + anchor.replace(":", ".") + "_s"


def layer_units(anchors) -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, better), in report order."""
    units = {
        "linalg.problem_s": ("s", "lower"),
        "linalg.norm_sq_calls": ("count", "lower"),
        "sketching.draws": ("count", "lower"),
        "sketching.sample_s": ("s", "lower"),
        "sketching.support_atoms": ("count", "lower"),
        "sketching.dense_sketch_bytes": ("bytes", "lower"),
        "reformulation.expected_Z_s": ("s", "lower"),
        "reformulation.sketched_system_calls": ("count", "lower"),
        "reformulation.H_bytes": ("bytes", "lower"),
        "reformulation.spectrum_s": ("s", "lower"),
        "reformulation.exactness_s": ("s", "lower"),
        "solvers.steps": ("count", "lower"),
        "solvers.coordinate_steps": ("count", "lower"),
        "solvers.general_steps": ("count", "lower"),
        "solvers.trajectory_s": ("s", "lower"),
        "solvers.step_us": ("us", "lower"),
        "solvers.iterations_to_tol": ("count", "lower"),
        "analysis.mc_calls": ("count", "lower"),
        "analysis.mc_s": ("s", "lower"),
        "analysis.mc_rep_step_us": ("us", "lower"),
        "analysis.mc_reduce_s": ("s", "lower"),
    }
    units.update({anchor_metric(a): ("s", "lower") for a in anchors})
    units.update(
        {
            "validation.checks_failed": ("count", "lower"),
            "validation.checks_skipped": ("count", "lower"),
            "cli.self_s": ("s", "lower"),
            "cli.artifact_bytes": ("bytes", "lower"),
            "share.expected_Z_of_diagnose": ("fraction", "lower"),
            "share.mc_of_validate": ("fraction", "lower"),
            "trace.overhead": ("fraction", "lower"),
        }
    )
    return units


def layer_metrics(tracer: Tracer, op_spans: dict, observed: dict, anchors) -> dict[str, float]:
    """Per-layer figures of one traced round (every operation run once).

    ``op_spans`` maps an operation name to the benchmark's span around it
    and ``observed`` to the values its output checks read. Layers that
    do not run on a workload report 0. ``trace.overhead`` needs the
    untraced rounds too and is filled in by the caller.
    """
    c = tracer.counts
    steps = c["solvers.steps"]
    trajectory_s = sum(tracer.total(name) for name in _TRAJECTORIES)
    mc_s = tracer.total("analysis.monte_carlo_moments")
    rep_steps = c["analysis.mc_rep_steps"]
    commands = [name for name in ("diagnose", "run", "validate") if name in op_spans]

    def share(op: str, name: str) -> float:
        span = op_spans.get(op)
        return tracer.within(span, name) / span.duration if span else 0.0

    out = {
        "linalg.problem_s": tracer.total("linalg.Problem"),
        "linalg.norm_sq_calls": tracer.calls("linalg.norm_sq"),
        "sketching.draws": c["sketching.draws"],
        "sketching.sample_s": tracer.total("sketching.sample"),
        "sketching.support_atoms": c["sketching.support_atoms"],
        "sketching.dense_sketch_bytes": c["sketching.dense_sketch_bytes"],
        "reformulation.expected_Z_s": tracer.total("reformulation.expected_Z"),
        "reformulation.sketched_system_calls": tracer.calls("reformulation.sketched_system"),
        "reformulation.H_bytes": c["reformulation.H_bytes"],
        "reformulation.spectrum_s": tracer.total("reformulation.spectrum_of"),
        "reformulation.exactness_s": tracer.total("reformulation.check_exactness"),
        "solvers.steps": steps,
        "solvers.coordinate_steps": tracer.calls("solvers.coordinate_step"),
        "solvers.general_steps": tracer.calls("solvers.general_step"),
        "solvers.trajectory_s": trajectory_s,
        "solvers.step_us": 1e6 * trajectory_s / steps if steps else 0.0,
        "solvers.iterations_to_tol": observed["solve"]["solve_iterations"],
        "analysis.mc_calls": tracer.calls("analysis.monte_carlo_moments"),
        "analysis.mc_s": mc_s,
        "analysis.mc_rep_step_us": 1e6 * mc_s / rep_steps if rep_steps else 0.0,
        "analysis.mc_reduce_s": tracer.self_total("analysis.monte_carlo_moments"),
    }
    out.update({anchor_metric(a): tracer.total(f"validation.{a}") for a in anchors})
    out.update(
        {
            "validation.checks_failed": c["validation.checks_failed"],
            "validation.checks_skipped": c["validation.checks_skipped"],
            "cli.self_s": sum(tracer.self_total(f"op.{name}") for name in commands),
            "cli.artifact_bytes": sum(observed[name]["artifact_bytes"] for name in commands),
            "share.expected_Z_of_diagnose": share("diagnose", "reformulation.expected_Z"),
            "share.mc_of_validate": share("validate", "analysis.monte_carlo_moments"),
        }
    )
    return out
