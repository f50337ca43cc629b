"""Tests of the benchmark's own arithmetic: run with ``python3 -m pytest bench``."""

import itertools
import json
import re
from pathlib import Path

import pytest

import run
from stats import nearest_rank, tail_percentile, valid_metric_name
from tracing import NESTED, Span, Tracer, layer_units, self_times

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "n, expected_p",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_has_ten_samples_beyond_it(n, expected_p):
    values = [float(i) for i in range(n)]
    tail = tail_percentile(values)
    if expected_p is None:
        assert tail is None
        return
    p, value = tail
    assert p == expected_p
    assert sum(v > value for v in values) >= 10
    assert value == nearest_rank(sorted(values), p)


def test_tail_percentile_does_not_count_ties_as_beyond():
    assert tail_percentile([1.0] * 100) is None
    assert tail_percentile([1.0] * 50 + [2.0] * 9) is None  # rank 30, but only 9 values above
    assert tail_percentile([1.0] * 90 + [2.0] * 10) == (90.0, 1.0)


def test_self_time_of_nested_spans():
    spans = [
        Span(0, "root", None, 0.0, 10.0),
        Span(1, "a", 0, 1.0, 4.0),
        Span(2, "a.inner", 1, 2.0, 3.0),
        Span(3, "b", 0, 5.0, 9.0),
        Span(4, "leaf", 0, 0.0, 0.5, {"calls": 7}),  # aggregate of 7 leaf calls
    ]
    assert self_times(spans) == {0: 2.5, 1: 2.0, 2: 1.0, 3: 4.0, 4: 0.5}


def test_tracer_spans_leaves_and_nesting():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap_leaf(lambda: None, "leaf", count=lambda result: {"leaf.calls": 1})
    outer_leaf = tracer.wrap_leaf(lambda: leaf(), "outer_leaf")
    inner = tracer.wrap(lambda: (leaf(), leaf()), "inner")

    def body():
        inner()
        outer_leaf()

    _, root = tracer.run("root", body)
    own = self_times(tracer.spans)
    by_name = {(s.name, s.parent): s for s in tracer.spans}
    # each leaf call spans one tick; the leaf inside outer_leaf is kept apart
    assert by_name[("leaf", tracer.spans[1].id)].attrs["calls"] == 2
    assert by_name[("leaf", NESTED)].attrs["calls"] == 1
    assert tracer.calls("leaf") == 3
    assert tracer.counts["leaf.calls"] == 3
    assert sum(own.values()) == pytest.approx(root.duration + tracer.total("leaf") - tracer.within(root, "leaf"))
    assert own[root.id] == root.duration - tracer.total("inner") - tracer.total("outer_leaf")
    assert tracer.within(root, "inner") == tracer.total("inner")


def test_metric_names_use_only_allowed_characters():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert all(valid_metric_name(n) for n in names), [n for n in names if not valid_metric_name(n)]
    assert len(names) == len(set(names))
    assert not valid_metric_name("validation.lemma:sketch-identities_s")
    assert not valid_metric_name("_leading")
    assert not valid_metric_name("x" * 65)
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)


def test_benchmark_file_matches_reported_metrics():
    pytest.importorskip("numpy")
    import sys

    sys.path.insert(0, str(ROOT / "src"))
    from sketchsolve import validation

    anchors = list(validation.LIBRARY_CHECKS) + list(validation.PROBLEM_CHECKS)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert per_layer == layer_units(anchors)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
