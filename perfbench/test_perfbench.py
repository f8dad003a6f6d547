"""Self-tests of the benchmark's output checks and tracer.

Each check sees genuine program output pass and one corrupted copy fail.
Run from the repository root:  python -m pytest -q perfbench
"""

import dataclasses
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import layers  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from guidedproc import fixtures  # noqa: E402


def _modules():
    import importlib

    return {n: importlib.import_module(f"guidedproc.{n}") for n in spans.LAYERS}


def _state(name, tmp_path, seed=0):
    w = WORKLOADS[name]
    inputs = w.generate(seed, str(tmp_path), fixtures)
    state = w.setup(_modules(), inputs)
    state["jobs"] = inputs["jobs"]
    return w, state


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        bundle = json.load(fh)
    edit(bundle)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bundle, fh)


def _shift_risk(sim):
    sim["empirical_risk"] += 11.0 * sim["risk_se"]  # a passing z lies in [-5, 5]


DESIGN_CORRUPTIONS = {
    "robustify": lambda b: b["stages"][0]["q0"].__setitem__(0, b["stages"][0]["q0"][0] + 1e-3),
    "optimize": lambda b: b["policy"].__setitem__("v0", b["policy"]["v0"] + 1e-6),
    "optimize-grid": lambda b: b["policy"].__setitem__("grid_size", 1001),
    "calibrate": lambda b: b["risk"].__setitem__("energy", 1e9),
    "check-optimality": lambda b: b.__setitem__("all_hold", not b["all_hold"]),
    "simulate": lambda b: _shift_risk(b["simulation"]),
    "graph-optimize": lambda b: b["graph_policy"].__setitem__("v0", None),
    "graph-simulate": lambda b: b["simulation"].__setitem__("n_frames", 1),
    "adaptive-simulate": lambda b: b["simulation"].__setitem__("rate_errors", [0.0, 0.05]),
}


def test_design_checks_pass_then_fail_on_corruption(tmp_path):
    w, state = _state("design", tmp_path)
    order = list(range(len(w.cycle)))
    for i in order:
        assert w.run(state, i) == 0
    for i in order:
        assert w.check(state, i, 0) == [], w.cycle[i]
    assert w.check(state, 0, 2) != []  # nonzero exit code
    for i in reversed(order):  # corrupt optimize bundles only after simulate read them
        kind = w.cycle[i]
        path = w._out(state, i)
        if kind == "compare":
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.rsplit("\n", 2)[0] + "\n")  # drop the last row
        else:
            _edit_json(path, DESIGN_CORRUPTIONS[kind])
        assert w.check(state, i, 0) != [], kind


def test_replay_checks_pass_then_fail_on_corruption(tmp_path):
    w, state = _state("replay", tmp_path)
    for i in range(len(w.cycle)):
        report = w.run(state, i)
        assert w.check(state, i, report) == [], w.cycle[i]
        bad = dataclasses.replace(report, empirical_risk=report.empirical_risk + 11 * report.risk_se)
        assert w.check(state, i, bad) != [], w.cycle[i]
    i = w.cycle.index("cascade")
    report = w.run(state, i)
    rule = state["rules"][state["jobs"][i]["prior"]]
    good = rule["policy"]
    rule["policy"] = dataclasses.replace(good, thresholds=(math.nan,) + good.thresholds[1:])
    assert w.check(state, i, report) != []
    rule["policy"] = dataclasses.replace(good, v0=good.v0 + 1e-6)
    assert w.check(state, i, report) != []


def test_inputs_depend_only_on_seed(tmp_path):
    for name, w in WORKLOADS.items():
        made = []
        for copy in "ab":
            d = tmp_path / f"{name}-{copy}"
            d.mkdir()
            made.append((d, w.generate(7, str(d), fixtures)))
        (da, a), (db, b) = made
        assert a["jobs"] == b["jobs"]
        for f in a["files"]:
            assert (da / f).read_bytes() == (db / f).read_bytes()


def test_tracer_self_time_and_restore():
    import types

    mod = types.ModuleType("fake")
    mod.__name__ = "fake"

    def inner():
        return 1

    def outer():
        return mod.inner() + 1

    inner.__module__ = outer.__module__ = "fake"
    mod.inner, mod.outer = inner, outer
    tracer = spans.Tracer()
    tracer.install({"cli": mod}, [mod])
    assert mod.outer() == 2
    tracer.uninstall()
    assert mod.outer is outer and mod.inner is inner
    recorded = tracer.take()
    assert [s[spans.NAME] for s in recorded] == ["cli.outer", "cli.inner"]
    assert recorded[1][spans.PARENT] == 0
    own = spans.self_times(recorded)
    outer_dur = recorded[0][spans.END] - recorded[0][spans.START]
    inner_dur = recorded[1][spans.END] - recorded[1][spans.START]
    assert own[0] == pytest.approx(outer_dur - inner_dur)


def test_metric_names_match_benchmark_json():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == [row[0] for row in layers.PER_LAYER]
    assert [m["unit"] for m in bench["per_layer"]] == [row[1] for row in layers.PER_LAYER]
