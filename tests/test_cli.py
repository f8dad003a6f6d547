"""End-to-end runs of the command-line front end on temp model files."""

import argparse
import contextlib
import copy
import csv
import functools
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import guidedproc
from guidedproc import BeliefGrid, cli, io, solve
from guidedproc.cli import COMPARE_COLUMNS, main
from guidedproc.errors import GuidedProcError
from guidedproc.fixtures import as_document, graph_document
from guidedproc.models import MAX_GRID_SIZE

from test_io import cascade_raw, graph_raw


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    io.dump_model_file(cascade_raw(), path)
    return str(path)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.json"
    io.dump_model_file(graph_raw(), path)
    return str(path)


def run_json(args, out_path):
    rc = main(args + ["-o", str(out_path)])
    assert rc == 0
    with open(out_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestOptimize:
    def test_cascade_bundle(self, model_file, tmp_path):
        bundle = run_json(["optimize", model_file], tmp_path / "out.json")
        assert bundle["format"] == "guidedproc-result"
        doc = io.load_model_file(model_file)
        assert bundle["config_hash"] == io.config_hash(doc.raw)
        policy = bundle["policy"]
        assert len(policy["thresholds"]) == 2
        assert policy["v0"] > 0.0
        risk = bundle["risk"]
        parts = risk["weighted_energy"] + risk["inter_miss"]
        parts += risk["final_miss"] + risk["final_fa"]
        assert parts == pytest.approx(risk["total"], abs=1e-12)
        assert len(bundle["bands"]) == 2
        assert set(bundle["optimality"]) == {"positive_thresholds", "per_stage", "all_hold"}

    def test_stdout_when_no_output(self, model_file, capsys):
        assert main(["optimize", model_file]) == 0
        bundle = json.loads(capsys.readouterr().out)
        assert "policy" in bundle

    def test_prior_and_grid_overrides(self, model_file, tmp_path):
        a = run_json(["optimize", model_file, "--prior", "0.3"], tmp_path / "a.json")
        b = run_json(["optimize", model_file], tmp_path / "b.json")
        assert a["prior"] == 0.3
        assert a["policy"]["v0"] != b["policy"]["v0"]
        c = run_json(["optimize", model_file, "--grid", "201"], tmp_path / "c.json")
        assert c["policy"]["grid_size"] == 201

    def test_energy_budget_is_met(self, model_file, tmp_path):
        bundle = run_json(
            ["optimize", model_file, "--energy-budget", "5.0"], tmp_path / "out.json"
        )
        assert bundle["risk"]["energy"] <= 5.0 + 1e-4
        assert bundle["policy"]["energy_weight"] > 0.0

    def test_graph_model(self, graph_file, tmp_path):
        bundle = run_json(["optimize", graph_file], tmp_path / "out.json")
        gp = bundle["graph_policy"]
        assert gp["order"][-1] == 1  # root closes the post-order
        assert set(gp["stop_thresholds"]) == {"1", "2"}
        assert gp["v0"] > 0.0

    def test_graph_energy_flags(self, graph_file, tmp_path, capsys):
        # --energy-weight replaces the file's weight; a graph has no budget
        # calibration, so --energy-budget is refused rather than dropped
        default = run_json(["optimize", graph_file], tmp_path / "default.json")["graph_policy"]
        gp = run_json(["optimize", graph_file, "--energy-weight", "5"], tmp_path / "out.json")
        assert default["energy_weight"] != 5.0
        assert gp["graph_policy"]["energy_weight"] == 5.0
        assert gp["graph_policy"]["v0"] > default["v0"]
        assert main(["optimize", graph_file, "--energy-budget", "5"]) == 2
        err = capsys.readouterr().err
        assert "--energy-budget" in err and "Traceback" not in err


class TestRobustify:
    def test_bundle_shape(self, tmp_path):
        raw = cascade_raw()
        raw["stages"][0]["uncertainty"] = {"eps0": 0.05, "eps1": 0.05}
        path = tmp_path / "m.json"
        io.dump_model_file(raw, path)
        bundle = run_json(["robustify", str(path)], tmp_path / "out.json")
        assert len(bundle["stages"]) == 2
        front = bundle["stages"][0]
        assert np.sum(front["q0"]) == pytest.approx(1.0, abs=1e-9)
        assert np.sum(front["q1"]) == pytest.approx(1.0, abs=1e-9)
        assert front["band"]["lo"] < front["band"]["hi"]
        assert 0.0 < front["posterior_lo"] < raw["prior"] < front["posterior_hi"] < 1.0
        # the exact last stage keeps the full belief interval
        back = bundle["stages"][1]
        assert (back["posterior_lo"], back["posterior_hi"]) == (0.0, 1.0)

    def test_zero_uncertainty_returns_the_input(self, model_file, tmp_path):
        bundle = run_json(["robustify", model_file], tmp_path / "out.json")
        np.testing.assert_allclose(bundle["stages"][0]["q0"], [0.7, 0.2, 0.1], atol=1e-12)

    def test_graph_model_rejected(self, graph_file):
        assert main(["robustify", graph_file]) == 2

    def test_zero_on_cost_exits_2(self, tmp_path, capsys):
        # stage costs are checked as the file is parsed, as for optimize
        raw = cascade_raw()
        raw["stages"][0]["on_cost"] = 0.0
        path = tmp_path / "m.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["robustify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "on_cost must be positive and finite" in err and "Traceback" not in err


class TestCheckOptimality:
    def test_bundle(self, model_file, tmp_path):
        bundle = run_json(["check-optimality", model_file], tmp_path / "out.json")
        assert isinstance(bundle["all_hold"], bool)
        assert len(bundle["per_stage"]) == 1  # intermediate stages only
        assert len(bundle["positive_thresholds"]) == 1

    def test_graph_model_rejected(self, graph_file):
        assert main(["check-optimality", graph_file]) == 2


class TestSimulate:
    def test_deterministic(self, model_file, tmp_path):
        args = ["simulate", model_file, "--n-frames", "5000", "--seed", "9"]
        a = run_json(args, tmp_path / "a.json")
        b = run_json(args, tmp_path / "b.json")
        assert a["simulation"] == b["simulation"]
        c = run_json(args[:-1] + ["10"], tmp_path / "c.json")
        assert c["simulation"] != a["simulation"]
        assert a["analytic_risk"]["total"] > 0.0

    def test_saved_policy_matches_solving_now(self, model_file, tmp_path):
        opt = run_json(["optimize", model_file], tmp_path / "policy.json")
        fresh = run_json(
            ["simulate", model_file, "--n-frames", "4000", "--seed", "3"],
            tmp_path / "fresh.json",
        )
        reused = run_json(
            ["simulate", model_file, "--n-frames", "4000", "--seed", "3",
             "--policy", str(tmp_path / "policy.json")],
            tmp_path / "reused.json",
        )
        assert reused["simulation"] == fresh["simulation"]
        assert reused["policy"]["thresholds"] == opt["policy"]["thresholds"]
        assert reused["analytic_risk"] is None

    def test_adaptive_mode(self, model_file, tmp_path):
        bundle = run_json(
            ["simulate", model_file, "--mode", "adaptive", "--mu", "1e-3",
             "--burn-in", "200", "--n-frames", "3000"],
            tmp_path / "out.json",
        )
        sim = bundle["simulation"]
        assert len(sim["final_eta"]) == 2
        assert len(sim["rate_errors"]) == 2
        assert sim["n_frames"] == 3000

    def test_graph_stream(self, graph_file, tmp_path):
        bundle = run_json(
            ["simulate", graph_file, "--n-frames", "4000", "--seed", "2"],
            tmp_path / "out.json",
        )
        assert bundle["v0"] > 0.0
        assert bundle["simulation"]["n_frames"] == 4000

    def test_graph_refuses_adaptive(self, graph_file):
        assert main(["simulate", graph_file, "--mode", "adaptive"]) == 2

    def test_graph_refuses_a_policy_file(self, graph_file, model_file, tmp_path, capsys):
        # graph policies have no file format: the flag is an error, not
        # silently replaced by a fresh solve
        run_json(["optimize", model_file], tmp_path / "policy.json")
        capsys.readouterr()
        for policy in (tmp_path / "policy.json", tmp_path / "missing.json"):
            argv = ["simulate", graph_file, "--policy", str(policy), "--n-frames", "1000"]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "--policy" in err and "Traceback" not in err


class TestCompare:
    def read_rows(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == COMPARE_COLUMNS
            return list(reader)

    def test_sweep_csv(self, model_file, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["compare", model_file, "--sweep", "0.08:0.12:3",
                   "--n-frames", "2000", "-o", str(out)])
        assert rc == 0
        rows = self.read_rows(out)
        assert [float(r["pi0"]) for r in rows] == pytest.approx([0.08, 0.10, 0.12])
        for r in rows:
            assert r["dominance_eq13"] in {"true", "false"}
            assert float(r["gp_risk"]) > 0.0
            assert float(r["dc_energy"]) > 0.0

    def test_single_prior_document(self, model_file, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["compare", model_file, "--n-frames", "1000", "-o", str(out)]) == 0
        rows = self.read_rows(out)
        assert len(rows) == 1 and float(rows[0]["pi0"]) == 0.1

    def test_stdout_and_worker_pool_agree(self, model_file, tmp_path, capsys, monkeypatch):
        args = ["compare", model_file, "--sweep", "0.09:0.11:2", "--n-frames", "1000"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        monkeypatch.setenv("GUIDEDPROC_THREADS", "2")
        assert main(args) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_thread_count_exits_2(self, model_file, capsys, monkeypatch, value):
        monkeypatch.setenv("GUIDEDPROC_THREADS", value)
        assert main(["compare", model_file, "--sweep", "0.09:0.11:2", "--n-frames", "100"]) == 2
        err = capsys.readouterr().err
        assert "GUIDEDPROC_THREADS" in err and "Traceback" not in err

    def test_thread_count_clamped_to_rows_and_cpus(self, model_file, monkeypatch):
        # A stand-in pool records its size and maps in-process, so a large
        # request never starts any worker.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("GUIDEDPROC_THREADS", "100000")
        args = ["compare", model_file, "--sweep", "0.08:0.12:3", "--n-frames", "100"]
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert main(args) == 0
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert main(args) == 0
        assert sizes == [2, 3]

    def test_bad_sweep(self, model_file):
        assert main(["compare", model_file, "--sweep", "0.2:0.1"]) == 2

    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_sweep_over_the_cap_exits_2_before_any_row(self, tmp_path, capsys, monkeypatch, where):
        def no_rows(task):
            raise AssertionError("a row was solved")

        monkeypatch.setattr(cli, "_compare_row", no_rows)
        raw = cascade_raw()
        n = io.MAX_SWEEP_POINTS + 1
        flags = ["--sweep", f"0.05:0.15:{n}"] if where == "flag" else []
        if where == "file":
            raw.pop("prior")
            raw["prior_sweep"] = [0.05, 0.15, n]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["compare", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert f"at most {io.MAX_SWEEP_POINTS} points" in err and "Traceback" not in err

    def test_graph_model_rejected(self, graph_file):
        assert main(["compare", graph_file]) == 2


class TestExitCodes:
    def test_missing_file(self, tmp_path):
        assert main(["optimize", str(tmp_path / "nope.json")]) == 2

    def test_malformed_model(self, tmp_path):
        path = tmp_path / "bad.json"
        raw = cascade_raw()
        raw.pop("miss_cost")
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["optimize", str(path)]) == 2

    @pytest.mark.parametrize(
        "make, mangle",
        [
            (cascade_raw, lambda r: r.update(grid_size="abc")),
            (cascade_raw, lambda r: r.update(grid_size=None)),
            (cascade_raw, lambda r: r.update(grid_size=2.5)),
            (cascade_raw, lambda r: r.update(grid_size=True)),
            (cascade_raw, lambda r: r.pop("prior") and r.update(prior_sweep=[0.05, "x", 3])),
            (cascade_raw, lambda r: r.pop("prior") and r.update(prior_sweep=[0.05, 0.15, 2.5])),
            (cascade_raw, lambda r: r.pop("prior") and r.update(prior_sweep=[0.05, 0.15, 10**6])),
            (cascade_raw, lambda r: r["stages"][0].update(p0=[0.5, "a", 0.5])),
            (cascade_raw, lambda r: r["stages"][0].update(p0="abc")),
            (graph_raw, lambda r: r.update(edges=[[1, "z"]])),
            (graph_raw, lambda r: r.update(edges=5)),
            (graph_raw, lambda r: r.update(root="r")),
            (graph_raw, lambda r: r["nodes"].update({"2": 5})),
            (graph_raw, lambda r: r["nodes"].update({"2": "uncertainty"})),
        ],
        ids=[
            "grid-size-string", "grid-size-null", "grid-size-fraction", "grid-size-bool",
            "sweep-string", "sweep-count-fraction", "sweep-count-over-cap", "pmf-string-entry",
            "pmf-string",
            "edge-string-id", "edges-number", "root-string", "node-number", "node-string",
        ],
    )
    def test_wrongly_typed_fields_exit_2(self, tmp_path, capsys, make, mangle):
        raw = make()
        mangle(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["optimize", str(path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mangle, field",
        [
            (
                lambda r: r.pop("energy_weight") and r.update(energy_budget=math.nan),
                "energy_budget",
            ),
            (lambda r: r.update(miss_cost=math.inf), "miss_cost"),
            (lambda r: r.update(prior=math.nan), "prior"),
            (lambda r: r["stages"][0]["p0"].__setitem__(0, 10**400), "p0"),
        ],
        ids=["budget-nan", "miss-cost-infinity", "prior-nan", "pmf-integer-past-float-range"],
    )
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, mangle, field):
        raw = cascade_raw()
        mangle(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw), encoding="utf-8")  # NaN / Infinity literals
        assert main(["optimize", str(path)]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    def test_non_finite_budget_flag_exits_2(self, model_file, capsys):
        assert main(["optimize", model_file, "--energy-budget", "nan"]) == 2
        assert "energy_budget" in capsys.readouterr().err

    def test_infeasible_contamination(self, tmp_path):
        raw = cascade_raw()
        raw["stages"][0] = {
            "p0": [0.5, 0.5], "p1": [0.5, 0.5], "on_cost": 1.0,
            "uncertainty": {"eps0": 0.1, "eps1": 0.1, "nu0": 0.1, "nu1": 0.1},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["robustify", str(path)]) == 3
        assert main(["optimize", str(path)]) == 3

    def test_unabsorbable_contamination_exits_3(self, tmp_path, capsys):
        # state 0 is exact and lies inside the state-1 class, whose nu1 = 0.1
        # covers the separation D = 0.08: the classes overlap
        raw = cascade_raw()
        raw["stages"][0] = {
            "p0": [0.0, 1.0, 0.0], "p1": [0.0, 0.9, 0.1], "on_cost": 1.0,
            "uncertainty": {"eps1": 0.2, "nu1": 0.1},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["robustify", str(path)]) == 3
        err = capsys.readouterr().err
        assert "infeasible" in err and "overlap" in err and "Traceback" not in err
        # with nu1 = 0 the classes are apart (D = 0.008): the band's high end
        # has no finite crossing and is written as null
        raw["stages"][0].update(p1=[0.0, 0.99, 0.01], uncertainty={"eps1": 0.2})
        path.write_text(json.dumps(raw), encoding="utf-8")
        stage = run_json(["robustify", str(path)], tmp_path / "out.json")["stages"][0]
        assert stage["band"]["hi"] is None
        assert stage["q1"] == pytest.approx([0.0, 0.992, 0.008], rel=1e-12)

    @pytest.mark.parametrize(
        "kind, flags",
        [("cascade", ["--energy-weight", "1e308"]), ("cascade", []), ("graph", [])],
        ids=["flag", "model-file", "graph-file"],
    )
    def test_overflowing_energy_weight_exits_2(self, tmp_path, capsys, kind, flags):
        # a finite weight whose weighted costs overflow would write Infinity
        raw = cascade_raw() if kind == "cascade" else graph_raw()
        if not flags:
            raw["energy_weight"] = 1e308
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["optimize", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert "energy_weight" in err and "Traceback" not in err

    def test_policy_file_with_overflowing_energy_weight_exits_2(self, model_file, tmp_path, capsys):
        # the stream risk would be Infinity; the weight gets the solver's check
        bundle = run_json(["optimize", model_file], tmp_path / "policy.json")
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps({**bundle["policy"], "energy_weight": 1e308}), encoding="utf-8")
        argv = ["simulate", model_file, "--policy", str(path), "--n-frames", "1000"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "energy_weight" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_negative_seed_exits_2(self, model_file, capsys, command):
        argv = [command, model_file, "--seed", "-1", "--n-frames", "1000"]
        if command == "compare":
            argv += ["--sweep", "0.1:0.1:1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err

    def test_adaptive_mu_zero_exits_2(self, model_file, capsys):
        argv = ["simulate", model_file, "--mode", "adaptive", "--mu", "0", "--n-frames", "1000"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "mu must lie in (0, 1)" in err and "Traceback" not in err

    @pytest.mark.parametrize("sweep", ["a:b:3", "0.1:0.2:x"])
    def test_unparsable_sweep_exits_2(self, model_file, capsys, sweep):
        assert main(["compare", model_file, "--sweep", sweep]) == 2
        err = capsys.readouterr().err
        assert "--sweep" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "write",
        [
            lambda bundle: "{not json",
            lambda bundle: json.dumps([bundle]),
            lambda bundle: json.dumps(bundle["policy"]["thresholds"]),
            lambda bundle: json.dumps({**bundle, "policy": [1.0]}),
            lambda bundle: json.dumps(
                {**bundle["policy"], "thresholds": ["nan", *bundle["policy"]["thresholds"][1:]]}
            ),
            lambda bundle: json.dumps(
                {**bundle["policy"], "thresholds": [math.inf, *bundle["policy"]["thresholds"][1:]]}
            ),
            lambda bundle: json.dumps({**bundle["policy"], "raw_thresholds": [math.nan] * 3}),
            lambda bundle: json.dumps({**bundle["policy"], "energy_weight": -1}),
            lambda bundle: json.dumps({**bundle["policy"], "energy_weight": math.nan}),
            lambda bundle: json.dumps({**bundle["policy"], "v0": math.inf}),
            lambda bundle: json.dumps({**bundle["policy"], "grid_size": 1}),
            lambda bundle: json.dumps({**bundle["policy"], "grid_size": math.inf}),
            lambda bundle: json.dumps({**bundle["policy"], "grid_size": 1e12}),
            lambda bundle: json.dumps({**bundle["policy"], "grid_size": 2.7}),
            lambda bundle: json.dumps(
                {**bundle["policy"], "raw_thresholds": bundle["policy"]["raw_thresholds"][:-1]}
            ),
            lambda bundle: json.dumps({**bundle, "policy": 5}),
            lambda bundle: json.dumps(
                {**bundle["policy"], "thresholds": [str(t) for t in bundle["policy"]["thresholds"]]}
            ),
            lambda bundle: json.dumps({**bundle["policy"], "v0": True}),
        ],
        ids=[
            "not-json", "list-of-bundles", "list-of-thresholds", "policy-list",
            "threshold-nan-string", "threshold-infinity", "raw-nan", "weight-negative",
            "weight-nan", "v0-infinity", "grid-1", "grid-infinity", "grid-huge",
            "grid-fraction", "raw-short", "policy-number", "threshold-string", "v0-bool",
        ],
    )
    def test_bad_policy_file_exits_2(self, model_file, tmp_path, capsys, write):
        bundle = run_json(["optimize", model_file], tmp_path / "policy.json")
        path = tmp_path / "bad.json"
        path.write_text(write(bundle), encoding="utf-8")
        argv = ["simulate", model_file, "--policy", str(path), "--n-frames", "1000"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "guidedproc:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flags, grid_size",
        [
            ("optimize", ["--grid", "1000000000000"], None),
            ("check-optimality", ["--grid", "1000000000000"], None),
            ("optimize", [], 1e12),
            ("optimize", ["--grid", "0"], None),  # not the model file's grid
            ("robustify", [], 1),  # checked at load, though robustify builds no grid
        ],
        ids=["optimize-flag", "check-optimality-flag", "model-file", "zero-flag", "robustify"],
    )
    def test_grid_size_out_of_range_exits_2(self, tmp_path, capsys, command, flags, grid_size):
        raw = cascade_raw()
        if grid_size is not None:
            raw["grid_size"] = grid_size
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main([command, str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert str(MAX_GRID_SIZE) in err and "Traceback" not in err

    @pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100_000], ids=["not-utf8", "deep"])
    @pytest.mark.parametrize("role", ["model", "policy"])
    def test_undecodable_file_exits_2(self, model_file, tmp_path, capsys, data, role):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        if role == "model":
            argv = ["optimize", str(path)]
        else:
            argv = ["simulate", model_file, "--policy", str(path), "--n-frames", "1000"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "Traceback" not in err

    def test_grid_with_policy_exits_2(self, model_file, tmp_path, capsys):
        # the policy file fixes the grid, so a --grid flag would go unused
        policy = tmp_path / "policy.json"
        run_json(["optimize", model_file], policy)
        argv = ["simulate", model_file, "--policy", str(policy), "--grid", "101"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--grid" in err and "Traceback" not in err

    def test_bare_policy_payload_is_a_policy_file(self, model_file, tmp_path):
        bundle = run_json(["optimize", model_file], tmp_path / "bundle.json")
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(bundle["policy"]), encoding="utf-8")
        argv = ["simulate", model_file, "--policy", str(path), "--n-frames", "1000"]
        assert run_json(argv, tmp_path / "out.json")["policy"] == bundle["policy"]

    def test_infeasible_budget(self, model_file):
        assert main(["optimize", model_file, "--energy-budget", "1000"]) == 3
        assert main(["optimize", model_file, "--energy-budget", "0.01"]) == 3

    @pytest.mark.parametrize(
        "argv, threads",
        [
            (["optimize"], "1"),
            (["check-optimality"], "1"),
            (["simulate", "--n-frames", "1000"], "1"),
            (["compare", "--sweep", "0.1:0.2:2", "--n-frames", "1000"], "2"),
        ],
        ids=["optimize", "check-optimality", "simulate", "compare-workers"],
    )
    def test_oversized_work_exits_3_before_allocating(self, tmp_path, argv, threads):
        # 20,000 distinct ratios on the largest grid: each transition pair
        # would take 32 GB.  The child process may map 3 GiB at most, so
        # the exit must come from the guard, before any large allocation.
        n = 20_000
        flat, ramp = [1.0 / n] * n, (np.arange(1, n + 1) / (n * (n + 1) / 2)).tolist()
        stage = {"p0": flat, "p1": ramp}
        raw = cascade_raw(
            grid_size=MAX_GRID_SIZE,
            stages=[
                dict(stage, on_cost=1.0),
                dict(stage, on_cost=5.0, off_cost=0.1),
                dict(stage, on_cost=20.0, off_cost=0.4),
            ],
        )
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        src = str(Path(guidedproc.__file__).resolve().parents[1])
        env = dict(
            os.environ,
            GUIDEDPROC_THREADS=threads,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        )
        limit = 3 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "guidedproc.cli", argv[0], str(path), *argv[1:]],
            env=env,
            capture_output=True,
            text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{n} ratio classes at {MAX_GRID_SIZE} beliefs" in proc.stderr
        assert f"{16 * n * MAX_GRID_SIZE}-byte" in proc.stderr

    def test_memory_error_exits_3(self, model_file, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError("Unable to allocate")

        monkeypatch.setitem(cli._COMMANDS, "optimize", exhausted)
        assert main(["optimize", model_file]) == 3
        err = capsys.readouterr().err
        assert "Unable to allocate" in err and "Traceback" not in err

    def test_numerical_failure_exits_4(self, model_file, capsys, monkeypatch):
        def diverged(args):
            raise GuidedProcError("value iteration diverged")

        monkeypatch.setitem(cli._COMMANDS, "optimize", diverged)
        assert main(["optimize", model_file]) == 4
        err = capsys.readouterr().err
        assert "numerical failure: value iteration diverged" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["optimize", "simulate"])
    def test_graph_without_energy_weight_exits_2(self, tmp_path, capsys, command):
        raw = graph_raw()
        raw.pop("energy_weight")
        path = tmp_path / "g.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        flags = {"optimize": [], "simulate": ["--n-frames", "100"]}[command]
        assert main([command, str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert "graph model files need energy_weight" in err and "Traceback" not in err

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestRepeatedCalls:
    """``main`` builds its parser on the first call and reuses it."""

    @staticmethod
    def commands(model_file, graph_file):
        return [
            ["robustify", model_file],
            ["optimize", model_file, "--grid", "201", "--energy-budget", "20"],
            ["check-optimality", model_file],
            ["simulate", model_file, "--n-frames", "2000", "--mode", "adaptive"],
            ["compare", model_file, "--sweep", "0.05:0.2:2", "--n-frames", "1000"],
            ["simulate", graph_file, "--n-frames", "1000"],
            ["optimize", model_file, "--frobnicate"],
            ["optimize", str(Path(model_file).with_name("missing.json"))],
        ]

    @staticmethod
    def run(argv, capsys):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's --version and usage errors
            rc = exc.code
        out = capsys.readouterr()
        return rc, out.out, out.err

    def test_one_parser_per_process(self, model_file, graph_file, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        commands = self.commands(model_file, graph_file)
        results = [self.run(commands[k % len(commands)], capsys) for k in range(20)]
        assert len(built) == 1 + len(cli._COMMANDS)  # the root and one per subcommand
        assert [rc for rc, _, _ in results[: len(commands)]] == [0, 0, 0, 0, 0, 0, 2, 2]
        assert results[len(commands):] == results[: 20 - len(commands)]

    def test_output_does_not_depend_on_call_order(self, model_file, graph_file, capsys):
        commands = self.commands(model_file, graph_file)
        cli._build_parser.cache_clear()
        forward = [self.run(argv, capsys) for argv in commands]
        cli._build_parser.cache_clear()
        backward = [self.run(argv, capsys) for argv in reversed(commands)]
        assert forward == backward[::-1]

    def test_version_and_bad_flag_after_reuse(self, model_file, capsys):
        cli._build_parser.cache_clear()
        for _ in range(2):
            rc, out, _ = self.run(["--version"], capsys)
            assert (rc, out) == (0, f"guidedproc {guidedproc.__version__}\n")
            rc, _, err = self.run(["optimize", model_file, "--grid", "many"], capsys)
            assert rc == 2 and "--grid" in err
            assert self.run(["optimize", model_file, "-o", os.devnull], capsys)[0] == 0


def strict_json(text):
    """JSON with no NaN or Infinity literals."""

    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


# Input-contract fuzzing: mutated reference documents through the CLI.
NUMBERS = st.sampled_from(
    [0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.999999, 1.0 - 1e-12, 1.0,
     -0.1, -1e-300, 1e308, math.nan, math.inf]
)
WRONG_TYPES = st.sampled_from(["0.1", None, [0.1], {"eps0": 0.1}, True])
VALUES = NUMBERS | WRONG_TYPES
LEVELS = st.sampled_from([0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3])
UNCERTAINTY = WRONG_TYPES | st.dictionaries(
    st.sampled_from(["eps0", "eps1", "nu0", "nu1"]), LEVELS | LEVELS | VALUES, max_size=4
)
BASE_DOCUMENTS = (as_document(), graph_document())


@st.composite
def mutated_documents(draw):
    raw = copy.deepcopy(draw(st.sampled_from(BASE_DOCUMENTS)))
    holders = raw["stages"] if "stages" in raw else list(raw["nodes"].values())
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["uncertainty"] * 4 + ["field", "entry", "top", "delete"]))
        if kind == "uncertainty":
            draw(st.sampled_from(holders))["uncertainty"] = draw(UNCERTAINTY)
        elif kind == "field":
            holder = draw(st.sampled_from(holders))
            holder[draw(st.sampled_from(["p0", "p1", "on_cost", "off_cost"]))] = draw(VALUES)
        elif kind == "entry":
            pmf = draw(st.sampled_from(holders))[draw(st.sampled_from(["p0", "p1"]))]
            if isinstance(pmf, list):  # not already replaced by a "field" value
                pmf[draw(st.integers(0, len(pmf) - 1))] = draw(VALUES | st.just(10**400))
        elif kind == "top":
            raw[draw(st.sampled_from(sorted(raw)))] = draw(VALUES)
        else:
            raw.pop(draw(st.sampled_from(sorted(raw))))
    return raw


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mutated_documents(),
    st.sampled_from(["robustify", "optimize"]),
    st.sampled_from([[], ["--prior", "0.3"], ["--prior", "nan"], ["--grid", "1"]]),
)
def test_mutated_documents_keep_the_exit_contract(raw, command, flags):
    # Every input ends in success, malformed input or infeasible, never a
    # traceback, and a successful bundle carries only finite thresholds.
    # robustify takes no grid; optimize solves on a small one
    flags = ["--grid", "101", *flags] if command == "optimize" else []
    err = StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        model, out = Path(tmp, "model.json"), Path(tmp, "out.json")
        model.write_text(json.dumps(raw), encoding="utf-8")  # NaN / Infinity literals
        with contextlib.redirect_stderr(err):
            rc = main([command, str(model), *flags, "-o", str(out)])
        assert rc in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if rc == 0:
            bundle = strict_json(out.read_text(encoding="utf-8"))
            assert all(math.isfinite(t) for t in bundle.get("policy", {}).get("thresholds", []))
            stops = bundle.get("graph_policy", {}).get("stop_thresholds", {}).values()
            assert all(t is None or math.isfinite(t) for t in stops)  # null: never continue
            for stage in bundle.get("stages", []):
                assert np.isfinite(stage["q0"]).all() and np.isfinite(stage["q1"]).all()


# Policy files: mutated payloads of a solved reference policy through
# ``simulate --policy``.  Grid sizes are drawn rejected or small, so no
# example allocates a large grid.
GRID_SIZES = st.sampled_from(
    [10**12, 10**15, MAX_GRID_SIZE + 1, 2.7, 101.0, True, False, 1, 0, -5, 2, 51, 101]
)
POLICY_KEYS = ("grid_size", "thresholds", "raw_thresholds", "v0", "energy_weight")
ENTRIES = NUMBERS | st.sampled_from(["0.1", "abc", None, [0.1], True])


@functools.lru_cache(maxsize=1)
def reference_policy() -> str:
    doc = io.parse_model_document(as_document())
    spec, _ = io.build_from_document(doc)
    return json.dumps(io.policy_payload(solve(spec, BeliefGrid(doc.grid_size))))


@st.composite
def mutated_policies(draw):
    reference = json.loads(reference_policy())
    payload = copy.deepcopy(reference)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["grid", "list", "entry", "scalar", "delete"]))
        if kind == "grid":
            payload["grid_size"] = draw(GRID_SIZES)
        elif kind == "list":
            key = draw(st.sampled_from(["thresholds", "raw_thresholds"]))
            lists = [reference[key][:-1], [*reference[key], 0.5], [], None, "0.1", 5]
            payload[key] = draw(st.sampled_from(lists))
        elif kind == "entry":
            entries = payload.get(draw(st.sampled_from(["thresholds", "raw_thresholds"])))
            if isinstance(entries, list) and entries:
                entries[draw(st.integers(0, len(entries) - 1))] = draw(ENTRIES)
        elif kind == "scalar":
            payload[draw(st.sampled_from(["v0", "energy_weight"]))] = draw(VALUES)
        else:
            payload.pop(draw(st.sampled_from(POLICY_KEYS)), None)
    return draw(
        st.sampled_from([payload, {"policy": payload}, [payload], 5, "policy", None])
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_policies())
def test_mutated_policy_files_keep_the_exit_contract(payload):
    err = StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        model, policy = Path(tmp, "model.json"), Path(tmp, "policy.json")
        out = Path(tmp, "out.json")
        model.write_text(json.dumps(as_document()), encoding="utf-8")
        policy.write_text(json.dumps(payload), encoding="utf-8")  # NaN / Infinity literals
        argv = ["simulate", str(model), "--policy", str(policy), "--n-frames", "2000"]
        with contextlib.redirect_stderr(err):
            rc = main([*argv, "-o", str(out)])
        assert rc in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if rc == 0:
            loaded = json.loads(out.read_text(encoding="utf-8"))["policy"]
            assert all(math.isfinite(t) for t in loaded["thresholds"])
            assert len(loaded["raw_thresholds"]) == len(loaded["thresholds"])


# Flag strings: mutated numeric flags on optimize, simulate and compare for a
# cascade and a graph file.  Frame counts, burn-in and sweep lengths are
# drawn small or rejected, so no example streams long or solves many rows.
FLAG_VALUES = {  # flag: (accepted values, refused values)
    "--energy-weight": (["0", "1e-3", "5", "1e308"], ["-1", "nan", "inf", "abc", ""]),
    "--energy-budget": (["30", "60", "1e308", "0"], ["-1", "nan", "-inf", "abc"]),
    "--n-frames": (["1", "100", "2000"], ["0", "-1", "1.5", "1e3", "abc"]),
    "--seed": (["0", "1", str(2**128 - 1)], [str(2**128), "-1", "1.5", "abc"]),
    "--mu": (["1e-3", "0.5", "1", "0"], ["2", "-0.1", "nan", "inf", "abc"]),
    "--burn-in": (["0", "10", "500"], ["-1", "1.5", "abc"]),
    "--sweep": (
        ["0.1:0.1:1", "0.05:0.2:3", "0:1:2"],
        ["0.2:0.1:2", "-0.1:0.2:2", "0.1:inf:2", "nan:0.2:2", "0.1:0.2:0", "0.1:0.2:1.5",
         "0.1:0.2:10002", "0.1:0.2", "a:b:c", ""],
    ),
}
COMMAND_FLAGS = {
    "optimize": ["--energy-weight", "--energy-budget"],
    "simulate": ["--n-frames", "--seed", "--mu", "--burn-in"],
    "compare": ["--sweep", "--n-frames", "--seed"],
}
SMALL_RUN = {
    "simulate": ["--n-frames", "2000"],
    "compare": ["--n-frames", "500", "--sweep", "0.1:0.1:1"],
}


@st.composite
def mutated_flags(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = []
    for flag in draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]), min_size=1, unique=True)):
        accepted, refused = FLAG_VALUES[flag]
        flags += [flag, draw(st.sampled_from(accepted) | st.sampled_from(refused))]
    if command == "simulate" and draw(st.booleans()):
        flags += ["--mode", "adaptive"]
    # later flags win: a drawn frame count or sweep replaces the small default
    return command, [*SMALL_RUN.get(command, []), *flags]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_flags(), st.sampled_from(BASE_DOCUMENTS))
def test_mutated_flags_keep_the_exit_contract(command_flags, raw):
    command, flags = command_flags
    err = StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("GUIDEDPROC_THREADS", None)  # serial compare: no worker process
        model, out = Path(tmp, "model.json"), Path(tmp, "out")
        model.write_text(json.dumps(raw), encoding="utf-8")
        argv = [command, str(model), "--grid", "101", *flags, "-o", str(out)]
        with contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse refuses a flag that is not a number
                rc = exc.code
        assert rc in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if rc == 0 and command == "compare":
            with open(out, encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    assert all(math.isfinite(float(row[c])) for c in COMPARE_COLUMNS[:10]), row
        elif rc == 0:
            strict_json(out.read_text(encoding="utf-8"))


def test_imports_do_not_load_scipy():
    src = str(Path(guidedproc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, guidedproc, guidedproc.cli, guidedproc.fixtures; "
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_file_pipeline_demo_removes_its_work_directory(tmp_path):
    demo = Path(__file__).resolve().parents[1] / "demos" / "file_pipeline.py"
    src = str(Path(guidedproc.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        TMPDIR=str(tmp_path),
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert f"model file: {tmp_path}" in proc.stdout  # the demo worked under TMPDIR
    assert list(tmp_path.iterdir()) == []
