"""End-to-end runs of the command-line front end on temp model files."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import guidedproc
from guidedproc import cli, io
from guidedproc.cli import COMPARE_COLUMNS, main

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
            "sweep-string", "sweep-count-fraction", "pmf-string-entry", "pmf-string",
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
        ],
        ids=["budget-nan", "miss-cost-infinity", "prior-nan"],
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
        # state 0 is exact and never emits state 1's third symbol: no band
        # normalizes state 1, and both pooling coefficients of the high pool vanish
        raw = cascade_raw()
        raw["stages"][0] = {
            "p0": [0.0, 1.0, 0.0], "p1": [0.0, 0.99, 0.01], "on_cost": 1.0,
            "uncertainty": {"eps1": 0.2},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["robustify", str(path)]) == 3
        err = capsys.readouterr().err
        assert "infeasible" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_negative_seed_exits_2(self, model_file, capsys, command):
        argv = [command, model_file, "--seed", "-1", "--n-frames", "1000"]
        if command == "compare":
            argv += ["--sweep", "0.1:0.1:1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err

    def test_infeasible_budget(self, model_file):
        assert main(["optimize", model_file, "--energy-budget", "1000"]) == 3
        assert main(["optimize", model_file, "--energy-budget", "0.01"]) == 3

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


def test_imports_do_not_load_scipy():
    src = str(Path(guidedproc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, guidedproc, guidedproc.cli, guidedproc.fixtures; "
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
