"""Model file parsing, result bundles, and payload round trips."""

import copy
import json
import math
import sys

import numpy as np
import pytest

from guidedproc import io
from guidedproc.cascade import Policy, evaluate, solve
from guidedproc.errors import ModelFormatError
from guidedproc.models import BeliefGrid
from guidedproc.robust import RobustBand
from guidedproc.sim import SimReport


def pmf(*masses):
    return list(masses)


def cascade_raw(**overrides):
    """A small, valid two-stage cascade document."""
    raw = {
        "format": "guidedproc-model",
        "miss_cost": 3.0,
        "fa_cost": 1.0,
        "prior": 0.1,
        "energy_weight": 0.01,
        "stages": [
            {"p0": pmf(0.7, 0.2, 0.1), "p1": pmf(0.1, 0.3, 0.6), "on_cost": 1.0},
            {
                "p0": pmf(0.6, 0.3, 0.06, 0.04),
                "p1": pmf(0.05, 0.15, 0.3, 0.5),
                "on_cost": 20.0,
                "off_cost": 0.4,
            },
        ],
    }
    raw.update(overrides)
    return raw


def graph_raw(**overrides):
    det = {"p0": pmf(0.8, 0.2), "p1": pmf(0.3, 0.7), "on_cost": 1.0}
    raw = {
        "format": "guidedproc-model",
        "miss_cost": 2.0,
        "fa_cost": 1.0,
        "prior": 0.2,
        "energy_weight": 0.02,
        "nodes": {"1": dict(det), "2": dict(det, on_cost=5.0, off_cost=0.1)},
        "edges": [[1, 2]],
        "root": 1,
    }
    raw.update(overrides)
    return raw


class TestParsing:
    def test_cascade_round_trip_through_file(self, tmp_path):
        path = tmp_path / "model.json"
        io.dump_model_file(cascade_raw(), path)
        doc = io.load_model_file(path)
        assert doc.kind == "cascade"
        assert doc.miss_cost == 3.0 and doc.fa_cost == 1.0
        assert doc.prior == 0.1 and doc.prior_sweep is None
        assert doc.energy_weight == 0.01 and doc.energy_budget is None
        assert len(doc.stages) == 2
        (stage0, _), (stage1, _) = doc.stages
        np.testing.assert_allclose(stage0.model.p0, [0.7, 0.2, 0.1])
        assert (stage1.on_cost, stage1.off_cost) == (20.0, 0.4)

    def test_document_is_solvable(self):
        doc = io.parse_model_document(cascade_raw())
        spec, bands = io.build_from_document(doc)
        policy = solve(spec)
        assert policy.v0 > 0.0
        assert len(bands) == 2

    def test_graph_document(self):
        doc = io.parse_model_document(graph_raw())
        assert doc.kind == "graph"
        assert doc.graph.root == 1
        assert doc.graph.successors(1) == (2,)
        assert doc.graph.nodes[2].off_cost == 0.1

    def test_prior_sweep(self):
        raw = cascade_raw(prior_sweep=[0.05, 0.15, 11])
        del raw["prior"]
        doc = io.parse_model_document(raw)
        pts = doc.sweep_points()
        assert pts.size == 11
        np.testing.assert_allclose(pts[[0, -1]], [0.05, 0.15])
        # the representative prior is the sweep midpoint
        assert doc.default_prior() == pytest.approx(0.1)

    def test_missing_off_cost_defaults_to_zero(self):
        doc = io.parse_model_document(cascade_raw())
        assert doc.stages[0][0].off_cost == 0.0

    def test_uncertainty_block(self):
        raw = cascade_raw()
        raw["stages"][0]["uncertainty"] = {"eps0": 0.05, "nu1": 0.01}
        doc = io.parse_model_document(raw)
        u = doc.stages[0][1]
        assert (u.eps0, u.eps1, u.nu0, u.nu1) == (0.05, 0.0, 0.0, 0.01)
        assert not u.is_zero
        assert doc.stages[1][1].is_zero

    def test_grid_size_default_and_override(self):
        assert io.parse_model_document(cascade_raw()).grid_size == BeliefGrid().size
        assert io.parse_model_document(cascade_raw(grid_size=501)).grid_size == 501

    def test_duty_cycle_block(self):
        raw = cascade_raw(duty_cycle={"on_cost": 200.0, "off_cost": 3.7})
        doc = io.parse_model_document(raw)
        assert doc.duty_cycle == (200.0, 3.7)


class TestRenormalization:
    def test_tiny_error_is_silent(self, recwarn):
        raw = cascade_raw()
        raw["stages"][0]["p0"] = [0.7, 0.2, 0.1 + 5e-10]
        doc = io.parse_model_document(raw)
        assert len(recwarn) == 0
        assert doc.stages[0][0].model.p0.sum() == pytest.approx(1.0, abs=1e-15)

    def test_moderate_error_warns_and_renormalizes(self):
        raw = cascade_raw()
        raw["stages"][0]["p0"] = [0.7, 0.2, 0.1 + 5e-8]
        with pytest.warns(UserWarning, match="renormalizing"):
            doc = io.parse_model_document(raw)
        assert doc.stages[0][0].model.p0.sum() == pytest.approx(1.0, abs=1e-15)

    def test_large_error_is_rejected(self):
        raw = cascade_raw()
        raw["stages"][0]["p0"] = [0.7, 0.2, 0.2]
        with pytest.raises(ModelFormatError, match="tolerance"):
            io.parse_model_document(raw)


class TestValidation:
    @pytest.mark.parametrize(
        "mangle",
        [
            lambda r: r.update(format="something-else"),
            lambda r: r.pop("miss_cost"),
            lambda r: r.update(miss_cost=0.0),
            lambda r: r.update(fa_cost=-1.0),
            lambda r: r.pop("prior"),
            lambda r: r.update(prior=1.5),
            lambda r: r.update(prior_sweep=[0.05, 0.15, 11]),  # alongside prior
            lambda r: r.update(prior_sweep="nope") or r.pop("prior"),
            lambda r: r.update(energy_budget=50.0),  # alongside energy_weight
            lambda r: r.update(stages=r["stages"][:1]),
            lambda r: r.update(nodes={}),  # stages and graph keys together
            lambda r: r["stages"][0].pop("p1"),
            lambda r: r["stages"][0].update(p1=[0.2, 0.3, 0.4, 0.1]),  # alphabet mismatch
            lambda r: r["stages"][0].update(p0=[1.0]),
            lambda r: r["stages"][0].update(p0=[0.5, 0.6, -0.1]),
            lambda r: r["stages"][0].update(on_cost="cheap"),
            lambda r: r["stages"][0].update(uncertainty={"eps2": 0.1}),
            lambda r: r["stages"][1].update(uncertainty={"eps0": 0.1}),
            lambda r: r.update(duty_cycle={"on_cost": 1.0, "off_cost": 2.0}),
            lambda r: r["stages"][0].update(on_cost=0.0),  # stages are StageSpecs at parse
            lambda r: r["stages"][1].update(off_cost=-0.5),
        ],
    )
    def test_bad_cascade_documents(self, mangle):
        raw = cascade_raw()
        mangle(raw)
        with pytest.raises(ModelFormatError):
            io.parse_model_document(raw)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda r: r.pop("root"),
            lambda r: r.update(root=9),
            lambda r: r.update(edges=[[1, 2], [1, 2]]),  # duplicate successor
            lambda r: r.update(edges=[[1, 9]]),
            lambda r: r.update(edges=[[1]]),
            lambda r: r.update(nodes={"one": r["nodes"]["1"]}),
            lambda r: r["nodes"]["2"].update(uncertainty={"eps0": 0.1}),
            lambda r: r.update(nodes={"1": r["nodes"]["1"]}, edges=[], root=2),
        ],
    )
    def test_bad_graph_documents(self, mangle):
        raw = graph_raw()
        mangle(raw)
        with pytest.raises(ModelFormatError):
            io.parse_model_document(raw)

    # an int just past the float range that rounds down to its end
    PAST_MAX = int(sys.float_info.max) + 2**969

    @pytest.mark.parametrize(
        "entry",
        [True, False, "0.5", None, [0.5], {}, math.nan, math.inf, -math.inf, 10**400,
         -(10**400), PAST_MAX, -PAST_MAX, np.float32(0.5), np.int64(0)],
    )
    def test_pmf_entry_refused_as_a_scalar_field_is(self, entry):
        what = "stage 1: p0: each PMF entry"
        with pytest.raises(ModelFormatError) as scalar:
            io._finite(entry, what)
        with pytest.raises(ModelFormatError) as pmf_entry:
            io._load_pmf([0.5, entry, 0.5], "stage 1: p0")
        assert str(pmf_entry.value) == str(scalar.value) == f"{what} must be a finite number"

    @pytest.mark.parametrize("entry", [0, 1, np.float64(0.25), 0.5, 2**53, sys.float_info.max])
    def test_pmf_entry_accepted_as_a_scalar_field_is(self, entry):
        assert io._finite(entry, "entry") == float(entry)
        if entry <= 1:
            arr = io._load_pmf([entry, 1.0 - float(entry)], "p0")
            assert arr.tolist() == [float(entry), 1.0 - float(entry)]
        else:  # a finite entry fails only the PMF checks that follow
            with pytest.raises(ModelFormatError, match="PMF sums to"):
                io._load_pmf([0.0, entry], "p0")

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelFormatError, match="not valid JSON"):
            io.load_model_file(path)

    def test_dump_refuses_invalid(self, tmp_path):
        raw = cascade_raw()
        raw.pop("miss_cost")
        with pytest.raises(ModelFormatError):
            io.dump_model_file(raw, tmp_path / "bad.json")
        assert not (tmp_path / "bad.json").exists()


class TestConfigHash:
    def test_key_order_does_not_matter(self):
        raw = cascade_raw()
        reordered = {k: raw[k] for k in reversed(list(raw))}
        assert io.config_hash(raw) == io.config_hash(reordered)

    def test_value_change_changes_hash(self):
        raw = cascade_raw()
        other = copy.deepcopy(raw)
        other["prior"] = 0.11
        assert io.config_hash(raw) != io.config_hash(other)

    def test_result_bundle_carries_hash_and_version(self):
        doc = io.parse_model_document(cascade_raw())
        bundle = io.result_bundle(doc, prior=0.1, extra=[1, 2])
        assert bundle["format"] == "guidedproc-result"
        assert bundle["config_hash"] == io.config_hash(doc.raw)
        assert bundle["extra"] == [1, 2]
        assert isinstance(bundle["tool_version"], str)


class TestPayloads:
    def test_policy_round_trip_with_infinite_raw(self):
        policy = Policy(
            grid=BeliefGrid(101),
            thresholds=(0.3, 0.25),
            raw_thresholds=(math.inf, 0.25),
            value_tables=(),
            v0=0.123,
            energy_weight=0.01,
        )
        payload = io.policy_payload(policy)
        assert payload["raw_thresholds"] == [None, 0.25]
        # must survive strict JSON, which has no Infinity literal
        wire = json.loads(json.dumps(payload, allow_nan=False))
        spec, _ = io.build_from_document(io.parse_model_document(cascade_raw()))
        back = io.policy_from_payload(wire, spec)
        assert back.raw_thresholds == (math.inf, 0.25)
        assert back.thresholds == policy.thresholds
        assert back.grid.size == 101
        assert back.v0 == 0.123 and back.energy_weight == 0.01

    def test_restored_policy_evaluates_like_the_original(self):
        doc = io.parse_model_document(cascade_raw())
        spec, _ = io.build_from_document(doc)
        policy = solve(spec)
        back = io.policy_from_payload(io.policy_payload(policy), spec)
        a, b = evaluate(spec, policy), evaluate(spec, back)
        assert b.total == pytest.approx(a.total, abs=1e-15)
        assert b.energy == pytest.approx(a.energy, abs=1e-12)

    def test_policy_payload_missing_key(self):
        with pytest.raises(ModelFormatError, match="policy payload"):
            spec, _ = io.build_from_document(io.parse_model_document(cascade_raw()))
            io.policy_from_payload({"grid_size": 101}, spec)

    def test_risk_payload_decomposition(self):
        doc = io.parse_model_document(cascade_raw())
        spec, _ = io.build_from_document(doc)
        policy = solve(spec)
        report = evaluate(spec, policy)
        payload = io.risk_payload(report)
        parts = payload["weighted_energy"] + payload["inter_miss"]
        parts += payload["final_miss"] + payload["final_fa"]
        assert parts == pytest.approx(payload["total"], abs=1e-12)

    def test_band_payload_infinite_hi(self):
        band = RobustBand(0.5, math.inf, 1e-9, -2e-9)
        wire = {"lo": 0.5, "hi": None, "residual0": 1e-9, "residual1": -2e-9}
        assert io.write_json(io.band_payload(band), None) == io.write_json(wire, None)

    def test_sim_payload_adaptive_fields_are_optional(self):
        base = dict(
            n_frames=10, n_target=2, miss_count=1, fa_count=0, energy=1.0,
            energy_se=0.1, empirical_risk=0.3, risk_se=0.01, miss_rate=0.5,
            miss_rate_se=0.2, fa_rate=0.0, fa_rate_se=0.0,
        )
        plain = SimReport(**base)
        assert io.write_json(io.sim_payload(plain), None) == io.write_json(base, None)
        adaptive = SimReport(**base, final_eta=(3.0,), rate_errors=(0.01,))
        wire = dict(base, final_eta=[3.0], rate_errors=[0.01])
        assert io.write_json(io.sim_payload(adaptive), None) == io.write_json(wire, None)

    def test_write_json_returns_text_and_writes(self, tmp_path):
        path = tmp_path / "out.json"
        text = io.write_json({"b": 1, "a": 2}, path)
        assert json.loads(text) == {"a": 2, "b": 1}
        assert path.read_text(encoding="utf-8") == text + "\n"
        # no file touched when no path is given
        assert io.write_json({"x": 0}, None) == '{\n  "x": 0\n}'
