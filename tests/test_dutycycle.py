from dataclasses import replace

import numpy as np
import pytest

from guidedproc import (
    DutyCycleSpec,
    ModelFormatError,
    dc_risk,
    dominance_check,
    energy_equivalent_rho,
    evaluate,
    evidence,
    ideal_duty_cycle,
    posterior_update,
    positive_symbols,
    single_stage_risks,
    solve,
)
from guidedproc.fixtures import (
    DEFAULT_ENERGY_WEIGHT,
    DUTY_OFF_MJ,
    DUTY_ON_MJ,
    detector_suite,
    monitoring_system,
)
from conftest import duplicate_columns, random_model
from test_adaptive import zero_some_masses

# ---------------------------------------------------------------------------
# Oracle: exact conditional declaration risks of a single always-on detector
# by direct symbol enumeration at the optimal declaration threshold.
# ---------------------------------------------------------------------------


def oracle_single_stage(model, prior, miss_cost, fa_cost):
    tau = fa_cost / (fa_cost + miss_cost)
    r_miss = 0.0
    r_fa = 0.0
    for y in range(model.alphabet_size):
        ev = evidence(prior, model, y)
        if ev == 0.0:
            continue
        post = posterior_update(prior, model, y)
        if post >= tau:
            r_fa += ev * fa_cost * (1.0 - post)
        else:
            r_miss += ev * miss_cost * post
    return r_miss, r_fa


def fixture_dc(rho: float) -> DutyCycleSpec:
    return DutyCycleSpec(
        detector=detector_suite()[2],
        rho=rho,
        on_cost=DUTY_ON_MJ,
        off_cost=DUTY_OFF_MJ,
        miss_cost=3.0,
        fa_cost=1.0,
        prior=0.1,
    )


class TestSingleStageRisks:
    def test_matches_enumeration_oracle(self, rng):
        for _ in range(10):
            m = random_model(rng)
            prior = float(rng.uniform(0.05, 0.5))
            miss, fa = float(rng.uniform(0.5, 5)), float(rng.uniform(0.5, 5))
            got = single_stage_risks(m, prior, miss, fa)
            want = oracle_single_stage(m, prior, miss, fa)
            assert got[0] == pytest.approx(want[0], abs=1e-14)
            assert got[1] == pytest.approx(want[1], abs=1e-14)

    def test_perfect_detector_has_zero_risk(self):
        from guidedproc import FeatureModel

        m = FeatureModel(p0=np.array([1.0, 0.0]), p1=np.array([0.0, 1.0]))
        miss, fa = single_stage_risks(m, 0.3, 2.0, 1.0)
        assert miss == 0.0 and fa == 0.0


class TestPositiveSymbols:
    def test_matches_the_scalar_rule(self, rng):
        # tied ratios (split columns) share one class; zero-mass symbols
        # leave the belief; priors 0 and 1 are absorbing
        for k in range(12):
            m = random_model(rng)
            if k % 2:
                m = zero_some_masses(rng, m)
            if k % 4 > 1:
                m = duplicate_columns(rng, m)
            miss, fa = float(rng.uniform(0.5, 5)), float(rng.uniform(0.5, 5))
            for prior in (0.0, 1.0, float(rng.uniform(0.02, 0.5))):
                want = [
                    posterior_update(prior, m, y) >= fa / (fa + miss)
                    for y in range(m.alphabet_size)
                ]
                assert np.array_equal(positive_symbols(m, prior, miss, fa), want)


class TestDutyCycleRisk:
    def test_risk_affine_in_duty_fraction(self):
        # risk(rho) must be an exact affine blend of the two endpoints.
        lam = DEFAULT_ENERGY_WEIGHT
        lo = dc_risk(fixture_dc(0.0), lam).total
        hi = dc_risk(fixture_dc(1.0), lam).total
        for rho in np.linspace(0.0, 1.0, 11):
            got = dc_risk(fixture_dc(float(rho)), lam).total
            want = (1.0 - rho) * lo + rho * hi
            assert got == pytest.approx(want, abs=1e-12)

    def test_report_slots(self):
        spec = fixture_dc(0.4)
        lam = 0.002
        r = dc_risk(spec, lam)
        r_miss, r_fa = single_stage_risks(
            spec.detector, spec.prior, spec.miss_cost, spec.fa_cost
        )
        # Frames sampled while asleep are unconditional misses on targets.
        assert r.inter_miss == pytest.approx(0.6 * spec.miss_cost * spec.prior, abs=1e-15)
        assert r.final_miss == pytest.approx(0.4 * r_miss, abs=1e-15)
        assert r.final_fa == pytest.approx(0.4 * r_fa, abs=1e-15)
        assert r.energy == pytest.approx(0.4 * DUTY_ON_MJ + 0.6 * DUTY_OFF_MJ, abs=1e-12)
        assert r.total == pytest.approx(
            lam * r.energy + r.inter_miss + r.final_miss + r.final_fa, abs=1e-15
        )

    def test_rho_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fixture_dc(1.2)
        with pytest.raises(ValueError):
            fixture_dc(-0.1)

    @pytest.mark.parametrize("field", ["on_cost", "miss_cost", "fa_cost"])
    def test_infinite_costs_rejected(self, field):
        with pytest.raises(ModelFormatError):
            replace(fixture_dc(0.5), **{field: float("inf")})


class TestEnergyEquivalence:
    def test_interior_inversion_is_exact(self):
        rho, clamped = energy_equivalent_rho(100.0, DUTY_ON_MJ, DUTY_OFF_MJ)
        assert not clamped
        assert rho * DUTY_ON_MJ + (1 - rho) * DUTY_OFF_MJ == pytest.approx(100.0, rel=1e-12)

    def test_clamping(self):
        rho, clamped = energy_equivalent_rho(DUTY_ON_MJ * 2, DUTY_ON_MJ, DUTY_OFF_MJ)
        assert clamped and rho == 1.0
        rho, clamped = energy_equivalent_rho(0.0, DUTY_ON_MJ, DUTY_OFF_MJ)
        assert clamped and rho == 0.0

    def test_endpoints_not_clamped(self):
        rho, clamped = energy_equivalent_rho(DUTY_ON_MJ, DUTY_ON_MJ, DUTY_OFF_MJ)
        assert rho == 1.0 and not clamped


class TestDominance:
    def test_reference_monitor_dominates(self):
        # The designed system censors cheaply enough that both analytic
        # dominance conditions hold with a wide margin.
        spec, _ = monitoring_system()
        policy = solve(spec)
        report = evaluate(spec, policy)
        verdict = dominance_check(spec, policy, report)
        assert verdict.beats_always_off
        assert verdict.censor_miss_within_saving
        assert verdict.dominates

    def test_heavy_energy_price_breaks_dominance(self):
        # With an absurd energy weight even waking stage 1 costs more than
        # sleeping through every frame, so the first condition must fail.
        spec, _ = monitoring_system(energy_weight=10.0)
        policy = solve(spec)
        report = evaluate(spec, policy)
        verdict = dominance_check(spec, policy, report)
        assert not verdict.beats_always_off
        assert not verdict.dominates

    def test_ideal_duty_cycle_mirrors_last_stage(self):
        spec, _ = monitoring_system()
        dc = ideal_duty_cycle(spec, 0.5)
        last = spec.stages[-1]
        assert dc.detector is last.model
        assert dc.on_cost == last.on_cost
        assert dc.off_cost == last.off_cost
        assert dc.rho == 0.5
        assert dc.prior == spec.prior

    def test_cascade_beats_energy_matched_duty_cycle(self):
        # At the same average energy the belief-guided policy must be at
        # least as good as periodically waking the ideal final detector.
        spec, _ = monitoring_system()
        lam = spec.energy_weight
        policy = solve(spec)
        report = evaluate(spec, policy)
        rho, _ = energy_equivalent_rho(
            report.energy, spec.stages[-1].on_cost, spec.stages[-1].off_cost
        )
        ideal = dc_risk(ideal_duty_cycle(spec, rho), lam)
        assert report.total < ideal.total
