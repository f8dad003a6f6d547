from dataclasses import replace

import numpy as np
import pytest

from guidedproc import (
    BeliefInterval,
    InfeasibleBudgetError,
    ModelFormatError,
    Policy,
    StageSpec,
    SystemSpec,
    UncertaintyParams,
    achievable_energy_range,
    build_system,
    calibrate_lambda,
    check_cascade_optimality,
    evaluate,
    evidence,
    posterior_update,
    solve,
    tail_off_costs,
)
from conftest import random_model, random_system

# ---------------------------------------------------------------------------
# Oracle: exact Bayes risk of a two-stage threshold policy by brute-force
# symbol enumeration, and the exact global optimum over threshold policies.
# No belief grid is involved anywhere; every posterior is computed in closed
# form, so this is an independent reference for the grid solver.
# ---------------------------------------------------------------------------


def exact_two_stage_risk(spec: SystemSpec, tau1: float, tau2: float) -> float:
    """Stage 1 stops when its posterior < tau1; stage 2 declares at >= tau2."""
    s1, s2 = spec.stages
    lam = spec.energy_weight
    total = lam * s1.on_cost
    for y1 in range(s1.model.alphabet_size):
        ev1 = evidence(spec.prior, s1.model, y1)
        if ev1 == 0.0:
            continue
        b1 = posterior_update(spec.prior, s1.model, y1)
        if b1 < tau1:
            total += ev1 * (spec.miss_cost * b1 + lam * s2.off_cost)
            continue
        total += ev1 * lam * s2.on_cost
        for y2 in range(s2.model.alphabet_size):
            ev2 = evidence(b1, s2.model, y2)
            if ev2 == 0.0:
                continue
            b2 = posterior_update(b1, s2.model, y2)
            if b2 >= tau2:
                total += ev1 * ev2 * spec.fa_cost * (1.0 - b2)
            else:
                total += ev1 * ev2 * spec.miss_cost * b2
    return total


def exact_two_stage_optimum(spec: SystemSpec) -> float:
    """Global minimum risk over (tau1, tau2) threshold policies.

    The final-stage optimum is the declaration ratio fa/(fa+miss).  The
    stage-1 posterior takes finitely many values, so sweeping one candidate
    threshold per cut position between consecutive values (plus the stop-none
    and stop-all extremes) covers every reachable stop set exactly.
    """
    s1 = spec.stages[0]
    tau2 = spec.fa_cost / (spec.fa_cost + spec.miss_cost)
    posts = sorted(
        {posterior_update(spec.prior, s1.model, y) for y in range(s1.model.alphabet_size)}
    )
    cuts = [0.0]
    cuts += [0.5 * (a + b) for a, b in zip(posts, posts[1:])]
    cuts.append(np.nextafter(posts[-1], 2.0))
    return min(exact_two_stage_risk(spec, t1, tau2) for t1 in cuts)


class TestSolveBasics:
    def test_final_threshold_is_exact_cost_ratio(self, rng):
        for _ in range(5):
            spec = random_system(rng)
            policy = solve(spec)
            expected = spec.fa_cost / (spec.fa_cost + spec.miss_cost)
            assert policy.thresholds[-1] == expected
            assert policy.raw_thresholds[-1] == expected

    def test_value_at_zero_belief_is_idle_energy(self, rng):
        # With belief 0 the optimal action is to censor immediately, paying
        # only the idle tail of every downstream stage.
        spec = random_system(rng, n_stages=4)
        policy = solve(spec)
        tails = tail_off_costs(spec.stages)
        for i, table in enumerate(policy.value_tables):
            idle = spec.energy_weight * (tails[i + 1] if i + 1 < len(tails) else 0.0)
            assert table.values[0] == pytest.approx(idle, abs=1e-12)

    def test_value_tables_concave(self, rng):
        spec = random_system(rng, n_stages=3)
        policy = solve(spec)
        for table in policy.value_tables:
            second = np.diff(table.values, 2)
            assert second.max() <= 1e-9

    def test_stop_region_is_lower_interval(self, rng):
        # Continuation-minus-stop crosses zero once, so the raw threshold
        # separates the grid into stop-below / go-above exactly.
        spec = random_system(rng, n_stages=3)
        policy = solve(spec)
        b = policy.grid.points
        for i in range(spec.n_stages - 1):
            tau = policy.raw_thresholds[i]
            stop = b < tau
            # Value on the stop side equals the stopping line exactly.
            tails = tail_off_costs(spec.stages)
            stop_line = spec.miss_cost * b + spec.energy_weight * tails[i + 1]
            vals = policy.value_tables[i].values
            assert np.allclose(vals[stop], stop_line[stop], atol=1e-12)
            assert np.all(vals[~stop] <= stop_line[~stop] + 1e-12)

    def test_thresholds_clamped_to_bounds(self, rng):
        spec = random_system(rng, n_stages=2)
        bounded = SystemSpec(
            stages=(
                StageSpec(
                    model=spec.stages[0].model,
                    on_cost=spec.stages[0].on_cost,
                    off_cost=spec.stages[0].off_cost,
                    bounds=BeliefInterval(0.3, 0.4),
                ),
                spec.stages[1],
            ),
            miss_cost=spec.miss_cost,
            fa_cost=spec.fa_cost,
            prior=spec.prior,
            energy_weight=spec.energy_weight,
        )
        policy = solve(bounded)
        assert 0.3 <= policy.thresholds[0] <= 0.4
        # The raw threshold ignores the bounds.
        raw = solve(spec).raw_thresholds[0]
        assert policy.raw_thresholds[0] == raw

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_energy_weight_rejected(self, rng, weight):
        spec = random_system(rng, n_stages=2)
        with pytest.raises(ModelFormatError):
            SystemSpec(
                stages=spec.stages,
                miss_cost=spec.miss_cost,
                fa_cost=spec.fa_cost,
                prior=spec.prior,
                energy_weight=weight,
            )

    @pytest.mark.parametrize("field", ["miss_cost", "fa_cost"])
    def test_infinite_error_costs_rejected(self, rng, field):
        # an infinite price would solve to a NaN threshold beside a finite v0
        spec = random_system(rng, n_stages=2)
        with pytest.raises(ModelFormatError):
            replace(spec, **{field: float("inf")})


class TestAgainstExactOracle:
    def test_grid_value_sandwiched_by_exact_optimum(self, rng):
        # Linear interpolation of concave tables can only lower the value,
        # so v0 <= exact optimum <= exact risk of the deployed thresholds.
        for _ in range(8):
            spec = random_system(rng, n_stages=2)
            policy = solve(spec)
            opt = exact_two_stage_optimum(spec)
            deployed = exact_two_stage_risk(
                spec, policy.raw_thresholds[0], policy.raw_thresholds[1]
            )
            assert policy.v0 <= opt + 1e-12
            assert opt <= deployed + 1e-12
            # The grid is fine enough that the sandwich is tight.
            assert deployed - policy.v0 <= 1e-3 * max(1.0, opt)

    def test_evaluate_matches_exact_enumeration(self, rng):
        # evaluate() runs fixed-policy recursions on the grid; at the
        # deployed thresholds its exact-arithmetic total must match the
        # closed-form enumeration to interpolation accuracy.
        spec = random_system(rng, n_stages=2)
        policy = solve(spec)
        report = evaluate(spec, policy)
        exact = exact_two_stage_risk(
            spec, policy.raw_thresholds[0], policy.raw_thresholds[1]
        )
        assert report.total == pytest.approx(exact, abs=2e-3)


class TestDecomposition:
    def test_total_equals_v0(self, rng):
        for _ in range(6):
            spec = random_system(rng)
            policy = solve(spec)
            report = evaluate(spec, policy)
            assert report.total == pytest.approx(policy.v0, abs=1e-9)

    def test_components_sum_to_total(self, rng):
        spec = random_system(rng, n_stages=3)
        policy = solve(spec)
        r = evaluate(spec, policy)
        assert r.weighted_energy == pytest.approx(spec.energy_weight * r.energy, rel=1e-12)
        parts = r.weighted_energy + r.inter_miss + r.final_miss + r.final_fa
        assert parts == pytest.approx(r.total, abs=1e-12)

    def test_all_components_nonnegative(self, rng):
        spec = random_system(rng, n_stages=4)
        r = evaluate(spec, solve(spec))
        assert min(r.inter_miss, r.final_miss, r.final_fa, r.energy) >= 0.0


class TestCalibration:
    def test_achievable_range(self, rng):
        spec = random_system(rng, n_stages=3)
        lo, hi = achievable_energy_range(spec)
        tails = tail_off_costs(spec.stages)
        assert lo == pytest.approx(spec.stages[0].on_cost + tails[1])
        assert hi == pytest.approx(sum(s.on_cost for s in spec.stages))
        assert lo < hi

    def test_energy_nonincreasing_in_weight(self, rng):
        spec = random_system(rng, n_stages=3, energy_weight=1e-4)
        energies = []
        for lam in (1e-4, 1e-3, 1e-2, 1e-1):
            s = SystemSpec(
                stages=spec.stages,
                miss_cost=spec.miss_cost,
                fa_cost=spec.fa_cost,
                prior=spec.prior,
                energy_weight=lam,
            )
            energies.append(evaluate(s, solve(s)).energy)
        assert all(a >= b - 1e-9 for a, b in zip(energies, energies[1:]))

    def test_calibrated_policy_meets_budget(self, rng):
        spec = random_system(rng, n_stages=3, energy_weight=1e-3)
        lo, hi = achievable_energy_range(spec)
        budget = 0.5 * (lo + hi)
        spec_b = SystemSpec(
            stages=spec.stages,
            miss_cost=spec.miss_cost,
            fa_cost=spec.fa_cost,
            prior=spec.prior,
            energy_budget=budget,
        )
        lam, policy = calibrate_lambda(spec_b)
        run = SystemSpec(
            stages=spec.stages,
            miss_cost=spec.miss_cost,
            fa_cost=spec.fa_cost,
            prior=spec.prior,
            energy_weight=lam,
        )
        achieved = evaluate(run, policy).energy
        assert achieved <= budget + 1e-4
        assert lam >= 0.0

    def test_budget_outside_range_raises(self, rng):
        spec = random_system(rng, n_stages=2)
        lo, hi = achievable_energy_range(spec)
        for bad in (0.5 * lo, 1.5 * hi):
            s = SystemSpec(
                stages=spec.stages,
                miss_cost=spec.miss_cost,
                fa_cost=spec.fa_cost,
                prior=spec.prior,
                energy_budget=bad,
            )
            with pytest.raises(InfeasibleBudgetError):
                calibrate_lambda(s)


class TestOptimalityCheck:
    def test_tight_bounds_support_censoring(self):
        # The reference monitor has well-separated stages: the belief needed
        # to make an early positive declaration attractive sits strictly
        # above anything the propagated intervals can reach.
        from guidedproc.fixtures import monitoring_system

        spec, _ = monitoring_system()
        policy = solve(spec)
        verdict = check_cascade_optimality(spec, policy)
        assert len(verdict.per_stage) == spec.n_stages - 1
        assert verdict.all_hold
        for beta, stage in zip(verdict.positive_thresholds, spec.stages[:-1]):
            assert beta > stage.bounds.hi

    def test_full_bounds_break_the_check(self, rng):
        # Widening the reachable interval to [0, 1] makes the comparison
        # impossible to satisfy: the continue region cannot sit above 1.
        spec = random_system(rng, n_stages=3)
        policy = solve(spec)
        verdict = check_cascade_optimality(spec, policy)
        assert not verdict.all_hold


class TestBuildSystem:
    def test_zero_uncertainty_keeps_models(self, rng):
        models = [random_model(rng, 8) for _ in range(2)]
        spec, bands = build_system(
            models=models,
            on_costs=(1.0, 20.0),
            off_costs=(0.0, 0.5),
            miss_cost=2.0,
            fa_cost=1.0,
            prior=0.2,
            energy_weight=1e-3,
        )
        assert spec.n_stages == 2
        assert spec.stages[0].model is models[0]
        assert len(bands) == 2
        # Last stage is solved on exact models over the full belief range.
        assert spec.stages[-1].bounds == BeliefInterval.full()

    def test_mismatched_lengths_rejected(self, rng):
        with pytest.raises(ValueError):
            build_system(
                models=[random_model(rng)],
                on_costs=(1.0, 2.0),
                off_costs=(0.0, 0.1),
                miss_cost=1.0,
                fa_cost=1.0,
                prior=0.1,
            )

    def test_loaded_policy_reusable_without_tables(self, rng):
        # A policy deserialized from disk carries no value tables; evaluate
        # must still reproduce the risk from thresholds alone.
        spec = random_system(rng, n_stages=3)
        policy = solve(spec)
        bare = Policy(
            grid=policy.grid,
            thresholds=policy.thresholds,
            raw_thresholds=policy.raw_thresholds,
            value_tables=(),
            v0=policy.v0,
            energy_weight=policy.energy_weight,
        )
        r_full = evaluate(spec, policy)
        r_bare = evaluate(spec, bare)
        assert r_bare.total == pytest.approx(r_full.total, abs=1e-12)
