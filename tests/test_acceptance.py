"""End-to-end acceptance checks, one test per advertised guarantee.

Each test is self-contained and prints as a single pass/fail line under
``pytest -v``.  Tolerances and time budgets are part of the contract: a
budget overrun fails the test just like a numerical violation.  Oracles are
shared with the per-module suites (exhaustive two-stage enumeration,
structured-policy routing enumeration) so the checks here never compare the
solver against itself.
"""

import csv
import math
import time

import numpy as np
import pytest
from conftest import tail_off_costs
from test_cascade import exact_two_stage_optimum
from test_graph import best_structured_risk, exact_policy_risk, path_graph_from

from guidedproc import io
from guidedproc.cascade import (
    StageSpec,
    SystemSpec,
    evaluate,
    solve,
)
from guidedproc.cli import main
from guidedproc.dutycycle import (
    DutyCycleSpec,
    dc_risk,
    dominance_check,
    energy_equivalent_rho,
    ideal_duty_cycle,
)
from guidedproc.fixtures import (
    DUTY_OFF_MJ,
    DUTY_ON_MJ,
    STAGE_OFF_MJ,
    STAGE_ON_MJ,
    as_document,
    detector_suite,
    diamond_graph,
    monitoring_system,
    trigger_system,
)
from guidedproc.graph import solve_graph
from guidedproc.models import BeliefGrid, FeatureModel, UncertaintyParams
from guidedproc.robust import least_favorable
from guidedproc.sim import StreamConfig, simulate


def random_cascade(seed: int, n_stages=None, max_symbols: int = 64) -> SystemSpec:
    """Seeded random but valid system: arbitrary PMFs, ordered energy costs."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5)) if n_stages is None else n_stages
    stages = []
    for i in range(k):
        q = int(rng.integers(3, max_symbols + 1))
        model = FeatureModel(p0=rng.dirichlet(np.ones(q)), p1=rng.dirichlet(np.ones(q)))
        if i == 0:
            stages.append(StageSpec(model=model, on_cost=float(rng.uniform(0.5, 4.0))))
        else:
            on = float(rng.uniform(1.0, 40.0))
            stages.append(
                StageSpec(model=model, on_cost=on, off_cost=on * float(rng.uniform(0.0, 0.6)))
            )
    return SystemSpec(
        stages=tuple(stages),
        miss_cost=float(rng.uniform(0.5, 6.0)),
        fa_cost=float(rng.uniform(0.5, 6.0)),
        prior=float(rng.uniform(0.02, 0.5)),
        energy_weight=float(rng.uniform(1e-4, 2e-2)),
    )


@pytest.fixture(scope="module")
def solved_pool():
    """50 seeded systems solved on the default 1001-point grid, plus the
    wall time the solves took (charged to whichever check runs first)."""
    t0 = time.monotonic()
    pool = []
    for seed in range(50):
        spec = random_cascade(seed)
        pool.append((spec, solve(spec)))
    return pool, time.monotonic() - t0


def test_final_stage_threshold_is_exact_cost_ratio():
    # Declaration threshold fa/(fa+miss) must come out closed-form, not from
    # a grid search: for miss 3 / fa 1 it is 0.25 to the last bit.
    t0 = time.monotonic()
    spec = random_cascade(7, n_stages=2, max_symbols=16)
    spec = SystemSpec(
        stages=spec.stages,
        miss_cost=3.0,
        fa_cost=1.0,
        prior=spec.prior,
        energy_weight=spec.energy_weight,
    )
    policy = solve(spec)
    assert policy.thresholds[-1] == 0.25
    assert policy.raw_thresholds[-1] == 0.25
    assert time.monotonic() - t0 < 1.0


def test_value_tables_concave_with_idle_tail_at_zero_belief(solved_pool):
    # Every stage table must be concave on the grid (second differences
    # nonpositive up to 1e-9) and must price belief 0 at exactly the
    # weighted idle energy of the stages left downstream.
    pool, elapsed = solved_pool
    assert elapsed < 30.0
    for spec, policy in pool:
        lam = policy.energy_weight
        tail = tail_off_costs(spec.stages)
        for i, table in enumerate(policy.value_tables):
            v = table.values
            second = v[2:] + v[:-2] - 2.0 * v[1:-1]
            assert second.max() <= 1e-9
            assert abs(v[0] - lam * tail[i + 1]) <= 1e-12


def test_two_stage_solver_brackets_enumerated_optimum():
    # On two stages with tiny alphabets the exact optimum over threshold
    # policies is enumerable.  The grid solution may undercut it only by
    # interpolation slack, bounded by 2(miss+fa)/(M-1), and may never
    # exceed it.
    t0 = time.monotonic()
    grid = BeliefGrid(201)
    for seed in range(25):
        spec = random_cascade(1000 + seed, n_stages=2, max_symbols=5)
        policy = solve(spec, grid)
        opt = exact_two_stage_optimum(spec)
        slack = 2.0 * (spec.miss_cost + spec.fa_cost) / (grid.size - 1)
        assert policy.v0 <= opt + 1e-9
        assert policy.v0 >= opt - slack
    assert time.monotonic() - t0 < 60.0


def test_risk_decomposition_reproduces_solver_value(solved_pool):
    # evaluate() re-prices the deployed policy without any minimization;
    # its four components must reassemble the DP root value.
    pool, _ = solved_pool
    for spec, policy in pool:
        rep = evaluate(spec, policy)
        parts = rep.inter_miss + rep.final_miss + rep.final_fa + rep.weighted_energy
        assert abs(parts - policy.v0) <= 1e-9
        assert abs(rep.total - parts) <= 1e-15


def test_stream_statistics_match_analytic_risk_components():
    # 20 independent million-frame streams of the reference monitor; the
    # empirical miss rate, false-alarm rate and mean energy must each sit
    # within 3 standard errors of the exact decomposition at least 99% of
    # the time.
    t0 = time.monotonic()
    spec, _ = monitoring_system()
    policy = solve(spec)
    rep = evaluate(spec, policy)
    miss_ref = (rep.inter_miss + rep.final_miss) / (spec.miss_cost * spec.prior)
    fa_ref = rep.final_fa / (spec.fa_cost * (1.0 - spec.prior))
    hits = []
    for seed in range(1, 21):
        r = simulate(StreamConfig(system=spec, n_frames=1_000_000, seed=seed), policy)
        hits.append(abs(r.miss_rate - miss_ref) <= 3.0 * r.miss_rate_se)
        hits.append(abs(r.fa_rate - fa_ref) <= 3.0 * r.fa_rate_se)
        hits.append(abs(r.energy - rep.energy) <= 3.0 * r.energy_se)
    assert sum(hits) / len(hits) >= 0.99
    assert time.monotonic() - t0 < 120.0


def test_duty_cycle_affine_and_dominated_by_cascade():
    spec, _ = monitoring_system()
    policy = solve(spec)
    lam = policy.energy_weight
    rep = evaluate(spec, policy)

    # The duty cycler's total risk is affine in the duty factor.
    def real_dc(rho):
        return DutyCycleSpec(
            detector=spec.stages[-1].model,
            rho=rho,
            on_cost=DUTY_ON_MJ,
            off_cost=DUTY_OFF_MJ,
            miss_cost=spec.miss_cost,
            fa_cost=spec.fa_cost,
            prior=spec.prior,
        )

    rhos = np.linspace(0.0, 1.0, 11)
    end0 = dc_risk(real_dc(0.0), lam).total
    end1 = dc_risk(real_dc(1.0), lam).total
    for rho in rhos:
        line = (1.0 - rho) * end0 + rho * end1
        assert abs(dc_risk(real_dc(float(rho)), lam).total - line) <= 1e-12

    # Both endpoint dominance conditions hold on the reference monitor, so
    # the cascade must beat the ideal duty cycler at every duty factor.
    verdict = dominance_check(spec, policy, rep)
    assert verdict.beats_always_off
    assert verdict.censor_miss_within_saving
    for rho in rhos:
        ideal = dc_risk(ideal_duty_cycle(spec, float(rho)), lam).total
        assert rep.total <= ideal + 1e-12

    # And the simulated cascade must beat a simulated real duty cycler run
    # at the cascade's own energy budget (3 sigma on the difference).
    rho_real, clamped = energy_equivalent_rho(rep.energy, DUTY_ON_MJ, DUTY_OFF_MJ)
    assert not clamped
    gp = simulate(StreamConfig(system=spec, n_frames=500_000, seed=401), policy)
    dc = simulate(
        StreamConfig(system=real_dc(rho_real), n_frames=500_000, seed=402, energy_weight=lam),
        None,
    )
    sigma = math.hypot(gp.risk_se, dc.risk_se)
    assert gp.empirical_risk <= dc.empirical_risk + 3.0 * sigma


def test_least_favorable_models_normalized_and_band_clipped():
    # Full 0.1 contamination/outlier mass on every knob: the least
    # favorable pair must still be proper PMFs and its likelihood ratio
    # must be the nominal ratio clipped to the solved band, symbol by
    # symbol.
    u = UncertaintyParams(0.1, 0.1, 0.1, 0.1)
    for model in detector_suite(100)[:-1]:
        q, band = least_favorable(model, u)
        assert abs(float(q.p0.sum()) - 1.0) <= 1e-8
        assert abs(float(q.p1.sum()) - 1.0) <= 1e-8
        assert band.lo < band.hi
        nominal = model.p1 / model.p0
        clipped = np.clip(nominal, band.lo, band.hi)
        np.testing.assert_allclose(q.p1 / q.p0, clipped, rtol=1e-12, atol=0.0)
        # the clip must actually bind somewhere on both sides
        assert (nominal < band.lo).any() and (nominal > band.hi).any()


def test_graph_solver_matches_cascade_on_paths_and_enumeration_on_diamond():
    # A linear graph is the same object as a cascade: tables must agree to
    # 1e-12 at every grid point, not merely at the root.
    models = detector_suite(16)
    spec = SystemSpec(
        stages=tuple(
            StageSpec(model=m, on_cost=on, off_cost=off)
            for m, on, off in zip(models, STAGE_ON_MJ, STAGE_OFF_MJ)
        ),
        miss_cost=3.0,
        fa_cost=1.0,
        prior=0.15,
        energy_weight=1e-3,
    )
    policy = solve(spec)
    gp = solve_graph(
        path_graph_from(spec),
        miss_cost=spec.miss_cost,
        fa_cost=spec.fa_cost,
        energy_weight=spec.energy_weight,
        prior=spec.prior,
    )
    assert abs(gp.v0 - policy.v0) <= 1e-12
    for i, table in enumerate(policy.value_tables):
        np.testing.assert_allclose(gp.value_tables[i + 1].values, table.values, atol=1e-12)

    # On a diamond the solver may route by belief, so it must not lose to
    # any fixed-route threshold policy enumerated exactly on the same grid,
    # and the deployed tables must stay within grid slack of that oracle.
    grid = BeliefGrid(51)
    g = diamond_graph()
    gp = solve_graph(g, miss_cost=3.0, fa_cost=1.0, energy_weight=0.002, prior=0.1, grid=grid)
    structured = best_structured_risk(
        g, miss=3.0, fa=1.0, lam=0.002, prior=0.1, tau_grid=grid.points
    )
    deployed = exact_policy_risk(g, gp, 0.1)
    assert gp.v0 <= structured + 1e-12
    assert gp.v0 <= deployed + 1e-12
    assert deployed <= structured + 5e-3


def test_adaptive_runtime_reproduces_belief_policy():
    # Feature-threshold adaptation with mu=1e-3 after a 1e5-frame burn-in:
    # a million measured frames must match the belief-rule stream on every
    # reported statistic (3 sigma, independent streams) and track the
    # stationary activation targets within 0.01.
    spec = trigger_system()
    policy = solve(spec)
    belief = simulate(StreamConfig(system=spec, n_frames=1_000_000, seed=1), policy)
    adaptive = simulate(
        StreamConfig(
            system=spec,
            n_frames=1_000_000,
            seed=1,
            mode="adaptive",
            mu=1e-3,
            burn_in=100_000,
        ),
        policy,
    )
    pairs = [
        (adaptive.miss_rate, belief.miss_rate, adaptive.miss_rate_se, belief.miss_rate_se),
        (adaptive.fa_rate, belief.fa_rate, adaptive.fa_rate_se, belief.fa_rate_se),
        (adaptive.energy, belief.energy, adaptive.energy_se, belief.energy_se),
    ]
    for a, b, sa, sb in pairs:
        assert abs(a - b) <= 3.0 * math.hypot(sa, sb)
    assert max(adaptive.rate_errors) <= 0.01


def test_compare_command_shows_dominance_and_truncation_loss(tmp_path):
    # The packaged comparison pipeline end to end: over the bundled 11-point
    # prior sweep the cascade's risk must beat the energy-matched real duty
    # cycler everywhere, and dropping the middle stage must cost risk at
    # every prior.
    t0 = time.monotonic()
    f3, f2 = tmp_path / "monitor.json", tmp_path / "truncated.json"
    io.dump_model_file(as_document(), f3)
    io.dump_model_file(as_document(truncated=True), f2)

    def rows(path, out):
        assert main(["compare", str(path), "-o", str(out)]) == 0
        with open(out, newline="") as fh:
            return list(csv.DictReader(fh))

    full = rows(f3, tmp_path / "full.csv")
    trunc = rows(f2, tmp_path / "trunc.csv")
    assert len(full) == len(trunc) == 11
    for row in full:
        assert float(row["gp_risk"]) < float(row["dc_real_risk"])
    for r3, r2 in zip(full, trunc):
        assert float(r3["pi0"]) == float(r2["pi0"])
        assert float(r2["gp_risk"]) > float(r3["gp_risk"])
    assert time.monotonic() - t0 < 300.0
