import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from guidedproc import (
    BeliefGrid,
    BeliefInterval,
    FeatureModel,
    InfeasibleBudgetError,
    ModelFormatError,
    Policy,
    RiskReport,
    StageSpec,
    SystemSpec,
    StreamConfig,
    UncertaintyParams,
    achievable_energy_range,
    belief_transition,
    build_system,
    calibrate_lambda,
    check_cascade_optimality,
    evaluate,
    evidence,
    fixtures,
    io,
    posterior_update,
    simulate,
    solve,
)
from guidedproc import cascade, graph
from guidedproc.cascade import CALIBRATE_REL_TOL, path_graph, robustify_stages
from guidedproc.graph import downstream_off_costs
from guidedproc.models import expected_next
from conftest import duplicate_columns, random_model, random_system, refused, tail_off_costs

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

    @pytest.mark.parametrize("prior", [2.0, -0.5, math.nan])
    def test_prior_out_of_range_rejected(self, rng, prior):
        spec = random_system(rng, n_stages=2)
        with refused(ModelFormatError, "prior must lie in [0, 1]"):
            replace(spec, prior=prior)

    def test_solve_refuses_a_budget_spec(self):
        spec, _ = fixtures.monitoring_system()
        budget = replace(spec, energy_weight=None, energy_budget=50.0)
        with refused(ModelFormatError, "solve needs energy_weight; use calibrate_lambda for budgets"):
            solve(budget)


def reachable_system(rng, energy_weight) -> SystemSpec:
    """A random cascade whose stage bounds are its reachable posterior
    intervals, so the upper ends are beliefs that frames arrive at."""
    spec = random_system(rng, energy_weight=energy_weight)
    deployed = robustify_stages([(st, UncertaintyParams()) for st in spec.stages], spec.prior)
    return replace(spec, stages=tuple(st for st, _ in deployed))


class TestDeployedThresholds:
    def test_deployed_and_raw_thresholds_agree_at_reachable_beliefs(self, rng):
        # beliefs enumerated stage by stage as stationary_targets does,
        # following the frames that continue
        for _ in range(20):
            spec = reachable_system(rng, float(rng.uniform(0.0, 0.2)))
            policy = solve(spec)
            assert all(math.isfinite(t) for t in policy.thresholds)
            beliefs = np.array([spec.prior])
            for k, st in enumerate(spec.stages[:-1]):
                post, ev = belief_transition(st.model, beliefs)
                post = post[ev > 0.0]
                go = post >= policy.raw_thresholds[k]
                assert np.array_equal(post >= policy.thresholds[k], go)
                beliefs = np.unique(post[go])

    def test_stage_that_never_continues_stops_in_the_stream(self):
        # at this weight the DP stops every frame after stage 1
        spec, _ = fixtures.monitoring_system()
        spec = replace(spec, energy_weight=0.05)
        policy = solve(spec)
        assert policy.raw_thresholds[:-1] == (math.inf, math.inf)
        report = evaluate(spec, policy)
        sim = simulate(StreamConfig(system=spec, n_frames=1_000_000, seed=3), policy)
        assert abs(sim.empirical_risk - report.total) <= 5.0 * sim.risk_se
        assert sim.energy == pytest.approx(report.energy, rel=1e-12)

    def test_calibrated_stream_keeps_the_budget(self):
        doc = io.parse_model_document(fixtures.as_document(model_uncertainty=0.1))
        spec, _ = io.build_from_document(doc, prior=0.1, energy_budget=8.5)
        lam, policy = calibrate_lambda(spec)
        run = replace(spec, energy_weight=lam, energy_budget=None)
        sim = simulate(StreamConfig(system=run, n_frames=1_000_000, seed=3), policy)
        assert sim.energy <= 8.5 + 5.0 * sim.energy_se


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


def grid_transitions(spec: SystemSpec, grid: BeliefGrid) -> dict:
    """Transitions at the grid points of stages 2..K-1, keyed by node (stage
    k is node k + 1), as calibrate_lambda builds them: the first stage is
    read at the prior alone, and the last through solve_graph's memo."""
    return {k: belief_transition(st.model, grid.points) for k, st in enumerate(spec.stages[1:-1], 2)}


def whole_grid_evaluate(spec: SystemSpec, policy: Policy) -> RiskReport:
    """Oracle: the risk decomposition carried back over every grid node,
    read at the prior only at the end."""
    grid = policy.grid
    b = grid.points
    lam = policy.energy_weight
    stages = spec.stages
    K = len(stages)
    dstop = downstream_off_costs(path_graph(spec))

    positive = b >= policy.thresholds[K - 1]
    zero = np.zeros_like(b)
    final_m = np.where(positive, 0.0, spec.miss_cost * b)
    final_fa = np.where(positive, spec.fa_cost * (1.0 - b), 0.0)
    tables = np.stack([zero, final_m, final_fa, zero])
    for k in range(K - 2, -1, -1):
        nxt = stages[k + 1]
        cont = expected_next(grid, tables, belief_transition(nxt.model, b))
        cont[3] += nxt.on_cost
        stop = np.stack([spec.miss_cost * b, zero, zero, np.full_like(b, dstop[k + 1])])
        tables = np.where(b >= policy.raw_thresholds[k], cont, stop)

    first = stages[0]
    at_prior = expected_next(grid, tables, belief_transition(first.model, [spec.prior]))[:, 0]
    r_inter, r_final_m, r_final_fa, e = at_prior.tolist()
    e += first.on_cost
    return RiskReport(
        total=lam * e + r_inter + r_final_m + r_final_fa,
        inter_miss=r_inter,
        final_miss=r_final_m,
        final_fa=r_final_fa,
        energy=e,
        weighted_energy=lam * e,
    )


def with_zero_masses(rng, spec: SystemSpec) -> SystemSpec:
    """Zero about a third of each stage's masses, so that some posteriors
    land exactly on 0 or 1 and some symbols cannot occur."""
    stages = []
    for st in spec.stages:
        p0, p1 = (p * (rng.random(p.size) > 0.35) for p in (st.model.p0, st.model.p1))
        p0[0] += p0.sum() == 0.0
        p1[-1] += p1.sum() == 0.0
        stages.append(replace(st, model=FeatureModel(p0=p0 / p0.sum(), p1=p1 / p1.sum())))
    return replace(spec, stages=tuple(stages))


def assert_same_solution(spec: SystemSpec, a: Policy, b: Policy) -> None:
    """The two policies agree bit for bit, and so do their reports."""
    assert (a.thresholds, a.raw_thresholds, a.v0) == (b.thresholds, b.raw_thresholds, b.v0)
    for x, y in zip(a.value_tables, b.value_tables, strict=True):
        assert np.array_equal(x.values, y.values)
    assert evaluate(spec, a) == evaluate(spec, b)


class TestTerminalMemo:
    def test_cold_and_warm_memo_agree(self, rng, cold_memo):
        # the warm solve reads the last stage's table that the cold one
        # stored, through a content-equal copy of its model
        grid = BeliefGrid(301)
        for k in range(9):
            spec = random_system(rng)
            if k % 3 == 1:
                spec = with_zero_masses(rng, spec)
            elif k % 3 == 2:
                spec = replace(
                    spec,
                    stages=tuple(replace(st, model=duplicate_columns(rng, st.model)) for st in spec.stages),
                )
            last = spec.stages[-1]
            copy = replace(last, model=FeatureModel(p0=last.model.p0.copy(), p1=last.model.p1.copy()))
            for lam in (0.0, spec.energy_weight, 10.0 * spec.energy_weight):
                graph._terminal_onward.cache_clear()
                run = replace(spec, energy_weight=lam)
                cold = solve(run, grid)
                info = cold_memo()
                assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
                warm = solve(replace(run, stages=(*run.stages[:-1], copy)), grid)
                info = cold_memo()
                assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
                assert_same_solution(run, cold, warm)

    def test_warm_evaluate_builds_no_last_stage_transition(self, rng, monkeypatch, cold_memo):
        # the solve stores the last stage's entry; evaluate then builds the
        # transitions of stages 1..K-1 only, on the read set, and reads the
        # last stage's risk parts from the memo
        built = []
        build = cascade.belief_transition

        def building(model, beliefs):
            built.append(model)
            return build(model, beliefs)

        for _ in range(6):
            spec = random_system(rng, energy_weight=1e-4)
            policy = solve(spec, BeliefGrid(301))
            monkeypatch.setattr(cascade, "belief_transition", building)
            monkeypatch.setattr(graph, "belief_transition", building)
            report = evaluate(spec, policy)
            monkeypatch.setattr(cascade, "belief_transition", build)
            monkeypatch.setattr(graph, "belief_transition", build)
            assert [id(m) for m in built] == [id(st.model) for st in spec.stages[:-1]]
            assert report == whole_grid_evaluate(spec, policy)
            built.clear()

    def test_another_last_threshold_has_its_own_entry(self, rng, cold_memo):
        # a hand-made policy whose declaration cut is not fa / (fa + miss)
        # is priced at its own cut, and leaves the solver's entry alone
        grid = BeliefGrid(201)
        for _ in range(6):
            spec = random_system(rng)
            graph._terminal_onward.cache_clear()
            cold = solve(spec, grid)
            graph._terminal_onward.cache_clear()
            cut = float(rng.uniform(0.05, 0.95))
            raw = (*cold.raw_thresholds[:-1], cut)
            hand = Policy(grid, raw, raw, (), 0.0, spec.energy_weight)
            assert cut != spec.fa_cost / (spec.fa_cost + spec.miss_cost)
            assert evaluate(spec, hand) == whole_grid_evaluate(spec, hand)
            assert cold_memo().currsize == 1
            warm = solve(spec, grid)
            assert cold_memo().currsize == 2
            assert_same_solution(spec, cold, warm)


class TestRatioClasses:
    @pytest.mark.parametrize("size", [101, 1001])
    def test_split_symbols_keep_the_policy(self, rng, size):
        # symbols split into columns of equal ratio form one class again,
        # whose masses differ from the unsplit symbol's by rounding only
        grid = BeliefGrid(size)
        for k in range(30):
            spec = random_system(rng)
            if k % 2:
                spec = with_zero_masses(rng, spec)
            split = tuple(replace(st, model=duplicate_columns(rng, st.model)) for st in spec.stages)
            whole, parts = solve(spec, grid), solve(replace(spec, stages=split), grid)
            assert parts.raw_thresholds == whole.raw_thresholds
            assert abs(parts.v0 - whole.v0) <= 1e-15


class TestReadSetEvaluate:
    def test_equals_the_whole_grid_recursion(self, rng):
        # priors 0 and 1 read one or two nodes; weight 10 (and random raw
        # thresholds of inf) leave stages with no continue node
        cases = 0
        for i in range(520):
            grid = BeliefGrid((2, 51, 101, 1001)[i % 4])
            spec = random_system(
                rng,
                n_stages=int(rng.integers(2, 7)),
                energy_weight=float(rng.choice([0.0, 1e-3, rng.uniform(0.0, 0.2), 10.0])),
            )
            if i % 3 == 0:
                spec = with_zero_masses(rng, spec)
            spec = replace(spec, prior=float(rng.choice([0.0, 1.0, rng.uniform(), 0.1])))
            if i % 2:
                policy = solve(spec, grid)
            else:
                raw = tuple(float(t) for t in rng.choice([0.0, math.inf, *rng.random(4)], spec.n_stages))
                policy = Policy(grid, raw, raw, (), 0.0, spec.energy_weight)
            assert evaluate(spec, policy) == whole_grid_evaluate(spec, policy)
            cases += 1
        assert cases >= 500

    def test_reference_monitor_at_the_largest_grid(self):
        spec, _ = fixtures.monitoring_system()
        grid = BeliefGrid(10001)
        transitions = grid_transitions(spec, grid)
        for prior, lam in ((0.0, 0.002), (0.1, 0.002), (0.3, 0.05), (1.0, 0.0)):
            run = replace(spec, prior=prior, energy_weight=lam)
            policy = solve(run, grid, transitions)
            assert evaluate(run, policy) == whole_grid_evaluate(run, policy)

    def test_one_debug_record(self, rng, caplog):
        spec = random_system(rng, n_stages=3)
        policy = solve(spec, BeliefGrid(101))
        with caplog.at_level(logging.WARNING, logger="guidedproc"):
            evaluate(spec, policy)
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="guidedproc"):
            evaluate(spec, policy)
        (record,) = caplog.records
        assert record.name == "guidedproc" and record.levelno == logging.DEBUG
        counts, size = record.args
        assert size == 101 and len(counts) == 3
        # the read sets of stages 1 and 2, then stage 2's continue nodes, at
        # which the last stage's parts are read from the terminal memo
        assert all(1 <= n <= 101 for n in counts[:-1])
        assert 0 <= counts[-1] <= counts[-2]


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

    @pytest.mark.parametrize("grid_size", [101, 1001])
    def test_budget_at_the_floor_takes_the_stop_everything_policy(self, grid_size):
        # evaluate sums the class evidences, so the stop-everything policy's
        # energy lands a rounding error above the floor on this draw
        rng = np.random.default_rng(7)
        for _ in range(7):
            spec = random_system(rng)
        floor, _ = achievable_energy_range(spec)
        lam, policy = calibrate_lambda(
            replace(spec, energy_weight=None, energy_budget=floor), BeliefGrid(grid_size)
        )
        assert policy.raw_thresholds[0] == math.inf
        assert evaluate(replace(spec, energy_weight=lam), policy).energy == pytest.approx(floor)

    def test_transitions_change_no_bit(self, rng):
        # calibrate_lambda hands solve the grid transitions of stages
        # 2..K-1; they may not change a bit at any weight
        for k in range(6):
            spec = random_system(rng)
            if k % 2:
                spec = with_zero_masses(rng, spec)
            grid = BeliefGrid(501)
            transitions = grid_transitions(spec, grid)
            for lam in (0.0, spec.energy_weight, 10.0 * spec.energy_weight):
                run = replace(spec, energy_weight=lam)
                assert_same_solution(run, solve(run, grid), solve(run, grid, transitions))

    def test_calibration_ends_where_the_cuts_stop_moving(self, monkeypatch):
        # ties continue at weight 0 and stop at any positive weight, so the
        # ends' risks differ by rounding and their tangents cross where no cut
        # moves them; a search that creeps by its margin needs about 10**7 solves
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            if calls > 100:
                raise AssertionError("calibrate_lambda took more than 100 solves")
            return solve(*args)

        monkeypatch.setattr(cascade, "solve", counted)
        rng = np.random.default_rng(5)
        draws = [random_system(rng) for _ in range(18)]
        for i, budget in ((4, 7.040077031573256), (17, 4.902978870002004)):
            spec = replace(draws[i], energy_weight=None, energy_budget=budget)
            calls = 0
            lam, policy = calibrate_lambda(spec, BeliefGrid(301))
            run = replace(spec, energy_weight=lam, energy_budget=None)
            assert evaluate(run, policy).energy <= budget

    def test_calibration_finds_the_breakpoint(self):
        # seeded property test against a plain bisection kept here
        rng = np.random.default_rng(6)
        grid = BeliefGrid(201)

        def at(spec, lam):
            run = replace(spec, energy_weight=lam, energy_budget=None)
            return evaluate(run, solve(run, grid))

        def bisection(spec):
            budget = spec.energy_budget
            if at(spec, 0.0).energy <= budget:
                return 0.0, at(spec, 0.0)
            lo, hi = 0.0, 1.0
            while at(spec, hi).energy > budget:
                lo, hi = hi, 4.0 * hi
            while hi - lo > 1e-10 * hi and hi > 1e-15:
                mid = 0.5 * (lo + hi)
                if at(spec, mid).energy <= budget:
                    hi = mid
                else:
                    lo = mid
            return hi, at(spec, hi)

        for _ in range(20):
            spec = random_system(rng)
            floor, ceil = achievable_energy_range(spec)
            budget = float(rng.uniform(floor, ceil))
            spec = replace(spec, energy_weight=None, energy_budget=budget)
            lam, policy = calibrate_lambda(spec, grid)
            report = evaluate(replace(spec, energy_weight=lam, energy_budget=None), policy)
            assert report.energy <= budget
            if lam > 0.0:
                below = at(spec, lam * (1.0 - 2.0 * CALIBRATE_REL_TOL))
                zero = at(spec, 0.0)
                # or every positive weight meets the budget and zero does not
                assert below.energy > budget or (
                    zero.energy > budget
                    and below.total - below.weighted_energy
                    == pytest.approx(zero.total - zero.weighted_energy, abs=1e-9)
                )
            lam_ref, ref = bisection(spec)
            assert report.energy == pytest.approx(ref.energy, abs=1e-9)
            risk, risk_ref = report.total - lam * report.energy, ref.total - lam_ref * ref.energy
            assert risk == pytest.approx(risk_ref, abs=1e-9)

    def test_one_debug_record(self, rng, caplog):
        spec = random_system(rng, n_stages=3)
        floor, ceil = achievable_energy_range(spec)
        spec = replace(spec, energy_weight=None, energy_budget=0.5 * (floor + ceil))
        with caplog.at_level(logging.WARNING, logger="guidedproc"):
            calibrate_lambda(spec)
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="guidedproc"):
            lam, policy = calibrate_lambda(spec)
        # calibrate_lambda's own record comes last, after one per evaluate
        *evaluated, record = caplog.records
        energy = evaluate(replace(spec, energy_weight=lam, energy_budget=None), policy).energy
        message = record.getMessage()
        assert record.name == "guidedproc" and record.levelno == logging.DEBUG
        assert message.startswith("calibrate_lambda: ")
        assert len(evaluated) == int(message.split()[1])  # "calibrate_lambda: N solves"
        assert all(r.getMessage().startswith("evaluate: ") for r in evaluated)
        for part in ("solves", repr(lam), repr(energy), repr(spec.energy_budget - energy)):
            assert part in message

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

    def test_weight_spec_refused(self):
        spec, _ = fixtures.monitoring_system()
        with refused(ModelFormatError, "calibrate_lambda needs a spec with energy_budget"):
            calibrate_lambda(spec)


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

    def test_policy_without_value_tables_is_refused(self):
        # a policy read back from a file keeps its thresholds, not the value
        # tables the check reads
        spec, _ = fixtures.monitoring_system()
        loaded = io.policy_from_payload(io.policy_payload(solve(spec)), spec)
        assert loaded.value_tables == ()
        with pytest.raises(ModelFormatError, match="needs a solved policy"):
            check_cascade_optimality(spec, loaded)


class TestBuildSystem:
    def test_zero_uncertainty_keeps_models(self, rng):
        models = [random_model(rng, 8) for _ in range(2)]
        spec, bands = build_system(
            [
                (StageSpec(model=models[0], on_cost=1.0, off_cost=0.0), UncertaintyParams()),
                (StageSpec(model=models[1], on_cost=20.0, off_cost=0.5), UncertaintyParams()),
            ],
            miss_cost=2.0,
            fa_cost=1.0,
            prior=0.2,
            energy_weight=1e-3,
        )
        assert spec.n_stages == 2
        assert spec.stages[0].model is models[0]
        assert len(bands) == 2
        # Last stage is solved on exact models over the full belief range.
        assert spec.stages[-1].bounds == BeliefInterval(0.0, 1.0)

    def test_mismatched_lengths_rejected(self, rng):
        # one (stage, uncertainty) pair: a cascade needs two
        with pytest.raises(ValueError, match="at least 2 stages"):
            build_system(
                [(StageSpec(model=random_model(rng), on_cost=1.0), UncertaintyParams())],
                miss_cost=1.0,
                fa_cost=1.0,
                prior=0.1,
                energy_weight=1e-3,
            )

    def test_uncertain_last_stage_rejected(self, rng):
        stages = [
            (StageSpec(model=random_model(rng), on_cost=1.0), UncertaintyParams()),
            (StageSpec(model=random_model(rng), on_cost=5.0), UncertaintyParams(eps0=0.1)),
        ]
        with refused(ModelFormatError, "the last stage is exact; its uncertainty must be zero"):
            robustify_stages(stages, 0.1)

    @pytest.mark.parametrize("prior", [2.0, -0.5, math.nan])
    def test_prior_out_of_range_rejected_before_any_interval(self, rng, prior):
        # the prior rule, not the belief interval it would seed
        stages = [
            (StageSpec(model=random_model(rng), on_cost=1.0), UncertaintyParams(eps0=0.1)),
            (StageSpec(model=random_model(rng), on_cost=5.0), UncertaintyParams()),
        ]
        with refused(ModelFormatError, "prior must lie in [0, 1]"):
            robustify_stages(stages, prior)

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
