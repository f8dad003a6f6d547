import bisect
import math

import numpy as np
import pytest

from guidedproc import (
    CHUNK_FRAMES,
    DutyCycleSpec,
    FeatureModel,
    ModelFormatError,
    StreamConfig,
    dc_risk,
    evaluate,
    posterior_update,
    simulate,
    simulate_duty_cycle,
    solve,
    solve_graph,
    tail_off_costs,
)
from guidedproc.sim import _sample_symbols
from guidedproc.fixtures import (
    DUTY_OFF_MJ,
    DUTY_ON_MJ,
    trigger_system,
    detector_suite,
    diamond_graph,
    monitoring_system,
)

# ---------------------------------------------------------------------------
# Oracle: replay the documented stream contract frame by frame in scalar
# Python.  Chunk c uses a Philox generator with its counter parked at
# c * 2**128; each chunk draws the state vector first, then one uniform row
# per stage; symbols come from the inverse CDF.  Decisions, Bayes updates
# and energy accounting are re-derived here with plain floats, so agreement
# with the vectorized engine is exact in every count.
# ---------------------------------------------------------------------------


def oracle_cascade_stream(spec, policy, n_frames, seed):
    k_last = spec.n_stages - 1
    tau = [float(t) for t in policy.thresholds]
    tail = tail_off_costs(spec.stages).tolist()
    on = [s.on_cost for s in spec.stages]
    cdf0 = [np.cumsum(s.model.p0).tolist() for s in spec.stages]
    cdf1 = [np.cumsum(s.model.p1).tolist() for s in spec.stages]
    p0 = [s.model.p0.tolist() for s in spec.stages]
    p1 = [s.model.p1.tolist() for s in spec.stages]
    q = [s.model.alphabet_size for s in spec.stages]

    counts = {"n": 0, "n_target": 0, "miss": 0, "fa": 0}
    energies = []
    done, c = 0, 0
    while done < n_frames:
        count = min(CHUNK_FRAMES, n_frames - done)
        gen = np.random.Generator(np.random.Philox(key=seed, counter=c << 128))
        x = (gen.random(count) < spec.prior).tolist()
        u = gen.random((spec.n_stages, count)).tolist()
        for t in range(count):
            pi = spec.prior
            energy = on[0]
            declared = False
            alive = True
            for k in range(spec.n_stages):
                dist = cdf1[k] if x[t] else cdf0[k]
                y = min(bisect.bisect_right(dist, u[k][t]), q[k] - 1)
                num = p1[k][y] * pi
                den = num + p0[k][y] * (1.0 - pi)
                if den > 0.0:
                    pi = num / den
                if k < k_last:
                    if pi < tau[k]:
                        energy += tail[k + 1]
                        alive = False
                        break
                    energy += on[k + 1]
                else:
                    declared = pi >= tau[k]
            counts["n"] += 1
            counts["n_target"] += int(x[t])
            counts["miss"] += int(x[t] and not declared)
            counts["fa"] += int((not x[t]) and declared)
            energies.append(energy)
        done += count
        c += 1
    return counts, math.fsum(energies) / n_frames


def oracle_duty_stream(dc, n_frames, seed):
    tau = dc.fa_cost / (dc.fa_cost + dc.miss_cost)
    positive = [
        posterior_update(dc.prior, dc.detector, y) >= tau
        for y in range(dc.detector.alphabet_size)
    ]
    cdf0 = np.cumsum(dc.detector.p0).tolist()
    cdf1 = np.cumsum(dc.detector.p1).tolist()
    q = dc.detector.alphabet_size
    counts = {"n": 0, "n_target": 0, "miss": 0, "fa": 0}
    energies = []
    done, c = 0, 0
    while done < n_frames:
        count = min(CHUNK_FRAMES, n_frames - done)
        gen = np.random.Generator(np.random.Philox(key=seed, counter=c << 128))
        x = (gen.random(count) < dc.prior).tolist()
        on = (gen.random(count) < dc.rho).tolist()
        u = gen.random(count).tolist()
        for t in range(count):
            dist = cdf1 if x[t] else cdf0
            y = min(bisect.bisect_right(dist, u[t]), q - 1)
            declared = on[t] and positive[y]
            counts["n"] += 1
            counts["n_target"] += int(x[t])
            counts["miss"] += int(x[t] and not declared)
            counts["fa"] += int((not x[t]) and declared)
            energies.append(dc.on_cost if on[t] else dc.off_cost)
        done += count
        c += 1
    return counts, math.fsum(energies) / n_frames


@pytest.fixture(scope="module")
def trigger():
    spec = trigger_system()
    return spec, solve(spec)


class TestStreamContract:
    def test_cascade_counts_match_scalar_replay(self, trigger):
        spec, policy = trigger
        cfg = StreamConfig(system=spec, n_frames=3000, seed=7)
        report = simulate(cfg, policy)
        counts, mean_e = oracle_cascade_stream(spec, policy, 3000, 7)
        assert report.n_frames == counts["n"]
        assert report.n_target == counts["n_target"]
        assert report.miss_count == counts["miss"]
        assert report.fa_count == counts["fa"]
        assert report.energy == pytest.approx(mean_e, rel=1e-12)

    def test_chunk_boundary_spanning(self, trigger):
        # Frames past the first 65536 come from a generator whose counter is
        # parked one chunk further; the replay crosses the same boundary.
        spec, policy = trigger
        n = CHUNK_FRAMES + 700
        cfg = StreamConfig(system=spec, n_frames=n, seed=11)
        report = simulate(cfg, policy)
        counts, mean_e = oracle_cascade_stream(spec, policy, n, 11)
        assert report.miss_count == counts["miss"]
        assert report.fa_count == counts["fa"]
        assert report.n_target == counts["n_target"]
        assert report.energy == pytest.approx(mean_e, rel=1e-12)

    def test_duty_cycle_counts_match_scalar_replay(self):
        dc = DutyCycleSpec(
            detector=detector_suite()[2],
            rho=0.35,
            on_cost=DUTY_ON_MJ,
            off_cost=DUTY_OFF_MJ,
            miss_cost=3.0,
            fa_cost=1.0,
            prior=0.1,
        )
        cfg = StreamConfig(system=dc, n_frames=5000, seed=3, energy_weight=0.001)
        report = simulate(cfg)
        counts, mean_e = oracle_duty_stream(dc, 5000, 3)
        assert report.miss_count == counts["miss"]
        assert report.fa_count == counts["fa"]
        assert report.n_target == counts["n_target"]
        assert report.energy == pytest.approx(mean_e, rel=1e-12)


    def test_short_cdf_never_draws_a_zero_mass_tail_symbol(self):
        # The float cumsum of ten 0.1 masses ends at 0.9999999999999999, so
        # a uniform just below 1 lies past it; the zero-mass symbol 10 must
        # still never be drawn.
        p = [0.1] * 10 + [0.0]
        model = FeatureModel(p0=p, p1=p[::-1])
        assert np.cumsum(model.p0)[-1] < 1.0
        u = np.array([0.0, 0.55, 0.95, np.nextafter(1.0, 0.0)])
        y = _sample_symbols(model, np.zeros(u.size, dtype=bool), u)
        assert y.tolist() == [0, 5, 9, 9]
        assert np.all(model.p0[y] > 0.0)


class TestDeterminism:
    def test_identical_configs_identical_reports(self, trigger):
        spec, policy = trigger
        cfg = StreamConfig(system=spec, n_frames=50_000, seed=42)
        assert simulate(cfg, policy) == simulate(cfg, policy)

    def test_seed_changes_stream(self, trigger):
        spec, policy = trigger
        a = simulate(StreamConfig(system=spec, n_frames=50_000, seed=1), policy)
        b = simulate(StreamConfig(system=spec, n_frames=50_000, seed=2), policy)
        assert (a.miss_count, a.fa_count) != (b.miss_count, b.fa_count)

    def test_adaptive_runs_are_reproducible(self, trigger):
        spec, policy = trigger
        cfg = StreamConfig(
            system=spec, n_frames=30_000, seed=5, mode="adaptive", mu=1e-3, burn_in=5_000
        )
        a = simulate(cfg, policy)
        b = simulate(cfg, policy)
        assert a == b
        assert a.final_eta is not None and len(a.final_eta) == 2
        assert a.n_frames == 30_000


class TestReportInternals:
    def test_risk_reconstruction_identity(self, trigger):
        spec, policy = trigger
        report = simulate(StreamConfig(system=spec, n_frames=80_000, seed=9), policy)
        lam = policy.energy_weight
        want = (
            lam * report.energy
            + spec.miss_cost * report.miss_frequency
            + spec.fa_cost * report.fa_frequency
        )
        assert report.empirical_risk == pytest.approx(want, abs=1e-12)

    def test_conditional_rates(self, trigger):
        spec, policy = trigger
        r = simulate(StreamConfig(system=spec, n_frames=80_000, seed=9), policy)
        assert r.miss_rate == pytest.approx(r.miss_count / r.n_target, abs=1e-15)
        assert r.fa_rate == pytest.approx(r.fa_count / (r.n_frames - r.n_target), abs=1e-15)
        assert 0.0 < r.risk_se < 1.0

    def test_prior_override(self, trigger):
        spec, policy = trigger
        base = simulate(StreamConfig(system=spec, n_frames=60_000, seed=4), policy)
        heavy = simulate(
            StreamConfig(system=spec, n_frames=60_000, seed=4, prior=0.6), policy
        )
        assert heavy.n_target > base.n_target * 2


class TestStatisticalAgreement:
    def test_cascade_tracks_analytic_risk(self):
        spec, _ = monitoring_system()
        policy = solve(spec)
        analytic = evaluate(spec, policy)
        r = simulate(StreamConfig(system=spec, n_frames=400_000, seed=1), policy)
        assert abs(r.empirical_risk - analytic.total) <= 3.0 * r.risk_se
        assert abs(r.energy - analytic.energy) <= 3.0 * r.energy_se

    def test_duty_cycle_tracks_analytic_risk(self):
        dc = DutyCycleSpec(
            detector=detector_suite()[2],
            rho=0.5,
            on_cost=DUTY_ON_MJ,
            off_cost=DUTY_OFF_MJ,
            miss_cost=3.0,
            fa_cost=1.0,
            prior=0.1,
        )
        lam = 0.001
        analytic = dc_risk(dc, lam)
        r = simulate_duty_cycle(
            StreamConfig(system=dc, n_frames=400_000, seed=2, energy_weight=lam), dc
        )
        assert abs(r.empirical_risk - analytic.total) <= 3.0 * r.risk_se

    def test_graph_tracks_exact_deployed_risk(self):
        from test_graph import exact_policy_risk

        g = diamond_graph()
        gp = solve_graph(g, miss_cost=3.0, fa_cost=1.0, energy_weight=0.002, prior=0.1)
        exact = exact_policy_risk(g, gp, 0.1)
        r = simulate(StreamConfig(system=g, n_frames=400_000, seed=3), gp)
        assert abs(r.empirical_risk - exact) <= 3.0 * r.risk_se


class TestValidation:
    def test_cascade_needs_policy(self, trigger):
        spec, _ = trigger
        with pytest.raises(ModelFormatError):
            simulate(StreamConfig(system=spec, n_frames=100, seed=1))

    def test_threshold_count_checked(self, trigger):
        spec, _ = trigger
        other = solve(monitoring_system()[0])
        with pytest.raises(ModelFormatError):
            simulate(StreamConfig(system=spec, n_frames=100, seed=1), other)

    def test_graph_rejects_adaptive_mode(self):
        g = diamond_graph()
        gp = solve_graph(g, miss_cost=3.0, fa_cost=1.0, energy_weight=0.002, prior=0.1)
        cfg = StreamConfig(system=g, n_frames=100, seed=1, mode="adaptive")
        with pytest.raises(ModelFormatError):
            simulate(cfg, gp)

    def test_bad_mode_rejected(self, trigger):
        spec, _ = trigger
        with pytest.raises(ModelFormatError):
            StreamConfig(system=spec, n_frames=100, seed=1, mode="turbo")

    def test_nonpositive_frames_rejected(self, trigger):
        spec, _ = trigger
        with pytest.raises(ModelFormatError):
            StreamConfig(system=spec, n_frames=0, seed=1)
