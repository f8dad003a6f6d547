from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from guidedproc import (
    BeliefInterval,
    FeatureModel,
    InfeasibleBandError,
    UncertaintyParams,
    least_favorable,
    model_posterior_bounds,
    solve_band,
)
from guidedproc.robust import BAND_RESIDUAL_TOL
from conftest import duplicate_columns, random_model

# ---------------------------------------------------------------------------
# Oracles: rebuild the least-favorable pair for a *given* band directly from
# the neighborhood definitions, independently of the solver internals.
# Low-pool symbols must come out with ratio exactly band.lo, high-pool
# symbols with ratio band.hi, and in-band symbols keep the nominal ratio
# scaled by (1-eps1)/(1-eps0).  Both vectors must be PMFs at the solved band.
# Whether a band exists at all is read off the closed-form separation D.
# ---------------------------------------------------------------------------


def oracle_pair(model, u, lo, hi):
    r = model.ratios()
    q0 = np.where(r < lo, 0.0, np.where(r > hi, 0.0, (1.0 - u.eps0) * model.p0))
    q1 = np.where(r < lo, 0.0, np.where(r > hi, 0.0, (1.0 - u.eps1) * model.p1))
    low = r < lo
    if low.any():
        mix = ((u.eps1 + u.nu1) / (1.0 - u.eps1)) * model.p0[low] + (
            u.nu0 / (1.0 - u.eps0)
        ) * model.p1[low]
        den = (u.eps1 + u.nu1) / (1.0 - u.eps1) + (u.nu0 / (1.0 - u.eps0)) * lo
        q0[low] = (1.0 - u.eps0) * mix / den
        q1[low] = (1.0 - u.eps1) * lo * mix / den
    high = r > hi
    if high.any():
        mix = (u.nu1 / (1.0 - u.eps1)) * model.p0[high] + (
            (u.eps0 + u.nu0) / (1.0 - u.eps0)
        ) * model.p1[high]
        den = u.nu1 / (1.0 - u.eps1) + ((u.eps0 + u.nu0) / (1.0 - u.eps0)) * hi
        q0[high] = (1.0 - u.eps0) * mix / den
        q1[high] = (1.0 - u.eps1) * hi * mix / den
    # An end at ratio 0 (inf) with the other state exact pools the symbols
    # at that ratio: they give up nu0 (nu1) of state-0 (state-1) mass.
    if lo == 0.0 and u.nu0 > 0.0:
        zero = r == 0.0
        mass = model.p0[zero].sum()
        q0[zero] = ((1.0 - u.eps0) * mass - u.nu0) * model.p0[zero] / mass
    if hi == np.inf and u.nu1 > 0.0:
        inf = r == np.inf
        mass = model.p1[inf].sum()
        q1[inf] = ((1.0 - u.eps1) * mass - u.nu1) * model.p1[inf] / mass
    return q0, q1


def spread_model(rng, n_symbols=None) -> FeatureModel:
    """Random model with a guaranteed 400x likelihood-ratio spread."""
    q = int(n_symbols or rng.integers(4, 20))
    p0 = rng.gamma(1.0, size=q) + 1e-3
    p0 = p0 / p0.sum()
    gain = np.geomspace(0.05, 20.0, q)
    p1 = p0 * gain
    return FeatureModel(p0=p0, p1=p1 / p1.sum())


def sparse_model(rng) -> FeatureModel:
    """Random model with about 30% zero masses in each state."""
    q = int(rng.integers(3, 16))
    p0 = rng.dirichlet(np.ones(q)) * (rng.random(q) > 0.3)
    p1 = rng.dirichlet(np.ones(q)) * (rng.random(q) > 0.3)
    p0[0] += p0.sum() == 0.0
    p1[-1] += p1.sum() == 0.0
    return FeatureModel(p0=p0 / p0.sum(), p1=p1 / p1.sum())


def end_coefficients(u):
    """(v, w) of the low-end equation lo*P0L - P1L = v + w*lo and of the
    high-end equation P1H - hi*P0H = w + v*hi, read off the neighborhood
    definitions.  None marks an end without pool, at the nominal extreme
    ratio: one whose coefficients are both 0."""
    low = ((u.eps1 + u.nu1) / (1.0 - u.eps1), u.nu0 / (1.0 - u.eps0))
    high = ((u.eps0 + u.nu0) / (1.0 - u.eps0), u.nu1 / (1.0 - u.eps1))
    return (low if any(low) else None), (high if any(high) else None)


def separation(model, u):
    """D of the two classes: max(D, 0) is the least total-variation distance
    between the eps-contaminated sets around p0 and p1, so the classes
    overlap exactly when max(D, 0) <= nu0 + nu1."""
    gap = (1.0 - u.eps0) * model.p0 - (1.0 - u.eps1) * model.p1
    return float(np.maximum(gap, 0.0).sum()) - u.eps1


def overlaps(model, u):
    return max(separation(model, u), 0.0) <= u.nu0 + u.nu1


def deployed_scale(u):
    """Common factor s of the deployed ratios, s * clip(r, lo, hi)."""
    return (1.0 - u.eps1) / (1.0 - u.eps0)


def assert_end_equations(model, u, band, rel=1e-12):
    r = model.ratios()
    low, high = end_coefficients(u)
    if low is None:
        assert band.lo == r.min()
    elif band.lo == 0.0:
        # the zero ratios pool and shed nu0 (state 1 exact: v = 0)
        assert low[0] == 0.0 and model.p0[r == 0.0].sum() > low[1]
    else:
        pool = r < band.lo
        terms = (band.lo * model.p0[pool].sum(), model.p1[pool].sum(), low[0] + low[1] * band.lo)
        assert abs(terms[0] - terms[1] - terms[2]) <= rel * sum(terms)
    if high is None:
        assert band.hi == r.max()
    elif band.hi == np.inf:
        # the infinite ratios pool and shed nu1 (state 0 exact: v = 0)
        assert high[0] == 0.0 and model.p1[r == np.inf].sum() > high[1]
    else:
        pool = r > band.hi
        terms = (model.p1[pool].sum(), band.hi * model.p0[pool].sum(), high[1] + high[0] * band.hi)
        assert abs(terms[0] - terms[1] - terms[2]) <= rel * sum(terms)


def seeded_classes(seed, n, zero_share=0.0):
    """n (model, class) pairs: 3-39 symbols, each mass zero with probability
    zero_share, and each of eps0, eps1, nu0, nu1 drawn from SEPARATION_LEVELS."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        q = int(rng.integers(3, 40))
        p0 = rng.dirichlet(np.ones(q)) * (rng.random(q) >= zero_share)
        p1 = rng.dirichlet(np.ones(q)) * (rng.random(q) >= zero_share)
        p0[0] += p0.sum() == 0.0
        p1[-1] += p1.sum() == 0.0
        m = FeatureModel(p0=p0 / p0.sum(), p1=p1 / p1.sum())
        yield m, UncertaintyParams(*rng.choice(SEPARATION_LEVELS, size=4))


def assert_band_iff_separable(m, u):
    """A band exactly when the classes are apart; its rebuilt pair is then a
    PMF pair whose deployed ratios straddle 1."""
    if overlaps(m, u):
        with pytest.raises(InfeasibleBandError, match="classes overlap"):
            solve_band(m, u)
        return False
    band = solve_band(m, u)
    q0, q1 = oracle_pair(m, u, band.lo, band.hi)
    assert abs(q0.sum() - 1.0) <= BAND_RESIDUAL_TOL
    assert abs(q1.sum() - 1.0) <= BAND_RESIDUAL_TOL
    s = deployed_scale(u)
    assert band.lo * s <= 1.0 <= band.hi * s
    return True


SEPARATION_LEVELS = (0.0, 0.0, 0.01, 0.05, 0.1, 0.2)
FOUR_WAY = UncertaintyParams(eps0=0.1, eps1=0.1, nu0=0.1, nu1=0.1)
LEVELS = (0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3)
# three-symbol model whose Huber band is exactly [2/3, 4] under nu0 = nu1 = 0.1
TV_MODEL = FeatureModel(p0=[0.5, 0.5, 0.0], p1=[0.2, 0.3, 0.5])


class TestSolveBand:
    def test_band_normalizes_both_pmfs(self, rng):
        # A weakly informative draw may genuinely fail to absorb the
        # contamination; those raise and are skipped, the rest must
        # normalize exactly.
        checked = 0
        for _ in range(20):
            m = spread_model(rng)
            try:
                band = solve_band(m, FOUR_WAY)
            except InfeasibleBandError:
                continue
            q0, q1 = oracle_pair(m, FOUR_WAY, band.lo, band.hi)
            assert abs(q0.sum() - 1.0) <= BAND_RESIDUAL_TOL
            assert abs(q1.sum() - 1.0) <= BAND_RESIDUAL_TOL
            assert band.lo <= 1.0 <= band.hi
            checked += 1
        assert checked >= 15

    def test_zero_uncertainty_band_spans_nominal_ratios(self, rng):
        m = random_model(rng)
        band = solve_band(m, UncertaintyParams())
        r = m.ratios()
        assert band.lo == float(r.min())
        assert band.hi == float(r.max())

    def test_band_strictly_inside_nominal_range(self):
        from guidedproc.fixtures import detector_suite

        for m in detector_suite():
            band = solve_band(m, FOUR_WAY)
            r = m.ratios()
            assert r.min() < band.lo < band.hi < r.max()

    def test_one_sided_uncertainty_pins_high_end(self):
        # State 0 exact: with eps1 alone the high end's coefficients are both
        # 0, so it has no pool and stays at the nominal maximum ratio; nu1
        # gives it a pool, and the end moves to the eps0 -> 0 limit.
        from guidedproc.fixtures import detector_suite

        m = detector_suite()[0]
        r = m.ratios()
        band = solve_band(m, UncertaintyParams(eps1=0.1))
        assert band.hi == float(r.max())
        assert band.lo > float(r.min())
        band = solve_band(m, UncertaintyParams(eps1=0.1, nu1=0.05))
        near = solve_band(m, UncertaintyParams(eps0=1e-12, eps1=0.1, nu1=0.05))
        assert float(r.min()) < band.lo < band.hi < float(r.max())
        assert band.lo == pytest.approx(near.lo, rel=1e-6, abs=0.0)
        assert band.hi == pytest.approx(near.hi, rel=1e-6, abs=0.0)

    def test_one_sided_uncertainty_pins_low_end(self):
        from guidedproc.fixtures import detector_suite

        m = detector_suite()[0]
        r = m.ratios()
        band = solve_band(m, UncertaintyParams(eps0=0.1))
        assert band.lo == float(r.min())
        assert band.hi < float(r.max())
        band = solve_band(m, UncertaintyParams(eps0=0.1, nu0=0.05))
        near = solve_band(m, UncertaintyParams(eps0=0.1, eps1=1e-12, nu0=0.05))
        assert float(r.min()) < band.lo < band.hi < float(r.max())
        assert band.lo == pytest.approx(near.lo, rel=1e-6, abs=0.0)
        assert band.hi == pytest.approx(near.hi, rel=1e-6, abs=0.0)

    def test_uninformative_model_is_infeasible(self):
        p = np.array([0.25, 0.25, 0.5])
        m = FeatureModel(p0=p, p1=p.copy())
        with pytest.raises(InfeasibleBandError):
            solve_band(m, UncertaintyParams(eps0=0.05))

    def test_unabsorbable_contamination_is_infeasible(self):
        # State 0 is exact and puts all its mass where state 1 puts 0.9:
        # D = 0.08 <= nu1 = 0.1, so p0 itself lies in the state-1 class.
        m = FeatureModel(p0=[0.0, 1.0, 0.0], p1=[0.0, 0.9, 0.1])
        u = UncertaintyParams(eps1=0.2, nu1=0.1)
        assert separation(m, u) == pytest.approx(0.08)
        with pytest.raises(InfeasibleBandError, match="classes overlap"):
            solve_band(m, u)

    def test_separable_contamination_gets_the_nearest_member(self):
        # D = 0.008 > 0: the classes are apart, and the least-favorable
        # state-1 PMF is the member of its class nearest to p0.
        m = FeatureModel(p0=[0.0, 1.0, 0.0], p1=[0.0, 0.99, 0.01])
        u = UncertaintyParams(eps1=0.2)
        assert separation(m, u) == pytest.approx(0.008)
        robust, band = least_favorable(m, u)
        assert (band.lo, band.hi) == (pytest.approx(1.24), np.inf)
        np.testing.assert_allclose(robust.p1, [0.0, 0.992, 0.008], rtol=1e-12)
        np.testing.assert_array_equal(robust.p0, m.p0)

    def test_infinite_ratio_pool_sheds_nu1(self):
        # State 0 exact and nu1 > 0, with more state-1 mass on the infinite
        # ratio than nu1: the high end is infinite and those symbols give up
        # nu1, the state-1 member nearest to p0.
        band = solve_band(TV_MODEL, UncertaintyParams(nu1=0.1))
        robust, _ = least_favorable(TV_MODEL, UncertaintyParams(nu1=0.1))
        assert (band.lo, band.hi) == (pytest.approx(0.6), np.inf)
        np.testing.assert_allclose(robust.p1, [0.3, 0.3, 0.4], rtol=1e-12)
        np.testing.assert_array_equal(robust.p0, TV_MODEL.p0)

    def test_outer_bracket_covers_one_when_finite_ratios_are_tiny(self):
        # One infinite ratio and every finite ratio far below 1: the search
        # for the high end must still start at 1.
        m = FeatureModel(p0=[1.0, 0.0], p1=[3.07e-14, 1.0 - 3.07e-14])
        band = solve_band(m, UncertaintyParams(eps0=0.01, eps1=0.05, nu1=0.05))
        assert band.lo <= 1.0 <= band.hi < np.inf
        assert max(abs(band.residual0), abs(band.residual1)) <= BAND_RESIDUAL_TOL

    def test_end_equations_hold_on_seeded_classes(self):
        # Every returned band solves its two end equations on the pooled
        # sets, normalizes the independently rebuilt pair and brackets 1.
        rng = np.random.default_rng(7)
        makers = (spread_model, sparse_model, random_model)
        checked = 0
        for n in range(900):
            m = makers[n % 3](rng)
            u = UncertaintyParams(*rng.choice(LEVELS, size=4))
            try:
                band = solve_band(m, u)
            except InfeasibleBandError:
                continue
            q0, q1 = oracle_pair(m, u, band.lo, band.hi)
            assert abs(q0.sum() - 1.0) <= BAND_RESIDUAL_TOL
            assert abs(q1.sum() - 1.0) <= BAND_RESIDUAL_TOL
            s = deployed_scale(u)
            assert band.lo * s <= 1.0 <= band.hi * s
            assert_end_equations(m, u, band)
            checked += 1
        assert checked >= 400

    @pytest.mark.parametrize("seed, zero_share, overlapping", [(11, 0.0, 50), (12, 0.3, 20)])
    def test_band_exists_iff_classes_are_separable(self, seed, zero_share, overlapping):
        # One state exact or not, every class gets a band exactly when the
        # closed-form separation D exceeds nu0 + nu1.  Zero masses put
        # symbols at ratio 0 and inf, where an end with the other state
        # exact pools them.
        classes = seeded_classes(seed, 1500, zero_share)
        separable = [assert_band_iff_separable(m, u) for m, u in classes]
        assert separable.count(False) >= overlapping and separable.count(True) >= 1000

    def test_one_sided_band_is_continuous_at_zero_uncertainty(self):
        # An exact state is the limit of a vanishing class around it.
        checked = 0
        for m, u in seeded_classes(13, 600):
            for state in "01":
                exact = replace(u, **{f"eps{state}": 0.0, f"nu{state}": 0.0})
                if exact.is_zero or overlaps(m, exact):
                    continue
                near = replace(exact, **{f"eps{state}": 1e-12})
                band, limit = solve_band(m, exact), solve_band(m, near)
                assert band.lo == pytest.approx(limit.lo, rel=1e-6, abs=0.0)
                assert band.hi == pytest.approx(limit.hi, rel=1e-6, abs=0.0)
                checked += 1
        assert checked >= 500

    def test_detector_suite_bands_are_pinned(self):
        from guidedproc.fixtures import detector_suite

        expected = [
            (0.39344475437447857, 2.541652897596408),
            (0.29708997375422863, 3.3659836694026675),
            (0.2637176090385589, 3.7919348793041237),
        ]
        for m, (lo, hi) in zip(detector_suite(), expected):
            band = solve_band(m, FOUR_WAY)
            assert band.lo == pytest.approx(lo, rel=1e-12, abs=0.0)
            assert band.hi == pytest.approx(hi, rel=1e-12, abs=0.0)

    def test_pure_total_variation_band(self):
        # With eps0 = eps1 = 0 a whole curve of bands normalizes both
        # PMFs; the band is the Huber point on it.
        band = solve_band(TV_MODEL, UncertaintyParams(nu0=0.1, nu1=0.1))
        assert band.lo == pytest.approx(2.0 / 3.0, rel=1e-15, abs=0.0)
        assert band.hi == pytest.approx(4.0, rel=1e-15, abs=0.0)

    def test_pure_total_variation_is_the_vanishing_contamination_limit(self, rng):
        checked = 0
        for _ in range(40):
            m = random_model(rng)
            nu0, nu1 = rng.choice(LEVELS[1:], size=2)
            try:
                band = solve_band(m, UncertaintyParams(nu0=nu0, nu1=nu1))
            except InfeasibleBandError:
                continue
            near = solve_band(m, UncertaintyParams(1e-9, 1e-9, nu0, nu1))
            assert band.lo == pytest.approx(near.lo, rel=1e-6, abs=0.0)
            assert band.hi == pytest.approx(near.hi, rel=1e-6, abs=0.0)
            checked += 1
        assert checked >= 30

    def test_end_without_pool_is_the_nominal_ratio(self):
        # State 0 exact and nu1 = 0: both coefficients of the high end are
        # 0, so there is no high pool and hi is the nominal maximum ratio,
        # here infinite.  With nu0 alone both ends pool.
        from guidedproc.io import band_payload

        band = solve_band(TV_MODEL, UncertaintyParams(eps1=0.1))
        assert (band.lo, band.hi) == (pytest.approx(0.55 / 0.9), np.inf)
        assert band_payload(band)["hi"] is None
        band = solve_band(TV_MODEL, UncertaintyParams(nu0=0.1))
        assert (band.lo, band.hi) == (pytest.approx(0.5), pytest.approx(5.0))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.12))
    def test_residual_property(self, seed, level):
        # Whenever a band is returned its residuals are within tolerance;
        # infeasibility must be raised, never silently absorbed.
        m = spread_model(np.random.default_rng(seed))
        u = UncertaintyParams(eps0=level, eps1=level, nu0=level, nu1=level)
        try:
            band = solve_band(m, u)
        except InfeasibleBandError:
            assume(False)
        assert max(abs(band.residual0), abs(band.residual1)) <= BAND_RESIDUAL_TOL
        assert 0.0 <= band.lo <= 1.0 <= band.hi


class TestLeastFavorable:
    def test_zero_uncertainty_returns_model_unchanged(self, rng):
        m = random_model(rng)
        out, band = least_favorable(m, UncertaintyParams())
        assert out is m
        assert band.lo == float(m.ratios().min())

    def test_ratio_clipping_identity(self):
        # Transformed ratios are the clipped nominal ratios times one common
        # scale factor (1-eps1)/(1-eps0) up to the renormalization residual.
        from guidedproc.fixtures import detector_suite

        for m in detector_suite():
            robust, band = least_favorable(m, FOUR_WAY)
            clipped = np.clip(m.ratios(), band.lo, band.hi)
            scale = robust.ratios() / clipped
            assert np.ptp(scale) <= 1e-10 * scale.mean()
            expected = (1.0 - FOUR_WAY.eps1) / (1.0 - FOUR_WAY.eps0)
            assert scale.mean() == pytest.approx(expected, rel=1e-7)

    def test_pooled_symbols_share_exact_band_ratio(self):
        from guidedproc.fixtures import detector_suite

        m = detector_suite()[0]
        robust, band = least_favorable(m, FOUR_WAY)
        r = m.ratios()
        rob = robust.ratios()
        low = r < band.lo
        high = r > band.hi
        assert low.any() and high.any()
        # Within each pool the transformed ratio is one constant.
        assert np.ptp(rob[low]) <= 1e-12 * rob[low].mean()
        assert np.ptp(rob[high]) <= 1e-12 * rob[high].mean()

    def test_outputs_are_pmfs(self):
        from guidedproc.fixtures import detector_suite

        m = detector_suite()[1]
        robust, _ = least_favorable(m, FOUR_WAY)
        assert robust.p0.sum() == pytest.approx(1.0, abs=1e-12)
        assert robust.p1.sum() == pytest.approx(1.0, abs=1e-12)


class TestPosteriorBounds:
    def test_interval_ordering_rejected(self):
        from guidedproc import ModelFormatError

        with pytest.raises(ModelFormatError):
            BeliefInterval(0.6, 0.4)

    def test_bounds_equal_the_scalar_update(self):
        # oracle: the scalar Bayes update on the masses of each live
        # symbol's ratio class, one symbol at a time; some models split
        # symbols into tied columns
        def scalar_bounds(interval, model):
            def update(pi, y):
                c = model.class_of[y]
                num = float(model.class_p1[c]) * pi
                den = num + float(model.class_p0[c]) * (1.0 - pi)
                return num / den if den > 0.0 else pi

            live = [y for y in range(model.alphabet_size) if model.p0[y] or model.p1[y]]
            return min(update(interval.lo, y) for y in live), max(
                update(interval.hi, y) for y in live
            )

        rng = np.random.default_rng(8)
        ends = (0.0, 1.0, 1e-300, 0.5, 1.0 - 1e-16)
        for _ in range(600):
            q = int(rng.integers(2, 121))
            p0 = rng.gamma(0.5, size=q) * (rng.random(q) > 0.3)
            p1 = rng.gamma(0.5, size=q) * (rng.random(q) > 0.3)
            p0[0] += p0.sum() == 0.0
            p1[-1] += p1.sum() == 0.0
            model = FeatureModel(p0=p0 / p0.sum(), p1=p1 / p1.sum())
            if rng.random() < 0.25:  # positive masses, so the extremes are finite ratios
                model = duplicate_columns(rng, random_model(rng))
            elif rng.random() < 0.33:
                model = duplicate_columns(rng, model)
            lo, hi = sorted(rng.choice([*ends, *rng.random(3)], size=2))
            interval = BeliefInterval(float(lo), float(hi))
            got = model_posterior_bounds(interval, model)
            assert (got.lo, got.hi) == scalar_bounds(interval, model)
