import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from guidedproc import (
    BeliefInterval,
    FeatureModel,
    InfeasibleBandError,
    UncertaintyParams,
    least_favorable,
    solve_band,
)
from guidedproc.robust import BAND_RESIDUAL_TOL
from conftest import random_model

# ---------------------------------------------------------------------------
# Oracle: rebuild the least-favorable pair for a *given* band directly from
# the neighborhood definitions, independently of the solver internals.
# Low-pool symbols must come out with ratio exactly band.lo, high-pool
# symbols with ratio band.hi, and in-band symbols keep the nominal ratio
# scaled by (1-eps1)/(1-eps0).  Both vectors must be PMFs at the solved band.
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
    return q0, q1


def spread_model(rng, n_symbols=None) -> FeatureModel:
    """Random model with a guaranteed 400x likelihood-ratio spread."""
    q = int(n_symbols or rng.integers(4, 20))
    p0 = rng.gamma(1.0, size=q) + 1e-3
    p0 = p0 / p0.sum()
    gain = np.geomspace(0.05, 20.0, q)
    p1 = p0 * gain
    return FeatureModel(p0=p0, p1=p1 / p1.sum())


FOUR_WAY = UncertaintyParams(eps0=0.1, eps1=0.1, nu0=0.1, nu1=0.1)


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
        # No state-0 uncertainty: only the low pool is needed, the high end
        # stays at the nominal maximum ratio.
        from guidedproc.fixtures import detector_suite

        m = detector_suite()[0]
        u = UncertaintyParams(eps1=0.1, nu1=0.05)
        band = solve_band(m, u)
        assert band.hi == float(m.ratios().max())
        assert band.lo > float(m.ratios().min())

    def test_one_sided_uncertainty_pins_low_end(self):
        from guidedproc.fixtures import detector_suite

        m = detector_suite()[0]
        u = UncertaintyParams(eps0=0.1, nu0=0.05)
        band = solve_band(m, u)
        assert band.lo == float(m.ratios().min())
        assert band.hi < float(m.ratios().max())

    def test_uninformative_model_is_infeasible(self):
        p = np.array([0.25, 0.25, 0.5])
        m = FeatureModel(p0=p, p1=p.copy())
        with pytest.raises(InfeasibleBandError):
            solve_band(m, UncertaintyParams(eps0=0.05))

    def test_unabsorbable_contamination_is_infeasible(self):
        # State 0 is exact and its only mass sits on a symbol state 1 never
        # emits; the high pool then has zero pooling coefficients, and no
        # band normalizes state 1.
        m = FeatureModel(p0=[0.0, 1.0, 0.0], p1=[0.0, 0.99, 0.01])
        with pytest.raises(InfeasibleBandError, match="no ratio band"):
            solve_band(m, UncertaintyParams(eps1=0.2))

    def test_outer_bracket_covers_one_when_finite_ratios_are_tiny(self):
        # One infinite ratio and every finite ratio far below 1: the search
        # for the high end must still start at 1.
        m = FeatureModel(p0=[1.0, 0.0], p1=[3.07e-14, 1.0 - 3.07e-14])
        band = solve_band(m, UncertaintyParams(eps0=0.01, eps1=0.05, nu1=0.05))
        assert band.lo <= 1.0 <= band.hi < np.inf
        assert max(abs(band.residual0), abs(band.residual1)) <= BAND_RESIDUAL_TOL

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
