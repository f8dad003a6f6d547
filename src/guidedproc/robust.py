"""Least-favorable feature models under contamination/outlier uncertainty.

Each state's PMF is only known up to a neighborhood parameterized by a
contamination level eps (mixture mass that can be arbitrary) and an outlier
level nu (total-variation mass that can be moved).  The least-favorable pair
inside the two neighborhoods compresses the likelihood ratio into a band
[l_lo, l_hi]: symbols whose nominal ratio falls below l_lo are pooled so the
transformed ratio equals l_lo exactly, symbols above l_hi are pooled to l_hi,
and in-band symbols keep their nominal shape scaled by (1 - eps).

The band ends are characterized here by requiring both transformed vectors to
be proper PMFs.  The two normalization residuals are monotone in (l_lo, l_hi)
(total state-0 mass decreases, state-1 mass increases, when either end grows),
so a nested bisection finds the crossing: the inner loop solves the state-1
residual for l_lo at fixed l_hi, the outer loop drives the state-0 residual
by l_hi.  When one state carries no uncertainty at all its transform is the
identity, the matching residual vanishes identically, and the solve reduces
to one-dimensional bisection on the other residual.

``solve_band`` thus takes one of three paths: zero uncertainty (the band is
the nominal ratio range), the one-sided bisection (state 0 exact) or the
nested bisection.  A band whose residuals stay outside ``BAND_RESIDUAL_TOL``
has no feasible crossing and raises ``InfeasibleBandError``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleBandError, ModelFormatError
from .models import FeatureModel, UncertaintyParams, posterior_update

__all__ = [
    "RobustBand",
    "BeliefInterval",
    "solve_band",
    "least_favorable",
    "model_posterior_bounds",
]

# Residual magnitude accepted for each transformed PMF before the final
# proportional renormalization.
BAND_RESIDUAL_TOL = 1e-8

_BISECT_STEPS = 90


@dataclass(frozen=True)
class RobustBand:
    """Ratio band [lo, hi] with the pre-renormalization residuals."""

    lo: float
    hi: float
    residual0: float = 0.0
    residual1: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi):
            raise ModelFormatError(f"invalid ratio band [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class BeliefInterval:
    """Closed belief interval 0 <= lo <= hi <= 1."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ModelFormatError(f"invalid belief interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(pi: float) -> "BeliefInterval":
        return BeliefInterval(pi, pi)

    @staticmethod
    def full() -> "BeliefInterval":
        return BeliefInterval(0.0, 1.0)


class _BandProblem:
    """Pooling transform of one nominal model at candidate band ends."""

    def __init__(self, model: FeatureModel, u: UncertaintyParams):
        self.model = model
        self.u = u
        self.r = model.ratios()
        # Pooling coefficients.  v_lo/w_lo shape the low pool, v_hi/w_hi the
        # high pool; a zero coefficient pair means that pool cannot exist.
        self.v_lo = (u.eps1 + u.nu1) / (1.0 - u.eps1)
        self.w_lo = u.nu0 / (1.0 - u.eps0)
        self.v_hi = (u.eps0 + u.nu0) / (1.0 - u.eps0)
        self.w_hi = u.nu1 / (1.0 - u.eps1)
        # Ratio-sorted prefix sums let residuals() run in O(log Q) scalar
        # arithmetic: the nested bisection calls it thousands of times, so
        # plain Python floats beat numpy dispatch here by a wide margin.
        order = np.argsort(self.r, kind="stable")
        self._r_sorted = self.r[order].tolist()
        self._cum0 = np.concatenate([[0.0], np.cumsum(model.p0[order])]).tolist()
        self._cum1 = np.concatenate([[0.0], np.cumsum(model.p1[order])]).tolist()

    def transform(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Least-favorable PMF pair before renormalization."""
        p0, p1, r = self.model.p0, self.model.p1, self.r
        q0 = (1.0 - self.u.eps0) * p0
        q1 = (1.0 - self.u.eps1) * p1

        low = r < lo
        if np.any(low):
            pooled = self.v_lo * p0[low] + self.w_lo * p1[low]
            denom = self.v_lo + self.w_lo * lo
            q0[low] = (1.0 - self.u.eps0) * pooled / denom
            q1[low] = (1.0 - self.u.eps1) * lo * pooled / denom

        high = r > hi  # empty whenever hi is infinite
        if np.any(high):
            pooled = self.w_hi * p0[high] + self.v_hi * p1[high]
            denom = self.w_hi + self.v_hi * hi
            q0[high] = (1.0 - self.u.eps0) * pooled / denom
            q1[high] = (1.0 - self.u.eps1) * hi * pooled / denom
        return q0, q1

    def residuals(self, lo: float, hi: float) -> tuple[float, float]:
        """Normalization defects of the transformed pair, via prefix sums."""
        i_lo = bisect.bisect_left(self._r_sorted, lo)
        i_hi = bisect.bisect_right(self._r_sorted, hi)
        p0_low, p1_low = self._cum0[i_lo], self._cum1[i_lo]
        p0_high = self._cum0[-1] - self._cum0[i_hi]
        p1_high = self._cum1[-1] - self._cum1[i_hi]
        s0 = self._cum0[i_hi] - p0_low
        s1 = self._cum1[i_hi] - p1_low
        if i_lo > 0:
            mix = self.v_lo * p0_low + self.w_lo * p1_low
            den = self.v_lo + self.w_lo * lo
            s0 += mix / den
            s1 += lo * mix / den
        if i_hi < len(self._r_sorted):
            mix = self.w_hi * p0_high + self.v_hi * p1_high
            den = self.w_hi + self.v_hi * hi
            s0 += mix / den
            s1 += hi * mix / den
        return (
            (1.0 - self.u.eps0) * s0 - 1.0,
            (1.0 - self.u.eps1) * s1 - 1.0,
        )


def _bisect(f, a: float, b: float, increasing: bool) -> float:
    """Root of a monotone scalar function on [a, b] with bracketed sign."""
    fa, fb = f(a), f(b)
    lo_sign = fa <= 0.0 if increasing else fa >= 0.0
    hi_sign = fb >= 0.0 if increasing else fb <= 0.0
    if not lo_sign:
        return a
    if not hi_sign:
        return b
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if (fm <= 0.0) == increasing:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def solve_band(model: FeatureModel, u: UncertaintyParams) -> RobustBand:
    """Band ends that make both least-favorable vectors proper PMFs."""
    prob = _BandProblem(model, u)
    r_finite = prob.r[np.isfinite(prob.r)]
    if r_finite.size == 0:
        raise InfeasibleBandError("model has no symbol with positive state-0 mass")
    r_min = float(prob.r.min())
    r_max = float(prob.r.max())
    if u.is_zero:
        return RobustBand(r_min, r_max)
    if r_min >= 1.0 or r_max <= 1.0:
        # All ratios equal 1: nothing distinguishes the states and no band
        # can restore the mass removed by contamination.
        raise InfeasibleBandError("uninformative model cannot absorb contamination")
    # the outer bracket [1, hi_cap] must not invert when every finite ratio
    # lies below 1
    hi_cap = r_max if math.isfinite(r_max) else max(float(r_finite.max()), 1.0) * 1e12

    q0_identity = u.eps0 == 0.0 and u.nu0 == 0.0
    q1_identity = u.eps1 == 0.0 and u.nu1 == 0.0

    def inner_lo(hi: float) -> float:
        # State-1 residual is increasing in lo; a vanishing-uncertainty
        # state 1 keeps its nominal PMF and pins lo at the smallest ratio.
        if q1_identity:
            return r_min
        return _bisect(lambda lo: prob.residuals(lo, hi)[1], r_min, 1.0, increasing=True)

    if q0_identity:
        # State 0 keeps its nominal PMF, so only the state-1 residual is
        # active and the high end stays at the nominal maximum ratio.
        lo = _bisect(lambda v: prob.residuals(v, r_max)[1], r_min, 1.0, increasing=True)
        hi = r_max
    else:
        hi = _bisect(lambda v: prob.residuals(inner_lo(v), v)[0], 1.0, hi_cap, increasing=False)
        lo = inner_lo(hi)
    res0, res1 = prob.residuals(lo, hi)
    if max(abs(res0), abs(res1)) > BAND_RESIDUAL_TOL:
        raise InfeasibleBandError(
            "no ratio band normalizes both least-favorable PMFs "
            f"(best residuals {res0:.3e}, {res1:.3e})"
        )
    return RobustBand(lo, hi, res0, res1)


def least_favorable(
    model: FeatureModel, u: UncertaintyParams
) -> tuple[FeatureModel, RobustBand]:
    """Least-favorable model inside the uncertainty class, with its band.

    With zero uncertainty the model is returned unchanged and the band spans
    the nominal ratio range.  Otherwise the transformed vectors are
    renormalized proportionally after the band solve; the discarded residual
    stays recorded on the band.
    """
    band = solve_band(model, u)
    if u.is_zero:
        return model, band
    q0, q1 = _BandProblem(model, u).transform(band.lo, band.hi)
    return FeatureModel(q0 / q0.sum(), q1 / q1.sum()), band


def model_posterior_bounds(prior: BeliefInterval, model: FeatureModel) -> BeliefInterval:
    """Belief interval reachable after one update with the model's own symbols.

    Threshold clamping is a knife-edge comparison against these bounds, so
    they are computed with the exact update arithmetic on the deployed model;
    mapping the prior through the analytic band ends drifts by the
    renormalization residual and by the common ratio scale.
    """
    reachable = [
        y
        for y in range(model.alphabet_size)
        if model.p0[y] > 0.0 or model.p1[y] > 0.0
    ]
    lo = min(posterior_update(prior.lo, model, y) for y in reachable)
    hi = max(posterior_update(prior.hi, model, y) for y in reachable)
    return BeliefInterval(lo, hi)
