"""Least-favorable feature models under contamination/outlier uncertainty.

Each state's PMF is only known up to a neighborhood parameterized by a
contamination level eps (mixture mass that can be arbitrary) and an outlier
level nu (total-variation mass that can be moved).  The least-favorable pair
inside the two neighborhoods compresses the likelihood ratio into a band
[l_lo, l_hi]: symbols whose nominal ratio falls below l_lo are pooled so the
transformed ratio equals l_lo exactly, symbols above l_hi are pooled to l_hi,
and in-band symbols keep their nominal shape scaled by (1 - eps).

With the pooled masses P0L = P0(r < l_lo), P1L = P1(r < l_lo),
P0H = P0(r > l_hi), P1H = P1(r > l_hi) and the pooling coefficients
v_lo = (eps1 + nu1) / (1 - eps1), w_lo = nu0 / (1 - eps0),
v_hi = (eps0 + nu0) / (1 - eps0), w_hi = nu1 / (1 - eps1), each band end solves
its own equation (Huber, *A robust version of the probability ratio test*,
1965; Huber & Strassen, 1973):

    l_lo * P0L - P1L = v_lo + w_lo * l_lo
    P1H - l_hi * P0H = w_hi + v_hi * l_hi

At these ends the low pool carries state-0 mass P0L - w_lo and state-1 mass
P1L + v_lo, the high pool P0H + v_hi and P1H - w_hi, so both transformed
vectors are proper PMFs.  Each left side is convex and piecewise linear in its
end, with breakpoints at the ratios, and the right side is a line: each
equation has one crossing away from 0, read off the prefix sums of the sorted
ratios.  The high end is the low end of the state-swapped model, in
reciprocal ratio.  The same two equations serve every class, one state exact
or not: an end with both coefficients zero has no pool and is the nominal
extreme ratio, and an end at ratio 0 or inf pools the symbols at that ratio.

The deployed ratios are s * clip(r, l_lo, l_hi), s = (1 - eps1) / (1 - eps0).
A band with s * l_lo <= 1 <= s * l_hi exists exactly when the two classes are
separable: their least total-variation distance max(D, 0), with
D = sum_y ((1 - eps0) p0 - (1 - eps1) p1)_+ - eps1, exceeds nu0 + nu1.
Overlapping classes raise ``InfeasibleBandError``, as does a band whose
transformed vectors miss unit mass by more than ``BAND_RESIDUAL_TOL``; the
residuals recorded on the band are those sums minus 1.
"""

from __future__ import annotations

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


def _low_end(p0: np.ndarray, p1: np.ndarray, v: float, w: float) -> float:
    """Root lo of lo * P0(r < lo) - P1(r < lo) = v + w * lo, r = p1 / p0.

    The left side is zero up to the least ratio and convex piecewise linear
    with breakpoints at the ratios; the right side is a line with v, w >= 0,
    so they cross once away from 0.  The crossing lies on the segment that
    ends at the first breakpoint where the left side is ahead, or beyond the
    last finite ratio when there is no such breakpoint; 0 when v = 0 and the
    symbols of ratio 0 outweigh w, inf when the lines never meet.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        r = p1 / p0
    pool = np.isfinite(r)  # an infinite ratio never falls below a finite end
    order = np.argsort(r[pool], kind="stable")
    r = r[pool][order]
    # masses of the symbols strictly below each breakpoint, then of all
    c0 = np.concatenate([[0.0], np.cumsum(p0[pool][order])])
    c1 = np.concatenate([[0.0], np.cumsum(p1[pool][order])])
    ahead = np.flatnonzero(r * c0[:-1] - c1[:-1] > v + w * r)
    k = ahead[0] if ahead.size else r.size
    slope = c0[k] - w
    return float((c1[k] + v) / slope) if slope > 0.0 else math.inf


def _band_and_pair(model: FeatureModel, u: UncertaintyParams):
    """The band, with its least-favorable pair before renormalization (None
    with zero uncertainty, where the model is its own least-favorable pair)."""
    r = model.ratios()
    r_min = float(r.min())
    r_max = float(r.max())
    if u.is_zero:
        return RobustBand(r_min, r_max), None
    p0, p1 = model.p0, model.p1
    # Pooling coefficients.  v_lo/w_lo shape the low pool, v_hi/w_hi the
    # high pool; a zero coefficient pair means that pool cannot exist.
    v_lo = (u.eps1 + u.nu1) / (1.0 - u.eps1)
    w_lo = u.nu0 / (1.0 - u.eps0)
    v_hi = (u.eps0 + u.nu0) / (1.0 - u.eps0)
    w_hi = u.nu1 / (1.0 - u.eps1)
    lo = _low_end(p0, p1, v_lo, w_lo) if v_lo or w_lo else r_min
    # the high end is the low end of the state-swapped model, in 1 / ratio,
    # where an end at 0 is an infinite high end
    t = _low_end(p1, p0, v_hi, w_hi) if v_hi or w_hi else None
    hi = r_max if t is None else 1.0 / t if t > 0.0 else math.inf

    # the deployed ratios are s * clip(r, lo, hi); a band that cannot put
    # them on both sides of 1 leaves the two classes overlapping
    s = (1.0 - u.eps1) / (1.0 - u.eps0)
    if not lo * s <= 1.0 <= hi * s:
        raise InfeasibleBandError("the uncertainty classes overlap: no ratio band separates them")

    # the least-favorable pair before renormalization
    q0 = (1.0 - u.eps0) * p0
    q1 = (1.0 - u.eps1) * p1
    low = r < lo
    pooled = v_lo * p0[low] + w_lo * p1[low]
    denom = v_lo + w_lo * lo
    q0[low] = (1.0 - u.eps0) * pooled / denom
    q1[low] = (1.0 - u.eps1) * lo * pooled / denom

    high = r > hi  # empty whenever hi is infinite
    pooled = w_hi * p0[high] + v_hi * p1[high]
    denom = w_hi + v_hi * hi
    q0[high] = (1.0 - u.eps0) * pooled / denom
    q1[high] = (1.0 - u.eps1) * hi * pooled / denom
    # an end at ratio 0 or inf with v = 0 (the other state exact) pools
    # the symbols at that ratio, which shed w of their mass
    if lo == 0.0 and w_lo > 0.0:
        q0[r == 0.0] *= 1.0 - w_lo / p0[r == 0.0].sum()
    if hi == math.inf and w_hi > 0.0:
        q1[r == math.inf] *= 1.0 - w_hi / p1[r == math.inf].sum()
    res0, res1 = float(q0.sum()) - 1.0, float(q1.sum()) - 1.0
    if max(abs(res0), abs(res1)) > BAND_RESIDUAL_TOL:
        raise InfeasibleBandError(
            "no ratio band normalizes both least-favorable PMFs "
            f"(residuals {res0:.3e}, {res1:.3e})"
        )
    return RobustBand(lo, hi, res0, res1), (q0, q1)


def solve_band(model: FeatureModel, u: UncertaintyParams) -> RobustBand:
    """Band ends that make both least-favorable vectors proper PMFs."""
    return _band_and_pair(model, u)[0]


def least_favorable(
    model: FeatureModel, u: UncertaintyParams
) -> tuple[FeatureModel, RobustBand]:
    """Least-favorable model inside the uncertainty class, with its band.

    With zero uncertainty the model is returned unchanged and the band spans
    the nominal ratio range.  Otherwise the transformed vectors are
    renormalized proportionally after the band solve; the discarded residual
    stays recorded on the band.
    """
    band, pair = _band_and_pair(model, u)
    if pair is None:
        return model, band
    q0, q1 = pair
    return FeatureModel(q0 / q0.sum(), q1 / q1.sum()), band


def model_posterior_bounds(prior: BeliefInterval, model: FeatureModel) -> BeliefInterval:
    """Belief interval reachable after one update with the model's own symbols.

    Threshold clamping is a knife-edge comparison against these bounds, so
    they are computed with the exact update arithmetic on the deployed model
    (the ratio-class update that the DP and the stream walker share),
    applied to all live symbols at once; mapping the prior through the
    analytic band ends drifts by the renormalization residual and by the
    common ratio scale.
    """
    live = np.flatnonzero((model.p0 > 0.0) | (model.p1 > 0.0))
    lo = posterior_update(prior.lo, model, live).min()
    hi = posterior_update(prior.hi, model, live).max()
    return BeliefInterval(float(lo), float(hi))
