"""Duty-cycling baseline and the uniform-dominance test against it.

A duty-cycled detector runs the full single-stage detection pipeline on a
fraction rho of frames and sleeps otherwise; sleeping frames unconditionally
miss any target.  Its risk is affine in rho, so dominance of a censoring
cascade over the whole rho range follows from checks at the two endpoints:
the cascade must beat the always-off detector outright, and its censoring
miss risk must stay within the weighted energy saving relative to always-on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cascade import Policy, RiskReport, SystemSpec
from .errors import ModelFormatError
from .models import FeatureModel, symbol_posteriors

__all__ = [
    "DutyCycleSpec",
    "DominanceVerdict",
    "single_stage_risks",
    "dc_risk",
    "energy_equivalent_rho",
    "dominance_check",
    "ideal_duty_cycle",
]


@dataclass(frozen=True)
class DutyCycleSpec:
    """Memoryless duty cycler around a single-stage Bayes detector."""

    detector: FeatureModel
    rho: float
    on_cost: float
    off_cost: float
    miss_cost: float
    fa_cost: float
    prior: float

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ModelFormatError("rho must lie in [0, 1]")
        if not 0.0 <= self.off_cost <= self.on_cost < math.inf:
            raise ModelFormatError("need 0 <= off_cost <= on_cost < inf")
        if not (0.0 < self.miss_cost < math.inf and 0.0 < self.fa_cost < math.inf):
            raise ModelFormatError("miss_cost and fa_cost must be positive and finite")
        if not 0.0 <= self.prior <= 1.0:
            raise ModelFormatError("prior must lie in [0, 1]")


@dataclass(frozen=True)
class DominanceVerdict:
    """Endpoint checks implying dominance over the ideal duty cycler at
    every duty factor (the risk gap is affine in rho)."""

    beats_always_off: bool
    censor_miss_within_saving: bool

    @property
    def dominates(self) -> bool:
        return self.beats_always_off and self.censor_miss_within_saving


def single_stage_risks(
    model: FeatureModel, prior: float, miss_cost: float, fa_cost: float
) -> tuple[float, float]:
    """Analytic (miss, false-alarm) risk of the one-shot Bayes detector.

    Declares positive iff the posterior clears fa/(fa+miss).
    """
    tau = fa_cost / (fa_cost + miss_cost)
    priors = np.array([prior])
    post = symbol_posteriors(model, priors)[:, 0]
    declare_pos = post >= tau
    r_miss = miss_cost * prior * float(model.p1[~declare_pos].sum())
    r_fa = fa_cost * (1.0 - prior) * float(model.p0[declare_pos].sum())
    return r_miss, r_fa


def dc_risk(spec: DutyCycleSpec, energy_weight: float) -> RiskReport:
    """Risk decomposition of the duty cycler; affine in rho.

    Off-frame misses land in inter_miss (a miss without full processing),
    on-frame miss/false-alarm in the final slots, so the usual additive
    decomposition of the total holds unchanged.
    """
    r_miss, r_fa = single_stage_risks(spec.detector, spec.prior, spec.miss_cost, spec.fa_cost)
    energy = spec.rho * spec.on_cost + (1.0 - spec.rho) * spec.off_cost
    inter_miss = (1.0 - spec.rho) * spec.miss_cost * spec.prior
    final_miss = spec.rho * r_miss
    final_fa = spec.rho * r_fa
    weighted = energy_weight * energy
    return RiskReport(
        total=weighted + inter_miss + final_miss + final_fa,
        inter_miss=inter_miss,
        final_miss=final_miss,
        final_fa=final_fa,
        energy=energy,
        weighted_energy=weighted,
    )


def energy_equivalent_rho(e_target: float, on_cost: float, off_cost: float) -> tuple[float, bool]:
    """Duty factor whose expected energy equals e_target; (rho, clamped).

    Targets outside [off_cost, on_cost] clamp to the nearest endpoint and
    set the flag.
    """
    if not off_cost < on_cost:
        raise ModelFormatError("need off_cost < on_cost to invert the energy line")
    rho = (e_target - off_cost) / (on_cost - off_cost)
    if rho < 0.0:
        return 0.0, True
    if rho > 1.0:
        return 1.0, True
    return rho, False


def dominance_check(spec: SystemSpec, policy: Policy, report: RiskReport) -> DominanceVerdict:
    """Does the cascade dominate the ideal duty cycler at every rho?

    The ideal duty cycler shares the cascade's last-stage detector and its
    on/off costs.  Because both totals are affine in rho it suffices that
    (a) the cascade beats the always-off detector and (b) the censoring miss
    risk is no larger than the weighted energy saving against always-on.
    """
    lam = policy.energy_weight
    last = spec.stages[-1]
    beats_off = report.total <= spec.miss_cost * spec.prior + lam * last.off_cost
    within_saving = report.inter_miss <= lam * (last.on_cost - report.energy)
    return DominanceVerdict(bool(beats_off), bool(within_saving))


def ideal_duty_cycle(spec: SystemSpec, rho: float) -> DutyCycleSpec:
    """Duty cycler built from the cascade's own last stage (best case)."""
    last = spec.stages[-1]
    return DutyCycleSpec(
        detector=last.model,
        rho=rho,
        on_cost=last.on_cost,
        off_cost=last.off_cost,
        miss_cost=spec.miss_cost,
        fa_cost=spec.fa_cost,
        prior=spec.prior,
    )
