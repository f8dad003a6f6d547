"""Feature-domain runtime rule with activation-rate tracking.

When a stage's likelihood ratio is nondecreasing in the symbol, the belief
threshold crossed at that stage maps to a threshold on the raw symbol, so
the deployed sensor never needs posterior arithmetic: it compares y to a
per-stage scalar eta and nudges eta whenever the observed activation rate
drifts from the rate the solved policy would produce.  Stages that fail the
monotonicity check keep the belief-domain rule, on the stream's belief.

Updates use one shared step size mu: the rate estimate is an EWMA of the
activation indicator, and eta moves by mu times the tracking error, clamped
to the symbol range.  With integer symbols any eta in (y*-1, y*] encodes
the same decision rule as the exact cut y*, which is what the update
settles into when the target rate is achievable.  The update itself runs
in one place, the route that the simulator's adaptive mode hands its one
stream walker; this module prepares its state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import Policy, SystemSpec
from .errors import GuidedProcError, ModelFormatError
from .models import FeatureModel, belief_transition

__all__ = [
    "AdaptiveState",
    "is_monotone_ratio",
    "stationary_targets",
    "prepare_adaptive",
    "feature_cut",
]

# enumeration of reachable beliefs stays exact; refuse pathological blowups
_MAX_BELIEF_STATES = 500_000


def is_monotone_ratio(model: FeatureModel) -> bool:
    """True when the likelihood ratio is nondecreasing over the alphabet."""
    r = model.ratios()
    return bool(np.all(r[1:] >= r[:-1] * (1.0 - 1e-12) - 1e-15))


def stationary_targets(spec: SystemSpec, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Exact long-run activation rates under the deployed thresholds.

    Returns (targets, reach): targets[i] is the activation probability at
    stage i conditioned on reaching it; reach[i] the unconditional reach
    probability.  Computed by enumerating the reachable belief atoms stage
    by stage, so the values match an infinite simulation exactly rather
    than up to grid interpolation: the atoms are the distinct continuing
    posteriors, each weighing the (ratio class, belief) masses landing on
    it.
    """
    n = spec.n_stages
    targets = np.zeros(n)
    reach = np.zeros(n)
    beliefs, weights = np.array([float(spec.prior)]), np.ones(1)
    p_reach = 1.0
    for k, stage in enumerate(spec.stages):
        if not beliefs.size:
            break
        reach[k] = p_reach
        post, ev = belief_transition(stage.model, beliefs)
        go = post >= policy.thresholds[k]
        act = float(weights @ np.sum(ev * go, axis=0))
        targets[k] = act
        if k == n - 1 or act <= 0.0:
            break
        w = ev * weights  # masks read class-major: bincount adds each atom in that order
        live = go & (w > 0.0)
        beliefs, atom = np.unique(post[live], return_inverse=True)
        if beliefs.size > _MAX_BELIEF_STATES:
            raise GuidedProcError("reachable belief set too large to enumerate exactly")
        weights = np.bincount(atom, weights=w[live], minlength=beliefs.size) / act
        p_reach *= act
    return targets, reach


@dataclass(frozen=True)
class AdaptiveState:
    """Starting point of the adaptive rule: thresholds, rate estimates and
    the targets they chase."""

    eta: np.ndarray
    mu: float
    rate_estimates: np.ndarray
    targets: np.ndarray
    feature_rule: np.ndarray  # bool per stage; False = belief-domain fallback
    eta_limits: np.ndarray

    def __post_init__(self):
        for name in ("eta", "rate_estimates", "targets", "feature_rule", "eta_limits"):
            arr = np.asarray(getattr(self, name))
            arr = arr.astype(bool if name == "feature_rule" else np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not 0.0 < self.mu < 1.0:
            raise ModelFormatError("mu must lie in (0, 1)")


def feature_cut(model: FeatureModel, belief: float, tau: float) -> int:
    """Smallest symbol whose posterior from `belief` (its ratio class's)
    clears tau.

    Requires a monotone likelihood ratio; alphabet size means "never".
    """
    if not is_monotone_ratio(model):
        raise ModelFormatError("feature cut undefined for non-monotone likelihood ratio")
    post, _ = belief_transition(model, [belief])
    hits = np.flatnonzero(post[model.class_of, 0] >= tau)
    return int(hits[0]) if hits.size else model.alphabet_size


def prepare_adaptive(spec: SystemSpec, policy: Policy, mu: float) -> AdaptiveState:
    """Build the runtime state for a solved policy.

    Non-monotone stages are flagged for the belief-domain fallback rather
    than given a feature threshold.  Initial thresholds sit in the middle
    of each symbol range; rate estimates start at their targets so the
    first updates react to data, not initialization.
    """
    feature_rule = np.array([is_monotone_ratio(s.model) for s in spec.stages])
    limits = np.array([float(s.model.alphabet_size) for s in spec.stages])
    targets, _ = stationary_targets(spec, policy)
    return AdaptiveState(
        eta=limits / 2.0,
        mu=mu,
        rate_estimates=targets.copy(),
        targets=targets,
        feature_rule=feature_rule,
        eta_limits=limits,
    )
