"""Feature-domain runtime rule with activation-rate tracking.

When a stage's likelihood ratio is nondecreasing in the symbol, the belief
threshold crossed at that stage maps to a threshold on the raw symbol, so
the deployed sensor never needs posterior arithmetic: it compares y to a
per-stage scalar eta and nudges eta whenever the observed activation rate
drifts from the rate the solved policy would produce.  Stages that fail the
monotonicity check keep the deployed belief rule, ``Policy.routes``.

Updates use one shared step size mu: the rate estimate is an EWMA of the
activation indicator, and eta moves by mu times the tracking error, clamped
to the symbol range.  With integer symbols any eta in (y*-1, y*] encodes
the same decision rule as the exact cut y*, which is what the update
settles into when the target rate is achievable.  The update runs in one
place, the route that the simulator's adaptive mode hands its one stream
walker; this module supplies its feature rule and rate targets.
"""

from __future__ import annotations

import numpy as np

from .cascade import Policy, SystemSpec
from .errors import ModelFormatError, WorkSizeError
from .graph import route
from .models import FeatureModel, belief_transition, posterior_update

__all__ = ["is_monotone_ratio", "stationary_targets", "feature_cut"]

# enumeration of reachable beliefs stays exact; refuse pathological blowups
_MAX_BELIEF_STATES = 500_000


def is_monotone_ratio(model: FeatureModel) -> bool:
    """True when the likelihood ratio is nondecreasing over the alphabet."""
    r = model.ratios()
    return bool(np.all(r[1:] >= r[:-1] * (1.0 - 1e-12) - 1e-15))


def stationary_targets(spec: SystemSpec, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Exact long-run activation rates under the deployed ``policy.routes``.

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
    routes = policy.routes
    beliefs, weights = np.array([float(spec.prior)]), np.ones(1)
    p_reach = 1.0
    for k, stage in enumerate(spec.stages):
        reach[k] = p_reach
        post, ev = belief_transition(stage.model, beliefs)
        go = route(*routes[k + 1], post) != 0
        act = float(weights @ np.sum(ev * go, axis=0))
        targets[k] = act
        if k == n - 1 or act <= 0.0:
            break
        w = ev * weights  # masks read class-major: bincount adds each atom in that order
        live = go & (w > 0.0)
        beliefs, atom = np.unique(post[live], return_inverse=True)
        if beliefs.size > _MAX_BELIEF_STATES:
            raise WorkSizeError("reachable belief set too large to enumerate exactly")
        weights = np.bincount(atom, weights=w[live], minlength=beliefs.size) / act
        p_reach *= act
    return targets, reach


def feature_cut(model: FeatureModel, belief: float, tau: float) -> int:
    """Smallest symbol whose posterior from `belief` (its ratio class's)
    clears tau.

    Requires a monotone likelihood ratio; alphabet size means "never".
    """
    if not is_monotone_ratio(model):
        raise ModelFormatError("feature cut undefined for non-monotone likelihood ratio")
    post = posterior_update(belief, model, np.arange(model.alphabet_size))
    hits = np.flatnonzero(post >= tau)
    return int(hits[0]) if hits.size else model.alphabet_size

