"""Reference system used by the demos and the end-to-end tests.

Models an always-listening acoustic monitor: a coarse wake detector feeds a
spectro-temporal feature stage which feeds a heavyweight classifier.  Energy
numbers are per-frame mJ derived from board power draws (mW) times active
seconds per frame.  Detector stages are unit-variance Gaussian score models
quantized to a finite alphabet, with separation growing along the cascade.
"""

from __future__ import annotations

import math

import numpy as np

from .cascade import StageSpec, SystemSpec, build_system
from .graph import DetectionGraph
from .models import FeatureModel, UncertaintyParams

__all__ = [
    "STAGE_ON_MJ",
    "STAGE_OFF_MJ",
    "DUTY_ON_MJ",
    "DUTY_OFF_MJ",
    "DEFAULT_ENERGY_WEIGHT",
    "binned_gaussian_model",
    "detector_suite",
    "monitoring_system",
    "trigger_system",
    "diamond_graph",
    "as_document",
    "graph_document",
]

# per-frame energies, mJ: power draw (mW) x active time (s)
_WAKE = 84.36 * 0.016
_FEATURE = 1097.0 * 0.011
_CLASSIFIER = 15131.0 * 0.014
_FEATURE_SLEEP = 15131.0 * 0.34e-6  # classifier retention while features run
_IDLE_SHORT = 264.0 * 0.34e-6
_IDLE_LONG = 264.0 * 0.014

STAGE_ON_MJ = (_WAKE, _FEATURE + _FEATURE_SLEEP, _CLASSIFIER)
STAGE_OFF_MJ = (0.0, _IDLE_SHORT, _IDLE_LONG)

# duty-cycled baseline powers both heavy blocks on every active frame
DUTY_ON_MJ = _FEATURE + _CLASSIFIER
DUTY_OFF_MJ = _IDLE_LONG

DEFAULT_ENERGY_WEIGHT = 0.001
DEFAULT_UNCERTAINTY = 0.1

# separations sized so a 10% four-way contamination still leaves every
# stage informative after the least-favorable squeeze
_SHIFTS = (2.5, 3.5, 4.5)


def _normal_sf(x: np.ndarray) -> np.ndarray:
    """Standard-normal survival function erfc(x / sqrt 2) / 2, elementwise."""
    return np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in x])


def _bin_masses(cuts: np.ndarray) -> np.ndarray:
    """Standard-normal mass of the bins delimited by cuts (tails absorbed).

    Differences are taken on the small side of each bin (cdf below zero,
    sf above) so far-tail masses keep relative accuracy; a plain cdf diff
    would cancel to noise and wreck the likelihood-ratio ordering.
    """
    edges = np.concatenate([[-np.inf], cuts, [np.inf]])
    lo, hi = edges[:-1], edges[1:]
    use_sf = lo > 0.0
    # cdf(x) = sf(-x)
    mass = np.where(use_sf, _normal_sf(lo) - _normal_sf(hi), _normal_sf(-hi) - _normal_sf(-lo))
    return np.maximum(mass, np.finfo(np.float64).tiny)


def binned_gaussian_model(shift: float, n_symbols: int = 100, width: float = 8.0) -> FeatureModel:
    """Unit-variance Gaussian pair (means 0 and shift) quantized to
    n_symbols equal-width bins; the outermost bins absorb the tails, so the
    masses are exactly normalized and every symbol keeps positive mass."""
    cuts = np.linspace(-width / 2.0, shift + width / 2.0, n_symbols - 1)
    p0 = _bin_masses(cuts)
    p1 = _bin_masses(cuts - shift)
    return FeatureModel(p0=p0 / p0.sum(), p1=p1 / p1.sum())


def detector_suite(n_symbols: int = 100) -> tuple[FeatureModel, ...]:
    """Wake, feature and classifier score models, weakest first."""
    return tuple(binned_gaussian_model(s, n_symbols) for s in _SHIFTS)


def _reference_stages(n_symbols: int, truncated: bool) -> tuple[StageSpec, ...]:
    """The reference cascade's nominal stages; truncated fuses the feature
    stage and the classifier into the duty cycler's heavy block (see
    ``monitoring_system``)."""
    models, on_costs, off_costs = detector_suite(n_symbols), STAGE_ON_MJ, STAGE_OFF_MJ
    if truncated:
        models = (models[0], models[2])
        on_costs, off_costs = (STAGE_ON_MJ[0], DUTY_ON_MJ), (STAGE_OFF_MJ[0], DUTY_OFF_MJ)
    return tuple(
        StageSpec(model=m, on_cost=on, off_cost=off)
        for m, on, off in zip(models, on_costs, off_costs)
    )


def monitoring_system(
    prior: float = 0.10,
    energy_weight: float | None = DEFAULT_ENERGY_WEIGHT,
    energy_budget: float | None = None,
    model_uncertainty: float = DEFAULT_UNCERTAINTY,
    n_symbols: int = 100,
    truncated: bool = False,
):
    """The reference cascade; returns (SystemSpec, robustness bands).

    truncated=True drops the intermediate censoring stage: the wake
    detector hands off directly to the full heavy block (feature stage and
    classifier powered together, classifier-grade separation), which is
    exactly what the duty-cycled hardware would run.  Intermediate stages
    carry symmetric contamination/perturbation mass model_uncertainty; the
    final stage stays exact.
    """
    *front, last = _reference_stages(n_symbols, truncated)
    u = model_uncertainty
    mid = UncertaintyParams(u, u, u, u)
    stages = [(st, mid) for st in front] + [(last, UncertaintyParams())]
    return build_system(
        stages, 3.0, 1.0, prior, energy_weight=energy_weight, energy_budget=energy_budget
    )


def trigger_system(prior: float = 0.2, energy_weight: float = 5e-3) -> SystemSpec:
    """Two stages: a coarse wake trigger ahead of a 12-symbol detector.

    The reference system for exercising the runtime adaptation loop, shaped
    so the feature-domain rule reproduces the belief rule exactly and the
    adapting thresholds converge well inside their attractors:

    * The trigger's continue set is a single support symbol (the solved
      belief threshold rejects everything below the top symbol), so the
      detector is entered with one possible belief and the stationary
      activation targets are exact.
    * Two zero-probability symbols sit just under that top symbol.  Every
      cut inside the gap selects the same realized decisions, which turns
      the gap into hysteresis slack: the trigger's threshold starts inside
      it and random-walks there without ever changing behavior.
    * The detector alphabet is coarse, so the per-step drift toward its
      stationary cut is large and the threshold crosses during burn-in,
      settling a safe distance from both neighboring symbol boundaries.
    """
    trigger = FeatureModel(
        p0=np.array([0.30, 0.25, 0.30, 0.0, 0.0, 0.15]),
        p1=np.array([0.05, 0.08, 0.12, 0.0, 0.0, 0.75]),
    )
    detector = binned_gaussian_model(1.6, n_symbols=12)
    return SystemSpec(
        stages=(
            StageSpec(model=trigger, on_cost=1.0, off_cost=0.0),
            StageSpec(model=detector, on_cost=25.0, off_cost=0.5),
        ),
        miss_cost=3.0,
        fa_cost=1.0,
        prior=prior,
        energy_weight=energy_weight,
    )


def as_document(
    prior_sweep: tuple[float, float, int] = (0.05, 0.15, 11),
    energy_weight: float = DEFAULT_ENERGY_WEIGHT,
    model_uncertainty: float = DEFAULT_UNCERTAINTY,
    n_symbols: int = 100,
    truncated: bool = False,
) -> dict:
    """The reference cascade as a model-file dict (ready to serialize)."""
    nominal = _reference_stages(n_symbols, truncated)
    u = model_uncertainty
    stages = []
    for i, st in enumerate(nominal):
        stage = {
            "p0": st.model.p0.tolist(),
            "p1": st.model.p1.tolist(),
            "on_cost": st.on_cost,
            "off_cost": st.off_cost,
        }
        if i < len(nominal) - 1 and u > 0.0:
            stage["uncertainty"] = {"eps0": u, "eps1": u, "nu0": u, "nu1": u}
        stages.append(stage)
    return {
        "format": "guidedproc-model",
        "miss_cost": 3.0,
        "fa_cost": 1.0,
        "prior_sweep": list(prior_sweep),
        "energy_weight": energy_weight,
        "duty_cycle": {"on_cost": DUTY_ON_MJ, "off_cost": DUTY_OFF_MJ},
        "stages": stages,
    }


def graph_document(n_symbols: int = 40, energy_weight: float = 0.002, prior: float = 0.1) -> dict:
    """The diamond graph as a model-file dict."""
    g = diamond_graph(n_symbols)
    nodes = {
        str(i): {
            "p0": st.model.p0.tolist(),
            "p1": st.model.p1.tolist(),
            "on_cost": st.on_cost,
            "off_cost": st.off_cost,
        }
        for i, st in g.nodes.items()
    }
    edges = [[i, n] for i in sorted(g.edges) for n in g.edges[i]]
    return {
        "format": "guidedproc-model",
        "miss_cost": 3.0,
        "fa_cost": 1.0,
        "prior": prior,
        "energy_weight": energy_weight,
        "nodes": nodes,
        "edges": edges,
        "root": g.root,
    }


def diamond_graph(n_symbols: int = 40) -> DetectionGraph:
    """Small shared-sink DAG: the wake node may route to either of two
    mid-grade detectors, both feeding the same terminal classifier."""
    wake = binned_gaussian_model(0.9, n_symbols)
    left = binned_gaussian_model(1.6, n_symbols)
    right = binned_gaussian_model(2.0, n_symbols)
    final = binned_gaussian_model(2.8, n_symbols)
    nodes = {
        1: StageSpec(model=wake, on_cost=1.0, off_cost=0.0),
        2: StageSpec(model=left, on_cost=6.0, off_cost=0.02),
        3: StageSpec(model=right, on_cost=9.0, off_cost=0.03),
        4: StageSpec(model=final, on_cost=60.0, off_cost=1.0),
    }
    edges = {1: (2, 3), 2: (4,), 3: (4,)}
    return DetectionGraph(nodes=nodes, edges=edges, root=1)
