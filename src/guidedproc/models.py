"""Belief arithmetic for staged binary detection.

A stage observes a quantized feature Y with alphabet {0, ..., Q-1} whose
conditional PMFs p(y|0), p(y|1) depend on a hidden binary state.  All
higher-level machinery (censoring cascades, duty cyclers, detection graphs)
reduces to three primitives defined here: the per-symbol likelihood ratio,
the Bayes posterior update of the state belief, and the evidence (marginal
symbol probability) under the current belief.  Value functions over beliefs
are stored on a uniform grid and read back with piecewise-linear
interpolation, which is exact at grid points and preserves concavity.

Conventions for degenerate symbols follow the absorbing-belief reading:
a symbol with p0 = p1 = 0 carries no information (ratio 1, belief kept),
p0 = 0 with p1 > 0 is infinitely informative (ratio +inf, belief jumps to 1
from any positive prior), and beliefs 0 and 1 are absorbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateContaminationError, ModelFormatError

__all__ = [
    "DEFAULT_GRID_SIZE",
    "PMF_ATOL",
    "FeatureModel",
    "UncertaintyParams",
    "BeliefGrid",
    "BeliefTable",
    "posterior_update",
    "evidence",
    "symbol_posteriors",
    "symbol_evidence",
    "expected_next",
]

DEFAULT_GRID_SIZE = 1001

# Tolerance for accepting a vector as a PMF.
PMF_ATOL = 1e-9


def _as_pmf(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ModelFormatError(f"{name} must be a 1-D vector with at least 2 symbols")
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"{name} must be finite and nonnegative")
    if abs(float(arr.sum()) - 1.0) > PMF_ATOL:
        raise ModelFormatError(f"{name} must sum to 1 within {PMF_ATOL:g} (got {arr.sum()!r})")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FeatureModel:
    """Conditional PMFs of one quantized feature under the two states."""

    p0: np.ndarray
    p1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p0", _as_pmf(self.p0, "p0"))
        object.__setattr__(self, "p1", _as_pmf(self.p1, "p1"))
        if self.p0.shape != self.p1.shape:
            raise ModelFormatError("p0 and p1 must share one alphabet")

    @property
    def alphabet_size(self) -> int:
        return int(self.p0.size)

    def ratios(self) -> np.ndarray:
        """Per-symbol likelihood ratios p1/p0 with degenerate conventions."""
        with np.errstate(divide="ignore", invalid="ignore"):
            r = self.p1 / self.p0
        r[np.isnan(r)] = 1.0  # 0/0: uninformative symbol
        return r


@dataclass(frozen=True)
class UncertaintyParams:
    """Contamination (eps) and outlier (nu) levels per state.

    eps0/nu0 describe the state-0 PMF class, eps1/nu1 the state-1 class.
    """

    eps0: float = 0.0
    eps1: float = 0.0
    nu0: float = 0.0
    nu1: float = 0.0

    def __post_init__(self):
        for name in ("eps0", "eps1", "nu0", "nu1"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not 0.0 <= v < 1.0:
                if name.startswith("eps") and v == 1.0:
                    raise DegenerateContaminationError(f"{name} = 1 leaves no nominal mass")
                raise ModelFormatError(f"{name} must lie in [0, 1), got {v!r}")

    @property
    def is_zero(self) -> bool:
        return self.eps0 == self.eps1 == self.nu0 == self.nu1 == 0.0


@dataclass(frozen=True)
class BeliefGrid:
    """Uniform grid of M belief points spanning [0, 1]."""

    size: int = DEFAULT_GRID_SIZE
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if int(self.size) < 2:
            raise ModelFormatError("belief grid needs at least 2 points")
        object.__setattr__(self, "size", int(self.size))
        pts = np.linspace(0.0, 1.0, self.size)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def step(self) -> float:
        return 1.0 / (self.size - 1)

    def floor_index(self, pi) -> np.ndarray:
        """Index of the largest grid point <= pi (elementwise)."""
        idx = np.floor(np.asarray(pi, dtype=np.float64) * (self.size - 1)).astype(np.int64)
        return np.clip(idx, 0, self.size - 1)


@dataclass(frozen=True)
class BeliefTable:
    """A function of belief sampled on a grid.

    Tables are read through ``expected_next``, which interpolates them
    linearly between grid points.
    """

    grid: BeliefGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.grid.size,):
            raise ModelFormatError("table values must match the grid size")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def posterior_update(prior, model: FeatureModel, y: int):
    """Bayes update of the state-1 belief after observing symbol y.

    Accepts a scalar or an array of priors.  Beliefs 0 and 1 are absorbing;
    a zero-evidence symbol leaves the belief unchanged.
    """
    prior_arr = np.asarray(prior, dtype=np.float64)
    num = float(model.p1[y]) * prior_arr
    den = num + float(model.p0[y]) * (1.0 - prior_arr)
    with np.errstate(invalid="ignore", divide="ignore"):
        post = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), prior_arr)
    if prior_arr.ndim == 0:
        return float(post)
    return post


def evidence(prior, model: FeatureModel, y: int):
    """Marginal probability of symbol y under the current belief."""
    prior_arr = np.asarray(prior, dtype=np.float64)
    ev = float(model.p1[y]) * prior_arr + float(model.p0[y]) * (1.0 - prior_arr)
    if prior_arr.ndim == 0:
        return float(ev)
    return ev


def symbol_posteriors(model: FeatureModel, priors: np.ndarray) -> np.ndarray:
    """(Q, n) matrix of posteriors for every symbol and every prior."""
    priors = np.asarray(priors, dtype=np.float64)
    num = model.p1[:, None] * priors[None, :]
    den = num + model.p0[:, None] * (1.0 - priors[None, :])
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), priors[None, :])


def symbol_evidence(model: FeatureModel, priors: np.ndarray) -> np.ndarray:
    """(Q, n) matrix of symbol probabilities for every prior."""
    priors = np.asarray(priors, dtype=np.float64)
    return model.p1[:, None] * priors[None, :] + model.p0[:, None] * (1.0 - priors[None, :])


def expected_next(model: FeatureModel, grid: BeliefGrid, tables, beliefs=None) -> np.ndarray:
    """sum_y evidence(b, y) * table(posterior(b, y)) at each belief b.

    The one belief-propagation step of every backward pass.  `tables` is one
    (M,) grid table or a (T, M) stack, read by linear interpolation; beliefs
    default to the grid points.  Returns shape (n,) or (T, n).
    """
    b = grid.points
    priors = b if beliefs is None else np.asarray(beliefs, dtype=np.float64)
    post = symbol_posteriors(model, priors)
    ev = symbol_evidence(model, priors)
    tables = np.asarray(tables, dtype=np.float64)
    out = np.stack([np.sum(ev * np.interp(post, b, t), axis=0) for t in np.atleast_2d(tables)])
    return out[0] if tables.ndim == 1 else out
