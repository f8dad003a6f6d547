"""Belief arithmetic for staged binary detection.

A stage observes a quantized feature Y with alphabet {0, ..., Q-1} whose
conditional PMFs p(y|0), p(y|1) depend on a hidden binary state.  All
higher-level machinery (censoring cascades, duty cyclers, detection graphs)
rests on two steps defined here: one Bayes step, whose denominator is the
evidence (marginal probability), and one propagation step,
``expected_next``.  Value functions over beliefs are stored on a uniform
grid and read back with piecewise-linear interpolation, which is exact at
grid points and preserves concavity.

Symbols versus classes.  A symbol moves the belief only through its
likelihood ratio p1/p0, so symbols whose ratios are equal floats form one
ratio class, and the Bayes step runs on the classes: ``belief_transition``
returns one (posterior, evidence) row per class, and ``posterior_update``
reads the summed masses of y's class.  The DP, the risk decomposition, the
belief bounds and the stream walker therefore share one arithmetic.  A
least-favorable model pools every symbol outside its ratio band onto two
ratios, so its C classes are far fewer than its Q symbols.  Everything
that names a symbol stays per symbol: ``evidence``, the sampler, the
ratios and the feature-domain rule.  Classes are numbered by first
appearance in the alphabet, so a model whose ratios are all distinct has
one class per symbol, in symbol order, with the symbol's own masses.

Conventions for degenerate symbols follow the absorbing-belief reading:
a symbol with p0 = p1 = 0 carries no information (ratio 1, belief kept),
p0 = 0 with p1 > 0 is infinitely informative (ratio +inf, belief jumps to 1
from any positive prior), and beliefs 0 and 1 are absorbing.

The Bayes kernel never writes its inputs: the priors, the beliefs and the
model's masses are read only, and every result is a fresh array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateContaminationError, ModelFormatError, WorkSizeError

__all__ = [
    "DEFAULT_GRID_SIZE",
    "MAX_GRID_SIZE",
    "MAX_TRANSITION_BYTES",
    "PMF_ATOL",
    "FeatureModel",
    "UncertaintyParams",
    "BeliefGrid",
    "BeliefTable",
    "posterior_update",
    "evidence",
    "belief_transition",
    "expected_next",
]

DEFAULT_GRID_SIZE = 1001

# Largest belief grid, and largest transition pair in bytes.  A stage's
# (C, n) pair (posteriors and evidence, float64, one row per ratio class)
# takes 16 * C * n bytes; calibration holds one per stage 2..K-1, plus
# temporaries as large.  The budget admits 100 classes on the largest
# grid (160 MB); the largest grid in use is 10001 (16 MB per such stage).
MAX_GRID_SIZE = 100_001
MAX_TRANSITION_BYTES = 1 << 28

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
    """Conditional PMFs of one quantized feature under the two states.

    class_of[y] is the ratio class of symbol y (see the module docstring);
    class_p0 and class_p1 hold each class's masses, summed over its symbols
    in alphabet order.  Models compare and hash by the bytes of their two
    PMFs, so a content-equal copy is equal and a one-ulp change is not.
    """

    p0: np.ndarray = field(compare=False)
    p1: np.ndarray = field(compare=False)
    _pmf_bytes: bytes = field(init=False, repr=False)
    class_of: np.ndarray = field(init=False, repr=False, compare=False)
    class_p0: np.ndarray = field(init=False, repr=False, compare=False)
    class_p1: np.ndarray = field(init=False, repr=False, compare=False)
    # the masses of each symbol's class, per symbol: one gather per update
    _symbol_class_masses: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "p0", _as_pmf(self.p0, "p0"))
        object.__setattr__(self, "p1", _as_pmf(self.p1, "p1"))
        if self.p0.shape != self.p1.shape:
            raise ModelFormatError("p0 and p1 must share one alphabet")
        _, first, inverse = np.unique(self.ratios(), return_index=True, return_inverse=True)
        rank = np.empty(first.size, dtype=np.intp)
        rank[np.argsort(first)] = np.arange(first.size)  # number by first appearance
        class_of = rank[inverse]
        masses = [np.bincount(class_of, weights=p, minlength=first.size) for p in (self.p0, self.p1)]
        per_symbol = tuple(m[class_of] for m in masses)
        for arr in (class_of, *masses, *per_symbol):
            arr.setflags(write=False)
        object.__setattr__(self, "class_of", class_of)
        object.__setattr__(self, "class_p0", masses[0])
        object.__setattr__(self, "class_p1", masses[1])
        object.__setattr__(self, "_symbol_class_masses", per_symbol)
        object.__setattr__(self, "_pmf_bytes", self.p0.tobytes() + self.p1.tobytes())

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
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 2 <= int(self.size) <= MAX_GRID_SIZE:
            raise ModelFormatError(f"belief grid needs 2 to {MAX_GRID_SIZE} points")
        object.__setattr__(self, "size", int(self.size))
        pts = np.linspace(0.0, 1.0, self.size)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


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


def _joint(prior, p0, p1) -> tuple[np.ndarray, np.ndarray]:
    """(p1 * prior, evidence): the state-1 joint mass of a symbol or class
    with masses p0, p1, and its marginal mass, the Bayes step's denominator;
    elementwise with broadcasting, each into a fresh array."""
    num = p1 * prior
    den = p0 * (1.0 - prior)
    den += num
    return num, den


def _bayes(prior, p0, p1) -> tuple[np.ndarray, np.ndarray]:
    """(posterior, evidence) of a symbol or class with masses p0, p1."""
    num, den = _joint(prior, p0, p1)
    live = den > 0.0
    if live.all():
        num /= den  # num is _joint's own array
        return num, den
    # 0 / 1 where den is 0, and num <= den: no float warning
    return np.where(live, num / np.where(live, den, 1.0), prior), den


def posterior_update(prior, model: FeatureModel, y):
    """Bayes update of the state-1 belief after observing symbol y.

    Reads the masses of y's ratio class, so every symbol of a class lands
    on the class's posterior in ``belief_transition``, bit for bit.
    Accepts a scalar or an array of priors, or one prior and an array of
    symbols.  One prior and a 1-D symbol array run the Bayes step once per
    class and gather each symbol's class posterior: every element goes
    through the same float operations as on the per-symbol path.  Beliefs 0
    and 1 are absorbing; a zero-evidence class leaves the belief unchanged.
    """
    prior = np.asarray(prior, dtype=np.float64)
    if prior.ndim == 0 and np.ndim(y) == 1:
        post, _ = _bayes(prior, model.class_p0, model.class_p1)
        return post.take(model.class_of).take(y)  # per symbol, then per frame
    q0, q1 = model._symbol_class_masses
    post, _ = _bayes(prior, q0[y], q1[y])
    return float(post) if post.ndim == 0 else post


def evidence(prior, model: FeatureModel, y):
    """Marginal probability of symbol y (not of its class) under the
    current belief."""
    _, ev = _joint(np.asarray(prior, dtype=np.float64), model.p0[y], model.p1[y])
    return float(ev) if ev.ndim == 0 else ev


def belief_transition(model: FeatureModel, beliefs) -> tuple[np.ndarray, np.ndarray]:
    """(posteriors, evidence) of every ratio class at every belief, each
    (C, n); row c belongs to the symbols y with ``model.class_of[y] == c``.

    The half of ``expected_next`` that depends on the stage model and the
    beliefs only, and the one builder of such pairs: a caller that
    propagates many tables through one stage builds it once, on the grid
    points, and passes it to each ``expected_next`` call.  A pair over
    MAX_TRANSITION_BYTES is refused before anything is allocated.
    """
    priors = np.asarray(beliefs, dtype=np.float64)
    size = 16 * model.class_p0.size * priors.size
    if size > MAX_TRANSITION_BYTES:
        raise WorkSizeError(
            f"{model.class_p0.size} ratio classes at {priors.size} beliefs need a {size}-byte"
            f" transition pair, over the {MAX_TRANSITION_BYTES}-byte budget"
        )
    return _bayes(priors[None, :], model.class_p0[:, None], model.class_p1[:, None])


def expected_next(grid: BeliefGrid, tables, transition) -> np.ndarray:
    """sum_c evidence(b, c) * table(posterior(b, c)) at each belief b.

    The one belief-propagation step of every backward pass.  `tables` is one
    (M,) grid table or a (T, M) stack, read by linear interpolation;
    `transition` is the ``belief_transition`` pair of the stage at the n
    beliefs b, the grid points or any others.  Returns shape (n,) or (T, n).
    """
    b = grid.points
    post, ev = transition
    tables = np.asarray(tables, dtype=np.float64)
    out = np.stack([np.sum(ev * np.interp(post, b, t), axis=0) for t in np.atleast_2d(tables)])
    return out[0] if tables.ndim == 1 else out
