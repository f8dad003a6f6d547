import numpy as np
import pytest

from guidedproc import FeatureModel, StageSpec, SystemSpec
from guidedproc.graph import _terminal_onward
from guidedproc.io import _parsed_document


def random_model(rng, n_symbols=None) -> FeatureModel:
    q = int(n_symbols or rng.integers(4, 24))
    p0 = rng.gamma(1.0, size=q) + 1e-3
    p1 = rng.gamma(1.0, size=q) + 1e-3
    return FeatureModel(p0=p0 / p0.sum(), p1=p1 / p1.sum())


def sorted_model(rng, n_symbols=None) -> FeatureModel:
    """Random model reordered to a nondecreasing likelihood ratio."""
    m = random_model(rng, n_symbols)
    order = np.argsort(m.ratios(), kind="stable")
    return FeatureModel(p0=m.p0[order], p1=m.p1[order])


def duplicate_columns(rng, model) -> FeatureModel:
    """Each symbol repeated 1-3 times with its masses split evenly: the
    copies share one likelihood ratio, so they form one ratio class and
    land on one belief atom."""
    reps = rng.integers(1, 4, size=model.alphabet_size)
    p0, p1 = (np.repeat(p / reps, reps) for p in (model.p0, model.p1))
    return FeatureModel(p0=p0, p1=p1)


def random_system(rng, n_stages=None, energy_weight=None) -> SystemSpec:
    k = int(n_stages or rng.integers(2, 5))
    stages = []
    on = float(rng.uniform(0.5, 2.0))
    for i in range(k):
        off = 0.0 if i == 0 else float(on * rng.uniform(0.01, 0.5))
        stages.append(StageSpec(model=random_model(rng), on_cost=on, off_cost=off))
        on *= float(rng.uniform(2.0, 8.0))
    lam = float(energy_weight if energy_weight is not None else rng.uniform(1e-4, 0.05))
    return SystemSpec(
        stages=tuple(stages),
        miss_cost=float(rng.uniform(0.5, 5.0)),
        fa_cost=float(rng.uniform(0.5, 5.0)),
        prior=float(rng.uniform(0.02, 0.5)),
        energy_weight=lam,
    )


def tail_off_costs(stages) -> np.ndarray:
    """tail[i] = sum of off_costs of stages[i:]; tail[K] = 0: a stop after
    stage i idles stages i+1..K and charges tail[i+1].  An oracle for the
    package's ``downstream_off_costs`` of the path graph, which adds the
    same costs in another order."""
    offs = np.array([st.off_cost for st in stages], dtype=np.float64)
    tail = np.zeros(len(stages) + 1)
    tail[:-1] = offs[::-1].cumsum()[::-1]
    return tail


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture
def cold_memo():
    """An empty terminal memo for the test, emptied again after it; yields
    the memo's ``cache_info``."""
    _terminal_onward.cache_clear()
    yield _terminal_onward.cache_info
    _terminal_onward.cache_clear()


@pytest.fixture
def cold_documents():
    """An empty model-document memo for the test, emptied again after it;
    yields the memo's ``cache_info``."""
    _parsed_document.cache_clear()
    yield _parsed_document.cache_info
    _parsed_document.cache_clear()
