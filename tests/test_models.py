import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from guidedproc import (
    BeliefGrid,
    FeatureModel,
    evidence,
    expected_next,
    posterior_update,
    symbol_evidence,
    symbol_posteriors,
)
from conftest import random_model


def pmf_pairs(min_size=2, max_size=12):
    """Strategy producing two strictly positive PMFs of equal length."""
    def build(raw):
        a, b = raw
        p0 = np.asarray(a, dtype=float) + 1e-3
        p1 = np.asarray(b, dtype=float) + 1e-3
        return FeatureModel(p0=p0 / p0.sum(), p1=p1 / p1.sum())

    sizes = st.integers(min_size, max_size)
    return sizes.flatmap(
        lambda q: st.tuples(
            st.lists(st.floats(0.0, 10.0), min_size=q, max_size=q),
            st.lists(st.floats(0.0, 10.0), min_size=q, max_size=q),
        )
    ).map(build)


class TestFeatureModel:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            FeatureModel(p0=np.array([0.5, 0.5]), p1=np.array([0.2, 0.3, 0.5]))

    def test_rejects_non_pmf(self):
        with pytest.raises(ValueError):
            FeatureModel(p0=np.array([0.7, 0.7]), p1=np.array([0.5, 0.5]))

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            FeatureModel(p0=np.array([1.2, -0.2]), p1=np.array([0.5, 0.5]))

    def test_ratio_conventions(self):
        m = FeatureModel(p0=np.array([0.5, 0.5, 0.0, 0.0]),
                         p1=np.array([0.25, 0.0, 0.75, 0.0]))
        r = m.ratios()
        assert r[0] == 0.5
        assert r[1] == 0.0
        assert np.isposinf(r[2])
        # 0/0 counts as ratio one: the symbol carries no information
        assert r[3] == 1.0


class TestPosterior:
    def test_absorbing_endpoints(self, rng):
        m = random_model(rng)
        for y in range(m.alphabet_size):
            assert posterior_update(0.0, m, y) == 0.0
            assert posterior_update(1.0, m, y) == 1.0

    def test_scalar_matches_vector(self, rng):
        m = random_model(rng, 8)
        pri = np.linspace(0.0, 1.0, 17)
        for y in range(8):
            vec = posterior_update(pri, m, y)
            for b, v in zip(pri, vec):
                assert posterior_update(float(b), m, y) == pytest.approx(v, abs=0)

    def test_zero_evidence_symbol_keeps_prior(self):
        # A symbol impossible under both hypotheses must not move the belief.
        m = FeatureModel(p0=np.array([1.0, 0.0]), p1=np.array([1.0, 0.0]))
        assert posterior_update(0.3, m, 1) == 0.3

    def test_certain_symbol_pins_belief(self):
        m = FeatureModel(p0=np.array([1.0, 0.0]), p1=np.array([0.0, 1.0]))
        assert posterior_update(0.3, m, 1) == 1.0
        assert posterior_update(0.3, m, 0) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(pmf_pairs(), st.floats(0.0, 1.0))
    def test_posterior_is_martingale(self, model, prior):
        """Sum over symbols of evidence times posterior returns the prior."""
        post = symbol_posteriors(model, np.array([prior]))
        ev = symbol_evidence(model, np.array([prior]))
        assert ev.sum() == pytest.approx(1.0, abs=1e-12)
        assert float((ev * post).sum()) == pytest.approx(prior, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(pmf_pairs(), st.floats(1e-9, 1.0 - 1e-9))
    def test_posterior_matches_bayes_rule(self, model, prior):
        for y in range(model.alphabet_size):
            num = model.p1[y] * prior
            den = num + model.p0[y] * (1.0 - prior)
            expected = prior if den == 0.0 else num / den
            assert posterior_update(prior, model, y) == pytest.approx(expected, abs=1e-15)


class TestGridAndTables:
    def test_grid_endpoints_and_step(self):
        g = BeliefGrid(size=11)
        assert g.points[0] == 0.0 and g.points[-1] == 1.0
        assert g.step == pytest.approx(0.1)

    def test_floor_index_contains_point(self):
        g = BeliefGrid(size=101)
        for pi in (0.0, 0.004999, 0.005, 0.37, 0.999, 1.0):
            i = g.floor_index(pi)
            assert g.points[i] <= pi + 1e-15
            assert i == min(int(pi * 100), 100)

    def test_likelihood_ratio_and_evidence_helpers(self, rng):
        m = random_model(rng, 6)
        pri = 0.2
        for y in range(6):
            ev = evidence(pri, m, y)
            assert ev == pytest.approx(m.p1[y] * pri + m.p0[y] * (1 - pri), abs=1e-15)


class TestExpectedNext:
    @staticmethod
    def inline(model, b, table):
        # the propagation as solve, evaluate and solve_graph each wrote it
        post = symbol_posteriors(model, b)
        ev = symbol_evidence(model, b)
        return np.sum(ev * np.interp(post, b, table), axis=0)

    def test_matches_inline_propagation_bit_for_bit(self, rng):
        for size in (11, 101, 1001):
            g = BeliefGrid(size=size)
            b = g.points
            for _ in range(5):
                m = random_model(rng)
                tables = rng.random((4, size))
                np.testing.assert_array_equal(
                    expected_next(m, g, tables[0]), self.inline(m, b, tables[0])
                )
                stacked = expected_next(m, g, tables)
                assert stacked.shape == (4, size)
                for row, t in zip(stacked, tables):
                    np.testing.assert_array_equal(row, self.inline(m, b, t))

    def test_root_belief_matches_inline_scalar_sum(self, rng):
        g = BeliefGrid(size=101)
        b = g.points
        for _ in range(10):
            m = random_model(rng)
            table = rng.random(g.size)
            prior = float(rng.uniform())
            post0 = symbol_posteriors(m, np.array([prior]))[:, 0]
            ev0 = symbol_evidence(m, np.array([prior]))[:, 0]
            ref = float(np.sum(ev0 * np.interp(post0, b, table)))
            assert float(expected_next(m, g, table, [prior])[0]) == ref
