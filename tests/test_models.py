import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from guidedproc import (
    BeliefGrid,
    BeliefTable,
    DetectionGraph,
    DutyCycleSpec,
    FeatureModel,
    ModelFormatError,
    StreamConfig,
    WorkSizeError,
    belief_transition,
    evidence,
    expected_next,
    posterior_update,
)
from guidedproc.graph import route
from guidedproc.models import MAX_GRID_SIZE, _bayes
from guidedproc.fixtures import diamond_graph
from conftest import duplicate_columns, random_model, random_system, refused


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

    def test_rejects_a_two_dimensional_pmf(self):
        with refused(ModelFormatError, "p0 must be a 1-D vector with at least 2 symbols"):
            FeatureModel(p0=np.full((2, 2), 0.25), p1=np.array([0.5, 0.5]))

    def test_ratio_conventions(self):
        m = FeatureModel(p0=np.array([0.5, 0.5, 0.0, 0.0]),
                         p1=np.array([0.25, 0.0, 0.75, 0.0]))
        r = m.ratios()
        assert r[0] == 0.5
        assert r[1] == 0.0
        assert np.isposinf(r[2])
        # 0/0 counts as ratio one: the symbol carries no information
        assert r[3] == 1.0


def twin(model: FeatureModel) -> FeatureModel:
    """A content-equal model built from copies of the PMFs."""
    return FeatureModel(p0=model.p0.copy(), p1=model.p1.copy())


class TestValueSemantics:
    def test_content_equal_copies_are_equal_and_hash_equal(self, rng):
        model, spec = random_model(rng), random_system(rng)
        copied = replace(spec, stages=tuple(replace(st, model=twin(st.model)) for st in spec.stages))
        duty = DutyCycleSpec(
            detector=model, rho=0.5, on_cost=1.0, off_cost=0.1, miss_cost=3.0, fa_cost=1.0, prior=0.1
        )
        for a, b in (
            (model, twin(model)),
            (BeliefGrid(101), BeliefGrid(101)),
            (spec.stages[-1], copied.stages[-1]),
            (spec, copied),
            (duty, replace(duty, detector=twin(model))),
        ):
            assert a is not b and a == b and hash(a) == hash(b)
        assert BeliefGrid(101) != BeliefGrid(102)
        assert spec != replace(copied, prior=spec.prior / 2.0)

    @pytest.mark.parametrize("which", ["p0", "p1"])
    def test_one_ulp_makes_another_model(self, rng, which):
        model = random_model(rng)
        pmfs = {"p0": model.p0.copy(), "p1": model.p1.copy()}
        pmfs[which][1] = np.nextafter(pmfs[which][1], 1.0)
        other = FeatureModel(**pmfs)
        assert other != model and model != other

    def test_graphs_and_stream_configs_compare_without_raising(self, rng):
        graph = diamond_graph()
        nodes = {i: replace(st, model=twin(st.model)) for i, st in graph.nodes.items()}
        copied = DetectionGraph(nodes=nodes, edges=dict(graph.edges), root=graph.root)
        assert graph == copied
        assert graph != DetectionGraph(nodes={1: nodes[1]}, edges={}, root=1)
        spec = random_system(rng)
        config = StreamConfig(system=spec, n_frames=1000, seed=7)
        assert config == StreamConfig(system=replace(spec), n_frames=1000, seed=7)
        assert config != replace(config, system=graph)


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

    def test_one_prior_and_many_symbols_match_the_per_frame_path(self, rng):
        # the stream walker's root passes one prior and a symbol per frame;
        # the class posteriors, computed once and gathered, must equal the
        # per-frame update bit for bit, through both branches of the kernel
        models = []
        for k in range(8):
            m = random_model(rng)
            if k % 2:  # a zero-evidence symbol and an infinite-ratio one
                w = float(rng.random()) + 0.1
                p1 = np.append(m.p1, [0.0, w]) / (1.0 + w)
                m = FeatureModel(p0=np.append(m.p0, [0.0, 0.0]), p1=p1)
            models.append(duplicate_columns(rng, m) if k % 4 > 1 else m)
        assert any(m.class_p0.size < m.alphabet_size for m in models)  # ratio ties
        branches = set()
        for m in models:
            ys = np.concatenate([np.arange(m.alphabet_size), rng.integers(0, m.alphabet_size, 50)])
            for prior in (0.0, 1.0, 0.3):
                got = posterior_update(prior, m, ys)
                assert np.array_equal(got, posterior_update(np.full(ys.size, prior), m, ys))
                branches.add(bool((_bayes(np.float64(prior), m.class_p0, m.class_p1)[1] > 0).all()))
        assert branches == {True, False}

    @settings(max_examples=60, deadline=None)
    @given(pmf_pairs(), st.floats(0.0, 1.0))
    def test_posterior_is_martingale(self, model, prior):
        """Sum over symbols of evidence times posterior returns the prior."""
        post, ev = belief_transition(model, [prior])
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
        assert np.diff(g.points) == pytest.approx(0.1)

    def test_grid_size_is_bounded(self):
        assert BeliefGrid(size=MAX_GRID_SIZE).points[-1] == 1.0
        for size in (1, MAX_GRID_SIZE + 1, 10**12):
            with pytest.raises(ModelFormatError, match=str(MAX_GRID_SIZE)):
                BeliefGrid(size=size)

    def test_table_shape_must_match_the_grid(self):
        with refused(ModelFormatError, "table values must match the grid size"):
            BeliefTable(BeliefGrid(size=11), np.zeros(10))

    @staticmethod
    def action_runs(rng, size, n_labels):
        """A grid action table: random labels in runs of random length."""
        labels = rng.integers(0, n_labels, size)
        starts = rng.random(size) < 8.0 / size
        starts[0] = True
        return labels[np.maximum.accumulate(np.where(starts, np.arange(size), 0))]

    @pytest.mark.parametrize("size", [2, 3, 51, 101, 1001, 10001])
    def test_route_is_the_floor_rule_lookup(self, rng, size):
        # grid points, midpoints and their float neighbours, and random
        # beliefs: each takes the action of the largest grid point at or
        # below it
        b = BeliefGrid(size=size).points
        mids = 0.5 * (b[:-1] + b[1:])
        pis = np.concatenate(
            [b, mids, rng.random(1000)]
            + [np.nextafter(x, to) for x in (b, mids) for to in (0.0, 1.0)]
        )
        # scalars spread over the whole belief range, so they pass the cuts
        spread = slice(None, None, max(1, pis.size // 50))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a wrapping scalar sum would warn
            for n_labels in (2, 4):
                table = self.action_runs(rng, size, n_labels)
                change = np.flatnonzero(np.diff(table)) + 1
                ref = table[np.searchsorted(b, pis, "right") - 1]
                for dtype in (np.int64, np.uint8):  # a step down wraps in uint8
                    cuts, actions = b[change], table[np.r_[0, change]].astype(dtype)
                    got = route(cuts, actions, pis)
                    assert got.dtype == dtype and np.array_equal(got, ref)
                    scalars = [route(cuts, actions, pi) for pi in pis[spread].tolist()]
                    # numpy scalars (0-d) in the actions' dtype
                    assert all(isinstance(a, np.generic) and a.dtype == dtype for a in scalars)
                    assert scalars == ref[spread].tolist()
            # a cut-free table takes its one action everywhere
            for dtype in (np.int64, np.uint8):
                actions, no_cuts = np.array([3], dtype), b[:0]
                got = route(no_cuts, actions, pis)
                assert got.dtype == dtype and np.array_equal(got, np.full(pis.size, 3))
                one = route(no_cuts, actions, 0.5)
                assert isinstance(one, np.generic) and one.dtype == dtype and one == 3

    def test_route_counts_past_one_byte(self, rng):
        # 300 cut points: the count needs two bytes, and every interval has
        # its own action, so a count that wrapped at 256 would show
        cuts = np.sort(rng.choice(BeliefGrid(size=1001).points[1:], 300, replace=False))
        actions = np.arange(301, dtype=np.uint16)
        pis = np.concatenate([cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 1.0), rng.random(5000)])
        ref = np.searchsorted(cuts, pis, "right")
        assert np.array_equal(route(cuts, actions, pis), ref)
        assert route(cuts, actions, 1.0) == 300 and route(cuts, actions, 0.0) == 0

    def test_likelihood_ratio_and_evidence_helpers(self, rng):
        m = random_model(rng, 6)
        pri = 0.2
        for y in range(6):
            ev = evidence(pri, m, y)
            assert ev == pytest.approx(m.p1[y] * pri + m.p0[y] * (1 - pri), abs=1e-15)


def bayes_by_hand(model, beliefs):
    """(posteriors, evidence), each (Q, n), written out with numpy: the
    reference that the package's one Bayes kernel must match bit for bit."""
    beliefs = np.asarray(beliefs, dtype=np.float64)
    p0, p1 = model.p0.reshape(-1, 1), model.p1.reshape(-1, 1)
    num = p1 * beliefs
    den = num + p0 * (1.0 - beliefs)
    with np.errstate(invalid="ignore", divide="ignore"):
        post = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), beliefs)
    return post, den


class TestExpectedNext:
    def test_transition_pairs_over_the_budget_are_refused(self, rng, monkeypatch):
        import guidedproc.models as models

        m = random_model(rng, 6)  # distinct ratios: 6 classes
        monkeypatch.setattr(models, "MAX_TRANSITION_BYTES", 16 * 6 * 10)
        assert belief_transition(m, np.linspace(0.0, 1.0, 10))[0].shape == (6, 10)
        with pytest.raises(WorkSizeError, match=r"6 ratio classes at 11 beliefs need a 1056-byte"):
            belief_transition(m, np.linspace(0.0, 1.0, 11))

    @staticmethod
    def inline(model, b, table):
        # the propagation as solve, evaluate and solve_graph each wrote it
        post, ev = bayes_by_hand(model, b)
        return np.sum(ev * np.interp(post, b, table), axis=0)

    def test_matches_inline_propagation_bit_for_bit(self, rng):
        for size in (11, 101, 1001):
            g = BeliefGrid(size=size)
            b = g.points
            for _ in range(5):
                m = random_model(rng)
                transition = belief_transition(m, b)
                tables = rng.random((4, size))
                np.testing.assert_array_equal(
                    expected_next(g, tables[0], transition), self.inline(m, b, tables[0])
                )
                stacked = expected_next(g, tables, transition)
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
            ev0 = m.p1 * prior + m.p0 * (1.0 - prior)
            post0 = m.p1 * prior / ev0  # random_model has no zero masses
            ref = float(np.sum(ev0 * np.interp(post0, b, table)))
            at_prior = belief_transition(m, [prior])
            assert float(expected_next(g, table, at_prior)[0]) == ref

    @staticmethod
    def model_with_zero_masses(rng):
        # some symbols impossible under one state, some under both
        q = int(rng.integers(4, 24))
        p0, p1 = rng.gamma(1.0, size=q), rng.gamma(1.0, size=q)
        cut = rng.integers(0, 4, size=q)  # 1: p0 = 0, 2: p1 = 0, 3: both
        p0[(cut == 1) | (cut == 3)] = 0.0
        p1[(cut == 2) | (cut == 3)] = 0.0
        p0[0] = p1[0] = 1.0  # keep both PMFs nonzero
        return FeatureModel(p0=p0 / p0.sum(), p1=p1 / p1.sum())

    @pytest.mark.parametrize("size", [101, 1001, 10001])
    def test_precomputed_transition_is_bit_identical(self, rng, size):
        # the grid pair equals the arithmetic by hand on the class masses,
        # and its columns equal the pair built at those beliefs alone, as
        # evaluate takes either
        g = BeliefGrid(size=size)
        for _ in range(4):
            m = self.model_with_zero_masses(rng)
            transition = belief_transition(m, g.points)
            for got, ref in zip(transition, bayes_by_hand(class_model(m), g.points)):
                assert np.array_equal(got, ref)
            cols = np.sort(rng.choice(size, size=7, replace=False))
            part = belief_transition(m, g.points[cols])
            tables = rng.random((4, size))
            for t in (tables[0], tables):
                assert np.array_equal(
                    expected_next(g, t, part), expected_next(g, t, transition)[..., cols]
                )

    def test_scalar_api_matches_the_pair_bit_for_bit(self, rng):
        # the stream walker updates with posterior_update and the robust
        # bounds come from it; both must equal the pair the DP reads, at the
        # symbol's class.  evidence stays per symbol.
        for k in range(20):
            m = self.model_with_zero_masses(rng)
            if k % 2:
                m = duplicate_columns(rng, m)
            beliefs = np.concatenate([[0.0, 1.0], rng.random(9)])
            post, _ = belief_transition(m, beliefs)
            _, ev = bayes_by_hand(m, beliefs)
            for y in range(m.alphabet_size):
                c = m.class_of[y]
                assert np.array_equal(posterior_update(beliefs, m, y), post[c])
                assert np.array_equal(evidence(beliefs, m, y), ev[y])
                for j, pi in enumerate(beliefs.tolist()):
                    assert posterior_update(pi, m, y) == post[c, j]
                    assert evidence(pi, m, y) == ev[y, j]


class TestBayesKernel:
    """``_bayes`` divides in place when every evidence is positive and takes
    the guarded division otherwise; both branches equal the arithmetic by
    hand bit for bit, on every input shape, and write no input."""

    @staticmethod
    def models(rng):
        # random_model has no zero mass (the in-place branch); the other has
        # zero-evidence classes at belief 0 or 1 or everywhere (the guard)
        for k in range(12):
            m = random_model(rng) if k % 2 else TestExpectedNext.model_with_zero_masses(rng)
            yield duplicate_columns(rng, m) if k % 4 > 1 else m

    @staticmethod
    def inputs(rng, m):
        beliefs = np.concatenate([[0.0, 1.0], rng.random(9)])
        post, ev = bayes_by_hand(class_model(m), beliefs)
        return beliefs, post, ev

    def test_grid_shape(self, rng):
        branches = set()
        for m in self.models(rng):
            beliefs, post, ev = self.inputs(rng, m)
            got = _bayes(beliefs[None, :], m.class_p0[:, None], m.class_p1[:, None])
            assert np.array_equal(got[0], post) and np.array_equal(got[1], ev)
            branches.add(bool((ev > 0.0).all()))
        assert branches == {True, False}

    def test_gathered_masses_and_scalars(self, rng):
        # posterior_update's (n,) gather: frame i reads the masses of its
        # own symbol's class, as the stream walker does
        branches = set()
        for m in self.models(rng):
            beliefs, post, ev = self.inputs(rng, m)
            ys = rng.integers(0, m.alphabet_size, size=beliefs.size)
            cols = m.class_of[ys], np.arange(beliefs.size)
            q0, q1 = m._symbol_class_masses
            got = _bayes(beliefs, q0[ys], q1[ys])
            assert np.array_equal(got[0], post[cols]) and np.array_equal(got[1], ev[cols])
            for i, y in enumerate(ys.tolist()):
                p, e = _bayes(np.asarray(beliefs[i]), q0[y], q1[y])
                assert np.ndim(p) == np.ndim(e) == 0
                assert p == post[cols][i] and e == ev[cols][i]
                branches.add(bool(e > 0.0))
        assert branches == {True, False}

    def test_inputs_are_never_written(self, rng):
        for m in self.models(rng):
            beliefs = self.inputs(rng, m)[0]
            before = [a.copy() for a in (beliefs, m.p0, m.p1, m.class_p0, m.class_p1)]
            belief_transition(m, beliefs)
            posterior_update(beliefs, m, 0)
            posterior_update(float(beliefs[3]), m, m.alphabet_size - 1)
            evidence(beliefs, m, 1)
            after = (beliefs, m.p0, m.p1, m.class_p0, m.class_p1)
            assert all(np.array_equal(a, b) for a, b in zip(before, after))
            assert all(a.flags.writeable is False for a in after[1:])


def class_model(model):
    """One symbol per ratio class, carrying the class masses."""
    return FeatureModel(p0=model.class_p0, p1=model.class_p1)


def ratio_classes_by_hand(model):
    """(class of each symbol, class p0, class p1): symbols grouped by equal
    ratio floats in a dict, numbered by first appearance, masses added one
    symbol at a time in alphabet order."""
    index, masses, class_of = {}, [], []
    for y, r in enumerate(model.ratios().tolist()):
        if r not in index:
            index[r] = len(masses)
            masses.append([0.0, 0.0])
        c = index[r]
        class_of.append(c)
        masses[c][0] += float(model.p0[y])
        masses[c][1] += float(model.p1[y])
    m = np.array(masses)
    return np.array(class_of), m[:, 0], m[:, 1]


class TestRatioClasses:
    def test_classes_match_the_dict_grouping(self, rng):
        for _ in range(30):
            m = duplicate_columns(rng, TestExpectedNext.model_with_zero_masses(rng))
            class_of, c0, c1 = ratio_classes_by_hand(m)
            assert np.array_equal(m.class_of, class_of)
            assert np.array_equal(m.class_p0, c0) and np.array_equal(m.class_p1, c1)
            assert m.class_p0.size < m.alphabet_size

    @pytest.mark.parametrize("size", [11, 1001])
    def test_distinct_ratios_change_nothing(self, rng, size):
        # the class index is the identity, every transition is the
        # per-symbol arithmetic by hand, and evidence (which only adds) is
        # the transition's evidence row
        b = BeliefGrid(size=size).points
        for _ in range(20):
            m = random_model(rng)
            assert np.unique(m.ratios()).size == m.alphabet_size
            assert np.array_equal(m.class_of, np.arange(m.alphabet_size))
            assert np.array_equal(m.class_p0, m.p0) and np.array_equal(m.class_p1, m.p1)
            transition = belief_transition(m, b)
            for got, ref in zip(transition, bayes_by_hand(m, b)):
                assert np.array_equal(got, ref)
            for y in range(m.alphabet_size):
                assert np.array_equal(evidence(b, m, y), transition[1][y])
                assert evidence(float(b[y % size]), m, y) == transition[1][y, y % size]
