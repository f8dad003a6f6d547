import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from guidedproc import (
    BeliefGrid,
    DetectionGraph,
    FeatureModel,
    ModelFormatError,
    StageSpec,
    WorkSizeError,
    belief_transition,
    downstream_off_costs,
    evidence,
    expected_next,
    path_graph,
    post_order,
    posterior_update,
    solve,
    solve_graph,
)
from guidedproc import graph as graph_mod, models
from guidedproc.fixtures import diamond_graph, monitoring_system
from conftest import random_model, random_system
from test_models import pmf_pairs

# ---------------------------------------------------------------------------
# Oracles.  Both compute exact risks by walking the symbol tree with scalar
# Bayes updates; the belief grid appears only as the candidate threshold set.
# ---------------------------------------------------------------------------


def exact_policy_risk(graph, policy, prior) -> float:
    """Exact risk of the deployed decision tables (floor-rule lookups)."""
    lam, miss, fa = policy.energy_weight, policy.miss_cost, policy.fa_cost

    def after(node: int, belief: float) -> float:
        action = int(graph_mod.route(*policy.routes[node], belief))
        if graph.is_terminal(node):
            return fa * (1.0 - belief) if action == 1 else miss * belief
        if action == 0:
            return miss * belief + lam * policy.stop_off_costs[node]
        m = graph.nodes[action].model
        total = lam * graph.nodes[action].on_cost
        for y in range(m.alphabet_size):
            ev = evidence(belief, m, y)
            if ev > 0.0:
                total += ev * after(action, posterior_update(belief, m, y))
        return total

    m = graph.nodes[graph.root].model
    total = lam * graph.nodes[graph.root].on_cost
    for y in range(m.alphabet_size):
        ev = evidence(prior, m, y)
        if ev > 0.0:
            total += ev * after(graph.root, posterior_update(prior, m, y))
    return total


def grid_actions(graph, policy) -> dict[int, np.ndarray]:
    """Each node's action at every grid point, decided again from the
    policy's value tables: a terminal declares 1 from fa / (fa + miss) up;
    an internal node hands off to its cheapest successor (the lowest id on
    ties) when that costs no more than stopping, else stops (0)."""
    b, lam = policy.grid.points, policy.energy_weight
    actions = {}
    for i in graph.nodes:
        succ = graph.successors(i)
        if not succ:
            actions[i] = (b >= policy.fa_cost / (policy.fa_cost + policy.miss_cost)).astype(int)
            continue
        cand = np.stack([
            lam * graph.nodes[n].on_cost
            + expected_next(
                policy.grid, policy.value_tables[n].values, belief_transition(graph.nodes[n].model, b)
            )
            for n in succ
        ])
        go = cand.min(axis=0) <= policy.miss_cost * b + lam * policy.stop_off_costs[i]
        actions[i] = np.where(go, np.asarray(succ)[cand.argmin(axis=0)], 0)
    return actions


def best_structured_risk(graph, miss, fa, lam, prior, tau_grid) -> float:
    """Exact optimum over fixed-route threshold policies on a diamond.

    A structured policy picks one branch at the root once and for all and a
    stop threshold per internal node from `tau_grid`; terminals declare at
    the exact cost ratio.  Richer belief-dependent routing is out of scope
    here on purpose: the solver must do at least this well.
    """
    tau_term = fa / (fa + miss)
    dstop = downstream_off_costs(graph)

    def term(b: float) -> float:
        return fa * (1.0 - b) if b >= tau_term else miss * b

    best = np.inf
    root = graph.root
    m_root = graph.nodes[root].model
    root_atoms = [
        (posterior_update(prior, m_root, y), evidence(prior, m_root, y))
        for y in range(m_root.alphabet_size)
    ]
    for mid in graph.successors(root):
        (sink,) = graph.successors(mid)
        m_mid, m_sink = graph.nodes[mid].model, graph.nodes[sink].model
        on_mid, on_sink = graph.nodes[mid].on_cost, graph.nodes[sink].on_cost

        # Continuation value of entering the sink: independent of thresholds.
        def sink_value(b: float) -> float:
            acc = lam * on_sink
            for y in range(m_sink.alphabet_size):
                ev = evidence(b, m_sink, y)
                if ev > 0.0:
                    acc += ev * term(posterior_update(b, m_sink, y))
            return acc

        mid_atoms = {}
        for b1, w1 in root_atoms:
            if w1 > 0.0:
                mid_atoms[b1] = [
                    (posterior_update(b1, m_mid, y), evidence(b1, m_mid, y))
                    for y in range(m_mid.alphabet_size)
                ]
        sink_cache = {}
        for atoms in mid_atoms.values():
            for b2, w2 in atoms:
                if w2 > 0.0 and b2 not in sink_cache:
                    sink_cache[b2] = sink_value(b2)

        for t_mid in tau_grid:
            # Value of entering `mid` from each possible root posterior.
            enter_mid = {}
            for b1, atoms in mid_atoms.items():
                acc = lam * on_mid
                for b2, w2 in atoms:
                    if w2 <= 0.0:
                        continue
                    if b2 < t_mid:
                        acc += w2 * (miss * b2 + lam * dstop[mid])
                    else:
                        acc += w2 * sink_cache[b2]
                enter_mid[b1] = acc
            for t_root in tau_grid:
                total = lam * graph.nodes[root].on_cost
                for b1, w1 in root_atoms:
                    if w1 <= 0.0:
                        continue
                    if b1 < t_root:
                        total += w1 * (miss * b1 + lam * dstop[root])
                    else:
                        total += w1 * enter_mid[b1]
                best = min(best, total)
    return float(best)


def path_graph_from(spec):
    nodes = {i + 1: s for i, s in enumerate(spec.stages)}
    edges = {i: (i + 1,) for i in range(1, len(spec.stages))}
    return DetectionGraph(nodes=nodes, edges=edges, root=1)


class TestTopology:
    def test_post_order_visits_children_ascending(self, rng):
        nodes = {i: StageSpec(model=random_model(rng, 4), on_cost=float(i)) for i in range(1, 10)}
        g = DetectionGraph(
            nodes=nodes,
            edges={1: (2, 3, 4, 5), 2: (6, 7, 8), 6: (9,)},
            root=1,
        )
        assert post_order(g) == [9, 6, 7, 8, 2, 3, 4, 5, 1]

    def test_every_successor_precedes_its_parent(self):
        g = diamond_graph()
        order = post_order(g)
        pos = {n: i for i, n in enumerate(order)}
        for i, succ in g.edges.items():
            for n in succ:
                assert pos[n] < pos[i]

    def test_cycle_rejected(self, rng):
        nodes = {i: StageSpec(model=random_model(rng, 4), on_cost=1.0) for i in (1, 2)}
        with pytest.raises(ModelFormatError):
            DetectionGraph(nodes=nodes, edges={1: (2,), 2: (1,)}, root=1)

    def test_unreachable_node_rejected(self, rng):
        nodes = {i: StageSpec(model=random_model(rng, 4), on_cost=1.0) for i in (1, 2, 3)}
        with pytest.raises(ModelFormatError):
            DetectionGraph(nodes=nodes, edges={1: (2,)}, root=1)

    def test_duplicate_successor_rejected(self, rng):
        nodes = {i: StageSpec(model=random_model(rng, 4), on_cost=1.0) for i in (1, 2)}
        with pytest.raises(ModelFormatError):
            DetectionGraph(nodes=nodes, edges={1: (2, 2)}, root=1)

    def test_shared_sink_idle_cost_counted_once(self):
        g = diamond_graph()
        dstop = downstream_off_costs(g)
        offs = {i: g.nodes[i].off_cost for i in g.nodes}
        assert dstop[1] == pytest.approx(offs[2] + offs[3] + offs[4], abs=1e-15)
        assert dstop[2] == pytest.approx(offs[4], abs=1e-15)
        assert dstop[3] == pytest.approx(offs[4], abs=1e-15)
        assert dstop[4] == 0.0

    @pytest.mark.parametrize("weight", [float("inf"), float("nan"), -1.0])
    def test_energy_weight_must_be_finite_and_nonnegative(self, weight):
        with pytest.raises(ModelFormatError):
            solve_graph(
                diamond_graph(), miss_cost=3.0, fa_cost=1.0, energy_weight=weight, prior=0.1
            )

    @pytest.mark.parametrize("costs", [(float("inf"), 1.0), (3.0, float("inf"))])
    def test_error_costs_must_be_finite(self, costs):
        with pytest.raises(ModelFormatError):
            solve_graph(diamond_graph(), *costs, energy_weight=0.002, prior=0.1)

    def test_terminal_ids(self):
        g = diamond_graph()
        assert [i for i in sorted(g.nodes) if g.is_terminal(i)] == [4]


class TestPathEquivalence:
    def test_path_graph_maps_stage_k_to_node_k_plus_1(self, rng):
        spec = random_system(rng, n_stages=4)
        g = path_graph(spec)
        assert g.root == 1
        assert g.edges == {1: (2,), 2: (3,), 3: (4,)}
        assert all(g.nodes[k + 1] is stage for k, stage in enumerate(spec.stages))

    def test_chain_graph_reproduces_cascade(self, rng):
        # A linear DAG and the stage solver describe the same system; the
        # value tables and the total must agree exactly, not to grid error.
        for _ in range(3):
            spec = random_system(rng, n_stages=3)
            policy = solve(spec)
            g = path_graph_from(spec)
            gp = solve_graph(
                g,
                miss_cost=spec.miss_cost,
                fa_cost=spec.fa_cost,
                energy_weight=spec.energy_weight,
                prior=spec.prior,
            )
            assert gp.v0 == pytest.approx(policy.v0, abs=1e-12)
            for i, table in enumerate(policy.value_tables):
                np.testing.assert_allclose(
                    gp.value_tables[i + 1].values, table.values, atol=1e-12
                )

    def test_cascade_thresholds_are_path_graph_stop_thresholds(self, rng):
        for k in (2, 3, 4, 5):
            spec = random_system(rng, n_stages=k)
            gp = solve_graph(
                path_graph_from(spec),
                miss_cost=spec.miss_cost,
                fa_cost=spec.fa_cost,
                energy_weight=spec.energy_weight,
                prior=spec.prior,
            )
            raw = solve(spec).raw_thresholds
            assert raw[:-1] == tuple(gp.stop_thresholds[i] for i in range(1, k))

    def test_ties_continue_at_zero_energy_weight(self):
        # With energy free, continuing never costs more than stopping, so
        # the whole grid ties or prefers continuing: the first stage's raw
        # threshold is the lowest grid belief in both solvers.
        spec, _ = monitoring_system(energy_weight=0.0)
        gp = solve_graph(
            path_graph_from(spec),
            miss_cost=spec.miss_cost,
            fa_cost=spec.fa_cost,
            energy_weight=0.0,
            prior=spec.prior,
        )
        assert gp.stop_thresholds[1] == 0.0
        assert solve(spec).raw_thresholds[0] == 0.0

    def test_single_node_graph_prices_declarations(self, rng):
        from guidedproc import single_stage_risks

        m = random_model(rng, 16)
        node = StageSpec(model=m, on_cost=2.0)
        g = DetectionGraph(nodes={1: node}, edges={}, root=1)
        gp = solve_graph(g, miss_cost=3.0, fa_cost=1.0, energy_weight=0.01, prior=0.2)
        r_miss, r_fa = single_stage_risks(m, 0.2, 3.0, 1.0)
        exact = 0.01 * 2.0 + r_miss + r_fa
        assert gp.v0 <= exact + 1e-12
        assert exact - gp.v0 <= 1e-4


class TestDiamond:
    GRID = BeliefGrid(size=51)

    def solve_fixture(self):
        g = diamond_graph()
        gp = solve_graph(
            g, miss_cost=3.0, fa_cost=1.0, energy_weight=0.002, prior=0.1, grid=self.GRID
        )
        return g, gp

    def test_solver_at_least_matches_structured_policies(self):
        # The DP may route by belief, so it must not lose to any fixed-route
        # threshold policy evaluated exactly.
        g, gp = self.solve_fixture()
        structured = best_structured_risk(
            g, miss=3.0, fa=1.0, lam=0.002, prior=0.1, tau_grid=self.GRID.points
        )
        deployed = exact_policy_risk(g, gp, 0.1)
        assert gp.v0 <= structured + 1e-12
        assert gp.v0 <= deployed + 1e-12
        # The grid is coarse, yet the deployed rule should stay competitive.
        assert deployed <= structured + 5e-3

    def test_root_uses_both_branches(self):
        # The fixture is designed so belief-dependent routing matters: the
        # strong branch works the uncertain middle and the cheap branch is
        # enough to confirm already-high beliefs.
        _, gp = self.solve_fixture()
        root_dec = graph_mod.route(*gp.routes[1], gp.grid.points)
        assert (root_dec == 2).any()
        assert (root_dec == 3).any()
        assert (root_dec == 0).any()

    @pytest.mark.parametrize("size", [51, 101])
    def test_every_grid_point_routes_by_its_own_action(self, size):
        # floor(pi * (M - 1)) rounds grid point 29 of 51, and points 29 and
        # 58 of 101, down onto their left neighbours
        grid = BeliefGrid(size=size)
        gp = solve_graph(
            diamond_graph(), miss_cost=3.0, fa_cost=1.0, energy_weight=0.002, prior=0.1, grid=grid
        )
        b = grid.points
        assert gp.routes[1][1].tolist() == [0, 3, 2]  # stop, node 3, node 2: not monotone
        for node, table in grid_actions(diamond_graph(), gp).items():
            for j, pi in enumerate(b.tolist()):
                assert graph_mod.route(*gp.routes[node], pi) == table[j]
            # the floor rule: just below a grid point, its left neighbour acts
            np.testing.assert_array_equal(graph_mod.route(*gp.routes[node], b), table)
            below = np.nextafter(b[1:], 0.0)
            np.testing.assert_array_equal(graph_mod.route(*gp.routes[node], below), table[:-1])

    def test_decision_tables_follow_thresholds(self):
        # Below the stop threshold the action is stop, at and above it the
        # node hands off; the threshold recorded must be the first go point.
        _, gp = self.solve_fixture()
        for i in (1, 2, 3):
            b = gp.grid.points
            dec = graph_mod.route(*gp.routes[i], b)
            tau = gp.stop_thresholds[i]
            np.testing.assert_array_equal(dec == 0, b < tau)

    def test_tied_successors_route_to_the_lowest_id(self):
        # nodes 2 and 3 are the same detector: every continuing belief
        # ties, and the tie goes to the smallest successor id
        g = diamond_graph()
        twin = DetectionGraph(nodes={**g.nodes, 3: g.nodes[2]}, edges=g.edges, root=1)
        gp = solve_graph(twin, miss_cost=3.0, fa_cost=1.0, energy_weight=0.002, prior=0.1)
        root = graph_mod.route(*gp.routes[1], gp.grid.points)
        assert set(root.tolist()) == {0, 2}

    def test_shared_successor_propagated_once(self, monkeypatch, cold_memo):
        # Node 4 feeds both 2 and 3; its continuation table is built once
        # and reused, so each node's transition is built once and goes
        # through the grid propagation once (the root at the prior).  On a
        # cold memo the terminal node 4 is built too; a second solve reads
        # its table from the memo and builds only 2, 3 and 1.
        g = diamond_graph()
        node_of = {id(st.model): i for i, st in g.nodes.items()}
        built, propagated, node_of_pair = [], [], {}
        build, propagate = graph_mod.belief_transition, graph_mod.expected_next

        def building(model, beliefs):
            pair = build(model, beliefs)
            built.append(node_of[id(model)])
            node_of_pair[id(pair)] = built[-1]
            return pair

        def propagating(grid, tables, transition):
            propagated.append(node_of_pair[id(transition)])
            return propagate(grid, tables, transition)

        monkeypatch.setattr(graph_mod, "belief_transition", building)
        monkeypatch.setattr(graph_mod, "expected_next", propagating)
        solve_graph(g, miss_cost=3.0, fa_cost=1.0, energy_weight=0.002, prior=0.1, grid=self.GRID)
        assert built == propagated == [4, 2, 3, 1]
        built.clear()
        propagated.clear()
        solve_graph(g, miss_cost=3.0, fa_cost=1.0, energy_weight=0.002, prior=0.1, grid=self.GRID)
        assert built == propagated == [2, 3, 1]


@pytest.mark.usefixtures("cold_memo")
class TestTerminalMemo:
    GRID = BeliefGrid(size=51)

    def onward(self, model, size=GRID.size, miss_cost=3.0, fa_cost=1.0, cut=None):
        """The entry at `cut`, by default the solver's fa / (fa + miss)."""
        cut = fa_cost / (fa_cost + miss_cost) if cut is None else cut
        return graph_mod._terminal_onward(model, size, miss_cost, fa_cost, cut)

    def test_rows_are_the_declaration_table_and_its_parts(self, rng):
        # row 0 is what the solver propagates; rows 1 and 2 are the miss and
        # false-alarm parts, each carried through the grid transition alone
        b = self.GRID.points
        for cut in (0.25, 0.5, b[20], 1.0):
            model = random_model(rng)
            rows = self.onward(model, cut=cut)
            positive = b >= cut
            parts = (
                np.where(positive, 1.0 - b, 3.0 * b),
                np.where(positive, 0.0, 3.0 * b),
                np.where(positive, 1.0 - b, 0.0),
            )
            pair = belief_transition(model, b)
            for row, part in zip(rows, parts, strict=True):
                assert np.array_equal(row, expected_next(self.GRID, part, pair))
        solver = self.onward(model)
        declared = expected_next(self.GRID, np.where(b >= 0.25, 1.0 - b, 3.0 * b), pair)
        assert np.array_equal(solver[0], declared)

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        pmf_pairs(),
        st.integers(2, 400),
        st.floats(0.01, 100.0),
        st.floats(0.01, 100.0),
        st.floats(0.0, 1.0),
    )
    def test_a_hit_is_a_fresh_build(self, model, size, miss_cost, fa_cost, cut):
        # a content-equal copy reads the stored entry, whose floats an
        # uncached build computes again
        first = self.onward(model, size, miss_cost, fa_cost, cut)
        copy = FeatureModel(p0=model.p0.copy(), p1=model.p1.copy())
        ahead = self.onward(copy, size, miss_cost, fa_cost, cut)
        assert ahead is first
        assert not ahead.flags.writeable and ahead.shape == (3, size)
        fresh = graph_mod._terminal_onward.__wrapped__(model, size, miss_cost, fa_cost, cut)
        assert np.array_equal(ahead, fresh)

    def test_a_content_equal_model_hits(self, rng, cold_memo):
        model = random_model(rng)
        first = self.onward(model)
        assert self.onward(FeatureModel(p0=model.p0.copy(), p1=model.p1.copy())) is first
        assert cold_memo().currsize == 1

    def test_each_price_and_grid_size_is_its_own_entry(self, rng, cold_memo):
        model = random_model(rng)
        first = self.onward(model)
        others = [
            self.onward(model, miss_cost=3.5),
            self.onward(model, fa_cost=1.5),
            self.onward(model, size=52),
            self.onward(random_model(rng)),
            self.onward(model, cut=0.5),
        ]
        assert all(o is not first for o in others) and cold_memo().currsize == 6
        assert self.onward(model) is first

    def test_entries_are_read_only_and_bounded(self, rng, cold_memo):
        model = random_model(rng)
        costs = [1.0 + k for k in range(3 * graph_mod.TERMINAL_MEMO_ENTRIES)]
        for miss in costs:
            ahead = self.onward(model, miss_cost=miss)
            assert not ahead.flags.writeable and ahead.shape == (3, self.GRID.size)
            assert cold_memo().currsize <= graph_mod.TERMINAL_MEMO_ENTRIES
        # the oldest entries went first: the newest all hit, and fill the memo
        kept = costs[-graph_mod.TERMINAL_MEMO_ENTRIES :]
        before = cold_memo()
        for miss in kept:
            self.onward(model, miss_cost=miss)
        after = cold_memo()
        assert (after.hits - before.hits, after.misses, after.currsize) == (
            len(kept), len(costs), graph_mod.TERMINAL_MEMO_ENTRIES
        )

    def test_threads_share_the_memo(self, rng, cold_memo):
        # four threads build and evict over one key set at a short switch
        # interval: no error, no entry past the bound, every table the same
        model = random_model(rng)
        costs = [1.0 + k for k in range(2 * graph_mod.TERMINAL_MEMO_ENTRIES)]
        expected = {c: self.onward(model, miss_cost=c).copy() for c in costs}
        graph_mod._terminal_onward.cache_clear()
        errors, sizes = [], []

        def work(order):
            try:
                for c in order:
                    assert np.array_equal(self.onward(model, miss_cost=c), expected[c])
                    sizes.append(cold_memo().currsize)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(costs[k:] + costs[:k],)) for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(sizes) == 4 * len(costs)
        assert max(sizes) <= graph_mod.TERMINAL_MEMO_ENTRIES

    def test_a_refused_build_leaves_no_entry(self, monkeypatch, cold_memo):
        monkeypatch.setattr(models, "MAX_TRANSITION_BYTES", 16)
        with pytest.raises(WorkSizeError):
            solve_graph(
                diamond_graph(), miss_cost=3.0, fa_cost=1.0, energy_weight=0.002, prior=0.1,
                grid=self.GRID,
            )
        assert cold_memo().currsize == 0
