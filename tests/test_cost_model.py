"""Tests for the cost models (repro.core.cost_model).

Includes executable versions of the paper's Theorems 1 and 2 (the
CPG↔JQPG cost equalities) and of Appendix A (ASI property of the
order-based cost functions).
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from repro.core import cost_model as cm
from repro.core.cost_model import Objective, OrderIndex, SubsetTables
from repro.core.pattern import Op, Predicate, conj, seq
from repro.core.plans import OrderPlan, TreePlan, all_tree_plans, left_deep_tree
from repro.core.stats import PatternStats
from tests.util import random_pattern, random_stats

RATES = {"A": 2.0, "B": 5.0, "C": 0.5, "D": 8.0, "E": 1.0}


def perms(n):
    return list(itertools.permutations(range(n)))


# ---------------------------------------------------------------------------
# Closed-form checks of Cost_ord / Cost_tree on hand-computed examples
# ---------------------------------------------------------------------------


class TestClosedForm:
    def test_cost_ord_pure_conj(self):
        # AND(A, B) window 10, sel(A,B)=0.1: PM = 20 + 20·50·0.1 = 120
        st = PatternStats.from_pattern(
            conj("AB", (Predicate(0, 1, sel=0.1),), window=10.0), RATES
        )
        assert cm.cost_ord(OrderPlan((0, 1)), st) == pytest.approx(120.0)
        assert cm.cost_ord(OrderPlan((1, 0)), st) == pytest.approx(150.0)

    def test_cost_ord_seq_exact(self):
        # SEQ(A, B): second prefix gets the 1/2 ordering factor.
        st = PatternStats.from_pattern(seq("AB", window=10.0), RATES)
        assert cm.cost_ord(OrderPlan((0, 1)), st) == pytest.approx(20 + 500)
        assert cm.cost_ord(OrderPlan((1, 0)), st) == pytest.approx(50 + 500)

    def test_cost_tree_three_leaves(self):
        st = PatternStats.from_pattern(
            conj("ABC", (Predicate(0, 2, sel=0.1),), window=10.0), RATES
        )
        plan = left_deep_tree((0, 2, 1))
        # leaves: 20, 5, 50; node(A,C): 20·5·0.1 = 10; root: 10·50 = 500
        assert cm.cost_tree(plan, st) == pytest.approx(20 + 5 + 50 + 10 + 500)

    def test_cost_ord_lat(self):
        st = PatternStats.from_pattern(seq("ABC", window=10.0), RATES)
        # temporally last type C (planning pos 2); order (2,0,1): A,B follow
        assert cm.cost_lat(OrderPlan((2, 0, 1)), st) == pytest.approx(70.0)
        assert cm.cost_lat(OrderPlan((0, 1, 2)), st) == 0.0

    def test_cost_ord_lat_conjunction_is_zero(self):
        st = PatternStats.from_pattern(conj("ABC", window=10.0), RATES)
        assert cm.cost_lat(OrderPlan((2, 0, 1)), st) == 0.0

    def test_cost_tree_lat(self):
        st = PatternStats.from_pattern(seq("ABC", window=10.0), RATES)
        plan = left_deep_tree((2, 0, 1))  # ((C ⋈ A) ⋈ B), T_n = C
        # ancestors of C: node(C,A) sibling=leaf A (PM=20·1/2... no —
        # sibling PM is the leaf PM of A = 20); root sibling=leaf B (50).
        assert cm.cost_lat(plan, st) == pytest.approx(70.0)

    def test_cost_tree_lat_last_on_top(self):
        st = PatternStats.from_pattern(seq("ABC", window=10.0), RATES)
        plan = left_deep_tree((0, 1, 2))  # ((A ⋈ B) ⋈ C)
        # only ancestor of C is the root; sibling = node(A,B), PM = 20·50/2
        assert cm.cost_lat(plan, st) == pytest.approx(500.0)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_latency_scan_shapes(self, n):
        # Disjoint masks: an order scans the positions after T_n, a tree
        # one node per ancestor of T_n, together every other position.
        st = random_stats(n, n, op=Op.SEQ, temporal_mode="exact")
        last = st.last_seq_position
        for order in perms(n):
            scan = cm.latency_scan(OrderPlan(order), st)
            assert scan == [1 << t for t in order[order.index(last) + 1 :]]
        for plan in all_tree_plans(n):
            scan = cm.latency_scan(plan, st)
            covered = 0
            for m in scan:
                assert m & covered == 0
                covered |= m
            assert covered == (1 << n) - 1 ^ 1 << last
            assert set(scan) <= {node.mask for node in plan.root.nodes()}

    def test_latency_scan_of_conjunction_is_empty(self):
        st = random_stats(4, 0, op=Op.AND)
        assert cm.latency_scan(OrderPlan((3, 0, 1, 2)), st) == []
        assert cm.latency_scan(left_deep_tree((3, 0, 1, 2)), st) == []

    def test_cost_ord_next(self):
        st = PatternStats.from_pattern(
            conj("AB", (Predicate(0, 1, sel=0.1),), window=10.0), RATES
        )
        # m[1]=20, m[2]=min(20,50)·0.1=2 → W·(20+2) = 220
        assert cm.cost_ord_next(OrderPlan((0, 1)), st) == pytest.approx(220.0)

    def test_cost_tree_next(self):
        st = PatternStats.from_pattern(
            conj("AB", (Predicate(0, 1, sel=0.1),), window=10.0), RATES
        )
        plan = left_deep_tree((0, 1))
        assert cm.cost_tree_next(plan, st) == pytest.approx(20 + 50 + 2)


# ---------------------------------------------------------------------------
# Theorem 1 / Theorem 2: CPG cost == JQPG cost under the reduction
# ---------------------------------------------------------------------------


class TestTheorems:
    @pytest.mark.parametrize("seed", range(8))
    def test_theorem1_cost_ord_equals_cost_ldj(self, seed):
        st = random_stats(5, seed, op=Op.AND)
        for p in perms(5):
            plan = OrderPlan(p)
            a, b = cm.cost_ord(plan, st), cm.cost_ldj(plan, st)
            assert a == pytest.approx(b, rel=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_theorem1_same_minimizer(self, seed):
        st = random_stats(5, seed, op=Op.AND)
        by_ord = min(perms(5), key=lambda p: cm.cost_ord(OrderPlan(p), st))
        by_ldj = min(perms(5), key=lambda p: cm.cost_ldj(OrderPlan(p), st))
        assert cm.cost_ord(OrderPlan(by_ord), st) == pytest.approx(
            cm.cost_ord(OrderPlan(by_ldj), st), rel=1e-9
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_theorem2_cost_tree_equals_cost_bj(self, seed):
        st = random_stats(4, seed, op=Op.AND)
        for t in all_tree_plans(4):
            assert cm.cost_tree(t, st) == pytest.approx(
                cm.cost_bj(t, st), rel=1e-9
            )

    def test_theorem1_reduction_applies_to_pairwise_seq(self):
        """Theorem 3 + Theorem 1: a SEQ pattern reduced via pairwise ts
        predicates is a pure conjunctive instance, so Cost_LDJ applies."""
        st = random_stats(5, 3, op=Op.SEQ, temporal_mode="pairwise")
        for p in perms(5)[:24]:
            plan = OrderPlan(p)
            assert cm.cost_ord(plan, st) == pytest.approx(
                cm.cost_ldj(plan, st), rel=1e-9
            )

    def test_ldj_rejects_exact_temporal_mode(self):
        st = random_stats(3, 0, op=Op.SEQ, temporal_mode="exact")
        with pytest.raises(ValueError):
            cm.cost_ldj(OrderPlan((0, 1, 2)), st)
        with pytest.raises(ValueError):
            cm.cost_bj(left_deep_tree((0, 1, 2)), st)

    @given(hs.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_theorem1_hypothesis(self, seed):
        st = random_stats(4, seed, op=Op.AND, pred_prob=0.7)
        for p in perms(4):
            plan = OrderPlan(p)
            assert cm.cost_ord(plan, st) == pytest.approx(
                cm.cost_ldj(plan, st), rel=1e-9
            )

    @given(hs.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_theorem2_hypothesis(self, seed):
        st = random_stats(4, seed, op=Op.AND, pred_prob=0.7)
        for t in all_tree_plans(4):
            assert cm.cost_tree(t, st) == pytest.approx(
                cm.cost_bj(t, st), rel=1e-9
            )

    def test_left_deep_tree_cost_matches_order_cost_plus_leaves(self):
        """Cost_tree of a left-deep tree = Cost_ord + the leaf PMs of the
        non-first leaves (the tree model buffers each leaf; the order
        model's first prefix coincides with the first leaf)."""
        st = random_stats(5, 11, op=Op.AND)
        for p in perms(5)[:12]:
            tree_c = cm.cost_tree(left_deep_tree(p), st)
            ord_c = cm.cost_ord(OrderPlan(p), st)
            leaf_extra = sum(
                st.counts[i] * st.sel[i, i] for i in p[1:]
            )
            assert tree_c == pytest.approx(ord_c + leaf_extra, rel=1e-9)


# ---------------------------------------------------------------------------
# Appendix A: ASI property
# ---------------------------------------------------------------------------


def _star_stats(n, seed):
    """A star query graph rooted at position 0 (acyclic, as Appendix A needs)."""
    g = np.random.default_rng(seed)
    preds = tuple(
        Predicate(0, j, kind="diff_lt", sel=float(g.uniform(0.05, 0.95)))
        for j in range(1, n)
    )
    pat = conj([f"T{i}" for i in range(n)], preds, window=10.0)
    rates = {f"T{i}": float(10 ** g.uniform(-1, 1)) for i in range(n)}
    return PatternStats.from_pattern(pat, rates)


class TestASI:
    @pytest.mark.parametrize("seed", range(6))
    def test_cost_ord_trpt_asi(self, seed):
        """Theorem 5: rank(s) = (T(s)−1)/C(s) witnesses the ASI property."""
        st = _star_stats(6, seed)

        def T(s):
            v = 1.0
            for i in s:
                v *= st.counts[i] * st.sel[0, i]
            return v

        def C(s):
            v, acc = 0.0, 1.0
            for i in s:
                acc *= st.counts[i] * st.sel[0, i]
                v += acc
            return v

        def rank(s):
            return (T(s) - 1.0) / C(s)

        rest = list(range(1, 6))
        rng = np.random.default_rng(seed)
        for _ in range(40):
            rng.shuffle(rest)
            cut1 = rng.integers(1, 4)
            cut2 = rng.integers(cut1 + 1, 5)
            u, v = tuple(rest[:cut1]), tuple(rest[cut1:cut2])
            b = tuple(rest[cut2:])
            a = (0,)
            c_uv = cm.cost_ord(OrderPlan(a + u + v + b), st)
            c_vu = cm.cost_ord(OrderPlan(a + v + u + b), st)
            if abs(rank(u) - rank(v)) < 1e-12:
                continue
            assert (c_uv <= c_vu + 1e-9 * abs(c_vu)) == (rank(u) <= rank(v))

    @pytest.mark.parametrize("seed", range(6))
    def test_cost_ord_lat_asi(self, seed):
        """Theorem 6: the interchange property of Cost^lat_ord."""
        pat, rates = random_pattern(6, seed, op=Op.SEQ, pred_prob=0.0)
        st = PatternStats.from_pattern(pat, rates)
        last = st.last_seq_position
        rng = np.random.default_rng(seed + 99)
        idx = list(range(6))
        for _ in range(40):
            rng.shuffle(idx)
            cut0 = rng.integers(0, 2)
            cut1 = rng.integers(cut0 + 1, 4)
            cut2 = rng.integers(cut1 + 1, 6)
            a, u, v, b = (
                tuple(idx[:cut0]),
                tuple(idx[cut0:cut1]),
                tuple(idx[cut1:cut2]),
                tuple(idx[cut2:]),
            )
            c_uv = cm.cost_lat(OrderPlan(a + u + v + b), st)
            c_vu = cm.cost_lat(OrderPlan(a + v + u + b), st)
            if last in u:
                # rank(u) >= rank(v) = 0 — Theorem 6 case 3
                assert c_vu <= c_uv + 1e-9
            elif last in v:
                # rank(v) >= rank(u) = 0 — Theorem 6 case 2
                assert c_uv <= c_vu + 1e-9
            else:
                # rank(u) = rank(v) = 0 — Theorem 6 case 1
                assert c_uv == pytest.approx(c_vu)


# ---------------------------------------------------------------------------
# Objective: normalization, strategies, decomposability, SubsetTables
# ---------------------------------------------------------------------------


class TestObjective:
    def test_alpha_zero_any_matches_cost_ord(self):
        st = random_stats(5, 1, op=Op.SEQ, temporal_mode="exact")
        obj = Objective(st)
        for p in perms(5)[:30]:
            plan = OrderPlan(p)
            assert obj.order_cost(plan) == pytest.approx(
                cm.cost_ord(plan, st) / obj.trpt_ref, rel=1e-9
            )

    def test_alpha_zero_any_matches_cost_tree(self):
        st = random_stats(4, 2, op=Op.SEQ, temporal_mode="exact")
        obj = Objective(st)
        for t in all_tree_plans(4):
            assert obj.tree_cost(t) == pytest.approx(
                cm.cost_tree(t, st) / obj.trpt_ref, rel=1e-9
            )

    def test_next_strategy_matches_cost_ord_next(self):
        st = random_stats(5, 3, op=Op.AND)
        obj = Objective(st, strategy="next")
        for p in perms(5)[:30]:
            plan = OrderPlan(p)
            assert obj.order_cost(plan) == pytest.approx(
                cm.cost_ord_next(plan, st) / obj.trpt_ref, rel=1e-9
            )

    def test_next_strategy_matches_cost_tree_next(self):
        st = random_stats(4, 4, op=Op.AND)
        obj = Objective(st, strategy="next")
        for t in all_tree_plans(4):
            assert obj.tree_cost(t) == pytest.approx(
                cm.cost_tree_next(t, st) / obj.trpt_ref, rel=1e-9
            )

    def test_hybrid_order_cost_combines_terms(self):
        st = random_stats(5, 5, op=Op.SEQ, temporal_mode="exact")
        obj = Objective(st, alpha=0.7)
        for p in perms(5)[:30]:
            plan = OrderPlan(p)
            expected = cm.cost_ord(plan, st) / obj.trpt_ref + 0.7 * cm.cost_lat(
                plan, st
            ) / obj.lat_ref
            assert obj.order_cost(plan) == pytest.approx(expected, rel=1e-9)

    def test_hybrid_tree_cost_combines_terms(self):
        st = random_stats(4, 6, op=Op.SEQ, temporal_mode="exact")
        obj = Objective(st, alpha=0.5)
        for t in all_tree_plans(4):
            expected = cm.cost_tree(t, st) / obj.trpt_ref + 0.5 * cm.cost_lat(
                t, st
            ) / obj.lat_ref
            assert obj.tree_cost(t) == pytest.approx(expected, rel=1e-9)

    def test_hybrid_order_cost_beyond_64_positions(self):
        # Plan positions past bit 63 of an int64 mask.
        pat, rates = random_pattern(70, 11, op=Op.SEQ, window=1.0)
        st = PatternStats.from_pattern(pat, rates, temporal_mode="exact")
        obj = Objective(st, alpha=0.5)
        g = np.random.default_rng(0)
        for _ in range(5):
            plan = OrderPlan(tuple(int(i) for i in g.permutation(70)))
            expected = cm.cost_ord(plan, st) / obj.trpt_ref + 0.5 * cm.cost_lat(
                plan, st
            ) / obj.lat_ref
            assert obj.order_cost(plan) == pytest.approx(expected, rel=1e-9)

    def test_trivial_plan_normalizes_to_one(self):
        st = random_stats(5, 7, op=Op.SEQ, temporal_mode="exact")
        obj = Objective(st)
        assert obj.order_cost(OrderPlan(tuple(range(5)))) == pytest.approx(1.0)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            Objective(random_stats(3, 0), strategy="bogus")

    @pytest.mark.parametrize("mode", ["exact", "pairwise", "none"])
    @pytest.mark.parametrize("strategy", ["any", "next"])
    def test_one_recurrence_three_shapes_bitwise(self, mode, strategy):
        # prefix_pms, the batched rows of order_costs and the subset tables
        # apply the same float operations in the same order: equal with ==.
        n = 7
        next_match = strategy == "next"
        op = Op.AND if mode == "none" else Op.SEQ
        for seed in range(8):
            st = random_stats(n, seed, op=op, temporal_mode=mode)
            obj = Objective(st, alpha=0.3, strategy=strategy)
            tables = SubsetTables(obj)
            table = tables.pm_next if next_match else tables.pm_any
            # Every subset, as the ascending prefix of an order.
            masks = range(1, 1 << n)
            members = [[i for i in range(n) if m >> i & 1] for m in masks]
            orders = np.array([ms + [i for i in range(n) if i not in ms] for ms in members])
            rows = obj.prefix_pm_rows(orders)
            for m, ms, row in zip(masks, members, rows):
                assert st.prefix_pms(ms, next_match)[-1] == row[len(ms) - 1] == table[m]
                assert st.pm_of_mask(m, next_match) == table[m]
                assert tables.prefix_pm(m) == obj.prefix_pm(m)
                assert tables.node_pm(m) == obj.node_pm(m)
            # Random orders, every prefix.
            g = np.random.default_rng(seed)
            orders = np.array([g.permutation(n) for _ in range(40)])
            for order, row in zip(orders, obj.prefix_pm_rows(orders)):
                assert st.prefix_pms(order.tolist(), next_match) == row.tolist()
            assert tables.lat_combine(0b0000011, 0b1111100) == obj.lat_combine(
                0b0000011, 0b1111100
            )

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("strategy", ["any", "next"])
    def test_node_terms_on_arrays_are_scalar_calls(self, strategy, alpha):
        # DP-B costs a layer's nodes and splits as arrays, ZStream one at a
        # time: the same terms, equal with ==.
        n = 6
        st = random_stats(n, 5, op=Op.SEQ, temporal_mode="exact")
        obj = Objective(st, alpha=alpha, strategy=strategy)
        tables = SubsetTables(obj)
        masks = np.arange(1, 1 << n)
        node = tables.node_pm(masks)
        for m, v in zip(masks.tolist(), node.tolist()):
            assert v == tables.node_pm(m) == obj.node_pm(m)
            assert type(obj.node_pm(m)) is float
        splits = [(s ^ r, r) for s in range(1, 1 << n) for r in range(1, s) if r & s == r]
        left, right = (np.array(side).reshape(-1, 2) for side in zip(*splits))
        lat = np.broadcast_to(tables.lat_combine(left, right), left.shape)
        for a, b, v in zip(left.flat, right.flat, lat.flat):
            a, b = int(a), int(b)
            assert v == tables.lat_combine(a, b) == obj.lat_combine(a, b)
            assert type(obj.lat_combine(a, b)) is float
        assert (lat != 0.0).any() == (alpha != 0.0)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_lat_step_on_arrays_is_scalar_calls(self, alpha):
        # DP-LD places a position after a layer of masks at once, GREEDY
        # after one mask: the same step, and a Python float for one mask.
        n = 5
        obj = Objective(random_stats(n, 7, op=Op.SEQ, temporal_mode="exact"), alpha=alpha)
        masks = np.arange(1 << n)
        for t in range(n):
            steps = np.broadcast_to(obj.lat_step(masks, t), masks.shape)
            for m, v in zip(masks.tolist(), steps.tolist()):
                assert v == obj.lat_step(m, t)
                assert type(obj.lat_step(m, t)) is float
            assert (steps != 0.0).any() == (alpha != 0.0 and t != obj.stats.last_seq_position)

    @pytest.mark.parametrize("mode", ["exact", "pairwise", "none"])
    @pytest.mark.parametrize("strategy", ["any", "next"])
    def test_partial_order_rows(self, mode, strategy):
        # A batch of partial orders: positions are the pattern's, not 0 … L−1.
        n = 5
        op = Op.AND if mode == "none" else Op.SEQ
        st = random_stats(n, 3, op=op, temporal_mode=mode)
        obj = Objective(st, strategy=strategy)
        next_match = strategy == "next"
        assert obj.prefix_pm_rows(np.array([[3, 4]]))[0].tolist() == st.prefix_pms([3, 4], next_match)
        g = np.random.default_rng(0)
        for length in range(1, n + 1):
            orders = np.array([g.permutation(n)[:length] for _ in range(10)])
            for order, row in zip(orders, obj.prefix_pm_rows(orders)):
                assert row.tolist() == st.prefix_pms(order.tolist(), next_match)

    def test_batch_rejects_bad_positions_and_pairings(self):
        # A negative position would index the counts like Python does but
        # wrap the flat factor index to another cell of the factor matrix.
        n = 5
        obj = Objective(random_stats(n, 3))
        for bad in ([[0, -1]], [[-1, 2, 3, 4, 0]], [[5, 0]]):
            with pytest.raises(ValueError):
                obj.prefix_pm_rows(np.array(bad))
            with pytest.raises(ValueError):
                obj.order_costs(np.array(bad))
        index = OrderIndex(np.array([[1, 0, 2, 3, 4]]), n)
        with pytest.raises(TypeError):
            obj.order_costs(index)
        with pytest.raises(TypeError):
            obj.prefix_pm_rows(np.array([[1, 0]]), np.arange(n))

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_subset_tables_layers(self, n):
        # DP-LD's and DP-B's tie-breaking relies on this order: every mask
        # once, layer p holding the masks of popcount p, ascending.
        layers = SubsetTables(Objective(random_stats(n, 0))).layers()
        assert len(layers) == n + 1
        assert sorted(np.concatenate(layers).tolist()) == list(range(1 << n))
        for p, layer in enumerate(layers):
            masks = layer.tolist()
            assert masks == sorted(masks)
            assert all(m.bit_count() == p for m in masks)

    def test_subset_tables_size_guard(self):
        with pytest.raises(ValueError):
            SubsetTables(Objective(random_stats(25, 0)))
