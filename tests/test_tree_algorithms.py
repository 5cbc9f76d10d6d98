"""Tests for the tree-based planners (repro.core.tree_algorithms)."""
import itertools
import math

import pytest

from repro.core import cost_model as cm
from repro.core import tree_algorithms
from repro.core.cost_model import Objective, SubsetTables
from repro.core.order_algorithms import greedy
from repro.core.pattern import Op, Predicate, conj, seq
from repro.core.plans import TreePlan, all_tree_plans, join, leaf, left_deep_tree
from repro.core.stats import PatternStats
from repro.core.tree_algorithms import TREE_ALGORITHMS, dp_b, zstream, zstream_ord
from tests.util import random_stats


def brute_force_trees(obj):
    return min(obj.tree_cost(t) for t in all_tree_plans(obj.stats.n))


def _contiguous_trees(order):
    """All full binary trees over a fixed left-to-right leaf sequence."""
    if len(order) == 1:
        yield leaf(order[0])
        return
    for k in range(1, len(order)):
        for lt in _contiguous_trees(order[:k]):
            for rt in _contiguous_trees(order[k:]):
                yield join(lt, rt)


def brute_force_contiguous(obj, leaf_order):
    """Optimal tree among those whose left-to-right leaves == leaf_order."""
    return min(
        obj.tree_cost(TreePlan(root)) for root in _contiguous_trees(tuple(leaf_order))
    )


def dp_b_scalar(obj):
    """DP-B as a scalar loop over each mask's splits: the reference that the
    layer-wise :func:`dp_b` must match plan for plan and bit for bit.

    The left side is ``low | sub`` for the submasks ``sub`` of the mask
    without its lowest bit, in descending order; a split replaces the best
    only if it is strictly cheaper, so the first minimum wins.
    """
    n = obj.stats.n
    tables = SubsetTables(obj)
    size = 1 << n
    cost = [math.inf] * size
    split = [0] * size
    for i in range(n):
        cost[1 << i] = tables.node_pm(1 << i)
    for mask in range(3, size):
        if mask.bit_count() < 2:
            continue
        low = mask & -mask
        rest = mask ^ low
        best, best_l = math.inf, 0
        sub = rest
        while True:
            left_mask = low | (sub & rest)
            right_mask = mask ^ left_mask
            if right_mask:
                c = (
                    cost[left_mask]
                    + cost[right_mask]
                    + tables.lat_combine(left_mask, right_mask)
                )
                if c < best:
                    best, best_l = c, left_mask
            if sub == 0:
                break
            sub = (sub - 1) & rest
        cost[mask] = tables.node_pm(mask) + best
        split[mask] = best_l

    def build(mask):
        if mask.bit_count() == 1:
            return leaf(mask.bit_length() - 1)
        l_mask = split[mask]
        return join(build(l_mask), build(mask ^ l_mask))

    return TreePlan(build(size - 1)), cost[size - 1]


def _symmetric_objectives(n, op):
    """Equal rates and no predicates, so that many splits tie exactly. A
    SEQ plans in the exact or pairwise mode, an AND in none."""
    pattern = (seq if op is Op.SEQ else conj)([f"T{i}" for i in range(n)], window=10.0)
    rates = {f"T{i}": 0.5 for i in range(n)}
    for mode in ("exact", "pairwise") if op is Op.SEQ else ("none",):
        stats = PatternStats.from_pattern(pattern, rates, temporal_mode=mode)
        for strategy in ("any", "next"):
            for alpha in (0.0, 0.5, 1.0):
                yield f"{mode}/{strategy}/{alpha}", Objective(stats, alpha=alpha, strategy=strategy)


class TestDPBMatchesScalarLoop:
    @pytest.mark.parametrize("op", [Op.SEQ, Op.AND])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_ties_break_as_the_scalar_loop(self, n, op):
        for case, obj in _symmetric_objectives(n, op):
            res = dp_b(obj)
            plan, cost = dp_b_scalar(obj)
            assert (res.plan, res.cost.hex()) == (plan, cost.hex()), case

    def test_row_chunks_change_nothing(self, monkeypatch):
        objs = [obj for _, obj in _symmetric_objectives(9, Op.SEQ)]
        objs.append(Objective(random_stats(9, 1, op=Op.SEQ, temporal_mode="exact"), alpha=0.5))
        whole = [dp_b(obj) for obj in objs]
        monkeypatch.setattr(tree_algorithms, "_SPLIT_CHUNK", 7)
        for obj, res in zip(objs, whole):
            chunked = dp_b(obj)
            assert (chunked.plan, chunked.cost.hex()) == (res.plan, res.cost.hex())


class TestDPB:
    @pytest.mark.parametrize("seed", range(8))
    def test_optimal_conjunction(self, seed):
        obj = Objective(random_stats(5, seed, op=Op.AND))
        assert dp_b(obj).cost == pytest.approx(brute_force_trees(obj), rel=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_optimal_sequence_exact(self, seed):
        obj = Objective(random_stats(5, seed, op=Op.SEQ, temporal_mode="exact"))
        assert dp_b(obj).cost == pytest.approx(brute_force_trees(obj), rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_optimal_with_latency(self, seed):
        obj = Objective(
            random_stats(4, seed, op=Op.SEQ, temporal_mode="exact"), alpha=0.5
        )
        assert dp_b(obj).cost == pytest.approx(brute_force_trees(obj), rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_optimal_next_strategy(self, seed):
        obj = Objective(random_stats(4, seed, op=Op.AND), strategy="next")
        assert dp_b(obj).cost == pytest.approx(brute_force_trees(obj), rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_never_worse_than_best_left_deep(self, seed):
        obj = Objective(random_stats(5, seed, op=Op.AND))
        best_ld = min(
            obj.tree_cost(left_deep_tree(p))
            for p in itertools.permutations(range(5))
        )
        assert dp_b(obj).cost <= best_ld + 1e-9 * best_ld

    def test_reported_cost_matches_plan(self):
        obj = Objective(random_stats(5, 3, op=Op.SEQ, temporal_mode="exact"))
        res = dp_b(obj)
        assert res.cost == pytest.approx(obj.tree_cost(res.plan), rel=1e-9)


class TestZStream:
    @pytest.mark.parametrize("seed", range(8))
    def test_optimal_among_fixed_leaf_order(self, seed):
        obj = Objective(random_stats(5, seed, op=Op.SEQ, temporal_mode="exact"))
        res = zstream(obj)
        assert res.plan.root.leaves_in_order() == (0, 1, 2, 3, 4)
        assert res.cost == pytest.approx(
            brute_force_contiguous(obj, range(5)), rel=1e-9
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_zstream_ord_uses_greedy_order(self, seed):
        obj = Objective(random_stats(5, seed, op=Op.AND))
        res = zstream_ord(obj)
        assert res.plan.root.leaves_in_order() == greedy(obj).plan.order

    @pytest.mark.parametrize("seed", range(6))
    def test_zstream_ord_optimal_on_its_order(self, seed):
        obj = Objective(random_stats(5, seed, op=Op.AND))
        res = zstream_ord(obj)
        assert res.cost == pytest.approx(
            brute_force_contiguous(obj, greedy(obj).plan.order), rel=1e-9
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_dp_b_never_worse_than_zstream(self, seed):
        obj = Objective(random_stats(5, seed, op=Op.SEQ, temporal_mode="exact"))
        assert dp_b(obj).cost <= zstream(obj).cost + 1e-12
        assert dp_b(obj).cost <= zstream_ord(obj).cost + 1e-12

    def test_zstream_misses_reordered_plan(self):
        """The paper's Figure 3: SEQ(A,B,C) with a highly selective A–C
        predicate — only leaf reordering reaches the optimal tree."""
        rates = {"A": 5.0, "B": 5.0, "C": 5.0}
        pat = seq("ABC", (Predicate(0, 2, sel=0.001),), window=10.0)
        st = PatternStats.from_pattern(pat, rates)
        obj = Objective(st)
        zs, db = zstream(obj), dp_b(obj)
        assert db.cost < zs.cost
        # optimal tree joins A with C first
        first_join = [
            n for n in db.plan.root.nodes() if not n.is_leaf()
        ][0]
        assert first_join.mask == 0b101


class TestRegistry:
    def test_registry_complete(self):
        assert set(TREE_ALGORITHMS) == {"ZSTREAM", "ZSTREAM-ORD", "DP-B"}

    @pytest.mark.parametrize("name", sorted(TREE_ALGORITHMS))
    def test_all_return_valid_tree(self, name):
        obj = Objective(random_stats(6, 2, op=Op.SEQ, temporal_mode="exact"))
        res = TREE_ALGORITHMS[name](obj)
        assert sorted(res.plan.root.leaves_in_order()) == list(range(6))
        assert res.plan.root.mask == (1 << 6) - 1


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,count", [(2, 1), (3, 3), (4, 15), (5, 105)]
    )
    def test_all_tree_plans_count(self, n, count):
        """#unordered binary trees over n labelled leaves = (2n-3)!!."""
        assert sum(1 for _ in all_tree_plans(n)) == count
