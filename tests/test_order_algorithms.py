"""Tests for the order-based planners (repro.core.order_algorithms)."""
import itertools

import numpy as np
import pytest

from repro.core import cost_model as cm
from repro.core.cost_model import Objective
from repro.core.order_algorithms import (
    ORDER_ALGORITHMS,
    _descend,
    _moves,
    _neighbourhood,
    _neighbours,
    dp_ld,
    efreq,
    greedy,
    ii_greedy,
    ii_random,
    trivial,
)
from repro.core.pattern import Op
from repro.core.plans import OrderPlan
from tests.util import random_stats


def brute_force(obj):
    n = obj.stats.n
    return min(
        (obj.order_cost(OrderPlan(p)) for p in itertools.permutations(range(n)))
    )


class TestBaselines:
    def test_trivial_is_identity(self):
        obj = Objective(random_stats(5, 0))
        assert trivial(obj).plan.order == (0, 1, 2, 3, 4)

    def test_efreq_ascending_rates(self):
        st = random_stats(5, 1)
        obj = Objective(st)
        order = efreq(obj).plan.order
        counts = [st.counts[i] for i in order]
        assert counts == sorted(counts)

    def test_results_report_cost(self):
        obj = Objective(random_stats(4, 2))
        for fn in (trivial, efreq, greedy):
            res = fn(obj)
            assert res.cost == pytest.approx(obj.order_cost(res.plan), rel=1e-12)


class TestOptimality:
    @pytest.mark.parametrize("seed", range(10))
    def test_dp_ld_optimal_conjunction(self, seed):
        obj = Objective(random_stats(5, seed, op=Op.AND))
        res = dp_ld(obj)
        assert res.cost == pytest.approx(brute_force(obj), rel=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_dp_ld_optimal_sequence_exact(self, seed):
        obj = Objective(random_stats(5, seed, op=Op.SEQ, temporal_mode="exact"))
        res = dp_ld(obj)
        assert res.cost == pytest.approx(brute_force(obj), rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_dp_ld_optimal_with_latency(self, seed):
        obj = Objective(
            random_stats(5, seed, op=Op.SEQ, temporal_mode="exact"), alpha=0.5
        )
        res = dp_ld(obj)
        assert res.cost == pytest.approx(brute_force(obj), rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_dp_ld_optimal_next_strategy(self, seed):
        obj = Objective(random_stats(5, seed, op=Op.AND), strategy="next")
        res = dp_ld(obj)
        assert res.cost == pytest.approx(brute_force(obj), rel=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_heuristics_never_beat_dp(self, seed):
        obj = Objective(random_stats(6, seed, op=Op.SEQ, temporal_mode="exact"))
        opt = dp_ld(obj).cost
        for fn in (trivial, efreq, greedy, ii_greedy):
            assert fn(obj).cost >= opt - 1e-9 * abs(opt)
        assert ii_random(obj, seed=seed).cost >= opt - 1e-9 * abs(opt)

    def test_dp_ld_plans_22_positions(self):
        # Fig 17's largest size: 2^22 subsets in the layered DP.
        obj = Objective(
            random_stats(22, 3, op=Op.SEQ, temporal_mode="exact"), alpha=0.5
        )
        res = dp_ld(obj)
        assert sorted(res.plan.order) == list(range(22))
        assert res.cost == pytest.approx(obj.order_cost(res.plan), rel=1e-9)
        assert res.cost <= ii_greedy(obj).cost * (1 + 1e-9)


class TestIterativeImprovement:
    @pytest.mark.parametrize("seed", range(6))
    def test_ii_greedy_no_worse_than_greedy(self, seed):
        obj = Objective(random_stats(6, seed))
        assert ii_greedy(obj).cost <= greedy(obj).cost + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_ii_random_is_local_minimum(self, seed):
        from repro.core.order_algorithms import _neighbours

        obj = Objective(random_stats(5, seed))
        res = ii_random(obj, seed=seed)
        for nb in _neighbours(res.plan.order):
            assert obj.order_cost(OrderPlan(nb)) >= res.cost * (1 - 1e-9)

    def test_ii_random_seed_determinism(self):
        obj = Objective(random_stats(6, 3))
        assert ii_random(obj, seed=7).plan == ii_random(obj, seed=7).plan

    def test_neighbourhood_contains_swaps_and_cycles(self):
        from repro.core.order_algorithms import _neighbours

        nbs = set(_neighbours((0, 1, 2)))
        assert (1, 0, 2) in nbs and (0, 2, 1) in nbs and (2, 0, 1) in nbs
        assert (1, 2, 0) in nbs


def _neighbourhood_stats(n, seed, mode):
    """Random stats for the neighbourhood tests: a SEQ under ``mode``, or an
    AND for ``"none"``."""
    return random_stats(n, seed, op=Op.AND if mode == "none" else Op.SEQ, temporal_mode=mode)


def _scalar_cost(obj, order):
    """An order plan's cost from the scalar recurrence, summed left to right
    from 0.0: ``lat_k`` (for a position placed after T_n), then the
    normalized ``pm_k``."""
    st = obj.stats
    last = st.last_seq_position
    total, after_last = 0.0, False
    for t, pm in zip(order, st.prefix_pms(order, obj.strategy != "any")):
        if obj.alpha != 0.0 and after_last:
            total += obj.alpha * st.counts[t] / obj.lat_ref
        total += obj._prefix_term(pm)
        after_last |= t == last
    return total


class TestNeighbourhood:
    """Iterative Improvement's batched neighbourhood, against the scalar
    recurrence, bit for bit."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_moves_are_the_neighbours_in_order(self, n):
        assert [tuple(m) for m in _moves(n).tolist()] == list(_neighbours(tuple(range(n))))

    @pytest.mark.parametrize("mode", ["exact", "pairwise", "none"])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_neighbour_rows_equal_scalar_recurrence(self, n, mode):
        moves, index = _moves(n), _neighbourhood(n)
        for seed in range(3):
            st = _neighbourhood_stats(n, 31 * n + seed, mode)
            base = np.random.default_rng(seed).permutation(n)
            neighbours = [base[m].tolist() for m in moves]
            for strategy in ("any", "next"):
                for alpha in (0.0, 0.5):
                    obj = Objective(st, alpha=alpha, strategy=strategy)
                    rows = obj.prefix_pm_rows(index, base)
                    costs = obj.order_costs(index, base)
                    assert rows.shape == (len(moves), n) and costs.shape == (len(moves),)
                    for nb, row, cost in zip(neighbours, rows, costs):
                        assert row.tolist() == st.prefix_pms(nb, strategy != "any")
                        assert cost == _scalar_cost(obj, nb)
                    # The same plans as an array batch: the case base = 0 … n−1.
                    if neighbours:
                        assert obj.order_costs(np.array(neighbours)).tolist() == costs.tolist()

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_descents(self, n):
        # n = 1 has no moves, n = 2 only the one swap.
        assert _moves(n).shape == (n * (n - 1) // 2, n)
        obj = Objective(_neighbourhood_stats(n, 5, "exact"), alpha=0.5)
        order, cost = _descend(obj, tuple(range(n))[::-1])
        assert sorted(order) == list(range(n))
        assert cost == obj.order_cost(OrderPlan(order)) == brute_force(obj)


class TestGreedy:
    def test_greedy_first_pick_minimizes_first_prefix(self):
        st = random_stats(6, 9)
        obj = Objective(st)
        first = greedy(obj).plan.order[0]
        best = min(range(6), key=lambda t: obj.prefix_pm(1 << t))
        assert obj.prefix_pm(1 << first) == pytest.approx(obj.prefix_pm(1 << best))

    def test_dp_respects_latency_term(self):
        # With an overwhelming alpha, the optimal plan must place the
        # temporally-last type at the end (zero latency).
        st = random_stats(5, 4, op=Op.SEQ, temporal_mode="exact")
        obj = Objective(st, alpha=1e30)
        order = dp_ld(obj).plan.order
        assert order[-1] == st.last_seq_position


class TestRegistry:
    def test_registry_complete(self):
        assert set(ORDER_ALGORITHMS) == {
            "TRIVIAL",
            "EFREQ",
            "GREEDY",
            "II-RANDOM",
            "II-GREEDY",
            "DP-LD",
        }

    @pytest.mark.parametrize("name", sorted(ORDER_ALGORITHMS))
    def test_all_return_valid_permutation(self, name):
        obj = Objective(random_stats(6, 5, op=Op.SEQ, temporal_mode="exact"))
        fn = ORDER_ALGORITHMS[name]
        res = fn(obj, seed=1) if name == "II-RANDOM" else fn(obj)
        assert sorted(res.plan.order) == list(range(6))
