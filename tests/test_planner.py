"""Tests for the top-level planner dispatch (repro.core.planner)."""
import math

import pytest

from repro.core import cost_model as cm
from repro.core.pattern import Predicate, conj, disj, seq
from repro.core.planner import ALGORITHM_KIND, plan_pattern, plan_simple

RATES = {"A": 2.0, "B": 5.0, "C": 0.5, "D": 8.0}


class TestPlanSimple:
    @pytest.mark.parametrize("alg", sorted(ALGORITHM_KIND))
    def test_every_algorithm_plans_a_sequence(self, alg):
        p = seq("ABCD", (Predicate(0, 2, sel=0.1),), window=10.0)
        pp = plan_simple(p, RATES, alg)
        assert (pp.order_plan is None) == (ALGORITHM_KIND[alg] == "tree")
        assert pp.raw_cost > 0 and pp.gen_seconds >= 0

    def test_raw_cost_is_paper_cost(self):
        p = seq("ABC", window=10.0)
        pp = plan_simple(p, RATES, "DP-LD")
        assert pp.raw_cost == pytest.approx(cm.cost_ord(pp.order_plan, pp.stats))
        pt = plan_simple(p, RATES, "DP-B")
        assert pt.raw_cost == pytest.approx(cm.cost_tree(pt.tree_plan, pt.stats))

    def test_kind_property(self):
        p = seq("ABC", window=10.0)
        assert plan_simple(p, RATES, "GREEDY").kind == "order"
        assert plan_simple(p, RATES, "ZSTREAM").kind == "tree"

    def test_negated_positions_not_planned(self):
        p = seq("ABCD", negated=(1,), window=10.0)
        pp = plan_simple(p, RATES, "DP-LD")
        assert pp.order_plan.n == 3
        assert pp.stats.positions == (0, 2, 3)

    def test_alpha_changes_plan_cost(self):
        p = seq("ABCD", (Predicate(0, 3, sel=0.05),), window=10.0)
        a0 = plan_simple(p, RATES, "DP-LD", alpha=0.0)
        a1 = plan_simple(p, RATES, "DP-LD", alpha=1.0)
        lat0 = cm.cost_lat(a0.order_plan, a0.stats)
        lat1 = cm.cost_lat(a1.order_plan, a1.stats)
        assert lat1 <= lat0

    @pytest.mark.parametrize("alg", sorted(ALGORITHM_KIND))
    def test_alpha_must_be_finite_and_non_negative(self, alg):
        # At α = NaN the planners would return plans costed nan or inf, and
        # a negative α would reward latency; α > 1 is a valid weight.
        p = seq("ABC", window=10.0)
        rates = {"A": 1.0, "B": 0.5, "C": 2.0}
        for alpha in (math.nan, math.inf, -math.inf, -5.0, -1e-9):
            with pytest.raises(ValueError, match="alpha"):
                plan_simple(p, rates, alg, alpha=alpha)
        assert plan_simple(p, rates, alg, alpha=2.0).objective_cost > 0

    def test_strategy_next_supported(self):
        p = seq("ABC", window=10.0)
        pp = plan_simple(p, RATES, "DP-LD", strategy="next")
        assert pp.objective_cost > 0

    @pytest.mark.parametrize("alg", sorted(ALGORITHM_KIND))
    def test_contiguity_plans_as_next(self, alg):
        # Strict contiguity consumes like skip-till-next: one cost model.
        p = seq("ABCD", (Predicate(0, 2, sel=0.1), Predicate(1, 3, sel=0.4)), window=10.0)

        def planned(strategy):
            (pp,) = plan_pattern(p, RATES, alg, alpha=0.5, strategy=strategy)
            return pp.order_plan, pp.tree_plan, pp.objective_cost, pp.raw_cost

        assert planned("contiguity") == planned("next")

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            plan_pattern(seq("AB", window=1.0), RATES, "NOPE")

    def test_unknown_algorithm_names_the_choices(self):
        with pytest.raises(ValueError, match="unknown algorithm 'NOPE'; choose from .*DP-B"):
            plan_simple(seq("AB", window=1.0), RATES, "NOPE")

    @pytest.mark.parametrize("alg", sorted(ALGORITHM_KIND))
    def test_overflowing_cost_is_a_clear_error(self, alg):
        # 17 Kleene positions at W·r = 72: each count is capped at 2^64, and
        # their product overflows a float before any plan is compared.
        types = [f"T{i}" for i in range(17)]
        p = conj(types, window=60, kleene=range(17))
        with pytest.raises(ValueError, match="17 positions overflows a float"):
            plan_pattern(p, {t: 1.2 for t in types}, alg)

    def test_missing_rate_is_a_clear_error(self):
        # Every absent type is named; a negated position needs no rate.
        p = seq("ABCDE", negated=(1,), window=10.0)
        with pytest.raises(ValueError, match="no rate for pattern type.*: C, E$"):
            plan_pattern(p, {"A": 1.0, "D": 2.0}, "DP-LD")


class TestPlanPattern:
    def test_simple_returns_single(self):
        out = plan_pattern(seq("ABC", window=10.0), RATES, "GREEDY")
        assert len(out) == 1

    def test_disjunction_returns_per_subpattern(self):
        d = disj(
            [seq("AB", window=10.0), seq("CD", window=10.0), conj("AC", window=10.0)]
        )
        out = plan_pattern(d, RATES, "DP-LD")
        assert len(out) == 3
        assert [pp.pattern.types for pp in out] == [
            ("A", "B"),
            ("C", "D"),
            ("A", "C"),
        ]

    def test_ii_random_seed_passthrough(self):
        p = seq("ABCD", window=10.0)
        a = plan_pattern(p, RATES, "II-RANDOM", seed=3)[0]
        b = plan_pattern(p, RATES, "II-RANDOM", seed=3)[0]
        assert a.order_plan == b.order_plan
