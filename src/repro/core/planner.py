"""Top-level plan generation: pattern → evaluation plan(s) (paper §5–6).

:func:`plan_pattern` ties the pieces together:

1. a disjunctive (nested, DNF'd) pattern is planned per conjunctive
   subpattern — §5.4;
2. statistics are derived with Kleene inflation and temporal modelling —
   §5.1–5.2 (negated positions are excluded; the engines insert the
   §5.3 absence check at the earliest dependency-satisfying step);
3. the requested algorithm minimizes the α/strategy-aware
   :class:`~repro.core.cost_model.Objective` — §6.1–6.2.

The result carries both the plan and its costs: ``objective_cost`` (what
the planner minimized) and ``raw_cost`` (the paper's §4 Cost_ord/Cost_tree,
used by the Fig 16/17 experiments). :func:`plan_simple` is the one place
that looks a planner up and runs it, so it alone seeds II-RANDOM and times
the algorithm call (``gen_seconds``, Fig 17's generation time).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .cost_model import Objective, cost_ord, cost_tree
from .order_algorithms import ORDER_ALGORITHMS, ii_random
from .pattern import Op, Pattern
from .plans import OrderPlan, TreePlan
from .stats import PatternStats
from .tree_algorithms import TREE_ALGORITHMS

PLANNERS = ORDER_ALGORITHMS | TREE_ALGORITHMS
ALGORITHM_KIND = {name: "order" for name in ORDER_ALGORITHMS} | {
    name: "tree" for name in TREE_ALGORITHMS
}


@dataclass(frozen=True)
class PlannedPattern:
    """A simple pattern with its generated evaluation plan."""

    pattern: Pattern
    stats: PatternStats
    order_plan: OrderPlan | None
    tree_plan: TreePlan | None
    objective_cost: float
    raw_cost: float
    gen_seconds: float

    @property
    def kind(self) -> str:
        return "order" if self.order_plan is not None else "tree"


def plan_simple(
    pattern: Pattern,
    rates: dict[str, float],
    algorithm: str,
    *,
    alpha: float = 0.0,
    strategy: str = "any",
    temporal_mode: str = "exact",
    seed: int = 0,
) -> PlannedPattern:
    """Generate an evaluation plan for one simple (non-OR) pattern.

    ``gen_seconds`` is the wall time of the algorithm call alone, without
    building the statistics and the objective it minimizes.
    """
    if algorithm not in PLANNERS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(PLANNERS)}"
        )
    stats = PatternStats.from_pattern(pattern, rates, temporal_mode=temporal_mode)
    obj = Objective(stats, alpha=alpha, strategy=strategy)
    fn = PLANNERS[algorithm]
    t0 = time.perf_counter()
    res = fn(obj, seed=seed) if fn is ii_random else fn(obj)
    gen_seconds = time.perf_counter() - t0
    plan = res.plan
    order = isinstance(plan, OrderPlan)
    return PlannedPattern(
        pattern,
        stats,
        plan if order else None,
        None if order else plan,
        res.cost,
        cost_ord(plan, stats) if order else cost_tree(plan, stats),
        gen_seconds,
    )


def plan_pattern(
    pattern: Pattern,
    rates: dict[str, float],
    algorithm: str,
    *,
    alpha: float = 0.0,
    strategy: str = "any",
    temporal_mode: str = "exact",
    seed: int = 0,
) -> list[PlannedPattern]:
    """Generate evaluation plans for a pattern of any supported type.

    Disjunctive patterns yield one plan per conjunctive subpattern, each
    detected independently (§5.4); the result list preserves subpattern
    order. Simple patterns yield a single-element list.
    """
    subs = pattern.subpatterns if pattern.op is Op.OR else (pattern,)
    return [
        plan_simple(
            sp,
            rates,
            algorithm,
            alpha=alpha,
            strategy=strategy,
            temporal_mode=temporal_mode,
            seed=seed,
        )
        for sp in subs
    ]
