"""Golden plans: every planner's plan and costs, pinned bit for bit.

``planner_golden.json`` holds, for each case, one ``[plan, objective_cost,
raw_cost]`` triple per subplan, with both costs as ``float.hex()``. The
grid covers all 9 planners over four pattern categories, four sizes, both
temporal modes, two selection strategies and two latency weights, plus
``planner_large``'s sequence patterns: the three tree planners at n = 8,
10 and 12 under both strategies and both latency weights, DP-B at n = 14,
DP-LD at n = 14 and 16, and II-RANDOM and II-GREEDY at n = 8 … 16 under
both strategies and both latency weights.
Any change to the planners or the cost model that reorders a float
operation shows up here as a changed hex string.

To rewrite the file from the current code (only after checking that a
change of plans or costs is intended)::

    PYTHONPATH=src python -m tests.test_planner_golden

It first prints how many plans and cost hex strings change, and the
largest relative change of a cost.
"""
import json
from pathlib import Path

import pytest

from repro.core.cost_model import Objective, cost_ord, cost_tree
from repro.core.pattern import Op
from repro.core.planner import PLANNERS, plan_pattern
from repro.core.plans import OrderPlan
from repro.core.stats import PatternStats
from repro.experiments.tables import ORDER_ALGS, TREE_ALGS
from repro.streams.estimation import estimate
from repro.streams.stock import StreamConfig, stock_events_pdf
from repro.workloads.generator import make_pattern
from tests.util import random_pattern

GOLDEN = Path(__file__).with_name("planner_golden.json")

CATEGORIES = ("sequence", "conjunction", "negation", "kleene")
SIZES = (2, 5, 9, 11)
LARGE_SIZES = (14, 16)
LARGE_II_SIZES = (8, 10, 12, 14, 16)
LARGE_II_PLANNERS = ("II-RANDOM", "II-GREEDY")
# planner_large's tree-planner calls (within the DP caps), plus DP-B at n = 14.
LARGE_TREE_SIZES = (8, 10, 12)
LARGE_TREE_CASES = tuple((n, alg) for n in LARGE_TREE_SIZES for alg in TREE_ALGS) + ((14, "DP-B"),)


def _grid_pattern(category: str, n: int):
    """A random pattern with ``n`` planning positions (negated ones excluded)."""
    seed = 7919 * CATEGORIES.index(category) + n
    if category == "sequence":
        return random_pattern(n, seed, op=Op.SEQ)
    if category == "conjunction":
        return random_pattern(n, seed, op=Op.AND)
    if category == "negation":
        return random_pattern(n + 1, seed, op=Op.SEQ, negated=(1,))
    return random_pattern(n, seed, op=Op.SEQ, kleene=(n // 2,))


def _large_patterns():
    """``planner_large``'s sequence patterns at n = 8 … 16, with rates."""
    cfg = StreamConfig(n_symbols=24)
    stats = estimate(stock_events_pdf(cfg), cfg.duration, seed=0)
    out = {}
    for n in sorted({*LARGE_SIZES, *LARGE_II_SIZES, *LARGE_TREE_SIZES}):
        p = make_pattern("sequence", n, stats, cfg.window, seed=997 * n)
        out[n] = (p, {t: stats.rates[t] for t in p.types})
    return out


def _cases():
    """(case id, pattern factory key, planner, strategy, temporal mode, α)."""
    for category in CATEGORIES:
        for n in SIZES:
            for mode in ("exact", "pairwise"):
                for strategy in ("any", "next"):
                    for alpha in (0.0, 0.5):
                        for planner in ORDER_ALGS + TREE_ALGS:
                            yield (
                                f"{category}/{n}/{mode}/{strategy}/{alpha}/{planner}",
                                (category, n), planner, strategy, mode, alpha,
                            )
    for n in LARGE_SIZES:
        yield f"large/{n}/exact/any/0.0/DP-LD", ("large", n), "DP-LD", "any", "exact", 0.0
    large_ii = tuple((n, alg) for n in LARGE_II_SIZES for alg in LARGE_II_PLANNERS)
    for n, planner in large_ii + LARGE_TREE_CASES:
        for strategy in ("any", "next"):
            for alpha in (0.0, 0.5):
                yield (
                    f"large/{n}/exact/{strategy}/{alpha}/{planner}",
                    ("large", n), planner, strategy, "exact", alpha,
                )


def _tree(node):
    return node.leaf if node.is_leaf() else [_tree(node.left), _tree(node.right)]


def _plans(pattern, rates, planner, strategy, mode, alpha):
    """``(plan, objective cost, raw cost)`` per subplan. ``plan_pattern``
    plans in the exact temporal mode; the pairwise mode (Theorem 3's
    literal reduction) runs the planner on its own statistics."""
    if mode == "exact":
        return [
            (pp.order_plan or pp.tree_plan, pp.objective_cost, pp.raw_cost)
            for pp in plan_pattern(pattern, rates, planner, alpha=alpha, strategy=strategy)
        ]
    stats = PatternStats.from_pattern(pattern, rates, temporal_mode=mode)
    res = PLANNERS[planner](Objective(stats, alpha=alpha, strategy=strategy))
    raw = cost_ord if isinstance(res.plan, OrderPlan) else cost_tree
    return [(res.plan, res.cost, raw(res.plan, stats))]


def _record(pattern, rates, planner, strategy, mode, alpha):
    return [
        [
            list(plan.order) if isinstance(plan, OrderPlan) else _tree(plan.root),
            cost.hex(),
            raw_cost.hex(),
        ]
        for plan, cost, raw_cost in _plans(pattern, rates, planner, strategy, mode, alpha)
    ]


def _compute() -> dict:
    large = _large_patterns()
    out = {}
    for cid, (key, n), planner, strategy, mode, alpha in _cases():
        pattern, rates = large[n] if key == "large" else _grid_pattern(key, n)
        out[cid] = _record(pattern, rates, planner, strategy, mode, alpha)
    return out


@pytest.fixture(scope="module")
def computed() -> dict:
    return _compute()


def test_grid_is_complete():
    expected = json.loads(GOLDEN.read_text())
    assert len(expected) == 4 * 4 * 2 * 2 * 2 * 9 + 2 + (5 * 2 + 3 * 3 + 1) * 2 * 2
    assert sorted(expected) == sorted(cid for cid, *_ in _cases())


@pytest.mark.parametrize("category", CATEGORIES + ("large",))
def test_plans_and_costs_bit_identical(computed, category):
    expected = json.loads(GOLDEN.read_text())
    keys = [k for k in expected if k.startswith(category + "/")]
    assert keys
    diff = {k: (computed[k], expected[k]) for k in keys if computed[k] != expected[k]}
    assert not diff, f"{len(diff)} of {len(keys)} cases changed, e.g. {next(iter(diff.items()))}"


def _changes(old: dict, new: dict) -> str:
    """How ``new`` differs from ``old``: plans, cost hex strings, and the
    largest relative change of a cost."""
    subplans = plans = costs = 0
    worst = 0.0
    for cid, records in new.items():
        before = old.get(cid, [])
        if len(before) != len(records):
            plans += len(records)
            continue
        for (plan, *hexes), (old_plan, *old_hexes) in zip(records, before):
            subplans += 1
            plans += plan != old_plan
            for h, old_h in zip(hexes, old_hexes):
                if h != old_h:
                    costs += 1
                    a, b = float.fromhex(h), float.fromhex(old_h)
                    worst = max(worst, abs(a - b) / abs(b) if b else float("inf"))
    return (
        f"{len(new)} cases ({len(set(old) ^ set(new))} added or removed), {subplans} "
        f"subplans compared: {plans} plans changed, {costs} of {2 * subplans} cost hex "
        f"strings changed, largest relative change {worst:.3g}"
    )


if __name__ == "__main__":
    computed = _compute()
    print(_changes(json.loads(GOLDEN.read_text()), computed))
    rows = sorted(computed.items())
    GOLDEN.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in rows) + "\n}\n")
