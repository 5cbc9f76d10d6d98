"""Golden detector results: every pinned case's counts and digests.

``detector_golden.json`` holds, for each case, ``[n_events, peak_partials,
comparisons, matches digest, latencies digest]``. A digest is the first 16
hex digits of the SHA-256 of the JSON list, so the matches are pinned in
emission order and the latencies match by match. The grid:

- random windows over pattern sizes 1–5, SEQ and AND, with predicates of
  all five kinds, equal timestamps, an intruder symbol that no pattern
  position has, and one empty window per size and operator;
- every order and every tree (both child orders of every split) up to
  n = 4, and a fixed sample of orders and trees at n = 5;
- the ``any``, ``next`` and ``contiguity`` selection strategies;
- the event-engine benchmark's pattern (sequence, n = 4, seed 1, W = 120 s)
  planned by EFREQ and ZSTREAM-ORD under each strategy, on every window of
  its stream.

Any change to the detectors that changes a match, its emission order, a
latency or a count shows up here.

To rewrite the file from the current code (only after checking that a
change of results is intended)::

    PYTHONPATH=src python -m tests.test_detector_golden

It first prints how many cases change.
"""
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.cep.detectors import detect_order, detect_tree
from repro.core.pattern import PREDICATE_KINDS, Op, Pattern, Predicate
from repro.core.planner import plan_pattern
from repro.core.plans import OrderPlan, TreePlan, join, leaf
from repro.streams.estimation import estimate
from repro.streams.stock import StreamConfig, stock_events_pdf
from repro.workloads.generator import make_pattern

GOLDEN = Path(__file__).with_name("detector_golden.json")

STRATEGIES = ("any", "next", "contiguity")
SIZES = (1, 2, 3, 4, 5)
WINDOWS_PER_SIZE = {1: 3, 2: 3, 3: 3, 4: 2, 5: 8}
SAMPLED_PLANS = 8  # orders and trees each, at n = 5
BENCH_STREAM = StreamConfig(
    n_symbols=14, duration=2400.0, window=120.0, rate_min=0.05,
    rate_max=0.7, diff_mu_spread=1.2, seed=7,
)
BENCH_PLANNERS = ("EFREQ", "ZSTREAM-ORD")
# Weights of PREDICATE_KINDS (diff_lt, diff_gt, ts_lt, serial_adj, true).
KIND_WEIGHTS = (0.3, 0.3, 0.15, 0.1, 0.15)


def _window(rows) -> pd.DataFrame:
    """rows: (symbol, ts, diff) in arrival order; serials follow arrival."""
    return pd.DataFrame(
        {
            "event_id": np.arange(len(rows), dtype=np.int64),
            "symbol": pd.Series([r[0] for r in rows], dtype=object),
            "ts": np.array([r[1] for r in rows], dtype=float),
            "wid": np.zeros(len(rows), dtype=np.int64),
            "serial": np.arange(len(rows), dtype=np.int64),
            "price": 0.0,
            "diff": np.array([r[2] for r in rows], dtype=float),
        }
    )


def _random_case(op: Op, n: int, k: int):
    """One random pattern over types ``A…`` and a window with ties, an
    intruder ``X`` and one planted run of the pattern's types in position
    order (so that contiguity can match); ``k`` < 0 gives an empty window."""
    g = np.random.default_rng([0 if op is Op.SEQ else 1, n, k + 1])
    types = "ABCDE"[:n]
    preds = tuple(
        Predicate(i, j, kind=str(g.choice(PREDICATE_KINDS, p=KIND_WEIGHTS)), sel=0.5)
        for i in range(n)
        for j in range(i + 1, n)
        if g.random() < 0.35
    )
    pattern = Pattern(op, tuple(types), preds, 100.0)
    if k < 0:
        return pattern, _window([])
    symbols = list(g.choice(list(types + "X"), size=8 + 5 * n, p=[0.92 / n] * n + [0.08]))
    at = int(g.integers(len(symbols) + 1))
    symbols[at:at] = list(types)
    steps = g.choice(3, size=len(symbols), p=[0.25, 0.5, 0.25])  # 0: a tie
    steps[at + 1:at + n] = np.maximum(steps[at + 1:at + n], 1)  # no tie inside the run
    ts = np.cumsum(steps)
    diff = np.round(g.normal(size=len(symbols)), 1)
    return pattern, _window(list(zip(symbols, ts.tolist(), diff.tolist())))


def _trees(positions: tuple[int, ...]):
    """Every binary tree over ``positions``, both child orders of each split."""
    if len(positions) == 1:
        yield leaf(positions[0])
        return
    first, rest = positions[0], positions[1:]
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            left = (first,) + extra
            right = tuple(p for p in rest if p not in extra)
            if not right:
                continue
            for lt in _trees(left):
                for rt in _trees(right):
                    yield join(lt, rt)
                    yield join(rt, lt)


def _plans(n: int):
    """(label, plan) pairs: all orders and trees up to n = 4, a sample at 5."""
    orders = [OrderPlan(o) for o in itertools.permutations(range(n))]
    trees = [TreePlan(root) for root in _trees(tuple(range(n)))]
    if n == 5:
        g = np.random.default_rng(5)
        orders = [orders[i] for i in sorted(g.choice(len(orders), SAMPLED_PLANS, replace=False))]
        trees = [trees[i] for i in sorted(g.choice(len(trees), SAMPLED_PLANS, replace=False))]
    for plan in orders:
        yield "order" + "".join(map(str, plan.order)), plan
    for plan in trees:
        yield "tree" + json.dumps(_tree(plan.root), separators=(",", ":")), plan


def _tree(node):
    return node.leaf if node.is_leaf() else [_tree(node.left), _tree(node.right)]


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


def _record(window, pattern, plan, strategy) -> list:
    detect = detect_order if isinstance(plan, OrderPlan) else detect_tree
    r = detect(window, pattern, plan, strategy)
    return [
        r.n_events, r.peak_partials, r.comparisons,
        _digest([list(m) for m in r.matches]), _digest(r.match_latencies),
    ]


def _random_cases():
    """(case id, window, pattern, plan, strategy) over the random grid."""
    for op in (Op.SEQ, Op.AND):
        for n in SIZES:
            plans = list(_plans(n))
            for k in range(-1, WINDOWS_PER_SIZE[n]):
                pattern, window = _random_case(op, n, k)
                # An empty window runs one order and one tree only.
                chosen = [plans[0], plans[-1]] if k < 0 else plans
                for label, plan in chosen:
                    for strategy in STRATEGIES:
                        yield f"{op.value}/{n}/w{k}/{label}/{strategy}", window, pattern, plan, strategy


def _bench_cases():
    """(case id, window, pattern, plan, strategy) on the benchmark stream."""
    pdf = stock_events_pdf(BENCH_STREAM)
    stats = estimate(pdf, BENCH_STREAM.duration, seed=0)
    pattern = make_pattern("sequence", 4, stats, BENCH_STREAM.window, seed=1)
    rates = {t: stats.rates[t] for t in pattern.types}
    windows = list(pdf.groupby("wid"))
    for planner in BENCH_PLANNERS:
        for strategy in STRATEGIES:
            (pp,) = plan_pattern(pattern, rates, planner, strategy=strategy)
            plan = pp.order_plan or pp.tree_plan
            for wid, window in windows:
                yield f"bench/{planner}/{strategy}/{int(wid)}", window, pattern, plan, strategy


def _compute() -> dict:
    return {
        cid: _record(window, pattern, plan, strategy)
        for cases in (_random_cases(), _bench_cases())
        for cid, window, pattern, plan, strategy in cases
    }


@pytest.fixture(scope="module")
def computed() -> dict:
    return _compute()


def test_grid_is_complete(computed):
    expected = json.loads(GOLDEN.read_text())
    assert sorted(expected) == sorted(computed)


@pytest.mark.parametrize("group", ["SEQ/", "AND/", "bench/"])
def test_detector_results_identical(computed, group):
    expected = json.loads(GOLDEN.read_text())
    keys = [k for k in expected if k.startswith(group)]
    assert keys
    diff = {k: (computed.get(k), expected[k]) for k in keys if computed.get(k) != expected[k]}
    assert not diff, f"{len(diff)} of {len(keys)} cases changed, e.g. {next(iter(diff.items()))}"


if __name__ == "__main__":
    computed = _compute()
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    changed = sum(old[k] != v for k, v in computed.items() if k in old)
    print(
        f"{len(computed)} cases ({len(set(old) ^ set(computed))} added or removed): "
        f"{changed} changed"
    )
    rows = sorted(computed.items())
    GOLDEN.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in rows) + "\n}\n")
