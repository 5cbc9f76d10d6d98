"""Every predicate kind on the Spark engines, on a hand-built stream.

Each entry of ``PREDICATE_KINDS`` is declared on both adjacent pairs of a
three-position pattern, SEQ and AND, under ``any`` and ``contiguity``, and
runs as one order plan and one tree plan. Two more patterns carry a
declared predicate on a negated position. The join engine is checked
against DuckDB (``tests/cep_sql.py``) and the event engine against the
join engine. The stream is tiny and every engine's matches are collected
in one Spark action, so the Spark work is one action per plan plus two
collects.
"""
from dataclasses import replace

import duckdb
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.cep.event_engine import run_matches
from repro.cep.join_engine import execute_pattern
from repro.core.pattern import PREDICATE_KINDS, Op, Pattern, Predicate
from repro.core.planner import plan_simple
from repro.core.plans import OrderPlan, TreePlan, join, leaf
from tests.cep_sql import pattern_sql

WINDOW = 10.0
# (symbol, ts, diff) in serial order. Window 0 opens with two contiguous
# A B C runs, diffs rising and then falling, so that every contiguity case
# has a match; ties of ts and of diff follow, and an intruder X.
ROWS = [
    ("A", 0.5, 1.0), ("B", 1.0, 2.0), ("C", 1.5, 3.0), ("X", 2.0, 0.0),
    ("A", 2.5, 3.0), ("B", 3.0, 2.0), ("C", 3.5, 1.0),
    ("C", 4.0, 2.5), ("A", 4.5, 0.0), ("B", 4.5, 2.5), ("B", 5.0, 2.0), ("C", 6.0, 2.0),
    ("B", 11.0, -1.0), ("A", 12.0, 0.5), ("C", 12.5, -0.5), ("A", 13.0, -2.0),
    ("B", 13.5, 1.0), ("X", 14.0, 0.0), ("C", 15.0, 0.0),
]
RATES = {"A": 1.0, "B": 1.0, "C": 1.0}
ID_COLUMNS = ["p0_id", "p1_id", "p2_id"]

# Planning positions are pattern positions for a pure pattern: the order
# binds C, then A, then B; the tree joins A with the join of B and C.
PURE_PLANS = {
    "order": OrderPlan((2, 0, 1)),
    "tree": TreePlan(join(leaf(0), join(leaf(1), leaf(2)))),
}
# With position 1 negated, planning positions 0 and 1 are A and C.
NEGATED_PLANS = {"order": OrderPlan((1, 0)), "tree": TreePlan(join(leaf(0), leaf(1)))}

PURE = {
    (kind, op.value, strategy): Pattern(
        op, ("A", "B", "C"), (Predicate(0, 1, kind), Predicate(1, 2, kind)), WINDOW
    )
    for kind in PREDICATE_KINDS
    for op in (Op.SEQ, Op.AND)
    for strategy in ("any", "contiguity")
}
# A negated B with a declared partner: between A and C in a SEQ, anywhere
# in the window in an AND. A key is (kind, op, strategy, "NOT").
NEGATED = {
    ("diff_gt", "SEQ", "any", "NOT"): Pattern(
        Op.SEQ, ("A", "B", "C"), (Predicate(1, 2, "diff_gt"),), WINDOW, frozenset({1})
    ),
    ("diff_lt", "AND", "any", "NOT"): Pattern(
        Op.AND, ("A", "B", "C"), (Predicate(0, 1, "diff_lt"),), WINDOW, frozenset({1})
    ),
}
CASES = PURE | NEGATED


def _planned(pattern, plan):
    pp = plan_simple(pattern, RATES, "TRIVIAL")
    if isinstance(plan, OrderPlan):
        return replace(pp, order_plan=plan)
    return replace(pp, order_plan=None, tree_plan=plan)


def _labelled(df, case, plan):
    """``df``'s match ids as the three id columns (null where a position
    is negated), tagged with the case and the plan."""
    cols = [F.col(c) if c in df.columns else F.lit(None).cast("long").alias(c) for c in ID_COLUMNS]
    return df.select(F.lit("/".join(case)).alias("case"), F.lit(plan).alias("plan"), *cols)


def _union(frames):
    out = frames[0]
    for df in frames[1:]:
        out = out.unionByName(df)
    return out.toPandas()


def _ids(frame, case, plan):
    """Sorted id tuples of one case and plan, without the null columns."""
    rows = frame[(frame["case"] == "/".join(case)) & (frame["plan"] == plan)]
    ids = rows[ID_COLUMNS].dropna(axis=1, how="all")
    return sorted(map(tuple, ids.astype(np.int64).itertuples(index=False)))


@pytest.fixture(scope="module")
def events_pdf():
    ts = np.array([r[1] for r in ROWS])
    return pd.DataFrame(
        {
            "event_id": np.arange(len(ROWS), dtype=np.int64) + 100,
            "symbol": [r[0] for r in ROWS],
            "ts": ts,
            "wid": (ts // WINDOW).astype(np.int64),
            "serial": np.arange(len(ROWS), dtype=np.int64),
            "diff": [r[2] for r in ROWS],
        }
    )


@pytest.fixture(scope="module")
def events(spark, events_pdf):
    df = spark.createDataFrame(events_pdf).persist()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="module")
def oracle(events_pdf):
    """DuckDB's match ids of every case, keyed like ``CASES``."""
    con = duckdb.connect()
    con.register("ev", events_pdf)
    try:
        out = {}
        for case, pattern in CASES.items():
            df = con.execute(pattern_sql(pattern, strategy=case[2])).fetchdf()
            out[case] = sorted(map(tuple, df[sorted(df.columns)].itertuples(index=False)))
        return out
    finally:
        con.close()


@pytest.fixture(scope="module")
def join_matches(spark, events):
    """The join engine's matches of every case under both plans."""
    frames = []
    for strategy in ("any", "contiguity"):
        cases = [(c, p) for c in CASES for p in PURE_PLANS if c[2] == strategy]
        planned = [
            _planned(CASES[c], (NEGATED_PLANS if c in NEGATED else PURE_PLANS)[p])
            for c, p in cases
        ]
        runs, _ = execute_pattern(spark, events, planned, strategy=strategy)
        frames += [_labelled(r.matches, *cp) for r, cp in zip(runs, cases)]
    return _union(frames)


@pytest.fixture(scope="module")
def event_matches(spark, events):
    """The event engine's matches of every pure case under both plans."""
    return _union([
        _labelled(run_matches(spark, events, pattern, plan, strategy=case[2]), case, name)
        for case, pattern in PURE.items()
        for name, plan in PURE_PLANS.items()
    ])


def test_every_case_matches_in_the_oracle(events_pdf, oracle):
    """The stream makes every case, contiguity included, match something.
    Under ``any``, every declared kind that the pattern does not already
    imply rejects some triple, and each negation some (A, C) pair."""
    assert all(oracle[case] for case in CASES)
    for kind, op, strategy in PURE:
        if strategy == "any" and kind != "true" and (kind, op) != ("ts_lt", "SEQ"):
            assert len(oracle[kind, op, strategy]) < len(oracle["true", op, strategy])
    con = duckdb.connect()
    con.register("ev", events_pdf)
    try:
        for case, pattern in NEGATED.items():
            pairs = Pattern(pattern.op, ("A", "C"), (), WINDOW)
            assert len(oracle[case]) < len(con.execute(pattern_sql(pairs)).fetchdf())
    finally:
        con.close()


@pytest.mark.parametrize("plan", sorted(PURE_PLANS))
@pytest.mark.parametrize("case", list(CASES), ids="/".join)
def test_join_engine_matches_oracle(join_matches, oracle, case, plan):
    assert _ids(join_matches, case, plan) == oracle[case]


@pytest.mark.parametrize("plan", sorted(PURE_PLANS))
@pytest.mark.parametrize("case", list(PURE), ids="/".join)
def test_event_engine_matches_join_engine(event_matches, join_matches, case, plan):
    assert _ids(event_matches, case, plan) == _ids(join_matches, case, plan)
