"""Observed stage counts: exact, one Spark job per subplan, hash joins only.

The join engine reads every stage's size from a ``DataFrame.observe``
count filled in by the subplan's single action. ``EXPECTED`` holds the
``intermediate_counts`` and ``n_matches`` the engine reported when it
still materialized every stage with ``persist()`` + ``count()``; the
observed counts must equal them exactly. Tree counts are in post-order.

The cases cover every pattern category under an order and a tree plan on
the unit-test stream, and the benchmark's join calls on ``BENCH_STREAM``.
Among those, the DP-B disjunction's first subplan has an internal node
(64 rows) that feeds its parent's join directly: under a sort-merge join
Spark stopped reading it after 63 rows.
"""
import contextlib
import io
import re

import pytest

from benchmarks.bench_config import BENCH_STREAM
from repro.cep.join_engine import _engine_conf, _measured_window_counts, execute_pattern
from repro.core.pattern import Op
from repro.core.planner import plan_pattern
from repro.streams.estimation import estimate
from repro.streams.stock import StreamConfig, stock_events_pdf
from repro.workloads.generator import make_pattern

STREAMS = {
    "test": StreamConfig(n_symbols=6, duration=600.0, window=60.0, seed=21),
    "bench": BENCH_STREAM,
}

# (stream, category, size, pattern seed, planner, strategy) →
# per subplan: (intermediate_counts, n_matches)
EXPECTED = {
    ("test", "sequence", 4, 40, "DP-LD", "any"): [([142, 534, 1895, 11767, 149, 172, 238], 11767)],
    ("test", "sequence", 4, 40, "DP-B", "any"): [([142, 149, 534, 172, 1895, 238, 11767], 11767)],
    ("test", "negation", 4, 41, "DP-LD", "any"): [([32, 122, 9, 238, 149], 9)],
    ("test", "negation", 4, 41, "DP-B", "any"): [([32, 238, 122, 149, 9], 9)],
    ("test", "conjunction", 4, 42, "DP-LD", "any"): [([32, 454, 5403, 79932, 142, 238, 172], 79932)],
    ("test", "conjunction", 4, 42, "DP-B", "any"): [([238, 142, 1595, 32, 172, 555, 79932], 79932)],
    ("test", "kleene", 4, 43, "DP-LD", "any"): [([32, 233, 906, 7638, 149, 238, 392], 12091)],
    ("test", "kleene", 4, 43, "DP-B", "any"): [([149, 238, 835, 392, 32, 515, 7638], 12091)],
    ("test", "disjunction", 3, 44, "DP-LD", "any"): [
        ([149, 1580, 7211, 238, 392], 7211),
        ([142, 1125, 7905, 149, 392], 7905),
        ([142, 907, 5536, 238, 172], 5536),
    ],
    ("test", "disjunction", 3, 44, "DP-B", "any"): [
        ([149, 238, 1580, 392, 7211], 7211),
        ([392, 142, 149, 1125, 7905], 7905),
        ([142, 238, 907, 172, 5536], 5536),
    ],
    ("test", "sequence", 4, 45, "TRIVIAL", "contiguity"): [([172, 2, 2, 0, 32, 392, 142], 0)],
    ("test", "sequence", 4, 45, "ZSTREAM", "contiguity"): [([172, 32, 392, 6, 142, 0, 0], 0)],
    ("bench", "sequence", 4, 4, "EFREQ", "any"): [([227, 632, 2165, 7279, 230, 427, 1035], 7279)],
    ("bench", "sequence", 4, 4, "DP-B", "any"): [([1035, 230, 227, 632, 427, 2165, 7279], 7279)],
    ("bench", "negation", 4, 4, "DP-LD", "any"): [([230, 220, 1595, 991, 929], 1595)],
    ("bench", "conjunction", 3, 3, "ZSTREAM-ORD", "any"): [([991, 1035, 4815, 1191, 140528], 140528)],
    ("bench", "kleene", 3, 3, "GREEDY", "any"): [([427, 4959, 9999, 991, 227], 92252)],
    ("bench", "disjunction", 3, 3, "DP-B", "any"): [
        ([276, 991, 262, 64, 67], 67),
        ([427, 626, 3567, 929, 27817], 27817),
        ([227, 414, 2, 214, 3], 3),
    ],
}

_SCAN = re.compile(r"InMemoryTableScan \[[^\]]*\], \[[^\]]*\(symbol#\d+ = (\w+)\)")


@pytest.fixture(scope="module")
def streams(spark):
    out = {}
    for name, cfg in STREAMS.items():
        pdf = stock_events_pdf(cfg)
        events = spark.createDataFrame(pdf).persist()
        out[name] = (events, estimate(pdf, cfg.duration, seed=0), _measured_window_counts(events))
    yield out
    for events, _, _ in out.values():
        events.unpersist()


def _executed_plan(spark, df) -> str:
    buf = io.StringIO()
    with _engine_conf(spark), contextlib.redirect_stdout(buf):
        df.explain()
    return buf.getvalue()


@pytest.mark.parametrize("case", list(EXPECTED), ids=lambda c: "-".join(map(str, c)))
def test_observed_counts_exact_one_job_per_subplan(spark, streams, case):
    name, category, size, seed, planner, strategy = case
    events, stats, measured = streams[name]
    pattern = make_pattern(category, size, stats, STREAMS[name].window, seed=seed)
    subs = pattern.subpatterns if pattern.op is Op.OR else (pattern,)
    rates = {t: stats.rates[t] for sp in subs for t in sp.types}
    planned = plan_pattern(pattern, rates, planner)

    sc = spark.sparkContext
    group = f"observed-{'-'.join(map(str, case))}"
    sc.setJobGroup(group, "observed counts")
    try:
        runs, _ = execute_pattern(spark, events, planned, strategy=strategy, measured=measured)
        jobs = sc.statusTracker().getJobIdsForGroup(group)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)

    got = [(r.metrics.intermediate_counts, r.metrics.n_matches) for r in runs]
    assert got == EXPECTED[case]
    assert len(jobs) == len(planned)
    for sp, run in zip(subs, runs):
        plan = _executed_plan(spark, run.matches)
        assert "SortMergeJoin" not in plan
        assert plan.count("ShuffledHashJoin") == len(sp.types) - 1
        # Every leaf keeps its symbol filter pushed into the cached scan.
        assert sorted(_SCAN.findall(plan)) == sorted(sp.types)
