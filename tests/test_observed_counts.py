"""Observed stage counts: exact, one Spark job per subplan, hash joins only,
no shuffle below a join.

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

The engine reads a batch stream through one clustered copy, persisted and
hash-partitioned on ``wid``; the last tests check that copy's life cycle.
"""
import contextlib
import io
import re

import pytest
from pyspark import StorageLevel

from benchmarks.bench_config import BENCH_STREAM
from repro.cep import join_engine
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
_EXCHANGE = re.compile(r"Exchange hashpartitioning\(([^()]*), \d+\)")


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


def _in_group(spark, group, fn):
    """``fn()``'s result and the ids of the Spark jobs it ran."""
    sc = spark.sparkContext
    sc.setJobGroup(group, "observed counts")
    try:
        out = fn()
        return out, sorted(sc.statusTracker().getJobIdsForGroup(group))
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)


def _stages_run(spark, job) -> int:
    """Stages of ``job`` that ran a task (a skipped stage runs none)."""
    tracker = spark.sparkContext.statusTracker()
    infos = [tracker.getStageInfo(s) for s in tracker.getJobInfo(job).stageIds]
    return sum(1 for i in infos if i is not None and i.numCompletedTasks > 0)


def _plan_case(stats, name, category, size, seed, planner):
    pattern = make_pattern(category, size, stats, STREAMS[name].window, seed=seed)
    subs = pattern.subpatterns if pattern.op is Op.OR else (pattern,)
    rates = {t: stats.rates[t] for sp in subs for t in sp.types}
    return subs, plan_pattern(pattern, rates, planner)


def _executed_plan(spark, df) -> str:
    buf = io.StringIO()
    with _engine_conf(spark), contextlib.redirect_stdout(buf):
        df.explain()
    return buf.getvalue()


@pytest.mark.parametrize("case", list(EXPECTED), ids=lambda c: "-".join(map(str, c)))
def test_observed_counts_exact_one_job_per_subplan(spark, streams, case):
    name, category, size, seed, planner, strategy = case
    events, stats, measured = streams[name]
    subs, planned = _plan_case(stats, name, category, size, seed, planner)
    (runs, _), jobs = _in_group(
        spark,
        f"observed-{'-'.join(map(str, case))}",
        lambda: execute_pattern(spark, events, planned, strategy=strategy, measured=measured),
    )

    got = [(r.metrics.intermediate_counts, r.metrics.n_matches) for r in runs]
    assert got == EXPECTED[case]
    assert len(jobs) == len(planned)
    for sp, run in zip(subs, runs):
        plan = _executed_plan(spark, run.matches)
        assert "SortMergeJoin" not in plan
        assert plan.count("ShuffledHashJoin") == len(sp.types) - 1
        # Every leaf keeps its symbol filter pushed into the cached scan.
        assert sorted(_SCAN.findall(plan)) == sorted(sp.types)
        # Every leaf reads the clustered copy, so no join input is
        # shuffled: the only exchanges are the copy's own, on the stream's
        # `wid`, and a Kleene pattern's group-by on its match ids.
        ids = ", ".join(f"p{i}_id" for i in sp.positive() if i not in sp.kleene)
        allowed = {"wid", ids} if sp.kleene else {"wid"}
        for keys in _EXCHANGE.findall(plan):
            assert re.sub(r"#\d+L?", "", keys) in allowed, keys


def _fresh_stream(spark, seed):
    """A new, unmeasured stream DataFrame and its pandas-measured counts."""
    cfg = StreamConfig(n_symbols=6, duration=600.0, window=60.0, seed=seed)
    pdf = stock_events_pdf(cfg)
    n_windows = int(pdf["wid"].nunique())
    per_window = {s: c / n_windows for s, c in pdf["symbol"].value_counts().items()}
    stats = estimate(pdf, cfg.duration, seed=0)
    return spark.createDataFrame(pdf), stats, (per_window, len(pdf), n_windows)


def test_clustered_copy_is_filled_once_and_reused(spark):
    """A fresh stream's first call fills the copy inside its own job, one
    job per subplan; a second call reuses the copy and its leaf frames,
    so every job runs one stage."""
    events, stats, measured = _fresh_stream(spark, seed=61)
    _, planned = _plan_case(stats, "test", "disjunction", 3, 44, "DP-LD")

    def call():
        return execute_pattern(spark, events, planned, measured=measured)[1].n_matches

    first, jobs = _in_group(spark, "clustered-first", call)
    held = join_engine._clustered_stream
    leaves = dict(held.leaves)
    assert held.events is events
    assert len(jobs) == len(planned)
    assert _stages_run(spark, jobs[0]) == 2  # the copy's fill, then the plan

    second, jobs = _in_group(spark, "clustered-second", call)
    assert second == first
    assert join_engine._clustered_stream is held
    assert held.leaves.keys() == leaves.keys()
    assert all(held.leaves[k] is df for k, df in leaves.items())
    assert len(jobs) == len(planned)
    assert [_stages_run(spark, j) for j in jobs] == [1] * len(planned)


def test_new_stream_unpersists_the_old_copy(spark):
    streams = [_fresh_stream(spark, seed) for seed in (62, 63)]
    _, planned = _plan_case(streams[0][1], "test", "sequence", 3, 40, "DP-LD")
    copies = []
    for events, _, measured in streams:
        execute_pattern(spark, events, planned, measured=measured)
        copies.append(join_engine._clustered_stream.copy)
    old, new = copies
    assert old.storageLevel == StorageLevel.NONE
    assert new.is_cached and new.storageLevel != StorageLevel.NONE
