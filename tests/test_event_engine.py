"""Event-engine (applyInPandas) tests: oracle + engine cross-validation."""
import re

import pandas as pd
import pytest

from repro.cep.event_engine import run_matches, run_metrics
from repro.cep.join_engine import execute_planned
from repro.core.pattern import seq
from repro.core.planner import plan_simple
from repro.oracle import assert_equivalent
from repro.streams.estimation import estimate
from repro.streams.stock import StreamConfig, stock_events_pdf
from repro.workloads.generator import make_pattern
from tests.cep_sql import pattern_sql

CFG = StreamConfig(n_symbols=6, duration=480.0, window=60.0, seed=31)


@pytest.fixture(scope="module")
def events_pdf():
    return stock_events_pdf(CFG)


@pytest.fixture(scope="module")
def events(spark, events_pdf):
    df = spark.createDataFrame(events_pdf).persist()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="module")
def stats(events_pdf):
    return estimate(events_pdf, CFG.duration, seed=0)


class TestAnyMatch:
    @pytest.mark.parametrize("algorithm", ["TRIVIAL", "DP-LD"])
    def test_order_plan_matches_oracle(
        self, spark, events, events_pdf, stats, algorithm
    ):
        p = make_pattern("sequence", 3, stats, CFG.window, seed=1)
        pp = plan_simple(p, stats.rates_for(p.types), algorithm)
        got = run_matches(spark, events, p, pp.order_plan)
        assert_equivalent(got, pattern_sql(p), ev=events_pdf)

    def test_tree_plan_matches_oracle(self, spark, events, events_pdf, stats):
        p = make_pattern("sequence", 3, stats, CFG.window, seed=2)
        pp = plan_simple(p, stats.rates_for(p.types), "DP-B")
        got = run_matches(spark, events, p, pp.tree_plan)
        assert_equivalent(got, pattern_sql(p), ev=events_pdf)

    def test_agrees_with_join_engine(self, spark, events, events_pdf, stats):
        """Both evaluation mechanisms detect the same matches."""
        p = make_pattern("sequence", 4, stats, CFG.window, seed=3)
        pp = plan_simple(p, stats.rates_for(p.types), "GREEDY")
        ev_matches = run_matches(spark, events, p, pp.order_plan).toPandas()
        join_matches = execute_planned(spark, events, pp).matches.toPandas()
        key = sorted(ev_matches.columns)
        a = ev_matches[key].sort_values(key).reset_index(drop=True)
        b = join_matches[key].sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    def test_metrics_aggregation(self, spark, events, events_pdf, stats):
        p = make_pattern("sequence", 3, stats, CFG.window, seed=4)
        pp = plan_simple(p, stats.rates_for(p.types), "DP-LD")
        rows, m = run_metrics(spark, events, p, pp.order_plan)
        assert m.n_events == len(events_pdf)
        assert m.n_matches == int(rows["n_matches"].sum())
        assert m.n_windows == len(rows)
        assert m.throughput > 0

    def test_metrics_run_no_more_jobs_than_matches(self, spark, events, stats):
        """run_metrics takes the event count from its per-window rows instead
        of a second Spark action."""
        p = make_pattern("sequence", 3, stats, CFG.window, seed=4)
        pp = plan_simple(p, stats.rates_for(p.types), "DP-LD")
        sc = spark.sparkContext

        def jobs_of(group, action):
            sc.setJobGroup(group, "event engine jobs")
            try:
                action()
                return len(sc.statusTracker().getJobIdsForGroup(group))
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)

        metric_jobs = jobs_of("ev-metrics", lambda: run_metrics(spark, events, p, pp.order_plan))
        match_jobs = jobs_of(
            "ev-matches", lambda: run_matches(spark, events, p, pp.order_plan).toPandas()
        )
        assert 0 < metric_jobs <= match_jobs


    def test_only_detector_columns_reach_the_windows(self, spark, events, stats):
        """The events are projected before the shuffle (``price`` is not
        read), and no row is filtered: n_events is checked above."""
        p = make_pattern("sequence", 3, stats, CFG.window, seed=1)
        pp = plan_simple(p, stats.rates_for(p.types), "DP-LD")
        plan = run_matches(spark, events, p, pp.order_plan)._jdf.queryExecution().optimizedPlan()
        (udf_line,) = [ln for ln in plan.toString().splitlines() if "FlatMapGroupsInPandas" in ln]
        args = re.search(r"fn\(([^)]*)\)", udf_line).group(1).split(", ")
        assert [a.split("#")[0] for a in args] == ["wid", "symbol", "event_id", "ts", "serial", "diff"]


class TestStrategies:
    def test_next_match_consumes(self, spark, events, events_pdf, stats):
        p = make_pattern("sequence", 3, stats, CFG.window, seed=5)
        pp = plan_simple(p, stats.rates_for(p.types), "TRIVIAL")
        any_m = run_matches(spark, events, p, pp.order_plan).toPandas()
        nxt_m = run_matches(
            spark, events, p, pp.order_plan, strategy="next"
        ).toPandas()
        used = nxt_m.to_numpy().ravel()
        assert len(used) == len(set(used))
        assert len(nxt_m) <= len(any_m)

    def test_contiguity_agrees_with_join_engine(
        self, spark, events, events_pdf, stats
    ):
        p = seq(("S00", "S01", "S02"), (), CFG.window)
        pp = plan_simple(p, stats.rates_for(p.types), "TRIVIAL")
        got = run_matches(spark, events, p, pp.order_plan, strategy="contiguity")
        assert_equivalent(
            got, pattern_sql(p, strategy="contiguity"), ev=events_pdf
        )

    def test_peak_partials_lower_under_next(self, spark, events, events_pdf, stats):
        p = make_pattern("sequence", 4, stats, CFG.window, seed=6)
        pp = plan_simple(p, stats.rates_for(p.types), "TRIVIAL")
        _, m_any = run_metrics(spark, events, p, pp.order_plan, strategy="any")
        _, m_next = run_metrics(spark, events, p, pp.order_plan, strategy="next")
        assert m_next.memory_proxy <= m_any.memory_proxy
