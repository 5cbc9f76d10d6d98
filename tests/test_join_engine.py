"""Join-engine correctness: every match set checked against DuckDB.

The engine executes evaluation plans as Spark window-join dataflows;
``tests.cep_sql.pattern_sql`` expresses the same pattern as a DuckDB
multi-way self-join, and ``repro.oracle.assert_equivalent`` diffs the
sorted rows — so a wrong join condition, a misplaced negation, or a
broken plan mapping fails loudly, not silently.
"""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.cep.join_engine import execute_pattern, execute_planned
from repro.core.pattern import Predicate, conj, disj, seq
from repro.core.planner import plan_pattern, plan_simple
from repro.core.plans import OrderPlan
from repro.oracle import assert_equivalent
from repro.streams.estimation import estimate
from repro.streams.stock import StreamConfig, stock_events_pdf
from repro.workloads.generator import make_pattern
from tests.cep_sql import pattern_sql

CFG = StreamConfig(n_symbols=6, duration=600.0, window=60.0, seed=21)


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


def check_against_oracle(spark, events, events_pdf, pattern, algorithm, **kw):
    planned = plan_simple(pattern, kw.pop("rates"), algorithm, **kw.pop("plan_kw", {}))
    run = execute_planned(spark, events, planned, **kw)
    strategy = kw.get("strategy", "any")
    matches = run.matches
    if pattern.kleene:
        (k,) = pattern.kleene
        matches = matches.select(
            *[c for c in matches.columns if c != "kl_ids"],
            F.explode("kl_ids").alias(f"p{k}_id"),
        )
    assert_equivalent(
        matches, pattern_sql(pattern, strategy=strategy), ev=events_pdf
    )
    return run


def rates_of(stats, pattern):
    return stats.rates_for(pattern.types)


class TestSequencePatterns:
    @pytest.mark.parametrize("algorithm", ["TRIVIAL", "EFREQ", "DP-LD"])
    def test_order_plans_match_oracle(
        self, spark, events, events_pdf, stats, algorithm
    ):
        p = make_pattern("sequence", 3, stats, CFG.window, seed=1)
        check_against_oracle(
            spark, events, events_pdf, p, algorithm, rates=rates_of(stats, p)
        )

    @pytest.mark.parametrize("algorithm", ["ZSTREAM", "DP-B"])
    def test_tree_plans_match_oracle(
        self, spark, events, events_pdf, stats, algorithm
    ):
        p = make_pattern("sequence", 4, stats, CFG.window, seed=2)
        check_against_oracle(
            spark, events, events_pdf, p, algorithm, rates=rates_of(stats, p)
        )

    def test_all_plans_agree_on_match_count(self, spark, events, events_pdf, stats):
        p = make_pattern("sequence", 4, stats, CFG.window, seed=3)
        rates = rates_of(stats, p)
        counts = set()
        for alg in ("TRIVIAL", "EFREQ", "GREEDY", "DP-LD", "ZSTREAM", "DP-B"):
            run = execute_planned(
                spark, events, plan_simple(p, rates, alg)
            )
            counts.add(run.metrics.n_matches)
        assert len(counts) == 1

    def test_better_plan_fewer_partials(self, spark, events, events_pdf, stats):
        """The core claim: the optimizer's plan materializes fewer
        intermediate partial matches than the trivial one."""
        p = make_pattern("sequence", 5, stats, CFG.window, seed=4)
        rates = rates_of(stats, p)
        triv = execute_planned(spark, events, plan_simple(p, rates, "TRIVIAL"))
        opt = execute_planned(spark, events, plan_simple(p, rates, "DP-LD"))
        assert opt.metrics.n_matches == triv.metrics.n_matches
        assert opt.metrics.memory_proxy <= triv.metrics.memory_proxy


class TestConjunctionPatterns:
    @pytest.mark.parametrize("algorithm", ["EFREQ", "DP-LD", "DP-B"])
    def test_match_oracle(self, spark, events, events_pdf, stats, algorithm):
        p = make_pattern("conjunction", 3, stats, CFG.window, seed=5)
        check_against_oracle(
            spark, events, events_pdf, p, algorithm, rates=rates_of(stats, p)
        )

    def test_duplicate_type_distinct_events(self, spark, events, events_pdf):
        p = conj(("S00", "S00"), (), window=CFG.window)
        rates = {"S00": 0.1}
        run = execute_planned(spark, events, plan_simple(p, rates, "TRIVIAL"))
        got = run.matches.toPandas()
        assert (got["p0_id"] != got["p1_id"]).all()


class TestNegationPatterns:
    @pytest.mark.parametrize("algorithm", ["TRIVIAL", "DP-LD", "DP-B"])
    def test_match_oracle(self, spark, events, events_pdf, stats, algorithm):
        p = make_pattern("negation", 4, stats, CFG.window, seed=6)
        check_against_oracle(
            spark, events, events_pdf, p, algorithm, rates=rates_of(stats, p)
        )

    def test_negation_removes_matches(self, spark, events, events_pdf, stats):
        pos = make_pattern("sequence", 3, stats, CFG.window, seed=7)
        neg = seq(
            (pos.types[0], "S05", pos.types[1], pos.types[2]),
            tuple(
                Predicate(q.i if q.i < 1 else q.i + 1, q.j + 1, q.kind, q.sel)
                for q in pos.predicates
            ),
            CFG.window,
            negated=(1,),
        )
        rates = {**rates_of(stats, pos), "S05": stats.rates["S05"]}
        n_pos = execute_planned(
            spark, events, plan_simple(pos, rates, "TRIVIAL")
        ).metrics.n_matches
        n_neg = execute_planned(
            spark, events, plan_simple(neg, rates, "TRIVIAL")
        ).metrics.n_matches
        assert n_neg <= n_pos

    @staticmethod
    def check_edge_negation(spark, events, events_pdf, stats, p, expected):
        """Both orders of the two positive positions match the oracle. The
        order plan reports its first stage, its join, then the raw buffer
        of the second type (a lazy NFA buffers every event), so a negation
        checked on the second type alone does not shrink its buffer."""
        base = plan_simple(p, stats.rates_for(p.types), "DP-LD")
        for order, counts in expected.items():
            run = execute_planned(spark, events, replace(base, order_plan=OrderPlan(order)))
            assert_equivalent(run.matches, pattern_sql(p), ev=events_pdf)
            assert run.metrics.intermediate_counts == counts, order

    def test_negated_first_position(self, spark, events, events_pdf, stats):
        p = seq(("S01", "S02", "S03"), (), CFG.window, negated=(0,))
        expected = {(0, 1): [16, 58, 32], (1, 0): [32, 58, 172]}
        self.check_edge_negation(spark, events, events_pdf, stats, p, expected)

    def test_negated_last_position(self, spark, events, events_pdf, stats):
        p = seq(("S01", "S02", "S03"), (), CFG.window, negated=(2,))
        expected = {(0, 1): [149, 469, 172], (1, 0): [57, 469, 149]}
        self.check_edge_negation(spark, events, events_pdf, stats, p, expected)

    @pytest.mark.parametrize("algorithm", ["TRIVIAL", "DP-B"])
    def test_negated_type_repeating_a_positive_type(self, spark, algorithm):
        """AND(A, B, NOT A) on one A and one B: the positive A is not also
        the absent one, so the pair matches, as it matches AND(A, B)."""
        pdf = pd.DataFrame(
            {
                "event_id": [0, 1],
                "symbol": ["A", "B"],
                "ts": [1.0, 2.0],
                "wid": [0, 0],
                "serial": [0, 1],
                "price": 100.0,
                "diff": 0.0,
            }
        )
        p = conj(("A", "B", "A"), (), 10.0, negated=(2,))
        planned = plan_simple(p, {"A": 1.0, "B": 1.0}, algorithm)
        run = execute_planned(spark, spark.createDataFrame(pdf), planned)
        assert run.metrics.n_matches == 1
        assert_equivalent(run.matches, pattern_sql(p), ev=pdf)


class TestKleenePatterns:
    @pytest.mark.parametrize("algorithm", ["DP-LD", "DP-B"])
    def test_pre_aggregation_matches_oracle(
        self, spark, events, events_pdf, stats, algorithm
    ):
        p = make_pattern("kleene", 3, stats, CFG.window, seed=8)
        check_against_oracle(
            spark, events, events_pdf, p, algorithm, rates=rates_of(stats, p)
        )

    def test_logical_count_is_power_set(self, spark, events, events_pdf, stats):
        """n_matches folds 2^m − 1 subsets per base combination."""
        import duckdb

        p = make_pattern("kleene", 3, stats, CFG.window, seed=9)
        run = execute_planned(
            spark, events, plan_simple(p, rates_of(stats, p), "DP-LD")
        )
        con = duckdb.connect()
        con.register("ev", events_pdf)
        ref = con.execute(pattern_sql(p)).fetchdf()
        con.close()
        (k,) = p.kleene
        base_cols = [c for c in ref.columns if c != f"p{k}_id"]
        expected = int((2.0 ** ref.groupby(base_cols).size() - 1).sum())
        assert run.metrics.n_matches == expected

    @pytest.mark.parametrize("m", [60, 1100])
    def test_logical_count_is_exact_for_large_groups(self, spark, m):
        """2^m − 1 in integers: a float sum is inexact past m ≈ 53 and
        overflows past m ≈ 1023."""
        n = m + 2
        pdf = pd.DataFrame(
            {
                "event_id": np.arange(n),
                "symbol": ["A"] + ["B"] * m + ["C"],
                "ts": np.concatenate([[0.0], np.linspace(1.0, 50.0, m), [55.0]]),
                "wid": np.zeros(n, dtype=np.int64),
                "serial": np.arange(n),
                "price": np.ones(n),
                "diff": np.zeros(n),
            }
        )
        p = seq(("A", "B", "C"), (), 60.0, kleene=(1,))
        planned = plan_simple(p, {"A": 1.0, "B": float(m), "C": 1.0}, "TRIVIAL")
        run = execute_planned(spark, spark.createDataFrame(pdf), planned)
        assert run.metrics.n_matches == 2**m - 1


class TestAbsentTypes:
    """A pattern type absent from the stream yields zero matches."""

    @pytest.mark.parametrize("source", ["cached", "in_memory"])
    def test_order_plan(self, spark, events, events_pdf, stats, source):
        """``in_memory`` is a small ``LocalRelation``: the optimizer can see
        that the S99 leaf is empty before the plan runs. (It holds other
        rows than the cached stream, which Spark would substitute.)"""
        if source == "in_memory":
            events_pdf = events_pdf[events_pdf["wid"] < 5]
            events = spark.createDataFrame(events_pdf)
        p = seq(("S00", "S99", "S01"), (), CFG.window)
        rates = {"S99": 0.01, "S00": stats.rates["S00"], "S01": stats.rates["S01"]}
        run = execute_planned(spark, events, plan_simple(p, rates, "TRIVIAL"))
        assert run.metrics.n_matches == 0 and run.matches.count() == 0
        n00, n01 = ((events_pdf["symbol"] == t).sum() for t in ("S00", "S01"))
        # Observed stages S00, S00·S99, S00·S99·S01; then the S99, S01 buffers.
        assert run.metrics.intermediate_counts == [n00, 0, 0, 0, n01]

    def test_tree_plan(self, spark, events, stats):
        p = seq(("S00", "S99", "S01"), (), CFG.window)
        rates = {"S99": 0.01, "S00": stats.rates["S00"], "S01": stats.rates["S01"]}
        run = execute_planned(spark, events, plan_simple(p, rates, "ZSTREAM"))
        m = run.metrics
        assert m.n_matches == 0 and run.matches.count() == 0
        assert m.intermediate_counts[-1] == 0  # the root, post-order last
        assert 0 < m.intermediate_counts.count(0) < len(m.intermediate_counts)


class TestDisjunctionPatterns:
    def test_subpatterns_union(self, spark, events, events_pdf, stats):
        d = make_pattern("disjunction", 3, stats, CFG.window, seed=10)
        rates = {
            t: stats.rates[t] for sp in d.subpatterns for t in sp.types
        }
        planned = plan_pattern(d, rates, "DP-LD")
        runs, merged = execute_pattern(spark, events, planned)
        assert len(runs) == 3
        assert merged.n_matches == sum(r.metrics.n_matches for r in runs)
        for sp, run in zip(d.subpatterns, runs):
            assert_equivalent(run.matches, pattern_sql(sp), ev=events_pdf)


class TestContiguityStrategy:
    def test_matches_oracle(self, spark, events, events_pdf, stats):
        p = seq(("S00", "S01", "S02"), (), CFG.window)
        check_against_oracle(
            spark,
            events,
            events_pdf,
            p,
            "TRIVIAL",
            rates=stats.rates_for(p.types),
            strategy="contiguity",
        )

    def test_far_fewer_matches_than_any(self, spark, events, events_pdf, stats):
        p = make_pattern("sequence", 3, stats, CFG.window, seed=11)
        rates = rates_of(stats, p)
        planned = plan_simple(p, rates, "TRIVIAL")
        any_run = execute_planned(spark, events, planned, strategy="any")
        cont_run = execute_planned(spark, events, planned, strategy="contiguity")
        assert cont_run.metrics.n_matches <= any_run.metrics.n_matches


class TestMetrics:
    def test_intermediate_counts_monotone_semantics(
        self, spark, events, events_pdf, stats
    ):
        p = make_pattern("sequence", 4, stats, CFG.window, seed=12)
        run = execute_planned(
            spark, events, plan_simple(p, rates_of(stats, p), "DP-LD")
        )
        m = run.metrics
        assert len(m.intermediate_counts) >= 4
        assert m.wall_seconds > 0 and m.throughput > 0
        assert m.n_events == len(events_pdf)
        assert m.memory_proxy >= max(m.intermediate_counts)

    def test_latency_surrogate_zero_when_last_type_last(
        self, spark, events, events_pdf, stats
    ):
        p = seq(("S00", "S01", "S02"), (), CFG.window)
        rates = stats.rates_for(p.types)
        run = execute_planned(spark, events, plan_simple(p, rates, "TRIVIAL"))
        assert run.metrics.latency_surrogate == 0.0

    def test_latency_surrogate_per_plan_kind(self, spark, events, stats):
        """§6.1 measured: ``Cost^lat_ord`` sums the per-window buffers of
        the types the order places after T_n; ``Cost^lat_tree`` sums the
        per-window sizes of the siblings on T_n's path to the root."""
        p = make_pattern("sequence", 4, stats, CFG.window, seed=40)
        rates = rates_of(stats, p)
        for algorithm, latency in (("DP-LD", 23.8), ("DP-B", 77.2)):
            run = execute_planned(spark, events, plan_simple(p, rates, algorithm))
            assert run.metrics.latency_surrogate == pytest.approx(latency), algorithm

    def test_next_strategy_rejected(self, spark, events, stats):
        p = seq(("S00", "S01"), (), CFG.window)
        planned = plan_simple(p, stats.rates_for(p.types), "TRIVIAL")
        with pytest.raises(ValueError):
            execute_planned(spark, events, planned, strategy="next")
