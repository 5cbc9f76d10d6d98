"""Tests for the experiment harnesses (repro.experiments) at tiny scale."""
import os
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.cep.event_engine import run_matches, run_metrics
from repro.core.pattern import disj, seq
from repro.core.plans import OrderPlan
from repro.experiments import report, tables
from repro.experiments.report import format_table, save_table
from repro.experiments.tables import (
    FIG17_ALGS,
    ExperimentConfig,
    Workbench,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from repro.streams.estimation import estimate
from repro.streams.stock import StreamConfig, stock_events_pdf

TINY = ExperimentConfig(
    stream=StreamConfig(n_symbols=6, duration=240.0, window=60.0, seed=13),
    categories=("sequence",),
    sizes=(3,),
    per_size=1,
    algorithms=("TRIVIAL", "EFREQ", "DP-LD", "DP-B"),
)


def test_rates_of_unseen_symbol_is_zero():
    # rates_of reads only the measured statistics, so no Spark is needed.
    stats = estimate(stock_events_pdf(TINY.stream), TINY.stream.duration)
    p = disj([seq(("S00", "XYZ"), window=60.0), seq(("S01",), window=60.0)])
    assert Workbench.rates_of(SimpleNamespace(stats=stats), p) == {
        "S00": stats.rates["S00"],
        "XYZ": 0.0,
        "S01": stats.rates["S01"],
    }


@pytest.mark.parametrize("run", [run_metrics, run_matches])
@pytest.mark.parametrize(
    "pattern, strategy, message",
    [
        (seq("ABC", window=60.0, negated=(1,)), "any", "pure SEQ/AND"),
        (seq("ABC", window=60.0, kleene=(1,)), "any", "pure SEQ/AND"),
        (disj([seq("AB", window=60.0), seq("C", window=60.0)]), "any", "pure SEQ/AND"),
        (seq("ABC", window=60.0), "bogus", "unknown strategy"),
        (seq("ABA", window=60.0), "any", "distinct types"),
    ],
    ids=["negation", "kleene", "disjunction", "strategy", "duplicate-types"],
)
def test_event_engine_rejects_bad_input_before_spark(run, pattern, strategy, message):
    # No session and no events: the check runs on the driver, before any query.
    with pytest.raises(ValueError, match=message):
        run(None, None, pattern, OrderPlan((0, 1, 2)), strategy=strategy)


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(
            [{"a": 1, "b": 2.34567}, {"a": 100, "b": 0.5}], ["a", "b"]
        )
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "2.346" in text and "100" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_missing_key_blank(self):
        text = format_table([{"a": 1}], ["a", "b"])
        assert "b" in text

    def test_save_table(self, tmp_path, monkeypatch):
        monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
        path = save_table("t", "hello")
        assert path == os.path.join(str(tmp_path), "t.txt")
        assert open(path).read() == "hello\n"


class TestConfig:
    def test_dp_caps(self):
        cfg = ExperimentConfig(dp_b_max_n=4)
        assert cfg.skip("DP-LD", 23) and not cfg.skip("DP-LD", 22)
        assert cfg.skip("DP-B", 5) and cfg.skip("ZSTREAM", 5)
        assert not cfg.skip("GREEDY", 100)


def n_calls(cfg: ExperimentConfig) -> int:
    """Calls of a sequence-only config: one pattern per size and k, and
    every algorithm the DP caps allow at that size."""
    return sum(
        not cfg.skip(alg, size)
        for size in cfg.sizes
        for _ in range(cfg.per_size)
        for alg in cfg.algorithms
    )


class TestTables:
    def test_workbench_unpersists_when_body_raises(self, spark):
        with pytest.raises(RuntimeError, match="body"):
            with Workbench(spark, TINY) as bench:
                assert bench.events.is_cached
                raise RuntimeError("body")
        assert not bench.events.is_cached
        assert not bench.events.storageLevel.useMemory

    def test_table1_tiny(self, spark):
        rows, text = table1(spark, TINY)
        assert {r["algorithm"] for r in rows} == set(TINY.algorithms)
        assert all(r["throughput"] > 0 for r in rows)
        assert "sequence" in text

    def test_table2_n_sums_to_calls(self, spark):
        cfg = replace(TINY, sizes=(3, 4), dp_b_max_n=3)
        rows, _ = table2(spark, cfg)
        assert sum(r["n"] for r in rows) == n_calls(cfg) == 7
        assert {(r["size"], r["algorithm"]) for r in rows} == {
            (3, "TRIVIAL"), (3, "EFREQ"), (3, "DP-LD"), (3, "DP-B"),
            (4, "TRIVIAL"), (4, "EFREQ"), (4, "DP-LD"),
        }

    def test_table3_one_row_per_call(self, spark):
        result, _ = table3(spark, TINY)
        rows = result["rows"]
        assert len(rows) == n_calls(TINY)
        assert all(r["cost"] > 0 for r in rows)
        assert result["summary"]["n_plans"] == len(rows)

    def test_table4_planner_only(self):
        rows, _ = table4(None, replace(TINY, sizes=(3, 5), algorithms=FIG17_ALGS))
        by = {(r["size"], r["algorithm"]) for r in rows}
        assert (3, "DP-LD") in by and (5, "GREEDY") in by
        efreq = [r for r in rows if r["algorithm"] == "EFREQ"]
        assert all(r["norm_cost"] == pytest.approx(1.0) for r in efreq)
        assert all(
            r["norm_cost"] >= 1.0 - 1e-9
            for r in rows
            if r["algorithm"] == "DP-LD"
        )

    def test_table4_reads_sizes_counts_and_planners_from_cfg(self, monkeypatch):
        made, original = [], tables.make_pattern

        def make_pattern(category, size, *args, **kw):
            made.append((category, size))
            return original(category, size, *args, **kw)

        monkeypatch.setattr(tables, "make_pattern", make_pattern)
        cfg = replace(TINY, categories=("conjunction",), sizes=(3, 4), per_size=2,
                      algorithms=("GREEDY", "DP-LD"))
        rows, _ = table4(None, cfg)
        assert made == [("sequence", 3)] * 2 + [("sequence", 4)] * 2
        assert [(r["size"], r["algorithm"]) for r in rows] == [
            (3, "GREEDY"), (3, "DP-LD"), (4, "GREEDY"), (4, "DP-LD"),
        ]

    def test_table5_tiny(self, spark):
        cfg = replace(TINY, algorithms=("GREEDY", "DP-LD"))
        rows, _ = table5(spark, cfg, alphas=(0.0, 1.0))
        assert {r["algorithm"] for r in rows} == {"GREEDY", "DP-LD"}
        assert {r["alpha"] for r in rows} == {0.0, 1.0}
        by = {(r["algorithm"], r["alpha"]): r for r in rows}
        assert by[("DP-LD", 1.0)]["latency"] <= by[("DP-LD", 0.0)]["latency"] + 1e-9

    def test_table6_tiny(self, spark):
        rows, _ = table6(spark, TINY, strategies=("any", "next"))
        assert {r["strategy"] for r in rows} == {"any", "next"}
        by = {(r["strategy"], r["algorithm"]): r for r in rows}
        assert (
            by[("next", "TRIVIAL")]["matches"]
            <= by[("any", "TRIVIAL")]["matches"]
        )
