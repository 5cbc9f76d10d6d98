"""Tests for the experiment harnesses (repro.experiments) at tiny scale."""
import os
from types import SimpleNamespace

import pytest

from repro.core.pattern import disj, seq
from repro.experiments.report import format_table, save_table
from repro.experiments.tables import (
    ExperimentConfig,
    Workbench,
    table1,
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

    def test_save_table(self, tmp_path):
        path = save_table("t", "hello", results_dir=str(tmp_path))
        assert os.path.exists(path)
        assert open(path).read() == "hello\n"


class TestConfig:
    def test_dp_caps(self):
        cfg = ExperimentConfig(dp_ld_max_n=5, dp_b_max_n=4)
        assert cfg.skip("DP-LD", 6) and not cfg.skip("DP-LD", 5)
        assert cfg.skip("DP-B", 5) and cfg.skip("ZSTREAM", 5)
        assert not cfg.skip("GREEDY", 100)


class TestTables:
    def test_table1_tiny(self, spark):
        rows, text = table1(spark, TINY)
        assert {r["algorithm"] for r in rows} == set(TINY.algorithms)
        assert all(r["throughput"] > 0 for r in rows)
        assert "sequence" in text

    def test_table4_planner_only(self):
        rows, _ = table4(None, TINY, sizes=(3, 5), per_size=1)
        by = {(r["size"], r["algorithm"]) for r in rows}
        assert (3, "DP-LD") in by and (5, "GREEDY") in by
        efreq = [r for r in rows if r["algorithm"] == "EFREQ"]
        assert all(r["norm_cost"] == pytest.approx(1.0) for r in efreq)
        assert all(
            r["norm_cost"] >= 1.0 - 1e-9
            for r in rows
            if r["algorithm"] == "DP-LD"
        )

    def test_table5_tiny(self, spark):
        rows, _ = table5(
            spark, TINY, alphas=(0.0, 1.0), algorithms=("GREEDY", "DP-LD")
        )
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
