"""Structured Streaming integration: stream-stream joins == batch engine."""
import math
import threading
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest
from pyspark.sql.streaming import StreamingQueryListener

from repro.cep import join_engine
from repro.cep.join_engine import execute_planned
from repro.cep.streaming import execute_streaming, stage_stream
from repro.core.pattern import Predicate, conj, seq
from repro.core.planner import plan_simple
from repro.core.plans import TreePlan, join, leaf
from repro.oracle import assert_equivalent
from repro.streams.estimation import estimate
from repro.streams.stock import StreamConfig, stock_events_pdf
from tests.cep_sql import pattern_sql

CFG = StreamConfig(n_symbols=5, duration=360.0, window=60.0, seed=41)


@pytest.fixture(scope="module")
def events_pdf():
    return stock_events_pdf(CFG)


@pytest.fixture(scope="module")
def staged(events_pdf, tmp_path_factory):
    d = tmp_path_factory.mktemp("stream_input")
    stage_stream(events_pdf, str(d), n_slices=5)
    return str(d)


def _canon(pdf):
    cols = sorted(pdf.columns)
    return pdf[cols].sort_values(cols).reset_index(drop=True)


def _hand_built(symbols, ts, window):
    """A stream of the given symbols and times, in serial order."""
    ts = np.asarray(ts, dtype=float)
    return pd.DataFrame(
        {
            "event_id": np.arange(len(ts)),
            "symbol": symbols,
            "ts": ts,
            "wid": (ts // window).astype(np.int64),
            "serial": np.arange(len(ts)),
            "price": 100.0,
            "diff": 0.0,
        }
    )


class _StateRows(StreamingQueryListener):
    """Records ``numRowsTotal`` of every state operator per micro-batch."""

    def __init__(self):
        self.batches = []
        self.terminated = threading.Event()

    def onQueryStarted(self, event):
        pass

    def onQueryProgress(self, event):
        self.batches.append([op.numRowsTotal for op in event.progress.stateOperators])

    def onQueryIdle(self, event):
        pass

    def onQueryTerminated(self, event):
        self.terminated.set()


class TestStreaming:
    def test_sequence_matches_oracle(self, spark, events_pdf, staged, stats=None):
        st = estimate(events_pdf, CFG.duration, seed=0)
        p = seq(("S00", "S01", "S02"), (), CFG.window)
        pp = plan_simple(p, st.rates_for(p.types), "DP-LD")
        got_pdf = execute_streaming(spark, pp, staged)
        got = spark.createDataFrame(got_pdf) if len(got_pdf) else None
        if got is None:
            # Degenerate stream — oracle must agree it is empty.
            import duckdb

            con = duckdb.connect()
            con.register("ev", events_pdf)
            assert len(con.execute(pattern_sql(p)).fetchdf()) == 0
            con.close()
            return
        assert_equivalent(got, pattern_sql(p), ev=events_pdf)

    def test_reordered_plan_same_result(self, spark, events_pdf, staged):
        """The optimized join ordering changes the dataflow, not the answer."""
        st = estimate(events_pdf, CFG.duration, seed=0)
        p = seq(("S00", "S03", "S04"), (), CFG.window)
        triv = plan_simple(p, st.rates_for(p.types), "TRIVIAL")
        opt = plan_simple(p, st.rates_for(p.types), "EFREQ")
        a = execute_streaming(spark, triv, staged)
        b = execute_streaming(spark, opt, staged)
        pd.testing.assert_frame_equal(_canon(a), _canon(b))

    def test_batch_engine_agrees_and_keeps_its_copy(self, spark, events_pdf, staged):
        """A tree plan finds the batch engine's matches on Structured
        Streaming, and its streaming input never replaces the batch
        engine's clustered copy of a stream."""
        st = estimate(events_pdf, CFG.duration, seed=0)
        p = seq(("S00", "S01", "S02"), (), CFG.window)
        pp = plan_simple(p, st.rates_for(p.types), "DP-B")
        batch = execute_planned(spark, spark.createDataFrame(events_pdf), pp)
        held = join_engine._clustered_stream
        got = execute_streaming(spark, pp, staged)
        assert join_engine._clustered_stream is held
        assert held.copy.is_cached
        assert batch.metrics.n_matches == len(got) > 0
        pd.testing.assert_frame_equal(
            _canon(got), _canon(batch.matches.toPandas()), check_dtype=False
        )

    def test_conjunction(self, spark, events_pdf, staged):
        st = estimate(events_pdf, CFG.duration, seed=0)
        p = conj(("S01", "S02"), (), CFG.window)
        pp = plan_simple(p, st.rates_for(p.types), "TRIVIAL")
        got_pdf = execute_streaming(spark, pp, staged)
        import duckdb

        con = duckdb.connect()
        con.register("ev", events_pdf)
        ref = con.execute(pattern_sql(p)).fetchdf()
        con.close()
        pd.testing.assert_frame_equal(
            _canon(got_pdf), _canon(ref), check_dtype=False
        )

    def test_bushy_tree_plan_with_cross_subtree_predicate(self, spark, events_pdf, staged):
        """Theorem 2's bushy tree as stream-stream joins: ((0, 2), (1, 3)),
        with a declared predicate between positions 0 and 1, which the
        two subtrees bind."""
        st = estimate(events_pdf, CFG.duration, seed=0)
        p = seq(("S00", "S01", "S02", "S03"), (Predicate(0, 1, "diff_lt"),), CFG.window)
        bushy = TreePlan(join(join(leaf(0), leaf(2)), join(leaf(1), leaf(3))))
        pp = replace(plan_simple(p, st.rates_for(p.types), "DP-B"), tree_plan=bushy)
        got = execute_streaming(spark, pp, staged)
        assert len(got) > 0
        assert_equivalent(spark.createDataFrame(got), pattern_sql(p), ev=events_pdf)

    def test_contiguity(self, spark, tmp_path):
        """Of the A, B, C triples in order only the planted run of
        consecutive serials is contiguous."""
        window = 10.0
        pdf = _hand_built(["A", "B", "X", "C", "A", "B", "C", "B"], np.arange(1.0, 9.0), window)
        stage_stream(pdf, str(tmp_path), n_slices=2)
        p = seq(("A", "B", "C"), (), window)
        pp = plan_simple(p, {"A": 1.0, "B": 1.0, "C": 1.0}, "TRIVIAL")
        got = execute_streaming(spark, pp, str(tmp_path), strategy="contiguity")
        assert got.values.tolist() == [[4, 5, 6]]
        sql = pattern_sql(p, strategy="contiguity")
        assert_equivalent(spark.createDataFrame(got), sql, ev=pdf)

    def test_join_state_is_evicted(self, spark, events_pdf, staged):
        """After the last micro-batch a two-position join holds no more
        rows than its two types have in the last 2·(⌈W⌉ + 1) s of the
        stream: the watermark and the event-time range conjunct evict
        the rest."""
        st = estimate(events_pdf, CFG.duration, seed=0)
        p = seq(("S00", "S01"), (), CFG.window)
        pp = plan_simple(p, st.rates_for(p.types), "TRIVIAL")
        listener = _StateRows()
        spark.streams.addListener(listener)
        try:
            execute_streaming(spark, pp, staged)
            assert listener.terminated.wait(timeout=60)
        finally:
            spark.streams.removeListener(listener)
        (state_rows,) = listener.batches[-1]
        own = events_pdf[events_pdf["symbol"].isin(p.types)]
        horizon = 2 * (math.ceil(CFG.window) + 1)
        recent = own[own["ts"] > own["ts"].max() - horizon]
        assert 0 < state_rows <= len(recent)
        assert state_rows < len(own) / 2

    def test_fractional_window(self, spark, tmp_path):
        """W = 1.5 s: A@9.1 pairs with B@9.5 and with B@10.4, 1.3 s apart but
        in the same tumbling window."""
        window = 1.5
        pdf = _hand_built(["A", "B", "B"], [9.1, 9.5, 10.4], window)
        stage_stream(pdf, str(tmp_path), n_slices=1)
        p = seq(("A", "B"), (), window)
        pp = plan_simple(p, {"A": 1.0, "B": 1.0}, "TRIVIAL")
        got = execute_streaming(spark, pp, str(tmp_path))
        assert len(got) == 2
        assert_equivalent(spark.createDataFrame(got), pattern_sql(p), ev=pdf)

    def test_negation_rejected(self, spark, events_pdf, staged):
        st = estimate(events_pdf, CFG.duration, seed=0)
        p = seq(("S00", "S01", "S02"), (), CFG.window, negated=(1,))
        pp = plan_simple(p, st.rates_for(p.types), "TRIVIAL")
        with pytest.raises(ValueError):
            execute_streaming(spark, pp, staged)

    @pytest.mark.parametrize("strategy", ["next", "bogus"])
    def test_unsupported_strategy_rejected_before_the_query(self, spark, tmp_path, strategy):
        """No input exists, so only a check made before the query starts
        can give the join engine's ValueError."""
        p = seq(("A", "B"), (), 1.0)
        pp = plan_simple(p, {"A": 1.0, "B": 1.0}, "TRIVIAL")
        with pytest.raises(ValueError, match="join engine supports"):
            execute_streaming(spark, pp, str(tmp_path / "absent"), strategy=strategy)
        assert not spark.streams.active
