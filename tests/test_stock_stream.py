"""Tests for the synthetic stock stream (repro.streams.stock)."""
import math

import numpy as np
import pandas as pd
import pytest

from repro.streams.stock import (
    StreamConfig,
    stock_events_pdf,
    symbol_names,
    true_rates,
)

CFG = StreamConfig(n_symbols=8, duration=600.0, window=60.0, seed=3)


@pytest.fixture(scope="module")
def events():
    return stock_events_pdf(CFG)


class TestConfig:
    def test_defaults_valid(self):
        StreamConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"n_symbols": 0},
            {"duration": 0},
            {"window": -1},
            {"rate_min": 0},
            {"rate_min": 2.0, "rate_max": 1.0},
            {"duration": math.inf},
            {"duration": math.nan},
            {"window": math.inf},
            {"window": math.nan},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            StreamConfig(**kw)


class TestGeneration:
    def test_columns(self, events):
        assert list(events.columns) == [
            "event_id",
            "symbol",
            "ts",
            "wid",
            "serial",
            "price",
            "diff",
        ]

    def test_deterministic(self, events):
        again = stock_events_pdf(CFG)
        pd.testing.assert_frame_equal(events, again)

    def test_seed_changes_stream(self, events):
        other = stock_events_pdf(StreamConfig(n_symbols=8, duration=600.0, seed=4))
        assert not events["ts"].equals(other["ts"])

    def test_all_symbols_present(self, events):
        assert set(events["symbol"]) == set(symbol_names(CFG))

    def test_timestamps_sorted_and_bounded(self, events):
        ts = events["ts"].to_numpy()
        assert (np.diff(ts) >= 0).all()
        assert ts.min() >= 0 and ts.max() < CFG.duration

    def test_serial_is_arrival_order(self, events):
        assert (events["serial"].to_numpy() == np.arange(len(events))).all()
        assert (events["event_id"] == events["serial"]).all()

    def test_wid_is_tumbling_window(self, events):
        assert (
            events["wid"] == (events["ts"] // CFG.window).astype(np.int64)
        ).all()

    def test_rates_roughly_match_ground_truth(self, events):
        rates = true_rates(CFG)
        for sym, grp in events.groupby("symbol"):
            expected = rates[sym] * CFG.duration
            assert len(grp) == pytest.approx(expected, abs=4 * np.sqrt(expected) + 3)

    def test_rates_heterogeneous(self):
        rates = true_rates(StreamConfig(n_symbols=30, seed=1))
        vals = np.array(list(rates.values()))
        assert vals.max() / vals.min() > 2.0

    def test_diff_is_price_increment(self, events):
        for _, grp in events.groupby("symbol"):
            p = grp["price"].to_numpy()
            d = grp["diff"].to_numpy()
            assert np.allclose(np.diff(p), d[1:], atol=1e-9)

    def test_diff_distributions_heterogeneous(self, events):
        mus = events.groupby("symbol")["diff"].mean()
        assert mus.max() - mus.min() > 0.3
