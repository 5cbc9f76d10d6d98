"""Tests for statistics estimation (repro.streams.estimation)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.pattern import Predicate, seq
from repro.core.planner import ALGORITHM_KIND, plan_pattern
from repro.streams.estimation import StreamStatistics, estimate
from repro.streams.stock import StreamConfig, stock_events_pdf, true_rates

CFG = StreamConfig(n_symbols=8, duration=1200.0, window=60.0, seed=5)


@pytest.fixture(scope="module")
def stats():
    return estimate(stock_events_pdf(CFG), CFG.duration, seed=1)


class TestRates:
    def test_rates_close_to_truth(self, stats):
        truth = true_rates(CFG)
        for sym, r in stats.rates.items():
            n = truth[sym] * CFG.duration
            assert r * CFG.duration == pytest.approx(n, abs=4 * np.sqrt(n) + 3)

    def test_rates_for_subset(self, stats):
        subset = stats.rates_for(["S00", "S03"])
        assert set(subset) == {"S00", "S03"}

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHM_KIND))
    def test_unseen_symbol_has_rate_zero(self, stats, algorithm):
        # No event of "XYZ" was measured: the planners see a 0.0 rate.
        p = seq(("S00", "XYZ", "S03"), window=CFG.window)
        rates = stats.rates_for(p.types)
        assert rates["XYZ"] == 0.0
        (planned,) = plan_pattern(p, rates, algorithm)
        assert planned.raw_cost >= 0.0 and planned.objective_cost >= 0.0


class TestSelectivity:
    def test_in_unit_interval(self, stats):
        s = stats.selectivity("S00", "S01", "diff_lt")
        assert 0 < s < 1

    def test_lt_gt_complementary(self, stats):
        lt = stats.selectivity("S02", "S05", "diff_lt")
        gt = stats.selectivity("S02", "S05", "diff_gt")
        # ties have measure ~0 for continuous diffs
        assert lt + gt == pytest.approx(1.0, abs=1e-6)

    def test_symmetry(self, stats):
        assert stats.selectivity("S01", "S04", "diff_lt") == pytest.approx(
            stats.selectivity("S04", "S01", "diff_gt"), abs=1e-12
        )

    def test_true_kind(self, stats):
        assert stats.selectivity("S00", "S01", "true") == 1.0

    def test_unknown_kind(self, stats):
        with pytest.raises(ValueError):
            stats.selectivity("S00", "S01", "serial_adj")

    @pytest.mark.parametrize("kind", ["diff_lt", "diff_gt"])
    def test_unseen_symbol_is_one(self, stats, kind):
        # Nothing was measured for "XYZ": its predicates are not estimated.
        assert stats.selectivity("S00", "XYZ", kind) == 1.0
        assert stats.selectivity("XYZ", "S00", kind) == 1.0
        assert stats._sel_cache[("S00", "XYZ", kind)] == 1.0

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHM_KIND))
    def test_predicate_on_unseen_symbol_plans(self, stats, algorithm):
        sel = stats.selectivity("S00", "XYZ", "diff_lt")
        p = seq(("S00", "XYZ", "S03"), (Predicate(0, 1, "diff_lt", sel),), window=CFG.window)
        (planned,) = plan_pattern(p, stats.rates_for(p.types), algorithm)
        assert planned.raw_cost >= 0.0 and planned.objective_cost >= 0.0

    def test_cache_stable(self, stats):
        a = stats.selectivity("S00", "S07", "diff_lt")
        assert stats.selectivity("S00", "S07", "diff_lt") == a

    def test_matches_analytic_normal_model(self):
        """Two symbols with diff ~ N(μ, σ): P(a<b) = Φ((μb−μa)/√(σa²+σb²))."""
        g = np.random.default_rng(0)
        a = g.normal(0.0, 1.0, 4000)
        b = g.normal(1.0, 1.0, 4000)
        ev = pd.DataFrame(
            {
                "symbol": ["A"] * 4000 + ["B"] * 4000,
                "diff": np.concatenate([a, b]),
            }
        )
        st = estimate(ev, duration=100.0, max_samples=400, seed=0)
        from math import erf, sqrt

        expected = 0.5 * (1 + erf((1.0 - 0.0) / sqrt(1.0**2 + 1.0**2) / sqrt(2)))
        assert st.selectivity("A", "B", "diff_lt") == pytest.approx(expected, abs=0.03)

    def test_selectivities_span_wide_range(self):
        """DESIGN.md §4: the predicate family must yield heterogeneous
        selectivities (the paper reports 0.002–0.88)."""
        cfg = StreamConfig(n_symbols=25, duration=2000.0, seed=11)
        st = estimate(stock_events_pdf(cfg), cfg.duration, seed=2)
        syms = sorted(st.rates)
        sels = [
            st.selectivity(a, b, "diff_lt")
            for i, a in enumerate(syms)
            for b in syms[i + 1 :]
        ]
        assert min(sels) < 0.12 and max(sels) > 0.88


class TestEstimate:
    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            estimate(pd.DataFrame({"symbol": [], "diff": []}), 10.0)

    @pytest.mark.parametrize("duration", [0.0, -5.0])
    def test_non_positive_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration"):
            estimate(stock_events_pdf(CFG), duration)

    def test_max_samples_respected(self):
        ev = stock_events_pdf(CFG)
        st = estimate(ev, CFG.duration, max_samples=50)
        assert all(len(v) <= 50 for v in st.diff_samples.values())
