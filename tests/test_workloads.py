"""Tests for the workload generator (repro.workloads.generator)."""
import numpy as np
import pytest

from repro.core.pattern import Op
from repro.core.planner import plan_pattern
from repro.core.stats import PatternStats
from repro.streams.estimation import estimate
from repro.streams.stock import StreamConfig, stock_events_pdf
from repro.workloads.generator import CATEGORIES, make_pattern, make_pattern_set

CFG = StreamConfig(n_symbols=12, duration=900.0, window=60.0, seed=9)


@pytest.fixture(scope="module")
def stats():
    return estimate(stock_events_pdf(CFG), CFG.duration, seed=0)


class TestMakePattern:
    @pytest.mark.parametrize("category", CATEGORIES)
    @pytest.mark.parametrize("size", [3, 5, 7])
    def test_generates_valid_patterns(self, stats, category, size):
        p = make_pattern(category, size, stats, CFG.window, seed=1)
        assert p.size == size
        assert p.window == CFG.window

    def test_sequence_is_pure_seq(self, stats):
        p = make_pattern("sequence", 4, stats, CFG.window, seed=2)
        assert p.op is Op.SEQ and p.is_pure()

    def test_conjunction_is_pure_and(self, stats):
        p = make_pattern("conjunction", 4, stats, CFG.window, seed=2)
        assert p.op is Op.AND and p.is_pure()

    def test_negation_has_interior_not(self, stats):
        for s in range(10):
            p = make_pattern("negation", 5, stats, CFG.window, seed=s)
            (pos,) = p.negated
            assert 0 < pos < 4

    def test_kleene_has_one_kl(self, stats):
        p = make_pattern("kleene", 4, stats, CFG.window, seed=3)
        assert len(p.kleene) == 1 and not p.negated

    def test_disjunction_of_three_sequences(self, stats):
        p = make_pattern("disjunction", 4, stats, CFG.window, seed=4)
        assert p.op is Op.OR and len(p.subpatterns) == 3
        assert all(sp.op is Op.SEQ and sp.size == 4 for sp in p.subpatterns)

    def test_predicate_count(self, stats):
        for size in (3, 4, 6, 7):
            p = make_pattern("sequence", size, stats, CFG.window, seed=5)
            assert len(p.predicates) == max(1, size // 2)

    def test_predicates_use_measured_selectivities(self, stats):
        p = make_pattern("sequence", 5, stats, CFG.window, seed=6)
        for q in p.predicates:
            expect = stats.selectivity(p.types[q.i], p.types[q.j], "diff_lt")
            assert q.sel == pytest.approx(expect)

    def test_symbols_distinct(self, stats):
        p = make_pattern("conjunction", 7, stats, CFG.window, seed=7)
        assert len(set(p.types)) == 7

    def test_deterministic_in_seed(self, stats):
        a = make_pattern("sequence", 5, stats, CFG.window, seed=8)
        b = make_pattern("sequence", 5, stats, CFG.window, seed=8)
        assert a == b
        c = make_pattern("sequence", 5, stats, CFG.window, seed=9)
        assert a != c

    def test_negation_predicates_avoid_negated_position(self, stats):
        for s in range(10):
            p = make_pattern("negation", 5, stats, CFG.window, seed=s)
            (pos,) = p.negated
            assert all(pos not in (q.i, q.j) for q in p.predicates)

    @pytest.mark.parametrize("mode", ["exact", "pairwise"])
    @pytest.mark.parametrize("category", CATEGORIES)
    def test_stats_the_recurrence_relies_on(self, stats, category, mode):
        """sel's diagonal is 1.0 (no filter conditions), and exact mode means
        a SEQ of two or more positive positions, all mutually ordered."""
        for p in make_pattern_set(category, [3, 5], 2, stats, CFG.window):
            for sp in p.subpatterns if p.op is Op.OR else (p,):
                st = PatternStats.from_pattern(sp, stats.rates, temporal_mode=mode)
                assert np.diag(st.sel).tolist() == [1.0] * st.n
                ordered = sp.op is Op.SEQ and len(sp.positive()) >= 2
                assert (st.temporal_mode == "exact") == (ordered and mode == "exact")

    def test_unknown_category(self, stats):
        with pytest.raises(ValueError):
            make_pattern("bogus", 4, stats, CFG.window, seed=0)

    def test_too_small_sizes(self, stats):
        with pytest.raises(ValueError):
            make_pattern("negation", 2, stats, CFG.window, seed=0)

    @pytest.mark.parametrize("category", CATEGORIES)
    def test_too_large_sizes_name_category_size_and_symbols(self, category):
        cfg = StreamConfig(n_symbols=4, duration=300.0, window=60.0, seed=9)
        small = estimate(stock_events_pdf(cfg), cfg.duration, seed=0)
        assert len(small.rates) == 4
        make_pattern(category, 4, small, cfg.window, seed=0)
        message = rf"'{category}' pattern of size 6 needs 6 distinct symbols; the stream has 4"
        with pytest.raises(ValueError, match=message):
            make_pattern(category, 6, small, cfg.window, seed=0)


class TestMakePatternSet:
    def test_shape(self, stats):
        ps = make_pattern_set("sequence", [3, 4, 5], 4, stats, CFG.window)
        assert len(ps) == 12
        assert sorted({p.size for p in ps}) == [3, 4, 5]

    @pytest.mark.parametrize("category", CATEGORIES)
    def test_all_plannable_by_every_algorithm(self, stats, category):
        """End-to-end planner sanity across the whole workload space."""
        from repro.core.planner import ALGORITHM_KIND

        for p in make_pattern_set(category, [3, 5], 2, stats, CFG.window):
            for alg in ("EFREQ", "DP-LD", "ZSTREAM", "DP-B"):
                rates = {
                    t: stats.rates[t]
                    for sp in (p.subpatterns if p.op is Op.OR else (p,))
                    for t in sp.types
                }
                plans = plan_pattern(p, rates, alg)
                assert all(pp.raw_cost > 0 for pp in plans)
