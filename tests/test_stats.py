"""Unit tests for PatternStats (repro.core.stats)."""
import math

import numpy as np
import pytest

from repro.core.pattern import Op, Predicate, conj, disj, seq
from repro.core.stats import MAX_KLEENE_EXP, PatternStats
from tests.util import random_stats

RATES = {"A": 2.0, "B": 5.0, "C": 0.5, "D": 8.0}


def stats_for(pat, mode="exact"):
    return PatternStats.from_pattern(pat, RATES, temporal_mode=mode)


class TestConstruction:
    def test_counts_are_window_times_rate(self):
        st = stats_for(conj("ABC", window=10.0))
        assert np.allclose(st.counts, [20.0, 50.0, 5.0])

    def test_sel_matrix_symmetric(self):
        st = stats_for(conj("ABC", (Predicate(0, 2, sel=0.25),), window=10.0))
        assert st.sel[0, 2] == st.sel[2, 0] == 0.25
        assert st.sel[0, 1] == 1.0

    def test_multiple_predicates_multiply(self):
        pat = conj("AB", (Predicate(0, 1, sel=0.5), Predicate(0, 1, sel=0.2)))
        st = stats_for(pat)
        assert st.sel[0, 1] == pytest.approx(0.1)

    def test_negated_positions_excluded(self):
        st = stats_for(seq("ABCD", negated=(1,), window=10.0))
        assert st.n == 3
        assert st.positions == (0, 2, 3)
        assert np.allclose(st.counts, [20.0, 5.0, 80.0])

    def test_predicates_to_negated_positions_dropped(self):
        pat = seq("ABC", (Predicate(0, 1, sel=0.1),), negated=(1,))
        st = stats_for(pat)
        assert np.all(st.sel == 1.0)

    def test_kleene_inflation(self):
        st = stats_for(conj("ABC", kleene=(2,), window=10.0))
        assert st.counts[2] == pytest.approx(2.0 ** (10.0 * 0.5))

    def test_kleene_inflation_capped(self):
        st = stats_for(conj("AB", kleene=(1,), window=1000.0))
        assert st.counts[1] == pytest.approx(2.0**MAX_KLEENE_EXP)

    def test_exact_mode_only_for_sequences(self):
        assert stats_for(seq("ABC")).temporal_mode == "exact"
        assert stats_for(conj("ABC")).temporal_mode == "none"

    def test_pairwise_mode_folds_ts_into_sel(self):
        st = stats_for(seq("ABC"), mode="pairwise")
        assert st.sel[0, 1] == st.sel[1, 2] == 0.5
        assert st.sel[0, 2] == 1.0
        assert st.temporal_mode == "pairwise"

    def test_or_pattern_rejected(self):
        with pytest.raises(ValueError):
            stats_for(disj([seq("AB", window=1.0)]))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            PatternStats.from_pattern(conj("AB"), RATES, temporal_mode="x")

    def test_last_seq_position(self):
        assert stats_for(seq("ABC")).last_seq_position == 2
        assert stats_for(conj("ABC")).last_seq_position is None
        # Negated last event: the last *positive* event is planning pos 2=D
        st = stats_for(seq("ABCD", negated=(2,)))
        assert st.positions[st.last_seq_position] == 3


class TestSubsetMath:
    def test_pm_singleton(self):
        st = stats_for(conj("ABC", window=10.0))
        assert st.pm_of_mask(0b001) == pytest.approx(20.0)

    def test_pm_pair_includes_selectivity(self):
        st = stats_for(conj("ABC", (Predicate(0, 1, sel=0.1),), window=10.0))
        assert st.pm_of_mask(0b011) == pytest.approx(20 * 50 * 0.1)

    def test_pm_temporal_factor_exact(self):
        st = stats_for(seq("ABC", window=10.0))
        # subset {A, B}: 1/2! ordering factor
        assert st.pm_of_mask(0b011) == pytest.approx(20 * 50 / 2)
        assert st.pm_of_mask(0b111) == pytest.approx(20 * 50 * 5 / 6)

    def test_extend_factor_consistent_with_pm(self):
        # PM(P+t) = PM(P) · W·r_t · Π_{i∈P} sel_it / (k+1) for a prefix P of
        # k positions in exact mode.
        for s in range(5):
            st = random_stats(5, s, op=Op.SEQ, temporal_mode="exact")
            mask, t = 0b01101, 1
            factor = st.counts[t]
            for i in (0, 2, 3):
                factor *= st.sel[i, t]
            factor /= 4
            assert st.pm_of_mask(mask) * factor == pytest.approx(
                st.pm_of_mask(mask | 1 << t), rel=1e-12
            )

    def test_combine_factor_consistent_with_pm(self):
        # §4.2: PM(L∪R) = PM(L)·PM(R)·SEL_LR, with a!b!/(a+b)! in exact mode.
        for s in range(5):
            st = random_stats(6, s, op=Op.SEQ, temporal_mode="exact")
            a, b = 0b010110, 0b101001
            sel_lr = 1.0
            for i in (1, 2, 4):
                for j in (0, 3, 5):
                    sel_lr *= st.sel[i, j]
            sel_lr *= math.factorial(3) * math.factorial(3) / math.factorial(6)
            assert st.pm_of_mask(a) * st.pm_of_mask(b) * sel_lr == pytest.approx(
                st.pm_of_mask(a | b), rel=1e-12
            )

    def test_temporal_factor_values(self):
        # A k-subset of a sequence survives ordering with probability 1/k!.
        st = stats_for(seq("ABCD"))
        unordered = stats_for(conj("ABCD"))
        assert st.pm_of_mask(0b1111) == pytest.approx(
            unordered.pm_of_mask(0b1111) / math.factorial(4)
        )
        assert st.pm_of_mask(0b0001) == unordered.pm_of_mask(0b0001)

    def test_next_match_pm_uses_minimum_count(self):
        st = stats_for(conj("ABC", (Predicate(0, 1, sel=0.1),), window=10.0))
        assert st.pm_of_mask(0b011, next_match=True) == pytest.approx(20 * 0.1)
        assert st.prefix_pms((2, 1, 0), next_match=True) == pytest.approx(
            [5.0, 5.0, 5.0 * 0.1]
        )

    def test_total_count(self):
        st = stats_for(conj("ABC", window=10.0))
        assert st.total_count() == pytest.approx(75.0)
