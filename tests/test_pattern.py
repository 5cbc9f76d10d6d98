"""Unit tests for the CEP pattern model (repro.core.pattern)."""
import pytest

from repro.core.pattern import Op, Pattern, Predicate, conj, disj, seq


class TestPredicate:
    def test_valid(self):
        p = Predicate(0, 2, kind="diff_lt", sel=0.3)
        assert (p.i, p.j, p.sel) == (0, 2, 0.3)

    def test_equal_positions_rejected(self):
        # A predicate relates two distinct positions: no filter c_{i,i}.
        with pytest.raises(ValueError):
            Predicate(1, 1, kind="true", sel=0.5)

    @pytest.mark.parametrize("sel", [-0.1, 1.5])
    def test_selectivity_range(self, sel):
        with pytest.raises(ValueError):
            Predicate(0, 1, sel=sel)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Predicate(0, 1, kind="nope")

    def test_reversed_positions(self):
        with pytest.raises(ValueError):
            Predicate(2, 0)


class TestPattern:
    def test_seq_constructor(self):
        p = seq("ABC", window=5.0)
        assert p.op is Op.SEQ and p.types == ("A", "B", "C") and p.size == 3

    def test_conj_constructor(self):
        assert conj("AB").op is Op.AND

    def test_pure(self):
        assert seq("ABC").is_pure()
        assert not seq("ABC", negated=(1,)).is_pure()
        assert not seq("ABC", kleene=(1,)).is_pure()

    def test_positive(self):
        assert seq("ABCD", negated=(1, 3)).positive() == (0, 2)

    def test_window_positive(self):
        with pytest.raises(ValueError):
            seq("AB", window=0)

    def test_predicate_out_of_range(self):
        with pytest.raises(ValueError):
            conj("AB", (Predicate(0, 5),))

    def test_not_and_kl_disjoint(self):
        with pytest.raises(ValueError):
            seq("ABC", negated=(1,), kleene=(1,))

    def test_all_negated_rejected(self):
        with pytest.raises(ValueError):
            seq("AB", negated=(0, 1))

    def test_empty_types_rejected(self):
        with pytest.raises(ValueError):
            Pattern(Op.AND, (), window=1.0)

    def test_negation_position_range(self):
        with pytest.raises(ValueError):
            seq("AB", negated=(7,))


class TestDisjunction:
    def test_or_requires_subpatterns(self):
        with pytest.raises(ValueError):
            Pattern(Op.OR, window=1.0)

    def test_or_size_is_max(self):
        d = disj([seq("AB", window=2.0), seq("ABC", window=2.0)])
        assert d.size == 3 and d.window == 2.0

    def test_or_window_default(self):
        d = disj([seq("AB", window=2.0), seq("ABC", window=7.0)])
        assert d.window == 7.0

    def test_or_rejects_own_types(self):
        with pytest.raises(ValueError):
            Pattern(Op.OR, types=("A",), window=1.0, subpatterns=(seq("AB"),))
