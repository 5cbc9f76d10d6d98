"""Tests for the event-at-a-time detectors (repro.cep.detectors)."""
import itertools

import numpy as np
import pandas as pd
import pytest

from repro.cep.detectors import detect_order, detect_tree
from repro.core.pattern import Op, Predicate, conj, seq
from repro.core.plans import OrderPlan, all_tree_plans, left_deep_tree


def window_of(rows):
    """rows: list of (symbol, ts, diff) in arrival order."""
    return pd.DataFrame(
        {
            "event_id": np.arange(len(rows), dtype=np.int64),
            "symbol": [r[0] for r in rows],
            "ts": [float(r[1]) for r in rows],
            "wid": np.zeros(len(rows), dtype=np.int64),
            "serial": np.arange(len(rows), dtype=np.int64),
            "price": 0.0,
            "diff": [float(r[2]) for r in rows],
        }
    )


def brute_force_any(window, pattern):
    """Reference skip-till-any matcher: enumerate all combinations."""
    per_pos = [
        list(window[window["symbol"] == t].itertuples(index=False))
        for t in pattern.types
    ]
    out = set()
    for combo in itertools.product(*per_pos):
        if len({e.event_id for e in combo}) != len(combo):
            continue
        if pattern.op is Op.SEQ:
            if any(
                combo[i].ts >= combo[i + 1].ts for i in range(len(combo) - 1)
            ):
                continue
        ok = True
        for q in pattern.predicates:
            a, b = combo[q.i], combo[q.j]
            if q.kind == "diff_lt" and not (a.diff < b.diff):
                ok = False
            elif q.kind == "diff_gt" and not (a.diff > b.diff):
                ok = False
            elif q.kind == "ts_lt" and not (a.ts < b.ts):
                ok = False
        if ok:
            out.add(tuple(e.event_id for e in combo))
    return out


def random_window(seed, n=24, symbols="ABC"):
    g = np.random.default_rng(seed)
    rows = [
        (symbols[g.integers(len(symbols))], float(t), float(g.normal()))
        for t in np.sort(g.uniform(0, 100, n))
    ]
    return window_of(rows)


SEQ_ABC = seq("ABC", (Predicate(0, 2, kind="diff_lt", sel=0.5),), window=100.0)
AND_ABC = conj("ABC", (Predicate(0, 1, kind="diff_gt", sel=0.5),), window=100.0)


class TestDetectOrderAny:
    def test_simple_sequence(self):
        w = window_of([("A", 1, 0.0), ("B", 2, 0.0), ("C", 3, 1.0)])
        r = detect_order(w, SEQ_ABC, OrderPlan((0, 1, 2)))
        assert r.matches == [(0, 1, 2)]

    def test_out_of_order_plan_same_matches(self):
        w = random_window(1)
        expected = brute_force_any(w, SEQ_ABC)
        for order in itertools.permutations(range(3)):
            r = detect_order(w, SEQ_ABC, OrderPlan(order))
            assert set(r.matches) == expected, order

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_equal_brute_force_seq(self, seed):
        w = random_window(seed)
        expected = brute_force_any(w, SEQ_ABC)
        r = detect_order(w, SEQ_ABC, OrderPlan((2, 0, 1)))
        assert set(r.matches) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_equal_brute_force_and(self, seed):
        w = random_window(seed + 100)
        expected = brute_force_any(w, AND_ABC)
        r = detect_order(w, AND_ABC, OrderPlan((1, 2, 0)))
        assert set(r.matches) == expected

    def test_no_duplicate_matches(self):
        w = random_window(3)
        r = detect_order(w, SEQ_ABC, OrderPlan((0, 1, 2)))
        assert len(r.matches) == len(set(r.matches))

    def test_temporal_violation_rejected(self):
        w = window_of([("C", 1, 1.0), ("B", 2, 0.0), ("A", 3, 0.0)])
        r = detect_order(w, SEQ_ABC, OrderPlan((0, 1, 2)))
        assert r.matches == []

    def test_predicate_violation_rejected(self):
        # A.diff >= C.diff violates the declared diff_lt predicate
        w = window_of([("A", 1, 5.0), ("B", 2, 0.0), ("C", 3, 1.0)])
        assert detect_order(w, SEQ_ABC, OrderPlan((0, 1, 2))).matches == []

    def test_metrics_monotone_with_bad_plan(self):
        """Starting with the most frequent type buffers more partials."""
        rows = [("A", t, 0.0) for t in range(10)] + [("B", 10.5, 0.0), ("C", 11, 1.0)]
        w = window_of(sorted(rows, key=lambda r: r[1]))
        good = detect_order(w, SEQ_ABC, OrderPlan((2, 1, 0)))
        bad = detect_order(w, SEQ_ABC, OrderPlan((0, 1, 2)))
        assert set(good.matches) == set(bad.matches)
        assert good.peak_partials < bad.peak_partials

    def test_latency_depends_on_plan(self):
        """A lazy plan defers buffer scans to T_n's arrival (§6.1): with a
        selective A–B predicate, the eager plan has pruned its partials
        before C arrives, while the C-first plan scans both buffers then."""
        pat = seq("ABC", (Predicate(0, 1, kind="diff_lt", sel=0.5),), window=100.0)
        rows = [("A", 1, -1.0)] + [("A", 1 + t, 1.0) for t in range(1, 5)]
        rows += [("B", 6 + t, 0.0) for t in range(10)]
        rows += [("C", 17, 5.0)]
        w = window_of(rows)
        lazy = detect_order(w, pat, OrderPlan((2, 0, 1)))  # C first
        eager = detect_order(w, pat, OrderPlan((0, 1, 2)))  # C last
        assert set(lazy.matches) == set(eager.matches) and lazy.matches
        assert np.mean(lazy.match_latencies) > np.mean(eager.match_latencies)


class TestDetectTreeAny:
    @pytest.mark.parametrize("seed", range(6))
    def test_all_trees_equal_brute_force(self, seed):
        w = random_window(seed)
        expected = brute_force_any(w, SEQ_ABC)
        for plan in all_tree_plans(3):
            r = detect_tree(w, SEQ_ABC, plan)
            assert set(r.matches) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_and_pattern(self, seed):
        w = random_window(seed + 50)
        expected = brute_force_any(w, AND_ABC)
        r = detect_tree(w, AND_ABC, left_deep_tree((2, 0, 1)))
        assert set(r.matches) == expected

    def test_agrees_with_order_detector(self):
        for seed in range(5):
            w = random_window(seed + 500, n=30)
            a = detect_order(w, SEQ_ABC, OrderPlan((1, 0, 2)))
            b = detect_tree(w, SEQ_ABC, left_deep_tree((1, 0, 2)))
            assert set(a.matches) == set(b.matches)

    def test_four_leaf_bushy_tree(self):
        from repro.core.plans import TreePlan, join, leaf

        pat = seq("ABCD", window=100.0)
        w = random_window(7, n=28, symbols="ABCD")
        bushy = TreePlan(join(join(leaf(0), leaf(1)), join(leaf(2), leaf(3))))
        r = detect_tree(w, pat, bushy)
        assert set(r.matches) == brute_force_any(w, pat)


class TestSkipTillNext:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_are_disjoint(self, seed):
        w = random_window(seed, n=30)
        r = detect_order(w, SEQ_ABC, OrderPlan((0, 1, 2)), strategy="next")
        used = [e for m in r.matches for e in m]
        assert len(used) == len(set(used))

    @pytest.mark.parametrize("seed", range(8))
    def test_subset_of_any_matches(self, seed):
        w = random_window(seed, n=30)
        r = detect_order(w, SEQ_ABC, OrderPlan((1, 2, 0)), strategy="next")
        assert set(r.matches) <= brute_force_any(w, SEQ_ABC)

    @pytest.mark.parametrize("seed", range(8))
    def test_fewer_partials_than_any(self, seed):
        w = random_window(seed, n=40)
        any_r = detect_order(w, SEQ_ABC, OrderPlan((0, 1, 2)))
        nxt_r = detect_order(w, SEQ_ABC, OrderPlan((0, 1, 2)), strategy="next")
        assert nxt_r.peak_partials <= any_r.peak_partials
        assert nxt_r.n_matches <= any_r.n_matches

    def test_consumption_blocks_reuse(self):
        # one A, two (B, C) pairs: A can appear in only one match
        w = window_of(
            [("A", 1, 0.0), ("B", 2, 0.0), ("C", 3, 1.0), ("B", 4, 0.0), ("C", 5, 1.0)]
        )
        r_any = detect_order(w, SEQ_ABC, OrderPlan((0, 1, 2)))
        r_next = detect_order(w, SEQ_ABC, OrderPlan((0, 1, 2)), strategy="next")
        # temporally valid combos: (0,1,2), (0,1,4), (0,3,4)
        assert len(r_any.matches) == 3
        assert len(r_next.matches) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_tree_next_disjoint(self, seed):
        w = random_window(seed, n=30)
        r = detect_tree(w, SEQ_ABC, left_deep_tree((0, 1, 2)), strategy="next")
        used = [e for m in r.matches for e in m]
        assert len(used) == len(set(used))
        assert set(r.matches) <= brute_force_any(w, SEQ_ABC)


class TestContiguity:
    def test_only_adjacent_runs_match(self):
        pat = seq("ABC", window=100.0)
        w = window_of(
            [
                ("A", 1, 0.0),
                ("B", 2, 0.0),
                ("C", 3, 0.0),  # serials 0,1,2: contiguous run
                ("A", 4, 0.0),
                ("X", 5, 0.0),  # intruder breaks the next run
                ("B", 6, 0.0),
                ("C", 7, 0.0),
            ]
        )
        r = detect_order(w, pat, OrderPlan((0, 1, 2)), strategy="contiguity")
        assert r.matches == [(0, 1, 2)]

    def test_intruder_of_pattern_type_breaks_run(self):
        pat = seq("ABC", window=100.0)
        w = window_of([("A", 1, 0.0), ("A", 2, 0.0), ("B", 3, 0.0), ("C", 4, 0.0)])
        r = detect_order(w, pat, OrderPlan((0, 1, 2)), strategy="contiguity")
        assert r.matches == [(1, 2, 3)]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_have_consecutive_serials(self, seed):
        pat = seq("ABC", window=100.0)
        w = random_window(seed, n=40)
        serial_of = dict(zip(w["event_id"], w["serial"]))
        r = detect_order(w, pat, OrderPlan((0, 1, 2)), strategy="contiguity")
        for m in r.matches:
            s = [serial_of[e] for e in m]
            assert s == list(range(s[0], s[0] + 3))

    def test_tree_contiguity_agrees_with_order(self):
        pat = seq("ABC", window=100.0)
        for seed in range(5):
            w = random_window(seed + 20, n=40)
            a = detect_order(w, pat, OrderPlan((0, 1, 2)), strategy="contiguity")
            b = detect_tree(w, pat, left_deep_tree((0, 1, 2)), strategy="contiguity")
            assert set(a.matches) == set(b.matches)


class TestValidation:
    def test_unknown_strategy(self):
        w = random_window(0)
        with pytest.raises(ValueError):
            detect_order(w, SEQ_ABC, OrderPlan((0, 1, 2)), strategy="bogus")

    def test_negation_rejected(self):
        w = random_window(0)
        with pytest.raises(ValueError):
            detect_order(w, seq("ABC", negated=(1,)), OrderPlan((0, 1)))

    def test_duplicate_types_rejected(self):
        w = random_window(0)
        with pytest.raises(ValueError):
            detect_order(w, seq("ABA"), OrderPlan((0, 1, 2)))

    def test_empty_window(self):
        w = window_of([])
        r = detect_order(w, SEQ_ABC, OrderPlan((0, 1, 2)))
        assert r.matches == [] and r.n_events == 0
