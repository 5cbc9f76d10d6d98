"""Random pattern workloads mirroring the paper's §7.2 setup.

Five categories, each over the stock stream's symbols:

- ``sequence``     — pure sequence patterns;
- ``negation``     — sequences with one negated event;
- ``conjunction``  — pure conjunctive patterns;
- ``kleene``       — sequences with one event under Kleene closure;
- ``disjunction``  — composite patterns: a disjunction of three sequences.

As in the paper, each pattern of size n carries ``max(1, n // 2)``
predicates comparing the ``difference`` attributes of two of its event
types, with selectivities measured from the stream. Patterns are
deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np

from repro.core.pattern import Op, Pattern, Predicate, conj, disj, seq
from repro.streams.estimation import StreamStatistics

CATEGORIES = ("sequence", "negation", "conjunction", "kleene", "disjunction")


def _simple(
    g: np.random.Generator,
    op: Op,
    size: int,
    stats: StreamStatistics,
    window: float,
    *,
    negated: tuple[int, ...] = (),
    kleene: tuple[int, ...] = (),
) -> Pattern:
    symbols = tuple(
        str(s) for s in g.choice(sorted(stats.rates), size=size, replace=False)
    )
    n_preds = max(1, size // 2)
    positive = [i for i in range(size) if i not in negated]
    pairs = [
        (i, j)
        for a, i in enumerate(positive)
        for j in positive[a + 1 :]
    ]
    picked = [pairs[k] for k in g.choice(len(pairs), size=min(n_preds, len(pairs)), replace=False)]
    preds = tuple(
        Predicate(
            i,
            j,
            kind="diff_lt",
            sel=stats.selectivity(symbols[i], symbols[j], "diff_lt"),
        )
        for i, j in sorted(picked)
    )
    ctor = seq if op is Op.SEQ else conj
    return ctor(symbols, preds, window, negated=negated, kleene=kleene)


def make_pattern(
    category: str,
    size: int,
    stats: StreamStatistics,
    window: float,
    seed: int,
) -> Pattern:
    """One random pattern of the given category and size."""
    if category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r}")
    if size < 2 or (category in ("negation", "disjunction") and size < 3):
        raise ValueError(f"size {size} too small for category {category!r}")
    if size > len(stats.rates):
        raise ValueError(
            f"a {category!r} pattern of size {size} needs {size} distinct symbols; "
            f"the stream has {len(stats.rates)}"
        )
    # str hash is process-salted; use the category index for determinism.
    g = np.random.default_rng(CATEGORIES.index(category) * 100_003 + seed)
    if category == "sequence":
        return _simple(g, Op.SEQ, size, stats, window)
    if category == "conjunction":
        return _simple(g, Op.AND, size, stats, window)
    if category == "negation":
        # One negated event at a random interior position.
        pos = int(g.integers(1, size - 1))
        return _simple(g, Op.SEQ, size, stats, window, negated=(pos,))
    if category == "kleene":
        pos = int(g.integers(0, size))
        return _simple(g, Op.SEQ, size, stats, window, kleene=(pos,))
    # disjunction: three independent sequences of the given size (§7.2).
    subs = tuple(_simple(g, Op.SEQ, size, stats, window) for _ in range(3))
    return disj(subs, window=window)


def make_pattern_set(
    category: str,
    sizes,
    per_size: int,
    stats: StreamStatistics,
    window: float,
    *,
    seed: int = 0,
) -> list[Pattern]:
    """``per_size`` random patterns for every size in ``sizes``."""
    out = []
    for size in sizes:
        for k in range(per_size):
            out.append(
                make_pattern(category, size, stats, window, seed + 1000 * size + k)
            )
    return out
