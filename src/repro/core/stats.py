"""Per-pattern statistics consumed by the cost models and planners.

The paper's cost functions (§4.1) are written in terms of ``W · r_i``
(expected number of events of type i inside the window) and the pairwise
selectivities ``sel_{i,j}``. :class:`PatternStats` precomputes exactly
those quantities for the *positive* part of a pattern:

- negated positions are excluded — the paper plans the positive part and
  inserts the negation check afterwards (§5.3);
- a Kleene position has its count inflated to ``2^{W·r_i}`` — the
  power-set pseudo-type of Theorem 4 (``W · r' = W · 2^{W·r}/W``);
- for sequence patterns the temporal constraints are modelled either
  *exactly* (a k-subset of a totally ordered pattern survives ordering
  with probability 1/k! under iid timestamps — what the lazy NFA and
  ZStream engines actually enforce) or *pairwise* (the literal Theorem 3
  reduction: a 0.5-selectivity predicate between adjacent positions).

Every partial-match count (§4.1 prefixes, §4.2 tree nodes, §6.2
skip-till-next counts) comes from one recurrence, :meth:`PatternStats.prefix_pms`:
a prefix grows by one position at a time, and a set's PM is that
recurrence over its members in ascending order. It multiplies ``counts``
and off-diagonal ``sel`` entries only, so no separate ``W^k`` term is
needed: ``W^k · Π r_i = Π (W·r_i)``. A predicate relates two distinct
positions, so ``sel``'s diagonal is 1.0 and contributes no factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pattern import Op, Pattern
from .transformations import TS_SEL

#: Cap on the Kleene inflation exponent so that ``2^{W·r}`` stays a finite,
#: strictly ordered float even for dense streams. Anything above 2^64
#: already dominates every other count in a plan by many orders of
#: magnitude, so the cap never changes a planner's decision.
MAX_KLEENE_EXP = 64.0


def kleene_pseudo_count(rate: float, window: float) -> float:
    """``W·r' = 2^{W·r}`` — the power-set pseudo-type count (Theorem 4)."""
    return 2.0 ** min(rate * window, MAX_KLEENE_EXP)


@dataclass
class PatternStats:
    """Window-normalized statistics for one simple pattern.

    Attributes
    ----------
    window:
        The pattern's time window W (stream seconds).
    counts:
        ``counts[i] = W · r_i`` for planning position i (Kleene-inflated).
    sel:
        Symmetric ``n×n`` selectivity matrix; ``sel[i][j]``, i ≠ j, is the
        product of the selectivities of all predicates between positions i
        and j. The diagonal is 1.0.
    temporal_mode:
        ``"exact"`` (1/k! subset factor: all planning positions are
        mutually temporally ordered, a SEQ of two or more), ``"pairwise"``
        (temporal predicates already folded into ``sel``) or ``"none"`` (no
        temporal order: an AND, or a pattern of fewer than two positive
        positions; a SEQ of two or more rejects it).
    positions:
        For each planning position, the index in the original pattern
        (positive positions only, in pattern order).
    last_seq_position:
        Planning position of the temporally last positive event of a SEQ
        pattern (the paper's T_n in §6.1), or ``None`` for AND patterns.
    """

    window: float
    counts: np.ndarray
    sel: np.ndarray
    temporal_mode: str = "exact"
    positions: tuple[int, ...] = ()
    last_seq_position: int | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_pattern(
        cls,
        pattern: Pattern,
        rates: dict[str, float],
        *,
        temporal_mode: str = "exact",
    ) -> "PatternStats":
        """Build planning statistics from a simple pattern and type rates."""
        if pattern.op is Op.OR:
            raise ValueError("build stats per conjunctive subpattern (use to_dnf)")
        if temporal_mode not in ("exact", "pairwise", "none"):
            raise ValueError(f"unknown temporal_mode {temporal_mode!r}")
        pos = pattern.positive()
        if temporal_mode == "none" and pattern.op is Op.SEQ and len(pos) > 1:
            raise ValueError(
                "temporal_mode 'none' would plan a SEQ of two or more positive "
                "positions as unordered; use 'exact' or 'pairwise'"
            )
        missing = sorted({pattern.types[i] for i in pos} - rates.keys())
        if missing:
            raise ValueError(f"no rate for pattern type(s): {', '.join(missing)}")
        n = len(pos)
        counts = np.empty(n, dtype=float)
        for k, i in enumerate(pos):
            rate = rates[pattern.types[i]]
            if not 0.0 <= rate < math.inf:
                raise ValueError(f"rate of {pattern.types[i]!r} is not finite and >= 0: {rate}")
            if i in pattern.kleene:
                counts[k] = kleene_pseudo_count(rate, pattern.window)
            else:
                counts[k] = pattern.window * rate
        sel = np.ones((n, n), dtype=float)
        back = {i: k for k, i in enumerate(pos)}
        for p in pattern.predicates:
            if p.i in back and p.j in back:
                a, b = back[p.i], back[p.j]
                sel[a, b] *= p.sel
                sel[b, a] *= p.sel
        mode = temporal_mode
        if pattern.op is Op.SEQ and n > 1:
            if mode == "pairwise":
                # Theorem 3 reduction: adjacent ts_lt predicates (seq_to_and).
                for k in range(n - 1):
                    sel[k, k + 1] *= TS_SEL
                    sel[k + 1, k] *= TS_SEL
        else:
            mode = "none"
        last = n - 1 if pattern.op is Op.SEQ and n > 0 else None
        return cls(
            window=pattern.window,
            counts=counts,
            sel=sel,
            temporal_mode=mode,
            positions=pos,
            last_seq_position=last,
        )

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of planning positions."""
        return len(self.counts)

    def total_count(self) -> float:
        """Σ_i W·r_i — the normalizer for the latency cost (§6.1)."""
        return float(self.counts.sum())

    def prefix_pms(self, order, next_match: bool = False) -> list[float]:
        """PM of every prefix of ``order`` — the one partial-match recurrence.

        ``PM(P+t) = PM(P) · W·r_t · Π_{i∈P} sel_{i,t}``, the predicate
        factors multiplied in ``order``'s order; in exact mode the prefix
        of k positions is divided by k (the 1/k! ordering probability,
        built up incrementally). ``next_match`` takes the running minimum
        of the counts instead of their product (§6.2's ``W·min(r)``). The
        float operations are, in order: ``f = 1.0`` times each
        ``sel[i,t]``; ``selprod = selprod·f``, then ``/ k``;
        ``count = count·W·r_t`` (or the minimum); ``PM = count·selprod``.
        The batched :meth:`~repro.core.cost_model.Objective.prefix_pm_rows`
        and :class:`~repro.core.cost_model.SubsetTables` apply exactly these
        operations, so all three agree bit for bit.
        """
        exact = self.temporal_mode == "exact"
        sel, counts = self.sel, self.counts
        selprod, count = 1.0, math.inf if next_match else 1.0
        pms = []
        for a, t in enumerate(order):
            f = 1.0
            for i in order[:a]:
                f *= sel[i, t]
            selprod *= f
            if exact:
                selprod /= a + 1
            count = min(count, counts[t]) if next_match else count * counts[t]
            pms.append(count * selprod)
        return pms

    def pm_of_mask(self, mask: int, next_match: bool = False) -> float:
        """PM of the non-empty subset ``mask``: :meth:`prefix_pms` over its
        members in ascending order.

        This is the paper's PM(k) (§4.1) / PM(node) (§4.2) written for an
        arbitrary subset: ``Π_{i∈mask} (W·r_i) · Π_{i<j∈mask} sel_{i,j}``,
        divided by |mask|! in exact mode; with
        ``next_match``, §6.2's ``W·min(r) · Π sel`` instead.
        """
        members = [i for i in range(self.n) if mask >> i & 1]
        return self.prefix_pms(members, next_match)[-1]
