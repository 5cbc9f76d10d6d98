"""CEP pattern model (paper §2.1).

A :class:`Pattern` is the SASE-style specification::

    PATTERN op (T_1 e_1, ..., T_n e_n)
    WHERE   (c_{1,1} AND ... AND c_{n,n})
    WITHIN  W

Simple patterns carry a single n-ary operator (``SEQ`` or ``AND``), an
optional set of negated positions (``NOT``) and Kleene positions (``KL``).
Nested patterns are represented by the ``OR`` operator over a list of
simple subpatterns (the DNF form of §5.4 — any nested pattern the paper
considers reduces to this shape via :func:`repro.core.transformations.to_dnf`).

Predicates are pairwise (the paper's presentational assumption): each
:class:`Predicate` relates two distinct positions ``i < j`` and carries an
executable ``kind`` understood by the engines plus a selectivity estimate
used by the cost models. There are no unary filter conditions ``c_{i,i}``.
:meth:`Pattern.pair_conditions` lists a pair's conditions, declared and
implied, as :data:`COMPARISONS` entries: the one rule every engine renders.
:meth:`Pattern.absence_conditions` does the same for a negated position
(§5.3): what its absent event must satisfy against each positive position,
whose keys are the positions the absence check waits for. A predicate
between two negated positions is rejected: a joint absence is not a set of
independent absence checks.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Op(enum.Enum):
    """N-ary pattern operators (paper §2.1)."""

    SEQ = "SEQ"
    AND = "AND"
    OR = "OR"


#: What each predicate kind compares between the events ``a`` and ``b`` at
#: positions ``i < j``: ``(field, offset, op)`` means ``a.field + offset <op>
#: b.field``. ``true`` compares nothing (selectivity bookkeeping only).
COMPARISONS = {
    "diff_lt": ("diff", 0, "<"),  # the paper's stock predicate
    "diff_gt": ("diff", 0, ">"),
    "ts_lt": ("ts", 0, "<"),  # temporal order, §5.1
    "serial_adj": ("serial", 1, "=="),  # strict contiguity, §6.2
    "true": None,
}

#: Predicate kinds the engines know how to execute.
PREDICATE_KINDS = tuple(COMPARISONS)

#: Distinct events, which two positions of one type in an AND require.
DISTINCT = ("id", 0, "!=")


@dataclass(frozen=True)
class Predicate:
    """A pairwise condition c_{i,j} between pattern positions ``i`` and ``j``.

    ``sel`` is the estimated selectivity used by the cost models; the
    engines execute the condition given by ``kind`` literally, so a wrong
    estimate degrades the plan but never correctness.
    """

    i: int
    j: int
    kind: str = "diff_lt"
    sel: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in PREDICATE_KINDS:
            raise ValueError(f"unknown predicate kind {self.kind!r}")
        if not (0.0 <= self.sel <= 1.0):
            raise ValueError(f"selectivity out of [0,1]: {self.sel}")
        if self.i >= self.j:
            raise ValueError("predicate positions must satisfy i < j")


@dataclass(frozen=True)
class Pattern:
    """A CEP pattern.

    For simple patterns (``op`` in {SEQ, AND}):

    - ``types``: event type names, one per position. For SEQ the list
      order is the required temporal order.
    - ``predicates``: pairwise conditions over positions.
    - ``window``: the WITHIN clause, in stream time units (seconds).
    - ``negated`` / ``kleene``: positions under NOT / KL (disjoint).

    For nested disjunctions (``op == OR``) only ``subpatterns`` and
    ``window`` are meaningful.
    """

    op: Op
    types: tuple[str, ...] = ()
    predicates: tuple[Predicate, ...] = ()
    window: float = 1.0
    negated: frozenset[int] = frozenset()
    kleene: frozenset[int] = frozenset()
    subpatterns: tuple["Pattern", ...] = ()

    def __post_init__(self) -> None:
        if not 0 < self.window < math.inf:
            raise ValueError(f"window must be positive and finite: {self.window}")
        if self.op is Op.OR:
            if not self.subpatterns:
                raise ValueError("OR pattern requires subpatterns")
            if self.types or self.predicates:
                raise ValueError("OR pattern carries no own types/predicates")
            return
        if not self.types:
            raise ValueError("simple pattern requires event types")
        n = len(self.types)
        for p in self.predicates:
            if not (0 <= p.i < p.j < n):
                raise ValueError(f"predicate {p} out of range for n={n}")
            if {p.i, p.j} <= self.negated:
                raise ValueError(f"predicate {p} relates two negated positions")
        if self.negated & self.kleene:
            raise ValueError("a position cannot be both NOT and KL")
        for s in (self.negated, self.kleene):
            if any(not (0 <= i < n) for i in s):
                raise ValueError("NOT/KL position out of range")
        if len(self.positive()) == 0:
            raise ValueError("pattern must have at least one positive event")

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of positions (primitive events) in the pattern."""
        if self.op is Op.OR:
            return max(sp.size for sp in self.subpatterns)
        return len(self.types)

    def positive(self) -> tuple[int, ...]:
        """Indices of non-negated positions, in pattern order."""
        return tuple(i for i in range(len(self.types)) if i not in self.negated)

    def is_pure(self) -> bool:
        """True if the pattern has no unary operators (paper §2.1)."""
        return not self.negated and not self.kleene and self.op is not Op.OR

    def pair_conditions(self, i: int, j: int, strategy: str) -> list[tuple[str, int, str]]:
        """Every condition c_{i,j} between positive positions ``i < j``, as
        :data:`COMPARISONS` entries without duplicates, in order: the SEQ
        order (§5.1) or, for one type twice in an AND, distinct events;
        under ``contiguity``, serial adjacency of consecutive positive
        positions (§6.2); the declared predicates."""
        if not 0 <= i < j < len(self.types) or {i, j} & self.negated:
            raise ValueError(f"({i}, {j}) is not a pair of positive positions i < j")
        conds = []
        if self.op is Op.SEQ:
            conds.append(COMPARISONS["ts_lt"])
        elif self.types[i] == self.types[j]:
            conds.append(DISTINCT)
        if strategy == "contiguity" and self.negated.issuperset(range(i + 1, j)):
            conds.append(COMPARISONS["serial_adj"])
        conds += [COMPARISONS[p.kind] for p in self.predicates if (p.i, p.j) == (i, j)]
        return [c for c in dict.fromkeys(conds) if c is not None]

    def absence_conditions(self, j: int) -> dict[int, list[tuple[tuple[str, int, str], bool]]]:
        """What the absent event at negated position ``j`` must satisfy
        (§5.3), by positive position ``i``: a list of (:data:`COMPARISONS`
        entry, absent event is the left operand) without duplicates. In a
        SEQ, the order against the nearest positive position on each side;
        in an AND, distinct events from every positive position of ``j``'s
        type; then the declared predicates, in their direction. A ``true``
        partner has an empty list. The keys are the positions the absence
        check depends on: it runs once they are all bound."""
        if j not in self.negated:
            raise ValueError(f"{j} is not a negated position")
        conds: dict[int, list] = {}
        pos = self.positive()
        if self.op is Op.SEQ:
            if below := [i for i in pos if i < j]:
                conds[below[-1]] = [(COMPARISONS["ts_lt"], False)]
            if above := [i for i in pos if i > j]:
                conds[above[0]] = [(COMPARISONS["ts_lt"], True)]
        else:
            conds.update((i, [(DISTINCT, True)]) for i in pos if self.types[i] == self.types[j])
        for p in self.predicates:
            if j in (p.i, p.j):
                i = p.j if p.i == j else p.i
                conds.setdefault(i, []).append((COMPARISONS[p.kind], p.i == j))
        return {i: [c for c in dict.fromkeys(cs) if c[0] is not None] for i, cs in conds.items()}


def seq(types, predicates=(), window=1.0, negated=(), kleene=()) -> Pattern:
    """Convenience constructor for a sequence pattern."""
    return Pattern(
        Op.SEQ,
        tuple(types),
        tuple(predicates),
        window,
        frozenset(negated),
        frozenset(kleene),
    )


def conj(types, predicates=(), window=1.0, negated=(), kleene=()) -> Pattern:
    """Convenience constructor for a conjunctive pattern."""
    return Pattern(
        Op.AND,
        tuple(types),
        tuple(predicates),
        window,
        frozenset(negated),
        frozenset(kleene),
    )


def disj(subpatterns, window=None) -> Pattern:
    """Convenience constructor for a disjunction of simple patterns."""
    subs = tuple(subpatterns)
    w = window if window is not None else max(sp.window for sp in subs)
    return Pattern(Op.OR, window=w, subpatterns=subs)
