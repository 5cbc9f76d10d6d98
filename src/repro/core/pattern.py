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
:class:`Predicate` relates two positions ``i < j`` (or ``i == j`` for a
filter) and carries an executable ``kind`` understood by the engines plus a
selectivity estimate used by the cost models.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass


class Op(enum.Enum):
    """N-ary pattern operators (paper §2.1)."""

    SEQ = "SEQ"
    AND = "AND"
    OR = "OR"


#: Predicate kinds the engines know how to execute. ``i``/``j`` refer to
#: pattern positions; ``a``/``b`` below denote the events bound at them.
#:
#: - ``diff_lt``:   a.diff < b.diff           (the paper's stock predicate)
#: - ``diff_gt``:   a.diff > b.diff
#: - ``ts_lt``:     a.ts < b.ts               (temporal order, §5.1)
#: - ``serial_adj``: b.serial == a.serial + 1 (strict contiguity, §6.2)
#: - ``true``:      always satisfied (selectivity bookkeeping only)
PREDICATE_KINDS = ("diff_lt", "diff_gt", "ts_lt", "serial_adj", "true")


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
        if self.i > self.j:
            raise ValueError("predicate positions must satisfy i <= j")


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
        if self.window <= 0:
            raise ValueError("window must be positive")
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
            if not (0 <= p.i <= p.j < n):
                raise ValueError(f"predicate {p} out of range for n={n}")
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
