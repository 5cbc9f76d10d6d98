"""Pattern reductions to pure conjunctive form (paper §5).

- :func:`seq_to_and` — Theorem 3: a sequence pattern is a conjunctive
  pattern plus explicit temporal (``ts_lt``) predicates between adjacent
  positions (selectivity 0.5 under iid timestamps).
- Kleene closure (Theorem 4) is realized in
  :meth:`repro.core.stats.PatternStats.from_pattern`: the KL position's
  count is inflated to ``2^{W·r}`` for planning
  (:func:`repro.core.stats.kleene_pseudo_count`).
- :func:`negation_dependencies` — §5.3: for each negated position, the
  positive positions that must be bound before the absence check can run
  (its temporal neighbours in a SEQ plus every predicate partner).
- :func:`to_dnf` — §5.4: flatten an arbitrarily nested operator tree into
  a disjunction of simple conjunctive patterns (sequences contribute
  their temporal predicates via Theorem 3 on the way).

All transformations are plan-generation devices: the engines never
materialize rewritten streams.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .pattern import Op, Pattern, Predicate

#: Selectivity of one adjacent temporal-order predicate (iid timestamps).
TS_SEL = 0.5

#: Predicate kinds under operand swap: p(a, b) == flipped(b, a).
_FLIPPED_KIND = {"diff_lt": "diff_gt", "diff_gt": "diff_lt", "true": "true"}


def seq_to_and(pattern: Pattern) -> Pattern:
    """Rewrite a sequence pattern as a conjunctive one (Theorem 3).

    Adds ``e_i.ts < e_{i+1}.ts`` predicates between adjacent positions and
    switches the operator to AND. Semantics are preserved exactly (the
    temporal total order is implied transitively).
    """
    if pattern.op is not Op.SEQ:
        raise ValueError("seq_to_and expects a sequence pattern")
    n = len(pattern.types)
    extra = tuple(
        Predicate(i, i + 1, kind="ts_lt", sel=TS_SEL) for i in range(n - 1)
    )
    return replace(pattern, op=Op.AND, predicates=pattern.predicates + extra)


def negation_dependencies(pattern: Pattern) -> dict[int, frozenset[int]]:
    """Positive positions each negated position depends on (§5.3).

    For ``SEQ(A, NOT(B), C, D)`` the check for B runs once both A and C are
    bound (the temporal neighbours delimiting B's allowed interval); any
    position sharing a predicate with B is added as well. For AND patterns
    predicate partners matter, and so does every positive position of the
    negated type, whose event the negated one must not be; with none, the
    check is a pure window-level absence test and can run at the first step.
    """
    deps: dict[int, frozenset[int]] = {}
    positive = set(pattern.positive())
    for j in sorted(pattern.negated):
        d: set[int] = set()
        if pattern.op is Op.SEQ:
            for i in range(j - 1, -1, -1):
                if i in positive:
                    d.add(i)
                    break
            for i in range(j + 1, len(pattern.types)):
                if i in positive:
                    d.add(i)
                    break
        else:
            d.update(i for i in positive if pattern.types[i] == pattern.types[j])
        for p in pattern.predicates:
            if p.i == j and p.j in positive:
                d.add(p.j)
            elif p.j == j and p.i in positive:
                d.add(p.i)
        deps[j] = frozenset(d)
    return deps


# ---------------------------------------------------------------------------
# Nested patterns → DNF (§5.4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpNode:
    """A node of a nested pattern's operator tree.

    Leaves carry an event type name (plus optional NOT/KL markers);
    internal nodes carry an n-ary operator and children. Pairwise
    predicates over the *type names* are supplied separately to
    :func:`to_dnf` so they survive DNF distribution.
    """

    op: Op | None = None
    type_name: str | None = None
    children: tuple["OpNode", ...] = ()
    negated: bool = False
    kleene: bool = False

    def __post_init__(self) -> None:
        if self.op is None:
            if self.type_name is None or self.children:
                raise ValueError("leaf requires a type name and no children")
        else:
            if len(self.children) < 2:
                raise ValueError("operator node requires >= 2 children")
            if self.negated or self.kleene:
                raise ValueError("NOT/KL apply to single events only (§2.1)")


def event(name: str, *, negated: bool = False, kleene: bool = False) -> OpNode:
    return OpNode(type_name=name, negated=negated, kleene=kleene)


def op_seq(*children: OpNode) -> OpNode:
    return OpNode(op=Op.SEQ, children=children)


def op_and(*children: OpNode) -> OpNode:
    return OpNode(op=Op.AND, children=children)


def op_or(*children: OpNode) -> OpNode:
    return OpNode(op=Op.OR, children=children)


@dataclass(frozen=True)
class _Term:
    """One conjunctive DNF term under construction."""

    names: tuple[str, ...]
    negated: frozenset[int]
    kleene: frozenset[int]
    ts_pairs: tuple[tuple[int, int], ...]  # temporal predicates (i before j)


def _dnf_terms(node: OpNode) -> list[_Term]:
    if node.op is None:
        return [
            _Term(
                (node.type_name,),
                frozenset([0]) if node.negated else frozenset(),
                frozenset([0]) if node.kleene else frozenset(),
                (),
            )
        ]
    child_terms = [_dnf_terms(c) for c in node.children]
    if node.op is Op.OR:
        return [t for terms in child_terms for t in terms]
    # AND / SEQ: cross product of children terms, concatenating positions.
    combos: list[tuple[_Term, ...]] = [()]
    for terms in child_terms:
        combos = [c + (t,) for c in combos for t in terms]
    out: list[_Term] = []
    for combo in combos:
        names: list[str] = []
        negated: set[int] = set()
        kleene: set[int] = set()
        ts: list[tuple[int, int]] = []
        offsets: list[int] = []
        for t in combo:
            off = len(names)
            offsets.append(off)
            names.extend(t.names)
            negated |= {off + i for i in t.negated}
            kleene |= {off + i for i in t.kleene}
            ts.extend((off + a, off + b) for a, b in t.ts_pairs)
        if node.op is Op.SEQ:
            # Temporal order between the positive positions of adjacent
            # positive-bearing children. Negated positions carry no ts
            # predicate themselves (§5.3 handles them), and a fully
            # negated child is skipped so its neighbours stay ordered.
            positive_children = []
            for c in range(len(combo)):
                pos = [
                    p
                    for p in range(offsets[c], offsets[c] + len(combo[c].names))
                    if p not in negated
                ]
                if pos:
                    positive_children.append(pos)
            for left, right in zip(positive_children, positive_children[1:]):
                ts.extend((a, b) for a in left for b in right)
        out.append(_Term(tuple(names), frozenset(negated), frozenset(kleene), tuple(ts)))
    return out


def to_dnf(
    node: OpNode,
    window: float,
    predicates: dict[tuple[str, str], tuple[str, float]] | None = None,
) -> Pattern:
    """Flatten a nested operator tree into an OR of simple AND patterns.

    ``predicates`` maps ordered type-name pairs to ``(kind, selectivity)``;
    a predicate is attached to every DNF term containing both names. Given
    in reverse, ``diff_lt`` and ``diff_gt`` swap; ``ts_lt``/``serial_adj`` raise.
    Returns a disjunctive :class:`Pattern` (or the single simple pattern
    when no OR is present).
    """
    predicates = predicates or {}
    subs: list[Pattern] = []
    for term in _dnf_terms(node):
        index = {name: i for i, name in enumerate(term.names)}
        if len(index) != len(term.names):
            raise ValueError("duplicate type names within one DNF term")
        preds = []
        for a, b in term.ts_pairs:
            # Children are concatenated left-to-right, so "a before b"
            # always lands on positions a < b.
            if a >= b:
                raise AssertionError("SEQ distribution produced a backward ts pair")
            preds.append(Predicate(a, b, kind="ts_lt", sel=TS_SEL))
        for (na, nb), (kind, sel) in predicates.items():
            if na in index and nb in index:
                i, j = index[na], index[nb]
                if i > j:
                    if kind not in _FLIPPED_KIND:
                        raise ValueError(f"{kind!r} of ({na!r}, {nb!r}) has no flipped kind")
                    i, j = j, i
                    kind = _FLIPPED_KIND[kind]
                preds.append(Predicate(i, j, kind=kind, sel=sel))
        subs.append(
            Pattern(
                Op.AND,
                term.names,
                tuple(preds),
                window,
                term.negated,
                term.kleene,
            )
        )
    if len(subs) == 1:
        return subs[0]
    return Pattern(Op.OR, window=window, subpatterns=tuple(subs))
