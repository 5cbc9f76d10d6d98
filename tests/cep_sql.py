"""Reference SQL generator: a CEP pattern as a DuckDB multi-way self-join.

Used with ``repro.oracle.assert_equivalent`` to cross-check every engine
match set: detection over tumbling windows is exactly a self-join of the
event table on ``wid`` plus the pattern's predicates (the reproduction's
central reduction), so DuckDB can compute the ground truth independently.
"""
from __future__ import annotations

from repro.core.pattern import Op, Pattern


def _pred_sql(kind: str, a: str, b: str) -> str:
    if kind == "diff_lt":
        return f"{a}.diff < {b}.diff"
    if kind == "diff_gt":
        return f"{a}.diff > {b}.diff"
    if kind == "ts_lt":
        return f"{a}.ts < {b}.ts"
    if kind == "serial_adj":
        return f"{b}.serial = {a}.serial + 1"
    return "TRUE"


def pattern_sql(pattern: Pattern, *, strategy: str = "any", table: str = "ev") -> str:
    """SELECT of all matches of a simple pattern, one ``p{i}_id`` per
    positive position (Kleene positions joined event-at-a-time, as the
    engines' pre-aggregation form)."""
    positives = list(pattern.positive())
    aliases = {i: f"e{i}" for i in positives}
    select = ", ".join(f"e{i}.event_id AS p{i}_id" for i in positives)
    frm = ", ".join(f"{table} e{i}" for i in positives)
    conds = [f"e{i}.symbol = '{pattern.types[i]}'" for i in positives]
    first = positives[0]
    conds += [f"e{first}.wid = e{i}.wid" for i in positives[1:]]
    for a_idx, i in enumerate(positives):
        for j in positives[a_idx + 1 :]:
            if pattern.op is Op.SEQ:
                conds.append(f"e{i}.ts < e{j}.ts")
            elif pattern.types[i] == pattern.types[j]:
                conds.append(f"e{i}.event_id <> e{j}.event_id")
    for q in pattern.predicates:
        if q.i == q.j or q.i not in aliases or q.j not in aliases:
            continue
        conds.append(_pred_sql(q.kind, f"e{q.i}", f"e{q.j}"))
    if strategy == "contiguity":
        for a, b in zip(positives, positives[1:]):
            conds.append(f"e{b}.serial = e{a}.serial + 1")
    for j in sorted(pattern.negated):
        sub = [
            f"n.symbol = '{pattern.types[j]}'",
            f"n.wid = e{first}.wid",
        ]
        if pattern.op is Op.SEQ:
            for i in range(j - 1, -1, -1):
                if i in aliases:
                    sub.append(f"e{i}.ts < n.ts")
                    break
            for i in range(j + 1, len(pattern.types)):
                if i in aliases:
                    sub.append(f"n.ts < e{i}.ts")
                    break
        else:
            same = [i for i in positives if pattern.types[i] == pattern.types[j]]
            sub += [f"n.event_id <> e{i}.event_id" for i in same]
        for q in pattern.predicates:
            if q.i == j and q.j in aliases:
                sub.append(_pred_sql(q.kind, "n", f"e{q.j}"))
            elif q.j == j and q.i in aliases:
                sub.append(_pred_sql(q.kind, f"e{q.i}", "n"))
        conds.append(
            f"NOT EXISTS (SELECT 1 FROM {table} n WHERE "
            + " AND ".join(sub)
            + ")"
        )
    return f"SELECT {select} FROM {frm} WHERE " + " AND ".join(conds)
