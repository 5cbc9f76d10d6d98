"""Cost models for CEP evaluation plans (paper §4, §6.1, §6.2).

Implemented functions, with the paper's names:

- :func:`cost_ord`  — ``Cost_ord``  (§4.1): Σ expected partial matches over
  every prefix of an order-based plan.
- :func:`cost_ldj`  — ``Cost_LDJ``  (§4.1): left-deep join-tree cost. Kept
  as an *independent* implementation (cardinality propagation over the
  join side of the reduction) so Theorem 1's equality ``Cost_ord(O) ==
  Cost_LDJ(L_O)`` is an executable test, not a tautology.
- :func:`cost_tree` — ``Cost_tree`` (§4.2): Σ PM over all tree-plan nodes.
- :func:`cost_bj`   — ``Cost_BJ``   (§4.2): bushy join-tree cost,
  independently implemented (Theorem 2's counterpart).
- :func:`cost_ord_lat` / :func:`cost_tree_lat` — ``Cost^lat`` (§6.1).
- :func:`cost_ord_next` / :func:`cost_tree_next` — ``Cost^next`` (§6.2),
  the skip-till-next-match model (also used for contiguity strategies).
- :class:`Objective` — the planner-facing combination
  ``Cost^trpt + α·Cost^lat`` (§6.1) with the strategy-specific throughput
  model, normalized so α ∈ [0, 1] trades the two off on comparable scales
  (the paper leaves the mixing scale implicit; see DESIGN.md §5).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .plans import OrderPlan, TreePlan
from .stats import PatternStats

# ---------------------------------------------------------------------------
# Throughput (intermediate partial matches) models — §4
# ---------------------------------------------------------------------------


def cost_ord(plan: OrderPlan, stats: PatternStats) -> float:
    """Σ_k PM(k) — the order-based throughput cost (§4.1)."""
    total = 0.0
    pm = 1.0
    mask = 0
    for t in plan.order:
        pm *= stats.extend_factor(mask, t)
        mask |= 1 << t
        total += pm
    return total


def cost_ldj(plan: OrderPlan, stats: PatternStats) -> float:
    """``Cost_LDJ`` — left-deep join cost over the reduced join instance.

    Written against the join-side quantities of §3.2/§4.1: relation
    cardinalities ``|R_i| = W·r_i`` and predicate selectivities ``f = sel``.
    ``C_1 = |R_{i_1}|·f_{i_1,i_1}``; each further step contributes
    ``C(P_{k-1}, R_{i_k}) = |P_{k-1}|·|R_{i_k}|·f_{P,R}`` where ``f_{P,R}``
    is the product of the selectivities of all predicates between the new
    relation and the relations already joined (including the new relation's
    own filter). Only valid for pure conjunctive instances
    (``temporal_mode`` none/pairwise — Theorem 1's setting).
    """
    if stats.temporal_mode == "exact" and stats.seq_members:
        raise ValueError("Cost_LDJ is defined on the pure conjunctive reduction")
    order = plan.order
    first = order[0]
    card = stats.counts[first] * stats.sel[first, first]
    total = card
    joined = [first]
    for t in order[1:]:
        f = stats.sel[t, t]
        for i in joined:
            f *= stats.sel[i, t]
        card = card * stats.counts[t] * f
        total += card
        joined.append(t)
    return total


def cost_tree(plan: TreePlan, stats: PatternStats) -> float:
    """Σ_N PM(N) — the tree-based throughput cost (§4.2).

    ``PM(leaf) = W·r_i`` (times the filter selectivity, folded in so the
    order- and tree-based models treat filters identically) and
    ``PM(in) = PM(L)·PM(R)·SEL_LR(in)``.
    """
    total = 0.0
    for v in _tree_pm(plan, stats).values():
        total += v
    return total


def _tree_pm(plan: TreePlan, stats: PatternStats) -> dict[int, float]:
    """PM(N) of every node of ``plan`` by mask, in post-order."""
    pm: dict[int, float] = {}
    for node in plan.root.nodes():
        if node.is_leaf():
            pm[node.mask] = stats.counts[node.leaf] * stats.sel[node.leaf, node.leaf]
        else:
            pm[node.mask] = (
                pm[node.left.mask]
                * pm[node.right.mask]
                * stats.combine_factor(node.left.mask, node.right.mask)
            )
    return pm


def cost_bj(plan: TreePlan, stats: PatternStats) -> float:
    """``Cost_BJ`` — bushy join-tree cost (Theorem 2's join side).

    Independent implementation: node cardinalities are propagated as
    ``|N| = |L|·|R|·f_{L,R}`` with ``f_{L,R}`` computed by a literal double
    loop over the selectivity matrix. Pure conjunctive instances only.
    """
    if stats.temporal_mode == "exact" and stats.seq_members:
        raise ValueError("Cost_BJ is defined on the pure conjunctive reduction")
    card: dict[int, float] = {}
    total = 0.0
    for node in plan.root.nodes():
        if node.is_leaf():
            v = stats.counts[node.leaf] * stats.sel[node.leaf, node.leaf]
        else:
            f = 1.0
            for i in range(stats.n):
                if not (node.left.mask >> i & 1):
                    continue
                for j in range(stats.n):
                    if node.right.mask >> j & 1:
                        f *= stats.sel[i, j]
            v = card[node.left.mask] * card[node.right.mask] * f
        card[node.mask] = v
        total += v
    return total


# ---------------------------------------------------------------------------
# Latency models — §6.1
# ---------------------------------------------------------------------------


def cost_ord_lat(plan: OrderPlan, stats: PatternStats) -> float:
    """``Cost^lat_ord`` — Σ W·r_i over the types succeeding T_n in the plan.

    T_n is the temporally last positive event of a sequence pattern. For
    conjunctive patterns the last arrival is unknown in advance (the paper
    proposes an output profiler); we return 0 so that α has no effect —
    the paper's Fig 18 likewise uses sequence patterns only.
    """
    last = stats.last_seq_position
    if last is None:
        return 0.0
    idx = plan.order.index(last)
    return float(sum(stats.counts[t] for t in plan.order[idx + 1 :]))


def cost_tree_lat(plan: TreePlan, stats: PatternStats) -> float:
    """``Cost^lat_tree`` — Σ PM(sibling(N)) over ancestors of T_n's leaf."""
    last = stats.last_seq_position
    if last is None:
        return 0.0
    pm = _tree_pm(plan, stats)
    bit = 1 << last
    total = 0.0
    node = plan.root
    while not node.is_leaf():
        sibling = node.right if node.left.mask & bit else node.left
        total += pm[sibling.mask]
        node = node.left if node.left.mask & bit else node.right
    return total


# ---------------------------------------------------------------------------
# Skip-till-next-match models — §6.2
# ---------------------------------------------------------------------------


def _selprod(mask: int, stats: PatternStats) -> float:
    """Π of all selectivities (filters + pairs + temporal) inside mask."""
    members = [i for i in range(stats.n) if mask >> i & 1]
    v = 1.0
    for a, i in enumerate(members):
        v *= stats.sel[i, i]
        for j in members[a + 1 :]:
            v *= stats.sel[i, j]
    return v * stats.temporal_factor(mask)


def next_match_pm(mask: int, stats: PatternStats) -> float:
    """``m[k] = W·min(r_{p_1..p_k}) · Π sel`` for the subset ``mask``."""
    members = [i for i in range(stats.n) if mask >> i & 1]
    return min(stats.counts[i] for i in members) * _selprod(mask, stats)


def cost_ord_next(plan: OrderPlan, stats: PatternStats) -> float:
    """``Cost^next_ord = Σ_k W·m[k]`` (§6.2, as written in the paper)."""
    total = 0.0
    mask = 0
    for t in plan.order:
        mask |= 1 << t
        total += stats.window * next_match_pm(mask, stats)
    return total


def cost_tree_next(plan: TreePlan, stats: PatternStats) -> float:
    """``Cost^next_tree = Σ_N PM^next(N)`` (§6.2)."""
    return float(sum(next_match_pm(node.mask, stats) for node in plan.root.nodes()))


# ---------------------------------------------------------------------------
# Planner-facing objective — §6.1 hybrid, strategy-aware
# ---------------------------------------------------------------------------

STRATEGIES = ("any", "next", "contiguity")


@dataclass
class Objective:
    """``Cost = Cost^trpt + α·Cost^lat`` with strategy-specific Cost^trpt.

    ``strategy`` selects the throughput model: ``"any"`` uses the §4 cost
    functions; ``"next"`` and ``"contiguity"`` use the §6.2 skip-till-next
    model (the paper prescribes it for both). The throughput term is
    normalized by the trivial (pattern-order) plan's cost and the latency
    term by Σ W·r_i, so α ∈ {0, 0.5, 1} spans the paper's Fig 18 range.

    Planners rely on the decomposability helpers: ``prefix_pm(mask)`` is the
    contribution of a prefix/subset (both throughput models are functions of
    the member *set* only), and ``lat_step(mask, t)`` is the latency added
    when position ``t`` is placed after the subset ``mask``.
    """

    stats: PatternStats
    alpha: float = 0.0
    strategy: str = "any"
    trpt_ref: float = field(init=False)
    lat_ref: float = field(init=False)

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        trivial = OrderPlan(tuple(range(self.stats.n)))
        if self.strategy == "any":
            self.trpt_ref = cost_ord(trivial, self.stats)
        else:
            self.trpt_ref = cost_ord_next(trivial, self.stats)
        self.lat_ref = max(self.stats.total_count(), 1e-300)
        self.trpt_ref = max(self.trpt_ref, 1e-300)

    # -- decomposable pieces ------------------------------------------------
    def prefix_pm(self, mask: int) -> float:
        """Normalized throughput contribution of one subset/prefix/node."""
        if self.strategy == "any":
            return self.stats.pm_of_mask(mask) / self.trpt_ref
        return self.stats.window * next_match_pm(mask, self.stats) / self.trpt_ref

    def node_pm(self, mask: int) -> float:
        """Normalized throughput contribution of one tree node."""
        if self.strategy == "any":
            return self.stats.pm_of_mask(mask) / self.trpt_ref
        return next_match_pm(mask, self.stats) / self.trpt_ref

    def lat_step(self, mask: int, t: int) -> float:
        """α-weighted latency added by placing ``t`` after subset ``mask``."""
        last = self.stats.last_seq_position
        if self.alpha == 0.0 or last is None or t == last:
            return 0.0
        if mask >> last & 1:
            return self.alpha * self.stats.counts[t] / self.lat_ref
        return 0.0

    def lat_combine(self, mask_a: int, mask_b: int) -> float:
        """α-weighted latency added by a tree node joining two subtrees.

        When T_n sits in one subtree, the completion cascade scans the
        sibling subtree's buffered partial matches (§6.1): PM(sibling).
        """
        last = self.stats.last_seq_position
        if self.alpha == 0.0 or last is None:
            return 0.0
        bit = 1 << last
        if mask_a & bit:
            sib = mask_b
        elif mask_b & bit:
            sib = mask_a
        else:
            return 0.0
        return self.alpha * self.stats.pm_of_mask(sib) / self.lat_ref

    # -- whole-plan evaluation ------------------------------------------------
    def order_cost(self, plan: OrderPlan) -> float:
        """Full plan cost in O(n²) — incremental, so local search stays fast."""
        st = self.stats
        sel = st.sel
        exact = st.temporal_mode == "exact"
        total = 0.0
        mask = 0
        members: list[int] = []
        selprod = 1.0
        countprod = 1.0
        mincnt = math.inf
        k_seq = 0
        for t in plan.order:
            total += self.lat_step(mask, t)
            f = sel[t, t]
            for i in members:
                f *= sel[i, t]
            selprod *= f
            if exact and (st.seq_members >> t & 1):
                k_seq += 1
                selprod /= k_seq
            countprod *= st.counts[t]
            mincnt = min(mincnt, st.counts[t])
            members.append(t)
            mask |= 1 << t
            if self.strategy == "any":
                total += countprod * selprod / self.trpt_ref
            else:
                total += st.window * mincnt * selprod / self.trpt_ref
        return total

    def tree_cost(self, plan: TreePlan) -> float:
        total = 0.0
        for node in plan.root.nodes():
            total += self.node_pm(node.mask)
            if not node.is_leaf():
                total += self.lat_combine(node.left.mask, node.right.mask)
        return total


class SubsetTables:
    """Per-subset quantities for the dynamic-programming planners.

    Precomputes, for every mask over the planning positions, the expected
    partial-match count ``pm_any`` (§4.1/4.2) and the skip-till-next count
    (§6.2), each in O(2ⁿ·n) total. DP-LD/DP-B then run in O(2ⁿ·n) /
    O(3ⁿ) with O(1) per-subset cost lookups.
    """

    def __init__(self, obj: Objective):
        st = obj.stats
        n = st.n
        if n > 24:
            raise ValueError(f"subset tables infeasible for n={n}")
        self.obj = obj
        size = 1 << n
        selprod = [1.0] * size
        countprod = [1.0] * size
        mincnt = [math.inf] * size
        sel = st.sel
        counts = st.counts
        exact = st.temporal_mode == "exact"
        seq = st.seq_members
        for mask in range(1, size):
            b = (mask & -mask).bit_length() - 1
            rest = mask ^ (1 << b)
            f = sel[b, b]
            r = rest
            while r:
                i = (r & -r).bit_length() - 1
                f *= sel[i, b]
                r ^= 1 << i
            sp = selprod[rest] * f
            if exact and (seq >> b & 1):
                sp /= (mask & seq).bit_count()
            selprod[mask] = sp
            countprod[mask] = countprod[rest] * counts[b]
            mincnt[mask] = min(mincnt[rest], counts[b])
        self.pm_any = [countprod[m] * selprod[m] for m in range(size)]
        self.pm_next = [0.0] + [mincnt[m] * selprod[m] for m in range(1, size)]

    def prefix_pm(self, mask: int) -> float:
        """Normalized order-plan prefix contribution for ``mask``."""
        if self.obj.strategy == "any":
            return self.pm_any[mask] / self.obj.trpt_ref
        return self.obj.stats.window * self.pm_next[mask] / self.obj.trpt_ref

    def node_pm(self, mask: int) -> float:
        """Normalized tree-node contribution for ``mask``."""
        if self.obj.strategy == "any":
            return self.pm_any[mask] / self.obj.trpt_ref
        return self.pm_next[mask] / self.obj.trpt_ref

    def lat_combine(self, mask_a: int, mask_b: int) -> float:
        """O(1) version of :meth:`Objective.lat_combine` using the tables."""
        obj = self.obj
        last = obj.stats.last_seq_position
        if obj.alpha == 0.0 or last is None:
            return 0.0
        bit = 1 << last
        if mask_a & bit:
            sib = mask_b
        elif mask_b & bit:
            sib = mask_a
        else:
            return 0.0
        return obj.alpha * self.pm_any[sib] / obj.lat_ref
