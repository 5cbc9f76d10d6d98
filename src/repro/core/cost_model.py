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

import numpy as np

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
        cost = cost_ord if self.strategy == "any" else cost_ord_next
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            self.trpt_ref = cost(trivial, self.stats)
        if not math.isfinite(self.trpt_ref):
            raise ValueError(
                f"the trivial plan's cost over {self.stats.n} positions overflows "
                f"a float ({self.trpt_ref}): the pattern's partial-match counts are "
                "too large to plan"
            )
        self.lat_ref = max(self.stats.total_count(), 1e-300)
        self.trpt_ref = float(max(self.trpt_ref, 1e-300))

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

    def lat_step(self, mask, t: int):
        """α-weighted latency added by placing ``t`` after subset ``mask``.

        ``mask`` may be an integer array: DP-LD places ``t`` after a whole
        layer of subsets at once.
        """
        last = self.stats.last_seq_position
        if self.alpha == 0.0 or last is None or t == last:
            return 0.0
        step = self.alpha * self.stats.counts[t] / self.lat_ref
        return np.where(mask >> last & 1 == 1, step, 0.0)

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
        """Full cost of one order plan: :meth:`order_costs` on a batch of one."""
        return float(self.order_costs(np.array([plan.order]))[0])

    def order_costs(self, orders: np.ndarray) -> np.ndarray:
        """Full cost of each row of ``orders[B, n]``, one order plan per row.

        Applies each float operation of the incremental recurrence over plan
        positions k to all B plans at once, in the recurrence's order:
        position k's factor ``sel[t,t]·sel[t_0,t]·…·sel[t_{k-1},t]``
        (ascending j); ``selprod_k = selprod_{k-1}·f_k``, then ``/ k_seq``
        at the k_seq-th sequence member in exact mode; the running count
        product (or minimum); and ``total += lat_k`` then ``total += pm_k``,
        summed left to right, where ``lat_k`` is :meth:`lat_step`'s term. A
        plan's cost therefore does not depend on the batch it is in.
        """
        st = self.stats
        orders = np.asarray(orders)
        n_plans, n = orders.shape
        sel = st.sel
        selprod = sel[orders, orders]
        for j in range(n - 1):
            selprod[:, j + 1 :] *= sel[orders[:, j : j + 1], orders[:, j + 1 :]]
        exact = st.temporal_mode == "exact" and st.seq_members
        if exact:
            is_seq = np.array([st.seq_members >> i & 1 for i in range(n)], dtype=bool)[orders]
            # Dividing by 1 where the position is not a sequence member is exact.
            k_seq = np.where(is_seq, np.cumsum(is_seq, axis=1), 1)
            selprod[:, 0] /= k_seq[:, 0]
        for k in range(1, n):
            selprod[:, k] *= selprod[:, k - 1]
            if exact:
                selprod[:, k] /= k_seq[:, k]
        counts = st.counts[orders]
        if self.strategy == "any":
            pm = np.multiply.accumulate(counts, axis=1) * selprod / self.trpt_ref
        else:
            pm = st.window * np.minimum.accumulate(counts, axis=1) * selprod / self.trpt_ref
        terms = np.empty((n_plans, 2 * n))
        terms[:, 1::2] = pm
        last = st.last_seq_position
        if self.alpha == 0.0 or last is None:
            terms[:, 0::2] = 0.0
        else:
            # lat_step's rule without bitmasks, which overflow int64 past 63 positions.
            is_last = orders == last
            last_before = (np.cumsum(is_last, axis=1) - is_last).astype(bool)
            terms[:, 0::2] = np.where(last_before, self.alpha * counts / self.lat_ref, 0.0)
        return np.add.accumulate(terms, axis=1)[:, -1]

    def tree_cost(self, plan: TreePlan) -> float:
        total = 0.0
        for node in plan.root.nodes():
            total += self.node_pm(node.mask)
            if not node.is_leaf():
                total += self.lat_combine(node.left.mask, node.right.mask)
        return total


class SubsetTables:
    """Per-subset quantities for the dynamic-programming planners.

    ``pm_any[mask]`` is the expected partial-match count (§4.1/4.2) and
    ``pm_next[mask]`` the skip-till-next count (§6.2) of every subset of the
    planning positions, as arrays of 2ⁿ floats. A mask is built from the
    mask without its lowest bit b, so the masks are filled in groups of
    one b, from b = n−1 down to 0, each group with vector operations:
    ``f = sel[b,b]·Π_{i∈rest, ascending} sel[i,b]``, ``selprod = selprod[rest]·f``
    (then ``/ k`` for the k-th sequence member in exact mode), ``countprod``
    and ``mincnt`` likewise. O(2ⁿ) work in O(n) vector steps; DP-LD/DP-B
    then look a subset's cost up in O(1).
    """

    def __init__(self, obj: Objective):
        st = obj.stats
        n = st.n
        if n > 24:
            raise ValueError(f"subset tables infeasible for n={n}")
        self.obj = obj
        size = 1 << n
        sel = st.sel
        counts = st.counts
        seq = st.seq_members if st.temporal_mode == "exact" else 0
        if seq:
            # k_seq[mask] = |mask ∩ seq|, built by doubling over the bits.
            k_seq = np.zeros(1, dtype=np.uint8)
            for i in range(n):
                k_seq = np.concatenate([k_seq, k_seq + (seq >> i & 1)])
        selprod = np.ones(size)
        countprod = np.ones(size)
        mincnt = np.full(size, math.inf)
        for b in range(n - 1, -1, -1):
            # The masks with lowest bit b are every[2^(b+1)] from 2^b; their
            # rests (the bits above b) are every[2^(b+1)] from 0. Index r of
            # both runs over the rests in order, so f[r] is built by
            # doubling: the highest member's factor is the last multiplied.
            f = np.array([sel[b, b]])
            for i in range(b + 1, n):
                f = np.concatenate([f, f * sel[i, b]])
            rest = slice(0, size, 2 << b)
            masks = slice(1 << b, size, 2 << b)
            sp = selprod[rest] * f
            if seq >> b & 1:
                sp /= k_seq[masks]
            selprod[masks] = sp
            countprod[masks] = countprod[rest] * counts[b]
            mincnt[masks] = np.minimum(mincnt[rest], counts[b])
        countprod *= selprod
        mincnt *= selprod
        mincnt[0] = 0.0
        self.pm_any = countprod
        self.pm_next = mincnt

    def prefix_pm(self, mask):
        """Normalized order-plan prefix contribution for ``mask`` (an integer
        or, for DP-LD's layers, an array of masks)."""
        if self.obj.strategy == "any":
            return self.pm_any[mask] / self.obj.trpt_ref
        return self.obj.stats.window * self.pm_next[mask] / self.obj.trpt_ref

    def node_pm(self, mask: int) -> float:
        """Normalized tree-node contribution for ``mask``, as a Python float
        (the tree DPs add these in scalar loops)."""
        if self.obj.strategy == "any":
            return float(self.pm_any[mask]) / self.obj.trpt_ref
        return float(self.pm_next[mask]) / self.obj.trpt_ref

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
