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
- :func:`cost_lat` — ``Cost^lat`` (§6.1): Σ PM over :func:`latency_scan`.
- :func:`cost_ord_next` / :func:`cost_tree_next` — ``Cost^next`` (§6.2),
  the skip-till-next-match model (also used for contiguity strategies).
- :class:`Objective` — the planner-facing combination
  ``Cost^trpt + α·Cost^lat`` (§6.1) with the strategy-specific throughput
  model, normalized so α ∈ [0, 1] trades the two off on comparable scales
  (the paper leaves the mixing scale implicit; see DESIGN.md §5).

Every partial-match count here comes from one recurrence,
:meth:`PatternStats.prefix_pms`, in one of three shapes with the same
float operations in the same order, so the three agree bit for bit:

- scalar: ``prefix_pms(order)`` for one order plan (``cost_ord``,
  ``cost_ord_next``), and ``pm_of_mask`` — the recurrence over a set's
  members in ascending order — for tree nodes and single subsets;
- a batch of B order plans of L positions, each ``base[moves[b]]`` for one
  base order and an :class:`OrderIndex` of the moves (any batch is the case
  base = 0 … n−1): :meth:`Objective.prefix_pm_rows`, run row by row over a
  position-major ``(L, B)`` layout (Iterative Improvement's neighbourhoods,
  :meth:`Objective.order_costs`);
- every subset at once: :class:`SubsetTables` (the DP planners).

``cost_ldj``/``cost_bj`` do not use it: they witness Theorems 1 and 2.
"""
from __future__ import annotations

import functools
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
    return float(sum(stats.prefix_pms(plan.order)))


def cost_ldj(plan: OrderPlan, stats: PatternStats) -> float:
    """``Cost_LDJ`` — left-deep join cost over the reduced join instance.

    Written against the join-side quantities of §3.2/§4.1: relation
    cardinalities ``|R_i| = W·r_i`` and predicate selectivities ``f = sel``.
    ``C_1 = |R_{i_1}|``; each further step contributes
    ``C(P_{k-1}, R_{i_k}) = |P_{k-1}|·|R_{i_k}|·f_{P,R}`` where ``f_{P,R}``
    is the product of the selectivities of all predicates between the new
    relation and the relations already joined. Only valid for pure
    conjunctive instances (``temporal_mode`` none/pairwise — Theorem 1's
    setting).
    """
    if stats.temporal_mode == "exact":
        raise ValueError("Cost_LDJ is defined on the pure conjunctive reduction")
    order = plan.order
    first = order[0]
    card = stats.counts[first]
    total = card
    joined = [first]
    for t in order[1:]:
        f = 1.0
        for i in joined:
            f *= stats.sel[i, t]
        card = card * stats.counts[t] * f
        total += card
        joined.append(t)
    return total


def cost_tree(plan: TreePlan, stats: PatternStats) -> float:
    """Σ_N PM(N) — the tree-based throughput cost (§4.2).

    ``PM(leaf) = W·r_i`` and ``PM(in) = PM(L)·PM(R)·SEL_LR(in)`` (times
    ``|L|!·|R|!/|in|!`` in exact mode), which is the PM of the node's leaf
    set, summed over the nodes in post-order.
    """
    return float(sum(stats.pm_of_mask(node.mask) for node in plan.root.nodes()))


def cost_bj(plan: TreePlan, stats: PatternStats) -> float:
    """``Cost_BJ`` — bushy join-tree cost (Theorem 2's join side).

    Independent implementation: node cardinalities are propagated as
    ``|N| = |L|·|R|·f_{L,R}`` with ``f_{L,R}`` computed by a literal double
    loop over the selectivity matrix. Pure conjunctive instances only.
    """
    if stats.temporal_mode == "exact":
        raise ValueError("Cost_BJ is defined on the pure conjunctive reduction")
    card: dict[int, float] = {}
    total = 0.0
    for node in plan.root.nodes():
        if node.is_leaf():
            v = stats.counts[node.leaf]
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


def latency_scan(plan: OrderPlan | TreePlan, stats: PatternStats) -> list[int]:
    """The masks a match's completion scans once T_n, the temporally last
    positive event of a sequence, arrives (§6.1): ``1 << t`` for each type
    an order plan places after T_n, the sibling of each of T_n's ancestors
    in a tree plan. An AND's last arrival is unknown in advance (the paper
    proposes an output profiler), so it scans nothing and α has no effect;
    the paper's Fig 18 likewise uses sequence patterns only.
    """
    last = stats.last_seq_position
    if last is None:
        return []
    if isinstance(plan, OrderPlan):
        return [1 << t for t in plan.order[plan.order.index(last) + 1 :]]
    scan, node = [], plan.root
    while not node.is_leaf():
        on_left = node.left.mask >> last & 1
        scan.append((node.right if on_left else node.left).mask)
        node = node.left if on_left else node.right
    return scan


def cost_lat(plan: OrderPlan | TreePlan, stats: PatternStats) -> float:
    """``Cost^lat_ord`` (Σ W·r_t after T_n, a position's PM being W·r_t) or
    ``Cost^lat_tree`` (Σ PM(sibling(N)) over T_n's ancestors) (§6.1)."""
    return float(sum(stats.pm_of_mask(m) for m in latency_scan(plan, stats)))


# ---------------------------------------------------------------------------
# Skip-till-next-match models — §6.2
# ---------------------------------------------------------------------------


def cost_ord_next(plan: OrderPlan, stats: PatternStats) -> float:
    """``Cost^next_ord = Σ_k W·m[k]`` (§6.2, as written in the paper), where
    ``m[k] = W·min(r_{p_1..p_k}) · Π sel`` is the next-match prefix PM."""
    return float(sum(stats.window * m for m in stats.prefix_pms(plan.order, next_match=True)))


def cost_tree_next(plan: TreePlan, stats: PatternStats) -> float:
    """``Cost^next_tree = Σ_N PM^next(N)`` (§6.2)."""
    return float(
        sum(stats.pm_of_mask(node.mask, next_match=True) for node in plan.root.nodes())
    )


# ---------------------------------------------------------------------------
# Planner-facing objective — §6.1 hybrid, strategy-aware
# ---------------------------------------------------------------------------

STRATEGIES = ("any", "next", "contiguity")


class OrderIndex:
    """Index tables of a batch of B order plans of L positions, given as
    positions into a base order of ``size`` planning positions: plan b is
    ``base[moves[b]]``. The tables depend on ``moves`` and ``size`` only, so
    one index serves every base (Iterative Improvement's swap/cycle moves,
    for whatever the current order is).

    ``positions`` is ``moves`` position-major, ``(L, B)``. ``factors`` holds
    flat indices into the base's ``size×size`` factor matrix
    ``sel[base][:, base]``, one ``(B,)`` row per factor of the
    recurrence: one row per pair ``(j, k)``, j < k, j-major, which is the
    order in which :meth:`PatternStats.prefix_pms` multiplies them, so
    ``L(L−1)/2`` rows.
    """

    def __init__(self, moves: np.ndarray, size: int):
        self.positions = np.ascontiguousarray(np.asarray(moves, dtype=np.intp).T)
        if self.positions.size and not (
            0 <= self.positions.min() and self.positions.max() < size
        ):
            # A flat factor index out of 0 … size−1 would read another cell.
            raise ValueError(f"order positions must lie in 0 … {size - 1}")
        j, k = _pairs(self.positions.shape[0])
        self.factors = self.positions[j] * size + self.positions[k]
        # Left writeable: ``take`` copies a read-only index array on every call.


@functools.cache
def _pairs(length: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``(j, k)``, j < k < length, j-major."""
    return np.triu_indices(length, 1)


def _batch(orders, base, n: int) -> tuple[OrderIndex, np.ndarray]:
    """``(index, base)`` of a batch: an array of planning positions is its
    own index over the base 0 … n−1; an :class:`OrderIndex` needs its base."""
    if (base is None) == isinstance(orders, OrderIndex):
        raise TypeError(
            "pass either an array of orders without a base, "
            "or an OrderIndex with the base order it indexes"
        )
    if base is None:
        return OrderIndex(orders, n), np.arange(n)
    return orders, base


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
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0: {self.alpha}")
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
    def _pm(self, mask, next_match: bool):
        """Raw PM of the subset ``mask`` (:class:`SubsetTables` looks it up)."""
        return self.stats.pm_of_mask(mask, next_match)

    def _prefix_term(self, pm):
        """Normalized throughput contribution of an order-plan prefix whose raw
        PM (under this objective's strategy) is ``pm``."""
        if self.strategy == "any":
            return pm / self.trpt_ref
        return self.stats.window * pm / self.trpt_ref

    def prefix_pm(self, mask):
        """Normalized throughput contribution of one subset/prefix ``mask`` (an
        integer or, from :class:`SubsetTables`, an array of masks)."""
        return self._prefix_term(self._pm(mask, self.strategy != "any"))

    def node_pm(self, mask):
        """Normalized throughput contribution of one tree node: a Python float
        for an integer ``mask`` (ZStream's scalar loop), an array for an
        array of masks (DP-B's layers, from :class:`SubsetTables`)."""
        pm = self._pm(mask, self.strategy != "any") / self.trpt_ref
        return pm if isinstance(mask, np.ndarray) else float(pm)

    def lat_step(self, mask, t: int):
        """α-weighted latency added by placing ``t`` after subset ``mask``.

        ``mask`` may be an integer array: DP-LD places ``t`` after a whole
        layer of subsets at once. One mask gives a float.
        """
        last = self.stats.last_seq_position
        if self.alpha == 0.0 or last is None or t == last:
            return 0.0
        step = self.alpha * self.stats.counts[t] / self.lat_ref
        lat = np.where(mask >> last & 1 == 1, step, 0.0)
        return lat if isinstance(mask, np.ndarray) else float(lat)

    def lat_combine(self, mask_a, mask_b):
        """α-weighted latency added by a tree node joining two subtrees.

        When T_n sits in one subtree, the completion cascade scans the
        sibling subtree's buffered partial matches (§6.1): PM(sibling).
        Masks are integers or, as in :meth:`node_pm`, arrays.
        """
        last = self.stats.last_seq_position
        if self.alpha == 0.0 or last is None:
            return 0.0
        bit = 1 << last
        sib = np.where(mask_a & bit, mask_b, mask_a)
        term = self.alpha * self._pm(sib, False) / self.lat_ref
        lat = np.where((mask_a | mask_b) & bit != 0, term, 0.0)
        return lat if isinstance(mask_a, np.ndarray) else float(lat)

    # -- whole-plan evaluation ------------------------------------------------
    def order_cost(self, plan: OrderPlan) -> float:
        """Full cost of one order plan: :meth:`order_costs` on a batch of one."""
        return float(self.order_costs(np.array([plan.order]))[0])

    def prefix_pm_rows(
        self, orders: np.ndarray | OrderIndex, base: np.ndarray | None = None
    ) -> np.ndarray:
        """Raw prefix PMs of a batch of order plans, ``[B, L]``, one row per
        plan: :meth:`PatternStats.prefix_pms` under this objective's strategy,
        batched.

        ``orders`` is either a ``[B, L]`` array of planning positions, one
        (possibly partial) plan per row, or, with ``base``, an
        :class:`OrderIndex` whose plan b is ``base[moves[b]]``. An array is
        the case base = 0 … n−1, with its index built here. Any other
        pairing raises ``TypeError``, and a position outside 0 … n−1 (a
        negative one included) raises ``ValueError``.

        The factors come from the base's own factor matrix
        ``sel[base][:, base]`` in one flat ``take``, and the recurrence
        runs row by row over the position-major ``(L, B)`` table, each float
        operation applied to all B plans at once in the recurrence's order:
        position k's factor ``1.0·sel[t_0,t]·…·sel[t_{k-1},t]``
        (ascending j); ``selprod_k = selprod_{k-1}·f_k``, then ``/ (k+1)``
        in exact mode; the running count product (or minimum);
        ``PM_k = count_k·selprod_k``. Row b equals
        ``prefix_pms`` of plan b bit for bit, whatever batch it is in. The
        result is a transposed view of the ``(L, B)`` table.
        """
        st = self.stats
        index, base = _batch(orders, base, st.n)
        pos = index.positions
        length = pos.shape[0]
        # OrderIndex checked its positions, so every flat index is in range
        # and "wrap" only skips take's bounds check.
        factors = st.sel[base][:, base].take(index.factors, mode="wrap")
        selprod = np.ones(pos.shape)
        row = 0
        for j in range(length - 1):
            selprod[j + 1 :] *= factors[row : row + length - 1 - j]
            row += length - 1 - j
        exact = st.temporal_mode == "exact"
        # Row 0 would divide by 1, which is exact.
        count = st.counts[base].take(pos)
        combine = np.multiply if self.strategy == "any" else np.minimum
        rows, count_rows = list(selprod), list(count)
        for k in range(1, length):
            rows[k] *= rows[k - 1]
            if exact:
                rows[k] /= k + 1
            combine(count_rows[k], count_rows[k - 1], out=count_rows[k])
        return (count * selprod).T

    def order_costs(
        self, orders: np.ndarray | OrderIndex, base: np.ndarray | None = None
    ) -> np.ndarray:
        """Full cost of each plan of a batch, ``orders`` and ``base`` as in
        :meth:`prefix_pm_rows`.

        Normalizes :meth:`prefix_pm_rows` as :meth:`prefix_pm` does, then
        sums ``lat_k`` and ``pm_k`` left to right from 0.0, ``total +=
        lat_k`` before ``total += pm_k``, one ``(B,)`` row at a time, where
        ``lat_k`` is :meth:`lat_step`'s term (exactly 0.0 when α = 0, so
        it is not added). A plan's cost therefore does not depend on the
        batch it is in.
        """
        st = self.stats
        index, base = _batch(orders, base, st.n)
        pms = self._prefix_term(self.prefix_pm_rows(index, base).T)
        last = st.last_seq_position
        lat = self.alpha != 0.0 and last is not None
        if lat:
            # lat_step's rule by position: int64 masks overflow past 63 positions.
            steps = (self.alpha * st.counts[base] / self.lat_ref).take(index.positions)
            is_last = (base == last).take(index.positions)
            after = np.zeros(pms.shape[1], dtype=bool)
        total = np.zeros(pms.shape[1])
        for k, pm in enumerate(pms):
            if lat:
                total += np.where(after, steps[k], 0.0)
                after |= is_last[k]
            total += pm
        return total

    def tree_cost(self, plan: TreePlan) -> float:
        total = 0.0
        for node in plan.root.nodes():
            total += self.node_pm(node.mask)
            if not node.is_leaf():
                total += self.lat_combine(node.left.mask, node.right.mask)
        return total


class SubsetTables(Objective):
    """``obj`` with the PM of every subset precomputed, for the DP planners.

    ``pm_any[mask]`` and ``pm_next[mask]`` hold
    :meth:`PatternStats.pm_of_mask` of every subset of the planning
    positions (product and next-match form), as arrays of 2ⁿ floats, bit
    for bit: a mask's entry is the entry of its rest (the mask without its
    highest bit b) extended by b with the recurrence's operations. The
    masks with highest bit b are the slice [2^b, 2^(b+1)) and their rests
    the slice [0, 2^b), so the tables fill for b = 0 … n−1 in n vector
    steps: ``f[r] = 1.0·Π_{i∈r, ascending} sel[i,b]`` built by doubling
    over i, ``selprod = selprod[r]·f`` (then ``/`` the mask's popcount in
    exact mode), the count product (or minimum) likewise, and
    ``PM = count·selprod``. Entry 0, the empty set, is unused. The
    inherited :meth:`prefix_pm`, :meth:`node_pm` and :meth:`lat_combine`
    then look a subset up in O(1).
    """

    def __init__(self, obj: Objective):
        st = obj.stats
        n = st.n
        if n > 24:
            raise ValueError(f"subset tables infeasible for n={n}")
        super().__init__(st, obj.alpha, obj.strategy)
        size = 1 << n
        sel = st.sel
        counts = st.counts
        exact = st.temporal_mode == "exact"
        # popcount[mask], built by doubling over the bits.
        self.popcount = np.zeros(1, dtype=np.int8)
        for _ in range(n):
            self.popcount = np.concatenate([self.popcount, self.popcount + 1])
        selprod = np.ones(size)
        countprod = np.ones(size)
        mincnt = np.full(size, math.inf)
        for b in range(n):
            rest, masks = slice(0, 1 << b), slice(1 << b, 2 << b)
            f = np.ones(1)
            for i in range(b):
                f = np.concatenate([f, f * sel[i, b]])
            selprod[masks] = selprod[rest] * f
            if exact:
                selprod[masks] /= self.popcount[masks]
            countprod[masks] = countprod[rest] * counts[b]
            mincnt[masks] = np.minimum(mincnt[rest], counts[b])
        self.pm_any = countprod * selprod
        self.pm_next = mincnt * selprod

    def layers(self) -> list[np.ndarray]:
        """``layers()[p]`` = the masks of popcount p, ascending, for
        p = 0 … n: the order in which the DP planners fill their tables
        (their tie-breaking relies on it)."""
        by_layer = np.argsort(self.popcount, kind="stable")
        return np.split(by_layer, np.cumsum(np.bincount(self.popcount))[:-1])

    def _pm(self, mask, next_match: bool):
        return (self.pm_next if next_match else self.pm_any)[mask]
