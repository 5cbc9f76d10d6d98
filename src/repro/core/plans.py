"""Evaluation plan representations (paper §3.1).

An :class:`OrderPlan` is a permutation of the planning positions — the
scheme for an order-based (lazy-NFA) engine. A :class:`TreePlan` is a
binary tree over the planning positions — the scheme for a tree-based
(ZStream-style) engine. Planning positions index into
:class:`repro.core.stats.PatternStats` (positive positions only);
``PatternStats.positions`` maps them back to pattern positions.
Every planner returns either plan as a :class:`PlanResult`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class OrderPlan:
    """An evaluation order over planning positions."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError(f"not a permutation: {self.order}")

    @property
    def n(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class TreeNode:
    """A node of a tree plan. Leaves carry a planning position."""

    mask: int
    leaf: int | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    def __post_init__(self) -> None:
        if self.leaf is not None:
            if self.left is not None or self.right is not None:
                raise ValueError("leaf node cannot have children")
            if self.mask != 1 << self.leaf:
                raise ValueError("leaf mask mismatch")
        else:
            if self.left is None or self.right is None:
                raise ValueError("internal node requires two children")
            if self.left.mask & self.right.mask:
                raise ValueError("children masks overlap")
            if self.mask != self.left.mask | self.right.mask:
                raise ValueError("internal mask mismatch")

    def is_leaf(self) -> bool:
        return self.leaf is not None

    def nodes(self) -> Iterator["TreeNode"]:
        """All nodes, post-order."""
        if self.left is not None:
            yield from self.left.nodes()
        if self.right is not None:
            yield from self.right.nodes()
        yield self

    def leaves_in_order(self) -> tuple[int, ...]:
        """Leaf positions left-to-right."""
        if self.is_leaf():
            return (self.leaf,)
        return self.left.leaves_in_order() + self.right.leaves_in_order()


@dataclass(frozen=True)
class TreePlan:
    """A tree-based evaluation plan."""

    root: TreeNode

    @property
    def n(self) -> int:
        return self.root.mask.bit_count()


@dataclass(frozen=True)
class PlanResult:
    """What every planner returns: its plan and the objective cost it
    minimized. :func:`repro.core.planner.plan_simple` times the call."""

    plan: OrderPlan | TreePlan
    cost: float


def leaf(i: int) -> TreeNode:
    """A leaf node for planning position ``i``."""
    return TreeNode(mask=1 << i, leaf=i)


def join(left: TreeNode, right: TreeNode) -> TreeNode:
    """An internal node joining two subtrees."""
    return TreeNode(mask=left.mask | right.mask, left=left, right=right)


def left_deep_tree(order: tuple[int, ...]) -> TreePlan:
    """The unique left-deep tree realizing an evaluation order."""
    node = leaf(order[0])
    for t in order[1:]:
        node = join(node, leaf(t))
    return TreePlan(node)


def all_tree_plans(n: int) -> Iterator[TreePlan]:
    """Exhaustively enumerate every bushy tree over ``n`` leaves.

    Exponential — intended for brute-force optimality tests (n ≤ 5).
    """

    def build(mask: int) -> Iterator[TreeNode]:
        if mask.bit_count() == 1:
            yield leaf(mask.bit_length() - 1)
            return
        # Enumerate proper submask splits; fix the lowest bit on the left
        # side to avoid producing each unordered split twice.
        low = mask & -mask
        rest = mask ^ low
        sub = rest
        while True:
            left_mask = low | sub
            right_mask = mask ^ left_mask
            if right_mask:
                for lt in build(left_mask):
                    for rt in build(right_mask):
                        yield join(lt, rt)
            if sub == 0:
                break
            sub = (sub - 1) & rest

    for root in build((1 << n) - 1):
        yield TreePlan(root)
