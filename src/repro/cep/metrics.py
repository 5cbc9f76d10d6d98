"""Execution metrics shared by the CEP engines.

The paper measures throughput (primitive events/second), peak memory, and
detection latency. Our engines report:

- ``throughput`` — events processed per wall-clock second, as in §7.2;
- ``memory_proxy`` — the partial-match footprint: the summed sizes of all
  intermediate results (join engine) or buffered instances (event
  engine). This is the quantity the paper's cost functions model and the
  driver of its memory results (DESIGN.md §3);
- ``latency_surrogate`` — expected buffered-scan work after the final
  primitive event of a match arrives (§6.1's definition, measured from
  actual buffer/partial-match sizes).
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExecutionMetrics:
    """Measured cost of one pattern detection run."""

    strategy: str
    n_events: int
    n_windows: int
    intermediate_counts: list[int] = field(default_factory=list)
    n_matches: int = 0
    wall_seconds: float = 0.0
    latency_surrogate: float = 0.0

    @property
    def throughput(self) -> float:
        """Primitive events processed per second of detection."""
        return self.n_events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def memory_proxy(self) -> int:
        """Total partial-match footprint across all stages/nodes."""
        return int(sum(self.intermediate_counts))

    def merged_with(self, other: "ExecutionMetrics") -> "ExecutionMetrics":
        """Combine metrics of independently detected subpatterns (§5.4)."""
        assert self.strategy == other.strategy
        return ExecutionMetrics(
            strategy=self.strategy,
            n_events=max(self.n_events, other.n_events),
            n_windows=max(self.n_windows, other.n_windows),
            intermediate_counts=self.intermediate_counts + other.intermediate_counts,
            n_matches=self.n_matches + other.n_matches,
            wall_seconds=self.wall_seconds + other.wall_seconds,
            latency_surrogate=max(self.latency_surrogate, other.latency_surrogate),
        )
