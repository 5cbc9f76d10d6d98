"""Tests for ExecutionMetrics (repro.cep.metrics)."""
import pytest

from repro.cep.metrics import ExecutionMetrics


def make(**kw):
    base = dict(strategy="any", n_events=100, n_windows=5)
    base.update(kw)
    return ExecutionMetrics(**base)


class TestExecutionMetrics:
    def test_throughput(self):
        m = make(wall_seconds=2.0)
        assert m.throughput == 50.0

    def test_throughput_zero_wall(self):
        assert make(wall_seconds=0.0).throughput == 0.0

    def test_memory_proxy_sums(self):
        m = make(intermediate_counts=[10, 20, 5])
        assert m.memory_proxy == 35

    def test_empty_counts(self):
        m = make()
        assert m.memory_proxy == 0

    def test_merged_with(self):
        a = make(
            intermediate_counts=[1, 2],
            n_matches=3,
            wall_seconds=1.0,
            latency_surrogate=5.0,
        )
        b = make(
            intermediate_counts=[4],
            n_matches=7,
            wall_seconds=2.0,
            latency_surrogate=1.0,
        )
        m = a.merged_with(b)
        assert m.n_matches == 10
        assert m.wall_seconds == 3.0
        assert m.intermediate_counts == [1, 2, 4]
        assert m.latency_surrogate == 5.0  # max over disjunction operands (§6.1)
        assert m.n_events == 100

    def test_merge_requires_same_strategy(self):
        with pytest.raises(AssertionError):
            make().merged_with(make(strategy="next"))
