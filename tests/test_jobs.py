"""Smoke tests of the ``jobs/`` entrypoints: each CLI builds the right
table call, and :func:`jobs._common.run` prints and saves what the table
returns. No test starts Spark or writes to ``results/``."""
import importlib
import sys

import pytest

from jobs import _common
from repro.experiments import report, tables
from repro.workloads.generator import CATEGORIES

# Each job's flags, as in the usage line of its docstring.
JOBS = {
    "table1_throughput_memory": (tables.table1, ["--sizes", "3", "4", "5"]),
    "table2_by_size": (tables.table2, ["--sizes", "3", "4", "5", "6", "7"]),
    "table3_cost_validation": (tables.table3, []),
    "table4_large_plans": (tables.table4, ["--plan-sizes", "3", "6", "9", "12", "16", "20", "22"]),
    "table5_latency": (tables.table5, ["--alphas", "0", "0.5", "1"]),
    "table6_selection_strategies": (tables.table6, []),
}


@pytest.fixture
def main_call(monkeypatch):
    """Run one job's ``main()`` with ``run`` captured; return its arguments."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # jobs prepend "."

    def call(name):
        module = importlib.import_module(f"jobs.{name}")
        captured = []
        monkeypatch.setattr(module, "run", lambda *a, **kw: captured.append((a, kw)))
        monkeypatch.setattr(sys, "argv", [f"jobs/{name}.py", *JOBS[name][1]])
        module.main()
        ((args, kwargs),) = captured
        return args, kwargs

    return call


@pytest.mark.parametrize("name", sorted(JOBS))
def test_job_runs_its_table(main_call, name):
    (table_name, table, cfg), kwargs = main_call(name)
    assert table_name == name.split("_")[0]
    assert table is JOBS[name][0]
    assert cfg.seed == 0 and cfg.per_size == 3 and cfg.dp_b_max_n == 16
    assert (cfg.stream.duration, cfg.stream.window, cfg.stream.seed) == (3600.0, 60.0, 7)
    if name == "table4_large_plans":
        assert kwargs == {"sizes": (3, 6, 9, 12, 16, 20, 22), "per_size": 3}
        assert cfg.stream.n_symbols >= 22 + 2
    else:
        assert cfg.stream.n_symbols == 20


def test_table4_job_keeps_stream_flags(main_call, monkeypatch):
    monkeypatch.setitem(JOBS, "table4_large_plans", (tables.table4, [
        "--plan-sizes", "3", "9", "--n-symbols", "30", "--duration", "600", "--window", "30",
    ]))
    stream = main_call("table4_large_plans")[0][2].stream
    assert (stream.n_symbols, stream.duration, stream.window) == (30, 600.0, 30.0)
    monkeypatch.setitem(JOBS, "table4_large_plans", (tables.table4, ["--plan-sizes", "3", "9"]))
    assert main_call("table4_large_plans")[0][2].stream.n_symbols == 20


def test_job_configs(main_call):
    assert main_call("table1_throughput_memory")[0][2].sizes == (3, 4, 5)
    cfg = main_call("table2_by_size")[0][2]
    assert cfg.sizes == (3, 4, 5, 6, 7) and cfg.categories == CATEGORIES
    assert main_call("table3_cost_validation")[0][2].categories == ("sequence", "conjunction")
    (_, _, cfg), kwargs = main_call("table5_latency")
    assert cfg.categories == ("sequence",) and kwargs == {"alphas": (0.0, 0.5, 1.0)}
    (_, _, cfg), kwargs = main_call("table6_selection_strategies")
    assert cfg.categories == ("sequence",)
    assert kwargs == {"strategies": ("any", "next", "contiguity")}


class FakeSession:
    stopped = False

    def stop(self):
        self.stopped = True


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
    return tmp_path


def test_run_prints_and_saves(results_dir, monkeypatch, capsys):
    session = FakeSession()
    monkeypatch.setattr(_common, "build_spark", lambda app: session)
    seen = []

    def table(spark, cfg, **kwargs):
        seen.append((spark, cfg, kwargs))
        return [], "the table"

    _common.run("tableX", table, "cfg", alphas=(1.0,))
    assert seen == [(session, "cfg", {"alphas": (1.0,)})] and session.stopped
    assert (results_dir / "tableX.txt").read_text() == "the table\n"
    assert capsys.readouterr().out.startswith("the table\nsaved: ")


def test_run_stops_session_when_table_raises(results_dir, monkeypatch):
    session = FakeSession()
    monkeypatch.setattr(_common, "build_spark", lambda app: session)

    def table(spark, cfg):
        raise RuntimeError("table")

    with pytest.raises(RuntimeError, match="table"):
        _common.run("tableX", table, "cfg")
    assert session.stopped and not list(results_dir.iterdir())


def test_run_gives_table4_no_session(results_dir, monkeypatch):
    def no_spark(app):
        raise AssertionError("Table 4 plans only")

    seen = []

    def table4(spark, cfg):
        seen.append(spark)
        return [], "t4"

    monkeypatch.setattr(_common, "build_spark", no_spark)
    monkeypatch.setattr(_common, "table4", table4)
    _common.run("table4", table4, "cfg")
    assert seen == [None]
    assert (results_dir / "table4.txt").read_text() == "t4\n"
