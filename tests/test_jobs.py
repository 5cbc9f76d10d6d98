"""Smoke tests of ``jobs/run.py``: every subcommand builds the right table
call, and :func:`jobs.run.run` prints what the table returns and saves only
the results files the job owns. No test starts Spark or writes to
``results/``."""
from dataclasses import fields

import pytest

from benchmarks import bench_config
from jobs import run as job
from repro.experiments import report, tables
from repro.experiments.tables import ExperimentConfig
from repro.streams.stock import StreamConfig
from repro.workloads.generator import CATEGORIES


def expected(n_symbols=20, **fields_):
    """The config every job shares: seed 0, 3 patterns per size, DP-B up to
    n = 16, and a stream of 3600 s, W = 60 s, seed 7."""
    stream = StreamConfig(n_symbols=n_symbols, duration=3600.0, window=60.0, seed=7)
    return ExperimentConfig(stream=stream, per_size=3, seed=0, dp_b_max_n=16, **fields_)


# Each job, by its former script name: its command line (as in the
# README), its table, the config and the sweep arguments it builds.
JOBS = {
    "table1_throughput_memory": (
        ["table1", "--sizes", "3", "4", "5"], tables.table1, expected(sizes=(3, 4, 5)), {},
    ),
    "table2_by_size": (
        ["table2", "--sizes", "3", "4", "5", "6", "7"], tables.table2,
        expected(sizes=(3, 4, 5, 6, 7), categories=CATEGORIES), {},
    ),
    "table3_cost_validation": (
        ["table3"], tables.table3, expected(categories=("sequence", "conjunction")), {},
    ),
    "table4_large_plans": (
        ["table4", "--sizes", "3", "6", "9", "12", "16", "20", "22"], tables.table4,
        expected(24, sizes=(3, 6, 9, 12, 16, 20, 22), algorithms=tables.FIG17_ALGS), {},
    ),
    "table5_latency": (
        ["table5", "--alphas", "0", "0.5", "1"], tables.table5,
        expected(categories=("sequence",), algorithms=tables.JQPG_ALGS),
        {"alphas": (0.0, 0.5, 1.0)},
    ),
    "table6_selection_strategies": (
        ["table6"], tables.table6, expected(categories=("sequence",)),
        {"strategies": ("any", "next", "contiguity")},
    ),
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_job_runs_its_table(name):
    argv, want_table, want, want_kwargs = JOBS[name]
    table_name, table, cfg, kwargs = job.parse(argv)
    assert table_name == name.split("_")[0]
    assert table is want_table
    assert cfg.seed == 0 and cfg.per_size == 3 and cfg.dp_b_max_n == 16
    assert (cfg.stream.duration, cfg.stream.window, cfg.stream.seed) == (3600.0, 60.0, 7)
    if name == "table4_large_plans":
        assert kwargs == {} and cfg.sizes == (3, 6, 9, 12, 16, 20, 22)
        assert cfg.stream.n_symbols >= 22 + 2
    else:
        assert cfg.stream.n_symbols == 20
    for f in fields(ExperimentConfig):
        assert getattr(cfg, f.name) == getattr(want, f.name), f.name
    assert kwargs == want_kwargs


def config(*argv):
    return job.parse(list(argv))[2]


def test_table4_job_keeps_stream_flags():
    stream = config(
        "table4", "--sizes", "3", "9", "--n-symbols", "30", "--duration", "600", "--window", "30",
    ).stream
    assert (stream.n_symbols, stream.duration, stream.window) == (30, 600.0, 30.0)
    assert config("table4", "--sizes", "3", "9").stream.n_symbols == 20


def test_table4_job_sizes_reach_the_table():
    _, _, cfg, kwargs = job.parse(["table4", "--sizes", "3", "9"])
    assert cfg.sizes == (3, 9) and kwargs == {}
    assert cfg.algorithms == tables.FIG17_ALGS
    cfg = config("table4")
    assert cfg.sizes == (3, 6, 9, 12, 14, 16, 18, 20, 22) and cfg.stream.n_symbols == 24


def test_job_configs():
    assert config("table1").sizes == (3, 4, 5)
    cfg = config("table2", "--sizes", "3", "4", "5", "6", "7")
    assert cfg.sizes == (3, 4, 5, 6, 7) and cfg.categories == CATEGORIES
    assert config("table2", "--categories", "kleene").categories == ("kleene",)
    assert config("table3").categories == ("sequence", "conjunction")
    _, _, cfg, kwargs = job.parse(["table5"])
    assert cfg.categories == ("sequence",) and kwargs == {"alphas": (0.0, 0.5, 1.0)}
    assert cfg.algorithms == tables.JQPG_ALGS
    _, _, cfg, kwargs = job.parse(["table6"])
    assert cfg.categories == ("sequence",)
    assert kwargs == {"strategies": ("any", "next", "contiguity")}
    # One symbol rule for every table: the largest size + 2, at least.
    for name in job.JOBS:
        assert config(name, "--sizes", "3", "30").stream.n_symbols == 32


def test_sweep_flags_belong_to_their_own_table(capsys):
    for name, flag in [("table1", "--alphas"), ("table5", "--strategies"), ("table6", "--categories")]:
        with pytest.raises(SystemExit):
            job.parse([name, flag, "1"])
    assert "unrecognized arguments" in capsys.readouterr().err


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
    monkeypatch.setattr(job, "build_spark", lambda app: session)
    seen = []

    def table(spark, cfg, **kwargs):
        seen.append((spark, cfg, kwargs))
        return [], "the table"

    job.run("table4", table, "cfg", alphas=(1.0,))
    assert seen == [(session, "cfg", {"alphas": (1.0,)})] and session.stopped
    assert (results_dir / "table4.txt").read_text() == "the table\n"
    assert capsys.readouterr().out.startswith("the table\nsaved: ")


def test_run_stops_session_when_table_raises(results_dir, monkeypatch):
    session = FakeSession()
    monkeypatch.setattr(job, "build_spark", lambda app: session)

    def table(spark, cfg):
        raise RuntimeError("table")

    with pytest.raises(RuntimeError, match="table"):
        job.run("table4", table, "cfg")
    assert session.stopped and not list(results_dir.iterdir())


def test_run_gives_table4_no_session(results_dir, monkeypatch):
    def no_spark(app):
        raise AssertionError("Table 4 plans only")

    seen = []

    def table4(spark, cfg):
        seen.append(spark)
        return [], "t4"

    monkeypatch.setattr(job, "build_spark", no_spark)
    monkeypatch.setattr(job, "table4", table4)
    job.run("table4", table4, "cfg")
    assert seen == [None]
    assert (results_dir / "table4.txt").read_text() == "t4\n"


class FakeBenchmark:
    def pedantic(self, table, args, kwargs, rounds, iterations):
        return table(*args, **kwargs)


def test_each_results_file_has_one_writer(tmp_path, monkeypatch, capsys):
    """The job writes Table 4's file and nothing else; ``bench_table``
    writes every other table's file and not Table 4's."""
    monkeypatch.setattr(job, "build_spark", lambda app: FakeSession())
    written = {}
    for runner in ("job", "bench"):
        out = tmp_path / runner
        monkeypatch.setattr(report, "RESULTS_DIR", str(out))
        for name in job.JOBS:
            def table(spark, cfg, name=name):
                return [], f"{runner} {name}"

            table.__name__ = name
            if runner == "job":
                job.run(name, table, "cfg")
            else:
                bench_config.bench_table(FakeBenchmark(), name, table, None, "cfg")
            assert f"{runner} {name}\n" in capsys.readouterr().out
        written[runner] = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert report.JOB_TABLES == {"table4"}
    assert written["job"] == ["table4.txt"]
    assert written["bench"] == [f"{n}.txt" for n in sorted(job.JOBS) if n != "table4"]
