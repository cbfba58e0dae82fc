"""The benchmark's checks can fail, and its output follows its contract.

Each workload runs at the tiny size (a few dozen vehicles, at least one
whole round).  A clean run counts no failure; a run with an injected
fault -- a dropped row, a perturbed float, a swapped licence, a row lost
after ATTACH -- counts it as a failed operation; a run in which every
timed operation raises still ends and reports them all as failed.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

from perfbench.harness import RunConfig
from perfbench.layers import PER_LAYER
from perfbench.measure import END_TO_END
from perfbench.run import ROOT_DIR, WORKLOADS, execute

BENCH = json.load(open(os.path.join(ROOT_DIR, "BENCHMARK.json")))


def tiny_run(tmp_path, workload, fault=None, trace=False, seconds=0.0):
    cfg = RunConfig(workload=workload, seed=7, seconds=seconds, trace=trace,
                    size="tiny", fault=fault,
                    workdir=str(tmp_path / "work"),
                    outdir=str(tmp_path / "out"))
    os.makedirs(cfg.workdir, exist_ok=True)
    return execute(cfg)["result"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_run_has_no_failures_and_every_metric(tmp_path, workload):
    result = tiny_run(tmp_path, workload)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload, fault", [
    ("fig12-grid", "drop_row"),
    ("fig12-grid", "perturb_float"),
    ("fig12-grid", "swap_licence"),
    ("trip-lookups", "drop_row"),
    ("trip-lookups", "perturb_float"),
    ("trip-lookups", "swap_licence"),
    ("gps-ingest", "lose_row_after_attach"),
])
def test_injected_fault_is_a_failed_operation(tmp_path, workload, fault):
    result = tiny_run(tmp_path, workload, fault=fault)
    assert result["failed"] >= 1
    assert result["correct"] is False


def _timed_statement(workload):
    """Whether a statement is one of the workload's timed operations
    (set-up statements must still run)."""
    if workload == "fig12-grid":
        from repro.berlinmod import QUERIES
        timed = {query.sql for query in QUERIES}
        return lambda sql: sql in timed
    if workload == "trip-lookups":
        return lambda sql: sql.lstrip().upper().startswith("SELECT")
    return lambda sql: True  # gps-ingest runs no SQL in its set-up


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_ends_when_every_operation_raises(tmp_path, monkeypatch,
                                              workload):
    from repro.quack.database import Connection

    timed = _timed_statement(workload)
    real_execute = Connection.execute

    def execute(self, sql):
        if timed(sql):
            raise RuntimeError("injected failure")
        return real_execute(self, sql)

    def give_up(signum, frame):
        raise AssertionError("the run did not end")

    monkeypatch.setattr(Connection, "execute", execute)
    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(120)
    try:
        result = tiny_run(tmp_path, workload, seconds=0.2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert result["metrics"] == {}


def test_traced_run_reports_every_layer_metric(tmp_path):
    result = tiny_run(tmp_path, "fig12-grid", trace=True)
    assert result["failed"] == 0
    names = [m["name"] for m in BENCH["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert result["metrics"]["core.payload_ms"]["value"] > 0
    assert result["metrics"]["quack.sql.parse_ms"]["value"] > 0
    assert os.listdir(tmp_path / "out")  # the spans were written


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCH["end_to_end"]] == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCH["per_layer"]] == [tuple(m) for m in PER_LAYER]
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT_DIR, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT_DIR, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig12-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
