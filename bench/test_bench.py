"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py

The answer, cache and driver tests start fresh interpreters and sweep
4x12, so the file takes about half a minute.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec() -> dict:
    return json.loads(run.SPEC.read_text())


def _expected() -> dict:
    return json.loads(run.EXPECTED.read_text())


def test_metric_names_are_well_formed_and_match_the_driver():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [m["name"] for m in spec["per_layer"]] == list(run.LAYER_MAP)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for moves, workloads in run.LAYER_MAP.values():
        assert set(moves) <= end_to_end
        assert set(workloads) <= set(run.WORKLOADS)


def test_queries_are_deterministic_for_a_seed():
    for workload in run.WORKLOADS:
        assert run.queries(workload, 7) == run.queries(workload, 7)
        assert sorted(run.queries(workload, 7)) == sorted(run.queries(workload, 8))
    assert run.queries("exact-algebra", 7) != run.queries("exact-algebra", 8)
    assert run.queries("oracle-sweep", 7) == run.queries("oracle-sweep", 8)


def test_every_query_has_a_recorded_answer():
    keys = {" ".join(q) for w in run.WORKLOADS for q in run.queries(w, 0)}
    assert keys == set(_expected())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_answers_match_at_head(workload):
    result = run.spawn({"kind": "queries", "queries": run.queries(workload, 0)})
    assert run.check_answers(result["answers"], _expected()) == []


def test_wrong_answers_and_exit_codes_are_failures():
    argv = ["gf", "--mode", "canonical", "--m", "4"]
    want = _expected()[" ".join(argv)]
    good = {"argv": argv, "exit": 0, "problem": None, **want}
    assert run.check_answers([good], _expected()) == []
    for bad in ({"sha256": "0" * 64}, {"bytes": want["bytes"] + 1}, {"exit": 2}, {"problem": "x"}):
        assert len(run.check_answers([{**good, **bad}], _expected())) == 1


def test_each_pass_starts_cold():
    """A second process sweeps 4x12 again; only a reused process would hit the cache."""
    job = {"kind": "probe", "group": "oracle-sweep", "traced": True, "queries": [["count", "--n", "12"]]}
    first, second = run.spawn(job), run.spawn(job)
    (cold1,) = run._durations(first["spans"], "oracle.sweep", "4x12")
    (cold2,) = run._durations(second["spans"], "oracle.sweep", "4x12")
    assert 1 / 3 < cold2 / cold1 < 3
    # within one process the count after the sweep is served from the cache
    (warm,) = run._durations(second["spans"], "oracle.count_report", "4x12")
    assert warm < cold2 / 3


def test_untraced_probe_records_nothing():
    job = {"kind": "probe", "group": "exact-algebra", "queries": [["gf", "--mode", "canonical", "--m", "4"]]}
    traced = run.spawn({**job, "traced": True})
    untraced = run.spawn({**job, "traced": False})
    assert traced["spans"] and traced["counters"]
    assert untraced["spans"] == [] and untraced["counters"] == {}


def _drive(cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-algebra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_driver_prints_every_end_to_end_metric():
    proc = _drive(run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _drive(tmp_path)
    assert proc.returncode != 0
    assert "src/gridcuts is missing" in proc.stderr
    assert '"correct"' not in proc.stdout
