"""The benchmark's own tests (smoke-sized; about two minutes on 2 CPUs).

    PYTHONPATH=src python3 -m pytest perfbench/selftest.py -q

The smoke runs shrink each workload (one engine pair, one sample per fleet
scenario, one seed per served task) by patching ``run``'s constants; the
checks they exercise are the full ones.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402


@pytest.fixture
def smoke(monkeypatch):
    monkeypatch.setattr(run, "MIN_PAIRS", 1)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "SERVE_SETUP_REPS", 1)
    monkeypatch.setattr(run, "SEEDS_PER_TASK", 1)
    # Smoke-sized tables differ from the recorded full-size ones.
    monkeypatch.setattr(checks, "load_digests", lambda: {})
    monkeypatch.setattr(run, "CLI_WORKLOADS", {
        "fig7-cold": ["fig7"],
        "fleet-grid": ["fleet", "--samples", "1"],
        "fleet-corpus": ["fleet", "--corpus", "--samples", "1"],
    })


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(
        smoke, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "0", "--trace", str(trace)])
    result = _last_json(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(want)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == want[name]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = manifest["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == want


def _table(value: float) -> bytes:
    return json.dumps({"schema": [["x", "float"]], "meta": {"study": "t"},
                       "rows": [[value]]}, indent=2).encode()


def _op(engine, pair, data):
    return {"engine": engine, "pair": pair, "exit": 0,
            "digest": checks.digest(data),
            "workers": checks.table_workers(data)}


def test_a_table_with_one_flipped_byte_is_a_failure():
    good = _table(1.5)
    flipped = bytearray(good)
    flipped[-3] ^= 0x01
    flipped = bytes(flipped)
    assert flipped != good
    same = [_op(checks.REF, 0, good), _op(checks.FAST, 0, good)]
    assert checks.check_cli_ops(same, "w", 0, {})[0] == 0
    # fast != reference within a pair
    bad = [_op(checks.REF, 0, good), _op(checks.FAST, 0, flipped)]
    failed, notes = checks.check_cli_ops(bad, "w", 0, {})
    assert failed == 1 and any("differ" in n for n in notes)
    # both engines flipped: only the recorded digest can tell
    record = {"w": {"0": {e: {"sha256": checks.digest(good), "workers": None}
                          for e in (checks.FAST, checks.REF)}}}
    both = [_op(checks.REF, 0, flipped), _op(checks.FAST, 0, flipped)]
    assert checks.check_cli_ops(both, "w", 0, record)[0] == 2
    # a digest recorded at another worker count is not applied
    other = {"w": {"0": {e: {"sha256": "0" * 16, "workers": "7"}
                         for e in (checks.FAST, checks.REF)}}}
    failed, notes = checks.check_cli_ops(same, "w", 0, other)
    assert failed == 0 and any("no recorded digest" in n for n in notes)


def test_a_failed_run_is_counted_by_the_benchmark(smoke, capsys, monkeypatch):
    real = run.cli_op

    def corrupt(*args, **kwargs):
        op = real(*args, **kwargs)
        if op["engine"] == checks.FAST:
            op["digest"] = checks.digest(op["bytes"] + b" ")
        return op

    monkeypatch.setattr(run, "cli_op", corrupt)
    code = run.main(["--workload", "fig7-cold", "--seed", "3",
                     "--seconds", "0"])
    result = _last_json(capsys)
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1


def test_a_duplicate_served_job_is_checked_against_its_primary():
    a = {"study": "fig8", "profile": {"seed": 1}, "engine": "fast"}
    b = {"study": "table1"}
    results = [
        {"spec": a, "ok": True, "digest": "aa"},
        {"spec": b, "ok": True, "digest": "bb"},
        {"spec": dict(a), "ok": True, "digest": "aa"},
        {"spec": dict(a), "ok": True, "digest": "ab"},
        {"spec": b, "ok": False, "digest": "", "error": "failed"},
    ]
    failed, notes = checks.check_served(results)
    assert failed == {3, 4}
    assert any("primary" in n for n in notes)


def test_every_served_pass_repeats_a_third_of_its_specs():
    jobs = run.serve_jobs(5, 0)
    keys = [checks.group_key(j) for j in jobs]
    assert len(jobs) >= 100
    assert len(jobs) - len(set(keys)) == len(set(keys)) // 2
    assert {j["study"] for j in jobs} == {s[0] for s in run.SERVE_STUDIES}
    assert jobs == run.serve_jobs(5, 0)
    # the seed and pass reach the program as profile seeds; the order is fixed
    for other in (run.serve_jobs(6, 0), run.serve_jobs(5, 1)):
        assert jobs != other
        assert [j["study"] for j in jobs] == [j["study"] for j in other]


def test_paper_err_skips_and_counts_dnf_baselines():
    from repro.experiments import PAPER_FIG7A_SPEEDUPS

    rows = []
    for task in PAPER_FIG7A_SPEEDUPS:
        for regime in ("continuous", "intermittent"):
            for runtime, wall in (("BASE", 30.0), ("SONIC", 40.0),
                                  ("TAILS", 33.0), ("ACE+FLEX", 10.0)):
                done = regime == "continuous" or runtime != "SONIC"
                rows.append([task, regime, runtime, done,
                             wall, wall, wall, 0.0])
    table = json.dumps({"schema": [[c, "x"] for c in (
        "task", "regime", "runtime", "completed", "wall_ms", "active_ms",
        "energy_mj", "checkpoint_mj")], "meta": {}, "rows": rows}).encode()
    err, used, skipped = checks.paper_err(table)
    # 9 speed-ups (7a) + 6 intermittent ones (7b) + 6 savings (7c), less
    # the three 7(b) SONIC ratios whose baseline did not finish.
    assert (used, skipped) == (18, 3)
    assert err > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
