"""Smoke test of the benchmark itself: every workload at a tiny size, through
the same entry point the full runs use, one process per workload.

    python3 -m pytest -q bench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from env import ROOT, load_netquery

load_netquery()

import child  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace, section):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", trace, "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    record = json.loads(record_line)["record"]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    # Tiny networks have no pinned digest, so the oracle was evaluated.
    assert record["oracle_digest"] == "computed"
    assert (record["seed"], record["port_seed"], record["order_seed"]) == (3, 3, 3)
    assert set(record["host"]) == {"python", "nproc", "loadavg", "git_commit"}
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    if trace == "1":
        # Module self times account for nearly all of the traced call.
        assert result["metrics"]["trace.coverage"]["value"] > 0.8


def test_gate_counts_wrong_answers_errors_and_drifting_metrics():
    gate = run.Gate()
    ok = {"digest": "d", "sim": [1, 1, 1, 1, 1]}
    assert gate.check(ok, "d")
    assert not gate.check(ok, "other")
    assert not gate.check({"error": "EngineError: no"}, "d")
    assert not gate.check({"digest": "d", "sim": [2, 1, 1, 1, 1]}, "d")
    assert gate.attempted == 4 and len(gate.failures) == 3


def test_failed_operation_exits_nonzero(monkeypatch, capsys):
    def wrong_answer(args, mode, timeout):
        call = {"digest": "wrong", "sim": [1, 1, 1, 1, 1], "seconds": 0.1}
        return {"expected": "right", "setup_s": [0.1], "calls": [call]}

    monkeypatch.setattr(run, "spawn", wrong_answer)
    code = run.main(["--workload", "netlog-sg", "--seed", "0", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"] == 1


def test_crashed_child_is_a_failed_call():
    args = run.parse_args(["--workload", "fp-tc-path", "--seed", "0",
                           "--seconds", "0", "--size", "tiny"], sorted(WORKLOADS))
    args.workload = "no-such-workload"  # the child fails; the parent carries on
    out = run.spawn(args, "timed", 60)
    assert list(out) == ["calls"] and "error" in out["calls"][0]


def test_every_full_size_network_has_a_pinned_oracle_digest():
    pins = json.loads(child.PINS.read_text())
    for w in WORKLOADS.values():
        prepared = w.setup(w.sizes["full"], 0, Spans())
        assert f"{w.name}/{prepared.graph}" in pins


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "netlog-sg", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
