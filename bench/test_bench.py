"""Smoke tests of the benchmark: every workload at tiny size, in both modes.

They run the command of BENCHMARK.json as the benchmark harness would and
check the result line, the output checks and the exact repetition of the
per-layer counts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ["--seed", "1", "--seconds", "0.05"]
COUNTS = ("channel.attempts_per_sample",
          "decoder.joint_kernel_calls_per_decode",
          "decoder.recover_error_calls_per_decode", "linpoly.calls_per_decode",
          "decoder.outcome_decoded", "decoder.outcome_failure",
          "decoder.outcome_miscorrection")


def bench(cwd, *args):
    return subprocess.run(SPEC["command"] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--trace", str(trace), *SMOKE)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert any(line.startswith("provenance: ") for line in lines)
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke(workload):
    plain, lines = result(workload, 0)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["attempted"] >= 1
    assert plain["failed"] == 0
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    if not workload.startswith("codec"):
        assert "pinned_blocks_checked: 1" in lines

    traced, _ = result(workload, 1)
    assert traced["correct"]
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["decoder.decode_us"] > 0
    assert metrics["trace.overhead"] > 0
    # root spans cover the traced loop, so the layer self shares sum to it
    assert 0 <= metrics["trace.unattributed_share"] < 0.05

    again, _ = result(workload, 1)
    assert {k: again["metrics"][k]["value"] for k in COUNTS} == {
        k: metrics[k] for k in COUNTS}


def test_fails_without_the_program():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, "--workload", SPEC["workloads"][0]["name"], *SMOKE)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
