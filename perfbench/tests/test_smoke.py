"""Short runs of every workload through the command in BENCHMARK.json."""

import json
import os
import shutil
import subprocess

import pytest

from conftest import BENCH

ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(workload, seed=1, seconds=1, trace=0, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_reports_every_end_to_end_metric(workload):
    p = run(workload)
    assert p.returncode == 0, p.stderr
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, p.stdout
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())
    # br-dynamics holds one known-fault probe per round of 11 ops
    expect_failed = out["attempted"] // 11 if workload == "br-dynamics" else 0
    assert out["failed"] == expect_failed


def test_traced_counts_repeat_and_cover_every_per_layer_metric():
    outs = []
    for _ in range(2):
        p = run("br-dynamics", seed=4, trace=1)
        assert p.returncode == 0, p.stderr
        outs.append(json.loads(p.stdout.strip().splitlines()[-1])["metrics"])
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in outs[0].items()} == want
    counts = [k for k, u in want.items() if u == "count"]
    assert [outs[0][k]["value"] for k in counts] == [outs[1][k]["value"] for k in counts]
    assert outs[0]["distributions.interval_mass.calls"]["value"] > 0
    assert outs[0]["game.oracle_value_profiles.calls"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = run("gap-oracle", cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_unknown_workload_is_refused():
    p = run("no-such-workload")
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
