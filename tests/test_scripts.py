import csv
import dataclasses
import importlib.util
import os
import sys

import pytest

from advgame.errors import InvalidInput
from advgame.experiments import BatBenchmarkRow, bat_vs_at, satellite_task

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bat_benchmark_creates_missing_out_dir_before_seeds_run(tmp_path, monkeypatch):
    script = load_script("run_bat_benchmark")
    out = tmp_path / "missing" / "bat_benchmark.csv"

    def fake_benchmark(seeds, first_candidates):
        # the output directory exists before any seed's work is done
        assert out.parent.is_dir()
        return [BatBenchmarkRow(s, 0.9, 0.5, 0.9, 0.55, 0.1, (0.9, 0.1)) for s in seeds]

    monkeypatch.setattr(script, "bat_vs_at_benchmark", fake_benchmark)
    monkeypatch.setattr(sys, "argv", ["run_bat_benchmark.py", "--seeds", "3", "7",
                                      "--out", str(out)])
    script.main()
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "seed"
    assert [r[0] for r in rows[1:]] == ["3", "7"]


def test_bat_benchmark_rejects_zero_candidates(monkeypatch, capsys):
    script = load_script("run_bat_benchmark")
    monkeypatch.setattr(script, "bat_vs_at_benchmark", None)  # must not be reached
    monkeypatch.setattr(sys, "argv", ["run_bat_benchmark.py", "--candidates", "0"])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code == 2
    assert "--candidates" in capsys.readouterr().err


def test_bat_vs_at_rejects_zero_candidates():
    with pytest.raises(InvalidInput, match="first_candidates"):
        bat_vs_at(satellite_task(), 0, first_candidates=0)


def test_theorem_checks_pass_and_exit_0(tmp_path, monkeypatch, capsys):
    script = load_script("run_theorem_checks")
    monkeypatch.setattr(sys, "argv", ["run_theorem_checks.py", "--out", str(tmp_path)])
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert not [line for line in lines if "FAIL" in line]
    assert "strict: True" in next(line for line in lines if line.startswith("weak duality"))


def test_theorem_checks_exit_1_when_a_check_fails(tmp_path, monkeypatch, capsys):
    script = load_script("run_theorem_checks")
    real = script.randomization_gap
    monkeypatch.setattr(script, "randomization_gap",
                        lambda *a, **k: dataclasses.replace(real(*a, **k), passed=False))
    monkeypatch.setattr(sys, "argv", ["run_theorem_checks.py", "--out", str(tmp_path)])
    assert script.main() == 1
    assert "FAIL" in capsys.readouterr().out
