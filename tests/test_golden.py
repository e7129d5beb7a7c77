"""The exact 1-D layer's numbers, pinned in float.hex.

tests/golden/game_1d.json holds every number in the results of the risk,
score, best-response, no-nash and rand-gap reports on configs/game_1d.json,
the locations and masses in its fig1_atoms.csv, weak_duality_grid on
criterion 10's grid, the eight rounds of the norm-penalty dynamics on
two_gaussians_1d (lambda 0.3, epsilon 0.4) and criterion 4's gap sweep.
The test recomputes them and compares each within 1e-12 relative: numpy and
scipy are not pinned, so their last bits may differ between installs.

Run this file as a script to rewrite the golden file. Do that only in a
change that means to move a number; the test itself only reads the file.
"""

import contextlib
import csv
import io
import json
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from advgame import cli
from advgame.distributions import two_gaussians_1d
from advgame.game import GameConfig
from advgame.hypotheses import Threshold
from advgame.theorems import (
    admissible_alpha_interval,
    randomization_gap,
    verify_no_pure_nash,
    weak_duality_grid,
)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "game_1d.json"
CONFIG = ROOT / "configs" / "game_1d.json"
REPORTS = ("risk", "score", "best-response", "no-nash", "rand-gap")
REL_TOL = 1e-12


def _flatten(prefix: str, value, out: dict[str, float]) -> None:
    """Every number under value, keyed by its path; strings, flags and nulls are skipped."""
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}/{k}", v, out)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}/{i}", v, out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[prefix] = float(value)


def compute(out_dir: Path) -> dict[str, float]:
    """Recompute every pinned number; the reports go through cli.main into out_dir."""
    out: dict[str, float] = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for name in REPORTS + ("fig1",):
            assert cli.main([name, "--config", str(CONFIG), "--out", str(out_dir)]) == 0
    for name in REPORTS:
        report = json.loads((out_dir / f"{name.replace('-', '_')}_report.json").read_text())
        _flatten(name, report["results"], out)
    with open(out_dir / "fig1_atoms.csv", newline="") as fh:
        for i, row in enumerate(csv.DictReader(fh)):
            for col in ("location", "mass"):
                out[f"fig1_atoms/{i}/{row['panel']}/{row['label']}/{col}"] = float(row[col])

    spec = two_gaussians_1d()
    duality = weak_duality_grid(spec, GameConfig("mass", 0.3, 0.5), np.linspace(-1.0, 1.0, 11))
    _flatten("criterion10", asdict(duality), out)
    probe = verify_no_pure_nash(spec, GameConfig("norm", 0.3, 0.4), rounds=8)
    _flatten("norm-probe", asdict(probe), out)
    for lam in (0.3, 0.4, 0.45):
        for delta in (None, 0.05, 0.25):
            cfg = GameConfig("mass" if delta is None else "norm", lam, 0.5)
            lo, hi = admissible_alpha_interval(cfg, delta)
            for i in range(1, 6):
                rep = randomization_gap(Threshold(0.0), spec, cfg,
                                        alpha_thm=lo + i * (hi - lo) / 6, delta=delta)
                key = f"criterion4/{cfg.penalty}/lam={lam}/delta={delta}/{i}"
                for field in ("score_h1", "score_mixture", "gap", "score_h1_oracle",
                              "score_mixture_oracle", "gap_oracle"):
                    out[f"{key}/{field}"] = getattr(rep, field)
    return out


def load_golden() -> dict[str, float]:
    return {k: float.fromhex(v) for k, v in json.loads(GOLDEN.read_text()).items()}


def mismatches(golden: dict[str, float], fresh: dict[str, float]) -> list[str]:
    """Every key missing from either side, and every value off by more than REL_TOL."""
    bad = [f"{k}: missing" for k in sorted(golden.keys() - fresh.keys())]
    bad += [f"{k}: not in the golden file" for k in sorted(fresh.keys() - golden.keys())]
    for k in sorted(golden.keys() & fresh.keys()):
        a, b = golden[k], fresh[k]
        if not abs(a - b) <= REL_TOL * max(abs(a), abs(b)):
            bad.append(f"{k}: golden {a!r}, now {b!r}")
    return bad


def test_exact_layer_numbers_match_the_golden_file(tmp_path):
    assert mismatches(load_golden(), compute(tmp_path)) == []


def test_a_value_moved_by_1e_9_is_a_mismatch():
    golden = load_golden()
    assert len(golden) > 400
    moved = dict(golden)
    for k, v in golden.items():
        moved[k] = v + 1e-9
        assert len(mismatches(golden, moved)) == 1, k
        moved[k] = v


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        values = compute(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({k: float.hex(v) for k, v in sorted(values.items())},
                                 indent=1) + "\n")
    print(f"wrote {len(values)} values to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
