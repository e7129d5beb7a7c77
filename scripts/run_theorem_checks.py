#!/usr/bin/env python3
"""Run the exact-layer theorem checks on the 1-D Gaussian game and print a summary.

Covers the best-response dynamics (no pure equilibrium), the randomization
gap for both penalties over a sweep of admissible weights, and the finite-grid
weak-duality check. Writes JSON reports under --out. Exits 1 if any check
fails, else 0.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

import advgame as ag
from advgame.theorems import (
    admissible_alpha_interval,
    randomization_gap,
    verify_no_pure_nash,
    weak_duality_grid,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/theorems")
    parser.add_argument("--lam", type=float, default=0.4)
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    spec = ag.two_gaussians_1d()
    h1 = ag.Threshold(0.0)
    passed = []

    for penalty in ("mass", "norm"):
        cfg = ag.GameConfig(penalty, args.lam, args.epsilon)
        rep = verify_no_pure_nash(spec, cfg, rounds=args.rounds)
        passed.append(rep.passed)
        with open(os.path.join(args.out, f"no_nash_{penalty}.json"), "w") as fh:
            json.dump(asdict(rep), fh, indent=2)
        print(f"no-nash [{penalty}]: {'PASS' if rep.passed else 'FAIL'} "
              f"(min improvement {min(r.improvement for r in rep.rounds):.3e})")

    cfg = ag.GameConfig("mass", args.lam, args.epsilon)
    lo, hi = admissible_alpha_interval(cfg)
    gaps = []
    for alpha in np.linspace(lo, hi, 7)[1:-1]:
        rep = randomization_gap(h1, spec, cfg, alpha_thm=float(alpha))
        gaps.append(asdict(rep))
        passed.append(rep.passed)
        print(f"rand-gap [mass] alpha={alpha:.3f}: gap {rep.gap:.5f} "
              f"(oracle {rep.gap_oracle:.5f}) {'PASS' if rep.passed else 'FAIL'}")
    cfg_n = ag.GameConfig("norm", args.lam, args.epsilon)
    for delta in (0.1 * args.epsilon, 0.5 * args.epsilon):
        lo, hi = admissible_alpha_interval(cfg_n, delta)
        alpha = float(0.5 * (lo + hi))
        rep = randomization_gap(h1, spec, cfg_n, alpha_thm=alpha, delta=delta)
        gaps.append(asdict(rep))
        passed.append(rep.passed)
        print(f"rand-gap [norm] delta={delta:.3f} alpha={alpha:.3f}: "
              f"gap {rep.gap:.5f} {'PASS' if rep.passed else 'FAIL'}")
    with open(os.path.join(args.out, "rand_gaps.json"), "w") as fh:
        json.dump(gaps, fh, indent=2)

    duality = weak_duality_grid(spec, ag.GameConfig("mass", args.lam, args.epsilon),
                                np.linspace(-1, 1, 11))
    passed.append(duality.sup_inf <= duality.inf_sup)
    print(f"weak duality: sup-inf {duality.sup_inf:.6f} <= "
          f"inf-sup {duality.inf_sup:.6f} (strict: {duality.strict}) "
          f"{'PASS' if passed[-1] else 'FAIL'}")
    with open(os.path.join(args.out, "duality.json"), "w") as fh:
        json.dump(asdict(duality), fh, indent=2)
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
