#!/usr/bin/env python3
"""Benchmark comparison at desk scale: boosted mixture vs adversarial training.

Per seed: train a plain adversarially trained baseline, build the boosted
mixture (best-AUA first-classifier selection, grid-searched weight), then
compare exact expected accuracies under adaptive PGD on held-out test data.
"""

import argparse
import csv
import os
import statistics

from advgame.experiments import bat_vs_at_benchmark


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--candidates", type=int, default=3,
                        help="first-classifier candidates for best-AUA selection")
    parser.add_argument("--out", default="out/bat_benchmark.csv")
    args = parser.parse_args()
    if args.candidates < 1:
        parser.error("--candidates must be >= 1")
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)

    rows = bat_vs_at_benchmark(seeds=tuple(args.seeds),
                               first_candidates=args.candidates)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "at_clean", "at_aua", "mixture_clean",
                         "mixture_aua", "alpha", "improvement"])
        for r in rows:
            writer.writerow([r.seed, r.at_clean, r.at_aua, r.mixture_clean,
                             r.mixture_aua, r.alpha, r.improvement])
            print(f"seed {r.seed}: AT {r.at_clean:.3f}/{r.at_aua:.4f}  "
                  f"mixture {r.mixture_clean:.3f}/{r.mixture_aua:.4f}  "
                  f"alpha={r.alpha}  improvement {r.improvement:+.4f}")
    med = statistics.median(r.improvement for r in rows)
    print(f"median improvement: {med:+.4f}  -> {args.out}")


if __name__ == "__main__":
    main()
