#!/usr/bin/env python3
"""Sweep the blend weight and compare measured contraction against the bound.

For each (m, alpha) on a grid, iterate the blended operator from seeded
random interior starts, measure the worst per-s-block sup-norm contraction
factor of the pairwise coordinate differences, and tabulate it against the
closed-form bound 1 - alpha + alpha^s.  Writes a CSV next to this script
unless --out is given.

Run from the repository root:  python3 scripts/contraction_sweep.py
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from qsodyn import parse_cycles  # noqa: E402
from qsodyn.analysis import contraction_report, sample_interior  # noqa: E402
from qsodyn.simplex import SimplexPoint  # noqa: E402

GRID_M = {3: "(1 2)", 5: "(1 2 3)", 6: "(1 2)(3 4 5)"}
GRID_ALPHA = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.95)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--starts", type=int, default=10)
    ap.add_argument("--blocks", type=int, default=64)
    ap.add_argument("--out", default=str(pathlib.Path(__file__).parent / "contraction_sweep.csv"))
    args = ap.parse_args()

    rows = ["m,alpha,s,bound,worst_factor,worst_single_pair_factor,margin"]
    for m, perm_text in GRID_M.items():
        perm = parse_cycles(perm_text, m - 1)
        rng = np.random.default_rng(args.seed + m)
        starts = sample_interior(rng, m, args.starts)
        for alpha in GRID_ALPHA:
            reps = [contraction_report(m, perm, alpha, SimplexPoint(tuple(row.tolist())),
                                       blocks=args.blocks) for row in starts]
            # the first factor, replaced by each later one that is greater
            worst = max((r.worst_factor for r in reps if r.worst_factor is not None),
                        default=None)
            worst_pair = max((r.worst_single_pair_factor for r in reps
                              if r.worst_single_pair_factor is not None), default=None)
            bound = reps[0].bound
            margin = bound - worst if worst is not None else float("nan")
            rows.append(f"{m},{alpha},{perm.order},{bound:.17g},{worst:.17g},"
                        f"{worst_pair:.17g},{margin:.17g}")
            print(rows[-1])
    pathlib.Path(args.out).write_text("\n".join(rows) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
