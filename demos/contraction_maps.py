#!/usr/bin/env python3
"""Measured per-step contraction of gd and eg vs the closed-form ceilings.

For a random certified operator (mu, L fixed by construction) we sample point
pairs and record the worst one-step ratio ||G(z) - G(z')|| / ||z - z'|| across
a step-size grid. gd is contractive on the open interval (0, 2 mu / L^2) for
any mu > 0; the eg ceiling only dips below 1 when mu > L / 2, so we show one
operator on each side of that threshold.
"""

import argparse
import os

import numpy as np

from vilab import (
    admissible_eta,
    contraction_bound,
    contraction_ratio,
    generate_operator,
)
from vilab.cli import write_csv

PAIRS = 2000
DIM = 8
SEED = 0


def worst_ratio(op, method, eta, rng):
    z = rng.normal(size=(PAIRS, DIM))
    w = rng.normal(size=(PAIRS, DIM))
    return float(np.max(contraction_ratio(op, z, w, eta, method)))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default=os.path.join(os.path.dirname(__file__), "out"))
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    rng = np.random.default_rng(SEED)
    rows = []

    print("gd on (mu, L) = (0.6, 1.8): ceiling sqrt(1 - 2 eta mu + eta^2 L^2)")
    op = generate_operator(SEED, DIM, 0.6, 1.8)
    lo, hi = admissible_eta(0.6, 1.8, "gd")
    for frac in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95):
        eta = lo + frac * (hi - lo)
        bound = contraction_bound("gd", 0.6, 1.8, eta)
        measured = worst_ratio(op, "gd", eta, rng)
        rows.append((eta, "gd", measured, bound))
        print(f"  eta={eta:.4f}  measured {measured:.6f}  <=  bound {bound:.6f}")

    for mu in (0.45, 0.8):
        op = generate_operator(SEED + 1, DIM, mu, 1.0)
        adm = admissible_eta(mu, 1.0, "eg")
        status = f"{adm.size} admissible step sizes" if adm.size else "no admissible step size"
        print(f"eg on (mu, L) = ({mu}, 1.0): {status} (needs mu > L/2)")
        grid = adm[:: max(1, adm.size // 6)] if adm.size else np.linspace(0.1, 0.9, 5)
        for eta in grid:
            bound = contraction_bound("eg", mu, 1.0, float(eta))
            measured = worst_ratio(op, "eg", float(eta), rng)
            gated = bound < 1.0
            rows.append((float(eta), "eg", measured, bound))
            mark = "<=" if gated else "  (ceiling >= 1, informational)"
            print(f"  eta={float(eta):.4f}  measured {measured:.6f}  {mark}  bound {bound:.6f}")

    path = os.path.join(args.out_dir, "contraction_maps.csv")
    write_csv(path, ["eta", "method", "measured_max_ratio", "bound"], rows)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
