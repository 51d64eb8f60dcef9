#!/usr/bin/env python3
"""Monte-Carlo check of the Bernstein (variance) condition on quadratic games.

For g(z, zeta) = <Xi(z, zeta), z - w*(z)> the second moment should be bounded
by B times the first moment with B = (L D + K (1 + sum_i L_i / mu_i))^2, the
self-bounding property that upgrades 1/sqrt(n) rates to 1/n for the weak gap.
We estimate both sides over fresh noise at sampled points (row 0 is the exact
solution, where both sides vanish) and report the worst observed ratio.
"""

import argparse
import os

from vilab import NoiseModel, bernstein_check, generate_game
from vilab.cli import write_csv

Z_SAMPLES = 80
MC_SAMPLES = 20_000
GAMES = 4


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default=os.path.join(os.path.dirname(__file__), "out"))
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    rows = []
    for seed in range(GAMES):
        game = generate_game(100 + seed, 3, 2, 0.5, 0.4)
        res = bernstein_check(game, NoiseModel("offset", 0.3),
                              z_samples=Z_SAMPLES, mc_samples=MC_SAMPLES, seed=seed)
        ratios = [r["lhs"] / r["rhs"] for r in res.rows if r["rhs"] > 0.0]
        print(f"game seed {100 + seed}: B = {res.B:.1f}, "
              f"{res.violations} violations over {len(res.rows)} points, "
              f"worst lhs/rhs = {max(ratios):.4f}")
        for r in res.rows:
            rows.append((100 + seed, r["index"], r["lhs"], r["rhs"], res.B))

    path = os.path.join(args.out_dir, "bernstein_condition.csv")
    write_csv(path, ["game_seed", "sample_index", "lhs", "rhs", "B"], rows)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
