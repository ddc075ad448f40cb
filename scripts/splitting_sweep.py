#!/usr/bin/env python3
"""Sweep the frequency-splitting cutoff N and fit the decay rates of the
Duhamel remainder and of the low-frequency energy increment."""

import argparse
import math

import numpy as np

from bbm5 import REFERENCE_COEFFICIENTS, RhsSpec, StepperConfig
from bbm5.spectral import Grid
from bbm5.splitting import n_sweep, write_sweep_csv
from bbm5.symbols import random_hs_field


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1024)
    ap.add_argument("--length", type=float, default=2.0 * math.pi)
    ap.add_argument("--s", type=float, default=1.5)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--amplitude", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--cutoffs", type=float, nargs="+", default=[8, 16, 32, 64])
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args()

    grid = Grid(n=args.n, length=args.length)
    rng = np.random.default_rng(args.seed)
    eta0 = random_hs_field(grid, args.s, rng, args.amplitude)
    sweep = n_sweep(
        eta0,
        args.s,
        tuple(args.cutoffs),
        spec=RhsSpec(REFERENCE_COEFFICIENTS),
        stepper=StepperConfig(dt=args.dt),
    )
    for row in sweep["rows"]:
        print(
            f"N={row['N']:6g}  t0={row['t0']:.4e}  ||h||_H2={row['h_H2']:.4e}  "
            f"dE={row['E_u1_minus_E_ut0']:+.4e}"
        )
    if "h_slope" in sweep:  # n_sweep fits slopes from three cutoffs up
        print(f"h slope: {sweep['h_slope']['slope']:.3f} "
              f"(+- {sweep['h_slope']['ci95']:.3f})")
        print(f"energy increment slope: {sweep['energy_increment_slope']['slope']:.3f} "
              f"(+- {sweep['energy_increment_slope']['ci95']:.3f})")
    if args.out:
        write_sweep_csv(sweep, args.out)


if __name__ == "__main__":
    main()
