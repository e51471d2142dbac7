#!/usr/bin/env python3
"""Sweep the localization spectrum over the strength and radius parameters.

Writes a long-format CSV (B, R, j, lambda, mc_estimate, mc_sigmas) comparing
the closed-form eigenvalues, the table that ``nbsloc eigvals`` prints, with
Monte-Carlo estimates, handy for plotting eigenvalue decay profiles.

Usage:
    python scripts/eigenvalue_spectrum.py [--j-max 30] [--samples 200000] [--out spectrum.csv]
"""

import argparse
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from nbsloc.locop import landau_eigenvalue, mc_eigenvalue  # noqa: E402
from nbsloc.states import ModelParams  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    parser.add_argument("--j-max", type=int, default=30)
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    if args.j_max < 0:
        parser.error(f"--j-max must be >= 0, got {args.j_max}")

    lines = ["B,R,j,lambda,mc_estimate,mc_sigmas"]
    for B in (0.75, 1.0, 1.5, 2.5):
        for R in (0.3, 0.6, 0.9):
            for j, lam in enumerate(landau_eigenvalue(range(args.j_max + 1), ModelParams(B), R).tolist()):
                est, _ = mc_eigenvalue(j, B, R, args.samples, args.seed + j)
                sigma = math.sqrt(max(lam * (1.0 - lam), 1e-300) / args.samples)
                lines.append(f"{B!r},{R!r},{j},{lam!r},{est!r},{abs(est - lam) / sigma:.3f}")
    text = "\n".join(lines) + "\n"
    if args.out:
        pathlib.Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(lines) - 1} rows)", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
