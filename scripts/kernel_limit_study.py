#!/usr/bin/env python3
"""Track the transferred kernel's approach to the reproducing kernel.

For each strength B, evaluates the closed-form kernel at a fixed point pair
over a ladder of Beta upper limits s -> 1 and records the relative distance
to the limit kernel, together with the series/closed-form discrepancy at
each rung (a live cross-check of the Appell transformation chain).

Usage:
    python scripts/kernel_limit_study.py [--zw 0.3] [--out limit.csv]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from nbsloc.bergman import kernel_closed, kernel_limit, kernel_series  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    parser.add_argument("--zw", type=float, default=0.3,
                        help="value of conj(z) w (realized as z = sqrt(zw), w = sqrt(zw))")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    z = w = args.zw ** 0.5
    lines = ["B,s,rel_gap_to_limit,series_closed_discrepancy"]
    for B in (0.75, 1.0, 1.5, 2.5):
        lim = kernel_limit(z, w, B)
        for s in (0.5, 0.75, 0.9, 0.99, 0.999):
            closed = kernel_closed(z, w, B, s)
            series = kernel_series(z, w, B, s)
            gap = abs(closed - lim) / abs(lim)
            disc = abs(closed - series) / abs(series)
            lines.append(f"{B!r},{s!r},{gap:.6e},{disc:.3e}")
    text = "\n".join(lines) + "\n"
    if args.out:
        pathlib.Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
