"""Command-line surface.

Subcommands: eigvals, kernel, leakage, density, mc, verify.  Output goes
to stdout or --out as CSV (parameter header in '#' comment lines) or JSON
(top-level "params" object plus "data" array); identical configurations
produce byte-identical output.  Exit codes: 0 success, 1 verification
failure, 2 usage or domain error.

The argparse tree is built once per process, on the first ``main`` call
(``build_parser`` is memoized); each call parses into a fresh namespace.
JSON documents are filled in from one row template per call and are
exactly ``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import __version__, bergman, locop, verify
from .errors import AccuracyError, ConvergenceError, DomainError
from .states import LocalizationRadius, ModelParams

DEFAULTS = {"B": 1.5, "R": 0.6, "m": 0, "j_max": 20, "tol": 1e-10, "seed": 42}


def _checked(convert, valid, expected: str):
    """argparse type that converts the text and rejects values failing ``valid`` as usage errors."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_complex_arg = _checked(lambda text: complex(text.replace(" ", "")), lambda v: True,
                        "a complex number like 0.5+0.3j")
_finite_arg = _checked(float, math.isfinite, "a finite number")
_count_arg = _checked(int, lambda v: v >= 0, "a nonnegative integer")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbsloc",
        description="Localization-operator numerics over negative binomial states.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        # --B stays a plain float: ModelParams rejects a non-finite B with the
        # "2B > 1" domain message.
        p.add_argument("--B", type=float, default=DEFAULTS["B"], help="strength parameter, 2B > 1")
        p.add_argument("--R", type=_finite_arg, default=DEFAULTS["R"], help="localization radius in (0, 1)")
        p.add_argument("--m", type=int, default=DEFAULTS["m"], help="level index, 0 <= m <= floor(B - 1/2)")
        p.add_argument("--j-max", type=_count_arg, default=DEFAULTS["j_max"], dest="j_max")
        p.add_argument("--tol", type=_finite_arg, default=DEFAULTS["tol"])
        p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
        p.add_argument("--samples", type=int, default=1_000_000)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("eigvals", help="eigenvalue table (j, lambda_j)")
    common(p)

    p = sub.add_parser("kernel", help="transferred kernel at one point pair")
    common(p)
    p.add_argument("--z", type=_complex_arg, required=True)
    p.add_argument("--w", type=_complex_arg, required=True)
    p.add_argument("--s", type=_finite_arg, default=None, help="Beta upper limit; defaults to R^2")

    p = sub.add_parser("leakage", help="photon-counting bound outside the disk")
    common(p)
    p.add_argument("--z", type=_complex_arg, required=True, help="coherence point z0")

    p = sub.add_parser("density", help="eigenvalue densities on a rho grid")
    common(p)

    p = sub.add_parser("mc", help="Monte-Carlo eigenvalue estimates vs the closed form")
    common(p)

    p = sub.add_parser("verify", help="run the full verification suite")
    common(p)
    return parser


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _json_cell(value) -> str:
    """One cell as json.dumps writes it; finite floats (numpy's too) and ints by their repr."""
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)  # str, bool, None, NaN and +-inf


def _render(params: dict, columns: list[str], rows: list[list], fmt: str) -> str:
    """The document: JSON exactly as json.dumps({"params": params, "data": [one dict per row]},
    indent=2, sort_keys=True) plus a newline, or CSV.  Each row holds one cell per column."""
    if fmt == "json":
        # indent=2 would run json's pure-Python encoder over every row; one row template,
        # its keys sorted and encoded once, gives the same bytes.  A repeated column name
        # keeps its last cell, as dict(zip(columns, row)) does.
        index = {name: i for i, name in enumerate(columns)}
        keys = sorted(index)
        picks = [index[key] for key in keys]
        fields = ",\n".join("      " + json.dumps(key).replace("%", "%%") + ": %s" for key in keys)
        template = f"    {{\n{fields}\n    }}" if keys else "    {}"
        cells = tuple(map(_json_cell, [row[i] for row in rows for i in picks]))
        body = ",\n".join([template] * len(rows)) % cells
        data = f"[\n{body}\n  ]" if rows else "[]"
        params_text = json.dumps(params, indent=2, sort_keys=True).replace("\n", "\n  ")
        return f'{{\n  "data": {data},\n  "params": {params_text}\n}}\n'
    out = io.StringIO()
    out.writelines(f"# {key} = {value!r}\n" for key, value in sorted(params.items()))
    writer = csv.writer(out, lineterminator="\n")  # quotes only cells holding , or "
    writer.writerow(columns)
    # numpy scalars subclass float but repr as np.float64(...) under numpy 2
    writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
    return out.getvalue()


def _params_dict(args, extra: dict | None = None) -> dict:
    keys = ("command", "B", "R", "m", "j_max", "tol", "seed")
    return {**{key: getattr(args, key) for key in keys}, **(extra or {})}


def cmd_eigvals(args) -> int:
    rows = locop.SpectralData(args.B, args.R, args.m).table(args.j_max)
    _write(_render(_params_dict(args), ["j", "lambda"], rows, args.format), args.out)
    return 0


def cmd_kernel(args) -> int:
    ModelParams(args.B, args.m)
    radius = LocalizationRadius(args.R)
    s = args.s
    note = ""
    if s is None:
        s = radius.R ** 2
        note = "s defaulted to R^2"
    series = bergman.kernel_series(args.z, args.w, args.B, s)
    closed = bergman.kernel_closed(args.z, args.w, args.B, s)
    limit = bergman.kernel_limit(args.z, args.w, args.B)
    rel = abs(series - closed) / max(abs(series), 1e-300)
    columns = ["series_re", "series_im", "closed_re", "closed_im",
               "rel_discrepancy", "limit_re", "limit_im", "note"]
    rows = [[series.real, series.imag, closed.real, closed.imag,
             float(rel), limit.real, limit.imag, note]]
    extra = {"s": s, "z": repr(args.z), "w": repr(args.w)}
    _write(_render(_params_dict(args, extra), columns, rows, args.format), args.out)
    return 0


def cmd_leakage(args) -> int:
    ModelParams(args.B, args.m)
    radius = LocalizationRadius(args.R)
    tail_tol = min(args.tol, 1e-14)  # --tol can only tighten the bound; the params record the value used
    bound = locop.leakage_bound(args.z, args.B, radius, tail_tol=tail_tol)
    rows = [[float(bound), float(abs(args.z) ** 2)]]
    extra = {"tail_tol": tail_tol, "z": repr(args.z)}
    _write(_render(_params_dict(args, extra), ["bound", "p"], rows, args.format), args.out)
    return 0


def cmd_density(args) -> int:
    params = ModelParams(args.B, args.m)
    # --samples doubles as the rho-grid size here; the Monte-Carlo default
    # of one million is clamped to a plot-friendly grid.
    n_points = args.samples if 2 <= args.samples <= 10_000 else 101
    rho = np.linspace(0.0, 1.0, n_points + 1)[:-1]
    rows = []
    for j, vals in enumerate(locop.landau_density_table(args.j_max, params, rho)):
        rows.extend([j, float(r), float(v)] for r, v in zip(rho, vals))
    extra = {"rho_points": n_points}
    _write(_render(_params_dict(args, extra), ["j", "rho", "density"], rows, args.format), args.out)
    return 0


def cmd_mc(args) -> int:
    params = ModelParams(args.B, args.m)
    radius = LocalizationRadius(args.R)
    exact = locop.SpectralData(args.B, radius).values(args.j_max + 1).tolist()  # the eigvals table
    draws = [locop.mc_eigenvalue(j, params, radius, args.samples, args.seed + j) for j in range(len(exact))]
    rows = [[j, est, se, lam, abs(est - lam)] for j, ((est, se), lam) in enumerate(zip(draws, exact))]
    columns = ["j", "estimate", "std_error", "exact", "abs_error"]
    extra = {"samples": args.samples}
    _write(_render(_params_dict(args, extra), columns, rows, args.format), args.out)
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all()
    columns = ["name", "passed", "max_error", "tolerance", "detail"]
    rows = [[r.name, r.passed, float(r.max_error), float(r.tolerance), r.detail] for r in results]
    _write(_render(_params_dict(args), columns, rows, args.format), args.out)
    failures = [r.name for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} (err {r.max_error:.3e}, tol {r.tolerance:.1e})", file=sys.stderr)
    if failures:
        print(f"verification FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"verification passed: {len(results)} checks", file=sys.stderr)
    return 0


_DISPATCH = {
    "eigvals": cmd_eigvals,
    "kernel": cmd_kernel,
    "leakage": cmd_leakage,
    "density": cmd_density,
    "mc": cmd_mc,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (DomainError, ConvergenceError, AccuracyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
