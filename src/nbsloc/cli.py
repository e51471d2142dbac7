"""Command-line surface.

Subcommands: eigvals, kernel, leakage, density, mc, verify.  Output goes
to stdout or --out as CSV (parameter header in '#' comment lines) or JSON
(top-level "params" object plus "data" array); identical configurations
produce byte-identical output.  Exit codes: 0 success, 1 verification
failure, 2 usage or domain error.

The argparse tree is built once per process, on the first ``main`` call
(``build_parser`` is memoized from the COMMANDS table); each call parses
into a fresh namespace.  An argv whose first word names a subcommand is
read straight from that table when the rest is distinct, fully spelled
``--flag value`` or ``--flag=value`` pairs of the command's own flags,
with valid values and every required flag: into the
``Namespace(command=...)`` that the command's parser would build.  Any
other such argv (help, an unknown, abbreviated or repeated flag, a value
that is empty, invalid or starts with '-', a missing required flag) goes
to that subcommand's parser, the one the top-level parser would delegate
it to, so argparse alone writes help, usage errors and their exit codes;
an argv that names no subcommand (``--help``, ``--version``, none, an
unknown command) takes the top-level parse.  A value argparse read from an
explicit '--' (``--B=--``) is refused as a usage error, as ``--B --`` is.
JSON documents are exactly ``json.dumps(doc, indent=2, sort_keys=True)``
plus a newline: one call of json's C encoder writes every key, cell and
params value, the rows fill one row template and params its own object.
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
_grid_arg = _checked(int, lambda v: 2 <= v <= 10_000, "an integer in 2..10000")
_draws_arg = _checked(int, lambda v: v >= 100, "an integer >= 100")

# add_argument specs of the flags several subcommands read (the table is COMMANDS, below).
# --B stays a plain float: ModelParams rejects a non-finite B with the "2B > 1" domain message.
_B = {"type": float, "default": 1.5, "help": "strength parameter, 2B > 1"}
_R = {"type": _finite_arg, "default": 0.6, "help": "localization radius in (0, 1)"}
_M = {"type": int, "default": 0, "help": "level index, 0 <= m < B - 1/2"}
_J_MAX = {"type": _count_arg, "default": 20}
_POINT = {"type": _complex_arg, "required": True,
          "help": "point of the unit disk; a leading minus needs the = form, as in --w=-0.3+0.4j"}
# the flags every subcommand takes after its own
_OUTPUT = {"format": {"choices": ("csv", "json"), "default": "csv"},
           "out": {"default": None, "help": "output path (default stdout)"}}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbsloc",
        description="Localization-operator numerics over negative binomial states.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for dest, spec in {**flags, **_OUTPUT}.items():
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, **spec)
    parser.commands = sub.choices  # each subcommand's parser by name, for main's dispatch
    return parser


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _object(keys: list[str], values: list[str], indent: str) -> str:
    """One JSON object from its encoded keys and values, laid out as indent=2 lays it out at ``indent``."""
    fields = ",\n".join(f"{indent}  {key}: {value}" for key, value in zip(keys, values))
    return f"{{\n{fields}\n{indent}}}" if keys else "{}"


def _render(params: dict, columns: list[str], rows: list[list], fmt: str) -> str:
    """The document: JSON exactly as json.dumps({"params": params, "data": [one dict per row]},
    indent=2, sort_keys=True) plus a newline, or CSV.  Each row holds one cell per column."""
    if fmt == "json":
        # indent=2 would run json's pure-Python encoder over every row and over params.  One call
        # of json's C encoder writes every key and cell as indent=2 does (float.__repr__, NaN, true,
        # null, ASCII-escaped strings, so no newline inside one); the newline separator splits them.
        # A repeated column name keeps its last cell, as dict(zip(columns, row)) does.
        index = {name: i for i, name in enumerate(columns)}
        keys, names = sorted(index), sorted(params)
        k, n, picks = len(keys), len(names), [index[key] for key in keys]
        items = [*keys, *names, *(row[i] for row in rows for i in picks), *(params[name] for name in names)]
        texts = json.JSONEncoder(separators=("\n", ":")).encode(items)[1:-1].split("\n") if items else []
        # every row fills one %-template, its keys sorted and encoded once
        row = "    " + _object([text.replace("%", "%%") for text in texts[:k]], ["%s"] * k, "    ")
        body = ",\n".join([row] * len(rows)) % tuple(texts[k + n:len(texts) - n])
        data = f"[\n{body}\n  ]" if rows else "[]"
        params_text = _object(texts[k:k + n], texts[len(texts) - n:], "  ")
        return f'{{\n  "data": {data},\n  "params": {params_text}\n}}\n'
    out = io.StringIO()
    out.writelines(f"# {key} = {value!r}\n" for key, value in sorted(params.items()))
    writer = csv.writer(out, lineterminator="\n")  # quotes only cells holding , or "
    writer.writerow(columns)
    # numpy scalars subclass float but repr as np.float64(...) under numpy 2
    writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
    return out.getvalue()


def _params_dict(args, extra: dict | None = None) -> dict:
    """The parsed flags, bar --format and --out, then the command's computed values."""
    flags = {key: value for key, value in vars(args).items() if key not in ("format", "out")}
    return {**flags, **(extra or {})}


def cmd_eigvals(args) -> int:
    values = locop.landau_eigenvalue(range(args.j_max + 1), ModelParams(args.B, args.m), args.R)
    rows = list(enumerate(values.tolist()))
    _write(_render(_params_dict(args), ["j", "lambda"], rows, args.format), args.out)
    return 0


def cmd_kernel(args) -> int:
    ModelParams(args.B)
    s = LocalizationRadius(args.R).R ** 2
    series = bergman.kernel_series(args.z, args.w, args.B, s)
    closed = bergman.kernel_closed(args.z, args.w, args.B, s)
    limit = bergman.kernel_limit(args.z, args.w, args.B)
    rel = abs(series - closed) / max(abs(series), 1e-300)
    columns = ["series_re", "series_im", "closed_re", "closed_im", "rel_discrepancy", "limit_re", "limit_im"]
    rows = [[series.real, series.imag, closed.real, closed.imag, float(rel), limit.real, limit.imag]]
    extra = {"s": s, "z": repr(args.z), "w": repr(args.w)}
    _write(_render(_params_dict(args, extra), columns, rows, args.format), args.out)
    return 0


def cmd_leakage(args) -> int:
    ModelParams(args.B)
    bound = locop.leakage_bound(args.z, args.B, LocalizationRadius(args.R))
    rows = [[float(bound), float(abs(args.z) ** 2)]]
    _write(_render(_params_dict(args, {"z": repr(args.z)}), ["bound", "p"], rows, args.format), args.out)
    return 0


def cmd_density(args) -> int:
    params = ModelParams(args.B, args.m)
    rho = np.linspace(0.0, 1.0, args.samples + 1)[:-1]
    densities = locop.landau_density(range(args.j_max + 1), params, rho)
    rows = [[j, r, v] for j, vals in enumerate(densities.tolist()) for r, v in zip(rho.tolist(), vals)]
    _write(_render(_params_dict(args), ["j", "rho", "density"], rows, args.format), args.out)
    return 0


def cmd_mc(args) -> int:
    params, radius = ModelParams(args.B), LocalizationRadius(args.R)
    exact = locop.landau_eigenvalue(range(args.j_max + 1), params, radius).tolist()  # the eigvals table
    draws = [locop.mc_eigenvalue(j, args.B, radius, args.samples, args.seed + j) for j in range(len(exact))]
    rows = [[j, est, se, lam, abs(est - lam)] for j, ((est, se), lam) in enumerate(zip(draws, exact))]
    columns = ["j", "estimate", "std_error", "exact", "abs_error"]
    _write(_render(_params_dict(args), columns, rows, args.format), args.out)
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


# Each subcommand's handler, help and the flags it reads, by dest; every one also takes --format
# and --out.  A document's params echo exactly these flags, so they never claim a value the
# command did not read.
COMMANDS = {
    "eigvals": (cmd_eigvals, "eigenvalue table (j, lambda_j)", {
        "B": _B, "R": _R, "m": _M, "j_max": _J_MAX}),
    "kernel": (cmd_kernel, "transferred kernel at one point pair", {
        "B": _B, "R": _R, "z": _POINT, "w": _POINT}),
    "leakage": (cmd_leakage, "photon-counting bound outside the disk", {
        "B": _B, "R": _R, "z": {**_POINT, "help": "coherence point z0; a leading minus needs --z=-0.5+0.3j"}}),
    "density": (cmd_density, "eigenvalue densities on a rho grid", {
        "B": _B, "m": _M, "j_max": _J_MAX,
        "samples": {"type": _grid_arg, "default": 101, "help": "rho grid points, 2..10000"}}),
    "mc": (cmd_mc, "Monte-Carlo eigenvalue estimates vs the closed form", {
        "B": _B, "R": _R, "j_max": _J_MAX, "seed": {"type": _count_arg, "default": 42},
        "samples": {"type": _draws_arg, "default": 1_000_000, "help": "Beta draws per index, at least 100"}}),
    "verify": (cmd_verify, "run the full verification suite", {}),
}


def _plain_read(command: str, words: list[str]) -> argparse.Namespace | None:
    """The namespace the command's parser builds from ``words``, read straight from COMMANDS, or None.

    Read only when the words are distinct, fully spelled ``--flag value`` or ``--flag=value`` pairs of
    the command's own flags, with every required flag given, and each value is nonempty, does not start
    with '-' (where argparse's rules for flags, negative numbers and '--' differ between Python versions)
    and is valid for its flag's type and choices.  Any other argv is argparse's to read.
    """
    specs = {**COMMANDS[command][2], **_OUTPUT}
    given = {}
    words = iter(words)
    for word in words:
        flag, sep, text = word.partition("=")
        if not sep:
            text = next(words, "")
        dest = flag[2:].replace("-", "_")
        if (dest not in specs or dest in given or flag != "--" + dest.replace("_", "-")
                or not text or text[0] == "-"):
            return None
        spec = specs[dest]
        try:
            value = spec["type"](text) if "type" in spec else text
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # what argparse reports as a usage error
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[dest] = value
    values = {"command": command}
    for dest, spec in specs.items():
        if dest not in given and spec.get("required"):
            return None
        values[dest] = given.get(dest, spec.get("default"))
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = _plain_read(command, argv[1:]) if command else None
    if args is None:  # argparse: the subcommand's parser, which the top-level parse delegates to, or the top level
        if command:
            args = parser.commands[command].parse_args(argv[1:], argparse.Namespace(command=command))
        else:
            args = parser.parse_args(argv)
        for dest, value in vars(args).items():
            # an explicit '--' value (--B=--): Python 3.11's argparse reads it as [], a later one as '--'
            if value in ([], "--"):
                parser.commands[args.command].error(f"argument --{dest.replace('_', '-')}: expected one argument")
    try:
        return COMMANDS[args.command][0](args)
    except (DomainError, ConvergenceError, AccuracyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
