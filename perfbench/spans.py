"""Span tracing of nbsloc's layers, installed from outside the library.

A layer is one nbsloc module.  ``Tracer.install`` replaces the entry points
listed in ENTRY_POINTS by wrappers that record a span -- name, start, end
and parent -- and puts each wrapper into every nbsloc namespace that holds
the function: locop and bergman import reg_inc_beta, mapped_legendre,
disk_grid, bergman_basis and photon_weight by name, so patching the home
module alone would miss their calls.  Spans stay in flat arrays in memory
and are reduced to per-layer numbers by ``summary`` at the end of the run.

Scalar helpers (log_gamma, gamma_ratio, principal_power, as_disk, ...) are
not wrapped.  Their time counts as the self time of their caller, and
wrapping them would multiply the spans on the hot paths.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "specfun", "quadrature", "states", "locop", "bergman", "verify")

ENTRY_POINTS = {
    "cli": ("main", "build_parser", "_render"),
    "specfun": ("reg_inc_beta", "appell_f1", "appell_f3", "gauss_2f1", "laguerre", "jacobi",
                "sample_beta"),
    "quadrature": ("gauss_jacobi", "mapped_legendre", "radial_jacobi_grid", "half_line_grid",
                   "angular_grid", "disk_grid", "hamiltonian_residual"),
    "states": ("bergman_basis", "laguerre_function", "photon_weight", "nbs_wavefunction",
               "nbs_expansion", "nb_pmf", "disk_kernel", "halfplane_kernel",
               "affine_coherent_state", "cayley_inverse"),
    "locop": ("disk_eigenvalue", "landau_eigenvalue", "landau_density", "leakage_bound",
              "localized_overlap", "radial_eigenvalue", "spectral_apply", "mc_eigenvalue",
              "beta_density", "as_function_of_hamiltonian", "quantization_matrix_element"),
    "bergman": ("transferred_apply", "kernel_series", "kernel_series_coefficients",
                "kernel_closed", "kernel_limit", "bargmann_transform", "bargmann_inverse",
                "BergmanFunction.project", "BergmanFunction.values"),
    "verify": ("run_check",),
}


def _count(key, measure):
    def hook(tracer, span, args, result):
        tracer.counts[key] = tracer.counts.get(key, 0) + measure(args, result)
    return hook


def _rule(kind):
    # A rule is identified by (kind, n, exponent); the Legendre rule is
    # mapped affinely to its interval, so only n identifies it.
    def hook(tracer, span, args, result):
        tracer.rules.append((kind,) + tuple(args[:3] if kind == "jacobi" else args[:1]))
        tracer.counts["quadrature.nodes_built"] = (
            tracer.counts.get("quadrature.nodes_built", 0) + len(result[0]))
    return hook


def _exit_code(tracer, span, args, result):
    if result:
        tracer.failed[span] = 1


HOOKS = {
    "cli.main": _exit_code,
    "specfun.appell_f1": _count("specfun.appell_f1.terms", lambda a, r: r.terms_used),
    "specfun.sample_beta": _count("specfun.sample_beta.draws", lambda a, r: len(r)),
    "quadrature.gauss_jacobi": _rule("jacobi"),
    "quadrature.mapped_legendre": _rule("legendre"),
    "bergman.kernel_series_coefficients": _count("bergman.kernel_series_coefficients.terms",
                                                 lambda a, r: len(r)),
}


class Tracer:
    """Records spans of wrapped calls; one per process, single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.stack = [-1]
        self.counts: dict[str, float] = {}
        self.rules: list[tuple] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` recording one span named ``name`` per call."""
        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(tracer.stack[-1])
            tracer.failed.append(0)
            tracer.end.append(0.0)
            tracer.stack.append(span)
            tracer.start.append(perf())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, span, args, result)
                return result
            except BaseException:
                tracer.failed[span] = 1
                raise
            finally:
                tracer.end[span] = perf()
                tracer.stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every entry point in every nbsloc namespace that holds it."""
        import nbsloc.cli  # noqa: F401  (loads every layer)

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "nbsloc" or key.startswith("nbsloc.")]
        for layer, names in ENTRY_POINTS.items():
            home = sys.modules[f"nbsloc.{layer}"]
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                fn = getattr(owner, attr)
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                holders = [owner] if owner_name else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
                            self._restore.append((holder, key, fn))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._restore):
            setattr(holder, key, fn)
        self._restore.clear()

    def summary(self, wall: float) -> dict:
        """Additive per-layer totals and the consistency findings of this process.

        ``wall`` is the traced job time that the layers' self times should
        account for, to 90% at least.  Self time is a span's duration minus
        that of its direct children.
        """
        n = len(self.name)
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        failed = np.frombuffer(self.failed, dtype=np.int8).astype(float)
        dur = end - start
        child = parent >= 0
        up = np.where(child, parent, 0)  # parent index, 0 for roots (masked below)
        self_time = dur - np.bincount(parent[child], weights=dur[child], minlength=n)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        totals = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_time, minlength=k)
        errors = np.bincount(name, weights=failed, minlength=k)

        problems = []
        outside = child & ((start < start[up]) | (end > end[up]))
        if outside.any():
            problems.append(f"{int(outside.sum())} spans lie outside their parent")
        if n and self_time.min() < -1e-9:
            problems.append(f"negative self time {self_time.min():.3e} s")

        out = {}
        for layer in LAYERS:
            ids = [i for i, nm in enumerate(self.names) if nm.startswith(layer + ".")]
            out[f"{layer}.self_s"] = float(selfs[ids].sum())
            out[f"{layer}.errors"] = int(errors[ids].sum())
        # Time in harness spans but in no layer span is time the wrappers miss.
        covered = sum(out[f"{layer}.self_s"] for layer in LAYERS)
        if wall > 0 and not 0.9 * wall <= covered <= wall * (1 + 1e-9):
            problems.append(f"layer spans cover {covered:.4f} s of {wall:.4f} s traced")
        for i, nm in enumerate(self.names):
            out[f"{nm}.calls"] = int(calls[i])
            out[f"{nm}.s"] = float(totals[i])
            out[f"{nm}.self_s"] = float(selfs[i])
        ids = {nm: i for i, nm in enumerate(self.names)}
        if "specfun.reg_inc_beta" in ids and "locop.leakage_bound" in ids:
            in_leakage = child & (name == ids["specfun.reg_inc_beta"])
            in_leakage &= name[up] == ids["locop.leakage_bound"]
            out["locop.leakage_bound.incbeta_calls"] = int(in_leakage.sum())
        out.update(self.counts)
        out["quadrature.rules_built"] = len(self.rules)
        out["quadrature.rules_distinct"] = len(set(self.rules))
        out["trace.problems"] = problems
        return out
