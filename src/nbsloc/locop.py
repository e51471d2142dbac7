"""Spectral data of the phase-space localization operator.

Quantizing a radial symbol F(|z|^2) against the negative binomial states
produces an operator that is diagonal in the Laguerre-function basis; its
eigenvalues are Beta-weighted averages of F.  For the indicator of the
disk of radius R they reduce to the regularized incomplete Beta function
I_{R^2}(j + 1, 2B - 1), which is simultaneously the CDF of a Beta random
variable (giving Monte-Carlo cross-checks) and a function of the
pseudo-harmonic oscillator through its eigenvalue j + 1.  The module also
carries the generalized level-m densities and eigenvalues, and the
photon-counting bound on the operator's content outside the disk.  The one
eigenvalue function of every level m is ``landau_eigenvalue``; functions
defined only at m = 0 take the strength B, level functions ``ModelParams``.
The radial and level-m quantities take an index or a range of indices; no call
keeps state but the shared read-only rules and tables.  Rule sizes are
module constants (RADIAL_NODES, LANDAU_NODES, DISK_RULE), not arguments.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable

import numpy as np

from .errors import AccuracyError, ConvergenceError, DomainError
from . import quadrature, specfun
from .quadrature import disk_grid, mapped_legendre, radial_jacobi_grid
from .specfun import (check_index, check_indices, log_inc_beta_steps, log_nb_weights,
                      reg_inc_beta, reg_inc_beta_table, sample_beta)
from .states import (ModelParams, as_coefficients, as_disk, as_radius, basis_series, bergman_basis, check_strength,
                     jacobi)

__all__ = [
    "radial_eigenvalue",
    "disk_eigenvalue",
    "spectral_apply",
    "as_function_of_hamiltonian",
    "beta_density",
    "landau_density",
    "landau_eigenvalue",
    "mc_eigenvalue",
    "leakage_bound",
    "localized_overlap",
    "quantization_matrix_element",
]

LANDAU_REFINE_TOL = 1e-10  # relative agreement landau_eigenvalue's refinement must reach
LEAKAGE_TAIL_TOL = 1e-14  # bound on the photon-count tail leakage_bound neglects, relative to the sum
LANDAU_NODES = 320  # landau_eigenvalue's Gauss-Legendre rule on [0, R^2] and on each half, at m >= 1
RADIAL_NODES = 160  # radial_eigenvalue's Gauss-Jacobi rule
LANDAU_BLOCK = 64  # indices whose densities an m >= 1 landau_eigenvalue range call holds at once: bounded memory


def disk_eigenvalue(j: int, B: float, R) -> float:
    """Eigenvalue of the disk-indicator localization operator: I_{R^2}(j+1, 2B-1), a ``reg_inc_beta_table`` entry."""
    j = check_index("j", j)
    check_strength(B)
    R = as_radius(R)
    return float(reg_inc_beta_table(R * R, j + 1, 2.0 * B - 1.0)[j])


def radial_eigenvalue(F: Callable, j: int | range, B: float):
    """Eigenvalue of the quantized radial symbol rho = |z|^2 -> F(rho).

    (1 / B(j+1, 2B-1)) int_0^1 rho^j (1 - rho)^(2B-2) F(rho) drho, by the weighted radial rule of
    RADIAL_NODES nodes.  F is called once, on the array of nodes, and a scalar return is broadcast; values
    that are not real and finite on the nodes raise DomainError.  Each term w_i rho_i^j / B(j+1, 2B-1) is formed in
    logs (at large B the normalization alone overflows where the node sum underflows), 1 / B(j+1, 2B-1) =
    (2B-1) Gamma(2B+j) / (j! Gamma(2B)) from one ``log_nb_weights`` table as in ``beta_density``.  ``j`` may
    be a range: an array with an eigenvalue per index.  Each integral is summed over the nodes in a fixed
    order, so the same call gives the same bits.  Discontinuous symbols converge slowly here; the disk
    indicator has the exact closed form ``disk_eigenvalue``.
    """
    js = check_indices("j", j)
    grid = radial_jacobi_grid(RADIAL_NODES, B)
    fvals = np.broadcast_to(F(grid.nodes), grid.nodes.shape)
    if not (np.isrealobj(fvals) and np.all(np.isfinite(fvals))):
        raise DomainError("symbol values must be real and finite on the integration nodes")
    log_norm = math.log(2.0 * B - 1.0) + log_nb_weights(max(js, default=0) + 1, 2.0 * B)[js]
    terms = np.exp(np.multiply.outer(js, np.log(grid.nodes)) + (np.log(grid.weights) + log_norm[:, None]))
    values = (terms * fvals).sum(axis=1)
    return values if isinstance(j, range) else float(values[0])


def spectral_apply(coeffs, params: ModelParams, R) -> np.ndarray:
    """Apply the level-m localization operator to a vector of Laguerre-basis coefficients.

    Component-wise multiplication by ``landau_eigenvalue(range(n), params, R)``, n = len(coeffs); anything
    but a finite 1-D vector raises DomainError (``as_coefficients``).  The operator is not a projection:
    applying twice multiplies by the squared eigenvalues.
    """
    coeffs = as_coefficients(coeffs)
    return landau_eigenvalue(range(coeffs.size), params, R) * coeffs


def as_function_of_hamiltonian(n: int, B: float, R) -> float:
    """Spectral function expressing the operator through oscillator eigenvalues.

    n -> I_{R^2}(n, 2B - 1) for n >= 1, which is ``disk_eigenvalue(n - 1, B, R)``.
    """
    n = check_index("n", n)
    if n < 1:
        raise DomainError(f"oscillator eigenvalues start at 1, got n={n}")
    return disk_eigenvalue(n - 1, B, R)


def _log_rho(rho) -> tuple:
    """log(rho) and log1p(-rho) on 0 <= rho < 1, with log(0) = -inf; DomainError elsewhere."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0) or np.any(rho >= 1.0):
        raise DomainError("density defined on 0 <= rho < 1")
    with np.errstate(divide="ignore"):
        return np.log(rho), np.log1p(-rho)


def beta_density(j: int, B: float, rho):
    """Density of the Beta(j+1, 2B-1) law behind the eigenvalues.

    Gamma(2B+j) / (Gamma(2B-1) j!) (1 - rho)^(2B-2) rho^j on [0, 1), formed in logs;
    ``rho`` may be an ndarray.
    """
    j = check_index("j", j)
    log_rho, log_rest = _log_rho(rho)
    check_strength(B)
    ln_norm = math.log(2.0 * B - 1.0) + log_nb_weights(j + 1, 2.0 * B)[j]
    vals = np.exp(ln_norm + ((j * log_rho if j else 0.0) + (2.0 * B - 2.0) * log_rest))
    return vals if isinstance(rho, np.ndarray) else float(vals)


def _density_rows(js: list[int], params: ModelParams, log_w: np.ndarray, x: np.ndarray, log_rho: np.ndarray,
                  log_rest: np.ndarray) -> np.ndarray:
    """Level-m density rows, shape (len(js), *x.shape), at the points with 1 - 2 rho = x, log rho and log1p(-rho).

    ``log_w`` is ``log_nb_weights`` at b = 2B - 2m up to the largest index.  An entry is exp(ln_norm + shape) P P,
    or, where ln_norm + shape is below log(sys.float_info.min) and its exponential would keep only a
    subnormal's few bits, exp(ln_norm + shape + 2 log|P|).
    """
    B, m = params.B, params.m
    exponents, polys = np.empty((2, len(js), *x.shape))
    for i, k in enumerate(js):
        lo, hi = min(m, k), max(m, k)
        ln_norm = math.log(2.0 * B - 2.0 * m - 1.0) + log_w[hi] - log_w[lo]
        shape = ((hi - lo) * log_rho if hi > lo else 0.0) + (2.0 * B - 2.0 * m - 2.0) * log_rest
        exponents[i] = ln_norm + shape
        polys[i] = jacobi(lo, float(hi - lo), 2.0 * (B - m) - 1.0, x)
    rows = np.exp(exponents)
    rows *= polys
    rows *= polys
    low = exponents < math.log(sys.float_info.min)
    if low.any():
        # with top = max(1, |P|), both forms round to 0 (or give the same NaN) below log(ulp(0)) - 1 - 2 log(top)
        top = np.fmax.reduce(np.abs(polys), None, initial=1.0)  # fmax passes over a NaN
        low &= exponents > math.log(math.ulp(0.0)) - 1.0 - 2.0 * math.log(top)
        with np.errstate(divide="ignore"):  # log|P| = -inf at a root gives 0
            rows[low] = np.exp(exponents[low] + 2.0 * np.log(np.abs(polys[low])))
    return rows


def landau_density(j: int | range, params: ModelParams, rho):
    """Level-m generalization of ``beta_density``; reduces to it at m = 0.

    (2B-2m-1) ((m^j)! / (mvj)!) (Gamma(2B-2m+mvj)/Gamma(2B-2m+m^j))
      (1-rho)^(2B-2m-2) rho^|m-j| [P_{m^j}^(|m-j|, 2(B-m)-1)(1 - 2 rho)]^2
    with m^j = min(m, j), mvj = max(m, j), all but the squared polynomial formed
    in logs, and that square too where the rest alone falls below the normal range;
    ``ModelParams`` holds m < B - 1/2, where the weight is normalizable.
    ``j`` may be a range: a row per index, shape (len(j), *np.shape(rho)), each its own call's
    bit for bit, from one ``log_nb_weights`` table (a prefix is the short table) and one log pass.
    """
    js = check_indices("j", j)
    B, m = params.B, params.m
    log_rho, log_rest = _log_rho(rho)
    x = 1.0 - 2.0 * np.asarray(rho, dtype=float)
    log_w = log_nb_weights(max([m, *js]) + 1, 2.0 * B - 2.0 * m)
    rows = _density_rows(js, params, log_w, *map(np.atleast_1d, (x, log_rho, log_rest))).reshape(len(js), *x.shape)
    return rows if isinstance(j, range) else rows[0] if isinstance(rho, np.ndarray) else float(rows[0])


@functools.lru_cache(maxsize=quadrature.RULE_CACHE_SIZE)
def _landau_rule(s: float, n: int) -> tuple:
    """``landau_eigenvalue``'s n-node Gauss-Legendre rules on [0, s], [0, s/2] and [s/2, s], built once per (s, n).

    (weights, x, log_rho, log_rest): the three rules' weights, and 1 - 2 rho, log rho and log1p(-rho) on
    their 3n nodes in that order, all read-only.
    """
    rules = [mapped_legendre(n, lo, hi) for lo, hi in ((0.0, s), (0.0, 0.5 * s), (0.5 * s, s))]
    nodes = np.concatenate([nodes for nodes, _ in rules])
    weights, node_values = tuple(weights for _, weights in rules), (1.0 - 2.0 * nodes, *_log_rho(nodes))
    for array in (*weights, *node_values):
        array.flags.writeable = False
    return weights, *node_values


def landau_eigenvalue(j: int | range, params: ModelParams, R):
    """Level-m eigenvalue: mass of the level-m density on [0, R^2].

    ``j`` may be a range: a read-only array, each entry its own call's bit for bit.  At m = 0 the mass
    is I_{R^2}(j+1, 2B-1), an entry of the shared ``reg_inc_beta_table``, so it is ``disk_eigenvalue``
    bit for bit; range(n) gives a view of the table's first n entries, any other range a copy.
    At m >= 1, Gauss-Legendre with LANDAU_NODES nodes on [0, R^2]; the weight factor
    is smooth there because its singularity sits at rho = 1, outside the
    interval.  The same rule on each half gives the refined value, returned
    unless either is not finite or the two differ by more than the larger of
    LANDAU_REFINE_TOL relatively and 3 LANDAU_NODES math.ulp(0.0), one
    subnormal rounding per term summed (AccuracyError).  The three rules and
    1 - 2 rho, log rho and log1p(-rho) on their nodes are one cached
    ``_landau_rule`` per R^2, built by the first call.  A range call evaluates
    the density on the nodes of all three rules for LANDAU_BLOCK indices at a time.
    """
    R = as_radius(R)
    js = check_indices("j", j)
    if params.m == 0:
        table = reg_inc_beta_table(R * R, max(js[0], js[-1]) + 1 if js else 1, 2.0 * params.B - 1.0)
        if not isinstance(j, range):
            return float(table[js[0]])
        values = table[:len(js)] if js == range(len(js)) else table[js]
        values.flags.writeable = False
        return values
    weights, *node_values = _landau_rule(R * R, LANDAU_NODES)
    log_w = log_nb_weights(max([params.m, *js]) + 1, 2.0 * params.B - 2.0 * params.m)
    floor = 3 * LANDAU_NODES * math.ulp(0.0)
    values = []
    with np.errstate(all="ignore"):  # an overflow leaves a non-finite mass, refused below
        for start in range(0, len(js), LANDAU_BLOCK):
            density = _density_rows(js[start:start + LANDAU_BLOCK], params, log_w, *node_values)
            for parts in density.reshape(-1, 3, LANDAU_NODES):
                coarse, low, high = (float(w @ part) for w, part in zip(weights, parts))
                fine = low + high
                if not abs(fine - coarse) <= max(LANDAU_REFINE_TOL * abs(fine), floor) < math.inf:  # false for NaN
                    raise AccuracyError(f"level-m eigenvalue did not converge: refinement moved {fine:.6e} "
                                        f"by {abs(fine - coarse):.3e} (relative tol {LANDAU_REFINE_TOL:.0e})")
                values.append(fine)
    table = np.array(values)
    table.flags.writeable = False
    return table if isinstance(j, range) else values[0]


def mc_eigenvalue(j: int, B: float, R, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of the m = 0 eigenvalue as Pr(Y <= R^2), Y ~ Beta(j+1, 2B-1).

    Returns (estimate, standard error).  Only the lowest level has a Beta
    sampling route, so it takes the strength B, not a level.
    """
    j = check_index("j", j)
    check_strength(B)
    n_samples = check_index("n_samples", n_samples)
    if n_samples < 100:
        raise DomainError(f"needs n_samples >= 100, got {n_samples}")
    R = as_radius(R)
    draws = sample_beta(j + 1.0, 2.0 * B - 1.0, n_samples, seed)
    estimate = float(np.mean(draws <= R * R))
    return estimate, math.sqrt(estimate * (1.0 - estimate) / n_samples)


def _log_tail_bound(lam, log_pmf, tail_p: float, s: float, p: float, B: float) -> float:
    """log of a bound on sum_{j >= n} lambda_j^2 pmf_j, n = len(lam) >= 2: the smaller of two bounds.

    The eigenvalues decrease, so the tail is at most lambda_{n-1}^2 P(N >= n), P(N >= n) = tail_p.
    They are also the survival function of the negative binomial law of shape 2B - 1 at s, whose
    ratios lambda_j / lambda_{j-1} fall for 2B - 1 >= 1 (a log-concave law) and rise to s below
    (log-convex): for j >= n they are at most rho = max(lambda_{n-1} / lambda_{n-2}, s).  The pmf
    ratios p (2B + j - 1) / j fall in j, so with q = rho^2 p (2B + n - 1) / n < 1 the tail is at most
    the geometric series lambda_{n-1}^2 pmf_{n-1} q / (1 - q).  At p = 0, or where lambda_{n-1}
    rounds to zero (and every later eigenvalue with it), the tail is zero: -inf.
    """
    n, last = len(lam), float(lam[-1])
    if last == 0.0 or p == 0.0:
        return -math.inf
    bounds = [math.log(tail_p)] if tail_p > 0.0 else []  # a P(N >= n) that underflows bounds nothing
    rho = max(last / float(lam[-2]), s)
    q = rho * rho * p * (2.0 * B + n - 1.0) / n
    if q < 1.0:
        bounds.append(float(log_pmf[-1]) + (math.log(q) - math.log1p(-q) if q > 0.0 else -math.inf))
    return 2.0 * math.log(last) + min(bounds, default=math.inf)


def leakage_bound(z0, B: float, R) -> float:
    """Photon-counting bound on the operator's content at a coherence point.

    sqrt(sum_j I_{R^2}(j+1, 2B-1)^2 pmf(j)) with the negative binomial law
    at p = |z0|^2, summed over j < n.  n doubles from 32 until the terms
    past index n - 1 are at most LEAKAGE_TAIL_TOL times the sum, or raises
    ConvergenceError past SERIES_MAX_TERMS.  The eigenvalues decrease, so
    those terms add at most I_{R^2}(n, 2B-1)^2 P(N >= n), with P(N >= n) =
    I_p(n, 2B) exactly: n first doubles until that is at most
    LEAKAGE_TAIL_TOL, which needs no sum, then until the smaller of it and
    a geometric bound (``_log_tail_bound``) is at most LEAKAGE_TAIL_TOL
    times the sum.  A sum below the normal range, whose terms underflow, is
    summed from the logs of its terms; the comparison is made in logs.
    """
    z0, R = as_disk(z0), as_radius(R)
    check_strength(B)
    p = abs(z0) ** 2
    s, b = R * R, 2.0 * B - 1.0
    n = 32
    while True:
        tail_p = reg_inc_beta(p, float(n), 2.0 * B)
        if reg_inc_beta(s, float(n), b) ** 2 * tail_p <= LEAKAGE_TAIL_TOL:
            lam = reg_inc_beta_table(s, n, b)
            log_pmf = log_inc_beta_steps(p, n, 2.0 * B)
            total = float(lam * lam @ np.exp(log_pmf))
            if total >= sys.float_info.min:
                log_total, bound = math.log(total), math.sqrt(total)
            else:
                with np.errstate(divide="ignore"):  # log(0) = -inf where an eigenvalue underflows
                    terms = 2.0 * np.log(lam) + log_pmf
                top = terms.max()
                log_total = top + math.log(np.exp(terms - top).sum()) if top > -math.inf else -math.inf
                bound = math.exp(0.5 * log_total)
            if _log_tail_bound(lam, log_pmf, tail_p, s, p, B) <= math.log(LEAKAGE_TAIL_TOL) + log_total:
                return bound
        if n >= specfun.SERIES_MAX_TERMS:
            raise ConvergenceError(f"photon-count tail above {LEAKAGE_TAIL_TOL} of the sum after {n} terms "
                                   f"at p={p}", terms_used=n)
        n = min(2 * n, specfun.SERIES_MAX_TERMS)


def localized_overlap(z0, B: float, R, coeffs) -> float:
    """|<state at z0, localized f>| for f given by a finite vector of Laguerre-basis coefficients.

    Closed form |sum_j lambda_j (1-|z0|^2)^B sqrt(Gamma(2B+j)/(j! Gamma(2B)))
    conj(z0)^j c_j|; bounded by ``leakage_bound`` times the norm of f.  Anything but a finite 1-D
    vector raises DomainError (``as_coefficients``).
    """
    z0, R = as_disk(z0), as_radius(R)
    check_strength(B)
    coeffs = as_coefficients(coeffs)
    if coeffs.size == 0:
        return 0.0
    lam = reg_inc_beta_table(R * R, coeffs.size, 2.0 * B - 1.0)
    pref = (1.0 - abs(z0) ** 2) ** B / math.sqrt(2.0 * B - 1.0)
    return abs(pref * basis_series(lam * coeffs, B, z0.conjugate()))


def quantization_matrix_element(F, j: int | range, k: int | range, B: float, grid=None):
    """Matrix element of the quantized (not necessarily radial) symbol F.

    (pi Gamma(2B-1))^(-1) sqrt(Gamma(2B+j) Gamma(2B+k) / (j! k!))
      int_D conj(z)^j z^k (1-|z|^2)^(2B-2) F(z) dA(z)
    by disk quadrature on ``grid``, DISK_RULE by default, F called once on
    all nodes.  ``j`` and ``k`` may be ranges: the block of shape
    (len(j), len(k)), from one ``bergman_basis`` table spanning both; two ints
    give a complex scalar.  Each entry is summed over the nodes in a fixed
    order (no matrix product, whose last bits depend on operand layout), so
    the same call gives the same bits.  For radial F the off-diagonal entries
    vanish and the diagonal reproduces ``radial_eigenvalue``.
    """
    js, ks = check_indices("j", j), check_indices("k", k)
    if grid is None:
        grid = disk_grid(*quadrature.DISK_RULE, B)
    z = grid.nodes
    indices = [*js, *ks]
    lo = min(indices, default=0)  # the table's rows run from lo to the largest index of either range
    # the prefactor is that of conj(basis_j) basis_k: Gamma(2B) / Gamma(2B-1) = 2B - 1
    table = bergman_basis(range(lo, max(indices, default=lo - 1) + 1), B, z)
    right = table[[i - lo for i in ks]] * (grid.weights * F(z) / math.pi)
    block = np.empty((len(js), len(ks)), dtype=complex)
    for row, left in zip(block, np.conjugate(table[[i - lo for i in js]])):
        row[:] = (left * right).sum(axis=1)
    return block[tuple(slice(None) if isinstance(idx, range) else 0 for idx in (j, k))]
