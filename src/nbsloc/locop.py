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
eigenvalue function of every level m is ``landau_eigenvalue``.  Functions of the lowest level take the strength B,
level functions ``ModelParams``; ``disk_eigenvalue`` and ``beta_density`` are the level functions at m = 0.
The radial and level-m quantities take an index or a range of indices; no call
keeps state but the shared read-only rules and tables.  Rule and block sizes are module
constants (RADIAL_NODES, LANDAU_NODES, MC_BLOCK), not arguments; a disk grid is an argument.  A level-m
call takes one density row per index, and ``mc_eigenvalue`` counts its Beta draws in blocks of one stream.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import AccuracyError, ConvergenceError, DomainError
from . import quadrature, specfun
from .quadrature import mapped_legendre, radial_jacobi_grid
from .specfun import (check_index, check_indices, log_inc_beta_steps, log_nb_weights,
                      reg_inc_beta, reg_inc_beta_table, sample_beta)
from .states import (ModelParams, _basis_series, as_coefficients, as_disk, as_disk_point, as_radius, bergman_basis,
                     check_strength, jacobi)

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
RADIAL_REFINE_TOL = 1e-13  # agreement radial_eigenvalue's successive rules must reach, relative to the mass of |F|
LEAKAGE_TAIL_TOL = 1e-14  # bound on the photon-count tail leakage_bound neglects, relative to the sum
LANDAU_NODES = 320  # landau_eigenvalue's Gauss-Legendre rule on [0, R^2] and on each half, at m >= 1
RADIAL_NODES = (24, 48, 96, 192, 384, 768, 1536)  # radial_eigenvalue's Gauss-Jacobi rules, in the order it tries them
MC_BLOCK = 65_536  # Beta draws mc_eigenvalue holds at once (512 kB): bounded memory


def disk_eigenvalue(j: int | range, B: float, R):
    """Eigenvalue of the disk-indicator localization operator, I_{R^2}(j+1, 2B-1): ``landau_eigenvalue`` at m = 0."""
    return landau_eigenvalue(j, ModelParams(B), R)


def radial_eigenvalue(F: Callable, j: int | range, B: float):
    """Eigenvalue of the quantized radial symbol rho = |z|^2 -> F(rho).

    (1 / B(j+1, 2B-1)) int_0^1 rho^j (1 - rho)^(2B-2) F(rho) drho, by the weighted radial rules of
    RADIAL_NODES in turn.  F is called once per rule, on its array of nodes, and a scalar return is
    broadcast; values that are not real and finite on the nodes raise DomainError.  An index's value is the
    finer of the first two successive rules that agree on it: their difference at most the larger of
    RADIAL_REFINE_TOL times the same sum with |F| (the eigenvalue of |F|, the scale its rounding is relative
    to) and (n / 2 + n) math.ulp(0.0), one subnormal rounding per term summed.  An index still unsettled
    past the last rule raises AccuracyError, as a discontinuous symbol's does (the disk indicator has the
    exact closed form ``disk_eigenvalue``); a rule whose weights underflow raises its DomainError.  Each term
    w_i rho_i^j / B(j+1, 2B-1) is formed in logs (at large B the normalization alone overflows where the node
    sum underflows), 1 / B(j+1, 2B-1) = (2B-1) Gamma(2B+j) / (j! Gamma(2B)) from one ``log_nb_weights`` table
    as in ``landau_density``.  ``j`` may be a range: an array with an eigenvalue per index, each its own
    call's bit for bit, since each integral is summed over the nodes of its own rules in a fixed order.
    """
    js = check_indices("j", j)
    check_strength(B)
    log_norm = math.log(2.0 * B - 1.0) + log_nb_weights(max(js, default=0) + 1, 2.0 * B)[js]
    values, pending, coarse, coarse_n = np.empty(len(js)), np.arange(len(js)), None, 0
    for n in RADIAL_NODES:
        grid = radial_jacobi_grid(n, B)
        fvals = np.broadcast_to(F(grid.nodes), grid.nodes.shape)
        if not (np.isrealobj(fvals) and np.all(np.isfinite(fvals))):
            raise DomainError("symbol values must be real and finite on the integration nodes")
        terms = np.exp(np.multiply.outer(np.asarray(js)[pending], np.log(grid.nodes))
                       + (np.log(grid.weights) + log_norm[pending, None]))
        fine = (terms * fvals).sum(axis=1)
        if coarse is not None:
            gap, tol = np.abs(fine - coarse), RADIAL_REFINE_TOL * (terms @ np.abs(fvals))
            settled = (gap <= np.maximum(tol, (coarse_n + n) * math.ulp(0.0))) & (tol < math.inf)  # false for NaN
            values[pending[settled]] = fine[settled]
            pending, fine, gap = pending[~settled], fine[~settled], gap[~settled]
        if not pending.size:
            return values if isinstance(j, range) else float(values[0])
        coarse, coarse_n = fine, n
    raise AccuracyError(f"radial eigenvalue did not converge at j={js[pending[0]]}: {n} nodes moved {fine[0]:.6e} "
                        f"by {gap[0]:.3e} (relative tol {RADIAL_REFINE_TOL:.0e})")


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
    return disk_eigenvalue(check_index("n", n, 1) - 1, B, R)


def _log_rho(rho) -> tuple:
    """(1 - 2 rho, log rho, log1p(-rho)) on 0 <= rho < 1, log 0 = -inf: ``_density_rows``'s points; else DomainError."""
    try:
        rho = np.asarray(rho, dtype=float)
        ok = np.all(rho >= 0.0) and np.all(rho < 1.0)
    except (TypeError, ValueError):  # not real numbers
        ok = False
    if not ok:
        raise DomainError("density defined on 0 <= rho < 1")
    with np.errstate(divide="ignore"):
        return 1.0 - 2.0 * rho, np.log(rho), np.log1p(-rho)


def beta_density(j: int | range, B: float, rho):
    """Density of the Beta(j+1, 2B-1) law behind the eigenvalues: ``landau_density`` at m = 0.

    Gamma(2B+j) / (Gamma(2B-1) j!) (1 - rho)^(2B-2) rho^j on [0, 1), formed in logs;
    ``rho`` may be a number or array-like.
    """
    return landau_density(j, ModelParams(B), rho)


def _density_rows(js: range | list[int], params: ModelParams, x, log_rho, log_rest):
    """Yield the level-m density row of each index in ``js``, at the points ``_log_rho`` gives, shape x.shape.

    The one table is ``log_nb_weights`` at b = 2B - 2m, sized from the ends of ``js`` (a prefix is the short
    table).  Every entry is exp(ln_norm + shape + 2 log|P|), one exponential of one sum, so an entry whose
    exp(ln_norm + shape) alone would be subnormal keeps its bits; a root of P gives log 0 = -inf and the entry 0.
    """
    B, m = params.B, params.m
    log_w = log_nb_weights(max(m, js[0], js[-1]) + 1 if js else m + 1, 2.0 * B - 2.0 * m)
    for k in js:
        lo, hi = min(m, k), max(m, k)
        with np.errstate(divide="ignore"):  # closed before the yield: held open, it would set the caller's state
            ln_norm = math.log(2.0 * B - 2.0 * m - 1.0) + log_w[hi] - log_w[lo]
            shape = ((hi - lo) * log_rho if hi > lo else 0.0) + (2.0 * B - 2.0 * m - 2.0) * log_rest
            row = np.exp(ln_norm + shape + 2.0 * np.log(np.abs(jacobi(lo, float(hi - lo), 2.0 * (B - m) - 1.0, x))))
        yield row


def landau_density(j: int | range, params: ModelParams, rho):
    """Level-m generalization of the Beta density; ``beta_density`` is its m = 0 case.

    (2B-2m-1) ((m^j)! / (mvj)!) (Gamma(2B-2m+mvj)/Gamma(2B-2m+m^j))
      (1-rho)^(2B-2m-2) rho^|m-j| [P_{m^j}^(|m-j|, 2(B-m)-1)(1 - 2 rho)]^2
    with m^j = min(m, j), mvj = max(m, j), every factor formed in logs, the square as 2 log|P|,
    and the entry one exponential of their sum (``_density_rows``);
    ``ModelParams`` holds m < B - 1/2, where the weight is normalizable.  A number ``rho`` gives a float,
    an array-like one an array of its shape.  ``j`` may be a range: a row per index, shape (len(j),
    *np.shape(rho)), each its own call's bit for bit, from one log pass into one array filled row by row.
    """
    js = check_indices("j", j)
    rows = np.empty((len(js), *np.shape(rho)))
    for i, row in enumerate(_density_rows(js, params, *_log_rho(rho))):
        rows[i] = row
    return rows if isinstance(j, range) else rows[0] if np.ndim(rho) else float(rows[0])


@functools.lru_cache(maxsize=quadrature.RULE_CACHE_SIZE)
def _landau_rule(s: float, n: int) -> tuple:
    """``landau_eigenvalue``'s n-node Gauss-Legendre rules on [0, s], [0, s/2] and [s/2, s], built once per (s, n).

    (weights, x, log_rho, log_rest): the three rules' weights, and 1 - 2 rho, log rho and log1p(-rho) on
    their 3n nodes in that order, all read-only.
    """
    rules = [mapped_legendre(n, lo, hi) for lo, hi in ((0.0, s), (0.0, 0.5 * s), (0.5 * s, s))]
    points = _log_rho(np.concatenate([rule.nodes for rule in rules]))
    for array in points:  # the rules' weights are read-only already
        array.flags.writeable = False
    return tuple(rule.weights for rule in rules), *points


def landau_eigenvalue(j: int | range, params: ModelParams, R):
    """Level-m eigenvalue: mass of the level-m density on [0, R^2].

    ``j`` may be a range: a read-only array, each entry its own call's bit for bit.  At m = 0 the mass
    is I_{R^2}(j+1, 2B-1), an entry of the shared ``reg_inc_beta_table``, and ``disk_eigenvalue`` is this
    case; range(n) gives a view of the table's first n entries, any other range a copy.
    At m >= 1, Gauss-Legendre with LANDAU_NODES nodes on [0, R^2]; the weight factor
    is smooth there because its singularity sits at rho = 1, outside the
    interval.  The same rule on each half gives the refined value, returned
    unless either is not finite or the two differ by more than the larger of
    LANDAU_REFINE_TOL relatively and 3 LANDAU_NODES math.ulp(0.0), one
    subnormal rounding per term summed (AccuracyError).  The three rules and
    1 - 2 rho, log rho and log1p(-rho) on their nodes are one cached
    ``_landau_rule`` per R^2, built by the first call.  A range call integrates
    one index's density row on the nodes of all three rules at a time.
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
    weights, *points = _landau_rule(R * R, LANDAU_NODES)
    floor = 3 * LANDAU_NODES * math.ulp(0.0)
    values = np.empty(len(js))
    with np.errstate(all="ignore"):  # an overflow leaves a non-finite mass, refused below
        for i, row in enumerate(_density_rows(js, params, *points)):
            coarse, low, high = (float(w @ part) for w, part in zip(weights, row.reshape(3, LANDAU_NODES)))
            fine = low + high
            if not abs(fine - coarse) <= max(LANDAU_REFINE_TOL * abs(fine), floor) < math.inf:  # false for NaN
                raise AccuracyError(f"level-m eigenvalue did not converge: refinement moved {fine:.6e} "
                                    f"by {abs(fine - coarse):.3e} (relative tol {LANDAU_REFINE_TOL:.0e})")
            values[i] = fine
    values.flags.writeable = False
    return values if isinstance(j, range) else float(values[0])


def mc_eigenvalue(j: int, B: float, R, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of the m = 0 eigenvalue as Pr(Y <= R^2), Y ~ Beta(j+1, 2B-1).

    Returns (estimate, standard error).  Only the lowest level has a Beta
    sampling route, so it takes the strength B, not a level.  The draws are
    counted MC_BLOCK at a time, taken in order from one PCG64 stream seeded
    with ``seed``, an integer >= 0, so memory stays one block whatever
    n_samples is.  They are the draws of ``sample_beta(j + 1, 2B - 1,
    n_samples, seed)``, and the exact count of Y <= R^2 over n_samples, one
    rounded division, is their mean bit for bit.
    """
    j = check_index("j", j)
    check_strength(B)
    n = check_index("n_samples", n_samples, 100)
    R = as_radius(R)
    rng, a, b, hits = np.random.Generator(np.random.PCG64(check_index("seed", seed))), j + 1.0, 2.0 * B - 1.0, 0
    for start in range(0, n, MC_BLOCK):  # no name holds a block while the next one is drawn
        hits += int(np.count_nonzero(sample_beta(a, b, min(MC_BLOCK, n - start), rng) <= R * R))
    estimate = hits / n
    return estimate, math.sqrt(estimate * (1.0 - estimate) / n)


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
    past index n - 1 (``_log_tail_bound``) are at most LEAKAGE_TAIL_TOL times
    the sum, or raises ConvergenceError past SERIES_MAX_TERMS.  The sum is
    the log-sum-exp of its terms' logs 2 log lambda_j + log pmf_j, and the
    stop test compares logs, so a sum below the normal range is kept.  The
    bound is at most one, and a rounded sum above one is returned as one.
    """
    z0, R = as_disk_point(z0), as_radius(R)
    check_strength(B)
    p = abs(z0) ** 2
    s, b = R * R, 2.0 * B - 1.0
    n = 32
    while True:
        lam = reg_inc_beta_table(s, n, b)
        log_pmf = log_inc_beta_steps(p, n, 2.0 * B)
        with np.errstate(divide="ignore"):  # log(0) = -inf where an eigenvalue underflows
            terms = 2.0 * np.log(lam) + log_pmf
        top = terms.max()
        log_total = top + math.log(np.exp(terms - top).sum()) if top > -math.inf else -math.inf
        tail = _log_tail_bound(lam, log_pmf, reg_inc_beta(p, float(n), 2.0 * B), s, p, B)
        if tail <= math.log(LEAKAGE_TAIL_TOL) + log_total:
            return min(math.exp(0.5 * log_total), 1.0)  # at most one by Cauchy-Schwarz; rounding must not push it past
        if n >= specfun.SERIES_MAX_TERMS:
            raise ConvergenceError(f"photon-count tail above {LEAKAGE_TAIL_TOL} of the sum after {n} terms "
                                   f"at p={p}", terms_used=n)
        n = min(2 * n, specfun.SERIES_MAX_TERMS)


def localized_overlap(z0, B: float, R, coeffs) -> float:
    """|<state at z0, localized f>| for f given by a finite vector of Laguerre-basis coefficients.

    The coherent-state transform of ``spectral_apply(coeffs)`` read at conj(z0), |sum_j lambda_j c_j a_j| with |a_j|^2
    the pmf at |z0|^2: by Cauchy-Schwarz at most ``leakage_bound`` times |f|, equal at c ~ conj(lambda_j a_j).
    """
    z0, R = as_disk_point(z0), as_radius(R)
    localized = spectral_apply(coeffs, ModelParams(B), R)
    return abs((1.0 - abs(z0) ** 2) ** B / math.sqrt(2.0 * B - 1.0) * _basis_series(localized, B, z0.conjugate()))


def quantization_matrix_element(F, j: int | range, k: int | range, B: float, grid):
    """Matrix element of the quantized (not necessarily radial) symbol F.

    (pi Gamma(2B-1))^(-1) sqrt(Gamma(2B+j) Gamma(2B+k) / (j! k!))
      int_D conj(z)^j z^k (1-|z|^2)^(2B-2) F(z) dA(z)
    by disk quadrature on ``grid`` (a ``disk_grid``), F called once on all
    nodes.  ``j`` and ``k`` may be ranges: the block of shape
    (len(j), len(k)); two ints give a complex scalar.  The rows
    ``bergman_basis(k, B, z)``, one range call, are scaled by w F / pi in place; each entry is then
    conj(``bergman_basis(j, B, z)``) times one such row, summed over the
    nodes in a fixed order (no matrix product, whose last bits depend on
    operand layout), so the same call gives the same bits and the call holds
    those rows, one basis row and one product, never a table of the block.
    For radial F the off-diagonal entries vanish and the diagonal reproduces
    ``radial_eigenvalue``.
    """
    js, ks = check_indices("j", j), check_indices("k", k)
    check_strength(B)
    z = as_disk(grid.nodes)
    # the prefactor is that of conj(basis_j) basis_k: Gamma(2B) / Gamma(2B-1) = 2B - 1
    weighted = grid.weights * F(z) / math.pi
    right = bergman_basis(k if isinstance(k, range) else range(ks[0], ks[0] + 1), B, z)
    right *= weighted
    block, product = np.empty((len(js), len(ks)), dtype=complex), np.empty(z.size, dtype=complex)
    for entries, index in zip(block, js):
        left = np.conjugate(bergman_basis(index, B, z))
        for column, row in enumerate(right):
            entries[column] = np.multiply(left, row, out=product).sum()
    return block[tuple(slice(None) if isinstance(idx, range) else 0 for idx in (j, k))]
