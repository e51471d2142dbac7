"""Transfer of the localization operator to the weighted Bergman space.

The coherent-state transform sends the j-th Laguerre function to the j-th
orthonormal monomial of the weighted Bergman space, so conjugating the
localization operator by it yields an integral operator whose kernel has
three equivalent descriptions implemented here: the eigenvalue series,
which applies the operator, and two independent checks of it, a closed
form through the first Appell double series and the s -> 1 limit, the
reproducing kernel of the space itself.  Disk integrals use the polar
rule, summed angle first over F's angular Fourier coefficients on it:
a coefficient function folds its coefficients into them exactly, an
evaluator is sampled and takes one FFT per radius, and both give the same
discrete sum.

Accuracy and rule sizes are a fixed contract, not arguments: the kernel
series is cut where its tail falls below specfun's SERIES_REL_TOL;
``transferred_apply`` starts from quadrature's DISK_RULE and
``BergmanFunction.project`` from its angles, on the fewest radii exact for
the coefficients it returns; both compare each value with a refined rule
and raise AccuracyError past TRANSFER_REFINE_TOL and PROJECT_REFINE_TOL;
and ``BergmanFunction.check_analytic`` reads the ANALYTIC_* constants.

Everything that does not depend on the point or the function is built once,
as read-only arrays in bounded LRU caches: here the kernel coefficient table
with the cut's x-independent arrays, by (B, s, n), 16 tables, and the fold
plan of a coefficient function, by (len(g), size, n_theta), 128 plans; from
quadrature the grids, by (n, B) and n, and the radial moment tables, by
(n, B, size), RULE_CACHE_SIZE each; from states the basis norms, by (n, B),
NORMS_CACHE_SIZE.  So ``transferred_apply`` on a coefficient function is,
past the cut, a gather and a dot product.

Kernels are parameterized by the Beta upper limit s in (0, 1); the
operator that localizes on the disk of radius R corresponds to s = R^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, ConvergenceError, DomainError, UnsupportedRepresentationError
from . import quadrature, specfun
from .quadrature import angular_grid, radial_jacobi_grid
from .specfun import appell_f1, check_index, horner, log_nb_weights, reg_inc_beta_table
# bergman_basis is not called here, but callers and perfbench's span tracer reach it as bergman.bergman_basis
from .states import (as_disk, as_radius, basis_norms, basis_series, bergman_basis,  # noqa: F401
                     check_strength, laguerre_function, principal_power)

__all__ = [
    "BergmanFunction",
    "bargmann_transform",
    "bargmann_inverse",
    "kernel_series",
    "kernel_series_coefficients",
    "kernel_closed",
    "kernel_limit",
    "transferred_apply",
]

PROJECT_REFINE_TOL = 1e-10  # agreement of project's last two angular rules, relative to |F|
PROJECT_RULES = 6  # project's angular rules: DISK_RULE's angle count doubled up to 5 times, 128 to 4096
TRANSFER_REFINE_TOL = 1e-8  # agreement of transferred_apply's two rules, relative to max(|value|, 1)
ANALYTIC_POINTS = 5  # check_analytic's random interior points
ANALYTIC_STEP = 1e-4  # its central-difference step
ANALYTIC_TOL = 1e-6  # its Cauchy-Riemann residual bound, relative to max(1, |derivative|)
ANALYTIC_SEED = 20260808  # its PCG64 seed, so the check is reproducible


@dataclass
class BergmanFunction:
    """Element of the weighted Bergman space.

    Either a finite coefficient vector against the orthonormal monomial basis, or an
    analytic evaluator on the disk (or both, when a projection has been attached),
    evaluated at a point or over an ndarray of points, which an evaluator receives
    whole (a scalar return is broadcast).  ``check_analytic`` spot-checks analyticity.
    """

    B: float
    coefficients: np.ndarray | None = None
    evaluator: Callable | None = None

    def __post_init__(self):
        if self.coefficients is None and self.evaluator is None:
            raise DomainError("provide coefficients or an evaluator")
        if self.coefficients is not None:
            self.coefficients = np.asarray(self.coefficients, dtype=complex)
        check_strength(self.B)

    def __call__(self, z):
        """Value at a disk point, or at every point of an ndarray of them."""
        z = as_disk(z)
        if self.coefficients is not None:
            return basis_series(self.coefficients, self.B, z)
        if isinstance(z, np.ndarray):
            return np.broadcast_to(self.evaluator(z), z.shape).astype(complex)
        return self.evaluator(z)

    def values(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on an array of disk points."""
        return self(np.asarray(points))

    def coefficients_or_raise(self) -> np.ndarray:
        if self.coefficients is None:
            raise UnsupportedRepresentationError(
                "coefficient representation required; use project() first"
            )
        return self.coefficients

    def project(self, j_max: int) -> "BergmanFunction":
        """Disk-quadrature projection onto the first j_max + 1 basis elements.

        c_j = sum_i W_i basis_j(r_i) a_j(r_i) from F's angular Fourier coefficients a_j.  For analytic
        F, r^j a_j(r) has degree j in rho = r^2, so max(2, j_max // 2 + 1) Gauss-Jacobi radii, the fewest
        exact for every j <= j_max, suffice; n_theta doubles from DISK_RULE's angles through
        PROJECT_RULES rules until two coefficient vectors agree to PROJECT_REFINE_TOL times F's norm
        on the rule; else, as for a pole just outside, AccuracyError.
        """
        j_max = check_index("j_max", j_max)
        radial, last = radial_jacobi_grid(max(2, j_max // 2 + 1), self.B), None
        r, norms, j = np.sqrt(radial.nodes), basis_norms(j_max + 1, self.B), np.arange(j_max + 1)
        for n_theta in (quadrature.DISK_RULE[1] << i for i in range(PROJECT_RULES)):
            a = _angular_coefficients(self, r, n_theta, max(n_theta, j_max + 1))
            coeffs = norms * (radial.weights @ (r[:, None] ** j * a[:, :j_max + 1]))
            norm = math.sqrt(radial.weights @ np.sum(np.abs(a[:, :n_theta]) ** 2, axis=1))  # Parseval
            delta = math.inf if last is None else float(np.max(np.abs(coeffs - last), initial=0.0))
            if delta <= PROJECT_REFINE_TOL * norm:
                return BergmanFunction(self.B, coefficients=coeffs, evaluator=self.evaluator)
            last = coeffs
        raise AccuracyError(f"projection not converged at {n_theta} angular nodes: moved {delta:.3e}, |F| {norm:.3e}")

    def check_analytic(self) -> None:
        """Cauchy-Riemann finite-difference spot check at ANALYTIC_POINTS random interior points."""
        u = np.random.Generator(np.random.PCG64(ANALYTIC_SEED)).random((ANALYTIC_POINTS, 2))
        z = 0.7 * np.sqrt(u[:, 0]) * np.exp(2j * math.pi * u[:, 1])
        dx, dy = ((self(z + h) - self(z - h)) / (2.0 * ANALYTIC_STEP) for h in (ANALYTIC_STEP, 1j * ANALYTIC_STEP))
        residual = np.abs(dx + 1j * dy)
        bad = np.flatnonzero(residual > ANALYTIC_TOL * np.maximum(1.0, np.maximum(abs(dx), abs(dy))))
        if bad.size:
            raise DomainError(f"Cauchy-Riemann residual {residual[bad[0]]:.3e} at z={z[bad[0]]:.4f}; not analytic")


def bargmann_transform(coeffs, z, B: float):
    """Coherent-state (second Bargmann) transform of f = sum c_j laguerre_j.

    Linear coefficient map: sends the j-th Laguerre function to the j-th
    Bergman basis element, so the value is sum_j c_j basis_j(z); ``z`` may
    be an ndarray.
    """
    return BergmanFunction(B, coefficients=coeffs)(z)


def bargmann_inverse(F: BergmanFunction, xi: float) -> complex:
    """Inverse transform back to the half-line, sum_j c_j laguerre_j(xi) over every coefficient.

    Exact two-sided inverse of ``bargmann_transform`` on coefficient
    vectors; requires the coefficient representation.
    """
    return sum((c * laguerre_function(j, F.B, xi) for j, c in enumerate(F.coefficients_or_raise()) if c != 0.0), 0j)


# A session walks about four sizes per (B, s), n = 64 to 512.  Worst case 16 x 4 MB, at n = SERIES_MAX_TERMS.
@functools.lru_cache(maxsize=16)
def _kernel_table(B: float, s: float, n: int) -> tuple[np.ndarray, ...]:
    """g_k = (2B-1) Gamma(2B+k) / (k! Gamma(2B)) for k <= n, g_k I_s(k+1, 2B-1) for k < n, and the cut's
    x-independent arrays: k for k <= n, then 2B + k and k + 1 for 1 <= k <= n.

    The kernel coefficients before their cut, built once per (B, s, n); read-only arrays.
    """
    two_b = 2.0 * B
    k = np.arange(n + 1.0)
    g = np.exp(math.log(two_b - 1.0) + log_nb_weights(n + 1, two_b))
    table = (g, reg_inc_beta_table(s, n, two_b - 1.0) * g[:-1], k, two_b + k[1:], k[1:] + 1.0)
    for array in table:
        array.flags.writeable = False
    return table


def kernel_series_coefficients(B: float, s: float, x_max: float) -> np.ndarray:
    """Coefficients c_k of the kernel series sum_k c_k (conj(z) w)^k.

    c_k = I_s(k+1, 2B-1) (2B-1) Gamma(2B+k)/(k! Gamma(2B)).  Truncated at
    the first k where the geometric tail bound on the remaining
    |coefficient| terms at radius ``x_max`` (the largest |conj(z) w| to be
    evaluated) falls below SERIES_REL_TOL of the accumulated coefficient
    envelope; the incomplete-Beta factors are at most one, so they only
    help the bound.  The candidate table doubles until it holds that k, or
    raises ConvergenceError past SERIES_MAX_TERMS.  The tables are memoized
    by (B, s, n) and the result is a read-only view of one.
    """
    check_strength(B)
    if not 0.0 < s < 1.0:
        raise DomainError(f"needs 0 < s < 1, got s={s}")
    if not 0.0 <= x_max < 1.0:
        raise DomainError(f"needs 0 <= x_max < 1, got {x_max}")
    n = 64
    while True:
        n = min(n, specfun.SERIES_MAX_TERMS)
        g, coeffs, k, two_b_k, k_1 = _kernel_table(B, s, n)
        powers = x_max ** k
        envelope = np.cumsum(coeffs * powers[:-1])
        ratio = x_max * two_b_k / k_1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tail = g[1:] * powers[1:] / (1.0 - ratio)
        cut = np.maximum(specfun.SERIES_REL_TOL * envelope, specfun.SERIES_ABS_TOL)
        done = np.flatnonzero((ratio < 1.0) & (tail <= cut))
        if done.size:
            return coeffs[:done[0] + 1]
        if n == specfun.SERIES_MAX_TERMS:
            raise ConvergenceError(f"kernel series needs more than {n} terms at x_max={x_max}",
                                   terms_used=n)
        n *= 2


def kernel_series(z, w, B: float, s: float):
    """Kernel of the transferred operator as its eigenvalue series.

    sum_k I_s(k+1, 2B-1) conj(basis_k(z)) basis_k(w); Hermitian in (z, w).
    ``z`` and ``w`` may be broadcasting ndarrays, served by one coefficient
    table cut for the largest |conj(z) w|.
    """
    x = np.conjugate(as_disk(z)) * as_disk(w)
    coeffs = kernel_series_coefficients(B, s, float(np.max(np.abs(x))))
    return horner(coeffs, x)


def kernel_closed(z, w, B: float, s: float) -> complex:
    """Closed form of the kernel through the first Appell double series.

    (2B-1)^2 s (1 - s conj(z) w)^(-2B)
      F1(2-2B, 1-2B, 2B; 2; s, s (1 - conj(z) w) / (1 - s conj(z) w)).
    Agrees with ``kernel_series`` for all admissible arguments.
    """
    z = as_disk(z)
    w = as_disk(w)
    check_strength(B)
    if not 0.0 < s < 1.0:
        raise DomainError(f"needs 0 < s < 1, got s={s}")
    x = z.conjugate() * w
    base = 1.0 - s * x
    second = s * (1.0 - x) / base
    f1 = appell_f1(2.0 - 2.0 * B, 1.0 - 2.0 * B, 2.0 * B, 2.0, s, second)
    return (2.0 * B - 1.0) ** 2 * s * principal_power(base, -2.0 * B) * f1.value


def kernel_limit(z, w, B: float):
    """s -> 1 limit of the kernel: the reproducing kernel (2B-1)(1 - conj(z) w)^(-2B).

    ``z`` and ``w`` may be broadcasting ndarrays.
    """
    check_strength(B)
    return (2.0 * B - 1.0) * principal_power(1.0 - as_disk(z).conjugate() * as_disk(w), -2.0 * B)


def _angular_coefficients(F: BergmanFunction, r: np.ndarray, n_theta: int, n_k: int) -> np.ndarray:
    """a[i, k] = mean_m exp(-i k theta_m) F(r_i exp(i theta_m)), k < n_k, from one FFT of F per radius.

    With theta_m = 2 pi (m + 1/2) / n_theta, a[i, k] is FFT bin k mod n_theta times exp(-i pi k / n_theta)
    / n_theta, for k past n_theta too.  On the polar rule with radial weights W_i,
    (1/pi) int conj(z)^k F(z) (1-|z|^2)^(2B-2) dA is then sum_i W_i r_i^k a[i, k].
    """
    k = np.arange(n_k)
    spectrum = np.fft.fft(F.values(r[:, None] * np.exp(1j * angular_grid(n_theta).nodes)), axis=1)
    return spectrum[:, k % n_theta] * (np.exp(-1j * math.pi * k / n_theta) / n_theta)


# A session meets about 4 sizes x 9 coefficient lengths x 2 rules; a plan holds len(g) * size / n_theta pairs.
@functools.lru_cache(maxsize=128)
def _fold_plan(d: int, size: int, n_theta: int) -> tuple[np.ndarray, ...]:
    """The pairs j < d, k < size with j = k (mod n_theta), in increasing k: j, k, j + k and (-1)^((k-j)/n_theta).

    Built once per (d, size, n_theta); read-only arrays.  The pairs with k < m are the prefix up to
    ``np.searchsorted(k, m)``, so one plan serves every length m <= size.
    """
    j = np.arange(d)[:, None]
    k = j % n_theta + n_theta * np.arange(-(-size // n_theta))
    pair = k < size
    j, k = np.broadcast_to(j, k.shape)[pair], k[pair]
    order = np.argsort(k, kind="stable")
    j, k = j[order], k[order]
    plan = (j, k, j + k, 1 - 2 * ((k - j) // n_theta % 2))
    for array in plan:
        array.flags.writeable = False
    return plan


def _folded_sum(g: np.ndarray, h: np.ndarray, n_r: int, B: float, n_theta: int) -> complex:
    """sum_i W_i sum_k h_k r_i^k a_k(r_i) for F = sum_j g_j z^j on the n_r x n_theta polar rule, sampling no F.

    The midpoint rule's angular coefficients of a polynomial are exact alias sums,
    a_k(r) = sum_{j = k mod n_theta} (-1)^((k-j)/n_theta) g_j r^j, so only the pairs j = k (mod n_theta)
    contribute, each with the radial moment sum_i W_i r_i^(j+k): at most len(g) * ceil(len(h) / n_theta)
    pairs, gathered from the memoized plan and moment table for the next powers of two.
    """
    j, k, jk, sign = _fold_plan(g.size, 1 << (h.size - 1).bit_length(), n_theta)
    moments = quadrature.radial_moments(n_r, B, 1 << (g.size + h.size - 2).bit_length())
    m = np.searchsorted(k, h.size)
    return complex(np.sum(sign[:m] * g[j[:m]] * h[k[:m]] * moments[jk[:m]]))


def transferred_apply(F: BergmanFunction, w, B: float, R) -> complex:
    """Apply the transferred localization operator to F at the point w.

    (1/pi) int_D P_s(z, w) F(z) (1 - |z|^2)^(2B-2) dA(z) with s = R^2 on the
    polar rule DISK_RULE, kernel series sum_k c_k (conj(z) w)^k (cut for the
    fine rule) summed angle first: sum_i W_i sum_k c_k r_i^k w^k a_k(r_i),
    where a_k(r) are F's angular Fourier coefficients on the midpoint rule.
    A coefficient function folds its coefficients into a_k(r) exactly, in
    closed form; an evaluator is sampled and takes one FFT per radius.  Both
    give the same discrete sum.  The result is recomputed on the rule with
    twice the radii and angles; if the two values differ by more than
    TRANSFER_REFINE_TOL times max(|fine|, 1), or either is NaN, AccuracyError
    is raised, otherwise the refined value is returned, which on basis
    elements is the eigenvalue action.
    """
    w, R = as_disk(w), as_radius(R)
    n_r, n_theta = quadrature.DISK_RULE
    c = kernel_series_coefficients(B, R * R, math.sqrt(np.max(radial_jacobi_grid(2 * n_r, B).nodes)) * abs(w))
    k = np.arange(c.size)
    h = c * w ** k
    g = None if F.coefficients is None else F.coefficients * basis_norms(F.coefficients.size, F.B)

    def evaluate(n: int, nt: int) -> complex:
        if g is not None:
            return _folded_sum(g, h, n, B, nt)
        radial = radial_jacobi_grid(n, B)
        r = np.sqrt(radial.nodes)
        return complex(radial.weights @ ((r[:, None] ** k * _angular_coefficients(F, r, nt, c.size)) @ h))

    coarse, fine = evaluate(n_r, n_theta), evaluate(2 * n_r, 2 * n_theta)
    if not abs(fine - coarse) <= TRANSFER_REFINE_TOL * max(abs(fine), 1.0):  # a NaN refuses too
        raise AccuracyError(f"disk quadrature did not converge: refinement moved the value by "
                            f"{abs(fine - coarse):.3e} (tol {TRANSFER_REFINE_TOL:.1e})")
    return fine
