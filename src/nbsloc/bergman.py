"""Transfer of the localization operator to the weighted Bergman space.

The coherent-state transform sends the j-th Laguerre function to the j-th
orthonormal monomial of the weighted Bergman space, so conjugating the
localization operator by it yields an integral operator whose kernel has
three equivalent descriptions implemented here: the eigenvalue series and
two independent checks of it, a closed form through the first Appell double
series and the s -> 1 limit, the reproducing kernel of the space itself.
The operator is diagonal in the monomials, z^j -> I_s(j+1, 2B-1) z^j, so
``transferred_apply`` applies it to a coefficient function of its own strength
through one eigenvalue table and refuses (DomainError) a function held only as
an evaluator, which ``BergmanFunction.project`` turns into coefficients.  A
``BergmanFunction`` holds exactly one of the two, its coefficients checked by
``states.as_coefficients`` like every coefficient vector of the package.

Accuracy and rule sizes are a fixed contract, not arguments: the kernel
series is cut where its tail falls below specfun's SERIES_REL_TOL;
``BergmanFunction.project`` samples F once per angular rule of PROJECT_ANGLES,
on the fewest radii exact for the coefficients it returns, reads them from
plain FFT bins, compares them with those of the nested half-size rule (the
samples' even-indexed half) and raises AccuracyError past PROJECT_REFINE_TOL.

Everything that does not depend on the point or the function is read from
bounded LRU caches of read-only arrays: specfun's eigenvalue table, the rules
of quadrature and the basis norms of states.

Kernels are parameterized by the Beta upper limit s in (0, 1); the
operator that localizes on the disk of radius R corresponds to s = R^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, ConvergenceError, DomainError
from . import specfun
from .quadrature import angular_grid, radial_jacobi_grid
from .specfun import _check_unit, appell_f1, check_index, horner, log_nb_weights, reg_inc_beta_table
# bergman_basis is not called here, but callers and perfbench's span tracer reach it as bergman.bergman_basis
from .states import (_basis_series, as_coefficients, as_disk, as_disk_point, as_radius, basis_norms,  # noqa: F401
                     bergman_basis, check_strength, laguerre_function, principal_power)

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

PROJECT_REFINE_TOL = 1e-10  # agreement of project's angular rule with the nested half-size rule, relative to |F|
PROJECT_ANGLES = (256, 512, 1024, 2048, 4096)  # project's angular rules, in the order it tries them


@dataclass
class BergmanFunction:
    """Element of the weighted Bergman space, held in exactly one representation.

    Either a finite coefficient vector against the orthonormal monomial basis (``as_coefficients``) or an
    analytic evaluator on the disk, evaluated at a point or over an ndarray of points, which an evaluator
    receives whole (a scalar return is broadcast).  Giving both or neither raises DomainError;
    ``project`` turns an evaluator into coefficients.
    """

    B: float
    coefficients: np.ndarray | None = None
    evaluator: Callable | None = None

    def __post_init__(self):
        if (self.coefficients is None) == (self.evaluator is None):
            raise DomainError("provide either coefficients or an evaluator")
        if self.coefficients is not None:
            self.coefficients = as_coefficients(self.coefficients)
        check_strength(self.B)

    def __call__(self, z):
        """Value at a disk point, or at every point of an ndarray of them."""
        z = as_disk(z)
        if self.coefficients is not None:
            return _basis_series(self.coefficients, self.B, z)
        if isinstance(z, np.ndarray):
            return np.broadcast_to(self.evaluator(z), z.shape).astype(complex)
        return self.evaluator(z)

    def values(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on an array of disk points."""
        return self(np.asarray(points))

    def project(self, j_max: int) -> "BergmanFunction":
        """Disk-quadrature projection onto the first j_max + 1 basis elements.

        c_j = sum_i W_i basis_j(r_i) a_j(r_i) from F's angular Fourier coefficients a_j.  For analytic
        F, r^j a_j(r) has degree j in rho = r^2, so max(2, j_max // 2 + 1) Gauss-Jacobi radii, the fewest
        exact for every j <= j_max, suffice.  F is sampled once per rule, on each n_theta of PROJECT_ANGLES in
        turn; the coefficients of all n_theta angles are returned once they agree to PROJECT_REFINE_TOL times
        F's norm on the rule with those of the n_theta / 2 rule, the samples' even-indexed half; else, as for
        a pole just outside, AccuracyError, at once where that norm is not finite.
        """
        j_max = check_index("j_max", j_max)
        radial = radial_jacobi_grid(max(2, j_max // 2 + 1), self.B)
        r = np.sqrt(radial.nodes)[:, None]
        norms, r_j = basis_norms(j_max + 1, self.B), r ** np.arange(j_max + 1)
        for n_theta in PROJECT_ANGLES:
            values = self.values(r * angular_grid(n_theta).nodes)
            norm = math.sqrt(radial.weights @ np.mean(np.abs(values) ** 2, axis=1))  # Parseval: sum_k |a_k|^2
            if not math.isfinite(norm):
                raise AccuracyError(f"F is not finite on the {n_theta}-angle rule: |F| {norm}")
            coeffs, coarse = (norms * (radial.weights @ (r_j * _angular_coefficients(v, j_max + 1)))
                              for v in (values, values[:, ::2]))
            delta = float(np.max(np.abs(coeffs - coarse), initial=0.0))
            if delta <= PROJECT_REFINE_TOL * norm:
                return BergmanFunction(self.B, coefficients=coeffs)
        raise AccuracyError(f"projection not converged at {n_theta} angular nodes: moved {delta:.3e}, |F| {norm:.3e}")


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
    vectors; a function held only as an evaluator raises DomainError.
    """
    if F.coefficients is None:
        raise DomainError("bargmann_inverse needs coefficients; F.project(j_max) gives them")
    return F.coefficients @ laguerre_function(range(F.coefficients.size), F.B, xi)


def kernel_series_coefficients(B: float, s: float, x_max: float) -> np.ndarray:
    """Coefficients c_k of the kernel series sum_k c_k (conj(z) w)^k.

    c_k = I_s(k+1, 2B-1) (2B-1) Gamma(2B+k)/(k! Gamma(2B)).  Truncated at
    the first k where the geometric tail bound on the remaining
    |coefficient| terms at radius ``x_max`` (the largest |conj(z) w| to be
    evaluated) falls below SERIES_REL_TOL of the accumulated coefficient
    envelope; the incomplete-Beta factors are at most one, so they only
    help the bound.  The candidate table, ``reg_inc_beta_table`` times the weights,
    doubles until it holds that k, or raises ConvergenceError past SERIES_MAX_TERMS or past the float range.
    """
    check_strength(B)
    _check_unit("s", s, closed=())
    _check_unit("x_max", x_max)
    n = 64
    while True:
        n = min(n, specfun.SERIES_MAX_TERMS)
        log_g = math.log(2.0 * B - 1.0) + log_nb_weights(n + 1, 2.0 * B)
        table = reg_inc_beta_table(s, n, 2.0 * B - 1.0)
        k = np.arange(n + 1.0)
        powers = x_max ** k
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # non-finite entries are refused below
            g = np.exp(log_g)
            coeffs = table * g[:-1]
            envelope = np.cumsum(coeffs * powers[:-1])  # nondecreasing: non-finite from its first non-finite term on
            ratio = x_max * (2.0 * B + k[1:]) / (k[1:] + 1.0)
            tail = g[1:] * powers[1:] / (1.0 - ratio)
            cut = np.maximum(specfun.SERIES_REL_TOL * envelope, specfun.SERIES_ABS_TOL)
        done = np.flatnonzero((ratio < 1.0) & (tail <= cut))
        if not math.isfinite(envelope[done[0] if done.size else -1]):
            bad = int(np.argmin(np.isfinite(envelope)))
            raise ConvergenceError(f"kernel series coefficients left the float range at k={bad} at B={B}, s={s}",
                                   terms_used=bad)
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
    table cut for the largest |conj(z) w|.  A value past the float range raises ConvergenceError.
    """
    x = np.conjugate(as_disk(z)) * as_disk(w)
    coeffs = kernel_series_coefficients(B, s, float(np.max(np.abs(x), initial=0.0)))
    with np.errstate(over="ignore", invalid="ignore"):
        value = horner(coeffs, x)
    if not (cmath.isfinite(value) if isinstance(value, complex) else np.isfinite(value).all()):
        raise ConvergenceError(f"kernel series value left the float range at B={B}, s={s}", terms_used=coeffs.size)
    return value


def kernel_closed(z, w, B: float, s: float) -> complex:
    """Closed form of the kernel through the first Appell double series.

    (2B-1)^2 s (1 - s conj(z) w)^(-2B)
      F1(2-2B, 1-2B, 2B; 2; s, s (1 - conj(z) w) / (1 - s conj(z) w)).
    Agrees with ``kernel_series`` for all admissible arguments; ``z`` and ``w`` are one point each.  A value
    past the float range raises ConvergenceError.
    """
    z = as_disk_point(z)
    w = as_disk_point(w)
    check_strength(B)
    _check_unit("s", s, closed=())
    x = z.conjugate() * w
    base = 1.0 - s * x
    second = s * (1.0 - x) / base
    f1 = appell_f1(2.0 - 2.0 * B, 1.0 - 2.0 * B, 2.0 * B, 2.0, s, second)
    value = (2.0 * B - 1.0) ** 2 * s * principal_power(base, -2.0 * B) * f1.value
    if not cmath.isfinite(value):
        raise ConvergenceError(f"closed-form kernel left the float range at B={B}, s={s}", terms_used=f1.terms_used)
    return value


def kernel_limit(z, w, B: float):
    """s -> 1 limit of the kernel: the reproducing kernel (2B-1)(1 - conj(z) w)^(-2B).

    ``z`` and ``w`` may be broadcasting ndarrays.
    """
    check_strength(B)
    return (2.0 * B - 1.0) * principal_power(1.0 - as_disk(z).conjugate() * as_disk(w), -2.0 * B)


def _angular_coefficients(values: np.ndarray, n_k: int) -> np.ndarray:
    """a[i, k] = mean_m exp(-i k theta_m) values[i, m], k < n_k: FFT bin k mod n over n, one FFT per row.

    values[i, m] = F(r_i exp(i theta_m)) on ring i, at the n = values.shape[1] nodes of ``angular_grid(n)``.
    """
    n = values.shape[1]
    return np.fft.fft(values, axis=1)[:, np.arange(n_k) % n] / n


def transferred_apply(F: BergmanFunction, w, B: float, R) -> complex:
    """Apply the transferred localization operator to F at the point w.

    (1/pi) int_D P_s(z, w) F(z) (1 - |z|^2)^(2B-2) dA(z) with s = R^2.  The
    operator sends z^j to I_s(j+1, 2B-1) z^j, so a coefficient function
    F = sum_j f_j basis_j returns sum_j I_s(j+1, 2B-1) f_j basis_j(w), from the
    shared eigenvalue table ``reg_inc_beta_table`` and Horner's rule: no
    quadrature and no AccuracyError.  The operator acts on functions of its own
    strength, so B other than F.B raises DomainError, as does a function held
    only as an evaluator; ``F.project(j_max)`` gives its coefficients.
    """
    w, R = as_disk(w), as_radius(R)
    check_strength(B)
    if B != F.B:
        raise DomainError(f"the operator at B={B} acts on functions of strength B, got F.B={F.B}")
    if F.coefficients is None:
        raise DomainError("transferred_apply needs coefficients; F.project(j_max) gives them")
    f = F.coefficients
    return _basis_series(reg_inc_beta_table(R * R, f.size, 2.0 * B - 1.0) * f, F.B, w) if f.size else 0j
