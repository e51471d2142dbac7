"""Transfer of the localization operator to the weighted Bergman space.

The coherent-state transform sends the j-th Laguerre function to the j-th
orthonormal monomial of the weighted Bergman space, so conjugating the
localization operator by it yields an integral operator whose kernel has
three equivalent descriptions implemented here: the eigenvalue series,
which applies the operator, and two independent checks of it, a closed
form through the first Appell double series and the s -> 1 limit, the
reproducing kernel of the space itself.  Disk integrals use the polar
rule, summed angle first by one FFT of F per radius.

Kernels are parameterized by the Beta upper limit s in (0, 1); the
operator that localizes on the disk of radius R corresponds to s = R^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, ConvergenceError, DomainError, UnsupportedRepresentationError
from .quadrature import angular_grid, radial_jacobi_grid
from .specfun import SeriesControl, appell_f1, horner, log_nb_weights, reg_inc_beta_table
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
PROJECT_THETAS = tuple(128 << i for i in range(6))  # project's angular rules, 128 to 4096 nodes


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

        c_j = sum_i W_i basis_j(r_i) a_j(r_i) from F's angular Fourier coefficients a_j (exact in r
        for analytic F), doubling n_theta through PROJECT_THETAS until two coefficient vectors agree
        to PROJECT_REFINE_TOL times F's norm; else, as for a pole just outside, AccuracyError.
        """
        if j_max < 0:
            raise DomainError(f"needs j_max >= 0, got {j_max}")
        n_r, last = max(64, j_max // 2 + 1), None
        norms, j = basis_norms(j_max + 1, self.B), np.arange(j_max + 1)
        for n_theta in PROJECT_THETAS:
            radial, r, a = _angular_coefficients(self, self.B, n_r, n_theta, max(n_theta, j_max + 1))
            coeffs = norms * (radial.weights @ (r[:, None] ** j * a[:, :j_max + 1]))
            norm = math.sqrt(radial.weights @ np.sum(np.abs(a[:, :n_theta]) ** 2, axis=1))  # Parseval
            delta = math.inf if last is None else float(np.max(np.abs(coeffs - last), initial=0.0))
            if delta <= PROJECT_REFINE_TOL * norm:
                return BergmanFunction(self.B, coefficients=coeffs, evaluator=self.evaluator)
            last = coeffs
        raise AccuracyError(f"projection not converged at {n_theta} angular nodes: moved {delta:.3e}, |F| {norm:.3e}")

    def check_analytic(self, n_points: int = 5, step: float = 1e-4,
                       tol: float = 1e-6, seed: int = 20260808) -> None:
        """Cauchy-Riemann finite-difference spot check at random interior points."""
        u = np.random.Generator(np.random.PCG64(seed)).random((n_points, 2))
        z = 0.7 * np.sqrt(u[:, 0]) * np.exp(2j * math.pi * u[:, 1])
        dx, dy = ((self(z + h) - self(z - h)) / (2.0 * step) for h in (step, 1j * step))
        residual = np.abs(dx + 1j * dy)
        bad = np.flatnonzero(residual > tol * np.maximum(1.0, np.maximum(abs(dx), abs(dy))))
        if bad.size:
            raise DomainError(f"Cauchy-Riemann residual {residual[bad[0]]:.3e} at z={z[bad[0]]:.4f}; not analytic")


def bargmann_transform(coeffs, z, B: float):
    """Coherent-state (second Bargmann) transform of f = sum c_j laguerre_j.

    Linear coefficient map: sends the j-th Laguerre function to the j-th
    Bergman basis element, so the value is sum_j c_j basis_j(z); ``z`` may
    be an ndarray.
    """
    return BergmanFunction(B, coefficients=coeffs)(z)


def bargmann_inverse(F: BergmanFunction, xi: float, J: int | None = None) -> complex:
    """Inverse transform back to the half-line, truncated at index J.

    Exact two-sided inverse of ``bargmann_transform`` on coefficient
    vectors; requires the coefficient representation.
    """
    if J is not None and J < 0:
        raise DomainError(f"needs J >= 0, got {J}")
    coeffs = F.coefficients_or_raise()[:None if J is None else J + 1]
    return sum((c * laguerre_function(j, F.B, xi) for j, c in enumerate(coeffs) if c != 0.0), 0j)


def kernel_series_coefficients(B: float, s: float, x_max: float,
                               ctl: SeriesControl = SeriesControl()) -> np.ndarray:
    """Coefficients c_k of the kernel series sum_k c_k (conj(z) w)^k.

    c_k = I_s(k+1, 2B-1) (2B-1) Gamma(2B+k)/(k! Gamma(2B)).  Truncated at
    the first k where the geometric tail bound on the remaining
    |coefficient| terms at radius ``x_max`` (the largest |conj(z) w| to be
    evaluated) falls below ctl.rel_tol of the accumulated coefficient
    envelope; the incomplete-Beta factors are at most one, so they only
    help the bound.  The candidate table doubles until it holds that k.
    """
    check_strength(B)
    if not 0.0 < s < 1.0:
        raise DomainError(f"needs 0 < s < 1, got s={s}")
    if not 0.0 <= x_max < 1.0:
        raise DomainError(f"needs 0 <= x_max < 1, got {x_max}")
    two_b, n = 2.0 * B, 64
    while True:
        n = min(n, ctl.max_terms)
        k = np.arange(n + 1.0)
        # (2B-1) Gamma(2B+k) / (k! Gamma(2B)), the coefficients without their I-factor
        g = np.exp(math.log(two_b - 1.0) + log_nb_weights(n + 1, two_b))
        coeffs = reg_inc_beta_table(s, n, two_b - 1.0) * g[:-1]
        envelope = np.cumsum(coeffs * x_max ** k[:-1])
        ratio = x_max * (two_b + k[1:]) / (k[1:] + 1.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tail = g[1:] * x_max ** k[1:] / (1.0 - ratio)
        done = np.flatnonzero((ratio < 1.0) & (tail <= np.maximum(ctl.rel_tol * envelope, ctl.abs_tol)))
        if done.size:
            return coeffs[:done[0] + 1]
        if n == ctl.max_terms:
            raise ConvergenceError(f"kernel series needs more than {n} terms at x_max={x_max}",
                                   terms_used=n)
        n *= 2


def kernel_series(z, w, B: float, s: float, ctl: SeriesControl = SeriesControl()):
    """Kernel of the transferred operator as its eigenvalue series.

    sum_k I_s(k+1, 2B-1) conj(basis_k(z)) basis_k(w); Hermitian in (z, w).
    ``z`` and ``w`` may be broadcasting ndarrays, served by one coefficient
    table cut for the largest |conj(z) w|.
    """
    x = np.conjugate(as_disk(z)) * as_disk(w)
    coeffs = kernel_series_coefficients(B, s, float(np.max(np.abs(x))), ctl)
    return horner(coeffs, x)


def kernel_closed(z, w, B: float, s: float, ctl: SeriesControl = SeriesControl()) -> complex:
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
    f1 = appell_f1(2.0 - 2.0 * B, 1.0 - 2.0 * B, 2.0 * B, 2.0, s, second, ctl)
    return (2.0 * B - 1.0) ** 2 * s * principal_power(base, -2.0 * B) * f1.value


def kernel_limit(z, w, B: float):
    """s -> 1 limit of the kernel: the reproducing kernel (2B-1)(1 - conj(z) w)^(-2B).

    ``z`` and ``w`` may be broadcasting ndarrays.
    """
    check_strength(B)
    return (2.0 * B - 1.0) * principal_power(1.0 - as_disk(z).conjugate() * as_disk(w), -2.0 * B)


def _angular_coefficients(F: BergmanFunction, B: float, n_r: int, n_theta: int, n_k: int):
    """Radial rule, r_i and a[i, k] = mean_m exp(-i k theta_m) F(r_i exp(i theta_m)), k < n_k.

    With theta_m = 2 pi (m + 1/2) / n_theta, a[i, k] is FFT bin k mod n_theta times exp(-i pi k / n_theta)
    / n_theta, for k past n_theta too.  The polar rule's (1/pi) int conj(z)^k F(z) (1-|z|^2)^(2B-2) dA
    is then sum_i W_i r_i^k a[i, k].
    """
    radial = radial_jacobi_grid(n_r, B)
    r, k = np.sqrt(radial.nodes), np.arange(n_k)
    spectrum = np.fft.fft(F.values(r[:, None] * np.exp(1j * angular_grid(n_theta).nodes)), axis=1)
    return radial, r, spectrum[:, k % n_theta] * (np.exp(-1j * math.pi * k / n_theta) / n_theta)


def transferred_apply(F: BergmanFunction, w, B: float, R, n_r: int = 64, n_theta: int = 128,
                      refine_tol: float = 1e-8) -> complex:
    """Apply the transferred localization operator to F at the point w.

    (1/pi) int_D P_s(z, w) F(z) (1 - |z|^2)^(2B-2) dA(z) with s = R^2 on the
    polar rule, kernel series sum_k c_k (conj(z) w)^k (cut for the fine rule)
    summed angle first: sum_i W_i sum_k c_k r_i^k w^k a_k(r_i).  The result
    is recomputed on a doubled rule; if the two values disagree beyond
    ``refine_tol`` (relatively) an AccuracyError is raised, otherwise the
    refined value is returned, which on basis elements is the eigenvalue action.
    """
    w, R = as_disk(w), as_radius(R)
    c = kernel_series_coefficients(B, R * R, math.sqrt(np.max(radial_jacobi_grid(2 * n_r, B).nodes)) * abs(w))
    k = np.arange(c.size)

    def evaluate(nr: int, nt: int) -> complex:
        radial, r, a = _angular_coefficients(F, B, nr, nt, c.size)
        return complex(radial.weights @ ((r[:, None] ** k * a) @ (c * w ** k)))

    coarse, fine = evaluate(n_r, n_theta), evaluate(2 * n_r, 2 * n_theta)
    if not abs(fine - coarse) <= refine_tol * max(abs(fine), 1.0):  # a NaN refuses too
        raise AccuracyError(f"disk quadrature not converged: refinement moved the value by "
                            f"{abs(fine - coarse):.3e} (tol {refine_tol:.1e})")
    return fine
