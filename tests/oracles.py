"""Independent oracles used to derive expected test values.

Each routine here deliberately avoids the implementation path it is used
to check: integrals come from adaptive Simpson, Laguerre values from the
generating-function power series, Jacobi values and negative binomial
weights from exact rational arithmetic, and long series from brute-force
partial sums.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12, max_depth: int = 60) -> float:
    """Classic adaptive Simpson with Richardson correction."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flmid = f(lmid)
        frmid = f(rmid)
        left = simpson(lo, mid, flo, flmid, fmid)
        right = simpson(mid, hi, fmid, frmid, fhi)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, flmid, fmid, left, eps / 2.0, depth + 1)
                + recurse(mid, hi, fmid, frmid, fhi, right, eps / 2.0, depth + 1))

    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def laguerre_from_generating_series(j: int, alpha: float, x: float, order: int = 40) -> float:
    """Coefficient of t^j in (1-t)^(-alpha-1) exp(-t x / (1-t)).

    Multiplies the two power series with exact term recurrences; ``order``
    only needs to exceed j.
    """
    order = max(order, j + 1)
    # (1-t)^(-alpha-1) = sum binom(alpha + n, n) t^n
    binom = [1.0]
    for n in range(1, order):
        binom.append(binom[-1] * (alpha + n) / n)
    # exp(-x t / (1-t)) = sum_m (-x)^m / m! * t^m (1-t)^(-m)
    coeff = [0.0] * order
    for m in range(order):
        base = (-x) ** m / math.factorial(m)
        # t^m (1-t)^(-m) = sum_i binom(m - 1 + i, i) t^(m + i)
        c = 1.0
        for i in range(order - m):
            coeff[m + i] += base * c
            c = c * (m + i) / (i + 1.0)
    value = 0.0
    for n in range(j + 1):
        value += binom[n] * coeff[j - n]
    return value


def jacobi_binomial_sum(k: int, alpha, beta, x) -> float:
    """Finite binomial-sum form of P_k^(alpha, beta); exact in Fraction arithmetic.

    sum_s C(k+alpha, k-s) C(k+beta, s) ((x-1)/2)^s ((x+1)/2)^(k-s).
    """
    alpha = Fraction(alpha).limit_denominator(10 ** 12)
    beta = Fraction(beta).limit_denominator(10 ** 12)
    x = Fraction(x).limit_denominator(10 ** 12)

    def gen_binom(top: Fraction, count: int) -> Fraction:
        out = Fraction(1)
        for i in range(count):
            out *= (top - i) / (i + 1)
        return out

    total = Fraction(0)
    for s in range(k + 1):
        total += (gen_binom(k + alpha, k - s) * gen_binom(k + beta, s)
                  * ((x - 1) / 2) ** s * ((x + 1) / 2) ** (k - s))
    return float(total)


def hypergeometric_series(a: float, b: float, c: float, z: complex, terms: int = 4000) -> complex:
    """Plain partial sum of the 2F1 series."""
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    for k in range(terms):
        term = term * (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def appell_f1_rowwise(a, b1, b2, c, u, v, rows: int = 300) -> complex:
    """Brute-force F1 summed row by row (a different order than the package)."""
    total = 0.0 + 0.0j
    row_head = 1.0 + 0.0j
    for j in range(rows):
        term = row_head
        total += term
        for k in range(rows):
            term = term * (a + j + k) * (b2 + k) / ((k + 1.0) * (c + j + k)) * v
            total += term
            if abs(term) < 1e-20:
                break
        row_head = row_head * (a + j) * (b1 + j) / ((j + 1.0) * (c + j)) * u
        if abs(row_head) < 1e-20:
            break
    return total


def appell_f3_rowwise(a, a2, b1, b2, c, u, v, rows: int = 300) -> complex:
    """Brute-force F3 summed row by row (a different order than the package)."""
    total = 0.0 + 0.0j
    row_head = 1.0 + 0.0j
    for j in range(rows):
        term = row_head
        total += term
        for k in range(rows):
            term = term * (a2 + k) * (b2 + k) / ((k + 1.0) * (c + j + k)) * v
            total += term
            if abs(term) < 1e-20:
                break
        row_head = row_head * (a + j) * (b1 + j) / ((j + 1.0) * (c + j)) * u
        if abs(row_head) < 1e-20:
            break
    return total


def nb_weights_exact(a_max: int, b: float) -> list[float]:
    """Gamma(b+a) / (a! Gamma(b)), a = 0..a_max, each the exact rational prod_{i<=a} (b+i-1)/i rounded once.

    b is taken exactly, as Fraction(b); numerator and denominator stay integers, and
    int / int true division rounds the quotient correctly.
    """
    b = Fraction(b)
    num, den, out = 1, 1, [1.0]
    for i in range(1, a_max + 1):
        num *= b.numerator + (i - 1) * b.denominator
        den *= i * b.denominator
        out.append(num / den)
    return out


def nb_pmf_direct(j: int, B: float, p: float) -> float:
    """Negative binomial pmf from a plain product, no log-gamma route."""
    coeff = 1.0
    for i in range(j):
        coeff *= (2.0 * B + i) / (i + 1.0)
    return coeff * p ** j * (1.0 - p) ** (2.0 * B)


def leakage_bound_bruteforce(p: float, B: float, R: float, reg_inc_beta, terms: int = 2000) -> float:
    """Long partial sum of the squared-CDF expectation."""
    total = 0.0
    for j in range(terms):
        total += reg_inc_beta(R * R, j + 1.0, 2.0 * B - 1.0) ** 2 * nb_pmf_direct(j, B, p)
    return math.sqrt(total)


def dense_disk_apply(F, w: complex, B: float, s: float, n_r: int, n_theta: int,
                     kernel_series, disk_grid) -> complex:
    """Transferred operator on the n_r x n_theta disk rule, one dense kernel series per node."""
    grid = disk_grid(n_r, n_theta, B)
    return complex(grid.weights @ (kernel_series(grid.nodes, w, B, s) * F(grid.nodes)) / math.pi)


def kernel_series_coefficients_unmemoized(B: float, s: float, x_max: float, specfun):
    """The kernel series' coefficient cut with every array rebuilt per call, from ``specfun``'s tables.

    The same expressions and the same walk n = 64, 128, ... as the memoized cut; None where that one
    raises ConvergenceError.
    """
    two_b, n = 2.0 * B, 64
    while True:
        n = min(n, specfun.SERIES_MAX_TERMS)
        k = np.arange(n + 1.0)
        g = np.exp(math.log(two_b - 1.0) + specfun.log_nb_weights(n + 1, two_b))
        coeffs = specfun.reg_inc_beta_table(s, n, two_b - 1.0) * g[:-1]
        envelope = np.cumsum(coeffs * x_max ** k[:-1])
        ratio = x_max * (two_b + k[1:]) / (k[1:] + 1.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tail = g[1:] * x_max ** k[1:] / (1.0 - ratio)
        cut = np.maximum(specfun.SERIES_REL_TOL * envelope, specfun.SERIES_ABS_TOL)
        done = np.flatnonzero((ratio < 1.0) & (tail <= cut))
        if done.size:
            return coeffs[:done[0] + 1]
        if n == specfun.SERIES_MAX_TERMS:
            return None
        n *= 2
