"""Independent oracles used to derive expected test values.

Each routine here deliberately avoids the implementation path it is used
to check: integrals come from adaptive Simpson, Laguerre values from the
generating-function power series, Jacobi values and negative binomial
weights from exact rational arithmetic, and long series from brute-force
partial sums.  Where a routine pins a rewrite, it keeps the package's
earlier scalar loop: 2F1 term by term, bit for bit, and the F1/F3
anti-diagonal loop, whose values the Cauchy-product driver meets within a
rounding budget.
"""

from __future__ import annotations

import cmath
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


def appell_f1_mpmath(a, b1, b2, c, u, v, anti_diagonals: int = 400, dps: int = 30) -> complex:
    """F1(a; b1, b2; c; u, v) summed over a fixed number of anti-diagonals in ``dps``-digit mpmath.

    The caller picks ``anti_diagonals`` past the point where the neglected tail matters.
    """
    import mpmath

    with mpmath.workdps(dps):
        a, b1, b2, c, u, v = map(mpmath.mpmathify, (a, b1, b2, c, u, v))
        row, col, front, total = [mpmath.mpf(1)], [mpmath.mpf(1)], mpmath.mpf(1), mpmath.mpf(1)
        for n in range(1, anti_diagonals + 1):
            row.append(row[-1] * (b1 + n - 1) / n * u)
            col.append(col[-1] * (b2 + n - 1) / n * v)
            front *= (a + n - 1) / (c + n - 1)
            total += front * mpmath.fdot(row, col[::-1])
        return complex(total)


def anti_diagonal_sum_loop(specfun, name, row_params, col_params, front_num, front_den, u, v):
    """The package's former F1/F3 driver: one list of products and two exact sums per anti-diagonal.

    Each block is summed exactly (math.fsum) and rounded once into the running total; row_n is formed
    as row_(n-1) (p + n - 1) / n u, so F3's rows overflow one anti-diagonal before row_n itself does.
    The domain is decided first by the former rules, one per series: F1(a; b1, b2; c) lets |u| >= 1 where
    a or b1 terminates, |v| where a or b2 does, and stops at a's stop or b1's plus b2's; F3(a, a2; b1, b2; c)
    lets |u| >= 1 where a or b1 terminates, |v| where a2 or b2 does, and stops at the sum of the two.
    """
    if name == "F1":
        (b1,), (b2,), (a,) = row_params, col_params, front_num
        u_stop, v_stop = specfun._stop(a, b1), specfun._stop(a, b2)
        b1_stop, b2_stop = specfun._nonpositive_int(b1), specfun._nonpositive_int(b2)
        joint = None if b1_stop is None or b2_stop is None else b1_stop + b2_stop
        n_stop = min((t for t in (specfun._nonpositive_int(a), joint) if t is not None), default=None)
    else:
        (a, b1), (a2, b2) = row_params, col_params
        u_stop, v_stop = specfun._stop(a, b1), specfun._stop(a2, b2)
        n_stop = None if u_stop is None or v_stop is None else u_stop + v_stop
    for z, label, stop in ((u, "u", u_stop), (v, "v", v_stop)):
        if abs(z) >= 1.0 and stop is None:
            raise specfun.DomainError(f"{name} needs |{label}| < 1 (or a terminating index), got |{label}|={abs(z)}")
    (c,) = front_den
    c_pole = specfun._nonpositive_int(c)
    if c_pole is not None and (n_stop is None or n_stop > c_pole):
        raise specfun.DomainError(f"{name} undefined: c={c} is a non-positive integer")
    row = [complex(1.0)]
    col = [complex(1.0)]
    front = 1.0
    total = complex(1.0)
    terms = 1
    small = 0
    for n in range(1, specfun.SERIES_MAX_TERMS + 1):
        if n_stop is not None and n > n_stop:
            return specfun.HypergeomResult(total, terms)
        row.append(row[-1] * math.prod([p + n - 1.0 for p in row_params]) / n * u)
        col.append(col[-1] * math.prod([p + n - 1.0 for p in col_params]) / n * v)
        front = front * math.prod([p + n - 1.0 for p in front_num]) / math.prod([p + n - 1.0 for p in front_den])
        products = [row[j] * col[n - j] for j in range(n + 1)]
        try:
            block = front * complex(math.fsum(p.real for p in products), math.fsum(p.imag for p in products))
        except (OverflowError, ValueError):
            block = complex(math.nan)
        if not cmath.isfinite(block):
            raise specfun.ConvergenceError(f"{name} terms left the float range at anti-diagonal {n}",
                                           terms_used=terms)
        total += block
        terms += n + 1
        if abs(block) <= max(specfun.SERIES_REL_TOL * abs(total), specfun.SERIES_ABS_TOL):
            small += 1
            if small >= 3:
                return specfun.HypergeomResult(total, terms)
        else:
            small = 0
    raise specfun.ConvergenceError(
        f"{name} did not converge within {specfun.SERIES_MAX_TERMS} anti-diagonals", terms_used=terms)


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


def leakage_bound_mpmath(p: float, B: float, R: float, n: int, dps: int = 50):
    """The leakage bound sqrt(sum_j t_j^2), t_j = I_{R^2}(j+1, 2B-1) sqrt(pmf_j), j < n, in ``dps`` digits.

    mpmath's incomplete Beta at the top index, then the exact downward recurrence I_s(a, b) =
    I_s(a+1, b) + s^a (1-s)^b / (a B(a, b)), its steps by their ratio; the pmf by its term ratio.
    s is the double R * R, as the package forms it.  Returns the bound and the unit vector t / |t|
    (the extremal direction at a positive real z0), as floats, after checking that the tail past n
    is below 1e-30 of the sum.
    """
    import mpmath

    with mpmath.workdps(dps):
        s, b, q, shape = mpmath.mpf(R * R), 2 * mpmath.mpf(B) - 1, mpmath.mpf(p), 2 * mpmath.mpf(B)
        lam = [mpmath.betainc(n, b, 0, s, regularized=True)]
        step = s ** (n - 1) * (1 - s) ** b / ((n - 1) * mpmath.beta(n - 1, b))  # the step at a = n - 1
        for a in range(n - 1, 0, -1):
            lam.append(lam[-1] + step)
            step *= a / (s * (a + b - 1))  # the step at a - 1 over the step at a, exactly
        lam.reverse()
        pmf = [(1 - q) ** shape]
        for j in range(n - 1):
            pmf.append(pmf[-1] * q * (shape + j) / (j + 1))
        t = [lam_j * mpmath.sqrt(pmf_j) for lam_j, pmf_j in zip(lam, pmf)]
        total = mpmath.fsum(t_j ** 2 for t_j in t)
        tail = lam[-1] ** 2 * mpmath.betainc(n, shape, 0, q, regularized=True)
        assert tail <= mpmath.mpf("1e-30") * total
        bound = mpmath.sqrt(total)
        return float(bound), np.array([float(t_j / bound) for t_j in t])


def dense_disk_apply(F, w: complex, B: float, R: float, n_r: int = 64, n_theta: int = 160) -> complex:
    """Transferred operator as the reproducing kernel's integral over |z| < R, on a dense polar rule.

    ((2B-1)/pi) int_{|z|<R} (1 - w conj(z))^(-2B) F(z) (1 - |z|^2)^(2B-2) dA(z), with n_r Gauss-Legendre
    nodes in t = |z|^2 on [0, R^2] and n_theta midpoint angles: no incomplete Beta function and no
    kernel series.
    """
    x, wx = np.polynomial.legendre.leggauss(n_r)
    s = R * R
    t, wt = 0.5 * s * (x + 1.0), 0.5 * s * wx
    z = np.sqrt(t)[:, None] * np.exp(2j * np.pi * (np.arange(n_theta) + 0.5) / n_theta)
    kernel = (2.0 * B - 1.0) * (1.0 - w * np.conjugate(z)) ** (-2.0 * B)
    weights = (wt * (1.0 - t) ** (2.0 * B - 2.0))[:, None] / n_theta  # dA / pi = dt dtheta / (2 pi), 2 pi / n_theta per angle
    return complex(np.sum(weights * kernel * F(z)))


def kernel_series_coefficients_unmemoized(B: float, s: float, x_max: float, specfun):
    """The kernel series' coefficient cut written out, from ``specfun``'s tables.

    The same expressions and the same walk n = 64, 128, ... as the library's cut; None where that one
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


def gauss_jacobi_dense(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule on [0, 1] for (1-x)^alpha from the eigenvalues of the whole n-square Jacobi matrix.

    The nodes are eigenvalues of the dense tridiagonal matrix, Legendre (alpha = 0) or not; one run of the
    orthonormal recurrence at every node gives a Newton step and the Christoffel weight, rescaled by powers
    of two on the way, with the mass 1 / (alpha + 1).
    """
    mu0 = 1.0 / (alpha + 1.0)
    k = np.arange(1.0, n)
    s = 2.0 * k + alpha
    diag = np.concatenate(([1.0 / (alpha + 2.0)], (2.0 * k * (k + alpha + 1.0) + alpha) / (s * (s + 2.0))))
    off = k * (k + alpha) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    q_prev, q, dq_prev, dq = np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n)
    sum_qq, sum_qdq, shift = np.zeros(n), np.zeros(n), np.zeros(n, dtype=int)
    c_prev = 0.0
    for a, c in zip(diag.tolist(), off.tolist() + [1.0]):
        sum_qq += q * q
        sum_qdq += q * dq
        t = x - a
        q_prev, q, dq_prev, dq = q, (t * q - c_prev * q_prev) / c, dq, (q + t * dq - c_prev * dq_prev) / c
        c_prev = c
        e = np.frexp(np.maximum(abs(q_prev), abs(q)))[1]  # every step: exact, and simpler than a growth bound
        q_prev, q, dq_prev, dq = (np.ldexp(v, -e) for v in (q_prev, q, dq_prev, dq))
        sum_qq, sum_qdq, shift = np.ldexp(sum_qq, -2 * e), np.ldexp(sum_qdq, -2 * e), shift + e
    step = -q / dq
    return x + step, np.ldexp(mu0 / (sum_qq + 2.0 * step * sum_qdq), -2 * shift)


def gauss_2f1_sequential(a: float, b: float, c: float, z: complex, specfun):
    """2F1(a, b, c; z) for |z| <= 1, z != 1, summed one term at a time with ``specfun``'s stopping rule.

    The same rule as the package: stop at the Pochhammer index, at an exactly zero term, or after two
    consecutive terms at most max(SERIES_REL_TOL |sum|, SERIES_ABS_TOL).  Returns (value, terms used,
    sum of the terms' moduli), or None where no stop is met within SERIES_MAX_TERMS terms.
    """
    stop = specfun._stop(a, b)
    term, total, small, size = complex(1.0), complex(1.0), 0, 1.0
    for k in range(specfun.SERIES_MAX_TERMS):
        if stop is not None and k >= stop:
            return total, k + 1, size
        term = term * (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        size += abs(term)
        if term == 0.0:
            return total, k + 1, size
        if abs(term) <= max(specfun.SERIES_REL_TOL * abs(total), specfun.SERIES_ABS_TOL):
            small += 1
            if small >= 2:
                return total, k + 1, size
        else:
            small = 0
    return None


def hypergeometric_partial_sum_exact(a: float, b: float, c: float, z: float, terms: int) -> float:
    """1 + sum_{k=1}^{terms} (a)_k (b)_k / ((c)_k k!) z^k for real a, b, c, z, in fixed point with 400 fraction bits.

    Every float is a dyadic rational, so each term ratio is a ratio of integers; one floor division per
    term loses at most 2^-400, far below double rounding.
    """
    (an, ad), (bn, bd), (cn, cd), (zn, zd) = (Fraction(v).as_integer_ratio() for v in (a, b, c, z))
    one = 1 << 400
    term, total = one, one
    for k in range(terms):
        term = term * ((an + k * ad) * (bn + k * bd) * cd * zn) // (ad * bd * (cn + k * cd) * (k + 1) * zd)
        total += term
    return float(Fraction(total, one))


def project_all_bins(F, j_max: int, bergman, quadrature):
    """``F.project(j_max)``'s coefficients with every FFT bin phase-shifted and F's norm from the bins.

    The same radial rule, refinement walk and tolerance as ``project``: F sampled once per rule, on
    n_theta = 256 to 4,096 angles, its coefficients compared with those of the even-indexed n_theta / 2
    angles (a uniform rule offset by a quarter of its spacing), with the angles' phasors rebuilt per rule
    and all bins of both rules kept; None where no rule agrees with its half.
    """
    radial = quadrature.radial_jacobi_grid(max(2, j_max // 2 + 1), F.B)
    r, j = np.sqrt(radial.nodes), np.arange(j_max + 1)
    norms = np.exp(0.5 * (math.log(2.0 * F.B - 1.0) + bergman.log_nb_weights(j_max + 1, 2.0 * F.B)))
    for n_theta in (quadrature.DISK_RULE[1] << i for i in range(1, bergman.PROJECT_RULES)):
        k = np.arange(max(n_theta, j_max + 1))
        theta = 2.0 * math.pi * (np.arange(n_theta) + 0.5) / n_theta
        values = F.values(r[:, None] * np.exp(1j * theta))
        phase = np.exp(-1j * math.pi * k / n_theta) / n_theta
        a = np.fft.fft(values, axis=1)[:, k % n_theta] * phase
        half = np.fft.fft(values[:, ::2], axis=1)[:, k % (n_theta // 2)] * (2 * phase)
        coeffs, coarse = (norms * (radial.weights @ (r[:, None] ** j * bins[:, :j_max + 1])) for bins in (a, half))
        norm = math.sqrt(radial.weights @ np.sum(np.abs(a[:, :n_theta]) ** 2, axis=1))
        if np.max(np.abs(coeffs - coarse), initial=0.0) <= bergman.PROJECT_REFINE_TOL * norm:
            return coeffs
    return None


def landau_eigenvalue_three_pass(j: int, params, R: float, locop, quadrature):
    """``landau_eigenvalue`` with the level density evaluated apart on the rule and on each half.

    Returns (coarse, fine) masses, without the refinement test.
    """
    def mass(lo: float, hi: float) -> float:
        nodes, weights = quadrature.mapped_legendre(locop.LANDAU_NODES, lo, hi)
        return float(weights @ locop.landau_density(j, params, nodes))

    s = R * R
    return mass(0.0, s), mass(0.0, 0.5 * s) + mass(0.5 * s, s)


def landau_eigenvalue_mpmath(j: int, B: float, m: int, R: float, dps: int = 40):
    """The level-m eigenvalue, the mass of the level-m density on [0, s], in ``dps`` digits (an mpf).

    With lo = min(m, j), hi = max(m, j) and beta = 2B - 2m - 1, the polynomial is in Bernstein form,
    P_lo^(hi-lo, beta)(1 - 2 rho) = sum_k binom(hi, lo-k) binom(lo+beta, k) (-rho)^k (1-rho)^(lo-k)
    (DLMF 18.5.8).  So the density is its norm times sum_q C_q rho^(hi-lo+q) (1-rho)^(beta-1+2lo-q),
    and each term integrates to an incomplete Beta value, with no large binomials of (1-rho)^(beta-1)
    to cancel.  s is the double R * R, as the package forms it.
    """
    import mpmath

    with mpmath.workdps(dps):
        s, lo, hi, beta = mpmath.mpf(R * R), min(m, j), max(m, j), 2 * mpmath.mpf(B) - 2 * m - 1
        bern = [mpmath.binomial(hi, lo - k) * mpmath.binomial(lo + beta, k) * (-1) ** k for k in range(lo + 1)]
        squared = [mpmath.fsum(bern[k] * bern[q - k] for k in range(max(0, q - lo), min(q, lo) + 1))
                   for q in range(2 * lo + 1)]
        norm = beta * mpmath.gammaprod([lo + 1, beta + 1 + hi], [hi + 1, beta + 1 + lo])
        return norm * mpmath.fsum(c * mpmath.betainc(hi - lo + q + 1, beta + 2 * lo - q, 0, s)
                                  for q, c in enumerate(squared))


def quantization_matrix_element_pointwise(F, j: int, k: int, B: float, grid, states) -> complex:
    """One matrix element by the per-element formula, conj(basis_j) basis_k F at the nodes times the weights.

    The terms are summed exactly (``math.fsum``), free of the rounding of a library reduction.
    """
    z = grid.nodes
    terms = grid.weights * (np.conjugate(states.bergman_basis(j, B, z)) * states.bergman_basis(k, B, z) * F(z))
    return complex(math.fsum(terms.real), math.fsum(terms.imag)) / math.pi


def radial_eigenvalue_pointwise(F, j: int, B: float, nodes: int, quadrature, specfun) -> float:
    """One radial-symbol eigenvalue by the per-element formula: F at each node of the radial rule, one call each.

    The terms are summed exactly (``math.fsum``), free of the rounding of a library reduction; what is
    checked is that node sum, so the normalization 1 / B(j+1, 2B-1) is the library's ``log_nb_weights``.
    """
    grid = quadrature.radial_jacobi_grid(nodes, B)
    fvals = np.asarray([F(r) for r in grid.nodes], dtype=float)
    norm = math.exp(math.log(2.0 * B - 1.0) + specfun.log_nb_weights(j + 1, 2.0 * B)[j])
    return math.fsum(grid.weights * grid.nodes ** j * fvals) * norm
