"""Scalar special functions used throughout the package.

Everything here is self-contained: log-gamma ratios, the table of log
negative binomial weights log(Gamma(b+a)/(a! Gamma(b))), the regularized
incomplete Beta function (continued fraction, and whole tables in its
first parameter by the downward recurrence), generalized Laguerre and
Jacobi polynomials (three-term recurrences), the Gauss hypergeometric
series 2F1, the two-variable double series F1 and F3 (both summed by
one anti-diagonal driver), and Beta random variates from numpy's Beta
generator.

Conventions:
  * every Gamma ratio is formed in logs, never from raw Gamma values, so
    large parameters do not overflow; the weights Gamma(b+a)/(a! Gamma(b))
    behind every basis norm, pmf, density and kernel coefficient come from
    one table, ``log_nb_weights``, a compensated cumulative sum;
  * double series are summed over anti-diagonals j + k = n, declaring
    convergence only after three consecutive anti-diagonal blocks fall
    below tolerance; a non-convergent evaluation raises, it never
    returns a truncated value;
  * randomness comes from numpy's PCG64 generator (128-bit state),
    seeded explicitly, so every sampling call is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "SeriesControl",
    "HypergeomResult",
    "log_gamma",
    "gamma_ratio",
    "log_beta",
    "log_nb_weights",
    "reg_inc_beta",
    "reg_inc_beta_table",
    "inc_beta_steps",
    "horner",
    "laguerre",
    "jacobi",
    "gauss_2f1",
    "appell_f1",
    "appell_f3",
    "sample_beta",
]


@dataclass(frozen=True)
class SeriesControl:
    """Convergence policy for every infinite series in the package.

    rel_tol   -- relative size below which a term/block counts as converged
    abs_tol   -- absolute underflow guard (protects sums near zero)
    max_terms -- cap per summation index before giving up
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-300
    max_terms: int = 100_000

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise DomainError("rel_tol must be positive")
        if self.abs_tol < 0.0:
            raise DomainError("abs_tol must be nonnegative")
        if self.max_terms < 1:
            raise DomainError("max_terms must be at least 1")


@dataclass(frozen=True)
class HypergeomResult:
    """Value of a hypergeometric evaluation plus its convergence record."""

    value: complex
    terms_used: int
    converged: bool


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def gamma_ratio(p: float, q: float) -> float:
    """Gamma(p) / Gamma(q) for p, q > 0, via a log-gamma difference."""
    return math.exp(log_gamma(p) - log_gamma(q))


def log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def log_nb_weights(n: int, b: float) -> np.ndarray:
    """log(Gamma(b+a) / (a! Gamma(b))), a = 0..n-1, the log negative binomial weights of shape b.

    One cumulative sum of t_a = log1p((b-1)/a), with no large log-gamma values to cancel.  The
    t_a share one sign and shrink in size, so every partial sum outweighs the next term and its
    rounding error is exactly t_a - (s_a - s_{a-1}) (Fast2Sum).  Adding back the running sum of
    those errors keeps exp(entry a) within 3.1e-14 of the exact rational for a <= 2000 and
    0 < b <= 101 (69 shapes measured), where the plain sum reaches 1.7e-12.
    """
    if not 0.0 < b < math.inf:
        raise DomainError(f"log_nb_weights requires finite b > 0, got b={b}")
    t = np.zeros(max(n, 0))
    t[1:] = np.log1p((b - 1.0) / np.arange(1.0, n))
    s = t.cumsum()
    t[1:] -= s[1:] - s[:-1]  # now the rounding error of each partial sum
    s += t.cumsum()
    return s


def _beta_cont_frac(a: float, b: float, x: float, max_iter: int = 500) -> float:
    """Continued fraction for the incomplete Beta, by the modified Lentz method."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        num = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        num = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ConvergenceError(
        f"incomplete Beta continued fraction stalled at a={a}, b={b}, x={x}",
        terms_used=max_iter,
    )


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete Beta I_x(a, b), the Beta(a, b) CDF at x.

    Monotone nondecreasing in x with values in [0, 1].
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"reg_inc_beta requires finite a, b > 0, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise DomainError(f"reg_inc_beta requires 0 <= x <= 1, got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    front = math.exp(ln_front)
    # Continued fraction converges fastest on the side where x is small.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def inc_beta_steps(x: float, n: int, b: float) -> np.ndarray:
    """x^a (1-x)^b Gamma(a+b) / (Gamma(a+1) Gamma(b)), a = 0..n-1, each formed in logs.

    The negative binomial law of shape b at x; for a >= 1 also the steps
    I_x(a, b) - I_x(a+1, b) of the downward recurrence.
    """
    if x == 0.0:
        return (np.arange(n) == 0).astype(float)
    return np.exp(log_nb_weights(n, b) + np.arange(float(n)) * math.log(x) + b * math.log1p(-x))


def reg_inc_beta_table(x: float, n: int, b: float) -> np.ndarray:
    """[I_x(1, b), ..., I_x(n, b)]: ``reg_inc_beta`` at a = n, then the downward recurrence.

    I_x(a, b) = I_x(a+1, b) + x^a (1-x)^b / (a B(a, b)) adds a positive step
    each time, so it is stable (Gil, Segura & Temme, Numerical Methods for
    Special Functions, SIAM 2007, ch. 4).
    """
    top = reg_inc_beta(x, float(n), b)  # raises DomainError unless n >= 1
    if x == 0.0 or x == 1.0:
        return np.full(n, top)
    table = np.cumsum(np.concatenate(([top], inc_beta_steps(x, n, b)[:0:-1])))[::-1]  # steps a = n-1..1
    return np.minimum(table, 1.0)  # a CDF; rounding must not push it past one


def horner(coeffs, x):
    """sum_k coeffs[k] x^k by Horner's rule; ``x`` may be a number or an ndarray."""
    # builtin complex arithmetic for a number, in-place array updates otherwise
    x, total = (complex(x), 0j) if np.ndim(x) == 0 else (x, np.zeros(np.shape(x), dtype=complex))
    for c in reversed(np.asarray(coeffs).tolist()):
        total *= x
        total += c
    return total


def laguerre(j: int, alpha: float, x):
    """Generalized Laguerre polynomial L_j^(alpha)(x) by three-term recurrence.

    ``x`` may be a float or an ndarray.
    """
    if j < 0:
        raise DomainError(f"laguerre requires j >= 0, got {j}")
    if not alpha > -1.0:
        raise DomainError(f"laguerre requires alpha > -1, got {alpha}")
    ones = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    p_prev = ones
    if j == 0:
        return p_prev
    p_cur = (1.0 + alpha) * ones - x
    for k in range(1, j):
        p_prev, p_cur = p_cur, (
            (2.0 * k + 1.0 + alpha - x) * p_cur - (k + alpha) * p_prev
        ) / (k + 1.0)
    return p_cur


def jacobi(k: int, alpha: float, beta: float, x):
    """Jacobi polynomial P_k^(alpha, beta)(x) by three-term recurrence.

    ``x`` may be a float or an ndarray.
    """
    if k < 0:
        raise DomainError(f"jacobi requires k >= 0, got {k}")
    if not (alpha > -1.0 and beta > -1.0):
        raise DomainError(f"jacobi requires alpha, beta > -1, got {alpha}, {beta}")
    ones = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    p_prev = ones
    if k == 0:
        return p_prev
    ab = alpha + beta
    p_cur = (alpha + 1.0) * ones + (ab + 2.0) * (x - 1.0) / 2.0
    for n in range(2, k + 1):
        c1 = 2.0 * n * (n + ab) * (2.0 * n + ab - 2.0)
        c2 = 2.0 * n + ab - 1.0
        c3 = (2.0 * n + ab) * (2.0 * n + ab - 2.0)
        c4 = alpha * alpha - beta * beta
        c5 = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * (2.0 * n + ab)
        p_prev, p_cur = p_cur, (c2 * (c3 * x + c4) * p_cur - c5 * p_prev) / c1
    return p_cur


def _nonpositive_int(x: float):
    """If x is a non-positive integer return -x (last surviving Pochhammer index), else None."""
    if x <= 0.0 and float(x).is_integer():
        return int(-x)
    return None


def _gauss_theorem_value(a: float, b: float, c: float) -> float:
    """2F1(a, b, c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)).

    Valid for c - a - b > 0; arguments of Gamma may be negative non-integers,
    handled with sign-tracked log-gamma.
    """

    def signed_log_gamma(x: float):
        if x > 0.0:
            return math.lgamma(x), 1.0
        if float(x).is_integer():
            return math.inf, 0.0  # pole
        sign = -1.0 if (math.floor(-x) % 2 == 0) else 1.0
        return math.lgamma(x), sign

    ln_num1, s1 = signed_log_gamma(c)
    ln_num2, s2 = signed_log_gamma(c - a - b)
    ln_den1, s3 = signed_log_gamma(c - a)
    ln_den2, s4 = signed_log_gamma(c - b)
    if s3 == 0.0 or s4 == 0.0:
        return 0.0  # pole in the denominator kills the value
    if s1 == 0.0 or s2 == 0.0:
        raise DomainError(f"Gauss value undefined at a={a}, b={b}, c={c}")
    return s1 * s2 * s3 * s4 * math.exp(ln_num1 + ln_num2 - ln_den1 - ln_den2)


def _stop(*params):
    """Last surviving index of a product of Pochhammer symbols of ``params``, or None."""
    return min((s for s in map(_nonpositive_int, params) if s is not None), default=None)


def gauss_2f1(a: float, b: float, c: float, z, ctl: SeriesControl = SeriesControl()) -> HypergeomResult:
    """Gauss hypergeometric 2F1(a, b, c; z) on the closed unit disk.

    At z = 1 with Re(c - a - b) > 0 the Gauss theorem value is returned
    directly instead of summing the series.  No analytic continuation is
    attempted for |z| > 1.
    """
    z = complex(z)
    stop = _stop(a, b)
    c_pole = _nonpositive_int(c)
    if c_pole is not None and (stop is None or stop > c_pole):
        raise DomainError(f"2F1 undefined: c={c} is a non-positive integer")
    if abs(z) > 1.0 + 1e-15:
        raise DomainError(f"2F1 series restricted to |z| <= 1, got |z|={abs(z)}")
    if z == 1.0:
        if c - a - b > 0.0:
            return HypergeomResult(complex(_gauss_theorem_value(a, b, c)), 0, True)
        if stop is None:
            raise ConvergenceError(
                f"2F1 divergent at z=1 with c-a-b={c - a - b}", terms_used=0
            )
    term = complex(1.0)
    total = complex(1.0)
    small = 0
    for k in range(ctl.max_terms):
        if stop is not None and k >= stop:
            # every later term carries a vanished Pochhammer factor; returning
            # here also avoids the 0/0 recurrence step when stop == -c
            return HypergeomResult(total, k + 1, True)
        term = term * (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if term == 0.0:
            return HypergeomResult(total, k + 1, True)
        if abs(term) <= max(ctl.rel_tol * abs(total), ctl.abs_tol):
            small += 1
            if small >= 2:
                return HypergeomResult(total, k + 1, True)
        else:
            small = 0
    raise ConvergenceError(
        f"2F1 did not converge within {ctl.max_terms} terms at z={z}",
        terms_used=ctl.max_terms,
    )


def _anti_diagonal_sum(name: str, row_params, col_params, front_num, front_den, u: complex,
                       v: complex, n_stop, ctl: SeriesControl) -> HypergeomResult:
    """sum front_{j+k} row_j col_k over anti-diagonals j + k = n, up to ``n_stop`` unless it is None.

    row_j = prod (row_params)_j u^j / j!, col_k likewise in v, front_n = prod (front_num)_n / prod (front_den)_n.
    """
    row = [complex(1.0)]
    col = [complex(1.0)]
    front = 1.0
    total = complex(1.0)
    terms = 1
    small = 0
    for n in range(1, ctl.max_terms + 1):
        if n_stop is not None and n > n_stop:
            # returning here also avoids the 0/0 front update when n_stop == -c
            return HypergeomResult(total, terms, True)
        row.append(row[-1] * math.prod([p + n - 1.0 for p in row_params]) / n * u)
        col.append(col[-1] * math.prod([p + n - 1.0 for p in col_params]) / n * v)
        front = front * math.prod([p + n - 1.0 for p in front_num]) / math.prod([p + n - 1.0 for p in front_den])
        # math.fsum makes each block exact, hence invariant under swapping the two summation indices
        products = [row[j] * col[n - j] for j in range(n + 1)]
        block = front * complex(math.fsum(p.real for p in products), math.fsum(p.imag for p in products))
        total += block
        terms += n + 1
        if abs(block) <= max(ctl.rel_tol * abs(total), ctl.abs_tol):
            small += 1
            if small >= 3:
                return HypergeomResult(total, terms, True)
        else:
            small = 0
    raise ConvergenceError(
        f"{name} did not converge within {ctl.max_terms} anti-diagonals", terms_used=terms
    )


def appell_f1(a: float, b1: float, b2: float, c: float, u, v,
              ctl: SeriesControl = SeriesControl()) -> HypergeomResult:
    """First Appell double series F1(a; b1, b2; c; u, v).

    Sum of (a)_{j+k} (b1)_j (b2)_k / (j! k! (c)_{j+k}) u^j v^k over
    anti-diagonals j + k = n.  Requires |u| < 1 and |v| < 1 unless the
    corresponding index terminates through a non-positive integer
    parameter.
    """
    u = complex(u)
    v = complex(v)
    if abs(u) >= 1.0 and _stop(a, b1) is None:
        raise DomainError(f"F1 needs |u| < 1 (or a terminating index), got |u|={abs(u)}")
    if abs(v) >= 1.0 and _stop(a, b2) is None:
        raise DomainError(f"F1 needs |v| < 1 (or a terminating index), got |v|={abs(v)}")
    b1_stop, b2_stop = _nonpositive_int(b1), _nonpositive_int(b2)
    joint = None if b1_stop is None or b2_stop is None else b1_stop + b2_stop
    n_stop = min((t for t in (_nonpositive_int(a), joint) if t is not None), default=None)
    c_pole = _nonpositive_int(c)
    if c_pole is not None and (n_stop is None or n_stop > c_pole):
        raise DomainError(f"F1 undefined: c={c} is a non-positive integer")
    return _anti_diagonal_sum("F1", (b1,), (b2,), (a,), (c,), u, v, n_stop, ctl)


def appell_f3(a: float, a2: float, b1: float, b2: float, c: float, u, v,
              ctl: SeriesControl = SeriesControl()) -> HypergeomResult:
    """Third Appell double series F3(a, a2; b1, b2; c; u, v).

    Sum of (a)_j (a2)_k (b1)_j (b2)_k / (j! k! (c)_{j+k}) u^j v^k, with the
    same anti-diagonal scheme and termination rules as ``appell_f1``.
    """
    u = complex(u)
    v = complex(v)
    j_stop = _stop(a, b1)
    k_stop = _stop(a2, b2)
    if abs(u) >= 1.0 and j_stop is None:
        raise DomainError(f"F3 needs |u| < 1 (or a terminating j index), got |u|={abs(u)}")
    if abs(v) >= 1.0 and k_stop is None:
        raise DomainError(f"F3 needs |v| < 1 (or a terminating k index), got |v|={abs(v)}")
    n_stop = None if j_stop is None or k_stop is None else j_stop + k_stop
    c_pole = _nonpositive_int(c)
    if c_pole is not None and (n_stop is None or n_stop > c_pole):
        raise DomainError(f"F3 undefined: c={c} is a non-positive integer")
    return _anti_diagonal_sum("F3", (a, b1), (a2, b2), (), (c,), u, v, n_stop, ctl)


def sample_beta(a: float, b: float, n: int, seed: int) -> np.ndarray:
    """n i.i.d. Beta(a, b) variates, reproducible for a fixed seed.

    Drawn by numpy's Beta generator on a PCG64 stream seeded with ``seed``.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"sample_beta requires positive shapes, got a={a}, b={b}")
    if n < 1:
        raise DomainError(f"sample_beta requires n >= 1, got {n}")
    return np.random.Generator(np.random.PCG64(seed)).beta(a, b, n)
