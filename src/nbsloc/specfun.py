"""Scalar special functions used throughout the package.

Everything here is self-contained: log-gamma and log-Beta, the table of log
negative binomial weights log(Gamma(b+a)/(a! Gamma(b))), the regularized
incomplete Beta function (continued fraction, and whole tables in its
first parameter by the downward recurrence), generalized Laguerre and
Jacobi polynomials (three-term recurrences), the Gauss hypergeometric
series 2F1, the two-variable double series F1 and F3 (both summed by
one Cauchy-product driver), and Beta random variates from numpy's Beta
generator.

Conventions:
  * every Gamma and Beta factor of the package is formed here, in logs,
    never from raw Gamma values, so large parameters do not overflow; no
    other module forms a Gamma ratio.  There are two sources: the table
    ``log_nb_weights`` of the weights Gamma(b+a)/(a! Gamma(b)), a compensated
    cumulative sum, gives 1/B(j+1, b) = b Gamma(b+1+j)/(j! Gamma(b+1)) behind
    every basis norm, pmf, density, radial eigenvalue and kernel coefficient;
    ``log_beta`` gives the other Beta factor, the incomplete Beta
    prefactor;
  * accuracy is fixed, not a parameter: a series term counts as small
    below SERIES_REL_TOL of the sum (SERIES_ABS_TOL near zero), and past
    SERIES_MAX_TERMS the series raises ConvergenceError, it never returns
    a truncated value, and a term or sum past the float range raises it
    too; 2F1 is summed in array blocks (a cumulative product of the term
    ratios, then a cumulative sum, in blocks of 64 terms doubling to
    4,096), stopping at the same term as a sum taken one term at a time;
    double series are summed over anti-diagonals j + k = n, each block a
    Cauchy product of row and column terms, 64 blocks doubling per pass,
    declaring convergence only after three consecutive blocks are small;
    a series with a NaN or infinite parameter or argument raises
    DomainError before it sums anything;
  * every index argument passes ``check_index``: integral and >= 0; a
    range of indices passes ``check_indices``, which checks its two ends;
    every strength B passes ``check_strength``: finite with 2B > 1;
  * randomness comes from numpy's PCG64 generator (128-bit state),
    seeded explicitly, so every sampling call is reproducible.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "HypergeomResult",
    "check_index",
    "check_indices",
    "check_strength",
    "log_gamma",
    "log_beta",
    "log_nb_weights",
    "reg_inc_beta",
    "reg_inc_beta_table",
    "log_inc_beta_steps",
    "inc_beta_steps",
    "horner",
    "laguerre",
    "jacobi",
    "gauss_2f1",
    "appell_f1",
    "appell_f3",
    "sample_beta",
]


SERIES_REL_TOL = 1e-12  # relative size below which a term or block counts as converged
SERIES_ABS_TOL = 1e-300  # absolute underflow guard, for sums near zero
SERIES_MAX_TERMS = 100_000  # cap per summation index; past it a series raises ConvergenceError
INC_BETA_MAX_ITER = 500  # incomplete Beta continued-fraction steps before ConvergenceError


@dataclass(frozen=True)
class HypergeomResult:
    """Value of a hypergeometric evaluation and the number of terms summed."""

    value: complex
    terms_used: int


def check_index(name: str, value) -> int:
    """int(value) for an integral value >= 0 (an np.int64 or 3.0 too); DomainError otherwise."""
    try:
        ok = value >= 0 and value == int(value)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise DomainError(f"needs {name} >= 0 and integral, got {name}={value}")
    return int(value)


def check_indices(name: str, value) -> range | list[int]:
    """A range as it is, checked in O(1) at its ends (it holds ints, least at an end), or [check_index(name, value)]."""
    if not isinstance(value, range):
        return [check_index(name, value)]
    if value and min(value[0], value[-1]) < 0:  # name the first negative index; past value[0] >= 0 the step is < 0
        check_index(name, value[0] if value[0] < 0 else value[value[0] // -value.step + 1])
    return value


def check_strength(B: float) -> None:
    """Raise DomainError unless the strength parameter B is finite with 2B > 1."""
    if not (2.0 * B > 1.0 and math.isfinite(B)):
        raise DomainError(f"requires finite B with 2B > 1, got B={B}")


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _stirling_correction(x: float) -> float:
    """log Gamma(x) - (x - 1/2) log x + x - log(2 pi)/2 for x >= 10, to 1e-15 (DLMF 5.11.1, six terms)."""
    y = 1.0 / (x * x)  # the terms B_2k / (2k (2k-1) x^(2k-1)), k = 1..6, by Horner's rule in 1/x^2
    return (1 / 12 + y * (-1 / 360 + y * (1 / 1260 + y * (-1 / 1680 + y * (1 / 1188 + y * (-691 / 360360)))))) / x


def log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0; past max(a, b) = 10 no two large log-gamma values cancel.

    There log Gamma(big + small) - log Gamma(big) comes from Stirling's series as (big - 1/2)
    log1p(small/big) + small log(big + small) - small + the corrections' difference (DiDonato & Morris).
    """
    small, big = (a, b) if a <= b else (b, a)
    if not big >= 10.0:  # NaN too: log_gamma refuses it
        return log_gamma(a) + log_gamma(b) - log_gamma(a + b)
    rise = ((big - 0.5) * math.log1p(small / big) + small * math.log(big + small) - small
            + _stirling_correction(big + small) - _stirling_correction(big))
    return log_gamma(small) - rise


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


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete Beta, by the modified Lentz method."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, INC_BETA_MAX_ITER + 1):
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
    raise ConvergenceError("incomplete Beta continued fraction stalled", terms_used=INC_BETA_MAX_ITER)


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete Beta I_x(a, b), the Beta(a, b) CDF at x.

    Monotone nondecreasing in x with values in [0, 1].
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"reg_inc_beta requires finite a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"reg_inc_beta requires 0 <= x <= 1, got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    front = math.exp(ln_front)
    # Continued fraction converges fastest on the side where x is small.
    try:
        if x < (a + 1.0) / (a + b + 2.0):
            return front * _beta_cont_frac(a, b, x) / a
        return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b
    except ConvergenceError as exc:  # name the caller's arguments, not the complement route's
        raise ConvergenceError(f"incomplete Beta I_x(a, b) did not converge within {exc.terms_used} "
                               f"iterations at a={a}, b={b}, x={x}", terms_used=exc.terms_used) from None


def log_inc_beta_steps(x: float, n: int, b: float) -> np.ndarray:
    """log(x^a (1-x)^b Gamma(a+b) / (Gamma(a+1) Gamma(b))), a = 0..n-1; -inf for a >= 1 at x = 0."""
    if x == 0.0:
        return np.where(np.arange(n) == 0, 0.0, -np.inf)
    return log_nb_weights(n, b) + np.arange(float(n)) * math.log(x) + b * math.log1p(-x)


def inc_beta_steps(x: float, n: int, b: float) -> np.ndarray:
    """x^a (1-x)^b Gamma(a+b) / (Gamma(a+1) Gamma(b)), a = 0..n-1, each formed in logs.

    The negative binomial law of shape b at x; for a >= 1 also the steps
    I_x(a, b) - I_x(a+1, b) of the downward recurrence.
    """
    return np.exp(log_inc_beta_steps(x, n, b))


def reg_inc_beta_table(x: float, n: int, b: float) -> np.ndarray:
    """[I_x(1, b), ..., I_x(n, b)], n >= 1: a read-only view of one table cached by (x, size, b).

    size = max(512, the least power of two >= n).  Entries a <= 512 recur down from ``reg_inc_beta`` at
    a = 512, entries 2^(k-1) < a <= 2^k from it at a = 2^k, by I_x(a, b) = I_x(a+1, b) + x^a (1-x)^b /
    (a B(a, b)), stable as its steps are positive (Gil, Segura & Temme, SIAM 2007, ch. 4).  So an entry
    depends on (x, a, b) alone: a prefix of a long table is the short table bit for bit.
    """
    n = check_index("n", n)
    if n < 1:
        raise DomainError(f"reg_inc_beta_table requires n >= 1, got n={n}")
    return _inc_beta_blocks(x, max(512, 1 << (n - 1).bit_length()), b)[:n]


# Every eigenvalue route reads it; worst case 16 x 1 MB, at 131,072 entries, unless one index asks for more.
@functools.lru_cache(maxsize=16)
def _inc_beta_blocks(x: float, size: int, b: float) -> np.ndarray:
    """I_x(a, b), a = 1..size, for a power of two size >= 512: the table of ``reg_inc_beta_table``."""
    if not 0.0 < x < 1.0:  # reg_inc_beta refuses x and b outside the domain, and is 0 or 1 at the ends
        table = np.full(size, reg_inc_beta(x, float(size), b))
    else:
        table = inc_beta_steps(x, size + 1, b)[1:]  # the steps I_x(a, b) - I_x(a+1, b), a = 1..size
        tops = [512 << k for k in range((size // 512).bit_length())]
        for lo, top in zip([0, *tops], tops):
            table[top - 1] = reg_inc_beta(x, float(top), b)
            block = table[lo:top][::-1]
            np.add.accumulate(block, out=block)
        np.minimum(table, 1.0, out=table)  # a CDF; rounding must not push it past one
    table.flags.writeable = False
    return table


def horner(coeffs, x):
    """sum_k coeffs[k] x^k by Horner's rule; ``x`` may be a number or an ndarray."""
    # builtin complex arithmetic for a number, in-place array updates otherwise
    x, total = (complex(x), 0j) if np.ndim(x) == 0 else (x, np.zeros(np.shape(x), dtype=complex))
    for c in reversed(np.asarray(coeffs).tolist()):
        total *= x
        total += c
    return total


def laguerre(j: int | range, alpha: float, x):
    """Generalized Laguerre polynomial L_j^(alpha)(x) by three-term recurrence.

    ``x`` may be a float or an ndarray, and ``j`` a range: one pass up to its largest index
    returns a row per index, shape (len(j), *np.shape(x)), each equal bit for bit to its own call.
    """
    rows = dict.fromkeys(check_indices("j", j))
    if not alpha > -1.0:
        raise DomainError(f"laguerre requires alpha > -1, got {alpha}")
    ones = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    top = max(rows, default=0)
    p_prev, p_cur = ones, (1.0 + alpha) * ones - x  # L_k and L_(k+1) at the top of step k
    for k in range(top + 1):
        if k in rows:
            rows[k] = p_prev
        if k + 1 < top:  # L_(k+2), never past the largest index
            p_prev, p_cur = p_cur, (
                (2.0 * k + 3.0 + alpha - x) * p_cur - (k + 1.0 + alpha) * p_prev
            ) / (k + 2.0)
        else:
            p_prev = p_cur
    if isinstance(j, range):
        return np.array(list(rows.values())).reshape(len(rows), *np.shape(x))
    return rows[top]


def jacobi(k: int, alpha: float, beta: float, x):
    """Jacobi polynomial P_k^(alpha, beta)(x) by three-term recurrence.

    ``x`` may be a float or an ndarray.
    """
    k = check_index("k", k)
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
    stops = [s for s in map(_nonpositive_int, params) if s is not None]
    return min(stops) if stops else None


def _check_finite(name: str, *values) -> None:
    """DomainError unless every parameter and argument is finite: a NaN passes every domain comparison."""
    if not all(map(cmath.isfinite, values)):
        raise DomainError(f"{name} needs finite parameters and arguments, got {values}")


def gauss_2f1(a: float, b: float, c: float, z) -> HypergeomResult:
    """Gauss hypergeometric 2F1(a, b, c; z) on the closed unit disk.

    At z = 1 with Re(c - a - b) > 0 the Gauss theorem value is returned
    directly instead of summing the series.  No analytic continuation is
    attempted for |z| > 1.  The sum stops at the Pochhammer index, at a term
    that is exactly zero, or after two consecutive terms at most
    max(SERIES_REL_TOL |sum|, SERIES_ABS_TOL).
    """
    z = complex(z)
    _check_finite("2F1", a, b, c, z)
    stop = _stop(a, b)
    c_pole = _nonpositive_int(c)
    if c_pole is not None and (stop is None or stop > c_pole):
        raise DomainError(f"2F1 undefined: c={c} is a non-positive integer")
    if abs(z) > 1.0 + 1e-15:
        raise DomainError(f"2F1 series restricted to |z| <= 1, got |z|={abs(z)}")
    if z == 1.0:
        if c - a - b > 0.0:
            return HypergeomResult(complex(_gauss_theorem_value(a, b, c)), 0)
        if stop is None:
            raise ConvergenceError(
                f"2F1 divergent at z=1 with c-a-b={c - a - b}", terms_used=0
            )
    term, total, small, k0, size = complex(1.0), complex(1.0), False, 0, 64
    # every later term carries a vanished Pochhammer factor; ending there also avoids the 0/0 ratio when stop == -c
    end = SERIES_MAX_TERMS if stop is None else min(stop, SERIES_MAX_TERMS)
    while k0 < end:
        k = np.arange(k0, min(k0 + size, end), dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.cumprod(np.concatenate(([term], (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z)))[1:]
            sums = np.cumsum(np.concatenate(([total], terms)))[1:]
            smalls = np.abs(terms) <= np.maximum(SERIES_REL_TOL * np.abs(sums), SERIES_ABS_TOL)
        bad = ~(np.isfinite(terms) & np.isfinite(sums))
        done = (terms == 0.0) | (smalls & np.concatenate(([small], smalls[:-1])))
        hit = np.flatnonzero(bad | done)
        if hit.size:
            i = int(hit[0])
            if bad[i]:
                raise ConvergenceError(f"2F1 terms left the float range at term {k0 + i + 1} at z={z}",
                                       terms_used=k0 + i + 1)
            return HypergeomResult(complex(sums[i]), k0 + i + 1)
        term, total, small = terms[-1], sums[-1], bool(smalls[-1])
        k0, size = k0 + k.size, min(2 * size, 4096)
    if stop is not None and stop < SERIES_MAX_TERMS:
        return HypergeomResult(complex(total), stop + 1)
    raise ConvergenceError(
        f"2F1 did not converge within {SERIES_MAX_TERMS} terms at z={z}",
        terms_used=SERIES_MAX_TERMS,
    )


def _rising(params, j):
    """prod (p + j) over ``params`` at each j, the ratios (p)_(j+1) / (p)_j of their Pochhammer products."""
    return math.prod([p + j for p in params])


def _anti_diagonal_sum(name: str, row_params, col_params, front_num, front_den, u: complex,
                       v: complex) -> HypergeomResult:
    """sum front_{j+k} row_j col_k over anti-diagonals j + k = n, up to the last surviving one.

    row_j = prod (row_params)_j u^j / j!, col_k likewise in v, front_n = prod (front_num)_n / prod (front_den)_n.
    The domain is decided here, from the parameter lists: |u| >= 1 needs the row index to terminate through
    ``front_num`` or ``row_params`` (likewise v), the sum stops at n_stop, the smaller of the front's stop and
    the row stop plus the column stop, and a pole of ``front_den`` at or below n_stop raises DomainError.
    In passes over N = 64, 128, ... anti-diagonals, row, col and front are cumulative products of their ratios,
    the blocks the Cauchy product ``np.convolve(row, col)`` and the totals one cumulative sum.  (row_params, u)
    and (col_params, v) are put in a fixed order first, so swapping the indices runs the same operations, bit
    for bit.  A block whose products leave the float range raises ConvergenceError.
    """
    front_stop, row_stop, col_stop = _stop(*front_num), _stop(*row_params), _stop(*col_params)
    for arg, label, stop in ((u, "u", row_stop), (v, "v", col_stop)):
        if abs(arg) >= 1.0 and stop is None and front_stop is None:
            raise DomainError(f"{name} needs |{label}| < 1 (or a terminating index), got |{label}|={abs(arg)}")
    joint = None if row_stop is None or col_stop is None else row_stop + col_stop
    n_stop = joint if front_stop is None else front_stop if joint is None else min(front_stop, joint)
    c_pole = _stop(*front_den)
    if c_pole is not None and (n_stop is None or n_stop > c_pole):
        raise DomainError(f"{name} undefined: c={', '.join(map(str, front_den))} is a non-positive integer")
    if ([float(p).hex() for p in (*col_params, v.real, v.imag)]
            < [float(p).hex() for p in (*row_params, u.real, u.imag)]):  # hex: -0.0 sorts apart from 0.0
        row_params, col_params, u, v = col_params, row_params, v, u
    cap = SERIES_MAX_TERMS if n_stop is None else min(n_stop, SERIES_MAX_TERMS)  # n_stop == -c: no 0/0 ratio
    size = 64
    while True:
        size = min(size, cap)
        k0 = np.arange(float(size))  # n - 1 and n at anti-diagonals n = 1..size
        k1 = k0 + 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # F3's rows grow like j! u^j: products overflow
            row = np.concatenate(([1.0], _rising(row_params, k0) / k1 * u)).cumprod()
            col = np.concatenate(([1.0], _rising(col_params, k0) / k1 * v)).cumprod()
            blocks = (_rising(front_num, k0) / _rising(front_den, k0)).cumprod() * np.convolve(row, col)[1:size + 1]
            totals = np.concatenate(([complex(1.0)], blocks)).cumsum()
            small = np.abs(blocks) <= np.maximum(SERIES_REL_TOL * np.abs(totals[1:]), SERIES_ABS_TOL)
        bad = ~np.isfinite(blocks)
        runs = np.concatenate(([False, False], small))
        done = runs[2:] & runs[1:-1] & runs[:-2]  # the third of three consecutive small blocks
        hit = np.flatnonzero(bad | done)
        if hit.size:
            n = int(hit[0]) + 1
            if bad[n - 1]:
                raise ConvergenceError(f"{name} terms left the float range at anti-diagonal {n}",
                                       terms_used=n * (n + 1) // 2)
            return HypergeomResult(complex(totals[n]), (n + 1) * (n + 2) // 2)
        if size == cap:
            if n_stop is not None and n_stop < SERIES_MAX_TERMS:
                return HypergeomResult(complex(totals[-1]), (cap + 1) * (cap + 2) // 2)
            raise ConvergenceError(f"{name} did not converge within {SERIES_MAX_TERMS} anti-diagonals",
                                   terms_used=(cap + 1) * (cap + 2) // 2)
        size *= 2


def appell_f1(a: float, b1: float, b2: float, c: float, u, v) -> HypergeomResult:
    """First Appell double series F1(a; b1, b2; c; u, v).

    Sum of (a)_{j+k} (b1)_j (b2)_k / (j! k! (c)_{j+k}) u^j v^k over
    anti-diagonals j + k = n.  Requires |u| < 1 and |v| < 1 unless the
    corresponding index terminates through a non-positive integer
    parameter.
    """
    u, v = complex(u), complex(v)
    _check_finite("F1", a, b1, b2, c, u, v)
    return _anti_diagonal_sum("F1", (b1,), (b2,), (a,), (c,), u, v)


def appell_f3(a: float, a2: float, b1: float, b2: float, c: float, u, v) -> HypergeomResult:
    """Third Appell double series F3(a, a2; b1, b2; c; u, v).

    Sum of (a)_j (a2)_k (b1)_j (b2)_k / (j! k! (c)_{j+k}) u^j v^k, with the
    same anti-diagonal scheme and termination rules as ``appell_f1``.
    """
    u, v = complex(u), complex(v)
    _check_finite("F3", a, a2, b1, b2, c, u, v)
    return _anti_diagonal_sum("F3", (a, b1), (a2, b2), (), (c,), u, v)


def sample_beta(a: float, b: float, n: int, seed: int) -> np.ndarray:
    """n i.i.d. Beta(a, b) variates, reproducible for a fixed seed.

    Drawn by numpy's Beta generator on a PCG64 stream seeded with ``seed``.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"sample_beta requires positive shapes, got a={a}, b={b}")
    n = check_index("n", n)
    if n < 1:
        raise DomainError(f"sample_beta requires n >= 1, got {n}")
    return np.random.Generator(np.random.PCG64(seed)).beta(a, b, n)
