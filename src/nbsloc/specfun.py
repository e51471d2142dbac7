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
  * each kind of argument has one reader here, which refuses with
    DomainError a value outside its kind and anything it cannot compare (a
    0-d array counts as a number): an index or a count passes
    ``check_index`` (integral and >= its least value, 0 for an index), a
    range of indices ``check_indices`` (at its two ends), a strength B
    ``check_strength`` (finite with 2B > 1), a shape ``_check_above(0, ...)``,
    an exponent ``_check_above(-1, ...)``, a point of the unit interval
    ``_check_unit`` (each end open or closed) and the parameters and
    arguments of a series ``_check_finite``, before it sums anything;
  * randomness comes from numpy's PCG64 generator (128-bit state),
    seeded explicitly, so every sampling call is reproducible; a caller
    that holds the Generator draws one stream in blocks.
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


def check_index(name: str, value, least: int = 0) -> int:
    """int(value) for an integral value >= least (an np.int64 or 3.0 too), an index or a count; else DomainError."""
    try:
        ok = value >= least and value == int(value)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise DomainError(f"needs {name} >= {least} and integral, got {name}={value}")
    return int(value)


def check_indices(name: str, value) -> range | list[int]:
    """A range as it is, checked in O(1) at its ends (it holds ints, least at an end), or [check_index(name, value)]."""
    if not isinstance(value, range):
        return [check_index(name, value)]
    if value and min(value[0], value[-1]) < 0:  # name the first negative index; past value[0] >= 0 the step is < 0
        check_index(name, value[0] if value[0] < 0 else value[value[0] // -value.step + 1])
    return value


def check_strength(B: float) -> None:
    """Raise DomainError unless the strength parameter B is a finite number with 2B > 1."""
    try:
        ok = 2.0 * B > 1.0 and math.isfinite(B)
    except TypeError:
        ok = False
    if not ok:
        raise DomainError(f"requires finite B with 2B > 1, got B={B}")


def _check_above(least: float, **values) -> None:
    """DomainError unless each value is a finite real number > least (a 0-d array too, not a str or a complex)."""
    ok = True
    try:  # a loop, at half the cost of all() over a generator
        for value in values.values():
            ok = ok and math.isfinite(value) and value > least
    except (TypeError, ValueError, OverflowError):  # a str, a complex, a list or an array of several
        ok = False
    if not ok:
        got = ", ".join(f"{name}={value}" for name, value in values.items())
        raise DomainError(f"requires finite {', '.join(values)} > {least}, got {got}")


def _check_unit(name: str, value, closed: tuple = (0.0,)) -> None:
    """DomainError unless value is a real number (a 0-d array too) in (0, 1) or at one of its ``closed`` ends."""
    try:
        ok = math.isfinite(value) and (0.0 < value < 1.0 or value in closed)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        low, high = ("<=" if end in closed else "<" for end in (0.0, 1.0))
        raise DomainError(f"needs 0 {low} {name} {high} 1, got {name}={value}")


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for a finite x > 0."""
    _check_above(0, x=x)
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
    _check_above(0, a=a, b=b)
    small, big = (a, b) if a <= b else (b, a)
    if not big >= 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    rise = ((big - 0.5) * math.log1p(small / big) + small * math.log(big + small) - small
            + _stirling_correction(big + small) - _stirling_correction(big))
    return math.lgamma(small) - rise


def log_nb_weights(n: int, b: float) -> np.ndarray:
    """log(Gamma(b+a) / (a! Gamma(b))), a = 0..n-1, the log negative binomial weights of shape b.

    One cumulative sum of t_1 = log b and t_a = log1p((b-1)/a), with no large log-gamma values to cancel.  The
    t_a share one sign and shrink in size, so every partial sum outweighs the next term and its
    rounding error is exactly t_a - (s_a - s_{a-1}) (Fast2Sum).  Adding back the running sum of
    those errors keeps exp(entry a) within 3.1e-14 of the exact rational for a <= 2000 and
    0 < b <= 101 (69 shapes measured), where the plain sum reaches 1.7e-12.
    """
    n = check_index("n", n)
    _check_above(0, b=b)
    t = np.zeros(n)
    t[1:2] = np.log(b)  # not log1p(b - 1), which rounds b - 1 first
    t[2:] = np.log1p((b - 1.0) / np.arange(2.0, n))
    s = t.cumsum()
    t[1:] -= s[1:] - s[:-1]  # now the rounding error of each partial sum
    s += t.cumsum()
    return s


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete Beta, by the modified Lentz method, one half-step per numerator."""
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
        for num in (m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
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
    _check_above(0, a=a, b=b)
    _check_unit("x", x, closed=(0.0, 1.0))
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
    _check_unit("x", x)
    n = check_index("n", n)
    if x == 0.0:
        _check_above(0, b=b)  # log_nb_weights checks it on the other route
        return np.where(np.arange(n) == 0, 0.0, -np.inf)
    return log_nb_weights(n, b) + np.arange(float(n)) * math.log(x) + b * math.log1p(-x)


def inc_beta_steps(x: float, n: int, b: float) -> np.ndarray:
    """x^a (1-x)^b Gamma(a+b) / (Gamma(a+1) Gamma(b)), a = 0..n-1, each formed in logs.

    The negative binomial law of shape b at x; for a >= 1 also the steps
    I_x(a, b) - I_x(a+1, b) of the downward recurrence.
    """
    return np.exp(log_inc_beta_steps(x, n, b))


def reg_inc_beta_table(x: float, n: int, b: float) -> np.ndarray:
    """[I_x(1, b), ..., I_x(n, b)], n >= 1: a read-only view of one table of size entries, keyed by (x, size, b).

    size = max(512, the least power of two >= n).  Entries a <= 512 recur down from ``reg_inc_beta`` at
    a = 512, entries 2^(k-1) < a <= 2^k from it at a = 2^k, by I_x(a, b) = I_x(a+1, b) + x^a (1-x)^b /
    (a B(a, b)), stable as its steps are positive (Gil, Segura & Temme, SIAM 2007, ch. 4).  So an entry
    depends on (x, a, b) alone: a prefix of a long table is the short table bit for bit.  Tables of up to
    SERIES_MAX_TERMS entries rounded up to a power of two (2^17, 1 MB, at its default), the most
    ``leakage_bound`` asks for, are cached and shared; a larger one, which only an index or length the
    caller picks asks for, is built for the call, with the same bits, and freed with its last view.
    """
    n = check_index("n", n, 1)
    size = max(512, 1 << (n - 1).bit_length())
    build = _inc_beta_blocks if size <= 1 << (SERIES_MAX_TERMS - 1).bit_length() else _inc_beta_blocks.__wrapped__
    try:
        return build(x, size, b)[:n]
    except TypeError:  # an x or b that does not hash or compare: refused, or a 0-d array read as its float
        _check_unit("x", x, closed=(0.0, 1.0))
        _check_above(0, b=b)
        return build(float(x), size, float(b))[:n]


# Every eigenvalue route reads it; at most 16 tables of at most 2^17 entries at the default, 16 MB in all.
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
    try:  # builtin complex arithmetic for a number, in-place array updates otherwise
        x, total = (complex(x), 0j) if np.ndim(x) == 0 else (x, np.zeros(np.shape(x), dtype=complex))
    except (TypeError, ValueError):  # not a number: a number costs nothing more
        raise DomainError(f"horner needs a number or an ndarray x, got x={x!r}") from None
    for c in reversed(np.asarray(coeffs).tolist()):
        total *= x
        total += c
    return total


def laguerre(j: int | range, alpha: float, x):
    """Generalized Laguerre polynomial L_j^(alpha)(x) by three-term recurrence.

    ``x`` may be a number or an array-like, read through ``np.asarray``; a NaN or infinite x raises DomainError.
    ``j`` may be a range: one pass up to its largest index writes a row per index into one
    preallocated array, shape (len(j), *np.shape(x)), each row equal bit for bit to its own call.
    With an int j it returns a float at a number x, else an array of x's shape (a numpy float at a 0-d array).
    """
    rows = check_indices("j", j)
    _check_above(-1, alpha=alpha)
    xs = np.asarray(x, dtype=float)
    if not np.isfinite(xs).all():
        raise DomainError("laguerre requires finite x, not NaN or infinite")
    table = np.empty((len(rows), *xs.shape))
    if not xs.ndim:
        xs = float(xs)  # builtin float arithmetic rounds as numpy's does, at less cost per step
    top = max(rows[0], rows[-1]) if rows else 0
    p_prev, p_cur = 1.0, (1.0 + alpha) - xs  # L_k and L_(k+1) at the top of step k
    for k in range(top + 1):
        if k in rows:
            table[rows.index(k)] = p_prev
        if k + 1 < top:  # L_(k+2), never past the largest index
            p_prev, p_cur = p_cur, (
                (2.0 * k + 3.0 + alpha - xs) * p_cur - (k + 1.0 + alpha) * p_prev
            ) / (k + 2.0)
        else:
            p_prev = p_cur
    if isinstance(j, range):
        return table
    return table[0] if table.ndim > 1 or isinstance(x, np.ndarray) else float(table[0])


def jacobi(k: int, alpha: float, beta: float, x):
    """Jacobi polynomial P_k^(alpha, beta)(x) by three-term recurrence.

    ``x`` may be a float or an ndarray.
    """
    k = check_index("k", k)
    _check_above(-1, alpha=alpha, beta=beta)
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


def _check_finite(what: str, *values) -> None:
    """DomainError unless every value is a finite real or complex number: a NaN passes every domain comparison."""
    try:
        ok = all(map(cmath.isfinite, values))
    except (TypeError, ValueError, OverflowError):  # a str, a list or an array of several
        ok = False
    if not ok:
        raise DomainError(f"needs a finite {what}, got [{', '.join(map(str, values))}]")


def gauss_2f1(a: float, b: float, c: float, z) -> HypergeomResult:
    """Gauss hypergeometric 2F1(a, b, c; z) on the closed unit disk.

    At z = 1 with Re(c - a - b) > 0 the Gauss theorem value is returned
    directly instead of summing the series.  No analytic continuation is
    attempted for |z| > 1.  The sum stops at the Pochhammer index, at a term
    that is exactly zero, or after two consecutive terms at most
    max(SERIES_REL_TOL |sum|, SERIES_ABS_TOL).
    """
    _check_finite("2F1 argument list", a, b, c, z)
    z = complex(z)
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
        bad = ~np.isfinite(sums)  # a non-finite term makes its partial sum non-finite
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


def _rising(params, j: np.ndarray, out: np.ndarray) -> np.ndarray:
    """prod (p + j) over ``params`` into ``out``, the ratios (p)_(j+1) / (p)_j of their Pochhammer products.

    The factors are multiplied in order into ``out``, which holds 1 for no parameter.
    """
    if params:
        np.add(j, params[0], out=out)
    else:
        out.fill(1.0)
    for p in params[1:]:
        np.multiply(out, j + p, out=out)
    return out


def _anti_diagonal_sum(name: str, row_params, col_params, front_num, front_den, u: complex,
                       v: complex) -> HypergeomResult:
    """sum front_{j+k} row_j col_k over anti-diagonals j + k = n, up to the last surviving one.

    row_j = prod (row_params)_j u^j / j!, col_k likewise in v, front_n = prod (front_num)_n / prod (front_den)_n.
    The domain is decided here, from the parameter lists: |u| >= 1 needs the row index to terminate through
    ``front_num`` or ``row_params`` (likewise v), the sum stops at n_stop, the smaller of the front's stop and
    the row stop plus the column stop, and a pole of ``front_den`` at or below n_stop raises DomainError.
    In passes over N = 64, 128, ... anti-diagonals, row and col are one (2, N + 1) array's cumulative products of
    their ratios along its rows, front the cumulative product of its ratios, the blocks front times the Cauchy
    product ``np.convolve(row, col)``, written into the totals array and summed there in place once their sizes
    and finiteness are read.  (row_params, u) and (col_params, v) are put in a fixed order first, by the hex of
    the first entry that differs, so swapping the indices runs the same operations, bit for bit.  A block whose
    products leave the float range raises ConvergenceError.
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
    for col_hex, row_hex in zip(map(float.hex, map(float, (*col_params, v.real, v.imag))),
                                map(float.hex, map(float, (*row_params, u.real, u.imag)))):
        if col_hex != row_hex:  # hex: -0.0 sorts apart from 0.0
            if col_hex < row_hex:
                row_params, col_params, u, v = col_params, row_params, v, u
            break
    cap = SERIES_MAX_TERMS if n_stop is None else min(n_stop, SERIES_MAX_TERMS)  # n_stop == -c: no 0/0 ratio
    size = 64
    while True:
        size = min(size, cap)
        k0 = np.arange(float(size))  # n - 1 and n at anti-diagonals n = 1..size
        k1, ratio, den = k0 + 1.0, np.empty(size), np.empty(size)
        series, totals = np.empty((2, size + 1), dtype=complex), np.empty(size + 1, dtype=complex)
        series[:, 0] = totals[0] = 1.0
        blocks = totals[1:]
        with np.errstate(over="ignore", invalid="ignore"):  # F3's rows grow like j! u^j: products overflow
            for out, params, arg in ((series[0, 1:], row_params, u), (series[1, 1:], col_params, v)):
                np.multiply(np.divide(_rising(params, k0, ratio), k1, out=ratio), arg, out=out)
            series.cumprod(axis=1, out=series)
            np.divide(_rising(front_num, k0, ratio), _rising(front_den, k0, den), out=ratio)
            np.multiply(ratio.cumprod(out=ratio), np.convolve(*series)[1:size + 1], out=blocks)
            magnitude, hit = np.abs(blocks), ~np.isfinite(blocks)
            totals.cumsum(out=totals)
            small = magnitude <= np.maximum(SERIES_REL_TOL * np.abs(blocks), SERIES_ABS_TOL)  # blocks: now the totals
        hit[2:] |= small[2:] & small[1:-1] & small[:-2]  # a non-finite block, or the third of three small ones
        if size and hit[n := int(hit.argmax())]:
            if not np.isfinite(magnitude[n]):
                raise ConvergenceError(f"{name} terms left the float range at anti-diagonal {n + 1}",
                                       terms_used=(n + 1) * (n + 2) // 2)
            return HypergeomResult(complex(totals[n + 1]), (n + 2) * (n + 3) // 2)
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
    _check_finite("F1 argument list", a, b1, b2, c, u, v)
    u, v = complex(u), complex(v)
    return _anti_diagonal_sum("F1", (b1,), (b2,), (a,), (c,), u, v)


def appell_f3(a: float, a2: float, b1: float, b2: float, c: float, u, v) -> HypergeomResult:
    """Third Appell double series F3(a, a2; b1, b2; c; u, v).

    Sum of (a)_j (a2)_k (b1)_j (b2)_k / (j! k! (c)_{j+k}) u^j v^k, with the
    same anti-diagonal scheme and termination rules as ``appell_f1``.
    """
    _check_finite("F3 argument list", a, a2, b1, b2, c, u, v)
    u, v = complex(u), complex(v)
    return _anti_diagonal_sum("F3", (a, b1), (a2, b2), (), (c,), u, v)


def sample_beta(a: float, b: float, n: int, seed: int | np.random.Generator) -> np.ndarray:
    """n i.i.d. Beta(a, b) variates, reproducible for a fixed seed.

    Drawn by numpy's Beta generator, which fills its output one draw after another: on a fresh PCG64
    stream seeded with an integer ``seed`` >= 0, or from a ``Generator`` where it stands, advancing it.  So n
    draws from a Generator seeded with s, taken in blocks of any sizes, are the n draws of seed s.
    """
    _check_above(0, a=a, b=b)
    n = check_index("n", n, 1)
    if not isinstance(seed, np.random.Generator):
        seed = np.random.Generator(np.random.PCG64(check_index("seed", seed)))
    return seed.beta(a, b, n)
