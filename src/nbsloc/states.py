"""Coherent states on the half-plane and the unit disk.

The two families are linked by the inverse Cayley transform: affine
coherent states live over the upper half-plane, their disk-labeled
version (the negative binomial states, NBS) over the unit disk.  The
module provides both wavefunction routes, the orthonormal monomial basis
of the weighted Bergman space, the Laguerre functions they pair with
(a table of them from one recurrence pass over a range of indices),
the reproducing kernels of the lowest and higher hyperbolic Landau
levels, and the negative binomial photon-count law.

All complex powers are principal branch; every base occurring here stays
off the negative real axis for points strictly inside the domains, which
is asserted at runtime.

Each kind of argument has one reader, shared by the package, which refuses
with DomainError what it cannot compare: ``as_disk`` (|z| < 1, a number or an
array-like of them), ``as_disk_point`` (one such point, a 0-d array too),
``as_halfline`` (0 < xi < inf, a number or an array-like of them),
``as_halfplane`` (a finite w with Im w > 0), ``as_radius`` (0 < R < 1, or a
``LocalizationRadius``), ``as_coefficients`` (a finite complex 1-D vector)
and, from specfun, ``check_strength``, ``check_index`` and the shape rule
``_check_above``.  Points and coefficients are plain numbers and arrays.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import (_check_above, check_index, check_indices, check_strength, horner, inc_beta_steps, jacobi,
                      log_gamma, log_nb_weights)

__all__ = [
    "ModelParams",
    "LocalizationRadius",
    "affine_coherent_state",
    "cayley_inverse",
    "nbs_wavefunction",
    "bergman_basis",
    "laguerre_function",
    "nbs_expansion",
    "halfplane_kernel",
    "disk_kernel",
    "nb_pmf",
    "photon_weight",
    "max_landau_index",
    "principal_power",
]

NORMS_CACHE_SIZE = 64  # basis_norms tables kept


def max_landau_index(B: float) -> int:
    """Largest admissible level index, ceil(B - 1/2) - 1: the largest m < B - 1/2."""
    return math.ceil(B - 0.5) - 1


@dataclass(frozen=True)
class ModelParams:
    """Finite strength B (2B > 1) and level index m, 0 <= m < B - 1/2, where the level weight is integrable."""

    B: float
    m: int = 0

    def __post_init__(self):
        check_strength(self.B)
        object.__setattr__(self, "m", check_index("m", self.m))
        if self.m > max_landau_index(self.B):
            raise DomainError(f"inadmissible level: m={self.m} violates m < B - 1/2, m <= "
                              f"{max_landau_index(self.B)} at B={self.B}")


@dataclass(frozen=True)
class LocalizationRadius:
    """Radius of the localization disk, 0 < R < 1, held as the float ``as_radius`` returns."""

    R: float

    def __post_init__(self):
        object.__setattr__(self, "R", as_radius(self.R))


def as_disk(z):
    """Validate |z| < 1 for a complex number or an array-like of them.

    A number is returned as a builtin complex; anything else is read through ``np.asarray``, checked once as a
    whole and returned as a complex array.  DomainError for what is neither.
    """
    if not isinstance(z, np.ndarray):
        try:
            z = complex(z)
        except (TypeError, ValueError):  # not a number: read as an array
            pass
        else:
            if not abs(z) < 1.0:
                raise DomainError(f"disk point needs |z| < 1, got |z|={abs(z)}")
            return z
    try:
        z = np.asarray(z, dtype=complex)
    except (TypeError, ValueError):
        raise DomainError(f"disk points must be complex numbers, got {z!r}") from None
    if z.size and not np.max(np.abs(z)) < 1.0:
        raise DomainError(f"disk points need |z| < 1, got max |z|={np.max(np.abs(z))}")
    return z


def as_disk_point(z):
    """One disk point: ``as_disk`` of a number or a 0-d array, as it returns them; DomainError for an array of them."""
    z = as_disk(z)
    if isinstance(z, np.ndarray) and z.ndim:
        raise DomainError(f"needs one disk point, got an array of shape {z.shape}")
    return z


def as_halfline(xi) -> np.ndarray:
    """Validate 0 < xi < inf for a number or an array-like of them, read as a float array and capped at 1e140.

    Past the cap every half-line function here has underflowed to 0, while xi^2 and ((1 + z)/(1 - z)) xi^2,
    as |(1 + z)/(1 - z)| < 2e16 for |z| < 1, stay finite.
    """
    try:
        x = np.asarray(xi, dtype=float)
        ok = np.all((x > 0.0) & (x < math.inf))
    except (TypeError, ValueError):  # not real numbers
        ok = False
    if not ok:
        raise DomainError("half-line points need 0 < xi < inf")
    return np.minimum(x, 1e140)


def as_halfplane(w) -> complex:
    """Validate a finite w with Im w > 0 for a complex number, returned as a builtin complex."""
    try:
        w = complex(w)
    except (TypeError, ValueError):  # not a number, or an array of several
        raise DomainError(f"half-plane point needs Im w > 0 and a finite w, got w={w!r}") from None
    if not (w.imag > 0.0 and cmath.isfinite(w)):
        raise DomainError(f"half-plane point needs Im w > 0 and a finite w, got w={w}")
    return w


def as_coefficients(coeffs) -> np.ndarray:
    """A finite complex 1-D vector of basis coefficients, possibly empty, as an ndarray; DomainError otherwise."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1:
        raise DomainError(f"coefficients must be a 1-D vector, got shape {coeffs.shape}")
    if not all(map(cmath.isfinite, coeffs.tolist())):  # cheaper than a numpy reduction at these sizes
        raise DomainError("coefficients must be finite")
    return coeffs


def as_radius(R) -> float:
    """A ``LocalizationRadius``'s R, or a real R with 0 < R < 1 as a float; DomainError otherwise, complex R too."""
    if isinstance(R, LocalizationRadius):
        return R.R
    try:  # numpy orders a complex by its real part; an array of several has no truth value
        ok = 0.0 < R < 1.0 and not isinstance(R, (np.complexfloating, np.ndarray))
    except (TypeError, ValueError, ArithmeticError):  # no order against a float: a str, None, complex, Decimal NaN
        ok = False
    if not ok:
        raise DomainError(f"localization radius needs 0 < R < 1, got R={R!r}")
    return float(R)


def principal_power(base, exponent: float):
    """base ** exponent on the principal branch, rejecting the branch cut.

    ``base`` may be an ndarray, checked against the cut once as a whole; a
    single base stays in builtin complex arithmetic.
    """
    if isinstance(base, np.ndarray):
        b = base.astype(complex, copy=False)
        on_cut = (b.imag == 0.0) & (b.real <= 0.0)
        if np.any(on_cut):
            raise DomainError(f"principal power undefined on the cut, base={b[on_cut][0]}")
        return b ** exponent
    b = complex(base)
    if b.imag == 0.0 and b.real <= 0.0:
        raise DomainError(f"principal power undefined on the cut, base={b}")
    return b ** exponent


def affine_coherent_state(x: float, y: float, B: float, xi: float) -> complex:
    """Wavefunction of the affine coherent state labelled by (x, y), at xi > 0.

    (2B)^(-1/2) (xi y)^B exp(-xi (y - i x) / 2); the modulus is independent
    of x, which only contributes a phase.
    """
    _check_above(-math.inf, x=x)
    _check_above(0, y=y, xi=xi)
    check_strength(B)
    return (xi * y) ** B / math.sqrt(2.0 * B) * cmath.exp(-0.5 * xi * (y - 1j * x))


def cayley_inverse(z) -> tuple[float, float]:
    """Inverse Cayley transform: disk point -> (x, y) with y > 0.

    (-2 Im z / |1-z|^2, (1 - |z|^2) / |1-z|^2); the image degenerates to the
    boundary y = 0 as |z| -> 1.
    """
    z = as_disk(z)
    denom = abs(1.0 - z) ** 2
    return (-2.0 * z.imag / denom, (1.0 - abs(z) ** 2) / denom)


def nbs_wavefunction(z, B: float, xi):
    """Unit-norm negative binomial state on the half-line, evaluated at 0 < xi < inf.

    sqrt(2 / Gamma(2B)) xi^(2B - 1/2) ((1 - |z|^2)/(1 - z)^2)^B
      exp(-((1 + z)/(1 - z)) xi^2 / 2); an array-like ``xi`` gives an array of its shape.
    Past xi = 1e140 it returns 0, the underflowed value: the real part of ((1 + z)/(1 - z)) xi^2 is at
    least 5e-17 xi^2, so the exponential is below the smallest float long before.
    """
    z = as_disk_point(z)
    xi_arr = as_halfline(xi)
    check_strength(B)
    base = (1.0 - abs(z) ** 2) / (1.0 - z) ** 2
    # one exponent, because Gamma(2B), xi^(2B - 1/2) and base^B overflow on their own; arg base =
    # -2 arg(1 - z) lies in (-pi, pi), so B log(base) is the principal power's logarithm
    log_front = 0.5 * (math.log(2.0) - log_gamma(2.0 * B)) + B * cmath.log(base)
    vals = np.exp(log_front + (2.0 * B - 0.5) * np.log(xi_arr) - 0.5 * ((1.0 + z) / (1.0 - z)) * xi_arr * xi_arr)
    return vals if xi_arr.ndim or isinstance(xi, np.ndarray) else complex(vals)


def photon_weight(j: int, B: float) -> float:
    """Gamma(2B + j) / (j! Gamma(2B)), the negative binomial coefficient."""
    j = check_index("j", j)
    check_strength(B)
    return math.exp(log_nb_weights(j + 1, 2.0 * B)[j])


@functools.lru_cache(maxsize=NORMS_CACHE_SIZE)
def basis_norms(n: int, B: float) -> np.ndarray:
    """sqrt((2B - 1) Gamma(2B + j)/(j! Gamma(2B))), j = 0..n-1: the factors of z^j in the basis.

    Memoized by (n, B); the array is read-only.
    """
    check_strength(B)
    norms = np.exp(0.5 * (math.log(2.0 * B - 1.0) + log_nb_weights(n, 2.0 * B)))
    norms.flags.writeable = False
    return norms


def bergman_basis(j: int | range, B: float, z):
    """j-th element of the orthonormal monomial basis of the weighted Bergman space.

    sqrt(2B - 1) sqrt(Gamma(2B + j)/(j! Gamma(2B))) z^j, orthonormal for the
    inner product (1/pi) int conj(f) g (1 - |z|^2)^(2B - 2) dA; ``z`` may be
    an ndarray, and ``j`` a range: a row per index, written into one preallocated
    array of shape (len(j), *np.shape(z)), each equal bit for bit to its own call,
    from one norm table.
    """
    z = as_disk(z)
    rows = check_indices("j", j)
    norms = basis_norms(max(rows, default=0) + 1, B)
    if not isinstance(j, range):
        return float(norms[rows[0]]) * z ** rows[0]
    table = np.empty((len(rows), *np.shape(z)), dtype=complex)
    for i, k in enumerate(rows):
        table[i] = float(norms[k]) * z ** k
    return table


def _basis_series(coeffs, B: float, z):
    """sum_j coeffs[j] bergman_basis(j, B, z) by Horner's rule at an ``as_disk`` output z; not checked."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return horner(coeffs * basis_norms(coeffs.size, B), z)


def laguerre_function(j: int | range, B: float, xi):
    """Orthonormal Laguerre function on the half-line; ``xi`` may be an ndarray and ``j`` a range.

    phi_j = (2 j! / Gamma(2B + j))^(1/2) xi^(2B - 1/2) exp(-xi^2/2) L_j^(2B-1)(xi^2), by the
    normalized recurrence c_k phi_{k+1} = (2k + 2B - xi^2) phi_k - c_{k-1} phi_{k-1} with
    c_k = sqrt((k+1)(k+2B)), run on phi_k / phi_0 with phi_0 kept as its log: neither the
    norm nor exp(-xi^2/2) is formed alone, as both leave the float range at large j, B or xi.
    Once a bound on the scaled values passes 1e100, each point's last two values are divided
    by the power of two just above the larger, which is exact, so a point's value does not
    depend on the other points of the array.  One pass up to the largest index writes each
    kept row's scaled value into the output table as it is reached, and notes the summed
    power-of-two shift once per rescale that a kept row follows; after the pass the table is
    turned into values in place, mantissa times exp(log phi_0 + exponent log 2), a slice of
    rows at a time, so a call holds one table.  A range of indices returns a row per index,
    shape (len(j), *np.shape(xi)), each equal bit for bit to its own call.  A number xi runs as a
    0-d array; with an int j it returns a float, and at an array-like xi an array of its shape.
    Past xi = 1e140 it returns 0, the underflowed value.
    Accurate to 1e-11 absolute for j <= 2000 and B <= 50.
    """
    rows = check_indices("j", j)
    check_strength(B)
    x = as_halfline(xi)
    n, descending = len(rows), len(rows) > 1 and rows[0] > rows[-1]
    kept = rows[::-1] if descending else rows  # ascending; the table's rows run the other way if descending
    table = np.empty((n, *x.shape))
    scaled = table[::-1] if descending else table
    b2, x2, top = 2.0 * B, x * x, kept[-1] if n else 0
    x2_max = float(np.max(x2, initial=0.0))
    log_phi0 = 0.5 * (math.log(2.0) - log_gamma(b2)) + (b2 - 0.5) * np.log(x) - 0.5 * x2
    prev, cur, c_prev, bound, shift = 0.0, 1.0, 0.0, 1.0, 0  # bound >= |prev|, |cur| everywhere
    i, want, runs = 0, kept[0] if n else -1, []  # runs: (first kept row, shift) per shift the kept rows see
    for k in range(top + 1):
        if k == want:
            if not runs or runs[-1][1] is not shift:
                runs.append((i, shift))
            scaled[i] = cur
            i += 1
            want = kept[i] if i < n else -1
        if k == top:
            break
        c = math.sqrt((k + 1) * (k + b2))
        bound *= (max(2 * k + b2, x2_max) + c_prev) / c  # |2k + 2B - xi^2| <= max(2k + 2B, xi^2)
        prev, cur, c_prev = cur, ((2 * k + b2 - x2) * cur - c_prev * prev) / c, c
        if bound > 1e100:  # shift is rebound to a new array, never changed in place: runs keeps the old one
            e = np.frexp(np.maximum(abs(prev), abs(cur)))[1]
            prev, cur, shift, bound = np.ldexp(prev, -e), np.ldexp(cur, -e), shift + e, 1.0
    per = max(1, (1 << 16) // max(x.size, 1))  # rows per slice: the exponents of at most 2^16 entries at once
    for (first, offset), end in zip(runs, [r[0] for r in runs[1:]] + [n]):
        for lo in range(first, end, per):
            hi = min(lo + per, end)
            block = table[n - hi:n - lo] if descending else table[lo:hi]
            e = np.empty(block.shape, dtype=np.intc)
            np.frexp(block, out=(block, e))
            expo = np.multiply(np.add(e, offset, out=e), math.log(2.0))
            np.exp(np.add(log_phi0, expo, out=expo), out=expo)
            np.multiply(block, expo, out=block)
    if isinstance(j, range):
        return table
    return table[0] if x.ndim or isinstance(xi, np.ndarray) else float(table[0])


def nbs_expansion(z, B: float, xi: float, J: int) -> complex:
    """Number-state expansion of the NBS truncated at index J.

    (1 - |z|^2)^B (2B - 1)^(-1/2) sum_{j <= J} basis_j(z) laguerre_j(xi);
    converges to ``nbs_wavefunction`` as J grows, with geometric tail |z|^J.
    """
    z = as_disk(z)
    J = check_index("J", J)
    if np.ndim(xi):
        raise DomainError(f"the expansion is taken at one point xi, got shape {np.shape(xi)}")
    series = _basis_series(laguerre_function(range(J + 1), B, xi), B, z)  # laguerre_function refuses a bad B
    return (1.0 - abs(z) ** 2) ** B / math.sqrt(2.0 * B - 1.0) * series


def halfplane_kernel(w, zeta, B: float) -> complex:
    """Reproducing kernel of the lowest-level eigenspace over the half-plane.

    (|w - conj(zeta)|^2 / (4 Im w Im zeta))^(-B) ((zeta - conj(w))/(w - conj(zeta)))^B.
    Hermitian, bounded by one in modulus, equal to one exactly on the diagonal.
    """
    w = as_halfplane(w)
    zeta = as_halfplane(zeta)
    check_strength(B)
    scale = abs(w - zeta.conjugate()) ** 2 / (4.0 * w.imag * zeta.imag)
    phase = (zeta - w.conjugate()) / (w - zeta.conjugate())
    return scale ** (-B) * principal_power(phase, B)


def disk_kernel(z, w, params: ModelParams):
    """Reproducing kernel of the level-m eigenspace on the weighted disk.

    pi (2B - 2m - 1) (1 - z conj(w))^(-2B)
      (|1 - z conj(w)|^2 / ((1 - |z|^2)(1 - |w|^2)))^m
      P_m^(0, 2(B - m) - 1)(2 (1 - |z|^2)(1 - |w|^2) / |1 - z conj(w)|^2 - 1);
    ``z`` and ``w`` may be broadcasting ndarrays.
    """
    z = as_disk(z)
    w = as_disk(w)
    B, m = params.B, params.m
    cross = 1.0 - z * w.conjugate()
    ratio = abs(cross) ** 2 / ((1.0 - abs(z) ** 2) * (1.0 - abs(w) ** 2))
    arg = 2.0 / ratio - 1.0
    poly = jacobi(m, 0.0, 2.0 * (B - m) - 1.0, arg)
    return math.pi * (2.0 * B - 2.0 * m - 1.0) * principal_power(cross, -2.0 * B) * ratio ** m * poly


def nb_pmf(j: int, B: float, p: float) -> float:
    """Negative binomial photon-count law: Gamma(2B+j)/(j! Gamma(2B)) p^j (1-p)^(2B)."""
    j = check_index("j", j)
    check_strength(B)
    return float(inc_beta_steps(p, j + 1, 2.0 * B)[j])  # which refuses p outside [0, 1)

