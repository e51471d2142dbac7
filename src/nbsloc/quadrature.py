"""Deterministic integration grids.

Three families cover every integral in the package:

  * ``half_line_grid``   -- generalized Gauss-Laguerre in u = xi^2 for half-line inner
    products, exact for every product of two Laguerre functions of low enough degree;
  * ``radial_jacobi_grid`` -- Gauss-Jacobi on [0, 1] with the endpoint weight
    (1 - rho)^(2B - 2) absorbed into the weights, so that B in (1/2, 1) (an
    integrable singularity) needs no special casing;
  * ``disk_grid``        -- the tensor product of the radial rule with the uniform angular rule, whose
    nodes are the n-th roots of unity exp(2 pi i m / n) in the FFT's order, for weighted disk integrals;
    for even n the angular rule's even-indexed nodes are the n / 2 rule's, bit for bit.

Every Gauss rule has its weights from ``_christoffel``.  A Legendre rule (Jacobi, alpha = 0) takes
its nodes from an eigenproblem of half the size and mirrors exactly about 1/2; any other alpha,
and the Laguerre rule, from the whole Jacobi matrix.
Every rule is a ``QuadratureGrid``, a read-only (nodes, weights) pair.  Each is built once and
shared from one LRU cache of RULE_CACHE_SIZE entries: ``gauss_jacobi(n, alpha)``, the rule on
[0, 1] that ``radial_jacobi_grid`` and ``mapped_legendre`` read, ``half_line_grid(n, B)`` and
``angular_grid(n)``.  Integration is a dot product, so all of it is thread-safe; a call that
raises caches nothing.  Fixed rule sizes are module constants, RESIDUAL_*, not arguments.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .errors import DomainError
from .specfun import _check_above, _check_finite, check_index, check_strength, log_gamma

__all__ = [
    "QuadratureGrid",
    "mapped_legendre",
    "half_line_grid",
    "gauss_jacobi",
    "radial_jacobi_grid",
    "angular_grid",
    "disk_grid",
    "hamiltonian_residual",
]

RESIDUAL_NODES = 64  # Chebyshev points of hamiltonian_residual's differentiation matrix
RESIDUAL_WINDOW = (0.5, 8.0)  # hamiltonian_residual's interval, away from the x = 0 singularity
RULE_CACHE_SIZE = 64  # entries kept by each rule cache; a 600-node rule takes 10 kB


class QuadratureGrid(tuple):
    """Nodes and strictly positive weights for one integration rule: a read-only (nodes, weights) pair.

    A tuple, so ``x, w = rule`` unpacks it; the constructor checks it and keeps read-only views, leaving the
    caller's arrays' flags alone.  For a Gauss rule ``nodes`` is a float array strictly inside the open integration
    domain; for ``angular_grid`` they are points on the unit circle; for a ``disk_grid`` a complex array of points
    strictly inside the unit disk, and the weights absorb both the radial weight function and the angular step.
    """

    __slots__ = ()

    def __new__(cls, nodes: np.ndarray, weights: np.ndarray):
        if nodes.shape != weights.shape:
            raise DomainError("nodes and weights must have matching shapes")
        if not np.all(weights > 0.0):
            raise DomainError("quadrature weights must be strictly positive")
        views = nodes.view(), weights.view()
        for view in views:
            view.flags.writeable = False
        return super().__new__(cls, views)

    def __getnewargs__(self):
        return tuple(self)

    nodes = property(operator.itemgetter(0))
    weights = property(operator.itemgetter(1))

    def integrate(self, f) -> complex:
        """Apply the rule to a callable or to precomputed node values."""
        values = f(self.nodes) if callable(f) else np.asarray(f)
        return self.weights @ values


def mapped_legendre(n: int, lo: float, hi: float) -> QuadratureGrid:
    """Gauss-Legendre nodes and weights on [lo, hi]: ``gauss_jacobi(n, 0.0)`` scaled by hi - lo and moved to lo."""
    _check_finite("interval", lo, hi)
    if not hi > lo:
        raise DomainError(f"empty interval [{lo}, {hi}]")
    x, w = gauss_jacobi(n, 0.0)
    return QuadratureGrid(lo + (hi - lo) * x, (hi - lo) * w)


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def half_line_grid(n: int, B: float) -> QuadratureGrid:
    """Gauss rule for int_0^inf f(xi) dxi, exact for f = xi^(4B-1) exp(-xi^2) p(xi^2), deg p <= 2n - 1.

    In u = xi^2 that is int_0^inf u^(2B-1) exp(-u) p(u) du / 2: Gauss-Laguerre with alpha = 2B - 1 (diagonal
    2k + alpha + 1, off-diagonal sqrt(k (k + alpha))) at xi_i = sqrt(u_i), its unit-mass weights w_i times
    exp(u_i) u_i^(-(2B - 1/2)) Gamma(2B) / 2, in logs, with w_i's power of two, so a w_i below the double range
    (from 190 nodes at B <= 1.5) still gives its weight.  phi_j phi_k is exact from ceil((j + k + 1) / 2) nodes.
    The u_i are the eigenvalues of that Jacobi matrix from ``_tridiagonal_eigvalsh``, which holds it as one n x n
    array.  DomainError where two of them round together (from B = 1e150 at five nodes) or a weight leaves the
    double range.  The exponent log w_i + u_i - (alpha + 1/2) log u_i + log(Gamma(2B) / 2) is rounded by less than
    eps times the sum of its terms' sizes (up to 0.7 of that against 40-digit mpmath); DomainError where that bound
    times the weight passes 1e-10 of the largest weight.  It reads 3e-14 to 1.7e-13 on verify's rules and 1.3e-12
    at B = 50, n = 600; the tolerance refuses from B = 1.1e4 at any n <= 600.
    """
    n = check_index("n", n, 1)
    check_strength(B)
    alpha, k = 2.0 * B - 1.0, np.arange(n)
    diag, off = 2.0 * k + alpha + 1.0, np.sqrt(k[1:] * (k[1:] + alpha))
    x = _tridiagonal_eigvalsh(diag, off)
    if not np.all(np.diff(x) > 0.0):
        raise DomainError(f"the {n}-node half-line rule at B={B} has nodes that round together")
    u, w, shift = _christoffel(x, diag, off, 1.0, float(x[-1]))
    with np.errstate(divide="ignore", over="ignore"):
        log_w = np.log(w) - 2.0 * math.log(2.0) * shift
        power, log_mass = (alpha + 0.5) * np.log(u), log_gamma(alpha + 1.0) - math.log(2.0)
        weights = np.exp(log_w + u - power + log_mass)
    if not (np.all(np.isfinite(weights)) and np.min(w) >= np.finfo(float).tiny):
        raise DomainError(f"the {n}-node half-line rule at B={B} has weights past the double range")
    lost = np.max(weights * np.finfo(float).eps * (np.abs(log_w) + u + np.abs(power) + abs(log_mass)))
    if lost > 1e-10 * np.max(weights):
        raise DomainError(f"the {n}-node half-line rule at B={B} has weights lost to rounding: up to "
                          f"{lost / np.max(weights):.3g} of the largest")
    return QuadratureGrid(np.sqrt(u), weights)


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def gauss_jacobi(n: int, alpha: float) -> QuadratureGrid:
    """Gauss-Jacobi rule on [0, 1] for the weight (1-x)^alpha, the one family any integral here needs.

    Nodes are the eigenvalues of the Jacobi matrix: with s = 2k + alpha, diagonal (2k (k + alpha + 1) + alpha)
    / (s (s + 2)) (first entry 1 / (alpha + 2)) and off-diagonal k (k + alpha) / (s sqrt(s^2 - 1)).  For
    alpha == 0 the diagonal is exactly 1/2: ordered by even and odd index J - I/2 is [[0, C], [C^T, 0]], so
    the nodes above 1/2 are 1/2 plus the square roots of the eigenvalues of the floor(n/2)-square tridiagonal
    C^T C (odd n adds the node 1/2), and the rule is built there and mirrored as 1 - x, exactly symmetric.
    One run of the orthonormal recurrence q_0 = 1, ..., q_n at every node gives a Newton step -q_n / q_n'
    and the sums of q_k^2 and q_k q_k' over k < n, hence the Christoffel weight mu_0 / sum_k q_k^2, with the
    mass mu_0 = 1 / (alpha + 1), at the stepped node to first order: accurate relative to itself, where
    Golub-Welsch eigenvector weights are off by eps times the largest.
    Once a bound on the recurrence passes 1e100, each node's values are divided by the power of two
    just above its larger last value, which is exact.  Exact for polynomials of degree <= 2n - 1.
    Either eigenproblem is solved by ``_tridiagonal_eigvalsh``, so a build holds one matrix of its size
    (2.9 MB at n = 601).  DomainError where a weight underflows.  Memoized.
    """
    n = check_index("n", n, 2)
    _check_above(-1, alpha=alpha)
    k = np.arange(1.0, n)
    s = 2.0 * k + alpha
    diag = np.concatenate(([1.0 / (alpha + 2.0)], (2.0 * k * (k + alpha + 1.0) + alpha) / (s * (s + 2.0))))
    off = k * (k + alpha) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    mu0 = 1.0 / (alpha + 1.0)
    if alpha == 0.0:  # C[i, i] = off[2i], C[i, i-1] = off[2i-1]; C^T C has diagonal off[2i]^2 + off[2i+1]^2
        ext = np.append(off, 0.0)
        even, odd = ext[0:n - n % 2:2], ext[1:n - n % 2:2]
        cross = odd[:-1] * even[1:]
        lam = _tridiagonal_eigvalsh(even * even + odd * odd, cross)
        half, *half_weights = _christoffel(0.5 + np.concatenate((np.zeros(n % 2), np.sqrt(lam))), diag, off, mu0, 1.0)
        nodes = np.concatenate((1.0 - half[::-1][:n // 2], half))
        weights, shift = (np.concatenate((v[::-1][:n // 2], v)) for v in half_weights)
    else:
        x = _tridiagonal_eigvalsh(diag, off)
        nodes, weights, shift = _christoffel(x, diag, off, mu0, 1.0)
    return QuadratureGrid(nodes, np.ldexp(weights, -2 * shift))


def _tridiagonal_eigvalsh(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal matrix with diagonal ``diag`` and off-diagonal ``off``.

    ``eigvalsh`` reads only the lower triangle, so one n x n array holding the diagonal and the subdiagonal
    is its whole input: the eigenvalues of the full symmetric matrix bit for bit, from one array.
    """
    n = diag.size
    matrix = np.zeros((n, n))
    matrix.flat[::n + 1] = diag
    matrix.flat[n::n + 1] = off
    return np.linalg.eigvalsh(matrix)


def _christoffel(x: np.ndarray, diag: np.ndarray, off: np.ndarray, mu0: float,
                 reach: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Newton step from the eigenvalues x, |x| <= reach, and the Christoffel weight at each stepped node,
    w 2^(-2 shift), as w and the integer shift: a weight below the double range is kept, for the caller's logs."""
    m = x.size
    q_prev, q, dq_prev, dq = np.zeros(m), np.ones(m), np.zeros(m), np.zeros(m)
    sum_qq, sum_qdq, shift = np.zeros(m), np.zeros(m), np.zeros(m, dtype=int)
    c_prev, bound = 0.0, 1.0  # bound >= |q_prev|, |q| for |x| <= reach
    for a, c in zip(diag.tolist(), off.tolist() + [1.0]):  # q_n is left unnormalized: only q_n / q_n' is used
        sum_qq += q * q
        sum_qdq += q * dq
        t = x - a
        q_prev, q, dq_prev, dq = q, (t * q - c_prev * q_prev) / c, dq, (q + t * dq - c_prev * dq_prev) / c
        bound *= (reach + abs(a) + c_prev) / c
        c_prev = c
        if bound > 1e100:
            e = np.frexp(np.maximum(abs(q_prev), abs(q)))[1]
            q_prev, q, dq_prev, dq = (np.ldexp(v, -e) for v in (q_prev, q, dq_prev, dq))
            sum_qq, sum_qdq, shift, bound = np.ldexp(sum_qq, -2 * e), np.ldexp(sum_qdq, -2 * e), shift + e, 1.0
    step = -q / dq
    return x + step, mu0 / (sum_qq + 2.0 * step * sum_qdq), shift


def radial_jacobi_grid(n: int, B: float) -> QuadratureGrid:
    """Rule for integrals over rho in [0, 1] against the weight (1 - rho)^(2B - 2): ``gauss_jacobi(n, 2B - 2)``.

    The weight is absorbed: ``grid.integrate(f)`` returns int_0^1 f(rho) (1-rho)^(2B-2) drho, exactly for
    polynomial f of degree <= 2n - 1.  Any finite B > 1/2; on (1/2, 1) the endpoint singularity is integrable
    and handled by the Jacobi weight itself.  DomainError where a weight underflows (from 576 nodes at
    B = 100, 227 at B = 600 and about 190 past B = 1e5).  The rule is ``gauss_jacobi``'s cached one.
    """
    check_strength(B)
    return gauss_jacobi(n, 2.0 * B - 2.0)


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def angular_grid(n: int) -> QuadratureGrid:
    """Uniform rule on the n-th roots of unity exp(2 pi i m / n) in FFT order; exact for e^(i k theta), |k| < n."""
    n = check_index("n", n, 2)
    theta = 2.0 * math.pi * np.arange(n) / n
    return QuadratureGrid(np.exp(1j * theta), np.full(n, 2.0 * math.pi / n))


def disk_grid(n_r: int, n_theta: int, B: float) -> QuadratureGrid:
    """Tensor rule for int_D f(z) (1 - |z|^2)^(2B - 2) dA(z).

    dA is the plane Lebesgue measure; in polar squared-radius coordinates it
    contributes the factor 1/2 drho dtheta that is folded into the weights.
    """
    radial, angular = radial_jacobi_grid(n_r, B), angular_grid(n_theta)
    z = np.sqrt(radial.nodes)[:, None] * angular.nodes
    w = 0.5 * radial.weights[:, None] * angular.weights[None, :]
    return QuadratureGrid(z.ravel(), w.ravel())


def hamiltonian_residual(j: int, B: float) -> float:
    """|(H - j - 1) phi_j| / |(j + 1) phi_j|, H = (1/4) (-d^2/dx^2 + x^2 + ((2B-1)^2 - 1/4) / x^2) + (1 - B).

    H is the pseudo-harmonic oscillator; phi_j at the RESIDUAL_NODES Chebyshev points cos(k pi / N) mapped to
    RESIDUAL_WINDOW, differentiated by their matrix D (Trefethen, Spectral Methods in MATLAB, ch. 6).
    """
    from .states import laguerre_function

    (lo, hi), k = RESIDUAL_WINDOW, np.arange(RESIDUAL_NODES)
    x, c = np.cos(math.pi * k / k[-1]), np.where((k == 0) | (k == k[-1]), 2.0, 1.0) * (-1.0) ** k
    d = np.outer(c, 1.0 / c) / (x[:, None] - x + np.eye(k.size))
    d = (d - np.diag(d.sum(axis=1))) * (2.0 / (hi - lo))
    xs = lo + 0.5 * (hi - lo) * (x + 1.0)
    phi, lam = laguerre_function(j, B, xs), j + 1.0
    applied = 0.25 * ((xs * xs + ((2.0 * B - 1.0) ** 2 - 0.25) / (xs * xs)) * phi - d @ (d @ phi)) + (1.0 - B) * phi
    return float(np.linalg.norm(applied - lam * phi) / np.linalg.norm(lam * phi))
