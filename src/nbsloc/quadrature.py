"""Deterministic integration grids.

Three families cover every integral in the package:

  * ``half_line_grid``   -- Gauss-Legendre mapped to [0, cutoff] for inner
    products of Laguerre functions (their Gaussian decay makes a truncated
    interval certifiably accurate once the cutoff is large enough);
  * ``radial_jacobi_grid`` -- Gauss-Jacobi on [0, 1] with the endpoint weight
    (1 - rho)^(2B - 2) absorbed into the weights, so that B in (1/2, 1) (an
    integrable singularity) needs no special casing;
  * ``disk_grid``        -- the tensor product of the radial rule with a
    uniform (spectrally accurate) angular rule for weighted disk integrals.

Every Gauss rule is a ``gauss_jacobi`` rule (Legendre: alpha = beta = 0).
Values derived from a rule are built once and shared, each in an LRU cache of
RULE_CACHE_SIZE entries:

  * ``gauss_jacobi(n, alpha, beta)`` -- the rule on [-1, 1];
  * ``radial_jacobi_grid(n, B)`` and ``angular_grid(n)`` -- one grid each;
  * ``radial_moments(n, B, size)`` -- sum_i W_i r_i^p, p < size (a power of
    two), on the radii r_i = sqrt(rho_i) of ``radial_jacobi_grid(n, B)``.

Rule, grid and moment arrays are read-only and integration is a dot product,
so all of it is thread-safe; a call that raises caches nothing.
Fixed rule sizes are module constants, DISK_RULE and RESIDUAL_*, not arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

DISK_RULE = (64, 128)  # (radii, angles) of the polar rule every disk integral starts from
RESIDUAL_STEP = 1e-3  # hamiltonian_residual's finite-difference step
RESIDUAL_WINDOW = (0.5, 8.0)  # hamiltonian_residual's interval, away from the x = 0 singularity
RULE_CACHE_SIZE = 64  # entries kept by each rule, grid and moment cache; a 600-node rule takes 10 kB
RADIAL_MAX_B = 512.0  # past it the radial rule's Jacobi mass 2^(2B-1) / (2B-1) leaves the double range


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and strictly positive weights for one integration rule.

    For a one-dimensional rule ``nodes`` is a float array strictly inside
    the open integration domain; for a ``disk_grid`` it is a complex array of
    points strictly inside the unit disk and the weights absorb both the
    radial weight function and the angular step.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.shape != self.weights.shape:
            raise DomainError("nodes and weights must have matching shapes")
        if not np.all(self.weights > 0.0):
            raise DomainError("quadrature weights must be strictly positive")
        for name in ("nodes", "weights"):  # read-only views; the caller's arrays keep their flags
            view = getattr(self, name).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def integrate(self, f) -> complex:
        """Apply the rule to a callable or to precomputed node values."""
        values = f(self.nodes) if callable(f) else np.asarray(f)
        return self.weights @ values


def mapped_legendre(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [lo, hi]: ``gauss_jacobi(n, 0.0, 0.0)`` moved affinely."""
    if not hi > lo:
        raise DomainError(f"empty interval [{lo}, {hi}]")
    x, w = gauss_jacobi(n, 0.0, 0.0)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def suggested_cutoff(max_degree: int, B: float) -> float:
    """Truncation point beyond which Laguerre functions up to ``max_degree`` decay below 1e-16."""
    return math.sqrt(2.0 * (4.0 * max_degree + 8.0 * B)) + 10.0


def half_line_grid(n: int, cutoff: float) -> QuadratureGrid:
    """Gauss-Legendre rule on [0, cutoff] for half-line inner products."""
    if cutoff <= 0.0:
        raise DomainError(f"cutoff must be positive, got {cutoff}")
    nodes, weights = mapped_legendre(n, 0.0, cutoff)
    return QuadratureGrid(nodes, weights)


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def gauss_jacobi(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule on [-1, 1] for the weight (1-x)^alpha (1+x)^beta.

    Nodes are the Jacobi matrix's eigenvalues.  One run of the orthonormal recurrence q_0 = 1, ...,
    q_n at every node gives a Newton step -q_n / q_n' and the sums of q_k^2 and q_k q_k' over k < n,
    hence the Christoffel weight mu_0 / sum_k q_k^2 at the stepped node to first order: accurate
    relative to itself, where Golub-Welsch eigenvector weights are off by eps times the largest.
    Once a bound on the recurrence passes 1e100, each node's values are divided by the power of two
    just above its larger last value, which is exact.  Exact for polynomials of degree <= 2n - 1.
    Memoized; the arrays are read-only.
    """
    if n < 2:
        raise DomainError(f"need at least 2 nodes, got {n}")
    if not (alpha > -1.0 and beta > -1.0):
        raise DomainError(f"Jacobi weight needs alpha, beta > -1, got {alpha}, {beta}")
    ab = alpha + beta
    # mu_0 = 2^(ab+1) B(alpha+1, beta+1), alpha's integer part m taken out of the log-gammas, where it would cancel
    f, m = math.modf(alpha)
    mu0 = math.inf if not ab < 1023.0 else 2.0 ** (ab + 1.0) * math.exp(
        math.lgamma(f + 1.0) + math.lgamma(beta + 1.0) - math.lgamma(f + beta + 2.0)
        + np.log1p(-(beta + 1.0) / (f + beta + 2.0 + np.arange(m))).sum())
    if mu0 == math.inf:
        raise DomainError(f"the rule's mass 2^(alpha+beta+1) B(alpha+1, beta+1) is past the double range, "
                          f"as for every alpha + beta >= 1023; got alpha={alpha}, beta={beta}")
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    ii = np.arange(1.0, n)
    diag[1:] = (beta * beta - alpha * alpha) / ((2.0 * ii + ab) * (2.0 * ii + ab + 2.0))
    off = np.empty(n - 1)
    off[0] = math.sqrt(4.0 * (alpha + 1.0) * (beta + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0)))
    if n > 2:
        k = np.arange(2.0, n)
        s = 2.0 * k + ab
        off[1:] = np.sqrt(4.0 * k * (k + alpha) * (k + beta) * (k + ab) / (s * s * (s * s - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    q_prev, q, dq_prev, dq = np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n)
    sum_qq, sum_qdq, shift = np.zeros(n), np.zeros(n), np.zeros(n, dtype=int)
    c_prev, bound = 0.0, 1.0  # bound >= |q_prev|, |q| on [-1, 1]
    for a, c in zip(diag.tolist(), off.tolist() + [1.0]):  # q_n is left unnormalized: only q_n / q_n' is used
        sum_qq += q * q
        sum_qdq += q * dq
        t = x - a
        q_prev, q, dq_prev, dq = q, (t * q - c_prev * q_prev) / c, dq, (q + t * dq - c_prev * dq_prev) / c
        bound *= (1.0 + abs(a) + c_prev) / c
        c_prev = c
        if bound > 1e100:
            e = np.frexp(np.maximum(abs(q_prev), abs(q)))[1]
            q_prev, q, dq_prev, dq = (np.ldexp(v, -e) for v in (q_prev, q, dq_prev, dq))
            sum_qq, sum_qdq, shift, bound = np.ldexp(sum_qq, -2 * e), np.ldexp(sum_qdq, -2 * e), shift + e, 1.0
    step = -q / dq
    nodes = x + step
    weights = np.ldexp(mu0 / (sum_qq + 2.0 * step * sum_qdq), -2 * shift)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def radial_jacobi_grid(n: int, B: float) -> QuadratureGrid:
    """Rule for integrals over rho in [0, 1] against the weight (1 - rho)^(2B - 2).

    The weight is absorbed: ``grid.integrate(f)`` returns
    int_0^1 f(rho) (1-rho)^(2B-2) drho, exactly for polynomial f of degree
    <= 2n - 1.  Requires 1/2 < B < RADIAL_MAX_B; on (1/2, 1) the endpoint
    singularity is integrable and handled by the Jacobi weight itself, and
    past RADIAL_MAX_B the rule on [-1, 1] has weights beyond the double range.
    Memoized by (n, B).
    """
    if not 0.5 < B < RADIAL_MAX_B:
        raise DomainError(f"radial rule needs 1/2 < B < {RADIAL_MAX_B:g} (an integrable weight, and "
                          f"Jacobi weights within the double range), got B={B}")
    exponent = 2.0 * B - 2.0
    x, w = gauss_jacobi(n, exponent, 0.0)
    return QuadratureGrid(0.5 * (x + 1.0), w * 0.5 ** (exponent + 1.0))


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def radial_moments(n: int, B: float, size: int) -> np.ndarray:
    """M_p = sum_i W_i r_i^p for p < size, on the radii r_i = sqrt(rho_i) of ``radial_jacobi_grid(n, B)``.

    ``size`` is a power of two, so that a few tables serve every length.  Memoized by (n, B, size);
    the array is read-only.
    """
    if not (size >= 1 and size & (size - 1) == 0):
        raise DomainError(f"moment table size must be a power of two, got {size}")
    grid = radial_jacobi_grid(n, B)
    r, step = np.sqrt(grid.nodes)[:, None], min(size, 64)
    # r^p = r^(p - b) r^b with b = p mod 64, to 1.5 ulp: n (size/64 + 64) powers, not n size
    powers = (r ** np.arange(0, size, step))[:, :, None] * r[:, :, None] ** np.arange(step)
    moments = grid.weights @ powers.reshape(r.size, size)
    moments.flags.writeable = False
    return moments


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def angular_grid(n: int) -> QuadratureGrid:
    """Uniform midpoint rule on (0, 2 pi); spectrally accurate for trigonometric integrands.  Memoized by n."""
    if n < 2:
        raise DomainError(f"need at least 2 angular nodes, got {n}")
    theta = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    weights = np.full(n, 2.0 * math.pi / n)
    return QuadratureGrid(theta, weights)


def disk_grid(n_r: int, n_theta: int, B: float) -> QuadratureGrid:
    """Tensor rule for int_D f(z) (1 - |z|^2)^(2B - 2) dA(z).

    dA is the plane Lebesgue measure; in polar squared-radius coordinates it
    contributes the factor 1/2 drho dtheta that is folded into the weights.
    """
    radial, angular = radial_jacobi_grid(n_r, B), angular_grid(n_theta)
    r = np.sqrt(radial.nodes)
    z = r[:, None] * np.exp(1j * angular.nodes)[None, :]
    w = 0.5 * radial.weights[:, None] * angular.weights[None, :]
    return QuadratureGrid(z.ravel(), w.ravel())


def fd_eigen_residual(values: np.ndarray, xs: np.ndarray, B: float, eigenvalue: float) -> float:
    """Relative L2 residual of (H - eigenvalue) applied to sampled values.

    H is the pseudo-harmonic oscillator
        H = (1/4) (-d^2/dx^2 + x^2 + ((2B-1)^2 - 1/4) / x^2) + (1 - B),
    normalized so that its Laguerre eigenfunctions carry eigenvalues j + 1.
    The second derivative is the central difference on the uniform grid xs.
    Identically zero input has residual zero by convention.
    """
    h = xs[1] - xs[0]
    second = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (h * h)
    x_in, v_in = xs[1:-1], values[1:-1]
    strength = (2.0 * B - 1.0) ** 2 - 0.25
    applied = 0.25 * (-second + x_in * x_in * v_in + strength * v_in / (x_in * x_in)) + (1.0 - B) * v_in
    target = eigenvalue * v_in
    residual, denom = float(np.linalg.norm(applied - target)), float(np.linalg.norm(target))
    return residual / denom if denom else residual


def hamiltonian_residual(j: int, B: float) -> float:
    """Finite-difference check that the j-th Laguerre function has eigenvalue j + 1.

    Returns the relative L2 residual over RESIDUAL_WINDOW, sampled every
    RESIDUAL_STEP.
    """
    from .states import laguerre_function

    (lo, hi), step = RESIDUAL_WINDOW, RESIDUAL_STEP
    xs = lo + step * np.arange(round((hi - lo) / step) + 1)
    return fd_eigen_residual(laguerre_function(j, B, xs), xs, B, float(j + 1))
