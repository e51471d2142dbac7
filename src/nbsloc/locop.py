"""Spectral data of the phase-space localization operator.

Quantizing a radial symbol F(|z|^2) against the negative binomial states
produces an operator that is diagonal in the Laguerre-function basis; its
eigenvalues are Beta-weighted averages of F.  For the indicator of the
disk of radius R they reduce to the regularized incomplete Beta function
I_{R^2}(j + 1, 2B - 1), which is simultaneously the CDF of a Beta random
variable (giving Monte-Carlo cross-checks) and a function of the
pseudo-harmonic oscillator through its eigenvalue j + 1.  The module also
carries the generalized level-m densities and eigenvalues, and the
photon-counting bound on the operator's content outside the disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AccuracyError, ConvergenceError, DomainError, UnsupportedLevelError
from .quadrature import disk_grid, mapped_legendre, radial_jacobi_grid
from .specfun import (SeriesControl, inc_beta_steps, log_beta, log_nb_weights, reg_inc_beta,
                      reg_inc_beta_table, sample_beta)
from .states import (LocalizationRadius, ModelParams, as_disk, as_radius, basis_series, bergman_basis,
                     check_strength, jacobi)

__all__ = [
    "SpectralData",
    "RadialSymbol",
    "radial_eigenvalue",
    "disk_eigenvalue",
    "spectral_apply",
    "as_function_of_hamiltonian",
    "beta_density",
    "landau_density",
    "landau_eigenvalue",
    "mc_eigenvalue",
    "leakage_bound",
    "localized_overlap",
    "quantization_matrix_element",
]

LANDAU_REFINE_TOL = 1e-10  # relative agreement landau_eigenvalue's refinement must reach


def disk_eigenvalue(j: int, B: float, R) -> float:
    """Eigenvalue of the disk-indicator localization operator: I_{R^2}(j+1, 2B-1)."""
    if j < 0:
        raise DomainError(f"needs j >= 0, got {j}")
    check_strength(B)
    R = as_radius(R)
    return reg_inc_beta(R * R, j + 1.0, 2.0 * B - 1.0)


@dataclass
class SpectralData:
    """Lazily filled eigenvalue table of the localization operator.

    Entries are computed on first access and cached; the fill is idempotent,
    so concurrent first access is harmless.  For m = 0, ``values`` and
    ``table`` fill every missing entry from one ``reg_inc_beta_table``; a
    lone ``eigenvalue(j)`` is ``disk_eigenvalue``.  All eigenvalues lie in
    [0, 1] and, for m = 0, decrease strictly in j.
    """

    B: float
    R: LocalizationRadius
    m: int = 0
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        ModelParams(self.B, self.m)
        if not isinstance(self.R, LocalizationRadius):
            self.R = LocalizationRadius(float(self.R))

    def eigenvalue(self, j: int) -> float:
        if j not in self._cache:
            if self.m == 0:
                self._cache[j] = disk_eigenvalue(j, self.B, self.R)
            else:
                self._cache[j] = landau_eigenvalue(j, ModelParams(self.B, self.m), self.R)
        return self._cache[j]

    def values(self, n: int) -> np.ndarray:
        """Eigenvalues j = 0..n-1 as an array."""
        missing = [j for j in range(n) if j not in self._cache]
        if missing and self.m == 0:
            lam = reg_inc_beta_table(self.R.R * self.R.R, n, 2.0 * self.B - 1.0)
            self._cache.update((j, float(lam[j])) for j in missing)
        return np.array([self.eigenvalue(j) for j in range(n)], dtype=float)

    def table(self, j_max: int) -> list[tuple[int, float]]:
        return list(enumerate(self.values(j_max + 1).tolist()))

    @property
    def eigenvalues(self) -> tuple[tuple[int, float], ...]:
        return tuple(sorted(self._cache.items()))


@dataclass(frozen=True)
class RadialSymbol:
    """Bounded radial classical observable rho = |z|^2 -> F(rho)."""

    func: Callable[[float], float]
    bound: float

    def __post_init__(self):
        if not (math.isfinite(self.bound) and self.bound >= 0.0):
            raise DomainError(f"symbol bound must be finite and nonnegative, got {self.bound}")


def radial_eigenvalue(F: RadialSymbol, j: int, B: float, n_nodes: int = 160) -> float:
    """Eigenvalue of the quantized radial symbol F.

    (1 / B(j+1, 2B-1)) int_0^1 rho^j (1 - rho)^(2B-2) F(rho) drho, by the
    weighted radial rule.  Discontinuous symbols converge slowly here; the
    disk indicator has the exact closed form ``disk_eigenvalue``.
    """
    if j < 0:
        raise DomainError(f"needs j >= 0, got {j}")
    grid = radial_jacobi_grid(n_nodes, B)
    fvals = np.asarray([F.func(r) for r in grid.nodes], dtype=float)
    if np.any(np.abs(fvals) > F.bound * (1.0 + 1e-12) + 1e-300):
        raise DomainError("symbol exceeds its declared bound on the integration nodes")
    integral = grid.weights @ (grid.nodes ** j * fvals)
    return float(integral * math.exp(-log_beta(j + 1.0, 2.0 * B - 1.0)))


def spectral_apply(coeffs, spectrum: SpectralData) -> np.ndarray:
    """Apply the localization operator to Laguerre-basis coefficients.

    Component-wise multiplication by the eigenvalue table, extended on
    demand.  The operator is not a projection: applying twice multiplies by
    the squared eigenvalues.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    return spectrum.values(coeffs.size) * coeffs


def as_function_of_hamiltonian(n: int, B: float, R) -> float:
    """Spectral function expressing the operator through oscillator eigenvalues.

    n -> I_{R^2}(n, 2B - 1) for n >= 1, which is ``disk_eigenvalue(n - 1, B, R)``.
    """
    if n < 1:
        raise DomainError(f"oscillator eigenvalues start at 1, got n={n}")
    return disk_eigenvalue(n - 1, B, R)


def _log_density_shape(rho: np.ndarray, a: int, b: float) -> np.ndarray:
    """log(rho^a (1 - rho)^b) on 0 <= rho < 1; -inf where rho = 0 < a."""
    with np.errstate(divide="ignore"):
        return (a * np.log(rho) if a else 0.0) + b * np.log1p(-rho)


def beta_density(j: int, B: float, rho):
    """Density of the Beta(j+1, 2B-1) law behind the eigenvalues.

    Gamma(2B+j) / (Gamma(2B-1) j!) (1 - rho)^(2B-2) rho^j on [0, 1), formed in logs;
    ``rho`` may be an ndarray.
    """
    if j < 0:
        raise DomainError(f"needs j >= 0, got {j}")
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0.0) or np.any(rho_arr >= 1.0):
        raise DomainError("density defined on 0 <= rho < 1")
    check_strength(B)
    ln_norm = math.log(2.0 * B - 1.0) + log_nb_weights(j + 1, 2.0 * B)[j]
    vals = np.exp(ln_norm + _log_density_shape(rho_arr, j, 2.0 * B - 2.0))
    return vals if isinstance(rho, np.ndarray) else float(vals)


def landau_density(j: int, params: ModelParams, rho):
    """Level-m generalization of ``beta_density``; reduces to it at m = 0.

    (2B-2m-1) ((m^j)! / (mvj)!) (Gamma(2B-2m+mvj)/Gamma(2B-2m+m^j))
      (1-rho)^(2B-2m-2) rho^|m-j| [P_{m^j}^(|m-j|, 2(B-m)-1)(1 - 2 rho)]^2
    with m^j = min(m, j), mvj = max(m, j), all but the squared polynomial formed
    in logs.  Needs m < B - 1/2 strictly, otherwise the weight is not normalizable.
    """
    if j < 0:
        raise DomainError(f"needs j >= 0, got {j}")
    B, m = params.B, params.m
    if not 2.0 * (B - m) - 1.0 > 0.0:
        raise DomainError(
            f"level density degenerates at m = B - 1/2: need m < B - 1/2, got B={B}, m={m}"
        )
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0.0) or np.any(rho_arr >= 1.0):
        raise DomainError("density defined on 0 <= rho < 1")
    lo, hi = min(m, j), max(m, j)
    log_w = log_nb_weights(hi + 1, 2.0 * B - 2.0 * m)
    ln_norm = math.log(2.0 * B - 2.0 * m - 1.0) + log_w[hi] - log_w[lo]
    poly = jacobi(lo, float(hi - lo), 2.0 * (B - m) - 1.0, 1.0 - 2.0 * rho_arr)
    vals = np.exp(ln_norm + _log_density_shape(rho_arr, hi - lo, 2.0 * B - 2.0 * m - 2.0)) * poly * poly
    return vals if isinstance(rho, np.ndarray) else float(vals)


def landau_eigenvalue(j: int, params: ModelParams, R, n_nodes: int = 320) -> float:
    """Level-m eigenvalue: mass of the level-m density on [0, R^2].

    Gauss-Legendre on [0, R^2]; the weight factor is smooth there because
    its singularity sits at rho = 1, outside the interval.  The same rule on
    each half of [0, R^2] gives the refined value, returned unless the two
    differ by more than LANDAU_REFINE_TOL relatively (AccuracyError).
    """
    R = as_radius(R)

    def mass(lo: float, hi: float) -> float:
        nodes, weights = mapped_legendre(n_nodes, lo, hi)
        return float(weights @ landau_density(j, params, nodes))

    # halves, not a 2 n_nodes rule: that rule's dense build needs 4x the peak memory
    s = R * R
    coarse, fine = mass(0.0, s), mass(0.0, 0.5 * s) + mass(0.5 * s, s)
    if abs(fine - coarse) > LANDAU_REFINE_TOL * abs(fine):
        raise AccuracyError(f"level-m eigenvalue not converged: refinement moved {fine:.6e} "
                            f"by {abs(fine - coarse):.3e} (relative tol {LANDAU_REFINE_TOL:.0e})")
    return fine


def mc_eigenvalue(j: int, params: ModelParams, R, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of the eigenvalue as Pr(Y <= R^2), Y ~ Beta(j+1, 2B-1).

    Returns (estimate, standard error).  Only the lowest level has a Beta
    sampling route; higher levels are certified by quadrature instead.
    """
    if params.m != 0:
        raise UnsupportedLevelError(
            f"sampling route exists only for m = 0, got m={params.m}; use landau_eigenvalue"
        )
    if n_samples < 100:
        raise DomainError(f"needs n_samples >= 100, got {n_samples}")
    R = as_radius(R)
    draws = sample_beta(j + 1.0, 2.0 * params.B - 1.0, n_samples, seed)
    estimate = float(np.mean(draws <= R * R))
    std_error = math.sqrt(estimate * (1.0 - estimate) / n_samples)
    return estimate, std_error


def leakage_bound(z0, B: float, R, tail_tol: float = 1e-14) -> float:
    """Photon-counting bound on the operator's content at a coherence point.

    sqrt(sum_j I_{R^2}(j+1, 2B-1)^2 pmf(j)) with the negative binomial law
    at p = |z0|^2.  The eigenvalues decrease, so the terms past index n - 1
    add at most I_{R^2}(n, 2B-1)^2 P(N >= n), with P(N >= n) = I_p(n, 2B)
    exactly; n doubles until that is at most ``tail_tol``, or raises
    ConvergenceError past SeriesControl's default max_terms.
    """
    z0 = as_disk(z0)
    R = as_radius(R)
    check_strength(B)
    p = abs(z0) ** 2
    s, b = R * R, 2.0 * B - 1.0
    n, max_terms = 32, SeriesControl().max_terms
    while reg_inc_beta(s, float(n), b) ** 2 * reg_inc_beta(p, float(n), 2.0 * B) > tail_tol:
        if n >= max_terms:
            raise ConvergenceError(
                f"photon-count tail above {tail_tol} after {n} terms at p={p}", terms_used=n)
        n = min(2 * n, max_terms)
    lam = reg_inc_beta_table(s, n, b)
    return math.sqrt(float(lam * lam @ inc_beta_steps(p, n, 2.0 * B)))


def localized_overlap(z0, B: float, R, coeffs) -> float:
    """|<state at z0, localized f>| for f given by Laguerre-basis coefficients.

    Closed form |sum_j lambda_j (1-|z0|^2)^B sqrt(Gamma(2B+j)/(j! Gamma(2B)))
    conj(z0)^j c_j|; bounded by ``leakage_bound`` times the norm of f.
    """
    z0 = as_disk(z0)
    R = as_radius(R)
    check_strength(B)
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.size == 0:
        return 0.0
    lam = reg_inc_beta_table(R * R, coeffs.size, 2.0 * B - 1.0)
    pref = (1.0 - abs(z0) ** 2) ** B / math.sqrt(2.0 * B - 1.0)
    return abs(pref * basis_series(lam * coeffs, B, z0.conjugate()))


def quantization_matrix_element(F, j: int, k: int, B: float, grid=None) -> complex:
    """Matrix element of the quantized (not necessarily radial) symbol F.

    (pi Gamma(2B-1))^(-1) sqrt(Gamma(2B+j) Gamma(2B+k) / (j! k!))
      int_D conj(z)^j z^k (1-|z|^2)^(2B-2) F(z) dA(z)
    by disk quadrature, F called once on all nodes.  For radial F the
    off-diagonal entries vanish and the diagonal reproduces ``radial_eigenvalue``.
    """
    if j < 0 or k < 0:
        raise DomainError("matrix element indices must be nonnegative")
    if grid is None:
        grid = disk_grid(64, 128, B)
    z = grid.nodes
    # the prefactor is that of conj(basis_j) basis_k: Gamma(2B) / Gamma(2B-1) = 2B - 1
    return grid.weights @ (np.conjugate(bergman_basis(j, B, z)) * bergman_basis(k, B, z) * F(z)) / math.pi
