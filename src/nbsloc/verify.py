"""Named verification checks certifying every identity the library relies on.

Each check is deterministic (fixed seeds, fixed grids), returns a
CheckResult with the worst measured error and its pinned tolerance, and
runs in at most a few seconds.  ``run_all`` executes the whole battery;
the CLI command ``verify`` reports it and exits nonzero on any failure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bergman, locop, quadrature, specfun, states
from .errors import DomainError
from .states import ModelParams

__all__ = ["CheckResult", "run_all", "run_check", "check_names"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_error: float
    tolerance: float
    detail: str = ""


def _result(name: str, max_error: float, tolerance: float, detail: str = "", ok: bool = True) -> CheckResult:
    """A check passes when ``max_error <= tolerance`` and its side condition ``ok`` holds."""
    return CheckResult(name, bool(ok and max_error <= tolerance), float(max_error), float(tolerance), detail)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _random_disk_point(rng: np.random.Generator, radius: float) -> complex:
    r = radius * math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    return r * cmath.exp(1j * theta)


# --------------------------------------------------------------------------
# special functions


def check_incbeta_reflection() -> CheckResult:
    """I_x(a,b) + I_{1-x}(b,a) = 1."""
    rng = _rng(101)
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(0.0, 1.0)
        a = rng.uniform(0.05, 20.0)
        b = rng.uniform(0.05, 20.0)
        err = abs(specfun.reg_inc_beta(x, a, b) + specfun.reg_inc_beta(1.0 - x, b, a) - 1.0)
        worst = max(worst, err)
    return _result("incbeta_reflection", worst, 1e-12)


def check_laguerre_generating_function() -> CheckResult:
    """Partial sums of t^j L_j^(alpha)(x) against (1-t)^(-alpha-1) exp(-t x/(1-t)), one table per (alpha, x).

    Budget, relative to the closed form: the tail past j = 60 is below 1e-22 (Szego's bound
    |L_j^(alpha)(x)| <= binom(j + alpha, j) e^(x/2), twice that for alpha < 0, at t^61 <= 0.4^61).  The
    recurrence leaves L_j off by at most 4 (j + 1) eps max_(k <= j) |L_k|, and the 61-term sum adds
    61 eps sum t^j |L_j|; over the grid these weighted sums reach 11 and 5.2 times the closed form (alpha = -1/2,
    x = 2, t = 0.4), so (4 * 11 + 62 * 5.2) eps ~ 8e-14.  Tolerance 1e-13.
    """
    worst = 0.0
    for alpha in (-0.5, 0.0, 1.5, 3.0):
        for x in (0.5, 2.0):
            table = specfun.laguerre(range(61), alpha, x).tolist()
            for t in (0.1, 0.4):
                partial = sum(t ** j * value for j, value in enumerate(table))
                closed = (1.0 - t) ** (-alpha - 1.0) * math.exp(-t * x / (1.0 - t))
                worst = max(worst, abs(partial - closed) / abs(closed))
    return _result("laguerre_generating_function", worst, 1e-13)


def check_gauss_theorem() -> CheckResult:
    """Value at z = 1 and the monotone approach along the real axis."""
    worst = 0.0
    for B in (0.75, 1.0, 1.5, 2.5, 4.0):
        got = specfun.gauss_2f1(2.0 - 2.0 * B, 1.0, 2.0, 1.0).value.real
        worst = max(worst, abs(got - 1.0 / (2.0 * B - 1.0)))
    B = 1.25
    at_one = specfun.gauss_2f1(2.0 - 2.0 * B, 1.0, 2.0, 1.0).value.real
    gaps = []
    for k in range(2, 6):
        val = specfun.gauss_2f1(2.0 - 2.0 * B, 1.0, 2.0, 1.0 - 10.0 ** (-k)).value.real
        gaps.append(abs(val - at_one))
    monotone = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    return _result("gauss_theorem", worst, 1e-10,
                   detail=f"approach gaps {['%.3e' % g for g in gaps]}",
                   ok=monotone)


def check_appell_reductions() -> CheckResult:
    """Diagonal reduction, both Euler-type transformations, and index symmetry.

    Budget, relative: F1 stops after three anti-diagonals below SERIES_REL_TOL of its sum, at arguments up to
    0.82, so its tail is about 1e-12 * 0.82 / 0.18 = 4.6e-12 (2F1 at |z| <= 0.45: 0.8e-12); n <= 140 blocks, each
    rounded in n steps and once more in the sum, add gamma_2n = 3.1e-14 of sum |term| <= 91 |sum|: 2.8e-12.  Two
    sums per comparison: 1.5e-11.  Tolerance 2e-11.
    """
    rng = _rng(202)
    worst = 0.0
    exact_symmetry = True
    for _ in range(20):
        a = rng.uniform(-2.0, 2.0)
        b1 = rng.uniform(-2.0, 2.0)
        b2 = rng.uniform(-2.0, 2.0)
        c = rng.uniform(1.0, 4.0)
        z = rng.uniform(-0.45, 0.45)
        lhs = specfun.appell_f1(a, b1, b2, c, z, z).value
        rhs = specfun.gauss_2f1(a, b1 + b2, c, z).value
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))

        u = rng.uniform(-0.3, 0.3)
        v = rng.uniform(-0.3, 0.3)
        lhs = specfun.appell_f1(a, b1, b2, c, u, v).value
        pfaff = (1.0 - u) ** (-b1) * (1.0 - v) ** (-b2) * specfun.appell_f1(
            c - a, b1, b2, c, u / (u - 1.0), v / (v - 1.0)).value
        worst = max(worst, abs(lhs - pfaff) / max(abs(lhs), 1e-30))
        euler = (1.0 - u) ** (c - a - b1) * (1.0 - v) ** (-b2) * specfun.appell_f1(
            c - a, c - b1 - b2, b2, c, u, (u - v) / (1.0 - v)).value
        worst = max(worst, abs(lhs - euler) / max(abs(lhs), 1e-30))

        swapped = specfun.appell_f1(a, b2, b1, c, v, u).value
        exact_symmetry = exact_symmetry and (swapped == lhs)
    return _result("appell_f1_reductions", worst, 2e-11,
                   detail=f"index symmetry bit-exact: {exact_symmetry}",
                   ok=exact_symmetry)


# --------------------------------------------------------------------------
# quadrature


def check_radial_rule() -> CheckResult:
    """Weighted moments against exact Beta values, plus error decay under doubling.  Budget, relative: 40 nodes
    integrate rho^j, j <= 18, exactly and every term w_i rho_i^j is positive, so only rounding is left.  The
    weights are off by at most 17 eps and the node powers (j times a node's error, plus pow's ulp) by 7 eps,
    each averaged over the terms it enters (40-digit mpmath, these eight B); the 40-term sum adds at most
    39 eps and the rounded exact value 1: 64 eps ~ 1.4e-14.  Tolerance 1e-13."""
    worst = 0.0
    for B in (0.75, 1.0, 1.5, 3.0, 20.0, 50.0, 600.0, 5000.0):
        grid = quadrature.radial_jacobi_grid(40, B)
        b = Fraction(2.0 * B - 1.0)
        for j in range(0, 20, 3):
            got = float(grid.integrate(grid.nodes ** j))
            want = float(math.factorial(j) / math.prod(b + i for i in range(j + 1)))  # B(j + 1, b), rounded once
            worst = max(worst, abs(got - want) / want)
    smooth = lambda r: np.cos(3.0 * r) * np.exp(r)
    exact = float(quadrature.radial_jacobi_grid(200, 1.25).integrate(smooth))
    err_n = abs(float(quadrature.radial_jacobi_grid(6, 1.25).integrate(smooth)) - exact)
    err_2n = abs(float(quadrature.radial_jacobi_grid(12, 1.25).integrate(smooth)) - exact)
    return _result("radial_rule_beta_integrals", worst, 1e-13,
                   detail=f"doubling err {err_n:.2e} -> {err_2n:.2e}",
                   ok=err_2n < err_n)


def check_disk_rule_delta() -> CheckResult:
    """Angular orthogonality: the quantized constant symbol is the identity matrix, as one 13 x 13 block.

    Budget: conj(z)^j z^k is r^(j+k) e^(i (k-j) theta); the 64 midpoint angles sum e^(i m theta) to zero for
    0 < |m| < 64 and the 48 radii integrate rho^j, j <= 12, exactly, so only rounding is left.  By
    Cauchy-Schwarz an entry's terms have moduli adding to at most 1.  Against that: the basis norms
    (8 eps), the powers z^k (20 eps), node rounding carried through rho^j and the phases (24 eps), the rule's
    weights (5 eps), the products (4 eps) and the 3072-term pairwise sum (13 eps): 74 eps ~ 1.7e-14.
    Tolerance 1e-13.
    """
    B = 1.5
    block = locop.quantization_matrix_element(lambda z: 1.0, range(13), range(13), B,
                                              quadrature.disk_grid(48, 64, B))
    return _result("disk_rule_delta_structure", float(np.max(np.abs(block - np.eye(13)))), 1e-13)


def check_oscillator_residual() -> CheckResult:
    """Chebyshev eigen-residual of the Laguerre functions.  Budget: the 64-point interpolant is off by
    rho^-63 ~ 1e-14 (rho = 1.67, the ellipse through the branch point xi = 0); |D| has row sums up to
    N^2 2 / (hi - lo) = 1.1e3, so rounding in D^2 / 4 is eps (1.1e3)^2 / 4 ~ 6e-11.  Tolerance 1e-10."""
    worst = 0.0
    for B, js in ((1.5, range(6)), (0.8, (0, 3))):
        for j in js:
            worst = max(worst, quadrature.hamiltonian_residual(j, B))
    return _result("oscillator_eigen_residual", worst, 1e-10)


# --------------------------------------------------------------------------
# states


def check_laguerre_orthonormality() -> CheckResult:
    """Gram matrix of the first 21 Laguerre functions, three strengths.  Budget: 21 nodes are exact for
    phi_j phi_k, j, k <= 20; each entry sums 21 terms whose moduli add to at most 1, of values good to
    about 20 eps: 61 eps ~ 1.4e-14.  Tolerance 1e-12."""
    worst = 0.0
    for B in (0.8, 1.5, 3.0):
        grid = quadrature.half_line_grid(21, B)
        table = states.laguerre_function(range(21), B, grid.nodes)
        gram = (table * grid.weights) @ table.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(21)))))
    return _result("laguerre_orthonormality", worst, 1e-12)


def check_state_normalization() -> CheckResult:
    """Unit norms and the closed-form pairwise overlap of the disk states.

    conj(v_z) v_w is a constant times xi^(4B-1) exp(-e xi^2), e = (conj(c_z) + c_w) / 2, c_z = (1 + z)/(1 - z);
    on the 100-node rule scaled by s = Re e only exp(-i tau u), tau = Im e / s, is not exact.  Budget: its Gauss
    remainder sqrt(2) tau^(2n) n! Gamma(n + 2B) / ((2n)! Gamma(2B)) is 6e-15 at the worst draw (tau = 1.57,
    B = 2); rounding adds about 100 eps.  Tolerance 1e-12."""
    worst = 0.0
    rng = _rng(303)
    for B in (0.8, 1.25, 2.0):
        grid = quadrature.half_line_grid(100, B)
        for _ in range(4):
            z, w = _random_disk_point(rng, 0.7), _random_disk_point(rng, 0.7)
            re_z, re_w = (((1.0 + v) / (1.0 - v)).real for v in (z, w))
            for v, s in ((z, re_z), (w, 0.5 * (re_z + re_w))):  # the norm of v_z, then the overlap
                xi, weights = grid.nodes / math.sqrt(s), grid.weights / math.sqrt(s)
                got = weights @ (np.conjugate(states.nbs_wavefunction(z, B, xi)) * states.nbs_wavefunction(v, B, xi))
                want = ((1.0 - abs(z) ** 2) * (1.0 - abs(v) ** 2)) ** B \
                    * states.principal_power(1.0 - z.conjugate() * v, -2.0 * B)
                worst = max(worst, abs(got - want))
    return _result("state_normalization_overlap", worst, 1e-12)


def check_state_quadrature_coefficients() -> CheckResult:
    """Half-line quadrature route to the number-state coefficients.  Budget: phi_k v_z is exp(-i tau u),
    tau = 1/3, times what the 20-node rule scaled by s = (1 + Re c_z) / 2 integrates exactly: a Gauss remainder
    below 1e-28; rounding, 40 eps times the rescale 1.5, ~ 1e-14.  Tolerance 1e-12."""
    B, z = 1.25, 0.4 + 0.2j
    grid, root = quadrature.half_line_grid(20, B), math.sqrt(0.5 * (1.0 + ((1.0 + z) / (1.0 - z)).real))
    xi, weights = grid.nodes / root, grid.weights / root
    vz = states.nbs_wavefunction(z, B, xi)
    rescale = (1.0 - abs(z) ** 2) ** (-B) * math.sqrt(2.0 * B - 1.0)
    worst = 0.0
    for k, phi in enumerate(states.laguerre_function(range(7), B, xi)):
        got = complex(weights @ (phi * vz)) * rescale
        worst = max(worst, abs(got - states.bergman_basis(k, B, z)))
    return _result("state_quadrature_coefficients", worst, 1e-12)


def check_resolution_of_identity() -> CheckResult:
    """Frame property of the disk states over the invariant measure.

    Budget: the integrand is (1/pi) conj(f) g on the weighted disk, with f and g of degree 6, so the rule is
    exact (degree 6 in rho on 48 radii, phases |j - k| <= 6 on 32 angles) and only rounding is left.  A term
    takes about 30 eps (the norms, z^k, two 7-term dot products, and the powers of 1 - rho, which cancel
    from one rounded rho); summing 1536 terms adds at most 1536 eps.  Both are relative to sum |terms| <=
    |cf| |cg| (Cauchy-Schwarz, exact on this rule), 5.7 |want| for these draws: 1566 eps 5.7 ~ 2e-12 of
    |want|.  Tolerance 2e-11."""
    B = 1.25
    rng = _rng(404)
    cf = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    cg = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    grid = quadrature.disk_grid(48, 32, B)
    rho = np.abs(grid.nodes) ** 2
    basis = states.bergman_basis(range(7), B, grid.nodes)
    f_side = (1.0 - rho) ** B / math.sqrt(2.0 * B - 1.0) * (np.conjugate(cf) @ basis)
    g_side = (1.0 - rho) ** B / math.sqrt(2.0 * B - 1.0) * (cg @ np.conjugate(basis))
    measure = (2.0 * B - 1.0) / (math.pi * (1.0 - rho) ** (2.0 * B))
    got = complex(grid.weights @ (f_side * g_side * measure))
    want = complex(np.conjugate(cf) @ cg)
    return _result("resolution_of_identity", abs(got - want) / abs(want), 2e-11)


def check_expansion_convergence() -> CheckResult:
    """Truncated number-state expansion converges to the closed form.

    Budget at J = 80: the tail is below (1 - |z|^2)^B / sqrt(2B - 1) basis_81(|z|) ~ 7e-24.  The 81
    Laguerre values come from a recurrence that oscillates rather than grows past k = 0, where xi^2 = 2.89 <
    2k + 2B, so each step adds a few eps of the largest value, below 1: 80 x 4 eps ~ 7e-14 per value, weighed by
    (1 - |z|^2)^B / sqrt(2B - 1) sum_j basis_j(|z|) = 2.1, ~ 1.5e-13; Horner's rule adds 2 x 81 eps of that
    sum, 8e-14; the closed form is one exponential, good to about 10 eps of its modulus 0.18.  Total ~ 2.3e-13.
    Tolerance 5e-12."""
    B, z, xi = 1.25, 0.5, 1.7
    closed = states.nbs_wavefunction(z, B, xi)
    err80 = abs(states.nbs_expansion(z, B, xi, 80) - closed)
    errs = [abs(states.nbs_expansion(z, B, xi, J) - closed) for J in range(20, 45, 4)]
    monotone = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    return _result("expansion_convergence", err80, 5e-12,
                   detail=f"tail envelope decreasing: {monotone}",
                   ok=monotone)


def check_halfplane_kernel() -> CheckResult:
    """Hermitian symmetry, unit diagonal, and strict boundedness."""
    rng = _rng(505)
    worst = 0.0
    bounded = True
    for B in (0.8, 1.5, 3.0):
        for _ in range(25):
            w = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
            zeta = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
            k_wz = states.halfplane_kernel(w, zeta, B)
            k_zw = states.halfplane_kernel(zeta, w, B)
            worst = max(worst, abs(k_wz - k_zw.conjugate()))
            worst = max(worst, abs(states.halfplane_kernel(w, w, B) - 1.0))
            bounded = bounded and abs(k_wz) <= 1.0 + 1e-14 and (w == zeta or abs(k_wz) < 1.0)
    return _result("halfplane_kernel_bounds", worst, 1e-12,
                   detail=f"modulus bounded by one: {bounded}",
                   ok=bounded)


# --------------------------------------------------------------------------
# localization operator


def check_spectrum() -> CheckResult:
    """Bounds, strict decrease, the B = 1 closed form, and the oscillator function."""
    worst_b1 = 0.0
    ordered = True
    in_range = True
    for B in (0.8, 1.0, 1.5, 3.0):
        for R in (0.3, 0.6, 0.9):
            lam = [locop.disk_eigenvalue(j, B, R) for j in range(51)]
            in_range = in_range and all(0.0 <= v <= 1.0 for v in lam)
            ordered = ordered and all(lam[j + 1] < lam[j] for j in range(50))
    for j in range(21):
        worst_b1 = max(worst_b1, abs(locop.disk_eigenvalue(j, 1.0, 0.5) - 0.25 ** (j + 1)))
    exact_fn = all(
        locop.as_function_of_hamiltonian(j + 1, 1.5, 0.7) == locop.disk_eigenvalue(j, 1.5, 0.7)
        for j in range(31)
    )
    return _result("spectrum_bounds_monotone", worst_b1, 1e-12,
                   detail=f"monotone: {ordered}, in [0,1]: {in_range}, H-function exact: {exact_fn}",
                   ok=ordered and in_range and exact_fn)


def check_eigenvalue_norm_identity() -> CheckResult:
    """Eigenvalues as squared norms of basis elements over the subdisk.

    Two-dimensional quadrature over |z| < R (radial rule mapped to [0, R^2] with the weight in the
    integrand, times the angular rule), j < 9 at B = 1.25, R = 0.6.  Budget: |z^j|^2 does not depend on
    the angle, so the 32 angles are exact.  In rho the integrand n_j^2 rho^j (1 - rho)^(1/2), n_j^2 =
    1/B(j+1, 2B-1) <= 32, is analytic and at most 21 inside the Bernstein ellipse of parameter 8 about
    [0, R^2], which reaches rho = 0.91 < 1; so the 160-node Gauss-Legendre rule is off by less than
    (R^2 / 2) 21 (64/15) 8^(-320) / 63 ~ 3e-290 (Trefethen, ATAP Thm 19.3).  Rounding: the 5,120 positive
    terms summed in any order, 5,128 u of the norm (at most 1), u = 2^-53: 5.7e-13; the basis norms,
    3.1e-14 each (``log_nb_weights``), twice: 6.2e-14; the eigenvalue table, within 1.3e-13 of mpmath
    for a <= 300.  In all 7.6e-13.  Tolerance 1e-11.
    """
    B, R = 1.25, 0.6
    rho, w_rho = quadrature.mapped_legendre(160, 0.0, R * R)
    theta = quadrature.angular_grid(32)
    z = np.sqrt(rho)[:, None] * np.exp(1j * theta.nodes)[None, :]
    wts = 0.5 * (w_rho * (1.0 - rho) ** (2.0 * B - 2.0))[:, None] * theta.weights[None, :]
    worst = 0.0
    for j in range(9):
        basis_vals = states.bergman_basis(j, B, z)
        norm_sq = float(np.sum(wts * np.abs(basis_vals) ** 2) / math.pi)
        worst = max(worst, abs(norm_sq - locop.disk_eigenvalue(j, B, R)))
    return _result("eigenvalue_norm_identity", worst, 1e-11)


def check_matrix_elements() -> CheckResult:
    """Radial symbols quantize to diagonal matrices matching the eigenvalue rule: a 9 x 9 block, 9 eigenvalues.

    Budget: F = 1/(1 + rho) has its pole at rho = -1, on the Bernstein ellipse of radius 3 + sqrt(8) = 5.8 about
    [0, 1], so the 48 radii are off by about 5.8^-96 ~ 1e-73 and the 160 nodes of ``radial_eigenvalue`` by less;
    the 48 angles sum the off-diagonal phases, 0 < |k - j| < 48, to zero.  Rounding: 74 eps in the block, as in
    ``disk_rule_delta_structure``; in an eigenvalue, 20 eps from the 160 positive terms and 8 eps from
    1 / B(j + 1, 2B - 1) = (2B - 1) exp(``log_nb_weights``), a compensated sum of log1p terms adding to at most
    3.1: 102 eps ~ 2.3e-14.  Tolerance 1e-13.
    """
    B = 1.25
    symbol = lambda z: 1.0 / (1.0 + abs(z) ** 2)
    block = locop.quantization_matrix_element(symbol, range(9), range(9), B, quadrature.disk_grid(48, 48, B))
    want = np.diag(locop.radial_eigenvalue(lambda rho: 1.0 / (1.0 + rho), range(9), B))
    return _result("matrix_elements_radial_diagonal", float(np.max(np.abs(block - want))), 1e-13)


def check_densities() -> CheckResult:
    """Level densities normalize and reduce to the Beta density at m = 0.

    With 2B an integer, the level-m density (1 - rho)^(2B-2m-2) rho^|m-j| P_min(m,j)^2 is a polynomial of
    degree 2B - 2 - m + j <= 6 here, integrated exactly by 4 Gauss-Legendre nodes.  Budget: each value is formed
    in logs from a shape term up to 14 in size (30 eps) and a squared Jacobi polynomial (10 eps), at nodes good
    to 6 eps through rho^6; a mass sums four positive terms adding to 1, and the reduction compares densities
    up to 2.1: 2.1 * 46 eps ~ 2.1e-14.  Tolerance 1e-13.
    """
    worst = 0.0
    nodes, wts = quadrature.mapped_legendre(4, 0.0, 1.0)  # strictly interior, so [0, 1]'s endpoints are safe
    for B, m in ((1.5, 0), (2.5, 1), (3.0, 2)):
        params = ModelParams(B, m)
        for j in (0, 1, 4):
            mass = float(wts @ locop.landau_density(j, params, nodes))
            worst = max(worst, abs(mass - 1.0))
    rho = np.linspace(0.0, 0.99, 100)
    reduction = np.max(np.abs(
        locop.landau_density(3, ModelParams(1.5, 0), rho) - locop.beta_density(3, 1.5, rho)
    ))
    worst = max(worst, float(reduction))
    return _result("probabilistic_densities", worst, 1e-13)


def mc_comparison_draws(rng: np.random.Generator, count: int) -> list[tuple[int, float, float]]:
    """(j, B, R) draws whose exact eigenvalue stays away from 0 and 1.

    Near-degenerate probabilities make the binomial sigma scale meaningless
    at any fixed sample size, so those corners are resampled.
    """
    draws = []
    while len(draws) < count:
        j = int(rng.integers(0, 8))
        B = float(rng.uniform(0.8, 3.0))
        R = float(rng.uniform(0.3, 0.9))
        if 1e-3 <= locop.disk_eigenvalue(j, B, R) <= 1.0 - 1e-3:
            draws.append((j, B, R))
    return draws


def check_mc_spectrum() -> CheckResult:
    """Monte-Carlo route agrees with the closed form at the 4-sigma level."""
    n = 250_000
    worst_sigmas = 0.0
    for i, (j, B, R) in enumerate(mc_comparison_draws(_rng(606), 4)):
        est, _ = locop.mc_eigenvalue(j, B, R, n, seed=900 + i)
        exact = locop.disk_eigenvalue(j, B, R)
        sigma = math.sqrt(exact * (1.0 - exact) / n)
        worst_sigmas = max(worst_sigmas, abs(est - exact) / sigma)
    est_n, se_n = locop.mc_eigenvalue(2, 1.25, 0.6, 100_000, seed=77)
    est_4n, se_4n = locop.mc_eigenvalue(2, 1.25, 0.6, 400_000, seed=77)
    rate_ok = abs(se_4n / se_n - 0.5) < 0.05
    return _result("mc_spectrum", worst_sigmas, 4.0,
                   detail=f"std-error ratio at 4x samples: {se_4n / se_n:.3f}",
                   ok=rate_ok)


def check_leakage() -> CheckResult:
    """Photon-counting estimate dominates the localized overlap on random states."""
    B, R, z0 = 1.25, 0.6, 0.5 + 0.3j
    bound = locop.leakage_bound(z0, B, R)
    rng = _rng(707)
    margin_ok = True
    for _ in range(50):
        c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        c /= np.linalg.norm(c)
        lhs = locop.localized_overlap(z0, B, R, c)
        margin_ok = margin_ok and lhs <= bound * (1.0 + 1e-12)
    closed0 = abs(locop.leakage_bound(0.0, 1.5, 0.5) - (1.0 - (1.0 - 0.25) ** 2.0))
    # the negative binomial pmf j < 400 at (B, p) = (1.5, 0.4) and (1.25, 0.3), one table each
    mass = sum(specfun.inc_beta_steps(0.4, 400, 2.0 * 1.5).tolist())
    mean = sum(j * q for j, q in enumerate(specfun.inc_beta_steps(0.3, 400, 2.0 * 1.25).tolist()))
    worst = max(closed0, abs(mass - 1.0), abs(mean - 2.0 * 1.25 * 0.3 / 0.7))
    return _result("leakage_inequality", worst, 1e-10,
                   detail=f"bound dominates all draws: {margin_ok}",
                   ok=margin_ok)


# --------------------------------------------------------------------------
# Bergman transfer


def check_kernel_equivalence() -> CheckResult:
    """Eigenvalue series against the Appell closed form across the parameter grid.

    Budget, relative: the series is cut where its tail bound falls below SERIES_REL_TOL of sum |c_k x^k|, at
    most 13.5 times the value here: 1.4e-11.  F1's arguments reach 0.87, so its tail is about 1e-12 * 0.87 /
    0.13 = 6.7e-12; n <= 115 blocks, each rounded in n steps and once more in the sum, add gamma_2n = 2.6e-14
    of sum |term| <= 209 |F1|: 5.3e-12.  In all 2.6e-11.  Tolerance 5e-11.
    """
    rng = _rng(808)
    worst = 0.0
    for B in (0.75, 1.0, 1.5, 2.5):
        for s in (0.09, 0.36, 0.81):
            for _ in range(4):
                z = _random_disk_point(rng, 0.8)
                w = _random_disk_point(rng, 0.8)
                series = bergman.kernel_series(z, w, B, s)
                closed = bergman.kernel_closed(z, w, B, s)
                worst = max(worst, abs(series - closed) / abs(series))
    return _result("kernel_series_closed_equivalence", worst, 5e-11)


def check_kernel_limit() -> CheckResult:
    """Monotone approach of the closed form to the reproducing kernel."""
    B, z, w = 1.5, 0.5, 0.6
    lim = bergman.kernel_limit(z, w, B)
    gaps = [abs(bergman.kernel_closed(z, w, B, s) - lim) / abs(lim) for s in (0.9, 0.99, 0.999)]
    monotone = gaps[0] > gaps[1] > gaps[2]
    return _result("kernel_limit_monotone", gaps[-1], 1e-2,
                   detail=f"gaps {['%.3e' % g for g in gaps]}",
                   ok=monotone)


def check_kernel_positivity() -> CheckResult:
    """The kernel matrix at random points is Hermitian positive semidefinite."""
    rng = _rng(909)
    B, s = 1.25, 0.49
    pts = [_random_disk_point(rng, 0.7) for _ in range(6)]
    mat = np.array([[bergman.kernel_series(zi, zj, B, s) for zj in pts] for zi in pts])
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    eigmin = float(np.min(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))))
    return _result("kernel_positivity", max(herm, max(0.0, -eigmin)), 1e-10,
                   detail=f"min eigenvalue {eigmin:.3e}")


def check_reproducing_property() -> CheckResult:
    """Disk quadrature against the limit kernel reproduces the basis elements.

    (1/pi) int K(z, w) e_k(z) (1 - |z|^2)^(2B-2) dA = e_k(w) for k < 6 at B in {1, 1.5}, |w| = 0.47, on the
    64 x 64 disk rule.  Budget: with K(z, w) = sum_n e_n(w) conj(e_n(z)), the 64 angles keep only n = k
    (mod 64) and the 64 radii integrate n = k exactly, so the rule is off by the aliased terms n = k + 64 l,
    l >= 1, each at most |e_n(w)| n_n n_k B(k + 32 l + 1, 2B - 1) (a Gauss rule underestimates a monomial's
    integral): 7.0e-21 summed.  Rounding: the 4,096 terms, summed in any order, 4,106 u times their
    absolute sum, u = 2^-53, which is at most K(w, w)^(1/2) <= 2.07 (Cauchy-Schwarz; the rule holds
    |e_k|^2 exactly): 9.4e-13; the kernel and basis values, 3.2e-14 relative each, on 2.07 and on
    |e_k(w)| <= 1.42: 1.1e-13.  In all 1.1e-12.  Tolerance 2e-11.
    """
    worst = 0.0
    for B in (1.0, 1.5):
        grid = quadrature.disk_grid(64, 64, B)
        w = 0.4 + 0.25j
        kvals = bergman.kernel_limit(grid.nodes, w, B)
        for k in range(6):
            cvals = states.bergman_basis(k, B, grid.nodes)
            got = complex(grid.weights @ (kvals * cvals) / math.pi)
            worst = max(worst, abs(got - states.bergman_basis(k, B, w)))
    return _result("reproducing_property", worst, 2e-11)


def _transfer_integral(B: float, R: float, ws: np.ndarray, fvals) -> np.ndarray:
    """(1/pi) int_D P_s(z, w) F(z) (1 - |z|^2)^(2B-2) dA(z), s = R^2, at every w of ``ws`` at once.

    The transferred operator as the paper's integral, apart from ``transferred_apply``: the kernel
    series sum_k c_k (conj(z) w)^k against F's values ``fvals(nodes)`` (a column per w) on the fixed
    16 x 32 disk rule.  For F = sum_{j <= j_max} f_j n_j z^j, n_j the basis norms and j_max < 32, the
    16 radii integrate each term k = j exactly; the 32 midpoint angles add term k only where
    k = j (mod 32), so k >= 32 - j_max, each with a radial sum of at most 1/(2B - 1).  The rule is
    therefore off by at most sum_j n_j |f_j| / (2B - 1) times the aliasing budget
    sum_{k >= 32 - j_max} |c_k| |w|^k.
    """
    grid = quadrature.disk_grid(16, 32, B)
    kvals = bergman.kernel_series(grid.nodes[:, None], ws[None, :], B, R * R)
    return grid.weights @ (kvals * fvals(grid.nodes[:, None])) / math.pi


def check_transfer_spectral_action() -> CheckResult:
    """The transferred operator multiplies each basis element by its eigenvalue.

    Integrated by ``_transfer_integral``, the five basis elements in one call, at B = 1.5, R = 0.6 and
    |w| = 0.36.  Budget: ``kernel_series`` cuts its tail below SERIES_REL_TOL of sum_k |c_k| |x|^k at the
    rule's largest |conj(z) w|, 0.36, so a kernel value is off by at most 2.1e-12, and an integral by that
    times (1/pi) int |basis_j| (1 - |z|^2)^(2B-2) dA <= (2B - 1)^(-1/2) = 0.71 (Cauchy-Schwarz): 1.5e-12.
    The aliasing budget at j_max = 4 is 1.1e-21, times n_j / (2B - 1) <= 2.7.  Rounding: the 34 Horner
    steps and the 512-node sum, 546 eps times 2.1 * 0.71 ~ 1.8e-13.  In all 1.7e-12.  Tolerance 1e-11.
    """
    B, R, w = 1.5, 0.6, 0.3 + 0.2j
    got = _transfer_integral(B, R, np.full(5, w),
                             lambda z: np.hstack([states.bergman_basis(j, B, z) for j in range(5)]))
    want = [locop.disk_eigenvalue(j, B, R) * states.bergman_basis(j, B, w) for j in range(5)]
    return _result("transfer_spectral_action", np.max(np.abs(got - want)), 1e-11)


def check_intertwining() -> CheckResult:
    """Transform, localize, invert: both operator orders agree.

    The localized coefficients, transformed, against ``_transfer_integral`` of the transformed
    function, the ten draws in one call, at B = 1.25, R = 0.6 and |w| <= 0.52; each error is relative to
    |direct|, at least 0.25 over the fixed draws.  Budget: the kernel series' tail is below SERIES_REL_TOL
    of sum_k |c_k| |x|^k at the rule's largest |conj(z) w|, 0.52, so a kernel value is off by at most
    1.4e-12, and an integral by that times (1/pi) int |F| (1 - |z|^2)^(2B-2) dA <= |f| (2B - 1)^(-1/2),
    at most 3.3 over the draws (Cauchy-Schwarz): 4.5e-12, 1.8e-11 relative to 0.25.  The aliasing budget
    at j_max = 5 is 4.2e-16, times sum_j n_j |f_j| / (2B - 1) <= 18: 3e-14 relative.  Rounding: the 52
    Horner steps and the 512-node sum, 564 eps times 1.4 * 3.3, 2.3e-12 relative.  In all 2.0e-11.
    Tolerance 1e-10.
    """
    B, R = 1.25, 0.6
    rng = _rng(111)
    draws = [(rng.standard_normal(6) + 1j * rng.standard_normal(6), _random_disk_point(rng, 0.6))
             for _ in range(10)]
    cs, ws = (np.array(column) for column in zip(*draws))
    transferred = _transfer_integral(B, R, ws,
                                     lambda z: sum(states.bergman_basis(j, B, z) * cs[:, j] for j in range(6)))
    worst = 0.0
    for (ci, w), got in zip(draws, transferred):
        direct = bergman.bargmann_transform(locop.spectral_apply(ci, ModelParams(B), R), w, B)
        worst = max(worst, abs(direct - got) / max(abs(direct), 1e-12))
    return _result("intertwining", worst, 1e-10)


_CHECKS = {
    "incbeta_reflection": check_incbeta_reflection,
    "laguerre_generating_function": check_laguerre_generating_function,
    "gauss_theorem": check_gauss_theorem,
    "appell_f1_reductions": check_appell_reductions,
    "radial_rule_beta_integrals": check_radial_rule,
    "disk_rule_delta_structure": check_disk_rule_delta,
    "oscillator_eigen_residual": check_oscillator_residual,
    "laguerre_orthonormality": check_laguerre_orthonormality,
    "state_normalization_overlap": check_state_normalization,
    "state_quadrature_coefficients": check_state_quadrature_coefficients,
    "resolution_of_identity": check_resolution_of_identity,
    "expansion_convergence": check_expansion_convergence,
    "halfplane_kernel_bounds": check_halfplane_kernel,
    "spectrum_bounds_monotone": check_spectrum,
    "eigenvalue_norm_identity": check_eigenvalue_norm_identity,
    "matrix_elements_radial_diagonal": check_matrix_elements,
    "probabilistic_densities": check_densities,
    "mc_spectrum": check_mc_spectrum,
    "leakage_inequality": check_leakage,
    "kernel_series_closed_equivalence": check_kernel_equivalence,
    "kernel_limit_monotone": check_kernel_limit,
    "kernel_positivity": check_kernel_positivity,
    "reproducing_property": check_reproducing_property,
    "transfer_spectral_action": check_transfer_spectral_action,
    "intertwining": check_intertwining,
}


def check_names() -> list[str]:
    return list(_CHECKS)


def run_check(name: str) -> CheckResult:
    if name not in _CHECKS:
        raise DomainError(f"unknown check {name!r}; known: {', '.join(_CHECKS)}")
    return _CHECKS[name]()


def run_all() -> list[CheckResult]:
    return [fn() for fn in _CHECKS.values()]
