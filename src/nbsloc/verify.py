"""Named verification checks certifying every identity the library relies on.

The battery is the tuple of its check functions, each named as its check.
Each is deterministic (fixed seeds, fixed grids), returns a CheckResult
with the worst measured error and its pinned tolerance, and runs in at
most a few seconds.  ``run_check`` runs one by name and names its result;
``run_all`` runs the whole battery through it, and the CLI command
``verify`` reports it and exits nonzero on any failure.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from . import bergman, locop, quadrature, specfun, states
from .errors import DomainError
from .states import ModelParams

__all__ = ["CheckResult", "run_all", "run_check", "check_names"]


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_error: float
    tolerance: float
    detail: str = ""


def _result(max_error: float, tolerance: float, detail: str = "", ok: bool = True) -> CheckResult:
    """A check passes when ``max_error <= tolerance`` and its side condition ``ok`` holds; ``run_check`` names it."""
    return CheckResult("", bool(ok and max_error <= tolerance), float(max_error), float(tolerance), detail)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _random_disk_point(rng: np.random.Generator, radius: float) -> complex:
    r = radius * math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    return r * cmath.exp(1j * theta)


# --------------------------------------------------------------------------
# special functions


def incbeta_reflection() -> CheckResult:
    """I_x(a,b) + I_{1-x}(b,a) = 1 at 200 draws of x in (0, 1) and a, b in [0.05, 20].

    Budget, absolute, with u = 2^-53: no draw lies within 1.9e-3 of its switch point (a + 1) / (a + b + 2),
    so one call sums the continued fraction directly to a value t and the other takes the complement route
    to 1 - t', both from the same fraction: at x and at 1 - fl(1 - x), the same double for x >= 1/2 and
    at most 2^-54 apart below, or both at fl(1 - x).  Both prefactors subtract the same ``log_beta`` bits,
    whose error cancels.  What is left:
      * the prefactors exp(ln_front): each of a log x and b log1p(-x) is off by 3u of itself and the two
        sums by u of theirs, 4u S + u |ln_front| with S = |a ln x| + |b ln(1 - x)|, and exp (2u), the
        product with the fraction and the division add 4u; over a, b <= 20, t (S + |ln_front| / 4) <= 13.9
        (at a = b = 20, x = 1/2), so two prefactors give (8 x 13.9 + 8) u = 1.3e-14;
      * the continued fraction, only where its two arguments differ (x < 1/2 on the direct side, where t
        <= 0.58 here): a factor within 1e-16 of one stops it, and its at most 40 steps over a, b <= 20
        round by at most 4u each (40-digit runs of the same steps show 2.9u), 1e-16 + 160u relative,
        twice: 2.1e-14;
      * the complement route's rounding of 1 - x, which moves its argument by at most 2^-54 below x = 1/2:
        that times the Beta(a, b) density there, at most 5.05 at these draws, 2.8e-16;
      * 1 - t' and the sum: 2u = 2.2e-16.
    In all 3.5e-14.  Tolerance 5e-13.
    """
    rng = _rng(101)
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(0.0, 1.0)
        a = rng.uniform(0.05, 20.0)
        b = rng.uniform(0.05, 20.0)
        err = abs(specfun.reg_inc_beta(x, a, b) + specfun.reg_inc_beta(1.0 - x, b, a) - 1.0)
        worst = max(worst, err)
    return _result(worst, 5e-13)


def laguerre_generating_function() -> CheckResult:
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
    return _result(worst, 1e-13)


def gauss_theorem() -> CheckResult:
    """Value at z = 1 and the monotone approach along the real axis.

    Budget, absolute: at z = 1 the value 1 / (2B-1) <= 2 is exp of a sum of four lgamma values at exact
    arguments, two of them exactly 0 and two at most lgamma(8) = 8.53; each is off by 4 ulp(8.53) and the
    sum rounds three times, 10 ulp(8.53) = 1.8e-14 in the exponent: 3.6e-14 at the value 2, plus 2.2e-16
    from the rounded reference.  Tolerance 5e-13.
    """
    worst = 0.0
    for B in (0.75, 1.0, 1.5, 2.5, 4.0):
        got = specfun.gauss_2f1(2.0 - 2.0 * B, 1.0, 2.0, 1.0).value.real
        worst = max(worst, abs(got - 1.0 / (2.0 * B - 1.0)))
    B = 1.25
    at_one = specfun.gauss_2f1(2.0 - 2.0 * B, 1.0, 2.0, 1.0).value.real
    gaps = [abs(specfun.gauss_2f1(2.0 - 2.0 * B, 1.0, 2.0, 1.0 - 10.0 ** (-k)).value.real - at_one)
            for k in range(2, 6)]
    monotone = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    return _result(worst, 5e-13, detail=f"approach gaps {['%.3e' % g for g in gaps]}", ok=monotone)


def appell_f1_reductions() -> CheckResult:
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
    return _result(worst, 2e-11, detail=f"index symmetry bit-exact: {exact_symmetry}", ok=exact_symmetry)


# --------------------------------------------------------------------------
# quadrature


def radial_rule_beta_integrals() -> CheckResult:
    """Weighted moments against exact Beta values, plus error decay under doubling.  Budget, relative: 40 nodes
    integrate rho^j, j <= 18, exactly and every term w_i rho_i^j is positive, so only rounding is left.  The
    weights are off by at most 17 eps and the node powers (j times a node's error, plus pow's ulp) by 7 eps,
    each averaged over the terms it enters (40-digit mpmath, these eight B); the 40-term sum adds at most
    39 eps and the rounded exact value 1: 64 eps ~ 1.4e-14.  Tolerance 1e-13.  The exact value
    B(j + 1, b) = j! / prod_(i <= j) (b + i) is one correctly rounded division of integers, with b = p / q
    exactly: j! q^(j + 1) / prod_(i <= j) (p + i q).

    The doubling clause integrates cos(3r) e^r, an entire function, by 6 and 12 nodes against the
    RADIAL_NODES[0]-node rule at B = 1.25, the first rule ``matrix_elements_radial_diagonal``'s
    ``radial_eigenvalue`` reads, so a pass builds it once.  An n-node Gauss rule is off by f^(2n)(xi) / (2n)!
    times the weighted square norm of the monic orthogonal polynomial, which is at most that of the monic
    Chebyshev polynomial of [0, 1], 4 * 16^-n times the mass 2/3 of (1 - r)^(1/2).  With |f^(2n)| <= 10^n e
    (f is the real part of exp((1 + 3i) r)) the error is at most (8e/3) (5/8)^n / (2n)!: 9.0e-10 at 6 nodes,
    4.2e-26 at 12 and 7e-66 at 24, so the reference is exact but for the rounding of its sum.  Budget of the
    12-node error: 4.2e-26 plus each rule's rounding, (n + 11) eps of sum_i w_i |f(r_i)| = 0.61 (weights 7 eps
    and nodes 1 eps weighed by |f|, 40-digit mpmath; f 3 eps, w_i f(r_i) 1 eps, the sum n - 1 eps), for the two
    rules 194 eps * 0.61 ~ 2.6e-14.  Tolerance 3e-13."""
    worst = 0.0
    for B in (0.75, 1.0, 1.5, 3.0, 20.0, 50.0, 600.0, 5000.0):
        grid = quadrature.radial_jacobi_grid(40, B)
        p, q = (2.0 * B - 1.0).as_integer_ratio()
        for j in range(0, 20, 3):
            got = float(grid.integrate(grid.nodes ** j))
            want = math.factorial(j) * q ** (j + 1) / math.prod(p + i * q for i in range(j + 1))  # rounded once
            worst = max(worst, abs(got - want) / want)
    smooth = lambda r: np.cos(3.0 * r) * np.exp(r)
    exact = float(quadrature.radial_jacobi_grid(locop.RADIAL_NODES[0], 1.25).integrate(smooth))
    err_n = abs(float(quadrature.radial_jacobi_grid(6, 1.25).integrate(smooth)) - exact)
    err_2n = abs(float(quadrature.radial_jacobi_grid(12, 1.25).integrate(smooth)) - exact)
    return _result(worst, 1e-13,
                   detail=f"doubling err {err_n:.2e} -> {err_2n:.2e}",
                   ok=err_2n < err_n and err_2n <= 3e-13)


def disk_rule_delta_structure() -> CheckResult:
    """Angular orthogonality: the quantized constant symbol is the identity matrix, as one 13 x 13 block.

    Budget: conj(z)^j z^k is r^(j+k) e^(i (k-j) theta); the 64 uniform angles sum e^(i m theta) to zero for
    0 < |m| < 64 and the 48 radii integrate rho^j, j <= 12, exactly, so only rounding is left.  By
    Cauchy-Schwarz an entry's terms have moduli adding to at most 1.  Against that: the basis norms
    (8 eps), the powers z^k (20 eps), node rounding carried through rho^j and the phases (24 eps), the rule's
    weights (5 eps), the products (4 eps) and the 3072-term pairwise sum (13 eps): 74 eps ~ 1.7e-14.
    Tolerance 1e-13.
    """
    B = 1.5
    block = locop.quantization_matrix_element(lambda z: 1.0, range(13), range(13), B,
                                              quadrature.disk_grid(48, 64, B))
    return _result(float(np.max(np.abs(block - np.eye(13)))), 1e-13)


def oscillator_eigen_residual() -> CheckResult:
    """Chebyshev eigen-residual of the Laguerre functions.  Budget: the 64-point interpolant is off by
    rho^-63 ~ 1e-14 (rho = 1.67, the ellipse through the branch point xi = 0); |D| has row sums up to
    N^2 2 / (hi - lo) = 1.1e3, so rounding in D^2 / 4 is eps (1.1e3)^2 / 4 ~ 6e-11.  Tolerance 1e-10."""
    worst = 0.0
    for B, js in ((1.5, range(6)), (0.8, (0, 3))):
        for j in js:
            worst = max(worst, quadrature.hamiltonian_residual(j, B))
    return _result(worst, 1e-10)


# --------------------------------------------------------------------------
# states


def laguerre_orthonormality() -> CheckResult:
    """Gram matrix of the first 21 Laguerre functions, three strengths.  Budget: 21 nodes are exact for
    phi_j phi_k, j, k <= 20; each entry sums 21 terms whose moduli add to at most 1, of values good to
    about 20 eps: 61 eps ~ 1.4e-14.  Tolerance 1e-12."""
    worst = 0.0
    for B in (0.8, 1.5, 3.0):
        grid = quadrature.half_line_grid(21, B)
        table = states.laguerre_function(range(21), B, grid.nodes)
        gram = (table * grid.weights) @ table.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(21)))))
    return _result(worst, 1e-12)


def state_normalization_overlap() -> CheckResult:
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
    return _result(worst, 1e-12)


def state_quadrature_coefficients() -> CheckResult:
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
    return _result(worst, 1e-12)


def resolution_of_identity() -> CheckResult:
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
    return _result(abs(got - want) / abs(want), 2e-11)


def expansion_convergence() -> CheckResult:
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
    return _result(err80, 5e-12, detail=f"tail envelope decreasing: {monotone}", ok=monotone)


def halfplane_kernel_bounds() -> CheckResult:
    """Hermitian symmetry, unit diagonal, and strict boundedness.

    Budget, absolute (|K| <= 1): on the diagonal w - conj(w) = 2i Im w exactly, so the scale
    (2 Im w)^2 / (4 Im w Im w) and the phase (2i Im w) / (2i Im w) are exactly 1, and so are their powers: 0.
    Off it, the two orders give the same |w - conj(zeta)| (hypot) and the same 4 Im w Im zeta (4 x is exact),
    so one scale, and Smith's complex quotient gives phases that are exact conjugates, also where a product is
    fused into an FMA.  The phase's power is exact conjugates too where atan2 and sin are odd and cos even; a
    libm where they are not adds 1 ulp of each atan2, times B <= 3, and B arg <= 9.5 rounded on each side:
    3 x 8.9e-16 + 2 x 1.1e-16 x 9.5 = 4.8e-15 in angle, and 1 ulp of each sin and cos: 5.3e-15.  Tolerance 1e-13.
    """
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
    return _result(worst, 1e-13, detail=f"modulus bounded by one: {bounded}", ok=bounded)


# --------------------------------------------------------------------------
# localization operator


def spectrum_bounds_monotone() -> CheckResult:
    """Bounds and strict decrease, one ``landau_eigenvalue`` row per (B, R), the B = 1 closed form, and f(n).

    Budget of the B = 1 closed form I_x(j+1, 1) = x^(j+1), x = 1/4, absolute: the table sums the steps
    x^a (1-x), a > j, each exp of a log L_a <= 1.39 a + 0.29 off by (L_a + 1) eps (log_nb_weights is 0 at
    b = 1), and rounds each partial sum, at most x^(j+1) / (1-x), once: (1.39 j + 4.8) eps x^(j+1) in all,
    largest at j = 0, 4.8 eps / 4 ~ 2.7e-16.  Tolerance 5e-15.
    Budget of f(n) = ``as_function_of_hamiltonian(n, 1.5, 0.7)`` = I_x(n, 2), x = 0.7 * 0.7, against ``reg_inc_beta``
    at the same double, relative, u = 2^-53, largest at n = 31.  The table sums the steps x^k (1-x)^2 (k+1), k >= n,
    each exp of a log off by (2.5 k + 8) u (k log x, 2 log1p(-x), ``log_nb_weights`` 4.5 u, two sums, exp), 88 u at
    their mean k = 32, and rounds each partial sum, at most 2 f(n), once: 90 u.  The prefactor exp(n log x + 2
    log1p(-x) - log_beta(n, 2)) is off by 47 u in the products, 40 u in the two sums, 24 u from ``log_beta`` (40-digit
    mpmath) and u from exp; the fraction, cut by its zero numerator at m = 2, by 6.2 u (40-digit runs), the product
    and division by 2 u: 120 u.  In all 210 u ~ 2.3e-14.  Tolerance 3e-13.
    """
    ordered, in_range = True, True
    for B in (0.8, 1.0, 1.5, 3.0):
        for R in (0.3, 0.6, 0.9):
            lam = locop.landau_eigenvalue(range(51), ModelParams(B), R)
            in_range = in_range and bool(np.all((0.0 <= lam) & (lam <= 1.0)))
            ordered = ordered and bool(np.all(lam[1:] < lam[:-1]))
    worst_b1 = max(abs(locop.disk_eigenvalue(j, 1.0, 0.5) - 0.25 ** (j + 1)) for j in range(21))
    fn = np.array([locop.as_function_of_hamiltonian(n, 1.5, 0.7) for n in range(1, 32)])
    ref = np.array([specfun.reg_inc_beta(0.7 * 0.7, float(n), 2.0) for n in range(1, 32)])
    fn_err = float(np.max(np.abs(fn - ref) / ref))  # a NaN reads NaN and fails
    return _result(worst_b1, 5e-15,
                   detail=f"monotone: {ordered}, in [0,1]: {in_range}, H-function err {fn_err:.2e} (tol 3e-13)",
                   ok=ordered and in_range and fn_err <= 3e-13)


def eigenvalue_norm_identity() -> CheckResult:
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
    z = np.sqrt(rho)[:, None] * theta.nodes[None, :]
    wts = 0.5 * (w_rho * (1.0 - rho) ** (2.0 * B - 2.0))[:, None] * theta.weights[None, :]
    worst = 0.0
    for j in range(9):
        basis_vals = states.bergman_basis(j, B, z)
        norm_sq = float(np.sum(wts * np.abs(basis_vals) ** 2) / math.pi)
        worst = max(worst, abs(norm_sq - locop.disk_eigenvalue(j, B, R)))
    return _result(worst, 1e-11)


def matrix_elements_radial_diagonal() -> CheckResult:
    """Radial symbols quantize to diagonal matrices matching the eigenvalue rule: a 9 x 9 block, 9 eigenvalues.

    Budget: F = 1/(1 + rho) has its pole at rho = -1, on the Bernstein ellipse of radius 3 + sqrt(8) = 5.8 about
    [0, 1], so the 48 radii are off by about 5.8^-96 ~ 1e-73, and ``radial_eigenvalue`` returns its 48-node value,
    where its 24 nodes agree to rounding (off by 5.8^-48 ~ 1e-37); the 48 angles sum the off-diagonal phases,
    0 < |k - j| < 48, to zero.  Rounding: 74 eps in the block, as in ``disk_rule_delta_structure``; in an
    eigenvalue, 20 eps from the 48 positive terms and 8 eps from
    1 / B(j + 1, 2B - 1) = (2B - 1) exp(``log_nb_weights``), a compensated sum of log1p terms adding to at most
    3.1: 102 eps ~ 2.3e-14.  Tolerance 1e-13.
    """
    B = 1.25
    symbol = lambda z: 1.0 / (1.0 + abs(z) ** 2)
    block = locop.quantization_matrix_element(symbol, range(9), range(9), B, quadrature.disk_grid(48, 48, B))
    want = np.diag(locop.radial_eigenvalue(lambda rho: 1.0 / (1.0 + rho), range(9), B))
    return _result(float(np.max(np.abs(block - want))), 1e-13)


def probabilistic_densities() -> CheckResult:
    """Level densities normalize, and at m = 0 the density is the Beta polynomial.

    With 2B an integer, the level-m density (1 - rho)^(2B-2m-2) rho^|m-j| P_min(m,j)^2 is a polynomial of
    degree 2B - 2 - m + j <= 6 here, integrated exactly by 4 Gauss-Legendre nodes.  Budget: each value is formed
    in logs from a shape term up to 14 in size (30 eps) and a squared Jacobi polynomial (10 eps), at nodes good
    to 6 eps through rho^6; a mass sums four positive terms adding to 1: 46 eps ~ 1e-14.
    At B = 1.5, j = 3 the m = 0 density is Beta(4, 2)'s, 20 rho^3 (1 - rho), here on 100 points of [0, 0.99]: with
    u = 2^-53 its exponent is off by (6 |log rho| + 2 |log1p(-rho)| + |shape| + |ln_norm + shape| + 6) u, exp and the
    polynomial add 6 u, at most 19.5 u relative where the value peaks, 2.11 at rho = 0.75: 4.6e-15.  Tolerance 1e-13.
    """
    worst = 0.0
    nodes, wts = quadrature.mapped_legendre(4, 0.0, 1.0)  # strictly interior, so [0, 1]'s endpoints are safe
    for B, m in ((1.5, 0), (2.5, 1), (3.0, 2)):
        params = ModelParams(B, m)
        for j in (0, 1, 4):
            mass = float(wts @ locop.landau_density(j, params, nodes))
            worst = max(worst, abs(mass - 1.0))
    rho = np.linspace(0.0, 0.99, 100)
    beta_4_2 = 20.0 * rho ** 3 * (1.0 - rho)
    worst = max(worst, float(np.max(np.abs(locop.landau_density(3, ModelParams(1.5, 0), rho) - beta_4_2))))
    return _result(worst, 1e-13)


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


def mc_spectrum() -> CheckResult:
    """Monte-Carlo route agrees with the closed form at the 4-sigma level, stream by stream and jointly.

    Four streams of n = 250,000 draws, each one ``mc_eigenvalue(j, B, R, n, seed)`` call, each read as
    z = (est - exact) / sqrt(exact (1 - exact) / n), about standard normal.  Budget: each |z| is gated at 4,
    a two-sided tail of 6.3e-5 per stream, and the sum of the four z^2 at 23.5, the chi-square point of four
    degrees of freedom with upper tail 1.0e-4.  A bias common to the streams adds up in the sum: 3 standard
    errors in each passes every per-stream gate, but moves the sum from 0.558 to 30.6 (high) or 42.4 (low).
    """
    n, z = 250_000, []
    for i, (j, B, R) in enumerate(mc_comparison_draws(_rng(606), 4)):
        exact = locop.disk_eigenvalue(j, B, R)
        z.append((locop.mc_eigenvalue(j, B, R, n, 900 + i)[0] - exact) / math.sqrt(exact * (1.0 - exact) / n))
    joint = sum(v * v for v in z)
    return _result(max(abs(v) for v in z), 4.0,
                   detail=f"sum of squared z-scores {joint:.3f} (chi-square 4 dof, tol 23.5)", ok=joint <= 23.5)


def leakage_inequality() -> CheckResult:
    """Photon-counting bound is the norm of the localized overlap: the overlap meets it at its maximizer.

    The overlap |sum_j lambda_j c_j a_j|, |a_j|^2 the pmf at |z0|^2, is linear in c, so the bound is its largest value
    over unit c, at c = conj(lambda a) / |lambda a|: equality there certifies the inequality for every c.  Budget,
    relative, u = 2^-53, three (B, R, z0), 256 terms: at c they are positive, so two products and a Horner step per
    term add 258 (sqrt(5) + 1) u = 9.3e-14; c's norm 256 u, its other rounding only to second order; the pmf against
    the basis norms (one log_nb_weights table, exps of logs of mean size <= 11.7) 1.9e-15; leakage_bound's log-sum-exp
    of n <= 256 terms t_j: log t_j = 2 log lambda_j + log pmf_j off by (|log t_j| + 4) u, on average over t_j / total
    at most log n + |log total| + 4 = 21.4 u (Gibbs; |log total| <= 11.9), the exps and sum 257 u, the log 12 u, half
    of it in the root, 3.2e-14, the tail <= 1e-14 5e-15; the truncation past 256 terms < 1e-33: in all 1.4e-13.
    Budget, absolute: at z0 = 0 the pmf is exactly [1, 0, ...] and the bound is sqrt(lambda_0^2), with lambda_0 =
    I_x(1, 2) = 7/16, x = 1/4, the table's sum of the steps (a+1) x^a (1-x)^2: each is exp of a log of size <= 1.39 a
    + 0.6 + log(a + 1) off by that plus 2 eps, about 5 eps at their mean a = 1.5, and the partial sums round twice
    more; exp(log(lambda_0^2) / 2), |log lambda_0| < 1, adds 3 eps: 11 eps * 7/16 = 1.1e-15 against the exact
    1 - 0.75^2.  The pmf mass at (p, 2B) = (0.4, 3) and the mean at (0.3, 2.5), 400 terms each: log_nb_weights is
    off by at most 3.1e-14 relative, the logs a log p + 2B log1p(-p) add about 10 eps at the mean a <= 2, the
    products j q 0.5 eps, and the plain sum rounds each partial sum, at most 1 and 1.07, once: 400 eps / 2 =
    4.4e-14 and 4.8e-14.  The tails past a = 400 are below 1e-150 and the reference mean 2B p / (1 - p) rounds
    three times, 4e-16.  The mean's 3.3e-14 + 2.4e-15 + 5e-16 + 4.8e-14 + 4e-16 = 8.5e-14 is the largest.
    Tolerance 1e-12.
    """
    gaps = []
    for B, R, z0 in ((1.25, 0.6, 0.5 + 0.3j), (0.51, 0.9, -0.99), (20.5, 0.8, -0.9 + 0.1j)):
        a = (1.0 - abs(z0) ** 2) ** B / math.sqrt(2.0 * B - 1.0) * states.bergman_basis(range(256), B, z0.conjugate())
        extremal = np.conjugate(locop.disk_eigenvalue(range(256), B, R) * a)
        extremal /= np.linalg.norm(extremal)
        gaps.append(abs(locop.localized_overlap(z0, B, R, extremal) / locop.leakage_bound(z0, B, R) - 1.0))
    closed0 = abs(locop.leakage_bound(0.0, 1.5, 0.5) - (1.0 - (1.0 - 0.25) ** 2.0))
    # the negative binomial pmf j < 400 at (B, p) = (1.5, 0.4) and (1.25, 0.3), one table each
    mass = sum(specfun.inc_beta_steps(0.4, 400, 2.0 * 1.5).tolist())
    mean = sum(j * q for j, q in enumerate(specfun.inc_beta_steps(0.3, 400, 2.0 * 1.25).tolist()))
    worst = max(*gaps, closed0, abs(mass - 1.0), abs(mean - 2.0 * 1.25 * 0.3 / 0.7))
    return _result(worst, 1e-12,
                   detail=f"|overlap at the maximizer / bound - 1|: {', '.join(f'{gap:.1e}' for gap in gaps)}")


# --------------------------------------------------------------------------
# Bergman transfer


def kernel_series_closed_equivalence() -> CheckResult:
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
    return _result(worst, 5e-11)


def kernel_limit_monotone() -> CheckResult:
    """Monotone approach of the closed form to the reproducing kernel."""
    B, z, w = 1.5, 0.5, 0.6
    lim = bergman.kernel_limit(z, w, B)
    gaps = [abs(bergman.kernel_closed(z, w, B, s) - lim) / abs(lim) for s in (0.9, 0.99, 0.999)]
    monotone = gaps[0] > gaps[1] > gaps[2]
    return _result(gaps[-1], 1e-2, detail=f"gaps {['%.3e' % g for g in gaps]}", ok=monotone)


def kernel_positivity() -> CheckResult:
    """The kernel matrix at random points is Hermitian positive semidefinite.

    Budget, absolute, against max |M| = 2.0 and ||M||_2 = 5.9: the entries (j, i) and (i, j) are the series at
    x' = conj(z_j) z_i and x = conj(z_i) z_j.  Unfused, x' = conj(x) exactly, both cut the table at the same
    |x|, and Horner's rule with real coefficients gives exact conjugates, fused or not: 0.  Where a complex
    product is fused into an FMA, |x' - conj(x)| <= 2u |z_i z_j| = 1.0e-16 moves the sum by |K'| <= 3.8 times
    that, 3.8e-16; each side's Horner sum, at most 43 steps of a complex product and a sum, is off by (sqrt(5) +
    1) 43 u sum |c_k x^k| <= 3.1e-14, the envelope being 2.0; and a table cut at another k moves a side by at
    most I_s(k+2, 2B-1) <= 7.5e-5 times SERIES_REL_TOL of the envelope, 1.5e-16.  In all 6.3e-14.  The smallest
    eigenvalue, 1.08e-3, is far above the 6 x 3.1e-14 the entry errors and eigvalsh's backward error
    (about 6 n u ||M||_2 = 2.4e-14) can move it, so the negative part reads 0.  Tolerance 1e-12.
    """
    rng = _rng(909)
    B, s = 1.25, 0.49
    pts = [_random_disk_point(rng, 0.7) for _ in range(6)]
    mat = np.array([[bergman.kernel_series(zi, zj, B, s) for zj in pts] for zi in pts])
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    eigmin = float(np.min(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))))
    return _result(max(herm, max(0.0, -eigmin)), 1e-12, detail=f"min eigenvalue {eigmin:.3e}")


def reproducing_property() -> CheckResult:
    """Disk quadrature against the limit kernel reproduces the basis elements.

    (1/pi) int K(z, w) e_k(z) (1 - |z|^2)^(2B-2) dA = e_k(w) for k < 6 at B in {1, 1.5}, |w| = 0.47, on the
    64 x 64 disk rule.  Budget: with K(z, w) = sum_n e_n(w) conj(e_n(z)), the 64 angles keep only n = k
    (mod 64) and the 64 radii integrate n = k exactly, so the rule is off by the aliased terms n = k + 64 l,
    l >= 1, each at most |e_n(w)| n_n n_k B(k + 32 l + 1, 2B - 1) (a Gauss rule underestimates a monomial's
    integral): 7.0e-21 summed.  Rounding: the 4,096 terms, summed in any order, 4,106 u times their
    absolute sum, u = 2^-53, which is at most K(w, w)^(1/2) <= 2.07 (Cauchy-Schwarz; the rule holds
    |e_k|^2 exactly): 9.4e-13; the kernel and basis values, 3.2e-14 relative each, on 2.07 and on
    |e_k(w)| <= 1.42: 1.1e-13.  In all 1.1e-12.

    ``BergmanFunction(B, evaluator=K(w0, .)).project(j_max)`` gives conj(e_j(w0)), j <= j_max, relative to max_j
    |c_j|, at (B, w0, j_max) = (1.5, 0.54 e^(0.3i), 20) and (10, 0.6 e^(1.9i), 30).  Budget: 256 angles alias
    c_(j + 256 l), l >= 1, below 1e-53, and the radii are exact.  Rounding, on A_j = n_j sum_i W_i r_i^j rms_i
    <= 3.2 max_j |c_j| (rms_i: F's RMS on ring i): log2(n) 10.7 u from the FFT (Higham, ASNA 2nd ed., Thm 24.2),
    (4B + 4) u from the kernel values, 56 u from the powers, norms, weights and radial sum and 38 u from the
    reference: 224 u x 3.2 ~ 8e-14.  Tolerance 2e-11.
    """
    worst, w = 0.0, 0.4 + 0.25j
    for B in (1.0, 1.5):
        grid = quadrature.disk_grid(64, 64, B)
        rows = states.bergman_basis(range(6), B, grid.nodes) * bergman.kernel_limit(grid.nodes, w, B)
        worst = max(worst, float(np.max(np.abs(rows @ grid.weights / math.pi - states.bergman_basis(range(6), B, w)))))
    for B, w0, j_max in ((1.5, 0.54 * cmath.exp(0.3j), 20), (10.0, 0.6 * cmath.exp(1.9j), 30)):
        F = bergman.BergmanFunction(B, evaluator=lambda z: bergman.kernel_limit(w0, z, B))
        want = np.conj(states.bergman_basis(range(j_max + 1), B, w0))
        worst = max(worst, float(np.max(np.abs(F.project(j_max).coefficients - want)) / np.max(np.abs(want))))
    return _result(worst, 2e-11)


def _transfer_integral(B: float, R: float, ws: np.ndarray, fvals) -> np.ndarray:
    """(1/pi) int_D P_s(z, w) F(z) (1 - |z|^2)^(2B-2) dA(z), s = R^2, at every w of ``ws`` at once.

    The transferred operator as the paper's integral, apart from ``transferred_apply``: the kernel
    series sum_k c_k (conj(z) w)^k against F's values ``fvals(nodes)`` (a column per w) on the fixed
    16 x 32 disk rule.  For F = sum_{j <= j_max} f_j n_j z^j, n_j the basis norms and j_max < 32, the
    16 radii integrate each term k = j exactly; the 32 uniform angles add term k only where
    k = j (mod 32), so k >= 32 - j_max, each with a radial sum of at most 1/(2B - 1).  The rule is
    therefore off by at most sum_j n_j |f_j| / (2B - 1) times the aliasing budget
    sum_{k >= 32 - j_max} |c_k| |w|^k.
    """
    grid = quadrature.disk_grid(16, 32, B)
    kvals = bergman.kernel_series(grid.nodes[:, None], ws[None, :], B, R * R)
    return grid.weights @ (kvals * fvals(grid.nodes[:, None])) / math.pi


def transfer_spectral_action() -> CheckResult:
    """The transferred operator multiplies each basis element by its eigenvalue.

    ``_transfer_integral`` of the five basis elements in one call against ``transferred_apply`` of each, at B = 1.5,
    R = 0.6 and |w| = 0.36.  Budget: ``kernel_series`` cuts its tail below SERIES_REL_TOL of sum_k |c_k| |x|^k at
    the rule's largest |conj(z) w|, 0.36, so a kernel value is off by at most 2.1e-12, and an integral by that times
    (1/pi) int |basis_j| (1 - |z|^2)^(2B-2) dA <= (2B - 1)^(-1/2) = 0.71: 1.5e-12.  The aliasing budget at j_max = 4
    is 1.1e-21, times n_j / (2B - 1) <= 2.7.  Rounding: the 34 Horner steps and the 512-node sum, 546 eps times
    2.1 * 0.71, and the apply's 20 eps of |value| <= 0.84: 1.8e-13.  In all 1.7e-12.  Tolerance 1e-11.
    """
    B, R, w = 1.5, 0.6, 0.3 + 0.2j
    got = _transfer_integral(B, R, np.full(5, w),
                             lambda z: np.hstack([states.bergman_basis(j, B, z) for j in range(5)]))
    want = [bergman.transferred_apply(bergman.BergmanFunction(B, coefficients=e_j), w, B, R) for e_j in np.eye(5)]
    return _result(np.max(np.abs(got - want)), 1e-11)


def intertwining() -> CheckResult:
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
    return _result(worst, 1e-10)


_CHECKS = {check.__name__: check for check in (
    incbeta_reflection, laguerre_generating_function, gauss_theorem, appell_f1_reductions,
    radial_rule_beta_integrals, disk_rule_delta_structure, oscillator_eigen_residual, laguerre_orthonormality,
    state_normalization_overlap, state_quadrature_coefficients, resolution_of_identity, expansion_convergence,
    halfplane_kernel_bounds, spectrum_bounds_monotone, eigenvalue_norm_identity, matrix_elements_radial_diagonal,
    probabilistic_densities, mc_spectrum, leakage_inequality, kernel_series_closed_equivalence,
    kernel_limit_monotone, kernel_positivity, reproducing_property, transfer_spectral_action, intertwining,
)}


def check_names() -> list[str]:
    return list(_CHECKS)


def run_check(name: str) -> CheckResult:
    if name not in _CHECKS:
        raise DomainError(f"unknown check {name!r}; known: {', '.join(_CHECKS)}")
    return dataclasses.replace(_CHECKS[name](), name=name)


def run_all() -> list[CheckResult]:
    return [run_check(name) for name in _CHECKS]
