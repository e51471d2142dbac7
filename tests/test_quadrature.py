import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbsloc import quadrature
from nbsloc.errors import DomainError
from nbsloc.quadrature import (
    QuadratureGrid,
    angular_grid,
    disk_grid,
    fd_eigen_residual,
    gauss_jacobi,
    half_line_grid,
    hamiltonian_residual,
    mapped_legendre,
    radial_jacobi_grid,
    radial_moments,
    suggested_cutoff,
)
from nbsloc.specfun import log_beta, reg_inc_beta
from nbsloc.states import bergman_basis, laguerre_function


class TestHalfLineGrid:
    def test_gaussian_integral(self):
        grid = half_line_grid(200, 10.0)
        got = grid.integrate(lambda x: np.exp(-x * x))
        assert got == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)

    def test_exponential_moment(self):
        grid = half_line_grid(300, 60.0)
        got = grid.integrate(lambda x: x * np.exp(-x))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_small_gram(self):
        B = 1.25
        grid = half_line_grid(300, suggested_cutoff(1, B))
        f0 = laguerre_function(0, B, grid.nodes)
        f1 = laguerre_function(1, B, grid.nodes)
        assert grid.integrate(f0 * f0) == pytest.approx(1.0, abs=1e-10)
        assert grid.integrate(f1 * f1) == pytest.approx(1.0, abs=1e-10)
        assert grid.integrate(f0 * f1) == pytest.approx(0.0, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            half_line_grid(1, 10.0)
        with pytest.raises(DomainError):
            half_line_grid(10, -1.0)


class TestGaussJacobi:
    @given(
        n=st.integers(3, 40),
        alpha=st.floats(-0.9, 4.0),
        beta=st.floats(-0.9, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_weights_positive_nodes_interior(self, n, alpha, beta):
        nodes, weights = gauss_jacobi(n, alpha, beta)
        assert np.all(weights > 0.0)
        assert np.all(nodes > -1.0) and np.all(nodes < 1.0)

    def test_legendre_weights_match_mpmath(self):
        # numpy's leggauss is 5.7e-10 off here; the true rule is symmetric, so half the roots suffice
        mpmath = pytest.importorskip("mpmath")
        n = 400
        x, w = gauss_jacobi(n, 0.0, 0.0)
        with mpmath.workdps(24):
            coef = [(mpmath.mpf(2 * k + 1) / (k + 1), mpmath.mpf(k) / (k + 1)) for k in range(1, n)]

            def legendre_pair(t):  # P_n(t), P_{n-1}(t)
                p_prev, p = mpmath.mpf(1), t
                for a, b in coef:
                    p_prev, p = p, a * t * p - b * p_prev
                return p, p_prev

            half = []
            for node in x[n // 2:]:
                t = mpmath.mpf(node)
                p, p_prev = legendre_pair(t)
                t -= p * (t * t - 1) / (n * (t * p - p_prev))  # Newton, with (1 - t^2) P_n' = n (P_{n-1} - t P_n)
                half.append(float(2 * (1 - t * t) / (n * legendre_pair(t)[1]) ** 2))
        want = np.array(half[::-1] + half)
        assert np.max(np.abs(w / want - 1.0)) <= 1e-12

    def test_total_mass(self):
        alpha, beta = 1.3, -0.4
        _, weights = gauss_jacobi(12, alpha, beta)
        want = 2.0 ** (alpha + beta + 1.0) * math.exp(log_beta(alpha + 1.0, beta + 1.0))
        assert float(np.sum(weights)) == pytest.approx(want, rel=1e-13)


    @pytest.mark.parametrize("alpha, beta", [(38, 0), (98, 0), (198, 0), (57, 1), (3, 2)])
    def test_total_mass_for_integer_exponents(self, alpha, beta):
        # mu_0 = 2^(a+b+1) a! b! / (a+b+1)!; log-gammas near lgamma(99) = 354.5 have an ulp of 5.7e-14
        _, weights = gauss_jacobi(40, float(alpha), float(beta))
        want = float(Fraction(2 ** (alpha + beta + 1) * math.factorial(alpha) * math.factorial(beta),
                              math.factorial(alpha + beta + 1)))
        assert abs(math.fsum(weights) / want - 1.0) <= 1e-14


class TestRuleCache:
    def test_cached_rules_equal_fresh_builds(self):
        for n, alpha, beta in ((5, 0.0, 0.0), (64, -0.5, 0.0), (33, 1.7, -0.3)):
            cached = gauss_jacobi(n, alpha, beta)
            fresh = gauss_jacobi.__wrapped__(n, alpha, beta)
            assert all(np.array_equal(c, f) for c, f in zip(cached, fresh))

    def test_legendre_is_the_affine_map_of_the_jacobi_rule(self):
        for n in (2, 40, 320):
            x, w = gauss_jacobi(n, 0.0, 0.0)
            nodes, weights = mapped_legendre(n, 0.25, 0.81)
            half = 0.5 * (0.81 - 0.25)
            assert np.array_equal(nodes, 0.25 + half * (x + 1.0))
            assert np.array_equal(weights, half * w)

    def test_repeated_call_shares_read_only_arrays(self):
        first = gauss_jacobi(24, 0.5, 0.0)
        again = gauss_jacobi(24, 0.5, 0.0)
        assert again is first
        for arr in again:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_invalid_calls_raise_every_time(self):
        before = gauss_jacobi.cache_info().currsize
        for _ in range(2):
            with pytest.raises(DomainError):
                gauss_jacobi(8, -1.0, 0.0)
            with pytest.raises(DomainError):
                gauss_jacobi(1, 0.0, 0.0)
            with pytest.raises(DomainError):
                mapped_legendre(1, 0.0, 1.0)
        assert gauss_jacobi.cache_info().currsize == before

    def test_cache_is_bounded(self):
        assert gauss_jacobi.cache_info().maxsize == quadrature.RULE_CACHE_SIZE  # None if unbounded

    def test_mass_past_the_double_range_refused_every_time(self):
        # 2^(alpha+beta+1) overflows past alpha + beta = 1023; it used to end in a bare OverflowError
        before = gauss_jacobi.cache_info().currsize
        for _ in range(2):
            for alpha, beta in ((1198.0, 0.0), (600.0, 600.0), (1022.9, -0.99)):
                with pytest.raises(DomainError, match="1023"):
                    gauss_jacobi(40, alpha, beta)
        assert gauss_jacobi.cache_info().currsize == before


class TestDerivedRuleCaches:
    """The grids and moment tables: built once, shared, read-only, bounded, and never a cached failure."""

    def test_repeated_calls_share_read_only_grids(self):
        for build, args in ((radial_jacobi_grid, (24, 1.5)), (angular_grid, (24,))):
            first = build(*args)
            assert build(*args) is first
            for array in (first.nodes, first.weights):
                with pytest.raises(ValueError):
                    array[0] = 0.0

    def test_cached_grids_equal_fresh_builds(self):
        for n, B in ((6, 0.51), (64, 1.5), (128, 20.0)):
            cached, fresh = radial_jacobi_grid(n, B), radial_jacobi_grid.__wrapped__(n, B)
            assert np.array_equal(cached.nodes, fresh.nodes) and np.array_equal(cached.weights, fresh.weights)
        cached, fresh = angular_grid(128), angular_grid.__wrapped__(128)
        assert np.array_equal(cached.nodes, fresh.nodes) and np.array_equal(cached.weights, fresh.weights)

    def test_repeated_call_shares_a_read_only_moment_table(self):
        first = radial_moments(12, 1.5, 64)
        assert radial_moments(12, 1.5, 64) is first
        with pytest.raises(ValueError):
            first[0] = 0.0

    @pytest.mark.parametrize("n, B, size", [(64, 1.5, 512), (128, 0.75, 512), (12, 20.0, 64), (128, 4.5, 1024)])
    def test_moments_match_the_rules_direct_sum(self, n, B, size):
        grid = radial_jacobi_grid(n, B)
        r = np.sqrt(grid.nodes)
        got = radial_moments(n, B, size)
        assert got.shape == (size,)
        for p in range(size):
            want = math.fsum(grid.weights * r ** p)
            assert abs(got[p] - want) <= 1e-15 * want

    def test_invalid_calls_raise_every_time(self):
        caches = (radial_jacobi_grid, angular_grid, radial_moments)
        before = [cache.cache_info().currsize for cache in caches]
        for _ in range(2):
            for bad in (lambda: radial_jacobi_grid(10, 0.5), lambda: radial_jacobi_grid(1, 1.5),
                        lambda: angular_grid(1), lambda: radial_moments(12, 1.5, 48),
                        lambda: radial_moments(12, 1.5, 0), lambda: radial_moments(12, 0.5, 64),
                        lambda: radial_moments(1, 1.5, 64)):
                with pytest.raises(DomainError):
                    bad()
        assert [cache.cache_info().currsize for cache in caches] == before

    def test_caches_are_bounded(self):
        for cache in (radial_jacobi_grid, angular_grid, radial_moments):
            assert cache.cache_info().maxsize == quadrature.RULE_CACHE_SIZE  # None if unbounded


class TestQuadratureGridFrozen:
    def test_arrays_read_only_and_caller_arrays_untouched(self):
        nodes, weights = np.linspace(0.1, 0.9, 5), np.full(5, 0.2)
        grid = QuadratureGrid(nodes, weights)
        with pytest.raises(ValueError):
            grid.nodes[0] = 0.5
        with pytest.raises(ValueError):
            grid.weights *= 2.0
        assert nodes.flags.writeable and weights.flags.writeable
        assert np.array_equal(grid.weights, weights)

    def test_built_grids_read_only(self):
        for grid in (half_line_grid(16, 5.0), radial_jacobi_grid(16, 1.5), disk_grid(8, 8, 1.5)):
            with pytest.raises(ValueError):
                grid.weights[0] = 1.0


class TestRadialJacobiGrid:
    def test_beta_moment(self):
        grid = radial_jacobi_grid(30, 1.5)
        got = grid.integrate(grid.nodes ** 4)
        assert got == pytest.approx(math.exp(log_beta(5.0, 2.0)), abs=1e-13)

    def test_integrable_singularity(self):
        # B = 0.75 puts the exponent at -0.5: int (1-rho)^(-1/2) drho = 2
        grid = radial_jacobi_grid(40, 0.75)
        assert grid.integrate(np.ones_like(grid.nodes)) == pytest.approx(2.0, abs=1e-12)

    def test_restricted_reweighted_matches_incbeta(self):
        j, B, R = 2, 1.25, 0.6
        nodes, weights = mapped_legendre(240, 0.0, R * R)
        integral = weights @ (nodes ** j * (1.0 - nodes) ** (2.0 * B - 2.0))
        got = integral * math.exp(-log_beta(j + 1.0, 2.0 * B - 1.0))
        assert got == pytest.approx(reg_inc_beta(R * R, j + 1.0, 2.0 * B - 1.0), abs=1e-10)

    def test_polynomial_exactness_to_declared_degree(self):
        n, B = 12, 2.0
        grid = radial_jacobi_grid(n, B)
        for j in range(2 * n - 1):
            want = math.exp(log_beta(j + 1.0, 2.0 * B - 1.0))
            assert grid.integrate(grid.nodes ** j) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("B", [0.51, 1.5, 20.0, 40.0, 50.0])
    @pytest.mark.parametrize("n", [21, 31, 100, 600])
    def test_moments_relative_to_exact_beta_values(self, n, B):
        # at large B the weights span hundreds of decades (down to 1e-186 at B = 50, n = 600)
        grid = radial_jacobi_grid(n, B)
        b = Fraction(2.0 * B - 1.0)
        for j in range(42):
            want = float(math.factorial(j) / math.prod(b + i for i in range(j + 1)))  # B(j + 1, b)
            assert abs(grid.integrate(grid.nodes ** j) / want - 1.0) <= 1e-13

    def test_richardson_improvement(self):
        f = lambda r: np.sin(2.0 * r) + np.exp(-r)
        exact = radial_jacobi_grid(200, 1.25).integrate(f)
        err_n = abs(radial_jacobi_grid(6, 1.25).integrate(f) - exact)
        err_2n = abs(radial_jacobi_grid(12, 1.25).integrate(f) - exact)
        assert err_2n < err_n

    def test_domain(self):
        with pytest.raises(DomainError):
            radial_jacobi_grid(10, 0.5)
        with pytest.raises(DomainError):
            radial_jacobi_grid(1, 1.5)
        with pytest.raises(DomainError):
            radial_jacobi_grid(10, math.inf)

    def test_largest_strength_below_the_limit_builds(self):
        grid = radial_jacobi_grid(40, 511.75)
        assert abs(math.fsum(grid.weights) * (2.0 * 511.75 - 1.0) - 1.0) <= 1e-13  # B(1, 2B-1)

    @pytest.mark.parametrize("B", [512.0, 513.0, 600.0, 1e4])
    def test_strength_past_the_limit_refused_every_time(self, B):
        # the Jacobi rule's mass 2^(2B-1) / (2B-1) leaves the double range; it used to end in a bare OverflowError
        before = radial_jacobi_grid.cache_info().currsize
        for _ in range(2):
            with pytest.raises(DomainError, match="512"):
                radial_jacobi_grid(40, B)
        assert radial_jacobi_grid.cache_info().currsize == before


class TestDiskGrid:
    def test_unweighted_area(self):
        grid = disk_grid(30, 40, 1.0)
        assert grid.integrate(np.ones(grid.nodes.shape)) == pytest.approx(math.pi, abs=1e-12)

    def test_angular_orthogonality(self):
        grid = disk_grid(24, 32, 1.5)
        z = grid.nodes
        for j, k in ((0, 1), (2, 5), (1, 4)):
            val = grid.integrate(np.conjugate(z) ** j * z ** k)
            assert abs(val) <= 1e-13

    def test_basis_normalization(self):
        B = 1.5
        grid = disk_grid(40, 40, B)
        for j in range(9):
            vals = np.asarray([bergman_basis(j, B, z) for z in grid.nodes])
            got = grid.integrate(np.abs(vals) ** 2) / math.pi
            assert got == pytest.approx(1.0, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            disk_grid(1, 16, 1.5)
        with pytest.raises(DomainError):
            disk_grid(16, 1, 1.5)


class TestHamiltonianResidual:
    def test_ground_state(self):
        assert hamiltonian_residual(0, 1.5) <= 1e-4

    def test_excited_small_strength(self):
        assert hamiltonian_residual(3, 0.8) <= 1e-3

    def test_zero_function(self):
        xs = np.linspace(0.5, 8.0, 1001)
        assert fd_eigen_residual(np.zeros_like(xs), xs, 1.5, 4.0) == 0.0
