import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from nbsloc import quadrature, states
from nbsloc.errors import DomainError
from nbsloc.quadrature import (
    QuadratureGrid,
    angular_grid,
    disk_grid,
    gauss_jacobi,
    half_line_grid,
    hamiltonian_residual,
    mapped_legendre,
    radial_jacobi_grid,
)
from nbsloc.specfun import log_beta, reg_inc_beta
from nbsloc.states import bergman_basis, laguerre_function


class TestHalfLineGrid:
    @pytest.mark.parametrize("B", [0.51, 0.8, 1.25, 3.0, 20.0])
    @pytest.mark.parametrize("n", [1, 2, 7, 21, 60])
    def test_moments_to_the_declared_degree(self, n, B):
        # int_0^inf xi^(4B-1+2k) exp(-xi^2) dxi = Gamma(2B+k)/2 for k <= 2n - 1; each term over its value, in logs
        grid = half_line_grid(n, B)
        log_xi = np.log(grid.nodes)
        for k in range(2 * n):
            terms = np.exp((4.0 * B - 1.0 + 2.0 * k) * log_xi - grid.nodes ** 2 - math.lgamma(2.0 * B + k))
            assert grid.weights @ terms == pytest.approx(0.5, rel=1e-12)

    def test_small_gram(self):
        # phi_j phi_k with j, k <= 1 has degree 2 in xi^2: two nodes are exact
        B = 1.25
        grid = half_line_grid(2, B)
        f0 = laguerre_function(0, B, grid.nodes)
        f1 = laguerre_function(1, B, grid.nodes)
        assert grid.integrate(f0 * f0) == pytest.approx(1.0, abs=1e-14)
        assert grid.integrate(f1 * f1) == pytest.approx(1.0, abs=1e-14)
        assert grid.integrate(f0 * f1) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n, B", [(0, 1.5), (10, 0.5), (10, -1.0), (10, math.inf), (10, math.nan)])
    def test_domain(self, n, B):
        with pytest.raises(DomainError):
            half_line_grid(n, B)

    @pytest.mark.parametrize("n, B", [(200, 1.5), (300, 50.0)])
    def test_weights_past_the_double_range_refused(self, n, B):
        # the outermost unit-mass Christoffel weights underflow
        with pytest.raises(DomainError, match="double range"):
            half_line_grid(n, B)


class TestGaussJacobi:
    @given(n=st.integers(3, 40), alpha=st.floats(-0.9, 4.0) | st.just(0.0))
    @settings(max_examples=60, deadline=None)
    def test_weights_positive_nodes_interior(self, n, alpha):
        nodes, weights = gauss_jacobi(n, alpha)
        assert np.all(weights > 0.0)
        assert np.all(nodes > 0.0) and np.all(nodes < 1.0)
        assert np.all(np.diff(nodes) > 0.0)

    @pytest.mark.parametrize("n", [2, 3, 40, 41, 320, 600, 601])
    def test_legendre_rule_is_mirrored_exactly(self, n):
        # from the half-size solve; the whole-matrix build leaves n = 600 weights 6.5e-14 apart from their mirror
        x, w = gauss_jacobi(n, 0.0)
        assert np.array_equal(x, 1.0 - x[::-1]) and np.array_equal(w, w[::-1])
        if n % 2:
            assert x[n // 2] == 0.5

    @pytest.mark.parametrize("n", [2, 3, 40, 41, 600, 601])
    def test_legendre_rule_matches_the_whole_matrix_build(self, n):
        x, w = gauss_jacobi(n, 0.0)
        want_x, want_w = oracles.gauss_jacobi_dense(n, 0.0)
        assert np.max(np.abs(x - want_x)) <= 1e-15
        assert np.max(np.abs(w / want_w - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n, alpha", [(64, 0.5), (128, 2.0), (33, -0.3), (600, 39.0), (160, 1198.0), (40, 9998.0),
                                          *[(n, a) for a in (-0.5, 0.5, 3.0) for n in (2, 3, 40, 41, 600, 601)]])
    def test_other_rules_are_the_whole_matrix_build(self, n, alpha):
        x, w = gauss_jacobi(n, alpha)
        want_x, want_w = oracles.gauss_jacobi_dense(n, alpha)
        assert np.array_equal(x, want_x) and np.array_equal(w, want_w)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 3.0])
    @pytest.mark.parametrize("n", [2, 3, 40, 41])
    def test_moments_to_the_declared_degree(self, n, alpha):
        # int_0^1 x^k (1-x)^alpha dx = B(k + 1, alpha + 1) for k <= 2n - 1, exact at the double alpha; reads 3.7e-15
        x, w = gauss_jacobi(n, alpha)
        b = Fraction(alpha) + 1
        for k in range(2 * n):
            want = float(math.factorial(k) / math.prod(b + i for i in range(k + 1)))
            assert abs(math.fsum(w * x ** k) / want - 1.0) <= 1e-14

    @pytest.mark.parametrize("n, every", [(400, 1), (600, 6)])
    def test_legendre_weights_match_mpmath(self, n, every):
        # numpy's leggauss is 5.7e-10 off at n = 400; the rule is mirrored exactly, so the nodes from 1/2 up
        # suffice, every one at n = 400 and every sixth (the smallest and largest included) at n = 600
        mpmath = pytest.importorskip("mpmath")
        x, w = gauss_jacobi(n, 0.0)
        picked = np.unique(np.r_[np.arange(n // 2, n, every), n - 1])
        with mpmath.workdps(24):
            coef = [(mpmath.mpf(2 * k + 1) / (k + 1), mpmath.mpf(k) / (k + 1)) for k in range(1, n)]

            def legendre_pair(t):  # P_n(t), P_{n-1}(t)
                p_prev, p = mpmath.mpf(1), t
                for a, b in coef:
                    p_prev, p = p, a * t * p - b * p_prev
                return p, p_prev

            want = []
            for node in x[picked]:
                t = 2 * mpmath.mpf(node) - 1  # the node on [-1, 1]
                p, p_prev = legendre_pair(t)
                t -= p * (t * t - 1) / (n * (t * p - p_prev))  # Newton, with (1 - t^2) P_n' = n (P_{n-1} - t P_n)
                want.append(float((1 - t * t) / (n * legendre_pair(t)[1]) ** 2))  # half the weight on [-1, 1]
        assert np.max(np.abs(w[picked] / np.array(want) - 1.0)) <= 1e-12

    def test_total_mass(self):
        _, weights = gauss_jacobi(12, 1.3)
        assert float(np.sum(weights)) == pytest.approx(1.0 / 2.3, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0, 7, 38, 98, 198, 1198, 9998])
    def test_total_mass_for_integer_exponents(self, alpha):
        # mu_0 = 1 / (alpha + 1), past alpha = 1023 too
        _, weights = gauss_jacobi(40, float(alpha))
        assert abs(math.fsum(weights) * (alpha + 1) - 1.0) <= 1e-14

    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 37.5, 98.25, 500.7, 1023.5])
    def test_total_mass_for_non_integer_exponents(self, alpha):
        # against 1 / (alpha + 1) at the exact double alpha
        _, weights = gauss_jacobi(40, alpha)
        want = 1 / (Fraction(alpha) + 1)
        assert abs(float(Fraction(math.fsum(weights)) / want - 1)) <= 1e-14


class TestRuleCache:
    def test_cached_rules_equal_fresh_builds(self):
        for n, alpha in ((5, 0.0), (64, -0.5), (33, 1.7)):
            cached = gauss_jacobi(n, alpha)
            fresh = gauss_jacobi.__wrapped__(n, alpha)
            assert all(np.array_equal(c, f) for c, f in zip(cached, fresh))

    def test_legendre_is_the_affine_map_of_the_jacobi_rule(self):
        for n in (2, 40, 320):
            x, w = gauss_jacobi(n, 0.0)
            nodes, weights = mapped_legendre(n, 0.25, 0.81)
            assert np.array_equal(nodes, 0.25 + (0.81 - 0.25) * x)
            assert np.array_equal(weights, (0.81 - 0.25) * w)

    def test_repeated_call_shares_read_only_arrays(self):
        first = gauss_jacobi(24, 0.5)
        again = gauss_jacobi(24, 0.5)
        assert again is first
        for arr in again:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_invalid_calls_raise_every_time(self):
        before = gauss_jacobi.cache_info().currsize
        for _ in range(2):
            for n, alpha in ((8, -1.0), (1, 0.0), (8, math.inf), (8, math.nan)):
                with pytest.raises(DomainError):
                    gauss_jacobi(n, alpha)
            with pytest.raises(DomainError):
                mapped_legendre(1, 0.0, 1.0)
        assert gauss_jacobi.cache_info().currsize == before

    def test_cache_is_bounded(self):
        assert gauss_jacobi.cache_info().maxsize == quadrature.RULE_CACHE_SIZE  # None if unbounded


class TestDerivedRuleCaches:
    """The grids: built once, shared, read-only, bounded, and never a cached failure."""

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

    def test_invalid_calls_raise_every_time(self):
        caches = (radial_jacobi_grid, angular_grid)
        before = [cache.cache_info().currsize for cache in caches]
        for _ in range(2):
            for bad in (lambda: radial_jacobi_grid(10, 0.5), lambda: radial_jacobi_grid(1, 1.5),
                        lambda: angular_grid(1)):
                with pytest.raises(DomainError):
                    bad()
        assert [cache.cache_info().currsize for cache in caches] == before

    def test_caches_are_bounded(self):
        for cache in (radial_jacobi_grid, angular_grid):
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
        for grid in (half_line_grid(16, 1.5), radial_jacobi_grid(16, 1.5), disk_grid(8, 8, 1.5)):
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

    @pytest.mark.parametrize("B", [0.51, 1.0, 1.5, 20.0, 40.0, 50.0])
    @pytest.mark.parametrize("n", [21, 31, 100, 600])
    def test_moments_relative_to_exact_beta_values(self, n, B):
        # B = 1 is the mirrored Legendre rule (alpha = 0); at large B the weights span
        # hundreds of decades (down to 1e-186 at B = 50, n = 600)
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
        with pytest.raises(DomainError):
            radial_jacobi_grid(10, math.nan)

    def test_largest_strength_below_the_limit_builds(self):
        grid = radial_jacobi_grid(40, 511.75)
        assert abs(math.fsum(grid.weights) * (2.0 * 511.75 - 1.0) - 1.0) <= 1e-13  # B(1, 2B-1)

    @pytest.mark.parametrize("B", [511.75, 600.0, 5000.0, 1e5])
    @pytest.mark.parametrize("n", [40, 160])
    def test_moments_at_large_strength(self, n, B):
        # reads 8.9e-16 at B = 511.75 (40 nodes; 2.0e-14 from the rule on [-1, 1]) and 6.7e-15 at B = 1e5
        grid = radial_jacobi_grid(n, B)
        b = Fraction(2.0 * B - 1.0)
        for j in range(42):
            want = float(math.factorial(j) / math.prod(b + i for i in range(j + 1)))  # B(j + 1, b)
            assert abs(grid.integrate(grid.nodes ** j) / want - 1.0) <= 1e-14

    @pytest.mark.parametrize("n, B", [(400, 5000.0), (600, 1e5)])
    def test_underflowing_weights_refused_every_time(self, n, B):
        # the outermost weights fall below the double range
        before = radial_jacobi_grid.cache_info().currsize
        for _ in range(2):
            with pytest.raises(DomainError, match="strictly positive"):
                radial_jacobi_grid(n, B)
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
        assert hamiltonian_residual(0, 1.5) <= 1e-10

    def test_excited_small_strength(self):
        assert hamiltonian_residual(3, 0.8) <= 1e-10

    def test_wrong_strength_shows(self, monkeypatch):
        # phi_3 at B + 1e-6 is not an eigenfunction of the oscillator at B
        exact = states.laguerre_function
        monkeypatch.setattr(states, "laguerre_function", lambda j, B, xi: exact(j, B + 1e-6, xi))
        assert hamiltonian_residual(3, 1.5) > 1e-7
