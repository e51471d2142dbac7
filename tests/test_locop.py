import cmath
import itertools
import math
import sys
import warnings

import numpy as np
import pytest

import oracles
from nbsloc import locop, quadrature, specfun, states
from nbsloc.errors import AccuracyError, ConvergenceError, DomainError
from nbsloc.locop import (
    as_function_of_hamiltonian,
    beta_density,
    disk_eigenvalue,
    landau_density,
    landau_eigenvalue,
    leakage_bound,
    localized_overlap,
    mc_eigenvalue,
    quantization_matrix_element,
    radial_eigenvalue,
    spectral_apply,
)
from nbsloc.quadrature import disk_grid, gauss_jacobi, mapped_legendre, radial_jacobi_grid
from nbsloc.specfun import jacobi, reg_inc_beta
from nbsloc.states import LocalizationRadius, ModelParams, photon_weight


class TestRadialEigenvalue:
    def test_constant_symbol(self):
        one = lambda rho: 1.0
        for j in (0, 3, 11):
            assert radial_eigenvalue(one, j, 1.25) == pytest.approx(1.0, abs=1e-13)

    def test_linear_symbol_beta_mean(self):
        lin = lambda rho: rho
        assert radial_eigenvalue(lin, 2, 1.5) == pytest.approx(3.0 / 5.0, abs=1e-13)
        for j, B in ((0, 0.8), (5, 2.2)):
            assert radial_eigenvalue(lin, j, B) == pytest.approx(
                (j + 1.0) / (j + 2.0 * B), abs=1e-12
            )

    @pytest.mark.parametrize("B", [20.0, 50.0, 300.0])
    def test_normalization_over_a_range(self, B):
        # the rule integrates rho^(j+1) exactly, so what is left is 1 / B(j+1, 2B-1); formed index by index as
        # exp(-log_beta) it was 1.9e-13 off at B = 50 and 2.6e-13 at B = 300
        j = np.arange(160)
        one = radial_eigenvalue(lambda rho: 1.0, range(160), B)
        mean = radial_eigenvalue(lambda rho: rho, range(160), B)
        assert np.max(np.abs(one - 1.0)) <= 1e-13
        assert np.max(np.abs(mean / ((j + 1.0) / (j + 2.0 * B)) - 1.0)) <= 1e-13

    @pytest.mark.parametrize("B", [600.0, 5000.0])
    def test_values_at_large_strength(self, B):
        # at B = 5000 the normalization alone overflows where the node sum underflows; reads 5.7e-14 and 1.2e-13
        j = np.arange(160)
        one = radial_eigenvalue(lambda rho: 1.0, range(160), B)
        mean = radial_eigenvalue(lambda rho: rho, range(160), B)
        assert np.max(np.abs(one - 1.0)) <= 1e-12
        assert np.max(np.abs(mean / ((j + 1.0) / (j + 2.0 * B)) - 1.0)) <= 1e-12

    def test_indicator_symbol_is_refused(self):
        # the fixed 160-node rule returned the indicator's eigenvalue 1.1e-3 off, silently; no two rules
        # agree on a jump, so the walk ends past its last rule
        j, B, R = 1, 1.25, 0.6
        ind = lambda rho: np.where(rho < R * R, 1.0, 0.0)
        with pytest.raises(AccuracyError, match="did not converge"):
            radial_eigenvalue(ind, j, B)
        with pytest.raises(AccuracyError, match=f"{locop.RADIAL_NODES[-1]} nodes"):
            radial_eigenvalue(ind, range(3), B)

    def test_analytic_symbol_stops_at_48_nodes(self):
        # 1 / (1 + rho) has its pole on the Bernstein ellipse of radius 5.8: 24 nodes are exact to about 1e-37,
        # so the 48-node rule agrees with them to rounding and the walk builds nothing larger
        sizes = []
        symbol = lambda rho: sizes.append(rho.size) or 1.0 / (1.0 + rho)
        radial_eigenvalue(symbol, range(9), 1.25)
        assert sizes == [24, 48] == list(locop.RADIAL_NODES[:2])

    @pytest.mark.parametrize("symbol, B, indices", [(lambda rho: 1.0, 1.25, range(9)),
                                                    (lambda rho: np.cos(5.0 * rho), 3.0, range(30)),
                                                    (lambda rho: 1.0 / (1.0 + 100.0 * rho), 1.5, range(12)),
                                                    (lambda rho: rho, 600.0, range(160))])
    def test_symbol_is_called_once_per_rule_walked(self, symbol, B, indices):
        # on each rule's nodes, for all indices at once, in the order of RADIAL_NODES
        calls = []
        radial_eigenvalue(lambda rho: calls.append(rho) or symbol(rho), indices, B)
        assert len(calls) >= 2
        assert [rho.tolist() for rho in calls] == [radial_jacobi_grid(n, B).nodes.tolist()
                                                   for n in locop.RADIAL_NODES[:len(calls)]]

    def test_each_index_stops_at_its_own_pair_of_rules(self):
        # 1 / (1 + 100 rho) has its pole at rho = -0.01, which rho^j weighs less the larger j: j = 0 walks to
        # 192 nodes, j = 11 stops at 48.  A range call returns each entry from the first pair of rules that
        # agrees on it, so it equals that index's own call bit for bit
        symbol = lambda rho: 1.0 / (1.0 + 100.0 * rho)
        last = []
        for j in (0, 11):
            sizes = []
            radial_eigenvalue(lambda rho: sizes.append(rho.size) or symbol(rho), j, 1.5)
            last.append(sizes[-1])
        assert last == [192, 48]
        table = radial_eigenvalue(symbol, range(12), 1.5)
        assert table.tolist() == [radial_eigenvalue(symbol, j, 1.5) for j in range(12)]

    def test_a_vanishing_eigenvalue_of_a_sign_changing_symbol_is_returned(self):
        # rho - 1/2 has eigenvalue (j + 1) / (j + 2B) - 1/2 = 0 at j = 1, B = 1.5, and both rules are exact;
        # agreement is read against the eigenvalue of |F|, the scale of the rounding, so zero is not refused
        assert radial_eigenvalue(lambda rho: rho - 0.5, 1, 1.5) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("symbol, B", [(lambda rho: 1.0 / (1.0 + rho), 1.25), (lambda rho: rho, 0.8),
                                           (lambda rho: np.cos(5.0 * rho), 3.0)])
    def test_range_table_matches_the_pointwise_formula(self, symbol, B):
        # each entry is the node sum of the last rule the walk built, here the same for every index
        indices, sizes = range(30), []
        table = radial_eigenvalue(lambda rho: sizes.append(rho.size) or symbol(rho), indices, B)
        want = np.array([oracles.radial_eigenvalue_pointwise(symbol, j, B, sizes[-1], quadrature, specfun)
                         for j in indices])
        assert table.shape == (30,)
        assert np.max(np.abs(table - want)) <= 1e-15 * np.max(np.abs(want))
        assert table.tolist() == [radial_eigenvalue(symbol, j, B) for j in indices]

    def test_underflowing_weights_pass_their_domain_error_through(self):
        # at B = 600 the weights of rules past 227 nodes underflow; a symbol the smaller rules cannot settle
        # reaches one, and its DomainError is raised as the rule raised it
        with pytest.raises(DomainError) as got:
            radial_eigenvalue(lambda rho: np.where(rho < 1e-3, 1.0, 0.0), 0, 600.0)
        with pytest.raises(DomainError) as want:
            radial_jacobi_grid(384, 600.0)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("symbol", [lambda rho: math.nan, lambda rho: np.where(rho > 0.5, math.inf, 1.0),
                                        lambda rho: -math.inf, lambda rho: rho + 1j * rho])
    def test_complex_or_non_finite_symbol_values_rejected(self, symbol):
        # a NaN value on the nodes reached the eigenvalue; a complex one would lose its imaginary part
        with pytest.raises(DomainError, match="real and finite"):
            radial_eigenvalue(symbol, 0, 1.5)


class TestDiskEigenvalue:
    def test_unit_strength_closed_form(self):
        for j in range(21):
            assert disk_eigenvalue(j, 1.0, 0.5) == pytest.approx(0.25 ** (j + 1), abs=1e-12)

    def test_full_disk_limit(self):
        for j in (0, 2, 9):
            assert disk_eigenvalue(j, 1.5, 0.9999999) == pytest.approx(1.0, abs=1e-4)

    def test_derived_value(self):
        # frozen from the adaptive Simpson oracle of the incomplete Beta integral
        assert disk_eigenvalue(3, 1.25, 0.6) == pytest.approx(0.03484928, abs=1e-12)
        beta_const = math.gamma(4.0) * math.gamma(1.5) / math.gamma(5.5)
        direct = oracles.adaptive_simpson(
            lambda r: r ** 3 * math.sqrt(1.0 - r), 0.0, 0.36) / beta_const
        assert disk_eigenvalue(3, 1.25, 0.6) == pytest.approx(direct, abs=1e-12)

    def test_accepts_wrapper_type(self):
        assert disk_eigenvalue(2, 1.5, LocalizationRadius(0.6)) == disk_eigenvalue(2, 1.5, 0.6)

    def test_non_finite_strength_rejected(self):
        with pytest.raises(DomainError):
            disk_eigenvalue(1, math.inf, 0.5)

    # against 40-digit mpmath at the doubles b = 2B - 1 and s = R * R that the library sees
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="at b = 2B - 1 = 2e-6 the complement route 1 - front cf / b cancels: "
                              "6.4e-10 off, silently (ROADMAP item 26)")
    def test_relative_accuracy_near_the_lower_edge(self):
        j, B, R = 1000, 0.5 + 1e-6, 0.9999
        assert abs(disk_eigenvalue(j, B, R) / float(oracles.landau_eigenvalue_mpmath(j, B, 0, R)) - 1.0) <= 1e-12

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the continued fraction is ill-conditioned near its switch point at a >> b, and "
                              "the entry just below its anchor is 9.2e-12 off (ROADMAP item 4)")
    def test_relative_accuracy_below_a_large_anchor_near_the_rim(self):
        j, B, R = 1_048_575, 3.0, 0.99999
        assert abs(disk_eigenvalue(j, B, R) / float(oracles.landau_eigenvalue_mpmath(j, B, 0, R)) - 1.0) <= 1e-12


class TestLandauEigenvalueTable:
    """``landau_eigenvalue(range(n), ...)``, the table ``nbsloc eigvals`` prints: at m = 0 the Beta table."""

    def test_table_entries(self):
        lam3 = landau_eigenvalue(range(4), ModelParams(1.5), LocalizationRadius(0.6))[3]
        table = landau_eigenvalue(range(6), ModelParams(1.5), LocalizationRadius(0.6)).tolist()
        assert len(table) == 6 and all(0.0 <= v <= 1.0 for v in table)
        assert table[3] == lam3

    def test_monotone_decreasing(self):
        for B in (0.8, 1.0, 1.5, 3.0):
            for R in (0.3, 0.6, 0.9):
                lam = landau_eigenvalue(range(51), ModelParams(B), LocalizationRadius(R)).tolist()
                assert all(b < a for a, b in zip(lam, lam[1:]))

    def test_values_match_per_index_eigenvalues(self):
        got = landau_eigenvalue(range(120), ModelParams(0.8), LocalizationRadius(0.9))
        want = np.array([disk_eigenvalue(j, 0.8, 0.9) for j in range(120)])
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        # entries already computed are kept as they are
        assert landau_eigenvalue(range(200), ModelParams(0.8), 0.9)[:120].tolist() == got.tolist()

    def test_higher_level_route(self):
        assert 0.0 <= landau_eigenvalue(range(3), ModelParams(2.5, 1), LocalizationRadius(0.6))[2] <= 1.0

    def test_values_read_only_and_prefix_kept_as_it_grows(self):
        params, R = ModelParams(1.5), LocalizationRadius(0.6)
        first = landau_eigenvalue(range(10), params, R)
        kept = first.tolist()
        for n in (0, 4, 10, 30, 300):
            got = landau_eigenvalue(range(n), params, R)
            assert got.shape == (n,) and not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[:1] = 0.5
            assert got[:10].tolist() == kept[:n]
        assert first.tolist() == kept

    @pytest.mark.parametrize("B, R", [(1.5, 0.6), (0.51, 0.9), (20.5, 0.99)])
    def test_lowest_level_range_is_a_view_of_the_shared_table(self, B, R):
        for n in (0, 1, 40, 513, 5000):
            got = landau_eigenvalue(range(n), ModelParams(B), R)
            table = specfun.reg_inc_beta_table(R * R, max(n, 1), 2.0 * B - 1.0)
            assert got.shape == (n,) and not got.flags.writeable
            assert n == 0 or np.shares_memory(got, table)

    @pytest.mark.parametrize("indices", [range(59, -1, -1), range(7, 900, 9), range(30, 30), range(600, 601)])
    def test_lowest_level_other_ranges_are_read_only_copies(self, indices):
        params, R = ModelParams(1.5), 0.6
        got = landau_eigenvalue(indices, params, R)
        assert got.shape == (len(indices),) and not got.flags.writeable
        table = specfun.reg_inc_beta_table(R * R, max(indices, default=0) + 1, 2.0)
        assert not np.shares_memory(got, table)
        assert got.tolist() == [landau_eigenvalue(j, params, R) for j in indices]

    @pytest.mark.parametrize("B, R, m", [(1.5, 0.6, 0), (0.51, 0.9, 0), (2.5, 0.6, 1)])
    def test_entries_do_not_depend_on_the_length_asked(self, B, R, m):
        params = ModelParams(B, m)
        landau_eigenvalue(range(12), params, LocalizationRadius(R))
        for j in (0, 5, 11, 20):
            specfun._inc_beta_blocks.cache_clear()
            lam = landau_eigenvalue(range(j + 1), params, LocalizationRadius(R))[j]
            assert lam == landau_eigenvalue(range(j + 30), params, R)[j] == landau_eigenvalue(j, params, R)

    @pytest.mark.parametrize("B", [0.75, 1.5, 5.5, 20.5])
    @pytest.mark.parametrize("R", [0.3, 0.6, 0.9, 0.99])
    def test_grown_table_is_the_fresh_table(self, B, R):
        # the table grown to 7, 64 and then 500 entries differed from a fresh one in 520 of 8,000 entries
        early = [landau_eigenvalue(range(n), ModelParams(B), R).tolist() for n in (7, 64)]
        specfun._inc_beta_blocks.cache_clear()
        fresh = landau_eigenvalue(range(500), ModelParams(B), R).tolist()
        assert [fresh[:7], fresh[:64]] == early

    @pytest.mark.parametrize("B, R", [(1.5, 0.9), (0.51, 0.6), (20.5, 0.99), (0.6, 0.9999)])
    def test_disk_eigenvalue_is_the_values_entry(self, B, R):
        # the single-index continued fraction differed from the table entry in 7,190 of 8,000 cases
        for j in (0, 1, 9, 200, 511, 600):
            for n in (j + 2, 700, 5000):
                specfun._inc_beta_blocks.cache_clear()
                assert disk_eigenvalue(j, B, R) == landau_eigenvalue(range(n), ModelParams(B), R)[j]

    def test_negative_indices_rejected(self):
        for call in (lambda: landau_eigenvalue(range(-2, 3), ModelParams(1.5), 0.6),
                     lambda: landau_eigenvalue(-1, ModelParams(1.5), 0.6)):
            with pytest.raises(DomainError, match=">= 0"):
                call()


class TestSpectralApply:
    def test_eigenvector_action(self):
        e3 = np.zeros(4, dtype=complex)
        e3[3] = 1.0
        out = spectral_apply(e3, ModelParams(1.5), LocalizationRadius(0.6))
        assert out[3] == pytest.approx(disk_eigenvalue(3, 1.5, 0.6), rel=1e-15, abs=0.0)
        assert np.all(out[:3] == 0.0)

    def test_zero_vector(self):
        assert np.all(spectral_apply(np.zeros(5), ModelParams(1.5), 0.6) == 0.0)

    def test_not_a_projection(self):
        c = np.ones(6, dtype=complex)
        once = spectral_apply(c, ModelParams(1.5), 0.6)
        twice = spectral_apply(once, ModelParams(1.5), 0.6)
        assert np.all(np.abs(twice) < np.abs(once))

    @pytest.mark.parametrize("m", [0, 1])
    def test_multiplies_by_the_level_table(self, m):
        c = np.arange(1.0, 8.0) + 0.5j
        got = spectral_apply(c, ModelParams(2.5, m), 0.6)
        assert got.tolist() == (landau_eigenvalue(range(7), ModelParams(2.5, m), 0.6) * c).tolist()
        assert spectral_apply([], ModelParams(2.5, m), 0.6).shape == (0,)

    @pytest.mark.parametrize("shape", [(3, 1), (1, 3), (2, 2), ()])
    def test_coefficients_must_be_a_vector(self, shape):
        # a (3, 1) column broadcast against the 3 eigenvalues into a 3 x 3 outer product
        with pytest.raises(DomainError, match="1-D vector"):
            spectral_apply(np.ones(shape), ModelParams(1.5), 0.6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    @pytest.mark.parametrize("m", [0, 1])
    def test_non_finite_coefficients_refused(self, bad, m):
        # a NaN or infinite coefficient came back as a NaN or infinite component
        with pytest.raises(DomainError, match="finite"):
            spectral_apply([1.0, bad], ModelParams(2.5, m), 0.6)


class TestFunctionOfHamiltonian:
    def test_exact_consistency(self):
        for j in range(31):
            assert as_function_of_hamiltonian(j + 1, 1.5, 0.7) == disk_eigenvalue(j, 1.5, 0.7)

    def test_ground_value_unit_strength(self):
        assert as_function_of_hamiltonian(1, 1.0, 0.5) == pytest.approx(0.25, abs=1e-14)

    def test_monotone_decreasing(self):
        vals = [as_function_of_hamiltonian(n, 1.25, 0.6) for n in range(1, 40)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            as_function_of_hamiltonian(0, 1.5, 0.6)

    @pytest.mark.parametrize("n", ["3", None])
    def test_index_checked_before_its_range(self, n):
        # "3" and None raised TypeError from n < 1, before check_index saw them
        with pytest.raises(DomainError, match=">= 1"):
            as_function_of_hamiltonian(n, 1.5, 0.5)


class TestBetaDensity:
    def test_normalization(self):
        grid = radial_jacobi_grid(80, 1.5)
        # grid absorbs (1-rho)^(2B-2); strip it from the density
        vals = beta_density(2, 1.5, grid.nodes) / (1.0 - grid.nodes) ** (2.0 * 1.5 - 2.0)
        assert grid.integrate(vals) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_case(self):
        rho = np.linspace(0.0, 0.95, 20)
        assert np.allclose(beta_density(0, 1.0, rho), 1.0, atol=1e-14)

    def test_mass_below_cutoff_is_eigenvalue(self):
        j, B, R = 3, 1.4, 0.7
        nodes, weights = mapped_legendre(400, 0.0, R * R)
        mass = weights @ beta_density(j, B, nodes)
        assert mass == pytest.approx(disk_eigenvalue(j, B, R), abs=1e-12)

    def test_large_strength_formed_in_logs(self):
        # the norm Gamma(2B+j) / (Gamma(2B-1) j!) alone overflows here
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            b = mpmath.mpf(400)
            want = float((b - 1) * mpmath.binomial(b + 672, 673) * mpmath.mpf(0.5) ** (b - 2 + 673))
        assert beta_density(673, 200.0, 0.5) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_density(0, 1.5, 1.0)

    @pytest.mark.parametrize("rho", [[0.1, 0.2], (0.1, 0.2), [[0.1], [0.2]], [0.3]])
    def test_array_like_rho_for_one_index_is_a_row_of_the_range_call(self, rho):
        # a list or tuple rho for a single index raised TypeError while a range of indices took it
        for call in (lambda j: beta_density(j, 1.5, rho), lambda j: landau_density(j, ModelParams(2.5, 1), rho)):
            row = call(1)
            assert isinstance(row, np.ndarray) and row.shape == np.shape(rho)
            assert np.array_equal(row.view(np.uint64), call(range(3))[1].view(np.uint64))


class TestLowestLevel:
    @pytest.mark.parametrize("function, args, text", [
        (disk_eigenvalue, (-1, 1.5, 0.6), "needs j >= 0 and integral, got j=-1"),
        (disk_eigenvalue, (3, 0.4, 0.6), "requires finite B with 2B > 1, got B=0.4"),
        (disk_eigenvalue, (3, 1.5, 1.0), "localization radius needs 0 < R < 1, got R=1.0"),
        (beta_density, (-1, 1.5, 0.3), "needs j >= 0 and integral, got j=-1"),
        (beta_density, (3, 0.4, 0.3), "requires finite B with 2B > 1, got B=0.4"),
        (beta_density, (3, 1.5, 1.0), "density defined on 0 <= rho < 1"),
    ], ids=["disk_eigenvalue-j", "disk_eigenvalue-B", "disk_eigenvalue-R", "beta_density-j", "beta_density-B",
            "beta_density-rho"])
    def test_each_bad_argument_alone_keeps_its_text(self, function, args, text):
        # the m = 0 level functions check B first, then R and j or j and rho; a bad argument alone has its rule's text
        with pytest.raises(DomainError) as err:
            function(*args)
        assert str(err.value) == text


class TestLandauDensity:
    def test_reduces_to_beta_density(self):
        assert landau_density(3, ModelParams(1.5, 0), 0.4) == beta_density(3, 1.5, 0.4)

    @pytest.mark.parametrize("B, m", [(0.51, 0), (1.51, 0), (1.51, 1), (3.65, 1), (3.65, 2),
                                      (10.1, 2), (50.5, 0), (51.3, 1)])
    def test_norm_matches_exact_rationals(self, B, m):
        # (2B-2m-1) w_hi / w_lo, w the negative binomial weights of shape 2B - 2m; at rho = 7/8
        # both powers stay representable up to j = 2000 and 1 - rho is exact.  The polynomial is
        # the package's own, so its cancellation near a root does not mask or mimic a norm error.
        b, rho = 2.0 * B - 2.0 * m, 0.875
        w = oracles.nb_weights_exact(2000, b)
        for j in range(0, 2001, 7):
            lo, hi = min(m, j), max(m, j)
            poly = jacobi(lo, float(hi - lo), b - 1.0, 1.0 - 2.0 * rho)
            want = (b - 1.0) * (w[hi] / w[lo]) * (1.0 - rho) ** (b - 2.0) * rho ** (hi - lo) * poly * poly
            assert landau_density(j, ModelParams(B, m), rho) == pytest.approx(want, rel=1.5e-12, abs=0.0)

    def test_normalization(self):
        params = ModelParams(2.5, 1)
        nodes, weights = mapped_legendre(400, 0.0, 1.0)
        for j in (0, 1, 4):
            mass = weights @ landau_density(j, params, nodes)
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_nonnegative(self):
        rho = np.linspace(0.0, 0.99, 500)
        assert np.all(landau_density(2, ModelParams(3.0, 2), rho) >= 0.0)

    def test_degenerate_level_rejected(self):
        # B - 1/2 integer puts m = B - 1/2 on the boundary where the weight
        # is not normalizable
        with pytest.raises(DomainError):
            landau_density(0, ModelParams(2.5, 2), 0.3)


class TestLandauEigenvalue:
    def test_reduces_at_lowest_level(self):
        pytest.importorskip("mpmath")
        for j, B, R in ((0, 1.5, 0.6), (3, 1.25, 0.6), (5, 2.0, 0.4)):
            want = float(oracles.landau_eigenvalue_mpmath(j, B, 0, R))
            assert landau_eigenvalue(j, ModelParams(B, 0), R) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("B, R", [(0.6, 0.9999), (0.51, 0.99), (1.5, 0.6), (10.5, 0.9), (50.0, 0.999)])
    def test_lowest_level_is_the_beta_table_bit_for_bit(self, B, R):
        # the 320-node rule was 4.5e-15 off the table at (10.5, 0.9, 40), and at (0.6, 0.9999) its
        # refinement moved 1.65e-9, so it raised AccuracyError for a value the table computes
        js = [0, 1, 3, 40, 511, 512, 513, 4000]
        want = [disk_eigenvalue(j, B, R) for j in js]
        assert [landau_eigenvalue(j, ModelParams(B), R) for j in js] == want
        table = landau_eigenvalue(range(4001), ModelParams(B), R)
        assert [table[j] for j in js] == want
        assert landau_eigenvalue(range(4000, -1, -1), ModelParams(B), R).tolist() == table[::-1].tolist()

    @pytest.mark.parametrize("B, R", [(0.51, 0.99), (50.0, 0.999)])
    def test_lowest_level_table_sums_to_the_mean_photon_count(self, B, R):
        # sum_j lambda_j = sum_j P(N > j) = E[N] = (2B - 1) s / (1 - s), N negative binomial of shape 2B - 1 at s = R^2.
        # Budget: the entries are positive, so the sum's relative error is at most the worst entry's, which the table
        # holds to about 1.5e-14 at these sizes (ROADMAP item 4), plus fsum's half ulp.  The tail past n = 2^21 is
        # at most lambda_{n-1} / (1 - q), q < 1 a bound on the ratios of later entries (``_log_tail_bound``), and
        # lambda_{n-1} underflows to 0 here.  Measured: 2.3e-16 and 1.1e-14 relative.
        s, n = R * R, 2 ** 21
        try:
            values = landau_eigenvalue(range(n), ModelParams(B), R)
            assert values[-1] == 0.0
            want = (2.0 * B - 1.0) * s / (1.0 - s)
            assert abs(math.fsum(values.tolist()) - want) <= 1e-13 * want
        finally:
            specfun._inc_beta_blocks.cache_clear()  # the 16 MB table

    def test_full_disk_mass(self, monkeypatch):
        monkeypatch.setattr(locop, "LANDAU_NODES", 600)
        got = landau_eigenvalue(1, ModelParams(2.5, 1), 0.999)
        assert got == pytest.approx(1.0, abs=1e-3)

    def test_independent_formula_path(self):
        # same value through scipy's Jacobi evaluator and raw Gamma arithmetic
        from scipy.special import eval_jacobi

        B, m, j, R = 3.0, 1, 2, 0.5
        nodes, weights = mapped_legendre(400, 0.0, R * R)
        direct = (
            (2 * B - 2 * m - 1)
            * math.factorial(min(m, j)) / math.factorial(max(m, j))
            * math.gamma(2 * B - 2 * m + max(m, j)) / math.gamma(2 * B - 2 * m + min(m, j))
            * (1.0 - nodes) ** (2 * B - 2 * m - 2) * nodes ** abs(m - j)
            * eval_jacobi(min(m, j), abs(m - j), 2 * (B - m) - 1, 1.0 - 2.0 * nodes) ** 2
        )
        assert landau_eigenvalue(j, ModelParams(B, m), R) == pytest.approx(
            float(weights @ direct), rel=1e-12, abs=0.0
        )

    def test_range(self):
        for j in range(6):
            val = landau_eigenvalue(j, ModelParams(2.5, 1), 0.7)
            assert -1e-12 <= val <= 1.0 + 1e-12

    @pytest.mark.parametrize("j", [20_000, 30_000])
    def test_unresolved_rule_raises(self, j):
        # deep in j at R = 0.999 the halves' refinement moves the 320-node value by 3.6e-22 of 1.2e-12 (j = 20,000)
        with pytest.raises(AccuracyError, match="did not converge"):
            landau_eigenvalue(j, ModelParams(3.0, 1), 0.999)

    def test_overflowing_density_refused_without_warnings(self):
        # the Jacobi recurrence meets inf - inf on 503 of the 2,001 nodes; this returned
        # nan after RuntimeWarnings, since the refinement test was false for NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AccuracyError, match="nan"):
                landau_eigenvalue(1500, ModelParams(2000.5, 1500), 0.9)

    @pytest.mark.parametrize("B, m", [(2.5, 1), (4.5, 3), (10.5, 4)])
    def test_one_density_pass_matches_three(self, B, m):
        # the density is evaluated once on the 3 x LANDAU_NODES nodes, not once per rule
        params = ModelParams(B, m)
        for R in (0.3, 0.7, 0.95):
            for j in (0, 1, 5, 10, 40):
                coarse, fine = oracles.landau_eigenvalue_three_pass(j, params, R, locop, quadrature)
                assert abs(coarse - fine) <= locop.LANDAU_REFINE_TOL * abs(fine)
                assert abs(landau_eigenvalue(j, params, R) - fine) <= 1e-15 * abs(fine)

    def test_subnormal_band_is_not_refused(self):
        # at B = 3, m = 1, R = 0.9 the entries j = 3,513 to 3,628 are subnormal and the two rules differ by up
        # to 539 math.ulp(0.0); the relative test alone refused each, so `nbsloc eigvals --j-max 5000` exited 2
        pytest.importorskip("mpmath")
        floor = 3 * locop.LANDAU_NODES * math.ulp(0.0)
        for j in range(3513, 3629):
            got = landau_eigenvalue(j, ModelParams(3.0, 1), 0.9)
            assert 0.0 < got < sys.float_info.min
            assert abs(got - float(oracles.landau_eigenvalue_mpmath(j, 3.0, 1, 0.9))) <= floor

    @pytest.mark.parametrize("B, m, R, js", [
        (4.5, 3, 0.6, range(719, 743)), (10.5, 4, 0.6, range(761, 783)), (4.5, 3, 0.9, range(3481, 3598)),
    ])
    def test_band_above_the_underflow_is_not_refused(self, B, m, R, js):
        # exp(ln_norm + shape) is subnormal on some nodes while P^2 is large, so its few bits times P^2 made the
        # two rules differ far past the floor, and each entry was refused; `eigvals --m 3 --j-max 1000` exited 2
        pytest.importorskip("mpmath")
        params, floor = ModelParams(B, m), 3 * locop.LANDAU_NODES * math.ulp(0.0)
        table = landau_eigenvalue(js, params, R)
        for j, got in zip(js, table):
            want = float(oracles.landau_eigenvalue_mpmath(j, B, m, R))
            assert abs(got - want) <= (1e-12 * want if want >= sys.float_info.min else floor), j
            assert landau_eigenvalue(j, params, R) == got

    def test_density_joins_the_square_in_logs_below_the_normal_range(self):
        # at j = 730, rho = 0.36 the density is 2.6e-304 and exp(ln_norm + shape) alone about 1e-318: it was 1.3e-7 off
        mpmath = pytest.importorskip("mpmath")
        B, m, j, rho = 4.5, 3, 730, 0.36
        with mpmath.workdps(40):
            beta, lo, hi = 2 * mpmath.mpf(B) - 2 * m - 1, m, j
            norm = beta * mpmath.gammaprod([lo + 1, beta + 1 + hi], [hi + 1, beta + 1 + lo])
            poly = mpmath.jacobi(lo, hi - lo, beta, 1 - 2 * mpmath.mpf(rho))
            want = float(norm * (1 - mpmath.mpf(rho)) ** (beta - 1) * mpmath.mpf(rho) ** (hi - lo) * poly ** 2)
        assert sys.float_info.min <= want < 1e-300
        assert landau_density(j, ModelParams(B, m), rho) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("B, m, R, n", [
        (3.0, 1, 0.9, 5001), (2.5, 1, 0.6, 1001), (10.5, 4, 0.99, 2001), (4.5, 3, 0.6, 1001),
    ])
    def test_table_against_mpmath(self, B, m, R, n):
        # normal entries within 1e-12 relative, subnormal ones within the refinement floor, zero past underflow
        pytest.importorskip("mpmath")
        values = landau_eigenvalue(range(n), ModelParams(B, m), R)
        floor = 3 * locop.LANDAU_NODES * math.ulp(0.0)
        tiny = np.nonzero(values < 1e-300)[0]
        start = int(tiny[0]) - 20 if tiny.size else n
        for j in sorted({*range(0, n, 25), *range(max(start, 0), min(start + 300, n))}):
            want = oracles.landau_eigenvalue_mpmath(j, B, m, R)
            if want >= sys.float_info.min:
                assert abs(values[j] - want) <= 1e-12 * want, j
            else:
                assert abs(values[j] - want) <= floor, j

    @pytest.mark.parametrize("B, m", [(2.5, 1), (4.5, 3), (10.5, 4)])
    @pytest.mark.parametrize("indices", [range(0, 60), range(59, -1, -1), range(7, 90, 9), range(30, 30),
                                         range(0, 133), range(140, 3, -1)])
    def test_range_entries_are_the_single_index_calls(self, B, m, indices):
        params, rho = ModelParams(B, m), np.linspace(0.0, 0.99, 23)
        for R in (0.3, 0.9):
            got = landau_eigenvalue(indices, params, R)
            assert got.shape == (len(indices),) and not got.flags.writeable
            want = np.array([landau_eigenvalue(j, params, R) for j in indices])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        rows = landau_density(indices, params, rho)
        assert rows.shape == (len(indices), rho.size)
        want = np.array([landau_density(j, params, rho) for j in indices]).reshape(rows.shape)
        assert np.array_equal(rows.view(np.uint64), want.view(np.uint64))
        scalar = landau_density(indices, params, 0.37)
        assert scalar.tolist() == [landau_density(j, params, 0.37) for j in indices]

    @pytest.mark.parametrize("indices, bound", [(range(64), 128e3), (range(4000), 0.5e6)])
    def test_range_call_holds_one_density_row(self, indices, bound):
        # the whole len(j) x 960 density block took 31 MB here; 64 rows of it at a time peaked at 528 kB and 1.16 MB
        import tracemalloc

        params = ModelParams(3.0, 1)
        landau_eigenvalue(0, params, 0.9)
        tracemalloc.start()
        try:
            values = landau_eigenvalue(indices, params, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (len(indices),) and peak <= bound, peak

    def test_density_rows_fill_one_output_array(self):
        # the exponents, the polynomials, their product and the repair's mask held about four arrays (4.15x, 4.19x)
        import tracemalloc

        params, rho = ModelParams(2.5, 1), np.linspace(0.0, 0.99, 4096)
        landau_density(range(64), params, rho)
        tracemalloc.start()
        try:
            rows = landau_density(range(64), params, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * rows.nbytes, peak / rows.nbytes

    def test_int_calls_build_the_rule_once(self, monkeypatch):
        # each call built three mapped Legendre rules and took the logs on their 960 nodes
        calls = []

        def counted(*args):
            calls.append(args)
            return mapped_legendre(*args)

        monkeypatch.setattr(locop, "mapped_legendre", counted)
        locop._landau_rule.cache_clear()
        params, R = ModelParams(4.5, 2), LocalizationRadius(0.6)
        first = landau_eigenvalue(0, params, R)
        assert len(calls) == 3
        values = [landau_eigenvalue(j, params, R) for j in range(11)]
        assert len(calls) == 3 and values[0] == first
        assert landau_eigenvalue(range(11), params, R).tolist() == values and len(calls) == 3

    def test_table_loop_builds_no_rule_after_its_first_call(self):
        params, R = ModelParams(4.5, 2), LocalizationRadius(0.6)
        landau_eigenvalue(0, params, R)
        before = gauss_jacobi.cache_info().misses
        values = [landau_eigenvalue(j, params, R) for j in range(11)]
        assert gauss_jacobi.cache_info().misses == before
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_refined_value_relative_accuracy(self):
        # the m = 0 table is within 1.3e-14 relative of the 40-digit value on these cases, worst at (40, 0.75, 0.3)
        pytest.importorskip("mpmath")
        for B in (0.6, 0.75, 1.5, 4.5, 10.5):
            for R in (0.3, 0.6, 0.9):
                for j in (0, 3, 10, 40):
                    want = float(oracles.landau_eigenvalue_mpmath(j, B, 0, R))
                    got = landau_eigenvalue(j, ModelParams(B, 0), R)
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0), (j, B, R)


class TestMcEigenvalue:
    def test_matches_closed_form(self):
        j, B, R = 2, 1.25, 0.6
        n = 1_000_000
        est, se = mc_eigenvalue(j, B, R, n, seed=21)
        exact = disk_eigenvalue(j, B, R)
        assert abs(est - exact) <= 4.0 * max(se, math.sqrt(exact * (1 - exact) / n))

    def test_near_full_disk(self):
        est, se = mc_eigenvalue(0, 1.5, 0.999, 10_000, seed=5)
        assert est > 0.99
        assert se < 1e-3

    def test_deterministic(self):
        a = mc_eigenvalue(1, 1.5, 0.6, 10_000, seed=8)
        b = mc_eigenvalue(1, 1.5, 0.6, 10_000, seed=8)
        assert a == b

    @pytest.mark.parametrize("B", [0.5, math.nan, math.inf])
    def test_strength_checked(self, B):
        with pytest.raises(DomainError, match="2B > 1"):
            mc_eigenvalue(0, B, 0.6, 1000, seed=1)

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            mc_eigenvalue(0, 1.5, 0.6, 99, seed=1)

    @pytest.mark.parametrize("j, B", [(0, 0.8), (2, 1.5)])  # numpy's a, b <= 1 branch, then its gamma ratio
    @pytest.mark.parametrize("n", [100, locop.MC_BLOCK - 1, locop.MC_BLOCK, locop.MC_BLOCK + 1,
                                   3 * locop.MC_BLOCK + 7])
    def test_blocks_count_the_draws_of_one_call(self, j, B, n):
        # the blocks hold one stream's draws in order, and hits / n is their mean bit for bit
        R = 0.6
        want = float(np.mean(specfun.sample_beta(j + 1.0, 2.0 * B - 1.0, n, 31) <= R * R))
        est, se = mc_eigenvalue(j, B, R, n, seed=31)
        assert est.hex() == want.hex() and se == math.sqrt(want * (1.0 - want) / n)

    def test_holds_one_block_of_draws(self):
        # all 2,000,000 draws and their mask took 17.2 MB here, 9 bytes per sample
        import tracemalloc

        mc_eigenvalue(2, 1.5, 0.6, 100, 1)
        tracemalloc.start()
        try:
            mc_eigenvalue(2, 1.5, 0.6, 2_000_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak

    @pytest.mark.parametrize("seed", [None, -1, 1.5, "3"])
    def test_seed_checked(self, seed):
        # None drew from OS entropy, a new value each run; -1 and 1.5 or "3" raised numpy's ValueError, TypeError
        with pytest.raises(DomainError, match="seed"):
            mc_eigenvalue(0, 1.5, 0.5, 1000, seed)

    @pytest.mark.parametrize("seed", [np.int64(7), 7.0])
    def test_integral_seed_is_its_int(self, seed):
        assert mc_eigenvalue(1, 1.5, 0.6, 1000, seed) == mc_eigenvalue(1, 1.5, 0.6, 1000, 7)


class TestLeakageBound:
    def test_full_disk_limit(self):
        assert leakage_bound(0.3 + 0.2j, 1.5, 0.9999999) == pytest.approx(1.0, abs=1e-4)

    def test_rounding_never_lifts_the_bound_past_one(self):
        # the 131,072-entry photon-count law at B = 1e5 sums to 1 + 5.5e-12, and the bound read 1.000000000002766
        got = leakage_bound(0.5, 1e5, 0.99)
        assert got <= 1.0 and got == pytest.approx(1.0, abs=1e-11)

    def test_center_closed_form(self):
        B, R = 1.5, 0.5
        want = 1.0 - (1.0 - R * R) ** (2.0 * B - 1.0)
        assert leakage_bound(0.0j, B, R) == pytest.approx(want, abs=1e-12)

    def test_brute_force_value(self):
        # frozen from the 2000-term brute-force oracle
        got = leakage_bound(0.7 + 0.0j, 1.5, 0.5)
        assert got == pytest.approx(0.17516965054535744, abs=1e-12)
        assert got == pytest.approx(
            oracles.leakage_bound_bruteforce(0.49, 1.5, 0.5, reg_inc_beta), abs=1e-12
        )

    @pytest.mark.parametrize("modulus", [0.999, 0.9999])
    def test_near_boundary_against_scipy(self, modulus):
        # A stopping rule on the float sum of the pmf cannot reach 1 - 1e-14 here.
        scipy_special = pytest.importorskip("scipy.special")
        B, R = 10.5, 0.95
        z0 = modulus * complex(math.cos(0.7), math.sin(0.7))
        p = abs(z0) ** 2
        n = 4096  # lambda_n^2 < 1e-300 here, so the tail past n is nothing
        j = np.arange(float(n))
        lam = scipy_special.betainc(j + 1.0, 2.0 * B - 1.0, R * R)
        log_pmf = (scipy_special.gammaln(2.0 * B + j) - scipy_special.gammaln(j + 1.0)
                   - scipy_special.gammaln(2.0 * B) + j * math.log(p) + 2.0 * B * math.log1p(-p))
        assert lam[-1] ** 2 < 1e-300
        ref = math.sqrt(float(np.sum(lam * lam * np.exp(log_pmf))))
        # both sides carry 1e-10 relative eigenvalues and 1e-12 relative pmf
        assert leakage_bound(z0, B, R) == pytest.approx(ref, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("z0, B, R, n", [
        (math.sqrt(0.99), 150.0, 0.9, 8192),  # returned 7.534e-126, 1.8% below the sum, with an absolute tail rule
        (0.5 + 0.3j, 1.25, 0.6, 512),
        (0.95, 40.0, 0.2, 2048),  # 1.07e-37: the squared eigenvalues underflow in this sum
    ])
    def test_bound_meets_mpmath_and_is_attained(self, z0, B, R, n):
        pytest.importorskip("mpmath")
        want, direction = oracles.leakage_bound_mpmath(abs(z0) ** 2, B, R, n)
        got = leakage_bound(z0, B, R)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        # c_j = t_j e^(i j arg z0) makes every term of the overlap real and positive: it is the bound itself
        c = direction * np.exp(1j * cmath.phase(z0) * np.arange(n))
        overlap = localized_overlap(z0, B, R, c)
        assert overlap <= got * (1.0 + 1e-12)
        assert overlap == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("B", [0.51, 0.75, 1.0, 1.5, 5.0, 40.0])
    def test_log_tail_bound_holds(self, B):
        # sum_{j >= n} lambda_j^2 pmf_j over 2^17 terms never exceeds the bound, which at 2B - 1 = 1
        # (lambda_j = s^(j+1)) and p near 1 is nearly attained
        size, slack = 1 << 17, []
        for R, p in itertools.product((0.3, 0.9, 0.99), (0.5, 0.99, 0.9999)):
            lam = specfun.reg_inc_beta_table(R * R, size, 2.0 * B - 1.0)
            log_pmf = specfun.log_inc_beta_steps(p, size, 2.0 * B)
            with np.errstate(divide="ignore"):
                terms = 2.0 * np.log(lam) + log_pmf
            for n in (32, 256, 2048):
                top = terms[n:].max()
                tail = top + math.log(np.exp(terms[n:] - top).sum()) if top > -math.inf else -math.inf
                bound = locop._log_tail_bound(lam[:n], log_pmf[:n], reg_inc_beta(p, float(n), 2.0 * B),
                                              R * R, p, B)
                assert bound >= tail - 1e-9, (R, p, n)
                slack.append(bound - tail)
        if B == 1.0:
            assert min(slack) < 1e-3

    @pytest.mark.parametrize("z0, B, R", [(0.95, 40.0, 0.2), (0.5 + 0.3j, 1.25, 0.6), (math.sqrt(0.99), 150.0, 0.9)])
    def test_eigenvalues_come_only_from_the_table(self, monkeypatch, z0, B, R):
        # the stop test also read lambda_{n-1} as a scalar reg_inc_beta(R^2, n, 2B - 1), which below n = 512
        # differs from the table's entry in its last bits; the one scalar left is P(N >= n) = I_p(n, 2B)
        seen = []

        def spy(x, a, b):
            seen.append(x)
            return reg_inc_beta(x, a, b)

        monkeypatch.setattr(locop, "reg_inc_beta", spy)
        leakage_bound(z0, B, R)
        assert seen and set(seen) == {abs(z0) ** 2}

    def test_tail_bound_holds_for_tolerances(self, monkeypatch):
        B, R, z0 = 1.25, 0.6, 0.95 + 0.2j
        monkeypatch.setattr(locop, "LEAKAGE_TAIL_TOL", 1e-30)
        exact = leakage_bound(z0, B, R)
        for tol in (1e-6, 1e-10, 1e-14):
            monkeypatch.setattr(locop, "LEAKAGE_TAIL_TOL", tol)
            got = leakage_bound(z0, B, R)
            # 1e-15 allows for rounding in sums of a few hundred terms below one
            assert -1e-15 <= exact ** 2 - got ** 2 <= tol + 1e-15

    def test_unreachable_tail_raises(self):
        with pytest.raises(ConvergenceError):
            leakage_bound(1.0 - 1e-12, 1.5, 1.0 - 1e-9)

    def test_non_finite_strength_rejected(self):
        with pytest.raises(DomainError):
            leakage_bound(0.3, math.inf, 0.5)

    def test_center_below_the_normal_range(self):
        # at z0 = 0 the bound is lambda_0 = 1 - (1 - s)^(2B - 1) = 2s - s^2 at B = 1.5
        assert leakage_bound(0.0, 1.5, 1e-100) == pytest.approx(2e-200, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("z0, B, R", [(0.5, 1.5, 1e-100), (0.99999999, 40.0, 0.999)])
    def test_sum_below_the_normal_range(self, z0, B, R):
        # the squared eigenvalues, or the pmf, underflowed and the bound read 0.0
        scipy_special = pytest.importorskip("scipy.special")
        p, j = abs(z0) ** 2, np.arange(200_000.0)
        with np.errstate(divide="ignore"):
            log_lam = np.log(scipy_special.betainc(j + 1.0, 2.0 * B - 1.0, R * R))
        log_pmf = (scipy_special.gammaln(2.0 * B + j) - scipy_special.gammaln(j + 1.0)
                   - scipy_special.gammaln(2.0 * B) + j * math.log(p) + 2.0 * B * math.log1p(-p))
        ref = math.exp(0.5 * scipy_special.logsumexp(2.0 * log_lam + log_pmf))
        got = leakage_bound(z0, B, R)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert got >= localized_overlap(z0, B, R, [1.0])


class TestLocalizedOverlap:
    def test_single_mode_reduction(self):
        B, R = 1.25, 0.6
        z0 = 0.5 + 0.3j
        for k in (0, 2, 5):
            coeffs = np.zeros(k + 1, dtype=complex)
            coeffs[k] = 1.0
            want = (
                disk_eigenvalue(k, B, R)
                * (1.0 - abs(z0) ** 2) ** B
                * math.sqrt(photon_weight(k, B))
                * abs(z0) ** k
            )
            assert localized_overlap(z0, B, R, coeffs) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_zero_function(self):
        assert localized_overlap(0.5j, 1.25, 0.6, np.zeros(4)) == 0.0

    @pytest.mark.parametrize("shape", [(1, 3), (3, 1), (0, 2), ()])
    def test_coefficients_must_be_a_vector(self, shape):
        # a (1, 3) row raised TypeError and a (3, 1) column ValueError
        with pytest.raises(DomainError, match="1-D vector"):
            localized_overlap(0.3, 1.5, 0.6, np.ones(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_coefficients_refused(self, bad):
        # localized_overlap(0.1, 1.5, 0.6, [nan, 1]) returned nan
        with pytest.raises(DomainError, match="finite"):
            localized_overlap(0.1, 1.5, 0.6, [bad, 1.0])

    @pytest.mark.parametrize("B", [math.nan, 0.4])
    def test_strength_checked_before_empty_coefficients(self, B):
        with pytest.raises(DomainError, match="2B > 1"):
            localized_overlap(0.3, B, 0.5, [])

    def test_dominated_by_bound(self):
        B, R = 1.25, 0.6
        z0 = 0.5 + 0.3j
        bound = leakage_bound(z0, B, R)
        rng = np.random.default_rng(55)
        for _ in range(50):
            c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            c /= np.linalg.norm(c)
            assert localized_overlap(z0, B, R, c) <= bound * (1.0 + 1e-12)

    def test_near_equality_on_aligned_vector(self):
        # the aligned coefficients are the maximizer, where the overlap meets the bound to rounding (2.2e-16):
        # a 1e-9 fault in either fails at rel=1e-13, the budget of verify's leakage_inequality
        B, R = 1.25, 0.6
        z0 = 0.5 + 0.3j
        bound = leakage_bound(z0, B, R)
        p = abs(z0) ** 2
        j = np.arange(60)
        weights = np.array([photon_weight(int(i), B) for i in j])
        lam = np.array([disk_eigenvalue(int(i), B, R) for i in j])
        aligned = lam * np.sqrt(weights * p ** j)
        aligned = aligned / np.linalg.norm(aligned) * np.exp(1j * np.angle(z0) * j)
        got = localized_overlap(z0, B, R, aligned.astype(complex))
        assert got == pytest.approx(bound, rel=1e-13, abs=0.0)


# (symbol, B, disk rule (radii, angles), number of indices)
BLOCK_CASES = [
    (lambda z: 1.0, 1.5, (48, 64), 13),
    (lambda z: 1.0 / (1.0 + abs(z) ** 2), 1.25, (48, 48), 9),
    (lambda z: z, 1.5, (32, 48), 6),
    (lambda z: np.exp(1j * z.real) * (1.0 + z * z), 0.8, (24, 30), 8),
    (lambda z: np.cos(3.0 * z.imag), 1.5, (64, 128), 12),
]


class TestMatrixElements:
    def test_radial_symbol_diagonal(self):
        B = 1.25
        grid = disk_grid(48, 48, B)
        symbol = lambda z: 1.0 / (1.0 + abs(z) ** 2)
        radial = lambda rho: 1.0 / (1.0 + rho)
        block = quantization_matrix_element(symbol, range(9), range(9), B, grid)
        diagonal = np.diagonal(block)
        assert diagonal.real == pytest.approx(radial_eigenvalue(radial, range(9), B), abs=1e-13)
        assert np.max(np.abs(diagonal.imag)) <= 1e-13
        assert np.max(np.abs(block - np.diag(diagonal))) <= 1e-13

    @pytest.mark.parametrize("B", [600.0, 5000.0])
    def test_constant_symbol_is_the_identity_at_large_strength(self, B):
        # on a 64 x 128 rule; reads 6.2e-15 and 6.7e-15
        block = quantization_matrix_element(lambda z: np.ones(z.shape), range(8), range(8), B, disk_grid(64, 128, B))
        assert np.max(np.abs(block - np.eye(8))) <= 1e-12

    @pytest.mark.parametrize("symbol, B, rule, n", BLOCK_CASES)
    def test_block_matches_the_pointwise_formula(self, symbol, B, rule, n):
        grid = disk_grid(*rule, B)
        block = quantization_matrix_element(symbol, range(n), range(n), B, grid)
        want = np.array([[oracles.quantization_matrix_element_pointwise(symbol, j, k, B, grid, states)
                          for k in range(n)] for j in range(n)])
        assert block.shape == (n, n)
        assert np.max(np.abs(block - want)) <= 1e-15 * np.max(np.abs(want))

    def test_block_entries_are_their_own_calls(self):
        B, grid = 0.8, disk_grid(24, 30, 0.8)
        symbol = BLOCK_CASES[3][0]
        rows, cols = range(2, 7), range(5, -1, -2)
        block = quantization_matrix_element(symbol, rows, cols, B, grid)
        assert block.shape == (5, 3)
        assert np.array_equal(block, [[quantization_matrix_element(symbol, j, k, B, grid) for k in cols] for j in rows])
        assert np.array_equal(quantization_matrix_element(symbol, 4, cols, B, grid), block[2])
        assert np.array_equal(quantization_matrix_element(symbol, rows, 3, B, grid), block[:, 1])
        assert isinstance(quantization_matrix_element(symbol, 4, 3, B, grid), np.complex128)
        assert quantization_matrix_element(symbol, range(0), cols, B, grid).shape == (0, 3)

    def test_block_repeats_bit_for_bit(self):
        # each entry is a sum over the node axis in a fixed order, so neither other allocations nor the
        # addresses of the grid's arrays move its last bits, as they can a BLAS product's
        symbol, B, rule, n = BLOCK_CASES[1]
        grid = disk_grid(*rule, B)
        first = quantization_matrix_element(symbol, range(n), range(n), B, grid)
        held = [np.full(size, 0.5 + 0.5j) for size in (1, 3, 17, 129, 4099)]
        again = quantization_matrix_element(symbol, range(n), range(n), B, grid)
        # the same grid at addresses one element off
        nodes, weights = np.empty(grid.nodes.size + 1, complex)[1:], np.empty(grid.weights.size + 1)[1:]
        nodes[:], weights[:] = grid.nodes, grid.weights
        moved = quantization_matrix_element(symbol, range(n), range(n), B, quadrature.QuadratureGrid(nodes, weights))
        assert first.tobytes() == again.tobytes() == moved.tobytes()

    def test_block_holds_its_right_hand_rows_and_one_row(self):
        # a basis table, its indexed and conjugate copies and a whole row of products peaked at 2.66 MB
        import tracemalloc

        B = 1.5
        grid = disk_grid(48, 64, B)
        quantization_matrix_element(lambda z: 1.0, 0, 0, B, grid)
        tracemalloc.start()
        try:
            block = quantization_matrix_element(lambda z: 1.0, range(13), range(13), B, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.shape == (13, 13) and peak < 1.0e6, peak

    def test_symbol_evaluated_once_on_the_nodes(self):
        B, grid, calls = 1.5, disk_grid(16, 24, 1.5), []

        def constant(z):
            calls.append(z)
            return 1.0

        for j, k in ((2, 2), (2, 3)):
            got = quantization_matrix_element(constant, j, k, B, grid)
            assert abs(got - (j == k)) <= 1e-13
        block = quantization_matrix_element(constant, range(6), range(6), B, grid)
        assert np.max(np.abs(block - np.eye(6))) <= 1e-13
        assert [z.shape for z in calls] == [grid.nodes.shape] * 3

    def test_angular_symbol_couples_modes(self):
        B = 1.5
        grid = disk_grid(32, 48, B)
        symbol = lambda z: z  # shifts the mode index by one
        off = quantization_matrix_element(symbol, 1, 0, B, grid)
        assert abs(off) > 1e-3
        diag = quantization_matrix_element(symbol, 1, 1, B, grid)
        assert abs(diag) <= 1e-12
