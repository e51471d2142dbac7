import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from nbsloc import states, verify
from nbsloc.bergman import BergmanFunction, kernel_closed, kernel_limit, transferred_apply
from nbsloc.errors import DomainError
from nbsloc.locop import (as_function_of_hamiltonian, beta_density, disk_eigenvalue,
                          landau_density, landau_eigenvalue, mc_eigenvalue, quantization_matrix_element,
                          radial_eigenvalue)
from nbsloc.specfun import jacobi, laguerre, sample_beta
from nbsloc.quadrature import half_line_grid, radial_jacobi_grid
from nbsloc.states import (
    LocalizationRadius,
    ModelParams,
    affine_coherent_state,
    as_disk,
    as_halfplane,
    basis_norms,
    basis_series,
    bergman_basis,
    cayley_inverse,
    disk_kernel,
    halfplane_kernel,
    laguerre_function,
    max_landau_index,
    nb_pmf,
    nbs_expansion,
    nbs_wavefunction,
    photon_weight,
    principal_power,
)

disk_points = st.complex_numbers(max_magnitude=0.85, allow_nan=False, allow_infinity=False)

# every entry point that takes an index or a sample size, called with it
INDEX_CALLS = {
    "laguerre": lambda j: laguerre(j, 0.5, 1.0),
    "jacobi": lambda j: jacobi(j, 0.5, 0.5, 0.3),
    "ModelParams": lambda j: ModelParams(4.5, j),
    "photon_weight": lambda j: photon_weight(j, 1.5),
    "bergman_basis": lambda j: bergman_basis(j, 1.5, 0.3),
    "laguerre_function": lambda j: laguerre_function(j, 1.5, 1.0),
    "nbs_expansion": lambda j: nbs_expansion(0.3, 1.5, 1.0, j),
    "nb_pmf": lambda j: nb_pmf(j, 1.5, 0.4),
    "disk_eigenvalue": lambda j: disk_eigenvalue(j, 1.5, 0.6),
    "radial_eigenvalue": lambda j: radial_eigenvalue(lambda rho: rho, j, 1.5),
    "as_function_of_hamiltonian": lambda j: as_function_of_hamiltonian(j + 1, 1.5, 0.6),
    "beta_density": lambda j: beta_density(j, 1.5, 0.3),
    "landau_density": lambda j: landau_density(j, ModelParams(2.5, 1), 0.3),
    "landau_eigenvalue": lambda j: landau_eigenvalue(j, ModelParams(2.5, 1), 0.6),
    "landau_eigenvalue_lowest_level": lambda j: landau_eigenvalue(j, ModelParams(1.5), 0.6),
    "mc_eigenvalue": lambda j: mc_eigenvalue(j, 1.5, 0.6, 1000, 1),
    "mc_eigenvalue_n_samples": lambda n: mc_eigenvalue(0, 1.5, 0.6, 147 + n, 1),
    "sample_beta": lambda n: sample_beta(1.0, 2.0, 997 + n, 1),
    "quantization_matrix_element_j": lambda j: quantization_matrix_element(lambda z: 1.0, j, 0, 1.5),
    "quantization_matrix_element_k": lambda j: quantization_matrix_element(lambda z: 1.0, 0, j, 1.5),
    "project": lambda j: BergmanFunction(1.5, evaluator=lambda z: 1.0 + z).project(j).coefficients,
}
# the INDEX_CALLS entries that also take a range of indices: an array with an entry per index
RANGE_INDEX_CALLS = ("laguerre", "bergman_basis", "laguerre_function", "radial_eigenvalue", "landau_density",
                     "landau_eigenvalue", "landau_eigenvalue_lowest_level", "quantization_matrix_element_j",
                     "quantization_matrix_element_k")


class TestDomainTypes:
    def test_model_params(self):
        ModelParams(1.5, 0)
        ModelParams(1.6, 1)
        ModelParams(0.51, 0)
        with pytest.raises(DomainError):
            ModelParams(0.5, 0)
        for B, m in ((1.5, 1), (1.5, 2), (2.5, 2)):  # m >= B - 1/2; at equality the level weight degenerates
            with pytest.raises(DomainError) as err:
                ModelParams(B, m)
            assert "m < B - 1/2" in str(err.value)
        with pytest.raises(DomainError):
            ModelParams(2.0, -1)

    def test_infinite_strength_rejected(self):
        # math.floor(inf) in the level check raised OverflowError before
        for B in (math.inf, math.nan):
            with pytest.raises(DomainError, match="2B > 1"):
                ModelParams(B)

    @pytest.mark.parametrize("B", [math.inf, math.nan, 0.4])
    def test_strength_rule_everywhere(self, B):
        # each of these returned a value (0.0, 0j, nan or a negative density) or a bare ValueError
        calls = [
            lambda: laguerre_function(0, B, 1.0),
            lambda: affine_coherent_state(0.1, 1.0, B, 1.0),
            lambda: nbs_wavefunction(0.3, B, 1.0),
            lambda: bergman_basis(1, B, 0.3),
            lambda: basis_series([1.0], B, 0.3),
            lambda: photon_weight(1, B),
            lambda: nb_pmf(1, B, 0.3),
            lambda: beta_density(1, B, 0.3),
            lambda: BergmanFunction(B, [1.0])(0.3),
            lambda: halfplane_kernel(1j, 2j, B),
            lambda: kernel_limit(0.3, 0.2, B),
            lambda: kernel_closed(0.3, 0.2, B, 0.5),
            lambda: ModelParams(B),
            lambda: transferred_apply(BergmanFunction(1.5, [1.0]), 0.3, B, 0.6),  # before the F.B comparison
            lambda: radial_eigenvalue(lambda rho: rho, 0, B),
            lambda: radial_jacobi_grid(4, B),
            lambda: half_line_grid(4, B),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="2B > 1"):
                call()

    @pytest.mark.parametrize("name", list(INDEX_CALLS))
    def test_index_rule_everywhere(self, name):
        # 1.5 gave a value (disk_eigenvalue, as_function_of_hamiltonian, radial_eigenvalue, mc_eigenvalue)
        call = INDEX_CALLS[name]
        with pytest.raises(DomainError, match=">= 0"):
            call(1.5)
        assert call(np.int64(3)) == pytest.approx(call(3), rel=0, abs=0)

    @pytest.mark.parametrize("name", RANGE_INDEX_CALLS)
    def test_index_rule_for_every_index_of_a_range(self, name):
        call = INDEX_CALLS[name]
        for indices in (range(-1, 3), range(2, -2, -1)):
            with pytest.raises(DomainError, match=">= 0"):
                call(indices)
        empty = call(range(0))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        indices = range(5, 0, -2)
        assert np.array_equal(call(indices), [call(j) for j in indices])

    def test_point_types(self):
        assert as_disk(0.5 + 0.2j) == 0.5 + 0.2j and type(as_disk(np.float64(0.5))) is complex
        with pytest.raises(DomainError, match=r"disk point needs \|z\| < 1, got \|z\|=1.0"):
            as_disk(1.0 + 0.0j)
        assert as_halfplane(0.3 + 1.0j) == 0.3 + 1.0j
        with pytest.raises(DomainError, match="half-plane point needs Im w > 0"):
            as_halfplane(0.3 - 1.0j)
        LocalizationRadius(0.6)
        for bad in (0.0, 1.0, 1.4):
            with pytest.raises(DomainError):
                LocalizationRadius(bad)

    def test_max_landau_index(self):
        assert max_landau_index(1.5) == 0
        assert max_landau_index(1.6) == 1
        assert max_landau_index(0.51) == 0
        assert max_landau_index(0.9) == 0
        assert max_landau_index(3.2) == 2


class TestAffineState:
    def test_direct_substitution(self):
        got = affine_coherent_state(0.0, 1.0, 1.0, 2.0)
        assert got == pytest.approx(math.sqrt(2.0) * math.exp(-1.0), abs=1e-12)

    @given(
        x=st.floats(-5.0, 5.0),
        y=st.floats(0.1, 4.0),
        B=st.floats(0.6, 3.0),
        xi=st.floats(0.05, 6.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_modulus_independent_of_x(self, x, y, B, xi):
        with_phase = abs(affine_coherent_state(x, y, B, xi))
        without = abs(affine_coherent_state(0.0, y, B, xi))
        assert with_phase == pytest.approx(without, rel=1e-12)

    def test_group_action_rescales_fiducial(self):
        # at x = 0 the label only rescales the argument of the fiducial vector
        B = 1.3
        for y in (0.5, 2.0):
            for xi in (0.7, 1.9):
                assert affine_coherent_state(0.0, y, B, xi / y) == pytest.approx(
                    affine_coherent_state(0.0, 1.0, B, xi), rel=1e-12
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            affine_coherent_state(0.0, -1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            affine_coherent_state(0.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            affine_coherent_state(0.0, 1.0, 0.4, 1.0)


class TestCayley:
    def test_center(self):
        assert cayley_inverse(0.0 + 0.0j) == pytest.approx((0.0, 1.0))

    def test_derived_point(self):
        # |1 - i/2|^2 = 5/4
        x, y = cayley_inverse(0.5j)
        assert x == pytest.approx(-0.8, abs=1e-14)
        assert y == pytest.approx(0.6, abs=1e-14)

    def test_boundary_degeneration(self):
        _, y = cayley_inverse((1.0 - 1e-9) * cmath.exp(0.7j))
        assert 0.0 < y < 1e-8

    @given(z=disk_points)
    @settings(max_examples=150, deadline=None)
    def test_image_in_half_plane(self, z):
        _, y = cayley_inverse(z)
        assert y > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            cayley_inverse(1.0 + 0.0j)


class TestNbsWavefunction:
    def test_center_equals_ground_laguerre(self):
        B = 1.25
        for xi in (0.3, 1.1, 2.4):
            want = math.sqrt(2.0 / math.gamma(2.0 * B)) * xi ** (2.0 * B - 0.5) * math.exp(-xi * xi / 2.0)
            assert nbs_wavefunction(0.0j, B, xi) == pytest.approx(want, rel=1e-13)
            assert laguerre_function(0, B, xi) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("z, B, xi, want", [
        (0.1, 90.0, 13.0, 0.37157295788394774),  # Gamma(180) and 13^179.5 overflow
        (0.9, 400.0, 4.6, 1.7098890489673593e-33),  # and so does base^B = 19^400
    ])
    def test_large_strength_formed_in_logs(self, z, B, xi, want):
        # want: the same closed form in 40-digit mpmath at the same double inputs
        assert nbs_wavefunction(z, B, xi) == pytest.approx(want, rel=1e-11)

    def test_unit_norm(self):
        # |v_z|^2 is xi^(4B-1) exp(-Re c xi^2) times a constant, c = (1 + z)/(1 - z): exact on the rule scaled by Re c
        B = 1.25
        z = 0.3 + 0.4j
        root = math.sqrt(((1.0 + z) / (1.0 - z)).real)
        grid = half_line_grid(4, B)
        values = np.asarray([nbs_wavefunction(z, B, xi / root) for xi in grid.nodes])
        assert grid.integrate(np.abs(values) ** 2) / root == pytest.approx(1.0, abs=1e-14)

    def test_two_path_construction(self):
        # group route: modified affine state at the Cayley preimage; agrees with
        # the closed form after the unit-normalization constant sqrt(2B/Gamma(2B))
        rng = np.random.default_rng(31)
        for _ in range(10):
            z = complex(*rng.uniform(-0.5, 0.5, 2))
            B = rng.uniform(0.7, 2.5)
            xi = rng.uniform(0.2, 2.5)
            x, y = cayley_inverse(z)
            prefactor = ((1.0 - z.conjugate()) / (1.0 - z)) ** B
            normalize = math.sqrt(2.0 * B / math.gamma(2.0 * B))
            via_group = (
                normalize * math.sqrt(2.0 / xi) * prefactor
                * affine_coherent_state(x, y, B, xi * xi)
            )
            assert via_group == pytest.approx(nbs_wavefunction(z, B, xi), rel=1e-11)

    def test_overlap_closed_form(self):
        # the rule scaled by the real part of the product's Gaussian exponent (conj(c_z) + c_w) / 2
        B = 1.1
        rng = np.random.default_rng(32)
        grid = half_line_grid(100, B)
        for _ in range(4):
            z = complex(*rng.uniform(-0.55, 0.55, 2))
            w = complex(*rng.uniform(-0.55, 0.55, 2))
            root = math.sqrt(0.5 * (((1.0 + z) / (1.0 - z)).real + ((1.0 + w) / (1.0 - w)).real))
            vz = np.asarray([nbs_wavefunction(z, B, xi / root) for xi in grid.nodes])
            vw = np.asarray([nbs_wavefunction(w, B, xi / root) for xi in grid.nodes])
            got = grid.integrate(np.conjugate(vz) * vw) / root
            want = ((1.0 - abs(z) ** 2) * (1.0 - abs(w) ** 2)) ** B \
                * principal_power(1.0 - z.conjugate() * w, -2.0 * B)
            assert got == pytest.approx(want, abs=1e-10)

    def test_infinite_point_rejected(self):
        # inf passed the xi > 0 check and came back as nan+nanj
        with pytest.raises(DomainError):
            nbs_wavefunction(0.3, 1.2, math.inf)
        with pytest.raises(DomainError):
            nbs_wavefunction(0.3, 1.2, np.array([1.0, math.inf]))
        with pytest.raises(DomainError):
            nbs_expansion(0.3, 1.2, math.inf, 5)

    @pytest.mark.parametrize("z", [0.3, 1.0 - 2.0 ** -53, -1.0 + 2.0 ** -53, 0.6 - 0.79j])
    @pytest.mark.parametrize("xi", [1e141, 1e155, 1e200, sys.float_info.max])
    def test_point_whose_square_overflows_gives_zero(self, z, xi):
        # ((1 + z)/(1 - z)) xi^2 overflowed with a RuntimeWarning; exp of its real part underflows
        assert nbs_wavefunction(z, 1.2, xi) == 0.0
        got = nbs_wavefunction(z, 1.2, np.array([0.5, xi]))
        assert got[0] == nbs_wavefunction(z, 1.2, 0.5) and got[1] == 0.0


class TestBergmanBasis:
    def test_constant_element(self):
        assert bergman_basis(0, 1.5, 0.4 + 0.1j) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_first_element(self):
        got = bergman_basis(1, 1.0, 0.5 + 0.0j)
        assert got == pytest.approx(math.sqrt(2.0) * 0.5, rel=1e-13)

    def test_diagonal_sum_binomial(self):
        B, z = 1.5, 0.6
        total = sum(abs(bergman_basis(j, B, z)) ** 2 for j in range(130))
        want = (2.0 * B - 1.0) * (1.0 - z * z) ** (-2.0 * B)
        assert total == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("B", [0.51, 1.5, 20.0])
    @pytest.mark.parametrize("indices", [range(0, 13), range(40, 3, -9), range(290, 300)])
    def test_range_rows_equal_their_index_calls(self, indices, B):
        # one norm table up to the largest index; its prefix is each shorter table bit for bit
        z = np.array([[0.3 + 0.4j, -0.95j], [0.0, 0.7 - 0.1j]])
        rows = bergman_basis(indices, B, z)
        assert rows.shape == (len(indices), 2, 2)
        assert np.array_equal(rows, np.stack([bergman_basis(j, B, z) for j in indices]))
        assert np.array_equal(bergman_basis(indices, B, 0.3 + 0.4j), [bergman_basis(j, B, 0.3 + 0.4j) for j in indices])


class TestBasisNorms:
    def test_repeated_call_shares_a_read_only_array(self):
        first = basis_norms(12, 1.5)
        assert basis_norms(12, 1.5) is first
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_cached_norms_equal_fresh_builds_and_exact_weights(self):
        for n, B in ((1, 0.51), (12, 1.5), (300, 20.0)):
            assert np.array_equal(basis_norms(n, B), basis_norms.__wrapped__(n, B))
        want = oracles.nb_weights_exact(40, 3.0)
        got = basis_norms(41, 1.5)
        assert np.max(np.abs(got ** 2 / (2.0 * np.asarray(want)) - 1.0)) <= 1e-14

    def test_invalid_strength_raises_every_time(self):
        before = basis_norms.cache_info().currsize
        for _ in range(2):
            for B in (0.5, math.inf, math.nan):
                with pytest.raises(DomainError):
                    basis_norms(4, B)
        assert basis_norms.cache_info().currsize == before

    def test_cache_is_bounded(self):
        assert basis_norms.cache_info().maxsize == states.NORMS_CACHE_SIZE  # None if unbounded


class TestLaguerreFunction:
    def test_orthonormal_small(self):
        for B in (0.8, 1.5, 3.0):
            grid = half_line_grid(9, B)  # exact: phi_j phi_k, j, k <= 8, has degree 16 in xi^2
            table = np.stack([laguerre_function(j, B, grid.nodes) for j in range(9)])
            gram = (table * grid.weights) @ table.T
            assert np.max(np.abs(gram - np.eye(9))) <= 1e-13

    def test_positive_near_origin(self):
        for j in range(6):
            assert laguerre_function(j, 1.2, 1e-3) > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            laguerre_function(0, 1.2, 0.0)
        with pytest.raises(DomainError):
            laguerre_function(-1, 1.2, 1.0)

    def test_nan_point_rejected(self):
        # nan passed the xi > 0 check and came back as nan
        with pytest.raises(DomainError):
            laguerre_function(3, 1.2, np.array([1.0, math.nan]))

    def test_infinite_point_rejected(self):
        # inf passed the xi > 0 check and came back as nan
        for xi in (math.inf, np.array([1.0, math.inf])):
            with pytest.raises(DomainError):
                laguerre_function(3, 1.2, xi)

    @pytest.mark.parametrize("xi", [1e155, 1e200, sys.float_info.max])
    def test_point_whose_square_overflows_gives_zero(self, xi):
        # xi^2 = inf made the recurrence inf - inf: nan with a RuntimeWarning; exp(-xi^2/2) underflows
        assert laguerre_function(3, 1.2, xi) == 0.0
        got = laguerre_function(3, 1.2, np.array([2.0, xi]))
        assert got[0] == laguerre_function(3, 1.2, 2.0) and got[1] == 0.0
        assert np.all(laguerre_function(range(5), 1.2, np.array([xi, 1.0]))[:, 0] == 0.0)

    @pytest.mark.parametrize("j, B, xi", [(500, 20.0, 41.0463), (1000, 50.0, 58.3267), (2000, 50.0, 81.4985)])
    def test_large_index_and_strength_match_mpmath(self, j, B, xi):
        # the norm and exp(-xi^2/2) were formed apart: nan here, and a norm of 0 at B = 50, j = 2000
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(80):
            b, x = mpmath.mpf(B), mpmath.mpf(xi)
            want = float(mpmath.sqrt(2 * mpmath.factorial(j) / mpmath.gamma(2 * b + j))
                         * x ** (2 * b - mpmath.mpf(0.5)) * mpmath.exp(-x * x / 2)
                         * mpmath.laguerre(j, 2 * b - 1, x * x))
        assert laguerre_function(j, B, xi) == pytest.approx(want, abs=1e-12)
        assert laguerre_function(j, B, np.array([xi, 1.0]))[0] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("B", [0.51, 0.8, 3.0, 20.0])
    def test_small_points_meet_the_stated_tolerance(self, B):
        # the docstring's 1e-11 absolute for j <= 2000, B <= 50; small xi at large j loses the most
        # relative accuracy (5.7e-12 absolute, 2.9e-10 relative at j = 2000, B = 3, xi = 0.1)
        mpmath = pytest.importorskip("mpmath")
        xi = np.array([0.05, 0.1, 0.5, 1.0])
        for j in (500, 1000, 2000):
            with mpmath.workdps(40):
                b = mpmath.mpf(B)
                norm = mpmath.sqrt(2 * mpmath.factorial(j) / mpmath.gamma(2 * b + j))
                want = [float(norm * x ** (2 * b - mpmath.mpf(0.5)) * mpmath.exp(-x * x / 2)
                              * mpmath.laguerre(j, 2 * b - 1, x * x)) for x in map(mpmath.mpf, xi)]
            assert np.max(np.abs(laguerre_function(j, B, xi) - want)) <= 1e-11

    def test_point_values_do_not_depend_on_the_other_points(self):
        xi = np.linspace(0.05, 90.0, 101)
        for j, B in ((2000, 50.0), (300, 0.51)):
            whole = laguerre_function(j, B, xi)
            parts = np.concatenate([laguerre_function(j, B, xi[i:i + 4]) for i in range(0, xi.size, 4)])
            assert np.array_equal(whole, parts)

    @pytest.mark.parametrize("B", [0.51, 1.5, 50.0])
    @pytest.mark.parametrize("indices", [range(0, 21), range(5, 40, 3), range(1990, 2001)])
    def test_range_rows_equal_their_index_calls(self, indices, B):
        # one pass up to max(indices); at j ~ 2000 it rescales by powers of two on the way
        xi = np.linspace(0.05, 90.0, 37)
        rows = laguerre_function(indices, B, xi)
        assert np.array_equal(rows, np.stack([laguerre_function(j, B, xi) for j in indices]))

    def test_range_at_a_number_gives_one_value_per_index(self):
        rows = laguerre_function(range(2, 9, 2), 1.5, 1.3)
        assert rows.shape == (4,)
        for row, j in zip(rows, range(2, 9, 2)):
            assert row == pytest.approx(laguerre_function(j, 1.5, 1.3), rel=1e-14)

    def test_empty_range(self):
        assert laguerre_function(range(0), 1.5, np.ones((2, 3))).shape == (0, 2, 3)
        assert laguerre_function(range(4, 4), 1.5, 1.0).shape == (0,)

    def test_range_checks_each_index(self):
        assert laguerre_function(range(0, 3), 1.5, 1.0).shape == (3,)
        with pytest.raises(DomainError):
            laguerre_function(range(-1, 3), 1.5, 1.0)

    def test_tables_take_one_call(self, monkeypatch):
        calls = []
        exact = states.laguerre_function  # the name nbs_expansion and verify read
        monkeypatch.setattr(states, "laguerre_function", lambda j, B, xi: calls.append(j) or exact(j, B, xi))
        nbs_expansion(0.5, 1.25, 1.7, 40)
        assert calls == [range(41)]
        calls.clear()
        assert verify.run_check("laguerre_orthonormality").passed
        assert calls == [range(21)] * 3  # one table per strength


class TestNbsExpansion:
    def test_center_any_truncation(self):
        B, xi = 1.4, 0.9
        for J in (0, 3, 15):
            assert nbs_expansion(0.0j, B, xi, J) == pytest.approx(
                laguerre_function(0, B, xi), rel=1e-13
            )

    def test_converges_to_closed_form(self):
        z, B, xi = 0.5, 1.25, 1.7
        closed = nbs_wavefunction(z, B, xi)
        assert abs(nbs_expansion(z, B, xi, 80) - closed) <= 1e-8

    def test_uniform_convergence_on_window(self):
        z, B = 0.4 + 0.3j, 1.25
        worst = max(
            abs(nbs_expansion(z, B, xi, 90) - nbs_wavefunction(z, B, xi))
            for xi in np.linspace(0.2, 5.0, 25)
        )
        assert worst <= 1e-8

    def test_geometric_tail(self):
        z, B, xi = 0.5, 1.25, 1.7
        closed = nbs_wavefunction(z, B, xi)
        errs = [abs(nbs_expansion(z, B, xi, J) - closed) for J in range(20, 41, 5)]
        assert all(b < a for a, b in zip(errs, errs[1:]))


class TestHalfPlaneKernel:
    def test_diagonal(self):
        assert halfplane_kernel(1.0 + 2.0j, 1.0 + 2.0j, 1.3) == pytest.approx(1.0, abs=1e-14)

    @given(
        wr=st.floats(-3.0, 3.0), wi=st.floats(0.05, 3.0),
        zr=st.floats(-3.0, 3.0), zi=st.floats(0.05, 3.0),
        B=st.floats(0.6, 3.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_hermitian_and_bounded(self, wr, wi, zr, zi, B):
        w = complex(wr, wi)
        zeta = complex(zr, zi)
        k = halfplane_kernel(w, zeta, B)
        assert k == pytest.approx(halfplane_kernel(zeta, w, B).conjugate(), rel=1e-10, abs=1e-12)
        assert abs(k) <= 1.0 + 1e-12
        if abs(w - zeta) > 1e-6:  # strict deficit must be representable
            assert abs(k) < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            halfplane_kernel(1.0 - 0.1j, 1.0 + 1.0j, 1.0)


class TestDiskKernel:
    def test_lowest_level_form(self):
        B = 1.5
        params = ModelParams(B, 0)
        z, w = 0.3 + 0.2j, -0.1 + 0.4j
        want = math.pi * (2.0 * B - 1.0) * (1.0 - z * w.conjugate()) ** (-2.0 * B)
        assert disk_kernel(z, w, params) == pytest.approx(want, rel=1e-13)

    def test_hermitian(self):
        params = ModelParams(2.5, 1)
        rng = np.random.default_rng(33)
        for _ in range(10):
            z = complex(*rng.uniform(-0.6, 0.6, 2))
            w = complex(*rng.uniform(-0.6, 0.6, 2))
            assert disk_kernel(z, w, params) == pytest.approx(
                disk_kernel(w, z, params).conjugate(), rel=1e-12
            )

    def test_center_value_first_level(self):
        params = ModelParams(2.0, 1)
        got = disk_kernel(0.0j, 0.0j, params)
        assert got == pytest.approx(math.pi, rel=1e-13)


class TestNbPmf:
    def test_zero_count(self):
        assert nb_pmf(0, 1.5, 0.3) == pytest.approx(0.7 ** 3.0, rel=1e-14)

    def test_normalization(self):
        total = sum(nb_pmf(j, 1.5, 0.4) for j in range(300))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mean_identity(self):
        B, p = 1.25, 0.3
        mean = sum(j * nb_pmf(j, B, p) for j in range(400))
        assert mean == pytest.approx(2.0 * B * p / (1.0 - p), abs=1e-10)

    def test_against_product_oracle(self):
        for j in (0, 1, 7, 23):
            assert nb_pmf(j, 1.3, 0.45) == pytest.approx(
                oracles.nb_pmf_direct(j, 1.3, 0.45), rel=1e-12
            )

    def test_large_strength_formed_in_logs(self):
        # the weight Gamma(2B+j)/(j! Gamma(2B)) alone overflows here (about 1e500)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            b, p = mpmath.mpf(400), mpmath.mpf(0.9)
            want = float(mpmath.binomial(b + 2999, 3000) * p ** 3000 * (1 - p) ** b)
        assert nb_pmf(3000, 200.0, 0.9) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            nb_pmf(0, 1.5, 1.0)
        with pytest.raises(DomainError):
            nb_pmf(-1, 1.5, 0.2)


class TestPhotonWeight:
    def test_large_index_stable(self):
        # stays finite via log-gamma even where Gamma itself overflows
        w = photon_weight(400, 2.0)
        assert math.isfinite(w) and w > 0.0

    @pytest.mark.parametrize("B", [0.51, 1.3, 3.65, 10.1, 50.3, 50.5])
    def test_matches_exact_rationals(self, B):
        want = oracles.nb_weights_exact(2000, 2.0 * B)
        for j in range(0, 2001, 3):
            assert photon_weight(j, B) == pytest.approx(want[j], rel=1.5e-12, abs=0.0)

    def test_principal_power_cut(self):
        with pytest.raises(DomainError):
            principal_power(-1.0, 0.5)


class TestArrayArguments:
    points = np.array([0.0, 0.3 - 0.2j, -0.61 + 0.05j, 0.1 + 0.85j])

    def test_bergman_basis_elementwise(self):
        for j in (0, 1, 6):
            got = bergman_basis(j, 1.25, self.points)
            assert got.shape == self.points.shape
            assert got.tolist() == [bergman_basis(j, 1.25, complex(z)) for z in self.points]
        grid = self.points.reshape(2, 2)
        assert bergman_basis(3, 1.25, grid).shape == (2, 2)

    def test_array_validated_as_a_whole(self):
        assert as_disk(self.points).dtype == complex
        assert np.array_equal(as_disk(self.points), self.points)
        with pytest.raises(DomainError):
            bergman_basis(2, 1.25, np.append(self.points, 1.0))
        assert as_disk(np.zeros(0)).size == 0

    def test_principal_power_elementwise(self):
        bases = 1.0 - 0.9 * self.points
        got = principal_power(bases, -2.5)
        want = [principal_power(complex(b), -2.5) for b in bases]
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        assert type(principal_power(complex(bases[1]), -2.5)) is complex
        with pytest.raises(DomainError):
            principal_power(np.append(bases, -0.5), -2.5)

    def test_disk_kernel_elementwise(self):
        params = ModelParams(2.5, 1)
        w = -0.2 + 0.35j
        got = disk_kernel(self.points, w, params)
        want = [disk_kernel(complex(z), w, params) for z in self.points]
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        assert type(disk_kernel(complex(self.points[1]), w, params)) is complex

    def test_nbs_wavefunction_over_xi_grid(self):
        xi = np.linspace(0.05, 6.0, 25)
        z, B = 0.4 - 0.3j, 1.25
        got = nbs_wavefunction(z, B, xi)
        want = [nbs_wavefunction(z, B, float(x)) for x in xi]
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        with pytest.raises(DomainError):
            nbs_wavefunction(z, B, np.array([1.0, 0.0]))
