import cmath
import math

import numpy as np
import pytest

import oracles
from nbsloc import bergman, locop, quadrature, specfun
from nbsloc.bergman import (
    BergmanFunction,
    bargmann_inverse,
    bargmann_transform,
    kernel_closed,
    kernel_limit,
    kernel_series,
    kernel_series_coefficients,
    transferred_apply,
)
from nbsloc.errors import AccuracyError, ConvergenceError, DomainError
from nbsloc.locop import disk_eigenvalue, spectral_apply
from nbsloc.quadrature import disk_grid, radial_jacobi_grid
from nbsloc.specfun import reg_inc_beta, reg_inc_beta_table
from nbsloc.states import LocalizationRadius, ModelParams, basis_series, bergman_basis, laguerre_function


class TestBergmanFunction:
    def test_requires_some_representation(self):
        with pytest.raises(DomainError):
            BergmanFunction(1.5)

    def test_holds_exactly_one_representation(self):
        # both were accepted, and __call__ silently ignored the evaluator
        with pytest.raises(DomainError, match="either"):
            BergmanFunction(1.5, coefficients=[1.0, 0.5], evaluator=lambda z: 1.0 + 0.5 * z)
        projected = BergmanFunction(1.5, evaluator=lambda z: 1.0 + z).project(3)
        assert projected.evaluator is None and projected.coefficients.shape == (4,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_coefficients_refused(self, bad):
        # evaluating gave nan silently; only transferred_apply's rule comparison used to refuse
        with pytest.raises(DomainError):
            BergmanFunction(1.5, [bad, 1.0])

    @pytest.mark.parametrize("bad", [5.0, [[1.0, 2.0]], np.zeros((2, 0))])
    def test_coefficients_must_be_a_vector(self, bad):
        # a 0-d value or a 2-D array reached the finiteness check and raised TypeError
        with pytest.raises(DomainError, match="1-D"):
            BergmanFunction(1.5, coefficients=bad)

    def test_empty_coefficient_vector_is_the_zero_function(self):
        F = BergmanFunction(1.5, coefficients=[])
        assert F.coefficients.shape == (0,) and F(0.3 + 0.1j) == 0.0

    def test_coefficient_evaluation(self):
        f = BergmanFunction(1.5, coefficients=[1.0, 2.0])
        z = 0.3 + 0.1j
        want = bergman_basis(0, 1.5, z) + 2.0 * bergman_basis(1, 1.5, z)
        assert f(z) == pytest.approx(want, rel=1e-14)
        pts = np.array([0.1 + 0.0j, 0.2 - 0.3j])
        vals = f.values(pts)
        assert vals[1] == pytest.approx(f(pts[1]), rel=1e-14)

    def test_projection_recovers_coefficients(self):
        B = 1.25
        coeffs = np.array([0.5, -1.0 + 0.5j, 0.0, 2.0j])
        reference = BergmanFunction(B, coefficients=coeffs)
        pointwise = BergmanFunction(B, evaluator=reference)
        projected = pointwise.project(5)
        assert np.allclose(projected.coefficients[:4], coeffs, atol=1e-10)
        assert np.allclose(projected.coefficients[4:], 0.0, atol=1e-10)

    @pytest.mark.parametrize("B", [600.0, 5000.0])
    def test_projection_at_large_strength(self, B):
        # reads 3.5e-15 and 1.3e-14
        coeffs = np.array([0.5, -1.0 + 0.5j, 0.25, 2.0j, -0.75])
        projected = BergmanFunction(B, evaluator=BergmanFunction(B, coefficients=coeffs)).project(8).coefficients
        assert np.max(np.abs(projected - np.r_[coeffs, np.zeros(4)])) <= 1e-12

    def test_projection_rejects_negative_index(self):
        # used to return a function with no coefficients
        with pytest.raises(DomainError, match="j_max >= 0"):
            BergmanFunction(1.5, evaluator=lambda z: 1.0 + z).project(-3)

    def test_projection_refines_near_the_rim(self):
        # a rule of 6 radii x 128 angles alone misses these coefficients by 2.2e-7: its angles alias
        B, w0 = 4.5, 0.88j
        F = BergmanFunction(B, evaluator=lambda z: kernel_limit(w0, z, B))
        want = np.conj([bergman_basis(j, B, w0) for j in range(11)])
        assert np.max(np.abs(F.project(10).coefficients - want)) <= 1e-10

    def test_projection_refuses_pole_at_the_rim(self):
        # six radii resolve j <= 10 of a pole at 0.9999; j <= 100 still moves past 4,096 angles
        B, w0 = 1.5, 0.9999
        F = BergmanFunction(B, evaluator=lambda z: kernel_limit(w0, z, B))
        want = np.conj([bergman_basis(j, B, w0) for j in range(11)])
        assert np.max(np.abs(F.project(10).coefficients - want)) <= 1e-12
        with pytest.raises(AccuracyError):
            F.project(100)

    @pytest.mark.parametrize("j_max", [0, 3, 10])
    def test_projection_exact_near_the_rim_at_large_strength(self, j_max):
        # a rule with radii out to r = 0.9996 weighs F's norm on it far above c_0 = 6.245, hiding c_0's error
        B, w0 = 20.0, -0.9666267387823954 + 0.08082541599590305j
        F = BergmanFunction(B, evaluator=lambda z: kernel_limit(w0, z, B))
        want = np.conj([bergman_basis(j, B, w0) for j in range(j_max + 1)])
        got = F.project(j_max).coefficients
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_projection_samples_its_degree_exact_radial_rule(self):
        # c_j has degree j in rho = r^2, so j_max // 2 + 1 Gauss-Jacobi radii are exact for j <= j_max
        B, shapes = 1.5, []

        def recorded(z):
            shapes.append(z.shape)
            return 1.0 / (1.5 - z)

        BergmanFunction(B, evaluator=recorded).project(10)
        assert shapes and all(shape[0] == 6 for shape in shapes)

    def test_projection_samples_each_rule_once(self):
        # each rule's coarser half is its even-indexed angles; F was also sampled on the 128-angle rule
        B, shapes = 1.5, []

        def recorded(z):
            shapes.append(z.shape)
            return 1.0 / (1.5 - z)

        BergmanFunction(B, evaluator=recorded).project(10)
        assert shapes == [(6, 256)]

    @pytest.mark.parametrize("B, tol", [(0.51, 1e-13), (0.75, 1e-13), (1.5, 1e-13), (4.5, 1e-13),
                                        (10.0, 1e-12), (20.0, 1e-12), (40.0, 1e-12), (50.0, 1e-12)])
    def test_projection_round_trips_polynomials(self, B, tol):
        rng = np.random.default_rng(41)
        for deg in range(41):
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            got = BergmanFunction(B, evaluator=BergmanFunction(B, coeffs)).project(deg).coefficients
            assert np.max(np.abs(got - coeffs)) <= tol * np.max(np.abs(coeffs))

    @pytest.mark.xfail(strict=True, reason="project's refinement tolerance scales with F's norm on the rule "
                                            "(1.6e37 here), not with max_j |c_j| (5.5e20); ROADMAP item 3")
    def test_projection_exact_or_refused_at_the_rim_at_large_strength(self):
        B, w0 = 40.0, 0.99 * cmath.exp(0.1j)
        F = BergmanFunction(B, evaluator=lambda z: kernel_limit(w0, z, B))
        want = np.conj([bergman_basis(j, B, w0) for j in range(61)])
        try:
            got = F.project(60).coefficients
        except AccuracyError:
            return
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_scalar_evaluator_is_broadcast(self):
        B, calls = 1.5, []

        def constant(z):
            calls.append(z)
            return 2.0 - 1.0j

        F = BergmanFunction(B, evaluator=constant)
        points = np.array([[0.1, 0.2j, -0.3], [0.5 + 0.1j, 0.0, -0.4j]])
        vals = F.values(points)
        assert len(calls) == 1 and calls[0].shape == points.shape
        assert vals.shape == points.shape and vals.dtype == complex
        assert np.all(vals == 2.0 - 1.0j)
        want = np.zeros(4, dtype=complex)
        want[0] = (2.0 - 1.0j) / math.sqrt(2.0 * B - 1.0)  # constant = c_0 e_0 with e_0 = sqrt(2B-1)
        assert np.allclose(F.project(3).coefficients, want, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("B, w0, j_max", [
        (1.5, 0.5 + 0.2j, 10),
        (4.5, 0.88j, 10),  # settles on the 512-angle rule
        (0.75, -0.3 + 0.0j, 3),
        (20.0, -0.9666267387823954 + 0.08082541599590305j, 10),
        (1.25, 0.4 - 0.1j, 140),  # more coefficients than the first rule's coarse half of 128 angles: aliased bins
        (1.5, 0.9999 + 0.0j, 100),  # refused
    ])
    def test_projection_is_the_all_bins_formula(self, B, w0, j_max):
        # project reads only bins j <= j_max and F's norm from its samples; the coefficients stay bit for bit
        F = BergmanFunction(B, evaluator=lambda z: kernel_limit(w0, z, B))
        want = oracles.project_all_bins(F, j_max, bergman, quadrature)
        if want is None:
            with pytest.raises(AccuracyError):
                F.project(j_max)
        else:
            assert np.array_equal(F.project(j_max).coefficients, want)

    def test_angular_coefficients_match_direct_sum(self):
        # odd n_theta, and bins past n_theta read aliased, sign-flipped FFT entries
        from nbsloc.bergman import _angular_coefficients

        B, n_r, n_theta, n_k = 1.5, 5, 7, 30
        F = BergmanFunction(B, evaluator=lambda z: 1.0 / (1.3 - z) + z.conjugate() ** 2)
        r = np.sqrt(radial_jacobi_grid(n_r, B).nodes)
        theta = 2.0 * np.pi * (np.arange(n_theta) + 0.5) / n_theta
        a = _angular_coefficients(F.values(r[:, None] * np.exp(1j * theta)), n_k)
        for i in range(n_r):
            values = F.values(r[i] * np.exp(1j * theta))
            for k in range(n_k):
                want = np.mean(np.exp(-1j * k * theta) * values)
                assert abs(a[i, k] - want) <= 1e-14 * np.max(np.abs(values))


class TestBargmannTransform:
    def test_basis_correspondence(self):
        B = 1.25
        z = 0.4 - 0.2j
        for k in range(5):
            coeffs = np.zeros(k + 1)
            coeffs[k] = 1.0
            assert bargmann_transform(coeffs, z, B) == pytest.approx(
                bergman_basis(k, B, z), rel=1e-14
            )

    def test_zero(self):
        assert bargmann_transform(np.zeros(3), 0.2j, 1.5) == 0.0

    def test_inverse_basis_correspondence(self):
        B = 1.25
        for k in (0, 2):
            coeffs = np.zeros(k + 1)
            coeffs[k] = 1.0
            F = BergmanFunction(B, coefficients=coeffs)
            for xi in (0.4, 1.3):
                assert bargmann_inverse(F, xi) == pytest.approx(
                    laguerre_function(k, B, xi), rel=1e-13
                )

    def test_round_trip_exact(self):
        B = 1.5
        rng = np.random.default_rng(9)
        coeffs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        # transform then re-project is identity on coefficients by construction;
        # check the value route instead at a handful of points
        F = BergmanFunction(B, coefficients=coeffs)
        projected = BergmanFunction(B, evaluator=F).project(7)
        assert np.allclose(projected.coefficients, coeffs, atol=1e-9)

    def test_inverse_is_one_laguerre_table(self, monkeypatch):
        calls = []
        exact = bergman.laguerre_function
        monkeypatch.setattr(bergman, "laguerre_function", lambda j, B, xi: calls.append(j) or exact(j, B, xi))
        coeffs = np.array([1.0, 0.0, 2.0 - 1.0j, 0.5j])
        got = bargmann_inverse(BergmanFunction(1.25, coefficients=coeffs), 0.9)
        assert calls == [range(4)]
        want = sum(c * exact(j, 1.25, 0.9) for j, c in enumerate(coeffs))
        assert got == pytest.approx(want, rel=1e-14)

    def test_inverse_at_infinity_rejected(self):
        # inf passed the xi > 0 check and came back as nan+nanj
        with pytest.raises(DomainError):
            bargmann_inverse(BergmanFunction(1.2, coefficients=[1.0, 2.0]), math.inf)

    def test_inverse_needs_coefficients(self):
        F = BergmanFunction(1.5, evaluator=lambda z: 1.0 + 0j)
        with pytest.raises(DomainError, match="needs coefficients"):
            bargmann_inverse(F, 1.0)


class TestKernelSeries:
    def test_center_value(self):
        B, s = 1.5, 0.36
        got = kernel_series(0.0j, 0.37 + 0.1j, B, s)
        want = (2.0 * B - 1.0) * (1.0 - (1.0 - s) ** (2.0 * B - 1.0))
        assert got == pytest.approx(want, rel=1e-12)

    def test_hermitian(self):
        B, s = 1.25, 0.49
        z, w = 0.5 + 0.2j, -0.3 + 0.4j
        assert kernel_series(z, w, B, s) == pytest.approx(
            kernel_series(w, z, B, s).conjugate(), rel=1e-12
        )

    def test_series_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 3)
        with pytest.raises(ConvergenceError):
            kernel_series(0.9, 0.9, 1.5, 0.5)

    def test_non_finite_strength_rejected(self):
        with pytest.raises(DomainError):
            kernel_series(0.3, 0.2, math.inf, 0.5)

    def test_empty_array_gives_empty_result(self):
        # as kernel_limit does: no points, no largest |conj(z) w| to cut the series at
        z = np.array([], dtype=complex)
        for args in ((z, 0.3), (0.3, z)):
            got = kernel_series(*args, 1.5, 0.5)
            assert got.shape == (0,) and got.dtype == complex


class TestKernelClosed:
    def test_center_unit_strength(self):
        got = kernel_closed(0.0j, 0.3 + 0.0j, 1.0, 0.25)
        assert got == pytest.approx(0.25, rel=1e-12)

    def test_center_general_strength(self):
        B, s = 1.25, 0.36
        got = kernel_closed(0.0j, 0.2 - 0.4j, B, s)
        want = (2.0 * B - 1.0) * (1.0 - (1.0 - s) ** (2.0 * B - 1.0))
        assert got == pytest.approx(want, rel=1e-10)

    def test_agreement_with_series(self):
        got = kernel_closed(0.5 + 0.0j, 0.3 + 0.4j, 1.25, 0.36)
        want = kernel_series(0.5 + 0.0j, 0.3 + 0.4j, 1.25, 0.36)
        assert abs(got - want) / abs(want) <= 1e-8

    def test_approaches_limit(self):
        B = 1.5
        z, w = 0.5, 0.6  # conj(z) w = 0.3
        lim = kernel_limit(z, w, B)
        gaps = [abs(kernel_closed(z, w, B, s) - lim) / abs(lim) for s in (0.9, 0.99, 0.999)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-2

    def test_domain(self):
        with pytest.raises(DomainError):
            kernel_closed(0.1, 0.1, 1.5, 1.0)


class TestKernelLimit:
    def test_center(self):
        assert kernel_limit(0.0j, 0.5j, 1.5) == pytest.approx(2.0, rel=1e-14)

    def test_diagonal_real_and_bounded_below(self):
        for z in (0.0j, 0.3 + 0.4j, -0.7j):
            val = kernel_limit(z, z, 1.25)
            assert abs(val.imag) <= 1e-12
            assert val.real >= 2.0 * 1.25 - 1.0

    def test_array_points_match_scalar(self):
        z = np.array([0.0, 0.3 + 0.4j, -0.7j, 0.55 - 0.1j])
        w = 0.4 + 0.25j
        got = kernel_limit(z, w, 1.25)
        assert np.allclose(got, [kernel_limit(complex(p), w, 1.25) for p in z], rtol=1e-14, atol=0.0)
        assert type(kernel_limit(complex(z[1]), w, 1.25)) is complex
        gram = kernel_limit(z[:, None], z[None, :], 1.25)
        assert gram.shape == (4, 4)
        assert np.allclose(gram, gram.conj().T, rtol=1e-14, atol=0.0)
        with pytest.raises(DomainError):
            kernel_limit(np.append(z, 1.0), w, 1.25)

    def test_reproducing_property(self):
        for B in (1.0, 1.5):
            grid = disk_grid(64, 64, B)
            w = 0.4 + 0.25j
            kvals = np.asarray([kernel_limit(z, w, B) for z in grid.nodes])
            for k in range(6):
                cvals = np.asarray([bergman_basis(k, B, z) for z in grid.nodes])
                got = grid.weights @ (kvals * cvals) / math.pi
                assert got == pytest.approx(bergman_basis(k, B, w), abs=1e-7)


class TestKernelPositivity:
    def test_gram_psd(self):
        rng = np.random.default_rng(61)
        B, s = 1.25, 0.49
        pts = [complex(*rng.uniform(-0.5, 0.5, 2)) for _ in range(6)]
        mat = np.array([[kernel_series(zi, zj, B, s) for zj in pts] for zi in pts])
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-10
        eigs = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
        assert float(np.min(eigs)) >= -1e-10


class TestTransferredApply:
    def test_eigen_action(self):
        B, R = 1.5, 0.6
        w = 0.3 + 0.2j
        for k in range(5):
            coeffs = np.zeros(k + 1, dtype=complex)
            coeffs[k] = 1.0
            got = transferred_apply(BergmanFunction(B, coeffs), w, B, R)
            want = disk_eigenvalue(k, B, R) * bergman_basis(k, B, w)
            assert abs(got - want) <= 1e-7

    def test_zero_function(self):
        for coefficients in (np.zeros(3), []):
            got = transferred_apply(BergmanFunction(1.5, coefficients), 0.2j, 1.5, 0.6)
            assert abs(got) <= 1e-14

    def test_linearity(self):
        B, R = 1.25, 0.5
        w = -0.2 + 0.3j
        rng = np.random.default_rng(62)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        combined = transferred_apply(BergmanFunction(B, a + 2.0 * b), w, B, R)
        separate = (transferred_apply(BergmanFunction(B, a), w, B, R)
                    + 2.0 * transferred_apply(BergmanFunction(B, b), w, B, R))
        assert combined == pytest.approx(separate, rel=1e-9)

    def test_non_finite_strength_rejected(self):
        with pytest.raises(DomainError):
            transferred_apply(BergmanFunction(1.5, [1.0]), 0.3, math.inf, 0.6)

    @pytest.mark.parametrize("B", [4.0, 1.25, 1.5 + 1e-15])
    def test_strength_other_than_the_functions_refused(self, B):
        # B = 4 returned 1.716, the B = 4 operator on the B = 1.5 coefficients; the B = 1.5 operator gives 0.954
        F = BergmanFunction(1.5, [1.0, 0.5, 0.25])
        assert transferred_apply(F, 0.3, 1.5, 0.6) == pytest.approx(0.954, abs=5e-4)
        with pytest.raises(DomainError, match="F.B=1.5"):
            transferred_apply(F, 0.3, B, 0.6)

    def test_non_finite_values_refused(self):
        # an evaluator is never sampled by the apply, so its NaNs near the rim cannot reach a value
        F = BergmanFunction(1.5, evaluator=lambda z: np.where(abs(z) > 0.99, np.nan, 1.0))
        with pytest.raises(DomainError, match="needs coefficients"):
            transferred_apply(F, 0.3, 1.5, 0.6)
        calls = []
        with pytest.raises(AccuracyError, match="not finite"):
            BergmanFunction(1.5, evaluator=lambda z: calls.append(z) or np.nan).project(4)
        assert len(calls) == 1  # refused on the first rule; it was sampled on all six

    def test_coefficient_apply_is_the_uncached_table_expression(self):
        # bit for bit basis_series(reg_inc_beta_table(R^2, n, 2B - 1) * f, B, w), whatever was cached before
        rng = np.random.default_rng(22)
        calls = [(B, R, n) for B in (0.51, 1.5, 20.0) for R in (0.3, 0.81) for n in (1, 4, 12, 17, 600)]
        calls += [(1.5, 0.3 + 0.02 * i, 5) for i in range(20)]  # more keys than the cache keeps
        cases = [(B, R, rng.standard_normal(n) + 1j * rng.standard_normal(n),
                  complex(*rng.uniform(-0.6, 0.6, 2))) for B, R, n in calls]
        specfun._inc_beta_blocks.cache_clear()
        for order in (cases, cases[::-1], cases[::3] + cases, cases):
            for B, R, f, w in order:
                want = basis_series(reg_inc_beta_table(R * R, f.size, 2.0 * B - 1.0) * f, B, w)
                assert transferred_apply(BergmanFunction(B, f), w, B, R) == want

    def test_kernel_table_built_once_per_strength_and_radius(self):
        B, R, cache = 2.5, 0.7, specfun._inc_beta_blocks
        cache.cache_clear()
        z = 0.95 * np.exp(2j * np.pi * np.arange(8) / 8)
        first = kernel_series(z, 0.6 + 0.2j, B, R * R)
        built = cache.cache_info()
        second = kernel_series(z, -0.2 - 0.6j, B, R * R)  # the same |w|, so the same cut
        # the walk n = 64, 128, ... reads one 512-entry table, built by the first call only
        assert built.misses == 1 and built.hits >= 1
        assert cache.cache_info().misses == 1 and cache.cache_info().hits == 2 * built.hits + 1
        assert not np.array_equal(first, second)

    def test_kernel_tables_are_read_only_and_rebuilt_bit_for_bit(self):
        B, R, w = 1.5, 0.8, 0.45 - 0.5j
        F = BergmanFunction(B, [0.5, 1.0 - 1.0j, 0.25j])
        coeffs, value = kernel_series_coefficients(B, R * R, 0.9), transferred_apply(F, w, B, R)
        table = reg_inc_beta_table(R * R, 64, 2.0 * B - 1.0)
        with pytest.raises(ValueError):
            table[0] = 1.0
        specfun._inc_beta_blocks.cache_clear()
        assert np.array_equal(kernel_series_coefficients(B, R * R, 0.9), coeffs)
        assert transferred_apply(F, w, B, R) == value
        # the coefficients are the one formula: (2B-1) w_k(2B) times I_s(k+1, 2B-1)
        weights = np.exp(math.log(2.0 * B - 1.0) + specfun.log_nb_weights(coeffs.size, 2.0 * B))
        assert np.array_equal(coeffs, reg_inc_beta_table(R * R, coeffs.size, 2.0 * B - 1.0) * weights)

    @pytest.mark.parametrize("B", [0.75, 1.5, 4.5, 10.0])
    @pytest.mark.parametrize("w, n_r, n_theta", [
        (0.3 + 0.2j, 64, 128),
        (0.9 * np.exp(2.1j), 64, 128),
        (-0.6 + 0.62j, 12, 7),  # odd n_theta, and 7 angles alias the kernel's modes past 7 at |w| R = 0.6
    ])
    def test_matches_dense_disk_rule_sum(self, B, w, n_r, n_theta, monkeypatch):
        # The operator's definition, the reproducing kernel integrated against F over |z| < R, summed
        # on a dense rule; the coefficient apply reads no disk rule, so DISK_RULE cannot move it.
        monkeypatch.setattr(quadrature, "DISK_RULE", (n_r, n_theta))
        rng = np.random.default_rng(64)
        F = BergmanFunction(B, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        R = 0.7
        got = transferred_apply(F, w, B, R)
        want = oracles.dense_disk_apply(F, w, B, R)
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("B", [0.51, 0.75, 1.5, 4.5, 10.0])
    @pytest.mark.parametrize("w, n_r, n_theta, d", [
        (0.3 + 0.2j, 64, 128, 8),
        (0.9 * np.exp(2.1j), 64, 128, 12),
        # 20 coefficients on 7 and 14 angles alias, so project refines past them
        (-0.6 + 0.62j, 12, 7, 20),
    ])
    def test_coefficient_route_matches_evaluator_route(self, B, w, n_r, n_theta, d, monkeypatch):
        # Coefficients take the eigenvalue table, whatever the rule; the same F as an evaluator is
        # projected, starting from the rule's angles, and the projection's apply agrees.
        monkeypatch.setattr(quadrature, "DISK_RULE", (n_r, n_theta))
        rng = np.random.default_rng(65)
        c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        R = 0.7
        got = transferred_apply(BergmanFunction(B, c), w, B, R)
        exact = sum(c[j] * disk_eigenvalue(j, B, R) * bergman_basis(j, B, w) for j in range(d))
        assert abs(got - exact) <= 1e-13 * abs(exact)
        sampled = BergmanFunction(B, evaluator=lambda z: basis_series(c, B, z))
        assert abs(transferred_apply(sampled.project(d - 1), w, B, R) - got) <= 1e-13 * abs(got)

    @pytest.mark.parametrize("B", [0.51, 1.5, 4.5, 20.0])
    @pytest.mark.parametrize("s", [0.09, 0.49, 0.81])
    def test_coefficient_cut_equals_the_unmemoized_expression(self, B, s):
        # 0.999 walks the table sizes up to 8192 at B = 20
        for x_max in (0.0, 0.1, 0.55, 0.81, 0.9, 0.97, 0.999):
            want = oracles.kernel_series_coefficients_unmemoized(B, s, x_max, specfun)
            try:
                got = kernel_series_coefficients(B, s, x_max)
            except ConvergenceError:
                got = None
            assert (got is None) == (want is None)
            if got is not None:
                assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("j", [0, 3])
    def test_large_strength_projected_evaluator(self, j):
        # near the rim at large strength, e_j's projection applies as e_j does
        B, R, w, c = 20.0, 0.8, -0.85 + 0.1j, np.zeros(j + 1)
        c[j] = 1.0
        want = transferred_apply(BergmanFunction(B, c), w, B, R)
        F = BergmanFunction(B, evaluator=lambda z: bergman_basis(j, B, z))
        assert abs(transferred_apply(F.project(j), w, B, R) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("j", [0, 3])
    def test_large_strength_coefficient_apply_is_the_eigen_action(self, j):
        # The same case as a coefficient function is lambda_j e_j(w) (6.245 for e_0); it used to refuse
        B, R, w, c = 20.0, 0.8, -0.85 + 0.1j, np.zeros(j + 1)
        c[j] = 1.0
        want = disk_eigenvalue(j, B, R) * bergman_basis(j, B, w)
        assert abs(transferred_apply(BergmanFunction(B, c), w, B, R) - want) <= 1e-13 * abs(want)

    def test_certify_or_refuse_sweep(self):
        # Seeded random coefficient functions over the domain: each apply meets the exact
        # eigen-action sum_j lambda_j c_j e_j(w), summed index by index, to 1e-11 of max(|value|, 1);
        # the worst draw is 1.2e-13 off
        rng = np.random.default_rng(20261018)
        for B in (0.51, 0.6, 0.75, 1.0, 2.5, 5.3, 10.0, 20.0, 40.0):
            for _ in range(25):
                d = int(rng.integers(1, 16))
                c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                w = 0.95 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
                R = rng.uniform(0.05, 0.99)
                want = sum(c[j] * disk_eigenvalue(j, B, R) * bergman_basis(j, B, w) for j in range(d))
                got = transferred_apply(BergmanFunction(B, c), w, B, R)
                assert abs(got - want) <= 1e-11 * max(abs(want), 1.0), (B, d, w, R)


class TestIntertwining:
    def test_operator_orders_agree(self):
        B, R = 1.25, 0.6
        rng = np.random.default_rng(63)
        for _ in range(10):
            c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            w = complex(*rng.uniform(-0.45, 0.45, 2))
            direct = bargmann_transform(spectral_apply(c, ModelParams(B), LocalizationRadius(R)), w, B)
            via_kernel = transferred_apply(BergmanFunction(B, coefficients=c), w, B, R)
            assert abs(direct - via_kernel) <= 1e-7 * max(1.0, abs(direct))


EPS = np.finfo(float).eps


def scalar_basis_sum(coeffs, B, z):
    """Reference: sum_j c_j bergman_basis(j, B, z), one scalar basis call per term."""
    terms = [c * bergman_basis(j, B, complex(z)) for j, c in enumerate(coeffs)]
    return sum(terms), sum(abs(t) for t in terms)


class TestCoefficientPath:
    # Horner's rule and the term-by-term reference each round n times per
    # term: the gap is at most 4 n eps times the sum of |terms|.
    @pytest.mark.parametrize("B", [0.75, 1.5, 4.5])
    def test_call_values_and_transform_match_scalar_basis_sum(self, B):
        rng = np.random.default_rng(31)
        coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        points = 0.9 * np.sqrt(rng.random(40)) * np.exp(2j * np.pi * rng.random(40))
        F = BergmanFunction(B, coefficients=coeffs)
        arrays = (F.values(points), F(points), bargmann_transform(coeffs, points, B))
        for i, z in enumerate(points):
            want, size = scalar_basis_sum(coeffs, B, z)
            tol = 4 * coeffs.size * EPS * size
            assert abs(F(z) - want) <= tol
            assert abs(bargmann_transform(coeffs, z, B) - want) <= tol
            for got in arrays:
                assert abs(got[i] - want) <= tol

    def test_array_outside_disk_rejected_once(self):
        F = BergmanFunction(1.5, coefficients=[1.0, 2.0])
        with pytest.raises(DomainError):
            F.values(np.array([0.1, 0.2j, 1.0]))

    @pytest.mark.parametrize("B, s", [(0.75, 0.36), (1.5, 0.81), (4.5, 0.36)])
    def test_array_kernel_series_matches_scalar_basis_sum(self, B, s):
        # Tolerance: the series is cut at 1e-12 of its absolute envelope,
        # the eigenvalues of the two routes agree to 1e-12 relative here
        # (R <= 0.9, j <= 400), and rounding adds under 1e-13.
        rng = np.random.default_rng(47)
        z = 0.9 * np.sqrt(rng.random(30)) * np.exp(2j * np.pi * rng.random(30))
        w = complex(0.6, -0.5)
        # |conj(z) w| <= 0.71: past 600 terms the series is below 1e-60
        lam = [reg_inc_beta(s, k + 1.0, 2.0 * B - 1.0) for k in range(600)]
        basis_w = [bergman_basis(k, B, w) for k in range(600)]
        got = kernel_series(z, w, B, s)
        assert got.shape == z.shape
        for zi, value in zip(z, got):
            terms = [lam[k] * bergman_basis(k, B, complex(zi)).conjugate() * basis_w[k]
                     for k in range(600)]
            size = sum(abs(t) for t in terms)
            assert abs(value - sum(terms)) <= 4e-12 * size
            assert abs(kernel_series(complex(zi), w, B, s) - sum(terms)) <= 4e-12 * size


class TestAccuracyConstantsHaveOneHome:
    """Patching a constant where it is defined reaches every function that reads it."""

    def test_series_constants_reach_kernel_series_and_leakage_bound(self, monkeypatch):
        B, s, x_max = 1.5, 0.5, 0.81
        full = kernel_series_coefficients(B, s, x_max)
        monkeypatch.setattr(specfun, "SERIES_REL_TOL", 1e-4)
        assert kernel_series_coefficients(B, s, x_max).size < full.size
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 3)
        with pytest.raises(ConvergenceError):
            kernel_series_coefficients(B, s, x_max)
        with pytest.raises(ConvergenceError):
            locop.leakage_bound(0.99, B, 0.9)

    def test_disk_rule_reaches_matrix_elements(self, monkeypatch):
        # a 2-radius rule is exact only up to degree 3 in |z|^2, so |z|^10 is off on it
        B = 1.5
        assert abs(locop.quantization_matrix_element(lambda z: 1.0, 5, 5, B) - 1.0) <= 1e-12
        monkeypatch.setattr(quadrature, "DISK_RULE", (2, 3))
        assert abs(locop.quantization_matrix_element(lambda z: 1.0, 5, 5, B) - 1.0) > 1e-6
