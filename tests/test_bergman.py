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
from nbsloc.errors import (
    AccuracyError,
    ConvergenceError,
    DomainError,
    UnsupportedRepresentationError,
)
from nbsloc.locop import SpectralData, disk_eigenvalue, spectral_apply
from nbsloc.quadrature import disk_grid, radial_jacobi_grid
from nbsloc.specfun import reg_inc_beta, reg_inc_beta_table
from nbsloc.states import LocalizationRadius, basis_norms, basis_series, bergman_basis, laguerre_function


class TestBergmanFunction:
    def test_requires_some_representation(self):
        with pytest.raises(DomainError):
            BergmanFunction(1.5)

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

    def test_projection_past_the_radial_rule_refused(self):
        # its rule's Jacobi mass leaves the double range; it used to end in a bare OverflowError
        for _ in range(2):
            with pytest.raises(DomainError, match="512"):
                BergmanFunction(600.0, coefficients=[1.0]).project(4)

    def test_projection_rejects_negative_index(self):
        # used to return a function with no coefficients
        with pytest.raises(DomainError, match="j_max >= 0"):
            BergmanFunction(1.5, evaluator=lambda z: 1.0 + z).project(-3)

    def test_projection_refines_near_the_rim(self):
        # the first rule, 6 radii x 128 angles, alone misses these coefficients by 2.2e-7: its angles alias
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

    def test_angular_coefficients_match_direct_sum(self):
        # odd n_theta, and bins past n_theta read aliased, sign-flipped FFT entries
        from nbsloc.bergman import _angular_coefficients

        B, n_r, n_theta, n_k = 1.5, 5, 7, 30
        F = BergmanFunction(B, evaluator=lambda z: 1.0 / (1.3 - z) + z.conjugate() ** 2)
        r = np.sqrt(radial_jacobi_grid(n_r, B).nodes)
        a = _angular_coefficients(F, r, n_theta, n_k)
        theta = 2.0 * np.pi * (np.arange(n_theta) + 0.5) / n_theta
        for i in range(n_r):
            values = F.values(r[i] * np.exp(1j * theta))
            for k in range(n_k):
                want = np.mean(np.exp(-1j * k * theta) * values)
                assert abs(a[i, k] - want) <= 1e-14 * np.max(np.abs(values))

    def test_analyticity_spot_check(self):
        analytic = BergmanFunction(1.5, evaluator=lambda z: z ** 3 / (1.0 - 0.5 * z))
        analytic.check_analytic()
        not_analytic = BergmanFunction(1.5, evaluator=lambda z: z.conjugate())
        with pytest.raises(DomainError):
            not_analytic.check_analytic()


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

    def test_inverse_needs_coefficients(self):
        F = BergmanFunction(1.5, evaluator=lambda z: 1.0 + 0j)
        with pytest.raises(UnsupportedRepresentationError):
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
        got = transferred_apply(BergmanFunction(1.5, np.zeros(3)), 0.2j, 1.5, 0.6)
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

    def test_non_finite_values_refused(self):
        F = BergmanFunction(1.5, evaluator=lambda z: np.where(abs(z) > 0.99, np.nan, 1.0))
        with pytest.raises(AccuracyError):
            transferred_apply(F, 0.3, 1.5, 0.6)

    def test_insufficient_grid_detected(self, monkeypatch):
        B, R = 1.5, 0.6
        monkeypatch.setattr(bergman, "TRANSFER_REFINE_TOL", 1e-14)
        monkeypatch.setattr(quadrature, "DISK_RULE", (2, 3))
        with pytest.raises(AccuracyError):
            transferred_apply(
                BergmanFunction(B, np.array([0.0, 0.0, 0.0, 0.0, 1.0], dtype=complex)),
                0.5 + 0.3j, B, R,
            )

    def test_kernel_table_built_once_per_strength_and_radius(self, monkeypatch):
        B, R, sizes = 2.5, 0.7, []

        def counted(x, n, b):
            sizes.append(n)
            return reg_inc_beta_table(x, n, b)

        bergman._kernel_table.cache_clear()
        monkeypatch.setattr(bergman, "reg_inc_beta_table", counted)
        F = BergmanFunction(B, [0.5, 1.0 - 1.0j, 0.25j])
        first = transferred_apply(F, 0.6 + 0.2j, B, R)
        built = list(sizes)
        second = transferred_apply(F, -0.2 - 0.6j, B, R)  # the same |w|, so the same cut
        assert len(built) >= 2 and sizes == built
        assert first != second

    def test_kernel_tables_are_read_only_and_rebuilt_bit_for_bit(self):
        B, R, w = 1.5, 0.8, 0.45 - 0.5j
        F = BergmanFunction(B, [0.5, 1.0 - 1.0j, 0.25j])
        coeffs, value = kernel_series_coefficients(B, R * R, 0.9), transferred_apply(F, w, B, R)
        g, table, *_ = bergman._kernel_table(B, R * R, 64)
        for array in (g, table, coeffs):
            with pytest.raises(ValueError):
                array[0] = 1.0
        bergman._kernel_table.cache_clear()
        assert np.array_equal(kernel_series_coefficients(B, R * R, 0.9), coeffs)
        assert transferred_apply(F, w, B, R) == value
        # the table is the one formula: (2B-1) w_k(2B) times I_s(k+1, 2B-1)
        weights = np.exp(math.log(2.0 * B - 1.0) + specfun.log_nb_weights(65, 2.0 * B))
        assert np.array_equal(g, weights)
        assert np.array_equal(table, reg_inc_beta_table(R * R, 64, 2.0 * B - 1.0) * weights[:-1])

    @pytest.mark.parametrize("B", [0.75, 1.5, 4.5, 10.0])
    @pytest.mark.parametrize("w, n_r, n_theta", [
        (0.3 + 0.2j, 64, 128),
        (0.9 * np.exp(2.1j), 64, 128),
        (-0.6 + 0.62j, 12, 7),  # odd n_theta; the kernel series is longer than both rules
    ])
    def test_matches_dense_disk_rule_sum(self, B, w, n_r, n_theta, monkeypatch):
        # The value is the fine rule's, whatever the refinement check decides
        # (an infinite TRANSFER_REFINE_TOL), so the rule itself is compared.
        monkeypatch.setattr(bergman, "TRANSFER_REFINE_TOL", math.inf)
        monkeypatch.setattr(quadrature, "DISK_RULE", (n_r, n_theta))
        rng = np.random.default_rng(64)
        F = BergmanFunction(B, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        R = 0.7
        got = transferred_apply(F, w, B, R)
        want = oracles.dense_disk_apply(F, w, B, R * R, 2 * n_r, 2 * n_theta, kernel_series, disk_grid)
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("B", [0.51, 0.75, 1.5, 4.5, 10.0])
    @pytest.mark.parametrize("w, n_r, n_theta, d", [
        (0.3 + 0.2j, 64, 128, 8),
        (0.9 * np.exp(2.1j), 64, 128, 12),
        # 20 coefficients on 14 fine angles alias, and the kernel series is longer than both rules
        (-0.6 + 0.62j, 12, 7, 20),
    ])
    def test_coefficient_route_matches_evaluator_route(self, B, w, n_r, n_theta, d, monkeypatch):
        # Coefficients fold into a_k(r) in closed form; the same F as an evaluator is sampled and
        # takes one FFT per radius.  Both form the same discrete sum, compared on the fine rule.
        monkeypatch.setattr(bergman, "TRANSFER_REFINE_TOL", math.inf)
        monkeypatch.setattr(quadrature, "DISK_RULE", (n_r, n_theta))
        rng = np.random.default_rng(65)
        c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        got = transferred_apply(BergmanFunction(B, c), w, B, 0.7)
        sampled = BergmanFunction(B, evaluator=lambda z: basis_series(c, B, z))
        want = transferred_apply(sampled, w, B, 0.7)
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("n_theta, d, n_k", [(7, 20, 40), (8, 3, 30), (128, 12, 442)])
    def test_folded_sum_matches_sampled_sum(self, n_theta, d, n_k):
        # the coarse rule's own sum, odd n_theta included: alias pairs against one FFT per radius
        from nbsloc.bergman import _angular_coefficients, _folded_sum

        B, rng = 1.5, np.random.default_rng(67)
        c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        h = (rng.standard_normal(n_k) + 1j * rng.standard_normal(n_k)) * 0.9 ** np.arange(n_k)
        radial = radial_jacobi_grid(12, B)
        r = np.sqrt(radial.nodes)
        sampled = BergmanFunction(B, evaluator=lambda z: basis_series(c, B, z))
        a = _angular_coefficients(sampled, r, n_theta, n_k)
        want = radial.weights @ ((r[:, None] ** np.arange(n_k) * a) @ h)
        got = _folded_sum(c * basis_norms(d, B), h, 12, B, n_theta)
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("d, size, n_theta", [(8, 64, 128), (12, 512, 128), (20, 64, 7), (3, 32, 8), (1, 1, 2)])
    def test_fold_plan_is_every_alias_pair_in_increasing_k(self, d, size, n_theta):
        j, k, jk, sign = bergman._fold_plan(d, size, n_theta)
        assert bergman._fold_plan(d, size, n_theta)[0] is j
        for array in (j, k, jk, sign):
            with pytest.raises(ValueError):
                array[0] = 0
        for m in range(1, size + 1):  # every length the plan serves is a prefix of it
            cut = np.searchsorted(k, m)
            want = sorted((kk, jj, 1 - 2 * ((kk - jj) // n_theta % 2))
                          for jj in range(d) for kk in range(m) if (kk - jj) % n_theta == 0)
            assert list(zip(k[:cut].tolist(), j[:cut].tolist(), sign[:cut].tolist())) == want
        assert np.array_equal(jk, j + k)

    def test_fold_plan_cache_is_bounded(self):
        assert bergman._fold_plan.cache_info().maxsize is not None

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
    def test_large_strength_refusals(self, j):
        # At B = 20, w = -0.85+0.1j the coarse and fine rules disagree (by 1.1e-2 on e_0, 2.2e-1
        # on e_3), so both routes refuse, although lambda_j e_j(w) is well-defined
        B, c = 20.0, np.zeros(j + 1)
        c[j] = 1.0
        for F in (BergmanFunction(B, c), BergmanFunction(B, evaluator=lambda z: basis_series(c, B, z))):
            with pytest.raises(AccuracyError):
                transferred_apply(F, -0.85 + 0.1j, B, 0.8)

    def test_certify_or_refuse_sweep(self):
        # Seeded random coefficient functions over the domain: each apply either meets the exact
        # eigen-action sum_j I_{R^2}(j+1, 2B-1) c_j e_j(w) to 1e-8 of max(|value|, 1) or refuses.
        rng = np.random.default_rng(20261018)
        for B in (0.51, 0.6, 0.75, 1.0, 2.5, 5.3, 10.0, 20.0, 40.0):
            certified = 0
            for _ in range(25):
                d = int(rng.integers(1, 16))
                c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                w = 0.95 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
                R = rng.uniform(0.05, 0.99)
                want = basis_series(reg_inc_beta_table(R * R, d, 2.0 * B - 1.0) * c, B, w)
                try:
                    got = transferred_apply(BergmanFunction(B, c), w, B, R)
                except (AccuracyError, ConvergenceError):
                    continue
                assert abs(got - want) <= 1e-8 * max(abs(want), 1.0), (B, d, w, R)
                certified += 1
            assert certified >= 20, (B, certified)  # refusals stay the exception, not the answer


class TestIntertwining:
    def test_operator_orders_agree(self):
        B, R = 1.25, 0.6
        spec_data = SpectralData(B, LocalizationRadius(R))
        rng = np.random.default_rng(63)
        for _ in range(10):
            c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            w = complex(*rng.uniform(-0.45, 0.45, 2))
            direct = bargmann_transform(spectral_apply(c, spec_data), w, B)
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

    def test_disk_rule_reaches_transfer_and_matrix_elements(self, monkeypatch):
        # a 2-radius rule is exact only up to degree 3 in |z|^2, so |z|^10 is off on it
        B, F = 1.5, BergmanFunction(1.5, [0.0, 0.0, 0.0, 0.0, 1.0])
        want = transferred_apply(F, 0.5 + 0.3j, B, 0.6)
        assert abs(locop.quantization_matrix_element(lambda z: 1.0, 5, 5, B) - 1.0) <= 1e-12
        monkeypatch.setattr(bergman, "TRANSFER_REFINE_TOL", math.inf)
        monkeypatch.setattr(quadrature, "DISK_RULE", (2, 3))
        assert abs(transferred_apply(F, 0.5 + 0.3j, B, 0.6) - want) > 1e-6 * abs(want)
        assert abs(locop.quantization_matrix_element(lambda z: 1.0, 5, 5, B) - 1.0) > 1e-6
