import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from nbsloc.errors import ConvergenceError, DomainError
from nbsloc.specfun import (
    SeriesControl,
    appell_f1,
    appell_f3,
    gauss_2f1,
    jacobi,
    laguerre,
    log_gamma,
    log_nb_weights,
    horner,
    inc_beta_steps,
    reg_inc_beta,
    reg_inc_beta_table,
    sample_beta,
)


class TestLogGamma:
    def test_integer_anchors(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-1.3)


class TestRegIncBeta:
    def test_endpoints(self):
        assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_a_equals_one(self):
        # integrand reduces to (1-t)^(b-1)
        for x in (0.1, 0.3, 0.9):
            for b in (0.5, 1.0, 4.0):
                assert reg_inc_beta(x, 1.0, b) == pytest.approx(1.0 - (1.0 - x) ** b, abs=1e-14)

    def test_symmetry_midpoint(self):
        for a in (0.7, 2.0, 11.0):
            assert reg_inc_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-13)

    def test_derived_value(self):
        # frozen from the adaptive Simpson oracle on t (1-t)^0.5 / B(2, 1.5)
        assert reg_inc_beta(0.3, 2.0, 1.5) == pytest.approx(0.1507900730679133, abs=1e-12)
        beta_const = math.gamma(2.0) * math.gamma(1.5) / math.gamma(3.5)
        direct = oracles.adaptive_simpson(lambda t: t * math.sqrt(1.0 - t), 0.0, 0.3) / beta_const
        assert reg_inc_beta(0.3, 2.0, 1.5) == pytest.approx(direct, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(1.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 1.0, -2.0)

    @pytest.mark.parametrize("a, b", [(math.inf, 2.0), (2.0, math.inf), (math.nan, 2.0), (2.0, math.nan)])
    def test_non_finite_parameters_rejected(self, a, b):
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, a, b)

    @given(
        x=st.floats(0.0, 1.0),
        a=st.floats(0.05, 30.0),
        b=st.floats(0.05, 30.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_reflection(self, x, a, b):
        # evaluate at an exactly complementary float pair (1 - x may round)
        y = 1.0 - x
        x = 1.0 - y
        assert reg_inc_beta(x, a, b) + reg_inc_beta(y, b, a) == pytest.approx(1.0, abs=1e-12)

    @given(
        x=st.floats(0.01, 0.98),
        a=st.floats(0.2, 10.0),
        b=st.floats(0.2, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_and_bounded(self, x, a, b):
        lo = reg_inc_beta(x, a, b)
        hi = reg_inc_beta(x + 0.01, a, b)
        assert 0.0 <= lo <= 1.0
        assert hi >= lo


class TestLaguerre:
    def test_order_zero_and_one(self):
        assert laguerre(0, 0.3, 5.0) == 1.0
        assert laguerre(1, 0.3, 5.0) == pytest.approx(1.0 + 0.3 - 5.0, abs=1e-14)

    def test_derived_value(self):
        # frozen from the generating-function power series oracle
        assert laguerre(5, 1.5, 2.0) == pytest.approx(-1.3330729166666657, rel=1e-12)
        assert laguerre(5, 1.5, 2.0) == pytest.approx(
            oracles.laguerre_from_generating_series(5, 1.5, 2.0), rel=1e-12
        )

    def test_generating_function_grid(self):
        for alpha in (-0.5, 0.0, 1.5, 3.0):
            for x in (0.5, 2.0):
                for t in (0.1, 0.4):
                    partial = sum(t ** j * laguerre(j, alpha, x) for j in range(61))
                    closed = (1.0 - t) ** (-alpha - 1.0) * math.exp(-t * x / (1.0 - t))
                    assert partial == pytest.approx(closed, rel=1e-9)

    def test_vectorized(self):
        xs = np.linspace(0.1, 4.0, 7)
        vals = laguerre(4, 0.8, xs)
        assert vals.shape == xs.shape
        assert vals[3] == pytest.approx(laguerre(4, 0.8, float(xs[3])), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            laguerre(-1, 0.0, 1.0)
        with pytest.raises(DomainError):
            laguerre(2, -1.0, 1.0)


class TestJacobi:
    def test_order_zero_and_one(self):
        assert jacobi(0, 0.2, 0.7, 0.3) == 1.0
        alpha, beta, x = 0.2, 0.7, 0.3
        assert jacobi(1, alpha, beta, x) == pytest.approx(
            (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0, abs=1e-14
        )

    def test_derived_value(self):
        # frozen from the exact-rational binomial sum oracle (value is exactly -0.242)
        assert jacobi(3, 0.0, 2.0, 0.4) == pytest.approx(-0.242, abs=1e-13)
        assert jacobi(3, 0.0, 2.0, 0.4) == pytest.approx(
            oracles.jacobi_binomial_sum(3, 0.0, 2.0, 0.4), abs=1e-13
        )

    def test_value_at_one(self):
        # P_k(1) = C(k + alpha, k)
        for k in range(6):
            for alpha in (0.0, 1.3):
                want = math.prod((alpha + i) / i for i in range(1, k + 1)) if k else 1.0
                assert jacobi(k, alpha, 2.2, 1.0) == pytest.approx(want, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            jacobi(-2, 0.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            jacobi(2, -1.5, 0.0, 0.5)


class TestGauss2F1:
    def test_at_zero(self):
        assert gauss_2f1(0.3, 1.2, 2.5, 0.0).value == 1.0

    def test_gauss_theorem_family(self):
        # terminating and non-terminating strengths alike
        for B in (0.75, 1.0, 1.5, 2.5, 4.0):
            res = gauss_2f1(2.0 - 2.0 * B, 1.0, 2.0, 1.0)
            assert res.converged
            assert res.value.real == pytest.approx(1.0 / (2.0 * B - 1.0), abs=1e-12)

    def test_derived_closed_form(self):
        B, z = 1.25, 0.4
        want = (1.0 - (1.0 - z) ** (2.0 * B - 1.0)) / ((2.0 * B - 1.0) * z)
        got = gauss_2f1(1.0, 2.0 - 2.0 * B, 2.0, z)
        assert got.value.real == pytest.approx(want, rel=1e-12)
        series = oracles.hypergeometric_series(1.0, 2.0 - 2.0 * B, 2.0, z)
        assert got.value.real == pytest.approx(series.real, rel=1e-12)

    def test_monotone_approach_to_one(self):
        B = 1.25
        limit = gauss_2f1(2.0 - 2.0 * B, 1.0, 2.0, 1.0).value.real
        gaps = []
        for k in range(2, 6):
            val = gauss_2f1(2.0 - 2.0 * B, 1.0, 2.0, 1.0 - 10.0 ** (-k)).value.real
            gaps.append(abs(val - limit))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_divergence_and_domain(self):
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 0.5, 1.5, 1.2)
        with pytest.raises(ConvergenceError):
            gauss_2f1(1.0, 1.0, 1.5, 1.0)  # c - a - b < 0 at z = 1
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 0.5, -2.0, 0.3)  # c a non-positive integer, no termination

    def test_terminating_with_negative_c_offset(self):
        # a = -2 terminates before the c = -3 pole is reached
        res = gauss_2f1(-2.0, 1.0, -3.0, 0.7)
        want = 1.0 + (-2.0) * 1.0 / (-3.0) * 0.7 + ((-2.0) * (-1.0) * 1.0 * 2.0) / ((-3.0) * (-2.0) * 2.0) * 0.49
        assert res.value.real == pytest.approx(want, rel=1e-14)

    def test_terminating_exactly_at_c_pole(self):
        # a == c non-positive integer: Pochhammer ratios cancel term by term
        b, z = 0.8, 0.5
        res = gauss_2f1(-2.0, b, -2.0, z)
        want = 1.0 + b * z + b * (b + 1.0) / 2.0 * z * z
        assert res.value.real == pytest.approx(want, rel=1e-14)


class TestAppellF1:
    def test_at_origin(self):
        assert appell_f1(0.3, 0.7, -1.2, 2.0, 0.0, 0.0).value == 1.0

    def test_collapse_to_2f1(self):
        got = appell_f1(0.4, 0.0, 1.3, 2.2, 0.5, 0.25)
        want = gauss_2f1(0.4, 1.3, 2.2, 0.25)
        assert got.value == pytest.approx(want.value, rel=1e-12)

    def test_diagonal_identity(self):
        got = appell_f1(-0.5, -1.5, 2.5, 2.0, 0.3, 0.3)
        want = gauss_2f1(-0.5, 1.0, 2.0, 0.3)
        assert got.value == pytest.approx(want.value, rel=1e-9)

    def test_rowwise_oracle_complex(self):
        u, v = 0.3 + 0.1j, -0.2 + 0.05j
        got = appell_f1(0.7, -1.3, 0.9, 2.4, u, v).value
        want = oracles.appell_f1_rowwise(0.7, -1.3, 0.9, 2.4, u, v)
        assert got == pytest.approx(want, rel=1e-11)

    def test_index_symmetry_bit_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b1, b2 = rng.uniform(-2, 2, 3)
            c = rng.uniform(1.0, 4.0)
            u = complex(*rng.uniform(-0.4, 0.4, 2))
            v = complex(*rng.uniform(-0.4, 0.4, 2))
            assert appell_f1(a, b1, b2, c, u, v).value == appell_f1(a, b2, b1, c, v, u).value

    def test_euler_transformations(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a, b1, b2 = rng.uniform(-2, 2, 3)
            c = rng.uniform(1.0, 4.0)
            u, v = rng.uniform(-0.3, 0.3, 2)
            lhs = appell_f1(a, b1, b2, c, u, v).value
            pfaff = (1 - u) ** (-b1) * (1 - v) ** (-b2) * appell_f1(
                c - a, b1, b2, c, u / (u - 1), v / (v - 1)).value
            assert abs(lhs - pfaff) <= 1e-9 * max(abs(lhs), 1.0)
            euler = (1 - u) ** (c - a - b1) * (1 - v) ** (-b2) * appell_f1(
                c - a, c - b1 - b2, b2, c, u, (u - v) / (1 - v)).value
            assert abs(lhs - euler) <= 1e-9 * max(abs(lhs), 1.0)

    def test_termination_allows_large_argument(self):
        # b1 = -1 terminates the u index, so |u| > 1 is fine
        got = appell_f1(0.5, -1.0, 0.7, 2.0, 3.0, 0.2)
        assert got.converged

    def test_whole_termination_at_c_pole(self):
        # a == c == -1: only anti-diagonals n <= 1 survive, with unit ratios
        u, v, b1, b2 = 0.3, 0.2, 0.7, 1.1
        res = appell_f1(-1.0, b1, b2, -1.0, u, v)
        assert res.value == pytest.approx(1.0 + b1 * u + b2 * v, rel=1e-14)

    def test_domain_and_convergence_errors(self):
        with pytest.raises(DomainError):
            appell_f1(0.5, 0.5, 0.5, 2.0, 1.2, 0.1)
        with pytest.raises(DomainError):
            appell_f1(0.5, 0.5, 0.5, -1.0, 0.1, 0.1)
        with pytest.raises(ConvergenceError) as err:
            appell_f1(0.5, 0.5, 0.5, 2.0, 0.95, 0.9, SeriesControl(max_terms=5))
        assert err.value.terms_used > 0


class TestAppellF3:
    def test_at_origin(self):
        assert appell_f3(0.5, -0.2, 1.1, 0.8, 2.0, 0.0, 0.0).value == 1.0

    def test_reduction_to_f1(self):
        # F3(a, a2, b, b2; a + a2; w, z) = (1-z)^(-b2) F1(a, b, b2; a+a2; w, z/(z-1))
        a, a2, b, b2 = -0.5, -1.0, 1.0, 2.5
        w, z = 0.2, 0.3
        lhs = appell_f3(a, a2, b, b2, a + a2, w, z).value
        rhs = (1 - z) ** (-b2) * appell_f1(a, b, b2, a + a2, w, z / (z - 1)).value
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_transfer_chain_parameters(self):
        alpha, R, omega = 2.5, 0.4, 0.3
        lhs = appell_f3(2 - alpha, alpha, 1.0, alpha, 2.0, R / (R - 1), omega * R).value
        rhs = (1 - omega * R) ** (-alpha) * appell_f1(
            2 - alpha, 1.0, alpha, 2.0, R / (R - 1), R * omega / (R * omega - 1)).value
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            appell_f3(0.5, 0.5, 0.5, 0.5, 2.0, 1.1, 0.2)

    def test_rowwise_oracle_complex(self):
        u, v = 0.3 + 0.1j, -0.2 + 0.05j
        got = appell_f3(0.7, -1.3, 0.9, 1.6, 2.4, u, v).value
        want = oracles.appell_f3_rowwise(0.7, -1.3, 0.9, 1.6, 2.4, u, v)
        assert got == pytest.approx(want, rel=1e-11)

    @staticmethod
    def _terminating(b1, b2, c, u, v):
        # F3(-1, -2; b1, b2; c; u, v): the six terms j <= 1, k <= 2
        c2, c3 = c * (c + 1.0), c * (c + 1.0) * (c + 2.0)
        return (1.0 - b1 * u / c - 2.0 * b2 * v / c + b2 * (b2 + 1.0) * v * v / c2
                + 2.0 * b1 * b2 * u * v / c2 - b1 * b2 * (b2 + 1.0) * u * v * v / c3)

    def test_doubly_terminating_polynomial(self):
        # both indices terminate, so |u|, |v| > 1 is fine
        b1, b2, c, u, v = 0.7, 1.3, 2.5, 1.5, -2.0
        res = appell_f3(-1.0, -2.0, b1, b2, c, u, v)
        assert res.converged
        assert res.value == pytest.approx(self._terminating(b1, b2, c, u, v), rel=1e-14)

    def test_c_pole_beyond_last_anti_diagonal(self):
        # the last nonzero anti-diagonal is 3, so (c)_n never vanishes for c = -3
        b1, b2, u, v = 0.7, 1.3, 0.4, 0.3
        res = appell_f3(-1.0, -2.0, b1, b2, -3.0, u, v)
        assert math.isfinite(abs(res.value))
        assert res.value == pytest.approx(self._terminating(b1, b2, -3.0, u, v), rel=1e-14)
        with pytest.raises(DomainError):
            appell_f3(-1.0, -2.0, b1, b2, -2.0, u, v)

    def test_convergence_error(self):
        with pytest.raises(ConvergenceError) as err:
            appell_f3(0.5, 0.5, 0.5, 0.5, 2.0, 0.95, 0.9, SeriesControl(max_terms=5))
        assert err.value.terms_used > 0


class TestSampleBeta:
    def test_uniform_law(self):
        n = 200_000
        mean = float(np.mean(sample_beta(1.0, 1.0, n, 11)))
        assert abs(mean - 0.5) <= 4.0 / math.sqrt(12.0 * n)

    def test_beta_mean(self):
        n = 1_000_000
        draws = sample_beta(2.0, 3.0, n, 12)
        sigma = math.sqrt(2.0 * 3.0 / (25.0 * 6.0) / n)
        assert abs(float(np.mean(draws)) - 0.4) <= 4.0 * sigma

    def test_cdf_against_incbeta(self):
        # Y ~ Beta(j+1, 2B-1) with j = 3, B = 1.25
        n = 400_000
        draws = sample_beta(4.0, 1.5, n, 13)
        want = reg_inc_beta(0.36, 4.0, 1.5)
        got = float(np.mean(draws <= 0.36))
        sigma = math.sqrt(want * (1.0 - want) / n)
        assert abs(got - want) <= 4.0 * sigma
        # both shapes below one
        draws = sample_beta(0.4, 0.7, n, 14)
        for x in (0.01, 0.3, 0.9, 0.999):
            want = reg_inc_beta(x, 0.4, 0.7)
            got = float(np.mean(draws <= x))
            sigma = math.sqrt(want * (1.0 - want) / n)
            assert abs(got - want) <= 4.0 * sigma

    def test_small_shape_boost_path(self):
        n = 400_000
        draws = sample_beta(0.4, 0.7, n, 14)
        want = 0.4 / 1.1
        sigma = math.sqrt(want * (1.0 - want) / n)  # conservative scale
        assert abs(float(np.mean(draws)) - want) <= 4.0 * sigma
        assert np.all(draws >= 0.0) and np.all(draws <= 1.0)

    def test_deterministic(self):
        a = sample_beta(2.5, 0.9, 5000, 99)
        b = sample_beta(2.5, 0.9, 5000, 99)
        assert np.array_equal(a, b)

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_beta(0.0, 1.0, 10, 1)
        with pytest.raises(DomainError):
            sample_beta(1.0, 1.0, 0, 1)


class TestSeriesControl:
    def test_validation(self):
        with pytest.raises(DomainError):
            SeriesControl(rel_tol=0.0)
        with pytest.raises(DomainError):
            SeriesControl(max_terms=0)

    def test_converged_flag_contract(self):
        res = gauss_2f1(0.5, 0.7, 1.9, 0.3, SeriesControl(rel_tol=1e-10))
        assert res.converged and res.terms_used > 0


def _mp_inc_beta_table(x: float, n: int, b: float) -> np.ndarray:
    """I_x(a, b), a = 1..n, in 40-digit arithmetic: mpmath at a = n, then exact recurrence steps."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        mx, mb = mpmath.mpf(x), mpmath.mpf(b)
        lam = mpmath.betainc(n, mb, 0, mx, regularized=True)
        out = [lam]
        for a in range(n - 1, 0, -1):
            lam += mx ** a * (1 - mx) ** mb / (a * mpmath.beta(a, mb))
            out.append(lam)
        return np.array([float(v) for v in reversed(out)])


class TestRegIncBetaTable:
    # Relative accuracy asked of every entry that float64 represents with
    # full precision: the per-index route and the table both carry the
    # log-gamma prefactor error, about 1e-16 * lgamma(a + b) per step, and
    # the complement route near x = 1 an absolute 1e-16 on values >= 1e-5.
    RTOL = 1e-10
    FLOOR = 1e-290

    @pytest.mark.parametrize("B", [0.51, 0.75, 1.5, 5.0, 10.5])
    @pytest.mark.parametrize("R", [0.1, 0.5, 0.9, 0.95, 0.999])
    def test_matches_per_index_route_and_mpmath(self, B, R):
        x, b, n = R * R, 2.0 * B - 1.0, 401
        table = reg_inc_beta_table(x, n, b)
        per_index = np.array([reg_inc_beta(x, a, b) for a in range(1, n + 1)])
        ref = _mp_inc_beta_table(x, n, b)
        big = ref >= self.FLOOR
        assert big[0]
        assert np.all(np.abs(table[big] - ref[big]) <= self.RTOL * ref[big])
        assert np.all(np.abs(table[big] - per_index[big]) <= 2 * self.RTOL * ref[big])
        assert np.all(table[~big] <= 2 * self.FLOOR)

    def test_top_entry_is_the_continued_fraction(self):
        for n in (1, 7, 64):
            assert reg_inc_beta_table(0.36, n, 2.0)[-1] == reg_inc_beta(0.36, float(n), 2.0)

    def test_decreasing_cdf_values(self):
        table = reg_inc_beta_table(0.998001, 300, 0.02)
        assert np.all(np.diff(table) <= 0.0)
        assert np.all((table >= 0.0) & (table <= 1.0))

    def test_endpoints_and_domain(self):
        assert np.all(reg_inc_beta_table(0.0, 5, 2.0) == 0.0)
        assert np.all(reg_inc_beta_table(1.0, 5, 2.0) == 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta_table(0.5, 0, 2.0)
        with pytest.raises(DomainError):
            reg_inc_beta_table(1.5, 3, 2.0)


# b = 2B - 2m for the basis norms, pmfs and densities, b = 2B - 1 for the Beta steps
WEIGHT_SHAPES = (0.3, 1.02, 1.5, 2.6, 7.3, 20.2, 41.0, 100.6, 101.0)


class TestLogNbWeights:
    @pytest.mark.parametrize("b", WEIGHT_SHAPES)
    def test_matches_exact_rationals(self, b):
        want = np.array(oracles.nb_weights_exact(2000, b))
        assert np.allclose(np.exp(log_nb_weights(2001, b)), want, rtol=1.5e-12, atol=0.0)

    def test_short_tables_and_domain(self):
        assert log_nb_weights(0, 2.0).size == 0
        assert log_nb_weights(1, 2.0).tolist() == [0.0]
        for b in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                log_nb_weights(3, b)


class TestIncBetaSteps:
    def test_negative_binomial_law(self):
        B, p = 1.25, 0.3
        steps = inc_beta_steps(p, 60, 2.0 * B)
        want = [oracles.nb_pmf_direct(j, B, p) for j in range(60)]
        assert np.allclose(steps, want, rtol=1e-13, atol=0.0)
        assert inc_beta_steps(0.0, 4, 2.0).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_steps_are_table_differences(self):
        x, b = 0.49, 3.0
        table = reg_inc_beta_table(x, 30, b)
        steps = inc_beta_steps(x, 30, b)[1:]
        assert np.allclose(table[:-1] - table[1:], steps, rtol=1e-12, atol=0.0)


class TestHorner:
    def test_scalar_and_array_agree_with_powers(self):
        coeffs = np.array([1.0, -2.0 + 1j, 0.5, 3.0j])
        x = np.array([0.3 - 0.1j, -0.7 + 0.2j, 0.0])
        want = np.array([sum(c * p ** k for k, c in enumerate(coeffs)) for p in x])
        assert np.allclose(horner(coeffs, x), want, rtol=1e-15, atol=1e-15)
        assert horner(coeffs, complex(x[1])) == pytest.approx(want[1], rel=1e-15)
        assert horner([], 0.5) == 0.0
