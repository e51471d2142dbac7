import functools
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from nbsloc import specfun
from nbsloc.errors import AccuracyError, ConvergenceError, DomainError
from nbsloc.specfun import (
    appell_f1,
    appell_f3,
    check_index,
    check_indices,
    gauss_2f1,
    jacobi,
    laguerre,
    log_beta,
    log_gamma,
    log_nb_weights,
    horner,
    inc_beta_steps,
    reg_inc_beta,
    reg_inc_beta_table,
    sample_beta,
)

# Integer shapes up to these, where I_x(a, b) is an exact binomial tail
EXACT_A = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 133, 144)
EXACT_B = (1, 2, 3, 5, 8, 13, 21, 34, 47, 55)


def _binomial_tail(a: int, b: int, k: int) -> Fraction:
    """I_x(a, b) at x = k/16 for integer a, b >= 1: P(Binomial(a+b-1, x) >= a), exactly."""
    n = a + b - 1
    return Fraction(sum(math.comb(n, i) * k ** i * (16 - k) ** (n - i) for i in range(a, n + 1)), 16 ** n)


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


class TestLogBeta:
    @pytest.mark.parametrize("a, b", [(1e4, 0.5), (1e6, 40.0), (0.5, 1e4), (512.0, 0.02), (10.0, 3.0), (9.5, 2.0)])
    def test_matches_mpmath(self, a, b):
        # lgamma(a) + lgamma(b) - lgamma(a + b) was 1.5e-11 off at (1e4, 0.5) and 2.8e-9 off at (1e6, 40)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = float(mpmath.log(mpmath.beta(a, b)))
        assert abs(log_beta(a, b) - want) <= 1e-12

    def test_domain(self):
        for a, b in ((0.0, 20.0), (20.0, -1.0), (math.nan, 20.0), (20.0, math.nan)):
            with pytest.raises(DomainError):
                log_beta(a, b)


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
        with pytest.raises(DomainError):  # at once, not after INC_BETA_MAX_ITER steps
            reg_inc_beta(math.nan, 1.0, 2.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 1.0, -2.0)

    @pytest.mark.parametrize("a, b", [(math.inf, 2.0), (2.0, math.inf), (math.nan, 2.0), (2.0, math.nan)])
    def test_non_finite_parameters_rejected(self, a, b):
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, a, b)

    # I_0.36(4, 2e200) takes the complement route, the continued fraction of I_0.64(2e200, 4)
    @pytest.mark.parametrize("x, a, b", [(0.36, 4.0, 2e200), (0.64, 2e200, 4.0)])
    def test_refusal_names_the_callers_arguments(self, x, a, b):
        with pytest.raises(ConvergenceError, match=re.escape(f"at a={a}, b={b}, x={x}")):
            reg_inc_beta(x, a, b)

    def test_exact_binomial_tails(self):
        # worst relative error over every a <= 144, b <= 55, x = k/16: 3.3e-13 (a = 133, b = 8, x = 15/16)
        for a, b, k in itertools.product(EXACT_A, EXACT_B, range(1, 16)):
            want = _binomial_tail(a, b, k)
            assert abs(Fraction(reg_inc_beta(k / 16, float(a), float(b))) - want) <= 1e-12 * want

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
                table = laguerre(range(61), alpha, x)
                for t in (0.1, 0.4):
                    partial = sum(t ** j * value for j, value in enumerate(table.tolist()))
                    closed = (1.0 - t) ** (-alpha - 1.0) * math.exp(-t * x / (1.0 - t))
                    assert partial == pytest.approx(closed, rel=1e-13)

    @pytest.mark.parametrize("indices", [range(0, 61), range(0, 1), range(1, 2), range(7, 40, 4), range(30, 2, -3)])
    @pytest.mark.parametrize("x", [0.5, 2.0, np.linspace(0.01, 60.0, 23), np.array([[0.3, 7.0], [19.0, 0.0]])])
    def test_range_rows_equal_their_index_calls(self, indices, x):
        for alpha in (-0.5, 0.0, 3.0, 40.0):
            rows = laguerre(indices, alpha, x)
            assert rows.shape == (len(indices), *np.shape(x))
            for row, j in zip(rows, indices):
                assert np.array_equal(row, laguerre(j, alpha, x))

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

    @pytest.mark.parametrize("args", [(0.5, 1.0, math.nan, 0.3), (math.nan, 1.0, 2.0, 0.3), (0.5, math.inf, 2.0, 0.3),
                                      (0.5, 1.0, 2.0, complex(0.3, math.nan))])
    def test_non_finite_input_is_a_domain_error(self, args):
        # a NaN passes |z| > 1 and the pole tests; it used to end in ConvergenceError "at term 1"
        with pytest.raises(DomainError, match="finite"):
            gauss_2f1(*args)

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

    @pytest.mark.parametrize("z", [0.99, 0.6 + 0.7j, -0.98])
    def test_overflowing_terms_refused_at_once(self, z):
        # the terms pass the float range within a few hundred; the sum used to run on inf and nan to the cap
        with pytest.raises(ConvergenceError, match="left the float range at term") as err:
            gauss_2f1(300.0, 300.0, 0.5, z)
        assert 0 < err.value.terms_used < 1000


def _block_cases():
    """(a, b, c, z): a seeded grid with real and complex z, terminating series, c-pole cases, approach points."""
    rng = np.random.default_rng(19)
    cases = [(0.3, 1.2, 2.5, 0.0), (-2.0, 1.0, -3.0, 0.7), (-2.0, 0.8, -2.0, 0.5), (-5.0, 1.3, -7.0, 0.4 + 0.3j),
             (-3.0, 2.5, -3.0, -0.9j), (0.0, 1.5, -4.0, 0.5)]
    cases += [(-0.5, 1.0, 2.0, 1.0 - 10.0 ** -k) for k in range(2, 6)]
    for i in range(160):
        a, b, c = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(0.1, 4.0)
        if i % 4 == 0:
            a = -float(rng.integers(0, 25))
        z = rng.uniform(0.0, 0.999) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        cases.append((float(a), float(b), float(c), complex(z.real, 0.0) if i % 3 == 0 else complex(z)))
    return cases


class TestGauss2F1Blocks:
    """The block sum against the loop that sums one term at a time, with the same stopping rule."""

    @pytest.mark.parametrize("a, b, c, z", _block_cases())
    def test_matches_the_sequential_sum(self, a, b, c, z):
        got = gauss_2f1(a, b, c, z)
        want, terms_used, size = oracles.gauss_2f1_sequential(a, b, c, z, specfun)
        assert got.terms_used == terms_used
        # relative to the sum of the terms' moduli: where terms cancel, both sums carry rounding of that size
        assert abs(got.value - want) <= 1e-14 * size

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_approach_points_sum_their_terms_exactly(self, k):
        z = 1.0 - 10.0 ** -k
        got = gauss_2f1(-0.5, 1.0, 2.0, z)
        want = oracles.hypergeometric_partial_sum_exact(-0.5, 1.0, 2.0, z, got.terms_used)
        assert abs(got.value.real / want - 1.0) <= 1e-13 and got.value.imag == 0.0

    @pytest.mark.xfail(strict=True, reason="the stopping rule bounds the last terms, not the tail: near z = 1 "
                                           "2F1 stops 1.8e-8 short of its value (ROADMAP item 2)")
    def test_approach_point_meets_the_series_tolerance(self):
        mpmath = pytest.importorskip("mpmath")
        z = 1.0 - 1e-5
        with mpmath.workdps(30):
            want = float(mpmath.hyp2f1(-0.5, 1, 2, mpmath.mpf(z)))
        assert abs(gauss_2f1(-0.5, 1.0, 2.0, z).value.real / want - 1.0) <= 1e-12

    @pytest.mark.parametrize("cap", [40, 64, 100, 200])
    @pytest.mark.parametrize("a, b, c, z", [(0.5, 0.5, 1.5, 0.999), (-99.0, 0.5, 1.5, -0.5), (-100.0, 0.5, 1.5, -0.5),
                                            (-150.0, 0.5, 1.5, -0.5), (0.5, 0.7, 1.9, 0.3)])
    def test_term_cap_read_at_call_time(self, monkeypatch, cap, a, b, c, z):
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", cap)
        want = oracles.gauss_2f1_sequential(a, b, c, z, specfun)
        if want is None:
            with pytest.raises(ConvergenceError, match=f"within {cap} terms") as err:
                gauss_2f1(a, b, c, z)
            assert err.value.terms_used == cap
        else:
            got = gauss_2f1(a, b, c, z)
            assert got.terms_used == want[1] <= cap
            assert abs(got.value - want[0]) <= 1e-14 * want[2]


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
        # j <= 1: F1 = 2F1(a, b2; c; v) + b1 u (a/c) 2F1(a+1, b2; c+1; v)
        hyp2f1 = pytest.importorskip("scipy.special").hyp2f1
        want = hyp2f1(0.5, 0.7, 2.0, 0.2) - 3.0 * 0.5 / 2.0 * hyp2f1(1.5, 0.7, 3.0, 0.2)
        assert got.value == pytest.approx(want, rel=1e-12)

    def test_whole_termination_at_c_pole(self):
        # a == c == -1: only anti-diagonals n <= 1 survive, with unit ratios
        u, v, b1, b2 = 0.3, 0.2, 0.7, 1.1
        res = appell_f1(-1.0, b1, b2, -1.0, u, v)
        assert res.value == pytest.approx(1.0 + b1 * u + b2 * v, rel=1e-14)

    def test_domain_and_convergence_errors(self, monkeypatch):
        with pytest.raises(DomainError):
            appell_f1(0.5, 0.5, 0.5, 2.0, 1.2, 0.1)
        with pytest.raises(DomainError):
            appell_f1(0.5, 0.5, 0.5, -1.0, 0.1, 0.1)
        for args in ((0.5, 0.5, 0.5, 2.0, math.nan, 0.1), (0.5, 0.5, 0.5, 2.0, 0.1, complex(math.nan, 0.2)),
                     (math.nan, 0.5, 0.5, 2.0, 0.1, 0.1), (0.5, 0.5, -math.inf, 2.0, 0.1, 0.1)):
            # it used to end in ConvergenceError "terms left the float range at anti-diagonal 1"
            with pytest.raises(DomainError, match="finite"):
                appell_f1(*args)
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 5)
        with pytest.raises(ConvergenceError) as err:
            appell_f1(0.5, 0.5, 0.5, 2.0, 0.95, 0.9)
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
        for args in ((0.5, 0.5, 0.5, 0.5, 2.0, 0.1, math.nan), (0.5, 0.5, 0.5, 0.5, math.nan, 0.1, 0.2),
                     (0.5, math.inf, 0.5, 0.5, 2.0, 0.1, 0.2)):
            with pytest.raises(DomainError, match="finite"):
                appell_f3(*args)

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
        assert res.value == pytest.approx(self._terminating(b1, b2, c, u, v), rel=1e-14)

    def test_c_pole_beyond_last_anti_diagonal(self):
        # the last nonzero anti-diagonal is 3, so (c)_n never vanishes for c = -3
        b1, b2, u, v = 0.7, 1.3, 0.4, 0.3
        res = appell_f3(-1.0, -2.0, b1, b2, -3.0, u, v)
        assert math.isfinite(abs(res.value))
        assert res.value == pytest.approx(self._terminating(b1, b2, -3.0, u, v), rel=1e-14)
        with pytest.raises(DomainError):
            appell_f3(-1.0, -2.0, b1, b2, -2.0, u, v)

    def test_large_arguments_match_oracle_or_refuse(self):
        # row and column products grow like j! u^j while the front 1/(c)_n falls like 1/n!, and the
        # sum needs about 450 anti-diagonals: past about 170 a plain product overflows.  A value
        # may leave a geometric tail of about SERIES_REL_TOL / (1 - u) = 2e-11 behind.
        args = (0.5, 0.5, 0.5, 0.5, 2.0, 0.95, 0.9)
        try:
            got = appell_f3(*args).value
        except ConvergenceError:
            return
        assert got == pytest.approx(oracles.appell_f3_rowwise(*args, rows=1000), rel=1e-10)

    @pytest.mark.xfail(strict=True, reason="the terms cancel (their moduli sum to 1.4e13) and no stop rule measures "
                                           "that: 1.2e-3 off without raising (ROADMAP items 1 and 20)")
    def test_cancelling_terms_meet_the_series_tolerance_or_refuse(self):
        # kernel_closed-style parameters near B = 9; the value was 3.6e-4 off before the Cauchy-product driver
        mpmath = pytest.importorskip("mpmath")
        args = (-17.607366513125747, -18.607366513125747, 19.607366513125747, -17.307366513125746, 2.0,
                0.5870160122129761, 0.6643502700165451 + 0.033459594085376076j)
        try:
            got = appell_f3(*args).value
        except (ConvergenceError, AccuracyError):
            return
        with mpmath.workdps(60):
            want = complex(mpmath.appellf3(*args))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_convergence_error(self, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 5)
        with pytest.raises(ConvergenceError) as err:
            appell_f3(0.5, 0.5, 0.5, 0.5, 2.0, 0.95, 0.9)
        assert err.value.terms_used > 0


def _outcome(call):
    """The HypergeomResult of a call, or (type, message, terms_used) of the error it raised."""
    try:
        return call()
    except (ConvergenceError, DomainError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "terms_used", None)


def _absolute_terms(row_params, col_params, front_num, front_den, u, v, n):
    """1 + sum_(m <= n) |front_m| sum_j |row_j| |col_(m-j)|: the absolute convolution of n anti-diagonals."""
    k = np.arange(1.0, n + 1.0)
    row, col = (np.cumprod(np.r_[1.0, np.abs(np.prod([p + k - 1.0 for p in params], axis=0) / k * z)])
                for params, z in ((row_params, u), (col_params, v)))
    front = np.abs(np.cumprod(np.prod([p + k - 1.0 for p in front_num], axis=0)
                              / np.prod([p + k - 1.0 for p in front_den], axis=0)))
    return 1.0 + float(np.sum(front * np.convolve(row, col)[1:n + 1]))


_FLOAT_RANGE = re.compile(r"terms left the float range at anti-diagonal (\d+)$")


class TestAntiDiagonalDriver:
    """appell_f1 and appell_f3 against the anti-diagonal loop they replaced (``oracles.anti_diagonal_sum_loop``).

    The Cauchy-product driver rounds each block in n steps where the loop summed it exactly, so the
    contract is a budget fixed before the run, not equal bits: a value after n anti-diagonals lies within
    (n + 2) eps sum|terms| of the loop's, sum|terms| being the absolute convolution, with the loop's
    terms_used and a builtin complex and int.  Errors keep the loop's type, text and terms_used, but for
    one shift: where F3's rows leave the float range the loop overflowed in row_(n-1) (p + n - 1) before
    dividing by n, so the driver raises at the loop's anti-diagonal or the next one.
    """

    @staticmethod
    def _check(monkeypatch, function, cases):
        """Compare every case with the loop; return the outcome kinds and the float-range shifts."""
        calls, kinds, shifts = [], [], []

        def loop(*args):
            calls.append(args[1:])
            return oracles.anti_diagonal_sum_loop(specfun, *args)

        for args in cases:
            got = _outcome(lambda: function(*args))
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(specfun, "_anti_diagonal_sum", loop)
                want = _outcome(lambda: function(*args))
            if isinstance(want, tuple):
                kinds.append(want[0])
                assert isinstance(got, tuple) and got[0] == want[0], (args, got, want)
                match = _FLOAT_RANGE.search(want[1])
                if match is None:
                    assert got == want, args
                    continue
                n_want, n_got = int(match[1]), int(_FLOAT_RANGE.search(got[1])[1])
                assert got[1] == want[1].replace(f" {n_want}", f" {n_got}") and n_got in (n_want, n_want + 1)
                assert got[2] == n_got * (n_got + 1) // 2
                shifts.append(n_got - n_want)
                continue
            kinds.append("value")
            assert type(got.value) is complex and type(got.terms_used) is int, args
            assert got.terms_used == want.terms_used, args
            n = (math.isqrt(8 * want.terms_used + 1) - 3) // 2  # terms_used = (n + 1)(n + 2) / 2
            budget = (n + 2) * np.finfo(float).eps * _absolute_terms(*calls[0], n)
            assert abs(got.value - want.value) <= budget, (args, abs(got.value - want.value), budget)
        return kinds, shifts

    @staticmethod
    def _point(rng, radius):
        return complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))

    def test_f1_draws(self, monkeypatch):
        rng = np.random.default_rng(2701)
        cases = []
        for _ in range(60):
            a, b1, b2 = rng.uniform(-4.0, 4.0, 3)
            cases.append((a, b1, b2, rng.uniform(0.3, 5.0), self._point(rng, 0.65), self._point(rng, 0.65)))
        for _ in range(20):  # the kernel's parameters: (2 - 2B; 1 - 2B, 2B; 2; s, s x)
            B, s = rng.uniform(0.51, 6.0), rng.uniform(0.05, 0.95)
            cases.append((2.0 - 2.0 * B, 1.0 - 2.0 * B, 2.0 * B, 2.0, s, s * self._point(rng, 0.6)))
        for _ in range(20):  # terminating indices (n_stop), where |u| or |v| may pass 1
            a, b1, b2 = (float(-rng.integers(0, 6)) if rng.random() < 0.5 else rng.uniform(-3.0, 3.0)
                         for _ in range(3))
            cases.append((a, b1, b2, rng.uniform(0.5, 4.0), self._point(rng, 1.5), self._point(rng, 0.6)))
        # a c pole beyond the last anti-diagonal, and the whole termination at the pole itself
        cases += [(-2.0, 0.7, 1.1, -3.0, 0.3 + 0.1j, 0.2), (-1.0, 0.7, 1.1, -1.0, 0.3, 0.2),
                  (0.5, -1.0, -2.0, -4.0, 2.5, -1.5j)]
        kinds, shifts = self._check(monkeypatch, appell_f1, cases)
        assert len(kinds) == 103 and kinds.count("value") >= 90 and "DomainError" in kinds and not shifts

    def test_f3_draws_and_overflowing_rows(self, monkeypatch):
        rng = np.random.default_rng(2702)
        cases = []
        for _ in range(40):
            a, a2, b1, b2 = rng.uniform(-3.0, 3.0, 4)
            cases.append((a, a2, b1, b2, rng.uniform(0.3, 5.0), self._point(rng, 0.6), self._point(rng, 0.6)))
        for _ in range(6):  # rows that grow like j! u^j past the float range
            u, v = rng.uniform(0.9, 0.97, 2)
            cases.append((*rng.uniform(0.4, 0.6, 4), 2.0, u, v))
        cases += [(0.5, 0.5, 0.5, 0.5, 2.0, 0.95, 0.9),  # overflows near anti-diagonal 170
                  (-1.0, -2.0, 0.7, 1.3, 2.5, 1.5, -2.0),  # doubly terminating, |u|, |v| > 1
                  (-1.0, -2.0, 0.7, 1.3, -3.0, 0.4, 0.3)]  # a c pole beyond the last anti-diagonal
        kinds, shifts = self._check(monkeypatch, appell_f3, cases)
        assert len(kinds) == 49 and kinds.count("value") >= 40
        assert kinds.count("ConvergenceError") == len(shifts) == 6 and 1 in shifts

    def test_convergence_errors(self, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 7)
        cases = [(appell_f1, (0.5, 0.5, 0.5, 2.0, 0.95, 0.9)), (appell_f3, (0.5, 0.5, 0.5, 0.5, 2.0, 0.95, 0.9))]
        for function, args in cases:
            kinds, _ = self._check(monkeypatch, function, [args])
            assert kinds == ["ConvergenceError"]
            with pytest.raises(ConvergenceError, match="within 7 anti-diagonals"):
                function(*args)

    def test_index_symmetry_is_bit_exact(self):
        # F1(a; b1, b2; c; u, v) = F1(a; b2, b1; c; v, u) and F3 likewise, to the last bit, signed zeros too;
        # every fifth draw ties the parameters and the points up to the sign of a zero part
        rng = np.random.default_rng(2703)

        def bits(result):
            return result.value.real.hex(), result.value.imag.hex(), result.terms_used

        for i in range(50):
            a, a2, b1, b2 = rng.uniform(-2.0, 2.0, 4)
            c = rng.uniform(0.5, 4.0)
            u, v = self._point(rng, 0.6), self._point(rng, 0.6)
            if i % 5 == 0:
                x = rng.uniform(-0.6, 0.6)
                a2, b2 = a, b1
                u, v = (complex(x, 0.0), complex(x, -0.0)) if i % 10 == 0 else (complex(0.0, x), complex(-0.0, x))
            assert bits(appell_f1(a, b1, b2, c, u, v)) == bits(appell_f1(a, b2, b1, c, v, u)), i
            assert bits(appell_f3(a, a2, b1, b2, c, u, v)) == bits(appell_f3(a2, a, b2, b1, c, v, u)), i

    def test_doubling_past_128_anti_diagonals_matches_mpmath(self):
        # the F1 of kernel_closed at B = 1.7, R = 0.95, z = 0.6+0.6j, w = -0.6+0.6j: 210 anti-diagonals, so
        # the block length doubles from 64 to 256; 400 anti-diagonals in mpmath leave a tail below 1e-18
        pytest.importorskip("mpmath")
        B, s, x = 1.7, 0.95 ** 2, complex(0.6, -0.6) * complex(-0.6, 0.6)
        args = (2.0 - 2.0 * B, 1.0 - 2.0 * B, 2.0 * B, 2.0, s, s * (1.0 - x) / (1.0 - s * x))
        got = appell_f1(*args)
        assert got.terms_used == 211 * 212 // 2
        want = oracles.appell_f1_mpmath(*args)
        assert abs(got.value - want) <= 1e-10 * abs(want)


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
    """The fixed series accuracy: module constants, read at call time."""

    def test_converged_flag_contract(self, monkeypatch):
        default = gauss_2f1(0.5, 0.7, 1.9, 0.3)
        monkeypatch.setattr(specfun, "SERIES_REL_TOL", 1e-10)
        res = gauss_2f1(0.5, 0.7, 1.9, 0.3)
        assert res.terms_used > 0
        assert res.terms_used < default.terms_used
        assert res.value == pytest.approx(default.value, rel=1e-9)


class TestCheckIndex:
    def test_integral_values_accepted(self):
        for value in (0, 3, 3.0, np.int64(3), np.float64(2.0)):
            got = check_index("j", value)
            assert got == int(value) and type(got) is int

    @pytest.mark.parametrize("value", [-1, 1.5, -0.5, math.nan, math.inf, "3", None, 1j])
    def test_others_raise_domain_error(self, value):
        with pytest.raises(DomainError, match="needs j >= 0"):
            check_index("j", value)

    @pytest.mark.parametrize("indices", [range(0), range(5), range(3, 40, 7), range(9, -1, -3), range(4, 4),
                                         range(2**21)])
    def test_range_passes_as_it_is(self, indices):
        # each index was checked and copied into a list: 127 us at range(401), 0.59 s at range(2**21)
        assert check_indices("j", indices) is indices

    @pytest.mark.parametrize("indices, first", [(range(-1, 3), -1), (range(3, -5, -2), -1), (range(2, -2, -1), -1),
                                                (range(-4, 0), -4), (range(7, -50, -5), -3), (range(-2**62, 0), -2**62),
                                                (range(2**21, -2, -1), -1)])
    def test_range_refused_at_its_first_negative_index(self, indices, first):
        with pytest.raises(DomainError) as err:
            check_indices("j", indices)
        assert str(err.value) == f"needs j >= 0 and integral, got j={first}"

    def test_single_index_is_a_checked_list(self):
        assert check_indices("k", np.int64(3)) == [3] and type(check_indices("k", 3.0)[0]) is int
        with pytest.raises(DomainError, match="needs k >= 0"):
            check_indices("k", -1)


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
    # full precision: the per-index route and each block top carry the
    # rounding of reg_inc_beta's prefactor, whose log_beta cancels no large
    # log-gamma values; measured at most 1.9e-13 for the table and 5.6e-13
    # per index here (3.9e-11 and 8.4e-11 with lgamma differences in log_beta).
    RTOL = 1e-12
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

    def test_exact_binomial_tails(self):
        # worst relative error over every a <= 144, b <= 55, x = k/16: 2.6e-13 (a = 144, b = 47, x = 2/16)
        for b, k in itertools.product(EXACT_B, range(1, 16)):
            table = reg_inc_beta_table(k / 16, 144, float(b))
            for a in range(1, 145):
                want = _binomial_tail(a, b, k)
                assert abs(Fraction(float(table[a - 1])) - want) <= 1e-12 * want

    @pytest.mark.parametrize("x, b", [(0.36, 2.0), (0.999, 2.5), (0.998001, 0.02)])
    def test_block_tops_are_the_continued_fraction_and_prefixes_the_short_table(self, x, b):
        specfun._inc_beta_blocks.cache_clear()
        long = reg_inc_beta_table(x, 4096, b)
        for top in (512, 1024, 2048, 4096):
            assert long[top - 1] == reg_inc_beta(x, float(top), b)
        for n in (1, 7, 64, 511, 512, 513, 1500, 2048):
            specfun._inc_beta_blocks.cache_clear()  # each table built anew at its own size
            assert reg_inc_beta_table(x, n, b).tolist() == long[:n].tolist()

    @pytest.mark.parametrize("B, R", [(50.0, 0.999), (0.51, 0.9), (1.5, 0.99), (20.0, 0.99), (20.0, 0.9)])
    def test_whole_table_sums_to_the_photon_count_mean(self, B, R):
        # lambda_j = I_{R^2}(j+1, 2B-1) = P(N > j) for N negative binomial of shape 2B-1 at R^2, so the
        # table sums to E N = (2B-1) R^2 / (1-R^2), across every block seam; worst 1.1e-14 at (50, 0.999)
        x, b = R * R, 2.0 * B - 1.0
        table, mean = reg_inc_beta_table(x, 1 << 17, b), b * x / (1.0 - x)
        assert table[-1] / (1.0 - x) <= 1e-20 * mean  # bounds the neglected tail
        assert abs(math.fsum(table.tolist()) - mean) <= 2e-14 * mean

    def test_decreasing_cdf_values(self):
        table = reg_inc_beta_table(0.998001, 300, 0.02)
        assert np.all(np.diff(table) <= 0.0)
        assert np.all((table >= 0.0) & (table <= 1.0))

    def test_endpoints_and_domain(self):
        assert np.all(reg_inc_beta_table(0.0, 5, 2.0) == 0.0)
        assert np.all(reg_inc_beta_table(1.0, 5, 2.0) == 1.0)
        for x, n, b in ((0.5, 0, 2.0), (1.5, 3, 2.0), (math.nan, 3, 2.0), (0.5, 3, 0.0), (0.5, 1.5, 2.0)):
            with pytest.raises(DomainError):
                reg_inc_beta_table(x, n, b)

    def test_views_of_one_read_only_table(self):
        short, long = reg_inc_beta_table(0.49, 12, 2.0), reg_inc_beta_table(0.49, 400, 2.0)
        assert np.shares_memory(short, long) and not short.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            long[0] = 0.5


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
