"""Series arithmetic and the two construction routes for each family."""

import random

import pytest

from dominotowers import recurrences
from dominotowers.series import (
    CLOSED_FORM,
    FUNCTIONAL,
    MAX_CLOSED_FORM_B,
    GeometricFactor,
    SubsetBlowup,
    TruncatedSeries,
    build_C,
    build_G,
    build_H,
    build_R,
)


def geo(a, lam, order):
    return GeometricFactor(a, lam).apply(TruncatedSeries.constant(1, order))


def random_series(rng, order):
    return TruncatedSeries(tuple(rng.randint(-9, 9) for _ in range(order + 1)))


def naive_apply(factor, s):
    """s convolved with the literal expansion lam^(j-1) at x^(a*j)."""
    out = [0] * (s.order + 1)
    for j in range(1, s.order // factor.a + 1):
        weight = factor.lam ** (j - 1)
        for n in range(factor.a * j, s.order + 1):
            out[n] += weight * s.coeffs[n - factor.a * j]
    return tuple(out)


class TestArithmetic:
    def test_square_of_geometric(self):
        s = geo(1, 1, 4)
        assert GeometricFactor(1, 1).apply(s).coeffs == (0, 0, 1, 2, 3)

    def test_result_order_is_min_of_operands(self):
        a = TruncatedSeries((1, 2, 3))
        b = TruncatedSeries((1, 1, 1, 1, 1))
        assert (a + b).order == 2

    def test_series_product_is_rejected(self):
        s = TruncatedSeries((1, 1, 0))
        with pytest.raises(TypeError):
            s * s

    def test_scalar_operations(self):
        s = TruncatedSeries((0, 1, 2))
        assert (s + 1).coeffs == (1, 1, 2)
        assert (3 * s).coeffs == (0, 3, 6)
        assert (s - 1).coeffs == (-1, 1, 2)

    def test_distributivity_on_random_polynomials(self):
        rng = random.Random(20160828)
        for _ in range(25):
            f = GeometricFactor(rng.randint(1, 5), rng.choice((1, 2)))
            a, b = random_series(rng, 12), random_series(rng, 12)
            assert f.apply(a + b) == f.apply(a) + f.apply(b)

    def test_coefficient_access(self):
        s = TruncatedSeries((5, 6, 7))
        assert s.coefficient(2) == 7
        with pytest.raises(IndexError):
            s.coefficient(3)

    def test_truncate(self):
        s = TruncatedSeries((1, 2, 3, 4))
        assert s.truncate(1).coeffs == (1, 2)
        with pytest.raises(ValueError):
            s.truncate(9)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(())


class TestGeometricFactor:
    def test_plain_geometric(self):
        assert geo(1, 1, 4).coeffs == (0, 1, 1, 1, 1)

    def test_doubling_geometric(self):
        assert geo(2, 2, 6).coeffs == (0, 0, 1, 0, 2, 0, 4)

    def test_below_first_exponent(self):
        assert geo(3, 1, 2).coeffs == (0, 0, 0)

    def test_apply_matches_naive_convolution(self):
        rng = random.Random(20160828)
        for a in range(1, 6):
            for lam in (1, 2):
                factor = GeometricFactor(a, lam)
                for order in range(13):
                    s = random_series(rng, order)
                    assert factor.apply(s).coeffs == naive_apply(factor, s)

    def test_validation(self):
        with pytest.raises(ValueError):
            GeometricFactor(0, 1)
        with pytest.raises(ValueError):
            GeometricFactor(1, 3)


class TestBuilders:
    def test_supporting_series_base_one_is_zero(self):
        assert build_G(1, 10).coeffs == (0,) * 11

    def test_supporting_series_base_two(self):
        assert build_G(2, 5).coeffs == (0, 1, 1, 1, 1, 1)

    def test_supporting_series_matches_recurrence(self):
        s = build_G(4, 12)
        assert s.coefficient(8) == recurrences.g(4, 8)

    def test_stack_series_base_one(self):
        assert build_H(1, 5).coeffs == (0, 1, 1, 1, 1, 1)

    def test_stack_series_spot_value(self):
        assert build_H(3, 8).coefficient(5) == 8

    def test_skew_series_base_one(self):
        assert build_R(1, 5).coeffs == (0, 0, 1, 3, 7, 15)

    def test_skew_series_spot_value(self):
        assert build_R(2, 8).coefficient(5) == 12

    def test_convex_series_base_one(self):
        assert build_C(1, 4).coeffs == (0, 1, 3, 7, 15)

    def test_convex_series_spot_values(self):
        assert build_C(4, 10).coefficient(10) == 531
        column3 = [build_C(3, 10).coefficient(n) for n in range(3, 11)]
        assert column3 == [1, 7, 17, 49, 115, 258, 551, 1163]

    def test_methods_agree(self):
        for b in range(1, MAX_CLOSED_FORM_B + 1):
            assert build_H(b, 30, CLOSED_FORM) == build_H(b, 30, FUNCTIONAL)
            assert build_R(b, 30, CLOSED_FORM) == build_R(b, 30, FUNCTIONAL)

    def test_series_match_recurrences(self):
        for b in range(1, 9):
            gs = build_G(b, 30)
            hs = build_H(b, 30)
            rs = build_R(b, 30)
            cs = build_C(b, 30)
            for n in range(0, 31):
                assert gs.coefficient(n) == recurrences.g(b, n)
                assert hs.coefficient(n) == recurrences.h(b, n)
                assert rs.coefficient(n) == recurrences.r(b, n)
                assert cs.coefficient(n) == recurrences.c(b, n)

    def test_truncation_consistency(self):
        for b in (1, 2, 4):
            for build in (build_G, build_H, build_R, build_C):
                assert build(b, 40).truncate(25) == build(b, 25)

    def test_coefficients_non_negative(self):
        for b in range(1, 7):
            for build in (build_G, build_H, build_R, build_C):
                assert min(build(b, 25).coeffs) >= 0

    def test_subset_blowup(self):
        with pytest.raises(SubsetBlowup):
            build_H(13, 5, CLOSED_FORM)
        with pytest.raises(SubsetBlowup):
            build_R(13, 5, CLOSED_FORM)
        build_H(13, 5, FUNCTIONAL)  # the production path has no such limit

    def test_method_validation(self):
        with pytest.raises(ValueError):
            build_H(2, 5, "quadrature")
        with pytest.raises(ValueError):
            build_G(0, 5)
