"""Exact rational asymptotics and their display-boundary formatting.

The reference theta table prints one internally inconsistent pair of cells
at b=5: the coarse estimate row should hold 3.46/16 = 0.21625 (printed
0.21675) and the error row 0.00369 (printed 0.00319).  The computation here
is the honest one; the discrepancy itself is asserted so it stays visible.

The integer kernels (theta_exact, limit_constant_fraction, decimal_digits,
format_fixed) are also compared with per-factor Fraction and digit-by-digit
references written out below, one step per factor or digit.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dominotowers.asymptotics import (
    UnsupportedB,
    approx_theta,
    convergence_report,
    decimal_digits,
    denominator_derivative_at_half,
    limit_constant_digits,
    limit_constant_fraction,
    numerator_bar_at_half,
    numerator_hat_at_half,
    theta_exact,
    theta_from_parts,
)
from dominotowers.render import format_fixed
import references


def reference_theta(b):
    """The docstring product and sum, one Fraction per factor and term."""
    value = Fraction(1, 2 ** (b - 1))
    for k in range(1, b):
        value *= Fraction(2 ** k, 2 ** k - 1)
    tail = Fraction(1)
    for i in range(0, b - 1):
        prod = 1
        for k in range(i + 1, b):
            prod *= 2 ** k - 1
        tail += Fraction(1, prod)
    return value * tail


def reference_limit_product(terms):
    value = Fraction(1)
    for k in range(1, terms + 1):
        value *= Fraction(2 ** k, 2 ** k - 1)
    return value


def reference_digits(value, count):
    """Long division, one divmod per digit, integer part first."""
    whole, rem = divmod(value.numerator, value.denominator)
    digits = str(whole)
    while len(digits) < count:
        rem *= 10
        d, rem = divmod(rem, value.denominator)
        digits += str(d)
    return digits[:count]


def reference_fixed(value, decimals):
    """Round half up on the scaled Fraction abs(value) * 10^decimals."""
    sign = "-" if value < 0 else ""
    scaled = abs(value) * 10 ** decimals
    units, rem = divmod(scaled.numerator, scaled.denominator)
    if 2 * rem >= scaled.denominator:
        units += 1
    text = str(units).rjust(decimals + 1, "0")
    if decimals == 0:
        return sign + text
    return f"{sign}{text[:-decimals]}.{text[-decimals:]}"


class TestThetaExact:
    def test_known_values(self):
        assert theta_exact(2) == 2
        assert theta_exact(3) == Fraction(10, 9)
        assert theta_exact(4) == Fraction(208, 441)

    def test_rounded_row(self):
        rounded = [format_fixed(theta_exact(b), 5) for b in range(2, 11)]
        assert rounded == [
            "2.00000", "1.11111", "0.47166", "0.21994", "0.10853",
            "0.05414", "0.02706", "0.01353", "0.00676",
        ]

    def test_rejects_base_one(self):
        with pytest.raises(UnsupportedB):
            theta_exact(1)
        with pytest.raises(UnsupportedB):
            theta_from_parts(1)

    @pytest.mark.parametrize("b", [*range(2, 65), 100, 128])
    def test_matches_per_factor_reference(self, b):
        assert theta_exact(b) == reference_theta(b)


class TestAssemblyParts:
    def test_denominator_derivative(self):
        assert denominator_derivative_at_half(2) == Fraction(-3, 16)
        assert denominator_derivative_at_half(3) == Fraction(-189, 2048)
        for b in range(2, 17):
            assert denominator_derivative_at_half(b) < 0

    def test_skew_stack_numerator(self):
        assert numerator_hat_at_half(1) == Fraction(1, 2)
        assert numerator_hat_at_half(2) == Fraction(3, 16)
        assert numerator_hat_at_half(3) == Fraction(21, 256)

    def test_supporting_numerator(self):
        assert numerator_bar_at_half(1) == 1
        assert numerator_bar_at_half(2) == 1
        assert numerator_bar_at_half(3) == Fraction(5, 8)

    def test_assembled_theta_equals_closed_form(self):
        for b in range(2, 65):
            assert theta_from_parts(b) == theta_exact(b)


class TestLimitConstant:
    def test_single_term(self):
        assert limit_constant_fraction(1) == 2

    def test_matches_per_factor_reference(self):
        for terms in range(1, 201):
            assert limit_constant_fraction(terms) == reference_limit_product(terms)

    def test_partial_products_increase_and_stay_bounded(self):
        bound = Fraction(34627466196, 10 ** 10)
        previous = Fraction(0)
        for terms in range(1, 81):
            value = limit_constant_fraction(terms)
            assert previous < value < bound
            previous = value

    def test_first_digits(self):
        assert limit_constant_digits(10) == "3462746619"
        assert limit_constant_digits(13) == "3462746619455"

    def test_three_significant_figures(self):
        assert format_fixed(limit_constant_fraction(64), 2) == "3.46"

    def test_decimal_digit_helper(self):
        assert decimal_digits(Fraction(1, 8), 5) == "01250"
        assert decimal_digits(Fraction(22, 7), 6) == "314285"
        with pytest.raises(ValueError):
            decimal_digits(Fraction(-1, 2), 3)

    def test_decimal_digits_match_long_division(self):
        rng = random.Random(12)
        values = [Fraction(0), Fraction(1), Fraction(1, 8), Fraction(10, 3),
                  Fraction(123456789, 1000), limit_constant_fraction(90)]
        for _ in range(200):
            den = rng.randrange(1, 10 ** rng.randrange(1, 60))
            values.append(Fraction(rng.randrange(0, 10 ** rng.randrange(1, 60)), den))
        for value in values:
            for count in range(1, 81):
                assert decimal_digits(value, count) == reference_digits(value, count)


class TestEstimateRows:
    def test_estimate_values(self):
        assert approx_theta(2) == Fraction(173, 100)
        assert approx_theta(5) == Fraction(173, 800)

    def test_rounded_estimate_and_error_rows(self):
        estimates = [format_fixed(approx_theta(b), 5) for b in range(2, 11)]
        errors = [
            format_fixed(abs(theta_exact(b) - approx_theta(b)), 5)
            for b in range(2, 11)
        ]
        assert estimates == [
            "1.73000", "0.86500", "0.43250", "0.21625", "0.10813",
            "0.05406", "0.02703", "0.01352", "0.00676",
        ]
        assert errors == [
            "0.27000", "0.24611", "0.03916", "0.00369", "0.00040",
            "0.00008", "0.00003", "0.00001", "0.00001",
        ]

    def test_reference_table_known_inconsistency_at_b5(self):
        printed = references.theta_table()
        assert printed["estimate"][3] == "0.21675"
        assert printed["error"][3] == "0.00319"
        assert format_fixed(approx_theta(5), 5) == "0.21625"
        assert format_fixed(abs(theta_exact(5) - approx_theta(5)), 5) == "0.00369"

    def test_estimate_converges_to_theta(self):
        for b in range(7, 17):
            assert abs(theta_exact(b) - approx_theta(b)) < Fraction(1, 10 ** 4)


class TestConvergence:
    def test_report_fields(self):
        report = convergence_report(3, 60)
        assert report.ratio == Fraction(__import__("dominotowers").c(3, 60), 2 ** 60)
        assert report.theta == Fraction(10, 9)
        assert report.estimate == Fraction(173, 200)
        assert report.estimate_error == abs(Fraction(10, 9) - Fraction(173, 200))

    def test_ratio_converges(self):
        report = convergence_report(3, 60)
        assert report.relative_error < Fraction(1, 10 ** 6)

    def test_growth_rate_approaches_two(self):
        from dominotowers import c

        growth = Fraction(c(3, 61), c(3, 60))
        assert abs(growth - 2) < Fraction(1, 10 ** 4)

    def test_validation(self):
        with pytest.raises(UnsupportedB):
            convergence_report(1, 10)
        with pytest.raises(ValueError):
            convergence_report(3, 2)


class TestFormatFixed:
    def test_half_rounds_up(self):
        assert format_fixed(Fraction(5, 10 ** 6), 5) == "0.00001"
        assert format_fixed(Fraction(4, 10 ** 6), 5) == "0.00000"
        assert format_fixed(Fraction(25, 1000), 2) == "0.03"

    def test_negative_values(self):
        assert format_fixed(Fraction(-3, 16), 4) == "-0.1875"

    def test_zero_decimals(self):
        assert format_fixed(Fraction(5, 2), 0) == "3"
        with pytest.raises(ValueError):
            format_fixed(Fraction(1), -1)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        value=st.one_of(
            st.fractions(max_denominator=10 ** 30),
            st.integers(-(10 ** 20), 10 ** 20),
        ),
        decimals=st.integers(0, 40),
    )
    @example(value=Fraction(1, 8), decimals=2)
    @example(value=Fraction(-1, 8), decimals=2)
    @example(value=Fraction(0), decimals=0)
    @example(value=0, decimals=3)
    @example(value=-7, decimals=0)
    @example(value=Fraction(-1, 2), decimals=0)
    @example(value=Fraction(-1, 3), decimals=40)
    def test_matches_scaled_fraction_rule(self, value, decimals):
        assert format_fixed(value, decimals) == reference_fixed(value, decimals)

    def test_exact_ties_round_away_from_zero(self):
        rng = random.Random(40)
        for decimals in range(0, 41):
            for _ in range(10):
                odd = 2 * rng.randrange(0, 10 ** rng.randrange(1, 30)) + 1
                for value in (Fraction(odd, 2 * 10 ** decimals),
                              Fraction(-odd, 2 * 10 ** decimals)):
                    text = format_fixed(value, decimals)
                    assert text == reference_fixed(value, decimals)
                    assert text.lstrip("-").replace(".", "").lstrip("0") == str(odd // 2 + 1)
