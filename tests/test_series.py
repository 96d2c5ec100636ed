"""Series arithmetic and the two construction routes for each family."""

import random
import re
import time

import pytest

from dominotowers import recurrences, series
from dominotowers.series import (
    CLOSED_FORM,
    FUNCTIONAL,
    MAX_CLOSED_FORM_B,
    TruncatedSeries,
    _divide,
    _extended,
    _filter,
    build_C,
    build_G,
    build_H,
    build_R,
)


def geo(a, lam, order):
    return tuple(_filter(a, lam, [1] + [0] * order))


def random_coeffs(rng, order):
    return [rng.randint(-9, 9) for _ in range(order + 1)]


def naive_apply(a, lam, s):
    """s convolved with the literal expansion lam^(j-1) at x^(a*j)."""
    order = len(s) - 1
    out = [0] * (order + 1)
    for j in range(1, order // a + 1):
        weight = lam ** (j - 1)
        for n in range(a * j, order + 1):
            out[n] += weight * s[n - a * j]
    return tuple(out)


def naive_divide(a, lam, s, start):
    """s from index start on, each out[n] the literal sum of lam^j * s[n - a*j]
    over the j >= 0 with n - a*j >= start - a."""
    out = list(s)
    for n in range(start, len(s)):
        out[n] = sum(lam**j * s[n - a * j] for j in range((n - start) // a + 2))
    return tuple(out)


def naive_times(a, lam, s):
    """s times 1 - lam*x^a, truncated to len(s)."""
    return tuple(v - (lam * s[n - a] if n >= a else 0) for n, v in enumerate(s))


BUILDERS = {"g": build_G, "h": build_H, "r": build_R, "c": build_C}


def denominator(family, b):
    """The factors (a, lam) of Q_b, prod (1 - lam*x^a), as the paper's
    products give them: (G + 1) * (2R + H) multiplies the two denominators."""
    g = [(a, 1) for a in range(1, b)]
    h = [(a, 1) for a in range(1, b + 1)]
    r = h + [(a, 2) for a in range(1, b + 1)]
    return {"g": g, "h": h, "r": r, "c": r + g}[family]


def degree(family, b):
    """D, the degree of Q_b: the sum of its factors' a."""
    return sum(a for a, _ in denominator(family, b))


def subsets(members):
    """All subsets of members as tuples in the given order, by binary counter."""
    members = tuple(members)
    for mask in range(1 << len(members)):
        yield tuple(m for pos, m in enumerate(members) if mask >> pos & 1)


def add(s, t):
    return tuple(a + b for a, b in zip(s, t))


def reference_closed_H(b, order):
    """x^b/(1-x^b) * sum over S of {1..b-1} of prod (2(above-k)+1) x^k/(1-x^k),
    every subset's product rebuilt from 1."""
    total = (0,) * (order + 1)
    for subset in subsets(range(1, b)):
        term = (1,) + (0,) * order
        for k, above in zip(subset, subset[1:] + (b,)):
            term = tuple((2 * (above - k) + 1) * v for v in naive_apply(k, 1, term))
        total = add(total, term)
    return naive_apply(b, 1, total)


def reference_closed_R(b, order):
    """x^b/(1-2x^b) * sum over j of H_j * sum over S of {j..b-1} of
    prod 2x^k/(1-2x^k), every subset's product rebuilt from H_j."""
    total = (0,) * (order + 1)
    for j in range(1, b + 1):
        h_j = reference_closed_H(j, order)
        for subset in subsets(range(j, b)):
            term = h_j
            for k in subset:
                term = tuple(2 * v for v in naive_apply(k, 2, term))
            total = add(total, term)
    return naive_apply(b, 2, total)


class TestArithmetic:
    def test_square_of_geometric(self):
        assert tuple(_filter(1, 1, geo(1, 1, 4))) == (0, 0, 1, 2, 3)

    def test_series_product_is_rejected(self):
        s = TruncatedSeries((1, 1, 0))
        with pytest.raises(TypeError):
            s * s

    def test_series_sum_is_rejected(self):
        # a tuple base would otherwise concatenate the coefficient lists
        s = TruncatedSeries((1, 1, 0))
        with pytest.raises(TypeError):
            s + s

    def test_scalar_product_is_rejected(self):
        # a tuple base would otherwise repeat the coefficient list
        s = TruncatedSeries((0, 1, 2))
        with pytest.raises(TypeError):
            s * 3
        with pytest.raises(TypeError):
            3 * s

    def test_distributivity_on_random_polynomials(self):
        rng = random.Random(20160828)
        for _ in range(25):
            a, lam = rng.randint(1, 5), rng.choice((1, 2))
            s, t = random_coeffs(rng, 12), random_coeffs(rng, 12)
            assert _filter(a, lam, list(add(s, t))) == list(
                add(_filter(a, lam, s), _filter(a, lam, t))
            )

    def test_coefficient_access(self):
        s = TruncatedSeries((5, 6, 7))
        assert s[2] == 7
        with pytest.raises(IndexError):
            s[3]

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(())

    def test_empty_iterator_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(iter(()))

    def test_list_input_is_stored_as_a_tuple(self):
        assert hash(TruncatedSeries([1, 2])) == hash((1, 2))


class TestGeometricFactor:
    """Products by x^a / (1 - lam*x^a), which `_filter` computes."""

    def test_plain_geometric(self):
        assert geo(1, 1, 4) == (0, 1, 1, 1, 1)

    def test_doubling_geometric(self):
        assert geo(2, 2, 6) == (0, 0, 1, 0, 2, 0, 4)

    def test_below_first_exponent(self):
        assert geo(3, 1, 2) == (0, 0, 0)

    def test_apply_matches_naive_convolution(self):
        rng = random.Random(20160828)
        for a in range(1, 6):
            for lam in (1, 2):
                for order in range(13):
                    s = random_coeffs(rng, order)
                    assert tuple(_filter(a, lam, s)) == naive_apply(a, lam, s)

    @pytest.mark.parametrize("a", range(1, 13))
    def test_apply_across_forms(self, a):
        # a*a < len runs one running sum per class, else one per block; the
        # lengths straddle that switch, the last partial block and len < a.
        # _divide starts at a for the rational form and at 2a for _filter
        rng = random.Random(a)
        lengths = {1, 2, a - 1, a, a * a - 1, a * a, a * a + 1, 3 * a, 3 * a + 1}
        for length in sorted(n for n in lengths if n >= 1):
            for lam in (1, 2, 3):
                s = random_coeffs(rng, length - 1)
                assert tuple(_filter(a, lam, s)) == naive_apply(a, lam, s)
                for start in (a, 2 * a):
                    out = list(s)
                    _divide(a, lam, out, start)
                    assert tuple(out) == naive_divide(a, lam, s, start)


class TestBuilders:
    def test_supporting_series_base_one_is_zero(self):
        assert build_G(1, 10) == (0,) * 11

    def test_supporting_series_base_two(self):
        assert build_G(2, 5) == (0, 1, 1, 1, 1, 1)

    def test_supporting_series_matches_recurrence(self):
        s = build_G(4, 12)
        assert s[8] == recurrences.g(4, 8)

    def test_stack_series_base_one(self):
        assert build_H(1, 5) == (0, 1, 1, 1, 1, 1)

    def test_stack_series_spot_value(self):
        assert build_H(3, 8)[5] == 8

    def test_skew_series_base_one(self):
        assert build_R(1, 5) == (0, 0, 1, 3, 7, 15)

    def test_skew_series_spot_value(self):
        assert build_R(2, 8)[5] == 12

    def test_convex_series_base_one(self):
        assert build_C(1, 4) == (0, 1, 3, 7, 15)

    def test_convex_series_spot_values(self):
        assert build_C(4, 10)[10] == 531
        assert build_C(4, 32)[10] == 531
        column3 = [build_C(3, 10)[n] for n in range(3, 11)]
        assert column3 == [1, 7, 17, 49, 115, 258, 551, 1163]

    @pytest.mark.parametrize("order", [0, 1, 7, 24])
    def test_length_is_order_plus_one(self, order):
        for b in (1, 2, 5):
            built = [build_G(b, order), build_C(b, order)]
            for method in (CLOSED_FORM, FUNCTIONAL):
                built += [build_H(b, order, method), build_R(b, order, method)]
            assert [len(s) for s in built] == [order + 1] * 6

    def test_methods_agree(self):
        # the subset walk stops at the order and sums below the outer factor
        # x^b, so every order up to b + 3 meets one of its boundaries; at
        # order 120 every functional build with b <= 6 is past 2D, so P/Q
        for b in range(1, MAX_CLOSED_FORM_B + 1):
            for order in (*range(b + 4), 30, *[120] * (b <= 6)):
                assert build_H(b, order, CLOSED_FORM) == build_H(b, order, FUNCTIONAL)
                assert build_R(b, order, CLOSED_FORM) == build_R(b, order, FUNCTIONAL)

    @pytest.mark.parametrize("b", range(1, 11))
    def test_closed_forms_match_reference(self, b):
        # the reference rebuilds every subset's product and never prunes
        for order in sorted({0, 1, b - 1, b, b + 1, 30}):
            assert build_H(b, order, CLOSED_FORM) == reference_closed_H(b, order)
            assert build_R(b, order, CLOSED_FORM) == reference_closed_R(b, order)

    def test_series_match_recurrences(self):
        for b in range(1, 9):
            gs = build_G(b, 30)
            hs = build_H(b, 30)
            rs = build_R(b, 30)
            cs = build_C(b, 30)
            for n in range(0, 31):
                assert gs[n] == recurrences.g(b, n)
                assert hs[n] == recurrences.h(b, n)
                assert rs[n] == recurrences.r(b, n)
                assert cs[n] == recurrences.c(b, n)

    @pytest.mark.parametrize("b", [12, 20, 40])
    def test_large_bases_match_recurrences(self, b):
        # b >= order, so every lam = 1 filter with a > 6 runs block by block
        builders = {"g": build_G, "h": build_H, "r": build_R, "c": build_C}
        for family, build in builders.items():
            expected = tuple(recurrences.family_value(family, b, n) for n in range(41))
            assert build(b, 40) == expected

    @pytest.mark.parametrize("b", [39, 40, 41])
    def test_supporting_chain_near_the_order_matches_recurrences(self, b):
        # the chain stops once its shifts reach len 41: after one filter for
        # each b here, and for b = 41 that first shift, 40, is one short
        assert build_G(b, 40) == tuple(recurrences.g(b, n) for n in range(41))
        assert build_C(b, 40) == tuple(recurrences.c(b, n) for n in range(41))

    def test_truncation_consistency(self):
        for b in (1, 2, 4):
            for build in (build_G, build_H, build_R, build_C):
                assert build(b, 40)[:26] == build(b, 25)

    @pytest.mark.parametrize("b", [6, 9, 12])
    def test_closed_form_truncation_consistency(self, b):
        # the closed forms prune by the order, so a longer build must agree
        for build in (build_H, build_R):
            assert build(b, 40, CLOSED_FORM)[:26] == build(b, 25, CLOSED_FORM)

    def test_coefficients_non_negative(self):
        for b in range(1, 7):
            for build in (build_G, build_H, build_R, build_C):
                assert min(build(b, 25)) >= 0

    def test_subset_blowup(self):
        message = re.escape("closed form enumerates 2^12 subsets; limit is b=12")
        with pytest.raises(ValueError, match=message):
            build_H(13, 5, CLOSED_FORM)
        with pytest.raises(ValueError, match=message):
            build_R(13, 5, CLOSED_FORM)
        build_H(13, 5, FUNCTIONAL)  # the production path has no such limit

    def test_method_validation(self):
        # one spelling per method: the CLI's "closed-form" is the constant itself
        assert CLOSED_FORM == "closed-form"
        for method in ("quadrature", "closed_form"):
            with pytest.raises(ValueError):
                build_H(2, 5, method)
        with pytest.raises(ValueError):
            build_G(0, 5)

    @pytest.mark.parametrize(
        "build, method",
        [
            (build_G, None),
            (build_H, CLOSED_FORM),
            (build_H, FUNCTIONAL),
            (build_R, CLOSED_FORM),
            (build_R, FUNCTIONAL),
            (build_C, None),
        ],
    )
    def test_negative_order(self, build, method):
        args = (3, -1) if method is None else (3, -1, method)
        with pytest.raises(ValueError, match="^order must be at least 0$"):
            build(*args)


class TestRationalForm:
    """From order 2D a functional build is P/Q: the chain run to D, times Q,
    then divided by each of Q's factors over the order."""

    @pytest.mark.parametrize("b", range(1, 11))
    def test_builders_match_recurrences_around_twice_the_degree(self, b):
        for family, build in BUILDERS.items():
            d = degree(family, b)
            top = max(2 * d + 1, 600)
            values = [recurrences.family_value(family, b, n) for n in range(top + 1)]
            for order in (2 * d - 1, 2 * d, 2 * d + 1, 600):
                if order >= 0:
                    assert build(b, order) == tuple(values[: order + 1])

    @pytest.mark.parametrize("family", BUILDERS)
    def test_chain_times_denominator_stops_at_the_degree(self, family):
        # the premise of the extension, read off the chains themselves: each
        # F_b * Q_b is a polynomial of degree at most D
        chains = {
            "g": lambda b, n: series._supporting_chain(b, [1] + [0] * n, [0] * (n + 1)),
            "h": series._stack,
            "r": lambda b, n: series._stack_and_skew(b, n)[1],
            "c": series._convex,
        }
        for b in range(1, 11):
            d = degree(family, b)
            twice = {"g": b * (b - 1), "h": b * (b + 1), "r": 2 * b * (b + 1), "c": 3 * b * b + b}
            assert 2 * d == twice[family]
            product = tuple(chains[family](b, d + 40))
            for a, lam in denominator(family, b):
                product = naive_times(a, lam, product)
            assert product[d + 1 :] == (0,) * 40

    def test_extension_divides_from_the_constant_term(self):
        # every family's series starts past x^0, so its P(0) is 0; this P(0)
        # is not, and each division must reach index a.  The factors cover
        # lam = 2 and both lam = 1 forms (a*a < len and not) at order 50
        rng = random.Random(1608)
        factors = [(8, 1), (1, 2), (2, 1), (3, 1)]
        d = sum(a for a, _ in factors)
        numerator = [rng.randint(1, 9) for _ in range(d + 1)]

        def chain(n):
            s = (numerator + [0] * n)[: n + 1]
            for a, lam in factors:
                s = naive_divide(a, lam, s, a)
            return list(s)

        for order in (0, d, 2 * d - 1, 2 * d, 2 * d + 1, 50):
            assert _extended(chain, (lambda b: factors,), 0, order) == chain(order)


def count_filters(monkeypatch):
    """A list that gains one entry per `series._filter` call: the length of
    the coefficient list it filters."""
    calls = []
    real = series._filter
    monkeypatch.setattr(
        series, "_filter", lambda *args: calls.append(len(args[2])) or real(*args)
    )
    return calls


class TestBuildCost:
    """No product is rebuilt or filtered past the order: the closed forms walk
    subsets depth first and stop at the order, and so does the supporting
    chain."""

    def test_largest_closed_form_skew(self):
        start = time.process_time()
        build_R(12, 48, CLOSED_FORM)
        assert time.process_time() - start < 0.25

    def test_supporting_chain_stops_past_the_order(self, monkeypatch):
        # x^(b-1) already lies past order 64, so no filter is run, where a
        # filter per step would run 4095 of them
        calls = count_filters(monkeypatch)
        assert build_G(4096, 64) == (0,) * 65
        assert not calls

    def test_closed_form_stack_filters_only_subsets_inside_the_order(self, monkeypatch):
        # H_12 to order 20 keeps x^12 * (x^0..x^8): one filter per non-empty
        # S of {1..11} with sum(S) <= 8, plus the outer x^12 factor (25 in
        # all, where a filter per subset would run 2048)
        inside = sum(1 for s in subsets(range(1, 12)) if s and sum(s) <= 8)
        calls = count_filters(monkeypatch)
        build_H(12, 20, CLOSED_FORM)
        assert len(calls) == 1 + inside == 25

    @pytest.mark.parametrize("family", BUILDERS)
    def test_rational_form_filters_only_up_to_the_degree(self, monkeypatch, family):
        # from order 2D the chain runs to D, and the divisions over the order
        # call _divide directly
        calls = count_filters(monkeypatch)
        for b in (2, 5, 8):
            d = degree(family, b)
            for order in (2 * d, 4096):
                calls.clear()
                BUILDERS[family](b, order)
                assert calls and max(calls) == d + 1

    def test_closed_form_skew_filters_only_subsets_inside_the_order(self, monkeypatch):
        # 54 filters, where a filter per subset of every H_j walk runs 8179
        calls = count_filters(monkeypatch)
        build_R(12, 20, CLOSED_FORM)
        assert len(calls) < 100
