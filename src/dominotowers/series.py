"""Truncated formal power series with exact integer coefficients.

Every generating function used here is a sum of products of geometric
factors x^a / (1 - lam*x^a) with lam in {1, 2}.  Multiplying by one is the
O(N) filter out[n] = s[n-a] + lam*out[n-a] (`_filter`), the only product:
nothing needs rational coefficients or polynomial division.

The builders run on plain coefficient lists, one fused pass per filter input
and per running-sum update, and wrap the result in a `TruncatedSeries` once.
Each family has two routes.  The closed form sums over subsets of {1..b-1}
walked depth first: a child extends its parent's product by one weighted
filter and each subset adds its own term (practical up to b = 12).  The
functional equation runs on running sums, a constant number of filters per
base; it is the production route, and the closed forms cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass

CLOSED_FORM = "closed-form"
FUNCTIONAL = "functional"
_METHODS = (CLOSED_FORM, FUNCTIONAL)

MAX_CLOSED_FORM_B = 12


class SubsetBlowup(ValueError):
    """Closed-form subset enumeration requested beyond the practical cutoff."""


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients 0..order of a formal power series."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def __mul__(self, other):
        """Scalar multiple, kept because ``bench/tracer.py`` wraps it at install."""
        if not isinstance(other, int):
            return NotImplemented
        return TruncatedSeries(tuple(other * a for a in self.coeffs))

    __rmul__ = __mul__


def _filter(a: int, lam: int, coeffs) -> list[int]:
    """coeffs times x^a / (1 - lam*x^a): shift by a, then out[n] += lam*out[n-a]."""
    out = [0] * min(a, len(coeffs))
    out += coeffs[: len(coeffs) - len(out)]
    for n in range(2 * a, len(out)):
        out[n] += lam * out[n - a]
    return out


def _check(b: int, method: str = FUNCTIONAL) -> None:
    if b < 1:
        raise ValueError("b must be at least 1")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}")
    if method == CLOSED_FORM and b > MAX_CLOSED_FORM_B:
        raise SubsetBlowup(
            f"closed form enumerates 2^{b - 1} subsets; limit is b={MAX_CLOSED_FORM_B}"
        )


def _supporting_chain(b: int, s: list[int], total: list[int]) -> list[int]:
    """total + G_b * s, G_b * s = sum_{i<b} s * prod_{j<=i} x^(b-j)/(1-x^(b-j))."""
    for j in range(1, b):
        s = _filter(b - j, 1, s)
        total = [t + v for t, v in zip(total, s)]
    return total


def build_G(b: int, order: int) -> TruncatedSeries:
    """Supporting-tower series: sum over i of prod_{j<=i} of x^(b-j)/(1-x^(b-j)).

    b=1 is the empty sum, the zero series.
    """
    _check(b)
    one = [1] + [0] * order
    return TruncatedSeries(tuple(_supporting_chain(b, one, [0] * (order + 1))))


def _subset_sum(term: list[int], low: int, above: int, lam: int, weight, total):
    """total + the sum over subsets S of {low..above-1} of term * prod_{k in S}
    w x^k/(1-lam*x^k), w = weight(next member of S or above, k).  Depth first:
    each subset adds its own term, and a child adds one k below its parent's
    smallest member, one filter on the parent's product with w folded in.  A
    child is built only when visited, so one product per depth is alive."""
    total = [t + v for t, v in zip(total, term)]
    for k in range(low, above):
        w = weight(above, k)
        child = _filter(k, lam, [w * v for v in term])
        total = _subset_sum(child, low, k, lam, weight, total)
    return total


def _closed_H(b: int, order: int) -> list[int]:
    """Closed-form H_b: x^b/(1-x^b) * sum over S of prod (2(above-k)+1) x^k/(1-x^k)."""
    one, zero = [1] + [0] * order, [0] * (order + 1)
    total = _subset_sum(one, 1, b, 1, lambda up, k: 2 * (up - k) + 1, zero)
    return _filter(b, 1, total)


def _stacks(b: int, order: int):
    """Yield H_1..H_b from H_i = x^i/(1-x^i) * (1 + sum_{j<i} (2(i-j)+1) H_j).

    The inner sum is (2i+1)*sum H_j - 2*sum j*H_j, kept as two running sums.
    """
    sum_h = sum_jh = [0] * (order + 1)
    for i in range(1, b + 1):
        c = 2 * i + 1
        term = [c * s - 2 * t for s, t in zip(sum_h, sum_jh)]
        term[0] += 1
        h = _filter(i, 1, term)
        yield h
        sum_h = [s + v for s, v in zip(sum_h, h)]
        sum_jh = [t + i * v for t, v in zip(sum_jh, h)]


def _stack_and_skew(b: int, order: int) -> tuple[list[int], list[int]]:
    """(H_b, R_b) from R_i = x^i/(1-2x^i) * (H_i + sum_{j<i} (2R_j + H_j))."""
    sum_rh = [0] * (order + 1)
    for i, h in enumerate(_stacks(b, order), start=1):
        r = _filter(i, 2, [v + s for v, s in zip(h, sum_rh)])
        sum_rh = [s + 2 * x + v for s, x, v in zip(sum_rh, r, h)]
    return h, r


def build_H(b: int, order: int, method: str = FUNCTIONAL) -> TruncatedSeries:
    """Stack series for base b."""
    _check(b, method)
    if method == CLOSED_FORM:
        return TruncatedSeries(tuple(_closed_H(b, order)))
    for h in _stacks(b, order):  # keep one H_i alive at a time, not all b
        pass
    return TruncatedSeries(tuple(h))


def build_R(b: int, order: int, method: str = FUNCTIONAL) -> TruncatedSeries:
    """Right-skewed series for base b.

    The closed form multiplies each stack series H_j by the subset sum over
    S of {j..b-1} of prod 2x^k/(1-2x^k); the summand index is read as j
    throughout, which is what the numbers require.
    """
    _check(b, method)
    if method == FUNCTIONAL:
        return TruncatedSeries(tuple(_stack_and_skew(b, order)[1]))
    total = [0] * (order + 1)
    for j in range(1, b + 1):
        total = _subset_sum(_closed_H(j, order), j, b, 2, lambda up, k: 2, total)
    return TruncatedSeries(tuple(_filter(b, 2, total)))


def build_C(b: int, order: int) -> TruncatedSeries:
    """Convex-tower series: (G + 1) * (2R + H), with G applied as its chain."""
    _check(b)
    h, r = _stack_and_skew(b, order)
    right = [2 * x + v for x, v in zip(r, h)]
    return TruncatedSeries(tuple(_supporting_chain(b, right, right)))
