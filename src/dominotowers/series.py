"""Truncated formal power series with exact integer coefficients.

Every generating function used here is a sum of products of geometric
factors x^a / (1 - lam*x^a) with lam in {1, 2}.  Multiplying by one is the
O(N) filter out[n] = s[n-a] + lam*out[n-a] (`_filter`), the only product:
nothing needs rational coefficients or polynomial division.  At lam = 1 it
is a running sum along each residue class mod a, run in C as one
`accumulate` per class or one `map(add)` per block of a coefficients.

The builders run on plain coefficient lists, one fused pass per filter input
and per running-sum update, and wrap the result in a `TruncatedSeries` once.
Each family has two routes.  The closed form sums over the subsets of
{1..b-1} whose sum stays inside the order, walked depth first: a child
extends its parent's product by one weighted filter and each subset adds its
own term (all 2^(b-1) at high order, practical up to b = 12).  The functional
equation carries running sums, three passes per stack base; it is the
production route, and the closed forms cross-check it.  It keeps the paper's
sums over smaller bases on purpose: the `recurrences` tables grow by diagonal
differences, so the two routes share no formulation.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add
from typing import NamedTuple

CLOSED_FORM = "closed-form"
FUNCTIONAL = "functional"
_METHODS = (CLOSED_FORM, FUNCTIONAL)

MAX_CLOSED_FORM_B = 12


class _Coeffs(NamedTuple):
    coeffs: tuple[int, ...]


class TruncatedSeries(_Coeffs):
    """Coefficients 0..order of a formal power series."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]) -> "TruncatedSeries":
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        return super().__new__(cls, coeffs)

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

    def __add__(self, other):
        """Refused: the tuple base would concatenate the coefficient lists."""
        return NotImplemented


def _filter(a: int, lam: int, coeffs) -> list[int]:
    """coeffs times x^a / (1 - lam*x^a): shift by a, then out[n] += lam*out[n-a],
    at lam = 1 as running sums per class (if a*a < len) or per block of a."""
    out = [0] * min(a, len(coeffs))
    out += coeffs[: len(coeffs) - len(out)]
    if lam != 1:
        for n in range(2 * a, len(out)):
            out[n] += lam * out[n - a]
    elif a * a < len(out):
        for r in range(a, 2 * a):
            out[r::a] = accumulate(out[r::a])
    else:
        for n in range(2 * a, len(out), a):
            out[n : n + a] = map(add, out[n : n + a], out[n - a : n])
    return out


def _check(b: int, order: int, method: str = FUNCTIONAL) -> None:
    if b < 1:
        raise ValueError("b must be at least 1")
    if order < 0:
        raise ValueError("order must be at least 0")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}")
    if method == CLOSED_FORM and b > MAX_CLOSED_FORM_B:
        raise ValueError(
            f"closed form enumerates 2^{b - 1} subsets; limit is b={MAX_CLOSED_FORM_B}"
        )


def _supporting_chain(b: int, s: list[int], total: list[int]) -> list[int]:
    """total + G_b * s, G_b * s = sum_{i<b} s * prod_{j<=i} x^(b-j)/(1-x^(b-j)).

    Once the shifts sum to len(s) the product is zero and the loop stops."""
    shift = 0
    for j in range(1, b):
        shift += b - j
        if shift >= len(s):
            break
        s = _filter(b - j, 1, s)
        total = [t + v for t, v in zip(total, s)]
    return total


def build_G(b: int, order: int) -> TruncatedSeries:
    """Supporting-tower series: sum over i of prod_{j<=i} of x^(b-j)/(1-x^(b-j)).

    b=1 is the empty sum, the zero series.
    """
    _check(b, order)
    one = [1] + [0] * order
    return TruncatedSeries(tuple(_supporting_chain(b, one, [0] * (order + 1))))


def _subset_sum(term: list[int], shift: int, low: int, above: int, lam: int, weight, total):
    """Add to total the sum over subsets S of {low..above-1} of x^shift * term *
    prod_{k in S} w x^k/(1-lam*x^k), w = weight(next member of S or above, k).
    Depth first: each subset adds its own term, and a child adds one k below
    its parent's smallest member, one filter on the parent's product with w
    folded in.  Products are kept from x^shift up, shift + sum(S), and only
    subsets whose shift stays inside the order are visited: the first child
    at len(total) ends the loop, as later siblings and their subtrees lie past
    it too.  One product per depth is alive.  At high order every subset is still
    visited, which the b <= 12 cap bounds."""
    total[shift:] = map(add, total[shift:], term)
    for k in range(low, above):
        if shift + k >= len(total):
            break
        w = weight(above, k)
        child = _filter(k, lam, [w * v for v in term])[k:]
        _subset_sum(child, shift + k, low, k, lam, weight, total)
    return total


def _closed_H(b: int, order: int) -> list[int]:
    """Closed-form H_b: x^b/(1-x^b) * sum over S of prod (2(above-k)+1) x^k/(1-x^k),
    the sum taken over sum(S) <= order - b, all that the outer factor keeps."""
    size = max(order + 1 - b, 0)
    one, zero = [1, *[0] * order][:size], [0] * size
    total = _subset_sum(one, 0, 1, b, 1, lambda up, k: 2 * (up - k) + 1, zero)
    return _filter(b, 1, total + [0] * (order + 1 - size))


def _stacks(b: int, order: int):
    """Yield H_1..H_b from H_i = x^i/(1-x^i) * T_i, T_i = 1 + sum_{j<i} (2(i-j)+1) H_j,
    carried as T_{i+1} = T_i + 2U_{i+1} + H_i with U_{i+1} = U_i + H_i, U_1 = 0."""
    total, below = [1] + [0] * order, [0] * (order + 1)
    for i in range(1, b + 1):
        h = _filter(i, 1, total)
        yield h
        below = [u + v for u, v in zip(below, h)]
        total = [t + 2 * u + v for t, u, v in zip(total, below, h)]


def _stack_and_skew(b: int, order: int) -> tuple[list[int], list[int]]:
    """(H_b, R_b) from R_i = x^i/(1-2x^i) * (H_i + S_i), S_i = sum_{j<i} (2R_j + H_j),
    carrying the filter input: H_{i+1} + S_{i+1} = H_{i+1} + (H_i + S_i) + 2R_i."""
    given = r = [0] * (order + 1)
    for i, h in enumerate(_stacks(b, order), start=1):
        given = [v + g + 2 * x for v, g, x in zip(h, given, r)]
        r = _filter(i, 2, given)
    return h, r


def build_H(b: int, order: int, method: str = FUNCTIONAL) -> TruncatedSeries:
    """Stack series for base b."""
    _check(b, order, method)
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
    _check(b, order, method)
    if method == FUNCTIONAL:
        return TruncatedSeries(tuple(_stack_and_skew(b, order)[1]))
    total = [0] * max(order + 1 - b, 0)  # summed below the outer factor x^b
    for j in range(1, min(b, order - b) + 1):  # H_j lies at x^j and up
        _subset_sum(_closed_H(j, order - b)[j:], j, j, b, 2, lambda up, k: 2, total)
    return TruncatedSeries(tuple(_filter(b, 2, total + [0] * (order + 1 - len(total)))))


def build_C(b: int, order: int) -> TruncatedSeries:
    """Convex-tower series: (G + 1) * (2R + H), with G applied as its chain."""
    _check(b, order)
    h, r = _stack_and_skew(b, order)
    right = [2 * x + v for x, v in zip(r, h)]
    return TruncatedSeries(tuple(_supporting_chain(b, right, right)))
