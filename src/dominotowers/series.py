"""Truncated formal power series with exact integer coefficients.

Every generating function used here is a sum of products of geometric
factors x^a / (1 - lam*x^a) with lam in {1, 2}.  Such a factor is a linear
recurrence, so multiplying a series by it is the O(N) filter
out[n] = s[n-a] + lam*out[n-a] (`GeometricFactor.apply`).  That filter is
the only product here: `*` takes an integer only, and no expansion needs
rational coefficients or polynomial division.  Addition truncates to the
smaller operand order and never extends it silently.

Each family can be built two ways: from the closed form (sums over subsets
of {1..b-1}, enumerated by binary counter, practical up to b = 12) and from
the functional equation that the recurrence induces, evaluated with running
sums so each base costs a constant number of filters.  The functional path
is the production one; the closed forms exist to cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass

CLOSED_FORM = "closed_form"
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

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((0,) * (order + 1))

    @classmethod
    def constant(cls, value: int, order: int) -> "TruncatedSeries":
        return cls((value,) + (0,) * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("truncation cannot extend the order")
        return TruncatedSeries(self.coeffs[: order + 1])

    def __add__(self, other):
        if isinstance(other, int):
            return TruncatedSeries((self.coeffs[0] + other,) + self.coeffs[1:])
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs))[: n + 1]
        )

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return self + (-other)
        return self + (-1) * other

    def __mul__(self, other):
        """Scalar multiple; series products go through `GeometricFactor.apply`."""
        if not isinstance(other, int):
            return NotImplemented
        return TruncatedSeries(tuple(other * a for a in self.coeffs))

    __rmul__ = __mul__


@dataclass(frozen=True)
class GeometricFactor:
    """x^a / (1 - lam*x^a), expanded as lam^(j-1) at x^(a*j)."""

    a: int
    lam: int

    def __post_init__(self) -> None:
        if self.a < 1:
            raise ValueError("exponent must be at least 1")
        if self.lam not in (1, 2):
            raise ValueError("scale must be 1 or 2")

    def apply(self, s: TruncatedSeries) -> TruncatedSeries:
        """s times this factor, by the filter out[n] = s[n-a] + lam*out[n-a]."""
        a, lam, cs = self.a, self.lam, s.coeffs
        out = [0] * len(cs)
        for n in range(a, len(cs)):
            out[n] = cs[n - a] + lam * out[n - a]
        return TruncatedSeries(tuple(out))


def _check(b: int, method: str = FUNCTIONAL) -> None:
    if b < 1:
        raise ValueError("b must be at least 1")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}")
    if method == CLOSED_FORM and b > MAX_CLOSED_FORM_B:
        raise SubsetBlowup(
            f"closed form enumerates 2^{b - 1} subsets; limit is b={MAX_CLOSED_FORM_B}"
        )


def _supporting_chain(b: int, s: TruncatedSeries) -> TruncatedSeries:
    """G_b * s: the sum over i < b of s times prod_{j<=i} x^(b-j)/(1-x^(b-j))."""
    total = TruncatedSeries.zero(s.order)
    for j in range(1, b):
        s = GeometricFactor(b - j, 1).apply(s)
        total = total + s
    return total


def build_G(b: int, order: int) -> TruncatedSeries:
    """Supporting-tower series: sum over i of prod_{j<=i} of x^(b-j)/(1-x^(b-j)).

    b=1 is the empty sum, the zero series.
    """
    _check(b)
    return _supporting_chain(b, TruncatedSeries.constant(1, order))


def _subsets(members):
    """All subsets of members as tuples in the given order, by binary counter."""
    members = tuple(members)
    for mask in range(1 << len(members)):
        yield tuple(m for pos, m in enumerate(members) if mask >> pos & 1)


def _stacks(b: int, order: int):
    """Yield H_1..H_b from H_i = x^i/(1-x^i) * (1 + sum_{j<i} (2(i-j)+1) H_j).

    The inner sum is (2i+1)*sum H_j - 2*sum j*H_j, kept as two running sums.
    """
    sum_h = sum_jh = TruncatedSeries.zero(order)
    for i in range(1, b + 1):
        h = GeometricFactor(i, 1).apply(1 + (2 * i + 1) * sum_h - 2 * sum_jh)
        yield h
        sum_h = sum_h + h
        sum_jh = sum_jh + i * h


def _stack_and_skew(b: int, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(H_b, R_b) from R_i = x^i/(1-2x^i) * (H_i + sum_{j<i} (2R_j + H_j))."""
    sum_rh = TruncatedSeries.zero(order)
    for i, h in enumerate(_stacks(b, order), start=1):
        r = GeometricFactor(i, 2).apply(h + sum_rh)
        sum_rh = sum_rh + 2 * r + h
    return h, r


def build_H(b: int, order: int, method: str = FUNCTIONAL) -> TruncatedSeries:
    """Stack series for base b."""
    _check(b, method)
    if method == FUNCTIONAL:
        *_, h = _stacks(b, order)
        return h
    total = TruncatedSeries.zero(order)
    for subset in _subsets(range(1, b)):
        term = TruncatedSeries.constant(1, order)
        for k, above in zip(subset, subset[1:] + (b,)):
            term = (2 * (above - k) + 1) * GeometricFactor(k, 1).apply(term)
        total = total + term
    return GeometricFactor(b, 1).apply(total)


def build_R(b: int, order: int, method: str = FUNCTIONAL) -> TruncatedSeries:
    """Right-skewed series for base b.

    The closed form multiplies each stack series H_j by the subset sum over
    S of {j..b-1} of prod 2x^k/(1-2x^k); the summand index is read as j
    throughout, which is what the numbers require.
    """
    _check(b, method)
    if method == FUNCTIONAL:
        return _stack_and_skew(b, order)[1]
    total = TruncatedSeries.zero(order)
    for j in range(1, b + 1):
        h_j = build_H(j, order, CLOSED_FORM)
        for subset in _subsets(range(j, b)):
            term = h_j
            for k in subset:
                term = 2 * GeometricFactor(k, 2).apply(term)
            total = total + term
    return GeometricFactor(b, 2).apply(total)


def build_C(b: int, order: int) -> TruncatedSeries:
    """Convex-tower series: (G + 1) * (2R + H), with G applied as its chain."""
    _check(b)
    h, r = _stack_and_skew(b, order)
    right = 2 * r + h
    return right + _supporting_chain(b, right)
