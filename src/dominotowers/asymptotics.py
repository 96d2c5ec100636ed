"""Exact rational asymptotics for the convex family.

The convex series for base width b is rational with a unique smallest pole
at 1/2 of multiplicity one, so its coefficients grow like theta_b * 2^n.
The sub-exponential factor has the closed form

    theta_b = (1/2)^(b-1) * prod_{k=1..b-1} 2^k/(2^k - 1)
              * (1 + sum_{i=0..b-2} 1 / prod_{k=i+1..b-1} (2^k - 1)).

With the prefix products Q_i = prod_{k=1..i} (2^k - 1), Q_0 = 1, and
D = Q_{b-1}, the same value is

    theta_b = 2^((b-1)(b-2)/2) * (D + sum_{i=0..b-2} Q_i) / D^2,

which theta_pairs computes in integers, unreduced, for each base up to a
bound in one pass; theta_exact reduces the last pair to one Fraction.
theta_from_parts assembles theta_b from three pieces evaluated at 1/2: the
derivative of the denominator polynomial, the numerator of 2R + H, and the
numerator of G + 1.  The two routes share no code, and they must agree
exactly; that identity is a test target, not an assumption.

Everything here is computed in exact rationals; floats and decimal strings
appear only at the display boundary.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from . import recurrences

#: The limiting product 3.4627... over 2^(b-1), rounded to three figures
#: as the coarse two-significant-digit estimate uses it.
ESTIMATE_CONSTANT = Fraction(346, 100)


def _check_b(b: int) -> None:
    if b < 2:  # b = 1 is the plain 2^n - 1 family
        raise ValueError("asymptotic factor requires b >= 2")


def theta_pairs(max_b: int) -> Iterator[tuple[int, int, int]]:
    """(b, numerator, denominator) of theta_b for b = 2..max_b, unreduced."""
    prefix, prefix_sum = 1, 0  # Q_(b-1) and Q_0 + ... + Q_(b-2)
    for b in range(2, max_b + 1):
        prefix_sum += prefix
        prefix *= 2 ** (b - 1) - 1
        yield b, (prefix + prefix_sum) << ((b - 1) * (b - 2) // 2), prefix * prefix


def theta_exact(b: int) -> Fraction:
    """Exact sub-exponential factor theta_b."""
    _check_b(b)
    for _, numerator, denominator in theta_pairs(b):
        pass
    return Fraction(numerator, denominator)


def _prefix_products(b: int) -> list[int]:
    """Q_0, ..., Q_b with Q_i = prod_{k=1..i} (2^k - 1)."""
    q = [1]
    for k in range(1, b + 1):
        q.append(q[-1] * (2 ** k - 1))
    return q


def denominator_derivative_at_half(b: int) -> Fraction:
    """Derivative of the denominator polynomial at 1/2; negative for all b."""
    _check_b(b)
    q = _prefix_products(b - 1)[-1]
    return Fraction(-2 * (2 ** b - 1) * q ** 3, 2 ** (b + 3 * b * (b - 1) // 2))


def numerator_hat_at_half(b: int) -> Fraction:
    """Numerator of the skew-plus-stack factor 2R + H, evaluated at 1/2."""
    if b < 1:
        raise ValueError("b must be at least 1")
    return Fraction(_prefix_products(b)[-1], 2 ** (b * (b + 3) // 2 - 1))


def numerator_bar_at_half(b: int) -> Fraction:
    """Numerator of the supporting factor G + 1, evaluated at 1/2."""
    if b < 1:
        raise ValueError("b must be at least 1")
    return Fraction(sum(_prefix_products(b - 1)), 2 ** (b * (b - 1) // 2))


def theta_from_parts(b: int) -> Fraction:
    """theta_b assembled as (-2) * hat * bar / derivative; equals theta_exact."""
    _check_b(b)
    return (
        Fraction(-2)
        * numerator_hat_at_half(b)
        * numerator_bar_at_half(b)
        / denominator_derivative_at_half(b)
    )


def approx_theta(b: int) -> Fraction:
    """Coarse estimate 3.46 * (1/2)^(b-1)."""
    _check_b(b)
    return ESTIMATE_CONSTANT * Fraction(1, 2 ** (b - 1))


def limit_constant_digits(count: int) -> str:
    """Stable decimal digits of the limiting product prod_k 2^k/(2^k - 1).

    The product is 1/(q; q)_inf at q = 1/2, and Euler's pentagonal theorem
    gives (q; q)_inf = sum_{k in Z} (-1)^k q^(k(3k-1)/2).  Scaled by 2^E,
    every term with exponent e <= E is the exact integer +-2^(E-e); the
    exponents are distinct, so the terms past E sum to less than 1 in size
    and the scaled (q; q)_inf lies strictly between S - 1 and S + 1, with S
    the integer sum.  Since the limit lies in [1, 10), its first ``count``
    digits are 10^(count-1) * 2^E // (scaled value); where the quotients by
    S + 1 and S - 1 agree they are certified, and otherwise E grows.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    exponent = (333 * count + 99) // 100 + 64  # ceil(3.33 count) + 64 bits
    while True:
        total, k = 1 << exponent, 1
        while k * (3 * k - 1) // 2 <= exponent:
            for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if e <= exponent:
                    total += (-1) ** k << (exponent - e)
            k += 1
        scaled = 10 ** (count - 1) << exponent
        digits = scaled // (total + 1)
        if digits == scaled // (total - 1):
            return str(digits)
        exponent *= 2


class ConvergenceReport(NamedTuple):
    """How far c(b, n) / 2^n has converged to theta_b, all exact."""

    b: int
    n: int
    ratio: Fraction
    theta: Fraction
    relative_error: Fraction
    estimate: Fraction
    estimate_error: Fraction


def convergence_report(b: int, n: int) -> ConvergenceReport:
    _check_b(b)
    if n < b:
        raise ValueError("n must be at least b")
    ratio = Fraction(recurrences.c(b, n), 2 ** n)
    theta = theta_exact(b)
    estimate = approx_theta(b)
    return ConvergenceReport(
        b=b,
        n=n,
        ratio=ratio,
        theta=theta,
        relative_error=abs(ratio - theta) / theta,
        estimate=estimate,
        estimate_error=abs(theta - estimate),
    )
