"""An independent route to the family counts, used only to check outputs.

The package computes counts two ways (recurrence tables and truncated
power-series products).  This module is a third, written inside the
benchmark so that a check never reuses the code it checks: it expands the
same generating functions, but divides by each geometric factor
1 / (1 - lam*x^a) with the one-line recurrence y[n] = s[n-a] + lam*y[n-a]
instead of multiplying series, so a column of 2000 terms costs O(b*n)
big-integer additions.  It also covers block length k >= 2, which the
package's series module does not.

Functional equations, read off the recurrences in ``recurrences.py``:

    G_b (1 - x^(b-1)) = x^(b-1) (1 + (k-1) G_(b-1)),       G_1 = 0
    H_b (1 - x^b)     = x^b (1 + sum_(i<b) (k(b-i)+1) H_i)
    R_b (1 - k x^b)   = x^b ((k-1) H_b + sum_(i<b) (k R_i + (k-1) H_i))
    C_b               = (G_b + 1) (2 R_b + H_b)                  (k = 2)

The limiting constant prod_(k>=1) 2^k/(2^k-1) is taken from Euler's
identity prod 1/(1-x^k) = sum p(n) x^n at x = 1/2, which shares no code or
method with the package's partial-product bound.
"""

from __future__ import annotations


def _shift_div(src: list[int], a: int, lam: int, order: int) -> list[int]:
    """Coefficients 0..order of x^a * src / (1 - lam*x^a)."""
    out = [0] * (order + 1)
    for n in range(a, order + 1):
        out[n] = src[n - a] + lam * out[n - a]
    return out


def _add_scaled(acc: list[int], src: list[int], scale: int) -> None:
    for n, v in enumerate(src):
        if v:
            acc[n] += scale * v


def columns(family: str, k: int, max_b: int, order: int) -> list[list[int]]:
    """cols[b][n] for b = 0..max_b and n = 0..order (column 0 is all zero)."""
    zero = [0] * (order + 1)
    if family == "g":
        cols = [zero, zero]
        for b in range(2, max_b + 1):
            inner = [(k - 1) * v for v in cols[b - 1]]
            inner[0] += 1
            cols.append(_shift_div(inner, b - 1, 1, order))
        return cols[: max_b + 1]
    hs = [zero]
    for b in range(1, max_b + 1):
        inner = [0] * (order + 1)
        inner[0] = 1
        for i in range(1, b):
            _add_scaled(inner, hs[i], k * (b - i) + 1)
        hs.append(_shift_div(inner, b, 1, order))
    if family == "h":
        return hs
    rs = [zero]
    for b in range(1, max_b + 1):
        inner = [(k - 1) * v for v in hs[b]]
        for i in range(1, b):
            _add_scaled(inner, rs[i], k)
            _add_scaled(inner, hs[i], k - 1)
        rs.append(_shift_div(inner, b, k, order))
    if family == "r":
        return rs
    if family != "c" or k != 2:
        raise ValueError(f"no generating function for family {family!r} at k={k}")
    cs = [zero]
    for b in range(1, max_b + 1):
        right = [2 * r + h for r, h in zip(rs[b], hs[b])]
        # (G_b + 1) * right, with G_j * right built up by the G recurrence.
        g_times = zero
        for j in range(2, b + 1):
            inner = list(right)
            _add_scaled(inner, g_times, k - 1)
            g_times = _shift_div(inner, j - 1, 1, order)
        cs.append([x + y for x, y in zip(right, g_times)])
    return cs


def limit_constant_digits(count: int) -> str:
    """First ``count`` decimal digits of prod_(k>=1) 2^k/(2^k - 1)."""
    terms = 8 * count + 200  # p(n)/2^n < 2^(-n/2) here, far below 10^-count
    parts = [1] + [0] * terms  # partition numbers p(0..terms)
    for part in range(1, terms + 1):
        for n in range(part, terms + 1):
            parts[n] += parts[n - part]
    numerator = sum(p << (terms - n) for n, p in enumerate(parts))
    return str(numerator * 10 ** (count - 1) >> terms)
