"""Exact Pascal-table combinatorics and closed-form Hilbert functions.

The module holds F, the Pascal table and the two closed forms.  ``F(a, b)``
counts the monomials of degree b in a variables, i.e. the entry of row a,
column b of the Pascal table, with the convention F(a, b) = 0 for b < 0 so
callers never branch on degree ranges.  The closed forms for one and two
generators are reference formulas: :func:`hilbertfn.engine.hf` takes the
syzygy recursion for every ideal, and the tests check it against them.
"""

from __future__ import annotations

import math


def pascal_F(a: int, b: int) -> int:
    """binomial(a - 1 + b, b) for b >= 0, and 0 for b < 0."""
    if a < 1:
        raise ValueError("a must be >= 1")
    if b < 0:
        return 0
    return math.comb(a - 1 + b, b)


def pascal_table(a_max: int, b_max: int) -> list[list[int]]:
    """Rows a = 1..a_max of the Pascal table up to column b_max.

    Built by the recurrence F(a, b) = F(a-1, b) + F(a, b-1) from the edge
    values F(1, b) = 1 and F(a, 0) = 1.  ``result[a-1][b]`` is F(a, b).
    """
    if a_max < 1 or b_max < 0:
        raise ValueError("need a_max >= 1 and b_max >= 0")
    rows = [[1] * (b_max + 1)]
    for _ in range(2, a_max + 1):
        prev = rows[-1]
        row = [1]
        for b in range(1, b_max + 1):
            row.append(prev[b] + row[b - 1])
        rows.append(row)
    return rows


def hf_principal(a: int, d: int, b: int) -> int:
    """HF of k[x_1..x_a] / <p> at degree b, where deg(p) = d."""
    if a < 1 or d < 1:
        raise ValueError("need a >= 1 and d >= 1")
    return pascal_F(a, b) - pascal_F(a, b - d)


def hf_two_generators(a: int, d_u: int, d_v: int, d_lcm: int, b: int) -> int:
    """HF of k[x_1..x_a] / <u, v> at degree b via inclusion-exclusion.

    The four degree-range branches of the piecewise formula collapse because
    pascal_F vanishes on negative degrees.
    """
    if a < 1 or d_u < 1 or d_v < 1:
        raise ValueError("need a >= 1 and positive generator degrees")
    if not max(d_u, d_v) <= d_lcm <= d_u + d_v:
        raise ValueError(
            f"inconsistent degrees: need max({d_u},{d_v}) <= {d_lcm} <= {d_u + d_v}"
        )
    return (
        pascal_F(a, b)
        - pascal_F(a, b - d_u)
        - pascal_F(a, b - d_v)
        + pascal_F(a, b - d_lcm)
    )
