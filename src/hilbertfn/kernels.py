"""Enumeration kernel for the brute-force Hilbert function oracle.

One walk over the exponent prefixes of the first a - 1 variables, each of
total at most b_max, counts the monomials outside the ideal at every degree
0..b_max at once, in exact integers.  The last variable is never enumerated:
a prefix that some generators still divide reaches degree b with last
exponent b - s, so its monomial is outside exactly on an interval of
degrees; a prefix that no generator divides any more has only free
completions, which are summed for all degrees together at the end.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, itemgetter
from typing import Sequence

# No compiled kernel exists; perfbench/run.py reports this in its run metadata.
HAVE_COMPILED = False


def count_outside_upto(arity: int, b_max: int, gens: Sequence[Sequence[int]]) -> list[int]:
    """Number of monomials in ``arity`` variables outside the ideal generated
    by ``gens`` (exponent vectors), for each degree 0..``b_max``."""
    if b_max < 0:
        return []
    gen_list = [tuple(g) for g in gens]
    top = b_max + 1
    if arity == 1:
        m = min((g[0] for g in gen_list), default=top)
        return [1 if b < m else 0 for b in range(top)]

    last = arity - 1
    # Difference arrays over the degree.  ``bounded`` gets +1 on each degree
    # interval whose monomials are outside.  ``free[k]`` marks the start
    # degrees of prefixes whose k later variables are free: k + 1 prefix
    # sums turn the marks into the count of their completions per degree.
    bounded = [0] * (top + 1)
    free = [[0] * (top + 1) for _ in range(arity)]

    def walk(pos: int, s: int, active: list[tuple[int, ...]]) -> None:
        """Extend a prefix of total ``s`` that ``active`` divide by the
        exponent of variable ``pos``."""
        active.sort(key=itemgetter(pos))
        first = active[0][pos] if active else top
        # exponents below ``first`` leave no generator dividing the prefix
        stop = min(s + first, top)
        if s < stop:
            marks = free[last - pos]
            marks[s] += 1
            marks[stop] -= 1
        n = 0
        low = top  # min of g[last] over active[:n]
        for d in range(s + first, top):
            e = d - s
            while n < len(active) and active[n][pos] <= e:
                if pos + 1 == last:
                    low = min(low, active[n][last])
                n += 1
            if pos + 1 == last:
                # outside for degrees d .. d + low - 1: the last exponent is
                # below every surviving generator's
                end = min(d + low, top)
                if d < end:
                    bounded[d] += 1
                    bounded[end] -= 1
            else:
                walk(pos + 1, d, active[:n])

    walk(0, 0, gen_list)
    acc = free[last]
    for k in range(last - 1, 0, -1):
        acc = list(map(add, accumulate(acc), free[k]))
    acc = list(map(add, accumulate(acc), bounded))
    return list(accumulate(acc[:top]))


def count_outside(arity: int, degree: int, gens: Sequence[Sequence[int]]) -> int:
    """Number of degree-``degree`` monomials in ``arity`` variables that lie
    outside the ideal generated by ``gens`` (exponent vectors)."""
    if degree < 0:
        return 0
    return count_outside_upto(arity, degree, gens)[degree]
