"""Enumeration kernel for the brute-force Hilbert function oracle.

One walk over the variables counts the monomials outside the ideal at every
degree 0..b_max at once, in exact integers, by one rule that it applies at
every variable.  A frame holds a variable ``pos``, a set of prefixes
(exponents of the variables before ``pos``), the generators that divide
each of them on those variables, and the prefix polynomial P: the sum of
t^(prefix total) over its prefixes, times (1 - t)^pos.  The exponents of
``pos`` below ``first``, the least exponent of ``pos`` in those generators,
leave no generator dividing, so the later variables are free and those
monomials add P * (1 - t^first) / (1 - t)^arity to the series.  Each later
span [lo, hi) of exponents, over which the same generators divide, opens
one frame at the next variable with P * (t^lo - t^hi); the spans stop at
the first ``lo`` that puts every term of P past b_max.  At the last
variable the first term alone closes the frame.  Every term lies over
(1 - t)^arity, so one numerator collects them all and ``arity`` prefix sums
turn it into the values.

The lower ends of the spans that led to a frame are a prefix of total at
most b_max, a different one for each frame, so the walk opens at most
C(arity + b_max, b_max + 1) frames, a count that the cap in
:func:`engine.hf` bounds.  Each frame before the last variable keeps only
the generators that some monomial of degree <= b_max over it can reach:
those whose exponents from ``pos`` on total at most b_max less the
frame's lowest prefix total, the lowest degree of P.  At the root that
total is 0, so only the generators of degree <= b_max enter the walk, and
below it a generator that every monomial of degree <= b_max over the
frame's prefixes misses leaves the walk and splits no span.  At the last
variable there are no spans to split, and such a generator's exponent
there puts its term past b_max, so the frame skips the filter.  The
oracle shares no code with the other three methods: it sums its own
numerator and never calls :mod:`series`.
"""

from __future__ import annotations

from itertools import accumulate
from operator import itemgetter
from typing import Sequence

# No compiled kernel exists; perfbench/run.py reports this in its run metadata.
HAVE_COMPILED = False


def count_outside_upto(arity: int, b_max: int, gens: Sequence[Sequence[int]]) -> list[int]:
    """Number of monomials in ``arity`` variables outside the ideal generated
    by ``gens`` (exponent vectors), for each degree 0..``b_max``."""
    if b_max < 0:
        return []
    top = b_max + 1
    last = arity - 1
    # coefficients of the numerator over (1 - t)^arity, up to degree b_max
    numerator = [0] * top
    # P is a list of (degree, coefficient) pairs of distinct degrees below
    # ``top``, its lowest degree first.  Frames only add into the numerator,
    # so the order they are taken in does not matter, and a stack keeps a
    # ring of any arity within Python's recursion limit.
    # each generator carries, after its exponents, its totals from each
    # variable on, the last variable's first: g[~pos] is its total from pos on
    stack = [(0, [(*g, *accumulate(reversed(g))) for g in gens], [(0, 1)])]
    while stack:
        pos, active, poly = stack.pop()
        # a monomial over the frame that g divides has degree at least the
        # lowest prefix total plus g's total from ``pos`` on
        room = top - poly[0][0]
        if pos < last:
            active = [g for g in active if g[~pos] < room]
        active.sort(key=itemgetter(pos))
        count = len(active)
        first = active[0][pos] if count else top
        for d, c in poly:
            numerator[d] += c
            if d + first < top:
                numerator[d + first] -= c
        if pos == last:
            continue
        # a span's P * t^lo lies past b_max once lo reaches ``room``
        n = 0
        lo = first
        while lo < room:
            while n < count and active[n][pos] <= lo:
                n += 1
            # the last span never ends: its t^hi is past b_max
            hi = active[n][pos] if n < count else top
            terms = {d + lo: c for d, c in poly if d + lo < top}
            for d, c in poly:
                if d + hi < top:
                    terms[d + hi] = terms.get(d + hi, 0) - c
            stack.append((pos + 1, active[:n], list(terms.items())))
            lo = hi
    for _ in range(arity):
        numerator = list(accumulate(numerator))
    return numerator


def count_outside(arity: int, degree: int, gens: Sequence[Sequence[int]]) -> int:
    """Number of degree-``degree`` monomials in ``arity`` variables that lie
    outside the ideal generated by ``gens`` (exponent vectors)."""
    if degree < 0:
        return 0
    return count_outside_upto(arity, degree, gens)[degree]
