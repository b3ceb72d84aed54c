"""Enumeration kernel for the brute-force Hilbert function oracle.

One walk over the exponent prefixes of the first a - 2 variables, each of
total at most b_max, counts the monomials outside the ideal at every degree
0..b_max at once, in exact integers.  Only those prefixes open stack frames;
the last two variables are never enumerated.  For each prefix of total d,
the penultimate exponent's range splits into runs over which the least last
exponent ``low`` of the generators still dividing stays fixed: a monomial in
a run is outside exactly while its last exponent is below ``low``, so each
run adds four +-1 entries to a second-order difference array over the
degree, and the runs stop at the first ``low`` of 0.  The extensions of one
frame that the same generators divide have the same runs, shifted by their
degree, so the walk steps from one dividing set to the next and adds each
span of degrees as one box of a third-order array: a closing frame costs
O(dividing sets x runs), not O(b_max x runs).  A prefix that no generator
divides any more has only free completions, which are summed for all
degrees together at the end.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, itemgetter
from typing import Sequence

# No compiled kernel exists; perfbench/run.py reports this in its run metadata.
HAVE_COMPILED = False


def _runs(
    dividing: list[tuple[int, ...]], pen: int, last: int, room: int
) -> list[tuple[int, int]]:
    """The (offset, sign) entries below ``room`` of the second-order
    difference array that counts, per degree above the prefix's, the
    completions (e, f) of the last two variables outside the ideal of
    ``dividing``, which is sorted by exponent ``pen``.

    A run [e0, e1) of penultimate exponents e over which ``low``, the least
    last exponent of the generators with penultimate exponent <= e, stays
    fixed puts (e, f) outside for 0 <= f < low: +1 on degrees e .. e + low - 1
    for each e in the run, which is the four entries (e0, +1), (e1, -1),
    (e0 + low, -1) and (e1 + low, +1).  Below the first generator ``low`` is
    infinite, so that run is the free span; the runs stop at the first
    ``low`` of 0.  An offset at or above ``room`` changes no degree below the
    top, so it is dropped."""
    entries = []
    start, low = 0, room
    for g in dividing:
        f = g[last]
        if f < low:
            e = g[pen]
            if start < e:
                entries += ((start, 1), (e, -1), (start + low, -1), (e + low, 1))
            start, low = e, f
            if low == 0:
                break
    else:
        # the last run never ends
        entries += ((start, 1), (start + low, -1))
    return [entry for entry in entries if entry[0] < room]


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
    pen = last - 1
    # Difference arrays over the degree.  ``free[k]`` marks the start degrees
    # of prefixes whose k later variables are free: k + 1 prefix sums turn
    # the marks into the count of their completions per degree.  The runs of
    # a ring of two variables go into ``free[1]``, second order like them; a
    # closing frame adds its runs to ``free[2]``, once for each span of
    # extensions with one dividing set.
    free = [[0] * (top + 1) for _ in range(arity)]

    if arity == 2:
        for off, sign in _runs(sorted(gen_list, key=itemgetter(pen)), pen, last, top):
            free[1][off] += sign

    # Each frame extends a prefix of total ``s`` that ``active`` divide by the
    # exponent of variable ``pos`` < pen.  Frames only add into the
    # difference arrays, so the order they are taken in does not matter, and
    # a stack keeps a ring of any arity within Python's recursion limit.
    stack = [(0, 0, gen_list)] if arity > 2 else []
    while stack:
        pos, s, active = stack.pop()
        active.sort(key=itemgetter(pos))
        count = len(active)
        first = active[0][pos] if active else top
        # exponents below ``first`` leave no generator dividing the prefix
        stop = min(s + first, top)
        if s < stop:
            marks = free[last - pos]
            marks[s] += 1
            marks[stop] -= 1
        n = 0
        if pos + 1 < pen:
            for d in range(s + first, top):
                e = d - s
                while n < count and active[n][pos] <= e:
                    n += 1
                stack.append((pos + 1, d, active[:n]))
            continue
        # Close the last two variables of each extension of total d: its
        # runs only shift with d until another generator divides it, so the
        # span [d, end) of one dividing set adds each run entry once per
        # degree of the span, a box that two marks in ``spans`` make.
        spans = free[2]
        by_pen = sorted(active, key=itemgetter(pen))
        d = s + first
        while d < top:
            e = d - s
            while n < count and active[n][pos] <= e:
                n += 1
            end = s + active[n][pos] if n < count else top
            for off, sign in _runs([g for g in by_pen if g[pos] <= e], pen, last, top - d):
                spans[d + off] += sign
                if end + off < top:
                    spans[end + off] -= sign
            d = end

    acc = free[last]
    for k in range(last - 1, 0, -1):
        acc = list(map(add, accumulate(acc), free[k]))
    return list(accumulate(accumulate(acc[:top])))


def count_outside(arity: int, degree: int, gens: Sequence[Sequence[int]]) -> int:
    """Number of degree-``degree`` monomials in ``arity`` variables that lie
    outside the ideal generated by ``gens`` (exponent vectors)."""
    if degree < 0:
        return 0
    return count_outside_upto(arity, degree, gens)[degree]
