"""Hilbert series as a rational function: numerator over (1 - t)^arity.

Every method shares one exact representation, the numerator K(t) of
HS(R/I, t) = K(t) / (1 - t)^a; expanding it against the free-ring counts
F(a, b) recovers the Hilbert function values.  Two independent routes compute
K(t):

* :func:`syzygy_numerator`, the Bayer-Stillman recursion over syzygy
  sub-ideals, memoized on the sub-ideal; :func:`series_numerator`, the
  syzygy method and ``auto`` take it;
* :func:`subset_numerator`, the alternating sum over all 2^n subsets of the
  generators of (-1)^|S| t^(deg lcm S); only the lcm lattice method takes
  it, so it stays the independent check on the recursion.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Optional

from .monomial import MonomialIdeal, minimal_exponents


@dataclass(frozen=True)
class SeriesNumerator:
    """Finitely supported numerator polynomial with denominator (1 - t)^arity.

    ``coefficients`` maps degree to a signed integer; zero coefficients are
    not stored.
    """

    arity: int
    coefficients: tuple[tuple[int, int], ...]  # (degree, coefficient), ascending

    @property
    def is_zero(self) -> bool:
        return not self.coefficients


def subset_lcm_layers(I: MonomialIdeal) -> list[list[tuple[int, ...]]]:
    """Exponent vectors of the lcm of every subset of I's generators as given,
    grouped by subset size.

    ``layers[r]`` holds the lcms of all r-subsets in colexicographic order
    (the order of their bitmasks); ``layers[0]`` is the empty subset's 1.
    Each subset extends the subset without its last generator, so every
    subset costs one componentwise max and no Monomial is built.
    """
    layers: list[list[tuple[int, ...]]] = [[(0,) * I.arity]]
    for gen in I.generators:
        g = gen.exponents
        layers.append([])
        for r in range(len(layers) - 2, -1, -1):
            layers[r + 1] += [tuple(map(max, m, g)) for m in layers[r]]
    return layers


def alternating_numerator(arity: int, layer_degrees: Iterable[Counter]) -> SeriesNumerator:
    """The numerator sum over r of (-1)^r * sum over d of layer_degrees[r][d] t^d."""
    coeffs: Counter = Counter()
    for r, degrees in enumerate(layer_degrees):
        sign = -1 if r % 2 else 1
        for d, mult in degrees.items():
            coeffs[d] += sign * mult
    return SeriesNumerator(arity, tuple(sorted((d, c) for d, c in coeffs.items() if c)))


def subset_numerator(I: MonomialIdeal) -> SeriesNumerator:
    """K(t) summed over the subsets of I's generators as given.

    Any generating set of the ideal gives the same K(t), so callers pass the
    minimal generators to sum over the fewest subsets.
    """
    layers = subset_lcm_layers(I)
    return alternating_numerator(I.arity, (Counter(map(sum, layer)) for layer in layers))


def syzygy_numerator(
    I: MonomialIdeal, stats: Optional[dict] = None, memo: Optional[dict] = None
) -> SeriesNumerator:
    """Numerator K(t) of HS(R/I, t) over (1 - t)^arity by the syzygy recursion.

    With the minimal generators sorted as g_1 < ... < g_n,

        K(I) = 1 - t^deg(g_1) - sum over j >= 2 of t^deg(g_j) K(S_j),

    where S_j is the ideal of the syzygy quotients lcm(g_i, g_j) / g_j for
    i < j (the colon ideal (g_1, ..., g_{j-1}) : g_j).  The zero ideal gives
    1 and the unit ideal 0.  K depends on the ideal alone, so every
    sub-ideal is computed once, memoized on its canonical (minimal, sorted)
    exponent tuples.  An explicit stack of open nodes replaces Python
    recursion.  The recursion reads every generator of I, whatever degree
    the caller expands to.

    ``memo``, when given, maps canonical generator tuples to coefficient
    tuples and is read and filled in place, so calls that pass the same dict
    share their sub-ideals; a root already in it opens no node.  ``stats``,
    when given, receives ``misses`` (sub-ideals computed by this call, the
    root included), ``hits`` (sub-ideals found in the memo) and
    ``memo_size``.
    """
    memo = {} if memo is None else memo
    known_before = len(memo)
    hits = 0

    def open_node(gens: tuple) -> list:
        """[canonical generators, next j, coefficients of K so far]"""
        coeffs = Counter({0: 1})
        if gens:
            coeffs[sum(gens[0])] -= 1
        return [gens, 1, coeffs]

    def subtract_shifted(coeffs: Counter, sub: tuple, shift: int) -> None:
        for d, c in sub:
            coeffs[d + shift] -= c

    root = tuple(sorted(minimal_exponents(g.exponents for g in I.generators)))
    if root in memo:
        hits += 1
        stack = []
    else:
        stack = [open_node(root)]
    while stack:
        frame = stack[-1]
        gens, j, coeffs = frame
        if j >= len(gens):
            memo[gens] = tuple(sorted((d, c) for d, c in coeffs.items() if c))
            stack.pop()
            if stack:
                parent = stack[-1]
                subtract_shifted(parent[2], memo[gens], sum(parent[0][parent[1]]))
                parent[1] += 1
            continue
        g = gens[j]
        quotients = (tuple([x - y if x > y else 0 for x, y in zip(h, g)]) for h in gens[:j])
        sub = tuple(sorted(minimal_exponents(quotients)))
        known = memo.get(sub)
        if known is None:
            stack.append(open_node(sub))
        else:
            hits += 1
            subtract_shifted(coeffs, known, sum(g))
            frame[1] = j + 1
    if stats is not None:
        stats.update({"hits": hits, "misses": len(memo) - known_before, "memo_size": len(memo)})
    return SeriesNumerator(I.arity, memo[root])


def series_numerator(I: MonomialIdeal) -> SeriesNumerator:
    """Numerator of HS(R/I, t) over (1 - t)^arity, by :func:`syzygy_numerator`.

    Any generating set of the ideal gives the same numerator; redundant
    generators are dropped first.  No lattice is built, so no generator cap
    applies.
    """
    return syzygy_numerator(I)


def expand_series(num: SeriesNumerator, b_max: int) -> list[int]:
    """First b_max + 1 power-series coefficients of K(t) / (1 - t)^arity.

    Dividing by (1 - t) takes prefix sums, so the expansion is the numerator's
    coefficients up to b_max, summed ``arity`` times: exact, and the same as
    the convolution with F(a, b).  Coefficients of a valid quotient ring are
    never negative; a negative value signals a broken numerator.
    """
    if b_max < 0:
        raise ValueError("b_max must be >= 0")
    values = [0] * (b_max + 1)
    for d, c in num.coefficients:
        if d <= b_max:
            values[d] += c
    for _ in range(num.arity):
        values = list(accumulate(values))
    for b, v in enumerate(values):
        if v < 0:
            raise ValueError(f"negative coefficient {v} at degree {b}: invalid numerator")
    return values


def render_series(num: SeriesNumerator) -> str:
    """Text form like ``(1 - t^2 - t^3 + t^5)/(1 - t)^3``.

    Terms appear in ascending degree with explicit signs; zero terms are
    omitted.  The zero numerator renders as plain ``0``.
    """
    if num.is_zero:
        return "0"
    parts: list[str] = []
    for d, c in num.coefficients:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            t = "t" if d == 1 else f"t^{d}"
            body = t if mag == 1 else f"{mag}*{t}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    numerator = " ".join(parts)
    if len(num.coefficients) > 1 or num.coefficients[0][0] != 0:
        numerator = f"({numerator})"
    return f"{numerator}/(1 - t)^{num.arity}"
