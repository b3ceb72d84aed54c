"""Hilbert series as a rational function: numerator over (1 - t)^arity.

Every method shares one exact representation, the numerator K(t) of
HS(R/I, t) = K(t) / (1 - t)^a; expanding it against the free-ring counts
F(a, b) recovers the Hilbert function values.  Two independent routes compute
K(t):

* the Bayer-Stillman recursion over syzygy sub-ideals, with one entry per
  input kind.  :func:`syzygy_coefficients` is the tuple entry: it runs on
  minimal exponent tuples of one arity and minimalizes nothing itself; the
  table's annihilator terms, already minimal, call it directly.
  :func:`series_numerator` is the ideal entry: it minimalizes a
  :class:`MonomialIdeal` once and calls the tuple entry; the syzygy method,
  ``auto`` and ``series`` take it.  The recursion packs each monomial into
  one int, a field of W bits per variable whose top bit is a guard that
  stays 0, so quotients, divisibility and degrees are a few int operations,
  and ascending ints let each quotient set be minimalized in one pass.  A
  principal sub-ideal is closed where it is found, with no node opened for
  it.  The memo keys are opaque: they carry W and do not depend on the
  ring's arity;
* :func:`subset_numerator`, the alternating sum over all 2^n subsets of the
  generators of (-1)^|S| t^(deg lcm S); only the lcm lattice method takes
  it, so it stays the independent check on the recursion.  It stays on
  exponent tuples, as do :func:`monomial.minimal_exponents` and the
  oracle, so the cross-checks do not share the packing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate
from operator import lshift, or_
from typing import Iterable, Optional, Sequence

from .monomial import MonomialIdeal, minimal_exponents


@dataclass(frozen=True)
class SeriesNumerator:
    """Finitely supported numerator polynomial with denominator (1 - t)^arity.

    ``coefficients`` is a tuple of ``(degree, coefficient)`` pairs in
    ascending degree; zero coefficients are not stored.
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


@lru_cache(maxsize=64)
def _fields(arity: int, width: int) -> tuple[tuple[int, ...], int, int, int]:
    """Constants of the packed layout with ``arity`` fields of ``width`` bits.

    Variable i sits at bit offset (arity - 1 - i) * width, so comparing two
    packed ints compares their exponent tuples lexicographically.  Returns
    the offset of each variable, the guard bits (the top bit of every
    field), one 1 at the bottom of every field, and the offset of the top
    field, where ``v * ones`` collects the sum of v's fields.
    """
    offsets = tuple(range((arity - 1) * width, -1, -width))
    ones = sum(1 << s for s in offsets)
    return offsets, ones << (width - 1), ones, offsets[0] if offsets else 0


def syzygy_coefficients(
    exponents: Sequence[tuple[int, ...]],
    stats: Optional[dict] = None,
    memo: Optional[dict] = None,
) -> tuple[tuple[int, int], ...]:
    """The ``(degree, coefficient)`` pairs of K(t) for the monomial ideal
    whose minimal generators have the exponent tuples ``exponents``.

    The tuples must share one arity, which may be 0 (``[()]`` is the unit
    ideal in no variables), and must already be minimal: no minimalization
    happens here, so a redundant generator gives a wrong K(t).  With the
    generators sorted as g_1 < ... < g_n,

        K(I) = 1 - t^deg(g_1) - sum over j >= 2 of t^deg(g_j) K(S_j),

    where S_j is the ideal of the syzygy quotients lcm(g_i, g_j) / g_j for
    i < j (the colon ideal (g_1, ..., g_{j-1}) : g_j).  The zero ideal gives
    1, the unit ideal 0 and a principal ideal 1 - t^d.  An explicit stack of
    suspended nodes replaces Python recursion; a principal S_j (every S_2 is
    one) is closed where it is found, without opening a node, and a node
    runs on through consecutive memo hits until it must open a child.

    Each generator is packed once into one int: variable i gets a field of
    W bits, the earlier variables in the higher fields, where W is one more
    than the bit length of the largest generator degree.  The top bit of
    every field is a guard and stays 0 in a packed value, since no exponent
    or degree needs more than W - 1 bits and quotients never exceed their
    generators.  The fields of trailing variables that no generator uses
    are dropped.  Ascending ints are then the generators in lexicographic
    order of their exponent tuples, and the primitives are a few int
    operations each:

    * quotient: ``d = (h | guards) - g`` keeps its guard bit in exactly the
      fields where h >= g, and ``d`` masked to the low W - 1 bits of those
      fields is lcm(h, g) / g;
    * divisibility: h divides v exactly when no field of
      ``(v | guards) - h`` borrows its guard bit.  A proper divisor packs
      to a smaller int, so the quotients are minimalized in one ascending
      pass, each tested against the survivors before it;
    * degree: ``v * ones`` sums all fields of v into the top one.

    K depends on the ideal alone, so every sub-ideal is computed once,
    memoized on W and its sorted packed minimal generators.  Equal keys
    mean equal K(t): a key fixes the exponents field by field, and K(t) is
    the same under a renaming of the variables and whatever trailing
    variables no generator uses, so the key does not depend on the ring's
    arity.  It carries W because ideals packed at different widths can give
    equal ints.  Keys are opaque.

    ``memo``, when given, maps those keys to coefficient tuples and is read
    and filled in place, so calls that pass the same dict share their
    sub-ideals; a root already in it opens no node.  ``stats``, when given,
    receives ``misses`` (sub-ideals computed by this call, the root and the
    principal ones included), ``hits`` (sub-ideals found in the memo) and
    ``memo_size``.
    """
    memo = {} if memo is None else memo
    known_before = len(memo)
    width = max(map(sum, exponents), default=0).bit_length() + 1
    offsets, guards, ones, top = _fields(len(exponents[0]) if exponents else 0, width)
    root = sorted([sum(map(lshift, e, offsets)) for e in exponents])
    used = reduce(or_, root, 0)
    unused = ((used & -used).bit_length() - 1) // width * width if used else 0
    if unused:
        root = [v >> unused for v in root]
        guards >>= unused
        ones >>= unused
        top -= unused
    mask = (1 << width) - 1
    borrow = width - 1

    root_key = (width, tuple(root))
    hits = 0
    if root_key in memo:
        hits = 1
    elif not root:
        memo[root_key] = ((0, 1),)
    elif len(root) == 1:
        # 1 - t^d for a principal ideal, 0 for the unit ideal: no node to open
        d = (root[0] * ones >> top) & mask
        memo[root_key] = ((0, 1), (d, -1)) if d else ()
    else:
        key, gens, j = root_key, root_key[1], 1
        coeffs = Counter({0: 1})
        coeffs[(gens[0] * ones >> top) & mask] -= 1
        stack = []  # suspended ancestors: (key, gens, j, coeffs, shift)
        while True:
            if j < len(gens):
                g = gens[j]
                shift = (g * ones >> top) & mask
                # lcm(h, g) / g for every earlier h: the fields of h - g whose
                # guard bit survived the subtraction
                kept = []
                for v in sorted({
                    (diff := (h | guards) - g) & ((ge := diff & guards) - (ge >> borrow))
                    for h in gens[:j]
                }):
                    guarded = v | guards
                    for h in kept:
                        if (guarded - h) & guards == guards:
                            break
                    else:
                        kept.append(v)
                sub_key = (width, tuple(kept))
                sub = memo.get(sub_key)
                if sub is not None:
                    hits += 1
                elif len(kept) == 1:
                    d = (kept[0] * ones >> top) & mask
                    sub = memo[sub_key] = ((0, 1), (d, -1)) if d else ()
                else:
                    stack.append((key, gens, j, coeffs, shift))
                    key, gens, j = sub_key, sub_key[1], 1
                    coeffs = Counter({0: 1})
                    coeffs[(gens[0] * ones >> top) & mask] -= 1
                    continue
            else:
                sub = memo[key] = tuple(sorted([(d, c) for d, c in coeffs.items() if c]))
                if not stack:
                    break
                key, gens, j, coeffs, shift = stack.pop()
            # coeffs -= t^shift * K(S_j)
            for d, c in sub:
                coeffs[d + shift] -= c
            j += 1
    if stats is not None:
        stats.update({"hits": hits, "misses": len(memo) - known_before, "memo_size": len(memo)})
    return memo[root_key]


def series_numerator(I: MonomialIdeal, stats: Optional[dict] = None) -> SeriesNumerator:
    """Numerator K(t) of HS(R/I, t) over (1 - t)^arity by the syzygy recursion.

    The :class:`MonomialIdeal` entry of :func:`syzygy_coefficients`: it
    minimalizes I's generators once, all of them whatever degree the caller
    expands to, and runs the recursion on their exponent tuples, so any
    generating set of the ideal gives the same numerator.  No lattice is
    built, so no generator cap applies.  ``stats`` is passed through.
    """
    exponents = minimal_exponents(g.exponents for g in I.generators)
    return SeriesNumerator(I.arity, syzygy_coefficients(exponents, stats))


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
