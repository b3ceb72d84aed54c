"""Hilbert series as a rational function: numerator over (1 - t)^arity.

Every method shares one exact representation, the numerator K(t) of
HS(R/I, t) = K(t) / (1 - t)^a; expanding it against the free-ring counts
F(a, b) recovers the Hilbert function values.  Two independent routes compute
K(t):

* the Bayer-Stillman recursion over syzygy sub-ideals, one loop,
  :func:`_resolve`, with two entries.  :func:`series_numerator` is the
  entry for an ideal: it packs a :class:`MonomialIdeal`'s generators,
  minimal or not, minimalizes them, packed, and resolves them over a fresh
  memo; the syzygy method, ``auto`` and ``series`` take it.
  :func:`colon_coefficients` is the stage entry, the table's, and the only
  one that takes a memo: it resolves each target's colon ideal straight
  from the colon step, over one memo per table.  The recursion packs each
  monomial into one int, in one of two layouts that :func:`_pack` picks
  from the input: one bit per variable when every exponent is 0 or 1, as
  in a Stanley-Reisner ideal, and otherwise a field of W bits per variable
  whose top bit is a guard that stays 0.  Either way quotients,
  divisibility and degrees are a few int operations.  Each entry packs its
  tuples once, and the loop resolves the ideal as it resolves every colon
  ideal: a principal one is closed where it is found, with no node opened
  for it, and the variables among the minimal generators are split off,
  K(S) = (1 - t)^k K(S'), (1 - t)^k a cached binomial row.  The memo keys are opaque: they carry W, 1 for the
  bit layout and at least 3 for fields, so one memo can hold both, and do
  not depend on the ring's arity;
* :func:`lattice_numerator`, the sum of mu(m) t^(deg m) over the lcm
  lattice of the generators, mu its Mobius function; only the lcm lattice
  method takes it, so it stays the independent check on the recursion.

This module alone knows the packed layouts.  Each has one minimal pass,
:func:`_minimal` in fields and :func:`_bit_minimal` on bits, which gives
the minimal generators of an ideal of packed ints as ``(variables, rest)``:
the variables ORed into one mask, and the other minimal generators, none a
multiple of a variable, ascending.  Each has one colon step,
:func:`_colon` and :func:`_bit_colon`, which gives those of
(g_1, ..., g_{j-1}) : g_j from packed ints through its pass.  The recursion
runs the pass on the ideal that :func:`series_numerator` packs and the
colon step for every S_j; the stage entry runs the colon step
on the stage's generators for each target, keeps the generators that can
reach the table's last degree on their packed degrees, and hands the
survivors to the loop, so no colon ideal is unpacked.
:func:`lattice_numerator` stays on exponent tuples, as do
:func:`monomial.minimal_exponents`, which the ``lcm`` method's
``minimalize`` and ``engine.AnnihilatorDecomposition.terms`` call, and the
oracle, so the cross-checks do not share the packing.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from itertools import accumulate
from math import comb
from operator import lshift, or_
from typing import Mapping, Optional, Sequence

from .monomial import MonomialIdeal, _set, _Value


def _terms(coeffs: Mapping[int, int]) -> tuple[tuple[int, int], ...]:
    """The ``(degree, coefficient)`` pairs of ``coeffs`` sorted by degree,
    zero coefficients dropped: the form of every numerator."""
    return tuple(sorted([(d, c) for d, c in coeffs.items() if c]))


class SeriesNumerator(_Value):
    """Finitely supported numerator polynomial with denominator (1 - t)^arity.

    ``coefficients`` is a tuple of ``(degree, coefficient)`` pairs in
    ascending degree; zero coefficients are not stored.
    """

    __slots__ = ("arity", "coefficients")

    def __init__(self, arity: int, coefficients: tuple[tuple[int, int], ...]) -> None:
        _set(self, "arity", arity)
        _set(self, "coefficients", coefficients)

    @classmethod
    def from_degrees(cls, arity: int, coeffs: Mapping[int, int]) -> SeriesNumerator:
        """The numerator with coefficient ``coeffs[d]`` at degree d: sorted
        by degree, zero coefficients dropped."""
        return cls(arity, _terms(coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coefficients


def lattice_numerator(I: MonomialIdeal) -> SeriesNumerator:
    """K(t) by inclusion-exclusion over the lcm lattice of I's generators as given.

    K(t) is the sum over lattice elements m of mu(m) t^(deg m), where mu(m)
    sums (-1)^|S| over the generator subsets S with lcm m.  Each generator g
    makes one pass over a snapshot of the dict m -> mu(m),
    ``mu[lcm(m, g)] -= mu[m]``; an entry that reaches 0 is dropped, and a
    later term may recreate it.  Any generating set of the ideal gives the
    same K(t), so callers pass the minimal generators.
    """
    mu = {(0,) * I.arity: 1}
    for gen in I.generators:
        g = gen.exponents
        for m, c in list(mu.items()):
            join = tuple(map(max, m, g))
            left = mu.get(join, 0) - c
            if left:
                mu[join] = left
            else:
                del mu[join]
    coeffs: Counter = Counter()
    for m, c in mu.items():
        coeffs[sum(m)] += c
    return SeriesNumerator.from_degrees(I.arity, coeffs)


def _pack(exponents: Sequence[tuple[int, ...]]) -> tuple[list[int], tuple]:
    """The exponent tuples, all of one arity a, packed into ints, and their
    layout ``(width, guards, degree, minimal, colon)``.

    This is the one place that picks a layout, from the tuples alone.  If
    every exponent is 0 or 1, the ideal is squarefree and takes the bit
    layout: W = ``width`` = 1, one bit per variable, no guard bits
    (``guards`` is 0), the degree ``int.bit_count``, and
    :func:`_bit_minimal` and :func:`_bit_colon`.  Any other ideal takes
    the field layout: a field of W bits per variable, W one more than the
    bit length of the largest degree, so W >= 3; ``guards`` holds the top
    bit of every field; the degree of v is v mod (2^W - 1), which sums the
    fields since 2^W = 1 modulo 2^W - 1 and no degree reaches 2^W - 1; and
    :func:`_minimal` and :func:`_colon`.  In both, variable i sits at bit
    offset (a - 1 - i) * W, so comparing two packed ints compares their
    exponent tuples lexicographically.  Both minimal passes take
    ``(ascending, guards, borrow)`` and both colon steps
    ``(gens, j, guards, borrow)``, ``borrow`` = W - 1, so the loop calls
    either layout's alike.
    """
    width = max(map(sum, exponents), default=0).bit_length() + 1
    arity = len(exponents[0]) if exponents else 0
    offsets = range((arity - 1) * width, -1, -width)
    packed = [sum(map(lshift, e, offsets)) for e in exponents]
    ones = ((1 << width * arity) - 1) // ((1 << width) - 1)
    # every exponent is 0 or 1 exactly when no packed bit lies outside `ones`
    if not reduce(or_, packed, 0) & ~ones:
        offsets = range(arity - 1, -1, -1)
        return [sum(map(lshift, e, offsets)) for e in exponents], _BITS
    mask = (1 << width) - 1
    return packed, (width, ones << (width - 1), lambda v: v % mask, _minimal, _colon)


def _minimal(ascending: Sequence[int], guards: int, borrow: int) -> tuple[int, tuple[int, ...]]:
    """The minimal generators of the ideal of the packed ints ``ascending``,
    as ``(variables, rest)``: the field layout's minimal pass.

    The ints are packed with guard bits ``guards`` and fields of
    ``borrow + 1`` bits, and sorted ascending.  ``variables`` ORs those of
    degree 1, each one set bit at the bottom of a field, and ``rest`` holds
    the other minimal ones, ascending.  One pass sorts them out: a multiple
    of a variable packs to a larger int than the variable, so an int with a
    nonzero exponent at a variable already met goes, a variable joins
    ``variables``, and any other int is tested only against the survivors
    in ``rest`` before it.  A proper divisor packs to a smaller int, and h
    divides v exactly when no field of ``(v | guards) - h`` borrows its
    guard bit; a repeat divides itself.  A 0 makes the ideal the unit
    ideal, ``(0, (0,))``.  :func:`_bit_minimal` is the same pass in the
    bit layout.
    """
    if ascending and not ascending[0]:
        return 0, (0,)
    ones = guards >> borrow
    low = (1 << borrow) - 1
    variables = multiples = 0
    rest: list[int] = []
    for v in ascending:
        if v & multiples:
            continue
        if not v & (v - 1) and v & ones:
            variables |= v
            multiples |= v * low
            continue
        guarded = v | guards
        for h in rest:
            if (guarded - h) & guards == guards:
                break
        else:
            rest.append(v)
    return variables, tuple(rest)


def _colon(gens: Sequence[int], j: int, guards: int, borrow: int) -> tuple[int, tuple[int, ...]]:
    """The minimal generators of (gens[0], ..., gens[j-1]) : gens[j], as
    ``(variables, rest)``: the field layout's colon step.

    ``gens`` are packed as for :func:`_minimal`.  With g = gens[j], the
    colon is generated by the syzygy quotients lcm(h, g) / g, and
    ``d = (h | guards) - g`` keeps its guard bit in exactly the fields
    where h >= g, so ``d`` masked to the low ``borrow`` bits of those
    fields is the quotient.  :func:`_minimal` sets the variables among the
    quotients aside and keeps the minimal others.  :func:`_bit_colon` is
    the same step in the bit layout.
    """
    g = gens[j]
    return _minimal(sorted({
        (diff := (h | guards) - g) & ((ge := diff & guards) - (ge >> borrow))
        for h in gens[:j]
    }), guards, borrow)


def _bit_minimal(
    ascending: Sequence[int], guards: int = 0, borrow: int = 0
) -> tuple[int, tuple[int, ...]]:
    """:func:`_minimal` in the bit layout, which has neither guard bits nor
    borrows, so ``guards`` and ``borrow`` go unread.

    Every single bit is a variable, a multiple of a variable has its bit
    set, and h divides v exactly when ``h & ~v`` is 0.
    """
    if ascending and not ascending[0]:
        return 0, (0,)
    variables = 0
    rest: list[int] = []
    for v in ascending:
        if v & variables:
            continue
        if not v & (v - 1):
            variables |= v
            continue
        outside = ~v
        for h in rest:
            if not h & outside:
                break
        else:
            rest.append(v)
    return variables, tuple(rest)


def _bit_colon(
    gens: Sequence[int], j: int, guards: int = 0, borrow: int = 0
) -> tuple[int, tuple[int, ...]]:
    """:func:`_colon` in the bit layout, ``guards`` and ``borrow`` unread:
    the quotient lcm(h, g) / g is ``h & ~g``."""
    outside = ~gens[j]
    return _bit_minimal(sorted({h & outside for h in gens[:j]}))


# the bit layout's (width, guards, degree, minimal, colon), for every arity
_BITS = (1, 0, int.bit_count, _bit_minimal, _bit_colon)


def _closed(d: int) -> tuple[tuple[int, int], ...]:
    """K of a principal ideal whose generator has degree d: 0 for the unit
    ideal and 1 - t^d otherwise."""
    return ((0, 1), (d, -1)) if d else ()


@lru_cache(maxsize=64)
def _row(k: int) -> tuple[tuple[int, int], ...]:
    """The ``(degree, coefficient)`` pairs of (1 - t)^k."""
    return tuple([(i, -comb(k, i) if i & 1 else comb(k, i)) for i in range(k + 1)])


def _times_row(coeffs: tuple[tuple[int, int], ...], k: int) -> tuple[tuple[int, int], ...]:
    """The ``(degree, coefficient)`` pairs of K(t) (1 - t)^k, K given by
    ``coeffs``: the cached row of (1 - t)^k itself when K = 1."""
    row = _row(k)
    if coeffs == ((0, 1),):
        return row
    product: dict[int, int] = {}
    for d, c in coeffs:
        for i, b in row:
            e = d + i
            product[e] = product.get(e, 0) + b * c
    return _terms(product)


def series_numerator(I: MonomialIdeal, stats: Optional[dict] = None) -> SeriesNumerator:
    """Numerator K(t) of HS(R/I, t) over (1 - t)^arity by the syzygy
    recursion: the recursion's entry for an ideal.

    It reads all of I's generators, in any order, with repeats and
    generators that others divide, whatever degree the caller expands to, so
    any generating set of the ideal gives the same numerator.  With the
    minimal generators sorted as g_1 < ... < g_n,

        K(I) = 1 - t^deg(g_1) - sum over j >= 2 of t^deg(g_j) K(S_j),

    where S_j is the ideal of the syzygy quotients lcm(g_i, g_j) / g_j for
    i < j (the colon ideal (g_1, ..., g_{j-1}) : g_j).  The zero ideal gives
    1, the unit ideal 0 and a principal ideal 1 - t^d.  No lattice is built,
    so no generator cap applies.

    Each generator is packed once into one int by :func:`_pack`, which
    picks the layout from the generators.  If I is squarefree, every
    exponent 0 or 1, variable i gets one bit, the earlier variables the
    higher bits.  Otherwise variable i gets a field of W bits, the earlier
    variables in the higher fields, where W is one more than the bit length
    of the largest generator degree; the top bit of every field is a guard
    and stays 0 in a packed value, since no exponent or degree needs more
    than W - 1 bits and quotients never exceed their generators.  Ascending
    ints are then the generators in lexicographic order of their exponent
    tuples.  The layout's minimal pass, :func:`_bit_minimal` or
    :func:`_minimal`, gives the variables and the rest of the minimal
    generators in one ascending pass, and :func:`_resolve` runs the
    recursion on them over a fresh memo.

    ``stats``, when given, receives ``misses`` (the entries the call adds to
    the memo: the ideal, the principal sub-ideals, and both S and S' of a
    split), ``hits`` (sub-ideals found in the memo), ``memo_size`` and
    ``nodes`` (the nodes opened: sub-ideals whose K(t) is summed over their
    own S_j; a split S opens at most one, for S').
    """
    packed, layout = _pack([g.exponents for g in I.generators])
    width, guards, _, minimal, _ = layout
    variables, rest = minimal(sorted(packed), guards, width - 1)
    return SeriesNumerator(I.arity, _resolve(variables, rest, layout, {}, stats))


def colon_coefficients(
    exponents: Sequence[tuple[int, ...]], shifts: Sequence[int], b_max: int, memo: dict
) -> Counter:
    """The sum over the targets j of t^shift_j K(S_j), S_j read up to degree
    b_max - shift_j, as a ``Counter`` of degree -> coefficient.

    The targets are the last ``len(shifts)`` of the exponent tuples, which
    share one arity, may be 0, and S_j is the colon ideal
    (e_0, ..., e_{j-1}) : e_j, e_i = exponents[i]: the zero ideal, with
    K = 1, for j = 0.  The tuples are packed once by :func:`_pack`: one
    bit per variable if every exponent is 0 or 1, and otherwise at the
    field width for their largest degree.  So a table packs each stage on
    its own, and its memo can hold keys of both widths.  Each S_j comes
    from the layout's colon step, :func:`_bit_colon` or :func:`_colon`, as
    ``(variables, rest)``.  Only its generators of degree <= b_max - shift_j
    can reach degree b_max once shifted, so the others are dropped on their
    packed degrees (the variables when that reach is below 1), and
    :func:`_resolve` runs the recursion on the survivors over ``memo``, read
    and filled in place: this is the one entry whose calls share a memo, so
    a sub-ideal already in it opens no node.
    """
    coeffs: Counter = Counter()
    packed, layout = _pack(exponents)
    width, guards, degree, _, colon = layout
    for j, shift in enumerate(shifts, len(packed) - len(shifts)):
        reach = b_max - shift
        variables, rest = colon(packed, j, guards, width - 1)
        rest = tuple([v for v in rest if degree(v) <= reach])
        for d, c in _resolve(variables if reach > 0 else 0, rest, layout, memo):
            coeffs[d + shift] += c
    return coeffs


def _resolve(
    variables: int, rest: tuple[int, ...], layout: tuple, memo: dict, stats: Optional[dict] = None
) -> tuple[tuple[int, int], ...]:
    """The ``(degree, coefficient)`` pairs of K(t) for the ideal with minimal
    generators ``(variables, rest)``, packed in ``layout``: the one
    recursion loop, for its two entries, :func:`series_numerator` for an
    ideal and :func:`colon_coefficients` for a table stage.

    It binds the layout's degree and colon step to local names once, so no
    S_j tests the layout: on bits they are ``int.bit_count`` and
    :func:`_bit_colon`, in fields v mod (2^W - 1) and :func:`_colon`, and
    the loop is the same for both.  The trailing variables that no
    generator uses, a field or a bit each, are dropped first, so an ideal's
    key does not depend on how many such variables its ring has.  The
    ideal and every S_j, each given by its minimal generators as
    ``(variables, rest)``, are then resolved alike: from the memo; by the
    closed form when principal (every S_2 is), with no node opened; and
    otherwise, with k > 0 variables among the generators, by
    K(S) = (1 - t)^k K(S'), S' the rest: a variable divides no other
    minimal generator, so it is a nonzerodivisor on the quotient by the
    others.  K(S') comes from the memo, the closed forms or a node of its
    own, and both K(S') and K(S) are stored.  (1 - t)^k is a cached row of
    binomial coefficients, bounded as k is by the arity, and is K(S) itself
    when S' is the zero ideal, as it is when S holds only variables.  A
    variable packs to one bit, at the bottom of a field in the field
    layout; 0, the unit ideal, and x^2, one bit higher up, are not
    variables, and the unit ideal has no variables.  A node runs on through
    its S_j, from the colon step, until one must open a child; an explicit
    stack of suspended nodes replaces Python recursion.  The variables'
    count is the mask's bit count in both layouts.

    K depends on the ideal alone, so every sub-ideal is computed once,
    memoized on W, its variables' mask and the rest (S' under a mask of 0).
    Equal keys mean equal K(t): a key fixes the exponents field by field,
    and K(t) is the same under a renaming of the variables and whatever
    trailing variables no generator uses, so the key does not depend on the
    ring's arity.  It carries W because ideals packed at different widths,
    bits among them, can give equal ints.  Keys are opaque.  ``stats`` is
    filled as :func:`series_numerator` describes, which passes it only with
    a fresh memo, so every entry in the memo is a miss.
    """
    width, guards, degree, _, colon = layout
    borrow = width - 1
    used = reduce(or_, rest, variables)
    if (unused := ((used & -used).bit_length() - 1) // width * width) > 0:
        variables >>= unused
        rest = tuple([v >> unused for v in rest])
        guards >>= unused

    hits = nodes = 0
    # the ideal's parent is a virtual node with no coefficients of its own
    key = gens = coeffs = None
    j = shift = 0
    stack = []  # suspended nodes: (key, gens, j, coeffs, shift, sub_key, split)
    while True:
        # resolve the sub-ideal S with minimal generators `variables` and `rest`
        sub_key = (width, variables, rest)
        sub = memo.get(sub_key)
        split = 0
        if sub is not None:
            hits += 1
        elif (k := variables.bit_count()) + len(rest) < 2:
            # at most one generator; a lone variable's K is the row 1 - t
            sub = memo[sub_key] = _closed(degree(rest[0])) if rest else _row(k)
        else:
            # K(S) = (1 - t)^split K(S'), S' the rest
            split = k
            rest_key = (width, 0, rest)
            sub = memo.get(rest_key) if split else None
            if sub is not None:
                hits += 1
            elif len(rest) < 2:
                sub = memo[rest_key] = _closed(degree(rest[0])) if rest else ((0, 1),)
            else:
                stack.append((key, gens, j, coeffs, shift, sub_key, split))
                nodes += 1
                key, gens, j = rest_key, rest, 1
                coeffs = Counter({0: 1})
                coeffs[degree(gens[0])] -= 1
        # hand each finished sub-ideal to its node until one has an S_j left
        while sub is not None:
            if split:
                sub = memo[sub_key] = _times_row(sub, split)
            if coeffs is None:
                if stats is not None:
                    stats.update(hits=hits, misses=len(memo), memo_size=len(memo), nodes=nodes)
                return sub
            # coeffs -= t^shift * K(S_j)
            for d, c in sub:
                coeffs[d + shift] -= c
            j += 1
            if j < len(gens):
                break
            sub = memo[key] = _terms(coeffs)
            key, gens, j, coeffs, shift, sub_key, split = stack.pop()
        shift = degree(gens[j])
        variables, rest = colon(gens, j, guards, borrow)


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
