"""Hilbert series as a rational function: numerator over (1 - t)^arity.

Every method shares one exact representation, the numerator K(t) of
HS(R/I, t) = K(t) / (1 - t)^a; expanding it against the free-ring counts
F(a, b) recovers the Hilbert function values.  Two independent routes compute
K(t):

* the Bayer-Stillman recursion over syzygy sub-ideals, with one entry per
  input kind.  :func:`syzygy_coefficients` is the tuple entry: it takes
  exponent tuples of one arity, minimal or not, and the table's annihilator
  terms call it directly.  :func:`series_numerator` is the ideal entry: it
  hands a :class:`MonomialIdeal`'s exponent tuples to the tuple entry; the
  syzygy method, ``auto`` and ``series`` take it.  The recursion packs each
  monomial into one int, a field of W bits per variable whose top bit is a
  guard that stays 0, so quotients, divisibility and degrees are a few int
  operations.  It minimalizes the ideal once, packed, and then resolves it
  as it resolves every colon ideal: a principal one is closed where it is
  found, with no node opened for it, and the variables among the minimal
  generators are split off, K(S) = (1 - t)^k K(S'), (1 - t)^k a cached
  binomial row.  The memo keys are opaque: they carry W and do not depend
  on the ring's arity;
* :func:`lattice_numerator`, the sum of mu(m) t^(deg m) over the lcm
  lattice of the generators, mu its Mobius function; only the lcm lattice
  method takes it, so it stays the independent check on the recursion.

This module alone knows the packed layout.  Its one minimal pass,
:func:`_minimal`, gives the minimal generators of an ideal of packed ints
as ``(variables, rest)``: the variables ORed into one mask, and the other
minimal generators, none a multiple of a variable, ascending.  Its one
colon step, :func:`_colon`, gives those of (g_1, ..., g_{j-1}) : g_j from
packed ints through it.  The recursion runs the pass on the ideal and the
colon step for every S_j, and :func:`colon_ideals`, the colon step's tuple
entry, packs exponent tuples once, calls it for each target index, merges
the variables back in ascending order and unpacks only the minimal
quotients; the table's ``engine.annihilator_decomposition`` builds its
terms through it.  :func:`lattice_numerator` stays on exponent tuples, as
do :func:`monomial.minimal_exponents`, which the ``lcm`` method's
``minimalize`` calls, and the oracle, so the cross-checks do not share the
packing.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from itertools import accumulate
from math import comb
from operator import lshift, or_
from typing import Mapping, Optional, Sequence

from .monomial import MonomialIdeal, _set, _Value


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
        return cls(arity, tuple(sorted([(d, c) for d, c in coeffs.items() if c])))

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


def _minimal(ascending: Sequence[int], guards: int, borrow: int) -> tuple[int, tuple[int, ...]]:
    """The minimal generators of the ideal of the packed ints ``ascending``,
    as ``(variables, rest)``.

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
    ideal, ``(0, (0,))``.
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
    ``(variables, rest)``.

    ``gens`` are packed as for :func:`_minimal`.  With g = gens[j], the
    colon is generated by the syzygy quotients lcm(h, g) / g, and
    ``d = (h | guards) - g`` keeps its guard bit in exactly the fields
    where h >= g, so ``d`` masked to the low ``borrow`` bits of those
    fields is the quotient.  :func:`_minimal` sets the variables among the
    quotients aside and keeps the minimal others.
    """
    g = gens[j]
    return _minimal(sorted({
        (diff := (h | guards) - g) & ((ge := diff & guards) - (ge >> borrow))
        for h in gens[:j]
    }), guards, borrow)


def _closed(gens: Sequence[int], ones: int, top: int, mask: int) -> tuple[tuple[int, int], ...]:
    """K of at most one packed generator: 1 for none, 0 for the unit ideal
    and 1 - t^d for a principal ideal of degree d."""
    if not gens:
        return ((0, 1),)
    d = (gens[0] * ones >> top) & mask
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
    return tuple(sorted([(d, c) for d, c in product.items() if c]))


def colon_ideals(
    exponents: Sequence[tuple[int, ...]], targets: Sequence[int]
) -> list[tuple[tuple[int, ...], ...]]:
    """For each index j in ``targets`` (each >= 1), the minimal generators
    of the colon ideal (e_0, ..., e_{j-1}) : e_j, where e_i = exponents[i].

    The tuples share one arity, which may be 0.  Each colon comes back as
    exponent tuples in ascending lexicographic order, from the recursion's
    own colon step: the tuples are packed once, at the recursion's width
    for their largest degree, and only the minimal quotients are unpacked.
    """
    width = max(map(sum, exponents)).bit_length() + 1
    offsets, guards, _, _ = _fields(len(exponents[0]), width)
    packed = [sum(map(lshift, e, offsets)) for e in exponents]
    mask = (1 << width) - 1
    borrow = width - 1
    colons = []
    for j in targets:
        variables, rest = _colon(packed, j, guards, borrow)
        if variables:
            rest = sorted([*rest, *[1 << s for s in offsets if variables >> s & 1]])
        colons.append(tuple([tuple([(v >> s) & mask for s in offsets]) for v in rest]))
    return colons


def syzygy_coefficients(
    exponents: Sequence[tuple[int, ...]],
    stats: Optional[dict] = None,
    memo: Optional[dict] = None,
) -> tuple[tuple[int, int], ...]:
    """The ``(degree, coefficient)`` pairs of K(t) for the monomial ideal
    generated by the exponent tuples ``exponents``.

    The tuples must share one arity, which may be 0 (``[()]`` is the unit
    ideal in no variables), and may come in any order, with repeats and
    generators that others divide.  With the minimal generators sorted as
    g_1 < ... < g_n,

        K(I) = 1 - t^deg(g_1) - sum over j >= 2 of t^deg(g_j) K(S_j),

    where S_j is the ideal of the syzygy quotients lcm(g_i, g_j) / g_j for
    i < j (the colon ideal (g_1, ..., g_{j-1}) : g_j).  The zero ideal gives
    1, the unit ideal 0 and a principal ideal 1 - t^d.  An explicit stack of
    suspended nodes replaces Python recursion.

    The ideal itself and every S_j, each given by its minimal generators
    as ``(variables, rest)``, are resolved alike: from the memo; by the
    closed form when principal (every S_2 is), with no node opened; and
    otherwise, with k > 0 variables among the generators, by
    K(S) = (1 - t)^k K(S'), S' the rest: a variable divides no other
    minimal generator, so it is a nonzerodivisor on the quotient by the
    others.  K(S') comes from the memo, the closed forms or a node of its
    own, and both K(S') and K(S) are stored.  (1 - t)^k is a cached row of
    binomial coefficients, bounded as k is by the arity, and is K(S) itself
    when S' is the zero ideal, as it is when S holds only variables.  A
    variable packs to one bit at the bottom of a field; 0, the unit ideal,
    and x^2, one bit higher up, are not variables, and the unit ideal has no
    variables.  A node runs on through its S_j until one must open a child.

    Each generator is packed once into one int: variable i gets a field of
    W bits, the earlier variables in the higher fields, where W is one more
    than the bit length of the largest generator degree.  The top bit of
    every field is a guard and stays 0 in a packed value, since no exponent
    or degree needs more than W - 1 bits and quotients never exceed their
    generators.  The fields of trailing variables that no generator uses
    are dropped.  Ascending ints are then the generators in lexicographic
    order of their exponent tuples, and the primitives are a few int
    operations each: :func:`_minimal` gives the variables and the rest of
    the ideal's minimal generators in one ascending pass, the colon step
    :func:`_colon` gives those of each S_j the same way, the variables'
    count is the mask's bit count, and ``v * ones`` sums all fields of v
    into the top one, its degree.

    K depends on the ideal alone, so every sub-ideal is computed once,
    memoized on W, its variables' mask and the rest, sorted and packed (S'
    under a mask of 0).  Equal keys
    mean equal K(t): a key fixes the exponents field by field, and K(t) is
    the same under a renaming of the variables and whatever trailing
    variables no generator uses, so the key does not depend on the ring's
    arity.  It carries W because ideals packed at different widths can give
    equal ints.  Keys are opaque.

    ``memo``, when given, maps those keys to coefficient tuples and is read
    and filled in place, so calls that pass the same dict share their
    sub-ideals; an ideal already in it opens no node.  ``stats``, when
    given, receives ``misses`` (the entries this call adds to the memo: the
    ideal, the principal sub-ideals, and both S and S' of a split),
    ``hits`` (sub-ideals found in the memo), ``memo_size`` and ``nodes``
    (the nodes opened: sub-ideals whose K(t) is summed over their own S_j;
    a split S opens at most one, for S').
    """
    memo = {} if memo is None else memo
    known_before = len(memo)
    width = max(map(sum, exponents), default=0).bit_length() + 1
    offsets, guards, ones, top = _fields(len(exponents[0]) if exponents else 0, width)
    packed = sorted([sum(map(lshift, e, offsets)) for e in exponents])
    used = reduce(or_, packed, 0)
    unused = ((used & -used).bit_length() - 1) // width * width if used else 0
    if unused:
        packed = [v >> unused for v in packed]
        guards >>= unused
        ones >>= unused
        top -= unused
    mask = (1 << width) - 1
    borrow = width - 1
    variables, rest = _minimal(packed, guards, borrow)

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
            sub = memo[sub_key] = _closed(rest, ones, top, mask) if rest else _row(k)
        else:
            # K(S) = (1 - t)^split K(S'), S' the rest
            split = k
            rest_key = (width, 0, rest)
            sub = memo.get(rest_key) if split else None
            if sub is not None:
                hits += 1
            elif len(rest) < 2:
                sub = memo[rest_key] = _closed(rest, ones, top, mask)
            else:
                stack.append((key, gens, j, coeffs, shift, sub_key, split))
                nodes += 1
                key, gens, j = rest_key, rest, 1
                coeffs = Counter({0: 1})
                coeffs[(gens[0] * ones >> top) & mask] -= 1
        # hand each finished sub-ideal to its node until one has an S_j left
        while sub is not None:
            if split:
                sub = memo[sub_key] = _times_row(sub, split)
            if coeffs is None:
                if stats is not None:
                    misses = len(memo) - known_before
                    stats.update(hits=hits, misses=misses, memo_size=len(memo), nodes=nodes)
                return sub
            # coeffs -= t^shift * K(S_j)
            for d, c in sub:
                coeffs[d + shift] -= c
            j += 1
            if j < len(gens):
                break
            sub = memo[key] = tuple(sorted([(d, c) for d, c in coeffs.items() if c]))
            key, gens, j, coeffs, shift, sub_key, split = stack.pop()
        shift = (gens[j] * ones >> top) & mask
        variables, rest = _colon(gens, j, guards, borrow)


def series_numerator(I: MonomialIdeal, stats: Optional[dict] = None) -> SeriesNumerator:
    """Numerator K(t) of HS(R/I, t) over (1 - t)^arity by the syzygy recursion.

    The :class:`MonomialIdeal` entry of :func:`syzygy_coefficients`, on the
    exponent tuples of all of I's generators, whatever degree the caller
    expands to, so any generating set of the ideal gives the same
    numerator.  No lattice is built, so no generator cap applies.
    ``stats`` is passed through.
    """
    exponents = [g.exponents for g in I.generators]
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
