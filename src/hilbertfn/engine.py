"""The four Hilbert-function computation methods and their dispatcher.

* oracle: brute-force count of the monomials outside the ideal (ground
  truth), one pure-Python walk in :mod:`kernels` for every degree up to
  b_max, by one span rule at every variable.  It opens at most one frame
  per exponent prefix of 0 .. a - 1 variables of total <= b_max,
  C(a + b_max, b_max + 1) in all.  The cap bounds the larger of F(a, b_max)
  prefixes and C(a - 2 + b_max, b_max + 1) frames, which is at least a
  third of that.  The cap check and the walk are both in :func:`hf`;
  :func:`hf_oracle` reads one degree of it;
* lcm: inclusion-exclusion over the lcm lattice of the minimal generators,
  weighted by its Mobius function (:func:`series.lattice_numerator`);
* syzygy: recursion on the Hilbert-series numerator over pairwise syzygy
  quotients, each monomial packed into one int and each sub-ideal memoized
  on its packed generators (:func:`series.series_numerator`, the recursion's
  one entry for a :class:`MonomialIdeal`);
* table: row-by-row short-exact-sequence build, one rule for every row:
  the prefix sum of the row before less the shifted annihilator, which is
  zero at a stage no generator enters and past the arity.

HF(R/I, b) depends only on the generators of degree <= b, which
:func:`upto_degree` keeps.  ``auto`` drops the rest and takes the syzygy
recursion on the survivors, whatever their number.  The table keeps the
same generators, reads each one's stage once, takes row 1, k[x]/(x^m), off
the least degree among the unit and the powers of its first variable,
decomposes only the stages some generator enters, in any order, and
evaluates each stage's annihilator as one numerator up to degree
b_max - 1, the last degree a row subtracts.
:func:`annihilator_decomposition` keeps only the table's logic: it picks
the stage's generators, orders them as the paper's re-indexing does,
projects them onto the first a - 1 table variables and makes each
of its own generators a target, with its shift.  :func:`annihilator_hf`
hands those to :func:`series.colon_coefficients`, the recursion's stage
entry, which packs them once, takes each target's colon ideal from the
recursion's own colon step, reads it only up to the degree it can reach
and resolves it over one memo per table, so this module knows nothing of
the packing and builds no tuple, Monomial or MonomialIdeal per term.  Only
:attr:`AnnihilatorDecomposition.terms`, for the API and the tests, builds
the colon ideals as exponent tuples, from the syzygy quotients and
:func:`monomial.minimal_exponents`, apart from the packing.  The
``syzygy`` and ``lcm`` methods and :func:`series.series_numerator` read
every generator, and the oracle walk the generators of degree <= b_max, so
cross-checks pit two full routes against two bounded by degree.  The
recursion is the default route to K(t); only ``method="lcm"`` takes the
lcm lattice, and only ``cancel=True`` and :func:`build_lcm_lattice` build
its 2^n subsets.  All methods return identical values for identical
inputs; the test suite cross-checks them against each other on randomized
ideals.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from math import comb
from operator import itemgetter, sub
from typing import Literal, Optional

from . import kernels
from .errors import ResourceCapError
from .monomial import (
    ArityMismatchError,
    Monomial,
    MonomialIdeal,
    VariableOrder,
    _set,
    _Value,
    minimal_exponents,
    minimalize,
    stage,
)
from .pascal import pascal_F
from .series import (
    SeriesNumerator,
    colon_coefficients,
    expand_series,
    lattice_numerator,
    series_numerator,
)

MethodKind = Literal["oracle", "lcm", "syzygy", "table", "auto"]

ENUM_CAP_DEFAULT = 10**8
LATTICE_CAP_DEFAULT = 20


def upto_degree(I: MonomialIdeal, b: int) -> MonomialIdeal:
    """The ideal of I's generators of degree <= b, in their given order.

    It equals I in every degree up to b, since a monomial of degree <= b
    lies in I only through a generator of degree <= b.  For the same reason
    its minimal generators are exactly I's minimal generators of degree <= b.
    """
    return MonomialIdeal(I.arity, tuple(g for g in I.generators if g.degree <= b))


def hf_oracle(I: MonomialIdeal, b: int, enum_cap: int = ENUM_CAP_DEFAULT) -> int:
    """HF(R/I, b) by direct enumeration: the value at b of ``hf``'s oracle
    method, so under the same cap, and 0 for b < 0."""
    if b < 0:
        return 0
    return hf(I, b, "oracle", enum_cap)[b]


def _check_lattice_cap(I: MonomialIdeal, lattice_cap: int) -> None:
    """Refuse a subset sum over more than ``lattice_cap`` generators as given."""
    n = len(I.generators)
    if n > lattice_cap:
        raise ResourceCapError(f"{n} generators exceed lattice cap {lattice_cap}")


class LcmLattice(_Value):
    """All nonempty-subset lcms of an ideal's generators, grouped by subset size.

    ``layers[r - 1]`` holds the lcm of every r-subset, so layer r has
    C(n, r) entries and contributes with sign (-1)^(r-1) to HF(I, b).  The
    zero ideal's lattice is empty, with no layers, and its K is 1.
    """

    __slots__ = ("layers",)

    def __init__(self, layers: tuple[tuple[Monomial, ...], ...]) -> None:
        _set(self, "layers", layers)


def build_lcm_lattice(I: MonomialIdeal, lattice_cap: int = LATTICE_CAP_DEFAULT) -> LcmLattice:
    """Every nonempty-subset lcm of I's generators as given (none for the
    zero ideal), each layer in colexicographic order of the subsets; each
    lcm extends the one of the subset without its last generator by one max."""
    _check_lattice_cap(I, lattice_cap)
    layers: list[list[tuple[int, ...]]] = [[(0,) * I.arity]]
    for gen in I.generators:
        g = gen.exponents
        layers.append([])
        for r in range(len(layers) - 2, -1, -1):
            layers[r + 1] += [tuple(map(max, m, g)) for m in layers[r]]
    return LcmLattice(tuple(tuple(map(Monomial, layer)) for layer in layers[1:]))


def adjacent_cancellations(
    lattice: LcmLattice,
) -> tuple[list[Counter], list[tuple[int, int]]]:
    """Remove equal-degree pairs from adjacent layers.

    Such a pair carries opposite signs, so its net contribution to the
    alternating sum is zero.  Returns the surviving degree multisets per
    layer and the removed pairs as (lower layer index, degree).
    """
    counts = [Counter(m.degree for m in layer) for layer in lattice.layers]
    pairs: list[tuple[int, int]] = []
    for r in range(len(counts) - 1):
        for d in sorted(set(counts[r]) & set(counts[r + 1])):
            k = min(counts[r][d], counts[r + 1][d])
            if k > 0:
                counts[r][d] -= k
                counts[r + 1][d] -= k
                pairs.extend([(r + 1, d)] * k)
    return counts, pairs


def hf_lcm_lattice(
    I: MonomialIdeal,
    b_max: int,
    cancel: bool = False,
    lattice_cap: int = LATTICE_CAP_DEFAULT,
) -> list[int]:
    """HF(R/I, b) for b = 0..b_max by inclusion-exclusion over the lattice.

    The Hilbert-series numerator K(t) is :func:`lattice_numerator` on all
    minimal generators, also those above ``b_max``, expanded once against
    F(a, b).  With ``cancel`` it is the alternating sum over every subset of
    the generators as given, after :func:`adjacent_cancellations`: a
    subset-level check.  Either way the zero ideal's empty lattice gives
    K = 1.  ``lattice_cap`` bounds the generator count as given.
    """
    if not cancel:
        _check_lattice_cap(I, lattice_cap)
        return expand_series(lattice_numerator(minimalize(I)), b_max)
    counts, _ = adjacent_cancellations(build_lcm_lattice(I, lattice_cap))
    coeffs = Counter({0: 1})
    for r, degrees in enumerate(counts, start=1):
        for d, k in degrees.items():
            coeffs[d] += (-1) ** r * k
    return expand_series(SeriesNumerator.from_degrees(I.arity, coeffs), b_max)


def hf_syzygy(
    I: MonomialIdeal,
    b_max: int,
    stats: Optional[dict] = None,
) -> list[int]:
    """HF(R/I, b) for b = 0..b_max: :func:`series_numerator`, the
    recursion's entry for an ideal, expanded once.

    The recursion reads every generator, also those above ``b_max`` (``auto``
    drops them first), and does not depend on ``b_max``.  ``stats`` is passed
    to :func:`series_numerator`, which describes its keys ``hits``,
    ``misses``, ``memo_size`` and ``nodes``: they count sub-ideals, not
    (sub-ideal, degree) pairs, and ``misses`` may exceed ``nodes``.
    """
    return expand_series(series_numerator(I, stats), b_max)


class AnnihilatorDecomposition(_Value):
    """HF decomposition of the stage-a annihilator (0 : x_a).

    The annihilator's HF at degree b is

        sum over targets j of HF(k[first a - 1 variables] / S_j, b - shift_j)

    ``generators`` are the stage's generators in table order, as exponent
    tuples projected onto the first ``free_arity`` = a - 1 table variables
    (coordinate i is the exponent of ``order.perm[i]``); the targets are the
    last ``len(shifts)`` of them, one shift each, and S_j is the colon ideal
    (p_0, ..., p_{j-1}) : p_j of the projected generators p_i.  S_j carries
    no occurrence of the stage variable.  A target with no generator before
    it has the zero ideal for S_j, so its term is a shifted free ring.  At
    stage 1 the generators live in no variables, and every S_j with a
    generator before it is the unit ideal.  A generator of another length than ``free_arity``, or more
    shifts than generators, raise ``ValueError``.
    """

    __slots__ = ("free_arity", "generators", "shifts")

    def __init__(
        self,
        free_arity: int,
        generators: tuple[tuple[int, ...], ...],
        shifts: tuple[int, ...],
    ) -> None:
        if bad := [g for g in generators if len(g) != free_arity]:
            raise ValueError(f"generator {bad[0]} does not have free_arity {free_arity}")
        if len(shifts) > len(generators):
            raise ValueError(f"{len(shifts)} shifts for {len(generators)} generators")
        _set(self, "free_arity", free_arity)
        _set(self, "generators", generators)
        _set(self, "shifts", shifts)

    @property
    def terms(self) -> tuple[tuple[tuple[tuple[int, ...], ...], int], ...]:
        """Each target's pair ``(exponents, shift)``: ``exponents`` holds the
        minimal generators of S_j as exponent tuples in ascending
        lexicographic order, built from the syzygy quotients on exponent
        tuples, apart from the packed colon step that :func:`annihilator_hf`
        takes.  The zero ideal gives ``()``; at stage 1 every other S_j
        gives ``((),)``, the unit ideal in no variables."""
        gens = self.generators
        terms = []
        for j, shift in enumerate(self.shifts, len(gens) - len(self.shifts)):
            quotients = [tuple(map(sub, map(max, h, gens[j]), gens[j])) for h in gens[:j]]
            terms.append((tuple(sorted(minimal_exponents(quotients))), shift))
        return tuple(terms)


def annihilator_decomposition(
    I: MonomialIdeal, order: VariableOrder, a: int
) -> AnnihilatorDecomposition:
    """Decompose the annihilator of multiplication by the stage-a variable.

    The generators may come in any order.  A generator is at stage a when it
    uses x_a and no later table variable; those of later stages are dropped.
    The stage-a generators are ordered by ascending x_a exponent (stably)
    after those of earlier stages, as :func:`reindex_for_table` orders them,
    so that no syzygy of an earlier generator against a later one involves
    x_a.  No colon ideal depends on the order among the earlier-stage
    generators, so they are sorted, and any two orders of the same
    generators that tie alike give equal decompositions.  Every stage-a
    generator is a target, shifted by its degree less 1; with no
    earlier-stage generator, the first one's colon ideal is the zero ideal.
    The generators are projected onto the first a - 1 table variables:
    projection commutes with the syzygy quotient, which is taken variable by
    variable.  A stage with no target keeps no generator.
    """
    if not 1 <= a <= order.arity:
        raise ValueError(f"stage {a} out of range 1..{order.arity}")
    if order.arity != I.arity:
        raise ArityMismatchError(f"order arity {order.arity} != ideal arity {I.arity}")
    x_a = order.perm[a - 1]
    later = order.perm[a:]
    gens = [q for q in (g.exponents for g in I.generators) if not any(map(q.__getitem__, later))]
    earlier = sorted([q for q in gens if not q[x_a]])
    staged = sorted([q for q in gens if q[x_a]], key=itemgetter(x_a))

    shifts = tuple([sum(q) - 1 for q in staged])
    project = order.perm[: a - 1]
    projected = tuple([tuple([q[v] for v in project]) for q in earlier + staged]) if shifts else ()
    return AnnihilatorDecomposition(a - 1, projected, shifts)


def annihilator_hf(
    dec: AnnihilatorDecomposition, b_max: int, memo: Optional[dict] = None
) -> list[int]:
    """Evaluate a decomposition for b = 0..b_max as one numerator.

    The annihilator's Hilbert series is

        (sum over targets of t^shift * K(S)) / (1 - t)^(a - 1),

    expanded once; a target whose S is the zero ideal adds t^shift.  A
    target reaches degree b_max only through the generators of S of degree
    <= b_max - shift, so :func:`series.colon_coefficients` resolves each S
    on those alone, straight from the packed colon step on the stage's
    generators, packed once.  ``memo`` is handed to every one of those recursions; pass the
    same dict to share sub-ideals across calls.
    """
    coeffs = colon_coefficients(dec.generators, dec.shifts, b_max, {} if memo is None else memo)
    return expand_series(SeriesNumerator.from_degrees(dec.free_arity, coeffs), b_max)


class HilbertTable(_Value):
    """Rows a = 1..a_max of HF values for the chain of stage quotients.

    ``rows[a - 1][b]`` is HF(k[first a variables]/I_a, b), where I_a is
    generated by the generators supported on those variables.  The
    annihilator HF that produced a row is :func:`annihilator_hf` of that
    stage's :func:`annihilator_decomposition`.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        _set(self, "rows", rows)


def hf_table(
    I: MonomialIdeal,
    order: Optional[VariableOrder] = None,
    a_max: Optional[int] = None,
    b_max: int = 10,
) -> HilbertTable:
    """Build the Hilbert function table row by row.

    Row 1 is k[x]/(x^m), x the first table variable: 1 below degree m, then
    0.  m is the least degree among the generators of stage <= 1, the unit
    and the powers of x, and b_max + 1 with none of degree <= b_max.  Every
    later row a follows one rule, the short exact sequence for
    multiplication by the stage variable:

        HF(M_a, b) = HF(M_{a-1}, b) + HF(M_a, b-1) - HF((0 : x_a), b-1),

    i.e. row a is the prefix sum of row a - 1 less the annihilator shifted
    by one degree.  A stage that no generator enters, and every row past
    the arity, adds a nonzerodivisor: its annihilator is zero, and the row
    is the prefix sum of the one before.  So only the stages some generator
    enters (:func:`monomial.stage`) are decomposed.

    Row a subtracts the annihilator up to degree b_max - 1 alone, and the
    annihilator in degree b depends only on the generators of degree
    <= b + 1.  So the table keeps the generators of degree <= b_max, as
    ``auto`` does, reads each one's stage once, evaluates each annihilator
    up to degree b_max - 1, and all stages share one syzygy memo.  The
    generators may come in any order: :func:`annihilator_decomposition`
    orders each stage's itself.  An ``order`` of another arity than ``I``
    raises :class:`ArityMismatchError`.
    """
    if order is None:
        order = VariableOrder.identity(I.arity)
    if a_max is None:
        a_max = I.arity
    if a_max < 1 or b_max < 0:
        raise ValueError("need a_max >= 1 and b_max >= 0")
    if order.arity != I.arity:
        raise ArityMismatchError(f"order arity {order.arity} != ideal arity {I.arity}")

    live = upto_degree(I, b_max)
    staged = [(stage(g, order), g.degree) for g in live.generators]
    entered = {s for s, _ in staged}
    memo: dict = {}

    m = min([d for s, d in staged if s <= 1], default=b_max + 1)
    rows = [[1] * m + [0] * (b_max + 1 - m)]
    for a in range(2, a_max + 1):
        row = rows[-1].copy()
        if a in entered:
            ann = annihilator_hf(annihilator_decomposition(live, order, a), b_max - 1, memo=memo)
            row[1:] = map(sub, row[1:], ann)
        rows.append(list(accumulate(row)))
    # tuples are made from lists: tuple() of an iterator builds a tuple of a
    # guessed length and resizes it, and the freed rows then pile up on
    # CPython's tuple free lists instead of being reused
    return HilbertTable(tuple([tuple(row) for row in rows]))


def hf(
    I: MonomialIdeal,
    b_max: int,
    method: MethodKind = "auto",
    enum_cap: int = ENUM_CAP_DEFAULT,
    lattice_cap: int = LATTICE_CAP_DEFAULT,
) -> list[int]:
    """HF(R/I, b) for b = 0..b_max by the requested method.

    ``auto`` keeps the generators of degree <= b_max (:func:`upto_degree`)
    and takes the syzygy recursion on them, which minimalizes them itself:
    the unit ideal gives zeros and, with none left, the free ring.
    ``syzygy`` and ``lcm`` read every generator, and the oracle walk those
    of degree <= b_max.
    ``lattice_cap`` applies to ``method="lcm"`` only; ``enum_cap`` to the
    oracle only, which refuses when F(arity, b_max) prefixes or
    C(arity - 2 + b_max, b_max + 1) frames exceed ``enum_cap``, and names
    the larger count.  Its one walk opens at most C(arity + b_max,
    b_max + 1) frames, one per prefix of total <= b_max, at most three times
    the larger count, so the cap bounds its frames and prefixes, but not
    the generators each frame sorts, which include those no monomial of
    degree <= b_max over the frame's prefixes reaches (the strict xfail
    ``oracle-generators-unreachable-below-the-root`` in
    ``tests/test_bounded_work.py``).
    """
    if b_max < 0:
        raise ValueError("b_max must be >= 0")
    if method == "lcm":
        return hf_lcm_lattice(I, b_max, lattice_cap=lattice_cap)
    if method == "syzygy":
        return hf_syzygy(I, b_max)
    if method == "oracle":
        # C(a + b, b + 1) <= C(a - 2 + b, b + 1) + 2 F(a, b) frames: the
        # walk's count is at most three times the larger of these two
        prefixes = pascal_F(I.arity, b_max)
        frames = comb(I.arity - 2 + b_max, b_max + 1) if I.arity > 2 else 0
        if max(prefixes, frames) > enum_cap:
            work, unit = (prefixes, "monomials") if prefixes >= frames else (frames, "frames")
            raise ResourceCapError(f"enumeration of {work} {unit} exceeds cap {enum_cap}")
        gens = [g.exponents for g in I.generators]
        return kernels.count_outside_upto(I.arity, b_max, gens)
    if method == "table":
        return list(hf_table(I, a_max=I.arity, b_max=b_max).rows[-1])
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    return hf_syzygy(upto_degree(I, b_max), b_max)
