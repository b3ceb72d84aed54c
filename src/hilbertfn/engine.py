"""The four Hilbert-function computation methods and their dispatcher.

* oracle: brute-force count of the monomials outside the ideal (ground
  truth), one pure-Python walk in :mod:`kernels` for every degree up to
  b_max.  It opens frames for the exponent prefixes of the first a - 2
  variables and closes the last two per prefix by runs of the penultimate
  exponent; the cap still counts its F(a, b_max) prefixes of a - 1
  variables.  The cap check and the walk are both in :func:`hf`;
  :func:`hf_oracle` reads one degree of it;
* lcm: inclusion-exclusion over the lcm lattice of the minimal generators,
  weighted by its Mobius function (:func:`series.lattice_numerator`);
* syzygy: recursion on the Hilbert-series numerator over pairwise syzygy
  quotients, each monomial packed into one int and each sub-ideal memoized
  on its packed generators (:func:`series.series_numerator`, the recursion's
  one entry for a :class:`MonomialIdeal`);
* table: row-by-row short-exact-sequence build with annihilator terms.

HF(R/I, b) depends only on the generators of degree <= b, which
:func:`upto_degree` keeps.  ``auto`` drops the rest and takes the syzygy
recursion on the survivors, whatever their number.  The table reads row 1,
k[x]/(x^m), off its first generator, builds its annihilator decompositions
from the generators that can reach them (degree <= b_max + 1) and evaluates
each stage's annihilator as one numerator.  Each term of a decomposition is
the minimal exponent tuples of its sub-ideal in the first a - 1 table
variables, minimalized once; its K(S) is read only up to the degree it can
reach, by :func:`series.syzygy_coefficients`, the recursion's tuple entry,
on those tuples over one memo per table, with no Monomial or MonomialIdeal
built per term.  The ``syzygy``, ``oracle`` and ``lcm`` methods and
:func:`series.series_numerator` read every generator, so cross-checks pit
the degree-bounded routes against full ones.  The recursion is the default
route to K(t); only ``method="lcm"`` takes the lcm lattice, and only
``cancel=True`` and :func:`build_lcm_lattice` build its 2^n subsets.  All
methods return identical values for identical inputs; the test suite
cross-checks them against each other on randomized ideals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Literal, Optional

from . import kernels
from .errors import ResourceCapError
from .monomial import (
    ArityMismatchError,
    Monomial,
    MonomialIdeal,
    VariableOrder,
    minimal_exponents,
    minimalize,
    reindex_for_table,
    stage,
    syzygy_quotient,
)
from .pascal import pascal_F
from .series import (
    SeriesNumerator,
    expand_series,
    lattice_numerator,
    series_numerator,
    syzygy_coefficients,
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


@dataclass(frozen=True)
class LcmLattice:
    """All nonempty-subset lcms of an ideal's generators, grouped by subset size.

    ``layers[r - 1]`` holds the lcm of every r-subset, so layer r has
    C(n, r) entries and contributes with sign (-1)^(r-1) to HF(I, b).
    """

    arity: int
    layers: tuple[tuple[Monomial, ...], ...]


def build_lcm_lattice(I: MonomialIdeal, lattice_cap: int = LATTICE_CAP_DEFAULT) -> LcmLattice:
    """Every nonempty-subset lcm of I's generators as given, each layer in
    colexicographic order of the subsets; each lcm extends the one of the
    subset without its last generator by one max."""
    if not I.generators:
        raise ValueError("lcm lattice needs at least one generator")
    _check_lattice_cap(I, lattice_cap)
    layers: list[list[tuple[int, ...]]] = [[(0,) * I.arity]]
    for gen in I.generators:
        g = gen.exponents
        layers.append([])
        for r in range(len(layers) - 2, -1, -1):
            layers[r + 1] += [tuple(map(max, m, g)) for m in layers[r]]
    return LcmLattice(I.arity, tuple(tuple(map(Monomial, layer)) for layer in layers[1:]))


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
    subset-level check on the lattice route.  ``lattice_cap`` bounds the
    generator count as given.
    """
    if not cancel or I.is_zero:
        _check_lattice_cap(I, lattice_cap)
        return expand_series(lattice_numerator(minimalize(I)), b_max)
    counts, _ = adjacent_cancellations(build_lcm_lattice(I, lattice_cap))
    coeffs = Counter({0: 1})
    for r, degrees in enumerate(counts, start=1):
        for d, k in degrees.items():
            coeffs[d] += (-1) ** r * k
    num = SeriesNumerator(I.arity, tuple(sorted((d, c) for d, c in coeffs.items() if c)))
    return expand_series(num, b_max)


def hf_syzygy(
    I: MonomialIdeal,
    b_max: int,
    stats: Optional[dict] = None,
) -> list[int]:
    """HF(R/I, b) for b = 0..b_max: :func:`series_numerator`, expanded once.

    The recursion reads every generator, also those above ``b_max`` (``auto``
    drops them first), and does not depend on ``b_max``.  ``stats`` receives
    the keys ``hits``, ``misses`` and ``memo_size``, which count sub-ideals, not
    (sub-ideal, degree) pairs: ``misses`` is the number of recursion nodes
    computed, ``hits`` the lookups answered by the memo, and ``memo_size``
    the sub-ideals stored.
    """
    return expand_series(series_numerator(I, stats), b_max)


@dataclass(frozen=True)
class AnnihilatorDecomposition:
    """HF decomposition of the stage-a annihilator (0 : x_a).

    The annihilator's HF at degree b is

        delta * F(free_arity, b - delta_shift)
        + sum over terms of HF(k[first a - 1 variables] / S, b - shift)

    Each term is a pair ``(exponents, shift)``: ``exponents`` holds the
    minimal generators of the sub-ideal S as exponent tuples in the first
    ``free_arity`` = a - 1 table variables (coordinate i is the exponent of
    ``order.perm[i]``); S carries no occurrence of the stage variable.  At
    stage 1 a term lives in no variables, and its only tuple is ``()``, the
    unit ideal.
    """

    free_arity: int
    delta: int
    delta_shift: int
    terms: tuple[tuple[tuple[tuple[int, ...], ...], int], ...]


def annihilator_decomposition(
    I: MonomialIdeal, order: VariableOrder, a: int
) -> AnnihilatorDecomposition:
    """Decompose the annihilator of multiplication by the stage-a variable.

    ``I`` must already satisfy the re-indexing criteria for ``order``
    (see :func:`reindex_for_table`); otherwise a syzygy may involve the
    stage variable and a ValueError is raised.  A generator is at stage a
    when it uses x_a and no later table variable.  Each term's syzygy
    quotients are projected onto the first a - 1 table variables and
    minimalized once, here.
    """
    if not 1 <= a <= order.arity:
        raise ValueError(f"stage {a} out of range 1..{order.arity}")
    if order.arity != I.arity:
        raise ArityMismatchError(f"order arity {order.arity} != ideal arity {I.arity}")
    x_a = order.perm[a - 1]
    gens = I.generators
    project = order.perm[: a - 1]
    later = order.perm[a:]

    delta = 0
    delta_shift = 0
    terms = []
    for j, p_j in enumerate(gens, start=1):
        q = p_j.exponents
        if not q[x_a] or any(map(q.__getitem__, later)):
            continue
        shift = sum(q) - 1  # deg(p_j / x_a)
        if j == 1:
            delta = 1
            delta_shift = shift
            continue
        sub_gens = []
        for p_i in gens[: j - 1]:
            h = p_i.exponents
            if h[x_a] > q[x_a]:
                raise ValueError(
                    "re-indexing precondition violated: syzygy "
                    f"{syzygy_quotient(p_i, p_j).exponents} involves the stage-{a} variable"
                )
            # the syzygy quotient lcm(h, p_j) / p_j, projected onto the free variables
            sub_gens.append(tuple([h[v] - q[v] if h[v] > q[v] else 0 for v in project]))
        terms.append((tuple(minimal_exponents(sub_gens)), shift))
    return AnnihilatorDecomposition(a - 1, delta, delta_shift, tuple(terms))


def annihilator_hf(
    dec: AnnihilatorDecomposition, b_max: int, memo: Optional[dict] = None
) -> list[int]:
    """Evaluate a decomposition for b = 0..b_max as one numerator.

    The annihilator's Hilbert series is

        (delta * t^delta_shift + sum over terms of t^shift * K(S)) / (1 - t)^(a - 1),

    expanded once.  A term reaches degree b_max only through the generators
    of S of degree <= b_max - shift, and those of a term's minimal tuples
    are the minimal generators of the ideal they span, so each K(S) comes
    from :func:`syzygy_coefficients` on them alone, with no second
    minimalization.  ``memo`` is handed to every one of those recursions;
    pass the same dict to share sub-ideals across calls.
    """
    memo = {} if memo is None else memo
    coeffs = Counter({dec.delta_shift: dec.delta})
    for exponents, shift in dec.terms:
        reach = b_max - shift
        for d, c in syzygy_coefficients([e for e in exponents if sum(e) <= reach], memo=memo):
            coeffs[d + shift] += c
    num = SeriesNumerator(dec.free_arity, tuple(sorted((d, c) for d, c in coeffs.items() if c)))
    return expand_series(num, b_max)


@dataclass(frozen=True)
class HilbertTable:
    """Rows a = 1..a_max of HF values for the chain of stage quotients.

    ``rows[a - 1][b]`` is HF(k[first a variables]/I_a, b), where I_a is
    generated by the generators supported on those variables.
    ``annihilator_hfs`` holds the annihilator HF sequence consumed while
    producing each row (zeros for row 1, for stages that introduce no
    generator and for rows past the arity).
    """

    rows: tuple[tuple[int, ...], ...]
    annihilator_hfs: tuple[tuple[int, ...], ...]


def hf_table(
    I: MonomialIdeal,
    order: Optional[VariableOrder] = None,
    a_max: Optional[int] = None,
    b_max: int = 10,
) -> HilbertTable:
    """Build the Hilbert function table row by row.

    Row 1 is k[x]/(x^m), x the first table variable: 1 below degree m, then
    0.  :func:`reindex_for_table` puts the unit (m = 0) and then the powers of
    x, by ascending exponent, first; with none of degree <= b_max + 1,
    m = b_max + 1.  Each later row a uses the short exact sequence for
    multiplication by the stage variable:

        HF(M_a, b) = HF(M_{a-1}, b) + HF(M_a, b-1) - HF((0 : x_a), b-1).

    Rows beyond the ring arity add free variables, so their annihilator
    vanishes and the recurrence reduces to the Pascal-table rule.

    The annihilator in degree b depends only on the generators of degree
    <= b + 1, so the decompositions are built from those of degree
    <= b_max + 1 alone (the last entry of each ``annihilator_hfs`` sequence
    needs the b_max + 1 ones), and all stages share one syzygy memo.
    """
    if order is None:
        order = VariableOrder.identity(I.arity)
    if a_max is None:
        a_max = I.arity
    if a_max < 1 or b_max < 0:
        raise ValueError("need a_max >= 1 and b_max >= 0")

    live = upto_degree(reindex_for_table(I, order), b_max + 1)
    memo: dict = {}
    zeros = (0,) * (b_max + 1)

    m = b_max + 1
    if live.generators and stage(live.generators[0], order) <= 1:
        m = live.generators[0].exponents[order.perm[0]]
    rows = [(1,) * m + (0,) * (b_max + 1 - m)]
    ann_hfs = [zeros]
    for a in range(2, a_max + 1):
        if a <= I.arity:
            dec = annihilator_decomposition(live, order, a)
            ann = tuple(annihilator_hf(dec, b_max, memo=memo))
        else:
            ann = zeros
        ann_hfs.append(ann)
        prev = rows[-1]
        row = [prev[0]]
        for b in range(1, b_max + 1):
            row.append(prev[b] + row[b - 1] - ann[b - 1])
        rows.append(tuple(row))
    return HilbertTable(tuple(rows), tuple(ann_hfs))


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
    ``syzygy``, ``lcm`` and ``oracle`` read every generator.
    ``lattice_cap`` applies to ``method="lcm"`` only; ``enum_cap`` to the
    oracle only, which refuses when its one walk would visit more than
    ``enum_cap`` prefixes, i.e. when F(arity, b_max) > ``enum_cap``.
    """
    if b_max < 0:
        raise ValueError("b_max must be >= 0")
    if method == "lcm":
        return hf_lcm_lattice(I, b_max, lattice_cap=lattice_cap)
    if method == "syzygy":
        return hf_syzygy(I, b_max)
    if method == "oracle":
        # the walk visits the F(arity, b_max) exponent prefixes of a - 1 variables
        work = pascal_F(I.arity, b_max)
        if work > enum_cap:
            raise ResourceCapError(f"enumeration of {work} monomials exceeds cap {enum_cap}")
        gens = [g.exponents for g in I.generators]
        return kernels.count_outside_upto(I.arity, b_max, gens)
    if method == "table":
        return list(hf_table(I, a_max=I.arity, b_max=b_max).rows[-1])
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    return hf_syzygy(upto_degree(I, b_max), b_max)
