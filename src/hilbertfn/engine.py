"""The four Hilbert-function computation methods and their dispatcher.

* oracle: brute-force count of the monomials outside the ideal (ground
  truth), one pure-Python walk in :mod:`kernels` for every degree up to
  b_max, capped by its F(a, b_max) exponent prefixes;
* lcm: inclusion-exclusion over the lcm lattice of the generators;
* syzygy: recursion on the Hilbert-series numerator over pairwise syzygy
  quotients, memoized on the sub-ideal (:func:`series.syzygy_numerator`);
* table: row-by-row short-exact-sequence build with annihilator terms.

``auto`` takes closed forms for up to two generators and the syzygy
recursion beyond, the table's annihilator terms go through ``auto``, and
:func:`series.series_numerator` takes the recursion too, so the 2^n lcm
lattice runs only when asked for: ``method="lcm"``, ``cancel=True`` and
:func:`build_lcm_lattice`.  All methods return identical values for
identical inputs; the test suite cross-checks them against each other on
randomized ideals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Literal, Optional

from . import kernels
from .errors import ResourceCapError
from .monomial import (
    Monomial,
    MonomialIdeal,
    VariableOrder,
    lcm,
    minimal_exponents,
    minimalize,
    reindex_for_table,
    restrict,
    stage,
    syzygy_quotient,
)
from .pascal import hf_principal, hf_two_generators, pascal_F
from .series import (
    alternating_numerator,
    expand_series,
    subset_lcm_layers,
    subset_numerator,
    syzygy_numerator,
)

MethodKind = Literal["oracle", "lcm", "syzygy", "table", "auto"]

ENUM_CAP_DEFAULT = 10**8
LATTICE_CAP_DEFAULT = 20


def _check_enum_cap(arity: int, b: int, enum_cap: int) -> None:
    """Refuse a walk over the F(arity, b) exponent prefixes (the monomials
    of degree b) when they are more than ``enum_cap``."""
    work = pascal_F(arity, b)
    if work > enum_cap:
        raise ResourceCapError(f"enumeration of {work} monomials exceeds cap {enum_cap}")


def hf_oracle(I: MonomialIdeal, b: int, enum_cap: int = ENUM_CAP_DEFAULT) -> int:
    """Count degree-b monomials outside I by direct enumeration
    (:func:`kernels.count_outside`).

    Refuses (ResourceCapError) when the free ring has more than ``enum_cap``
    monomials of degree b.
    """
    if b < 0:
        return 0
    _check_enum_cap(I.arity, b, enum_cap)
    gens = [g.exponents for g in I.generators]
    return kernels.count_outside(I.arity, b, gens)


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
    if not I.generators:
        raise ValueError("lcm lattice needs at least one generator")
    _check_lattice_cap(I, lattice_cap)
    layers = subset_lcm_layers(I)
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

    The alternating subset sum is the Hilbert-series numerator K(t), taken
    over the minimal generators and expanded once against F(a, b).  With
    ``cancel`` it is taken over the lattice of the generators as given,
    after :func:`adjacent_cancellations`.  ``lattice_cap`` bounds the
    generator count as given.
    """
    _check_lattice_cap(I, lattice_cap)
    if cancel and not I.is_zero:
        counts, _ = adjacent_cancellations(build_lcm_lattice(I, lattice_cap))
        num = alternating_numerator(I.arity, [Counter({0: 1}), *counts])
    else:
        num = subset_numerator(minimalize(I))
    return expand_series(num, b_max)


def hf_syzygy(
    I: MonomialIdeal,
    b_max: int,
    stats: Optional[dict] = None,
) -> list[int]:
    """HF(R/I, b) for b = 0..b_max: :func:`syzygy_numerator`, expanded once.

    The recursion does not depend on ``b_max``.  ``stats`` receives the
    keys ``hits``, ``misses`` and ``memo_size``, which count sub-ideals, not
    (sub-ideal, degree) pairs: ``misses`` is the number of recursion nodes
    computed, ``hits`` the lookups answered by the memo, and ``memo_size``
    the sub-ideals stored.
    """
    return expand_series(syzygy_numerator(I, stats), b_max)


@dataclass(frozen=True)
class AnnihilatorDecomposition:
    """HF decomposition of the stage-a annihilator (0 : x_a).

    The annihilator's HF at degree b is

        delta * F(free_arity, b - delta_shift)
        + sum over terms of HF(sub_ideal quotient, b - shift)

    where each sub-ideal lives in the first ``free_arity`` = a - 1 table
    variables and carries no occurrence of the stage variable.
    """

    free_arity: int
    delta: int
    delta_shift: int
    terms: tuple[tuple[MonomialIdeal, int], ...]


def annihilator_decomposition(
    I: MonomialIdeal, order: VariableOrder, a: int
) -> AnnihilatorDecomposition:
    """Decompose the annihilator of multiplication by the stage-a variable.

    ``I`` must already satisfy the re-indexing criteria for ``order``
    (see :func:`reindex_for_table`); otherwise a syzygy may involve the
    stage variable and a ValueError is raised.
    """
    if not 1 <= a <= order.arity:
        raise ValueError(f"stage {a} out of range 1..{order.arity}")
    x_a = order.perm[a - 1]
    gens = I.generators
    free_arity = a - 1
    project_arity = max(free_arity, 1)
    project = order.perm[:project_arity]

    delta = 0
    delta_shift = 0
    terms: list[tuple[MonomialIdeal, int]] = []
    for j, p_j in enumerate(gens, start=1):
        if stage(p_j, order) != a:
            continue
        shift = p_j.degree - 1  # deg(p_j / x_a)
        if j == 1:
            delta = 1
            delta_shift = shift
            continue
        q = p_j.exponents
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
        sub = MonomialIdeal(project_arity, tuple(map(Monomial, minimal_exponents(sub_gens))))
        terms.append((sub, shift))
    return AnnihilatorDecomposition(free_arity, delta, delta_shift, tuple(terms))


def annihilator_hf(dec: AnnihilatorDecomposition, b_max: int) -> list[int]:
    """Evaluate a decomposition for b = 0..b_max via the auto dispatcher."""
    values = [0] * (b_max + 1)
    if dec.delta:
        for b in range(b_max + 1):
            if dec.free_arity >= 1:
                values[b] += pascal_F(dec.free_arity, b - dec.delta_shift)
            elif b == dec.delta_shift:
                values[b] += 1  # HF of the base field, shifted
    for sub, shift in dec.terms:
        if shift > b_max:
            continue
        sub_values = hf(sub, b_max - shift, method="auto")
        for b in range(shift, b_max + 1):
            values[b] += sub_values[b - shift]
    return values


@dataclass(frozen=True)
class HilbertTable:
    """Rows a = 1..a_max of HF values for the chain of stage quotients.

    ``rows[a - 1][b]`` is HF(k[first a variables]/I_a, b).  ``ideals`` holds
    each row's stage ideal and ``annihilator_hfs`` the annihilator HF
    sequence consumed while producing the row (zeros for row 1 and for
    stages that introduce no generator).
    """

    rows: tuple[tuple[int, ...], ...]
    ideals: tuple[MonomialIdeal, ...]
    annihilator_hfs: tuple[tuple[int, ...], ...]


def hf_table(
    I: MonomialIdeal,
    order: Optional[VariableOrder] = None,
    a_max: Optional[int] = None,
    b_max: int = 10,
) -> HilbertTable:
    """Build the Hilbert function table row by row.

    Row 1 is computed directly; each later row a uses the short exact
    sequence for multiplication by the stage variable:

        HF(M_a, b) = HF(M_{a-1}, b) + HF(M_a, b-1) - HF((0 : x_a), b-1).

    Rows beyond the ring arity add free variables, so their annihilator
    vanishes and the recurrence reduces to the Pascal-table rule.
    """
    if order is None:
        order = VariableOrder.identity(I.arity)
    if a_max is None:
        a_max = I.arity
    if a_max < 1 or b_max < 0:
        raise ValueError("need a_max >= 1 and b_max >= 0")

    J = reindex_for_table(I, order)
    zeros = (0,) * (b_max + 1)

    rows: list[tuple[int, ...]] = []
    ideals: list[MonomialIdeal] = []
    ann_hfs: list[tuple[int, ...]] = []
    for a in range(1, a_max + 1):
        if a <= I.arity:
            I_a = restrict(J, order, a)
        else:
            # extra free variable: same generators, padded arity
            base = restrict(J, order, I.arity)
            I_a = MonomialIdeal(
                a,
                tuple(
                    Monomial(g.exponents + (0,) * (a - I.arity))
                    for g in base.generators
                ),
            )
        ideals.append(I_a)
        if a == 1:
            rows.append(tuple(hf(I_a, b_max, method="auto")))
            ann_hfs.append(zeros)
            continue
        if a <= I.arity:
            dec = annihilator_decomposition(J, order, a)
            ann = annihilator_hf(dec, b_max)
        else:
            ann = list(zeros)
        ann_hfs.append(tuple(ann))
        if I_a.is_unit:
            rows.append(zeros)
            continue
        prev = rows[-1]
        row = [prev[0]]
        for b in range(1, b_max + 1):
            row.append(prev[b] + row[b - 1] - ann[b - 1])
        rows.append(tuple(row))
    return HilbertTable(tuple(rows), tuple(ideals), tuple(ann_hfs))


def hf(
    I: MonomialIdeal,
    b_max: int,
    method: MethodKind = "auto",
    enum_cap: int = ENUM_CAP_DEFAULT,
    lattice_cap: int = LATTICE_CAP_DEFAULT,
) -> list[int]:
    """HF(R/I, b) for b = 0..b_max by the requested method.

    ``auto`` picks closed forms for up to two minimal generators and the
    syzygy recursion for three or more.  ``lattice_cap`` applies to
    ``method="lcm"`` only; ``enum_cap`` to the oracle only, which refuses
    when its one walk would visit more than ``enum_cap`` prefixes, i.e.
    when F(arity, b_max) > ``enum_cap``.
    """
    if b_max < 0:
        raise ValueError("b_max must be >= 0")
    if method == "lcm":
        return hf_lcm_lattice(I, b_max, lattice_cap=lattice_cap)
    if method == "syzygy":
        return hf_syzygy(I, b_max)
    if method == "oracle":
        _check_enum_cap(I.arity, b_max, enum_cap)
        gens = [g.exponents for g in I.generators]
        return kernels.count_outside_upto(I.arity, b_max, gens)
    if method == "table":
        return list(hf_table(I, a_max=I.arity, b_max=b_max).rows[-1])
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")

    J = minimalize(I)
    a = J.arity
    if J.is_unit:
        return [0] * (b_max + 1)
    n = len(J.generators)
    if n == 0:
        return [pascal_F(a, b) for b in range(b_max + 1)]
    if n == 1:
        d = J.generators[0].degree
        return [hf_principal(a, d, b) for b in range(b_max + 1)]
    if n == 2:
        u, v = J.generators
        d_lcm = lcm(u, v).degree
        return [
            hf_two_generators(a, u.degree, v.degree, d_lcm, b)
            for b in range(b_max + 1)
        ]
    return hf_syzygy(J, b_max)
