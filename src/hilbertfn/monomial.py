"""Monomials, monomial ideals and variable orders with exact integer exponents.

Everything here is immutable and pure; ideals keep their generators in the
order they were given, because the recursive engines depend on that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter, le
from typing import Iterable, Sequence


class ArityMismatchError(ValueError):
    """Two monomials (or a monomial and an ideal) live in different rings."""


MAX_EXPONENT = 10**6
# Largest degree bound (--max-degree, --expand-to) the command line accepts.
MAX_DEGREE = 10**5
# Largest table row count (--max-row) the command line accepts: each row past
# the arity pads every generator, so the work grows with the square of the rows.
MAX_ROW = 1000


@dataclass(frozen=True)
class Monomial:
    """A monomial stored as its exponent vector.

    ``exponents[i]`` is the power of the i-th ring variable; the degree is the
    sum of all exponents (standard grading).
    """

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(self.exponents))
        for e in self.exponents:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be non-negative integers, got {e!r}")
            if e > MAX_EXPONENT:
                raise OverflowError(f"exponent {e} exceeds supported bound {MAX_EXPONENT}")

    @property
    def arity(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_one(self) -> bool:
        return self.degree == 0

    def __repr__(self) -> str:
        return f"Monomial({self.exponents})"


def degree(m: Monomial) -> int:
    return m.degree


def _check_arity(u: Monomial, v: Monomial) -> None:
    if u.arity != v.arity:
        raise ArityMismatchError(f"arity mismatch: {u.arity} vs {v.arity}")


def divides(u: Monomial, v: Monomial) -> bool:
    """True iff u divides v, i.e. every exponent of u is <= that of v."""
    _check_arity(u, v)
    return all(a <= b for a, b in zip(u.exponents, v.exponents))


def lcm(u: Monomial, v: Monomial) -> Monomial:
    """Componentwise maximum of the exponent vectors."""
    _check_arity(u, v)
    return Monomial(tuple(max(a, b) for a, b in zip(u.exponents, v.exponents)))


def syzygy_quotient(p_i: Monomial, p_j: Monomial) -> Monomial:
    """The monomial lcm(p_i, p_j) / p_j; exponents are never negative."""
    _check_arity(p_i, p_j)
    return Monomial(
        tuple(max(a, b) - b for a, b in zip(p_i.exponents, p_j.exponents))
    )


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by an ordered generator list.

    The zero ideal has no generators; the unit ideal is flagged by a
    constant generator (all exponents zero).
    """

    arity: int
    generators: tuple[Monomial, ...] = ()

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.arity != self.arity:
                raise ArityMismatchError(
                    f"generator arity {g.arity} != ideal arity {self.arity}"
                )

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return any(g.is_one for g in self.generators)

    def __repr__(self) -> str:
        gens = ", ".join(str(g.exponents) for g in self.generators)
        return f"MonomialIdeal(arity={self.arity}, [{gens}])"


def ideal(arity: int, *exponent_vectors: Sequence[int]) -> MonomialIdeal:
    """Convenience constructor from raw exponent vectors."""
    return MonomialIdeal(arity, tuple(Monomial(tuple(v)) for v in exponent_vectors))


def contains_monomial(I: MonomialIdeal, m: Monomial) -> bool:
    """Membership test: some generator divides m."""
    if m.arity != I.arity:
        raise ArityMismatchError(f"arity mismatch: {m.arity} vs {I.arity}")
    return any(divides(g, m) for g in I.generators)


def minimal_exponents(vectors: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The exponent vectors that no other given vector divides.

    Survivors keep the given order; exact duplicates collapse to the earliest
    occurrence.  A vector can be divided only by one of smaller degree, or by
    an equal one, so after dropping duplicates each vector is tested against
    the survivors of strictly smaller degree alone: an equal-degree antichain
    costs no divisibility test at all.
    """
    unique = list(dict.fromkeys(vectors))
    if len(unique) < 2:
        return unique
    kept: list[tuple[int, ...]] = []  # survivors of degree below `level`
    level: list[tuple[int, ...]] = []  # survivors of the current degree
    level_degree = -1
    for d, v in sorted(zip(map(sum, unique), unique), key=itemgetter(0)):
        if d != level_degree:
            kept += level
            level = []
            level_degree = d
        for h in kept:
            if all(map(le, h, v)):
                break
        else:
            level.append(v)
    if len(kept) + len(level) == len(unique):
        return unique
    survivors = set(kept)
    survivors.update(level)
    return [v for v in unique if v in survivors]


def minimalize(I: MonomialIdeal) -> MonomialIdeal:
    """Drop generators divisible by another generator.

    The result generates the same ideal and its generators form an antichain
    under divisibility.  Relative order of survivors is preserved; exact
    duplicates collapse to the earliest occurrence.
    """
    first = {g.exponents: g for g in reversed(I.generators)}
    kept = minimal_exponents(g.exponents for g in I.generators)
    return MonomialIdeal(I.arity, tuple(first[v] for v in kept))


@dataclass(frozen=True)
class VariableOrder:
    """The order in which variables are introduced when building HF tables.

    ``perm[i]`` is the ring index of the variable introduced at stage i+1.
    """

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "perm", tuple(self.perm))
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"not a permutation of 0..{len(self.perm) - 1}: {self.perm}")

    @classmethod
    def identity(cls, arity: int) -> VariableOrder:
        return cls(tuple(range(arity)))

    @property
    def arity(self) -> int:
        return len(self.perm)

    def __iter__(self) -> Iterable[int]:
        return iter(self.perm)


def stage(g: Monomial, order: VariableOrder) -> int:
    """The first stage at which g lives in the sub-ring of introduced variables.

    Returns 0 for the constant monomial.
    """
    s = 0
    for pos, var in enumerate(order.perm):
        if g.exponents[var] > 0:
            s = pos + 1
    return s


def restrict(I: MonomialIdeal, order: VariableOrder, a: int) -> MonomialIdeal:
    """Generators supported on the first ``a`` variables of ``order``,
    re-expressed in arity ``a`` (coordinate i = exponent of order.perm[i])."""
    if not 1 <= a <= order.arity:
        raise ValueError(f"stage {a} out of range 1..{order.arity}")
    if order.arity != I.arity:
        raise ArityMismatchError(f"order arity {order.arity} != ideal arity {I.arity}")
    kept = [
        Monomial(tuple(g.exponents[order.perm[i]] for i in range(a)))
        for g in I.generators
        if stage(g, order) <= a
    ]
    return MonomialIdeal(a, tuple(kept))


def reindex_for_table(I: MonomialIdeal, order: VariableOrder) -> MonomialIdeal:
    """Stable re-ordering of generators for the table method.

    Generators are grouped by the stage at which they first appear and,
    within a stage, sorted by the exponent of that stage's variable.  With
    this ordering, the syzygy of an earlier generator against a later one
    never involves the later generator's stage variable.
    """
    if order.arity != I.arity:
        raise ArityMismatchError(f"order arity {order.arity} != ideal arity {I.arity}")

    def key(g: Monomial) -> tuple[int, int]:
        s = stage(g, order)
        return (s, g.exponents[order.perm[s - 1]] if s > 0 else 0)

    return MonomialIdeal(I.arity, tuple(sorted(I.generators, key=key)))
