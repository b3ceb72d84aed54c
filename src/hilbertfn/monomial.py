"""Monomials, monomial ideals and variable orders with exact integer exponents.

Everything here is immutable and pure.  Ideals keep their generators in the
order they were given, and some results read that order: the colexicographic
layers of ``engine.build_lcm_lattice``, the survivor order of
:func:`minimalize`, the order that ``engine.annihilator_decomposition`` keeps
among generators tied within a stage, and the ``ideal`` echoed in the CLI's
JSON output.  The syzygy recursion and the table's stages order the
generators themselves.
"""

from __future__ import annotations

from operator import le
from typing import Iterable, Sequence


class ArityMismatchError(ValueError):
    """Two monomials (or a monomial and an ideal) live in different rings."""


MAX_EXPONENT = 10**6

_set = object.__setattr__


class _Value:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__`` and sets them in its own
    ``__init__`` through ``object.__setattr__``.  Equality holds only within
    one class, the hash is that of the field tuple, the repr lists the fields
    by name, and ``copy`` and ``pickle`` rebuild the value through ``__init__``
    from its fields, positionally.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


def _is_int(x: object) -> bool:
    """True for an ``int`` that is not a ``bool``."""
    return isinstance(x, int) and not isinstance(x, bool)


class Monomial(_Value):
    """A monomial stored as its exponent vector.

    ``exponents[i]`` is the power of the i-th ring variable; the degree is the
    sum of all exponents (standard grading).
    """

    __slots__ = ("exponents",)

    def __init__(self, exponents: Iterable[int]) -> None:
        exponents = tuple(exponents)
        for e in exponents:
            if not _is_int(e) or e < 0:
                raise ValueError(f"exponents must be non-negative integers, got {e!r}")
            if e > MAX_EXPONENT:
                raise OverflowError(f"exponent {e} exceeds supported bound {MAX_EXPONENT}")
        _set(self, "exponents", exponents)

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


def _unchecked_monomial(exponents: tuple[int, ...]) -> Monomial:
    """A Monomial on exponents the caller has already bounded (the parser,
    and ``simplicial.nonface_ideal``'s 0/1 vectors), built without the
    checks of ``Monomial.__init__``."""
    m = object.__new__(Monomial)
    _set(m, "exponents", exponents)
    return m


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


class MonomialIdeal(_Value):
    """A monomial ideal given by an ordered generator list.

    The zero ideal has no generators; the unit ideal is flagged by a
    constant generator (all exponents zero).
    """

    __slots__ = ("arity", "generators")

    def __init__(self, arity: int, generators: Iterable[Monomial] = ()) -> None:
        if not _is_int(arity):
            raise ValueError(f"arity must be an integer, got {arity!r}")
        if arity < 1:
            raise ValueError("arity must be >= 1")
        generators = tuple(generators)
        for g in generators:
            if not isinstance(g, Monomial):
                raise ValueError(f"generators must be Monomial values, got {g!r}")
            if g.arity != arity:
                raise ArityMismatchError(f"generator arity {g.arity} != ideal arity {arity}")
        _set(self, "arity", arity)
        _set(self, "generators", generators)

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
    occurrence.  A proper divisor has a smaller degree, so one pass over the
    distinct vectors in ascending degree tests each against the survivors
    found before it, and the survivors are then read off in the given order.
    """
    unique = list(dict.fromkeys(vectors))
    survivors: set[tuple[int, ...]] = set()
    for v in sorted(unique, key=sum):
        for h in survivors:
            if all(map(le, h, v)):
                break
        else:
            survivors.add(v)
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


class VariableOrder(_Value):
    """The order in which variables are introduced when building HF tables.

    ``perm[i]`` is the ring index of the variable introduced at stage i+1.
    """

    __slots__ = ("perm",)

    def __init__(self, perm: Iterable[int]) -> None:
        perm = tuple(perm)
        if not all(map(_is_int, perm)) or sorted(perm) != list(range(len(perm))):
            raise ValueError(f"not a permutation of 0..{len(perm) - 1}: {perm}")
        _set(self, "perm", perm)

    @classmethod
    def identity(cls, arity: int) -> VariableOrder:
        return cls(tuple(range(arity)))

    @property
    def arity(self) -> int:
        return len(self.perm)


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
    never involves the later generator's stage variable.  This is the
    paper's re-indexing: the table does not need it, since
    :func:`engine.annihilator_decomposition` orders each stage's generators
    the same way itself, and the tests check the table against it.
    """
    if order.arity != I.arity:
        raise ArityMismatchError(f"order arity {order.arity} != ideal arity {I.arity}")

    def key(g: Monomial) -> tuple[int, int]:
        s = stage(g, order)
        return (s, g.exponents[order.perm[s - 1]] if s > 0 else 0)

    return MonomialIdeal(I.arity, tuple(sorted(I.generators, key=key)))
