"""The public value classes behave as immutable values.

Each class is built positionally and by keyword, compared only with its own
class, hashed by value, refuses assignment and deletion, prints the exact
repr pinned here, and survives ``copy``, ``deepcopy`` and ``pickle``.
"""

import copy
import pickle

import pytest

from hilbertfn import (
    AnnihilatorDecomposition,
    HilbertTable,
    LcmLattice,
    Monomial,
    MonomialIdeal,
    SeriesNumerator,
    SimplicialComplex,
    VariableOrder,
)
from hilbertfn.parser import SourceSpan

M = Monomial

# (class, keyword arguments, repr, keyword arguments of an unequal value)
CASES = [
    (Monomial, {"exponents": (1, 2)}, "Monomial((1, 2))", {"exponents": (2, 1)}),
    (
        MonomialIdeal,
        {"arity": 2, "generators": (M((1, 0)),)},
        "MonomialIdeal(arity=2, [(1, 0)])",
        {"arity": 2, "generators": (M((0, 1)),)},
    ),
    (VariableOrder, {"perm": (1, 0)}, "VariableOrder(perm=(1, 0))", {"perm": (0, 1)}),
    (
        SeriesNumerator,
        {"arity": 2, "coefficients": ((0, 1), (2, -1))},
        "SeriesNumerator(arity=2, coefficients=((0, 1), (2, -1)))",
        {"arity": 3, "coefficients": ((0, 1), (2, -1))},
    ),
    (
        LcmLattice,
        {"layers": ((M((1, 0)), M((0, 1))), (M((1, 1)),))},
        "LcmLattice(layers=((Monomial((1, 0)), Monomial((0, 1))), (Monomial((1, 1)),)))",
        {"layers": ((M((1, 0)),),)},
    ),
    (
        AnnihilatorDecomposition,
        {"free_arity": 1, "generators": ((1,), (0,)), "shifts": (1,)},
        "AnnihilatorDecomposition(free_arity=1, generators=((1,), (0,)), shifts=(1,))",
        {"free_arity": 1, "generators": ((1,), (0,)), "shifts": (0, 1)},
    ),
    (
        HilbertTable,
        {"rows": ((1, 0), (1, 1))},
        "HilbertTable(rows=((1, 0), (1, 1)))",
        {"rows": ((1, 0), (1, 2))},
    ),
    (SourceSpan, {"start": 0, "end": 1}, "SourceSpan(start=0, end=1)", {"start": 0, "end": 2}),
    (
        SimplicialComplex,
        {"vertices": ("a", "b"), "facets": (("a",), ("b",))},
        "SimplicialComplex(vertices=('a', 'b'), facets=(('a',), ('b',)))",
        {"vertices": ("a", "b"), "facets": (("a", "b"),)},
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, kwargs, text, other", CASES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, kwargs, text, other):
    by_keyword = cls(**kwargs)
    by_position = cls(*kwargs.values())
    assert by_keyword == by_position
    for name, value in kwargs.items():
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls, kwargs, text, other", CASES, ids=IDS)
def test_equality_is_by_value_within_the_class(cls, kwargs, text, other):
    v = cls(**kwargs)
    assert v == cls(**kwargs) and not v != cls(**kwargs)
    assert hash(v) == hash(cls(**kwargs))
    assert v != cls(**other)
    fields = tuple(kwargs.values())
    assert v != fields and v != fields[0]
    assert len({v, cls(**kwargs), cls(**other)}) == 2


def test_equality_never_crosses_classes():
    assert SourceSpan(0, 1) != (0, 1)
    assert Monomial((1, 2)) != (1, 2)
    assert VariableOrder((0, 1)) != Monomial((0, 1))
    assert MonomialIdeal(2) != SeriesNumerator(2, ())


@pytest.mark.parametrize("cls, kwargs, text, other", CASES, ids=IDS)
def test_repr_is_pinned(cls, kwargs, text, other):
    assert repr(cls(**kwargs)) == text


def test_zero_ideal_repr_and_default_generators():
    assert MonomialIdeal(2) == MonomialIdeal(arity=2) == MonomialIdeal(2, ())
    assert MonomialIdeal(2).generators == ()
    assert repr(MonomialIdeal(2)) == "MonomialIdeal(arity=2, [])"


@pytest.mark.parametrize("cls, kwargs, text, other", CASES, ids=IDS)
def test_assignment_and_deletion_raise(cls, kwargs, text, other):
    v = cls(**kwargs)
    for name, value in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(v, name, value)
        with pytest.raises(AttributeError):
            delattr(v, name)
        assert getattr(v, name) == value
    with pytest.raises(AttributeError):
        v.extra = 1
    assert v == cls(**kwargs)


@pytest.mark.parametrize("cls, kwargs, text, other", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(cls, kwargs, text, other):
    v = cls(**kwargs)
    pickled = [pickle.loads(pickle.dumps(v, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (copy.copy(v), copy.deepcopy(v), *pickled):
        assert type(twin) is cls
        assert twin == v and hash(twin) == hash(v)
        assert repr(twin) == text
