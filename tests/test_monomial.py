import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbertfn.monomial import (
    ArityMismatchError,
    Monomial,
    MonomialIdeal,
    VariableOrder,
    contains_monomial,
    divides,
    ideal,
    lcm,
    minimal_exponents,
    minimalize,
    reindex_for_table,
    restrict,
    syzygy_quotient,
)

monomials3 = st.tuples(*[st.integers(0, 8)] * 3).map(Monomial)


def test_degree():
    assert Monomial((2, 1, 3)).degree == 6
    assert Monomial((0, 0, 0)).degree == 0
    assert Monomial((5,)).degree == 5


def test_degree_rejects_negative():
    with pytest.raises(ValueError):
        Monomial((1, -1))


def test_monomial_rejects_bool_and_float_exponents():
    # True == 1, but a bool is no exponent: Monomial((True, 2)) used to equal
    # Monomial((1, 2))
    for bad in (True, False, 1.0):
        with pytest.raises(ValueError, match="exponents must be non-negative integers"):
            Monomial((bad, 2))


def test_ideal_rejects_a_non_int_arity():
    # a float arity used to be accepted and fail later, deep in every method
    for bad in (2.0, True, "2"):
        with pytest.raises(ValueError, match="arity must be an integer"):
            MonomialIdeal(bad, (Monomial((1, 1)),))
    with pytest.raises(ValueError, match="arity must be >= 1"):
        MonomialIdeal(0)


def test_ideal_rejects_generators_that_are_not_monomials():
    # an exponent tuple used to fail with AttributeError on its missing arity
    for bad in ((1, 0), [1, 0], None):
        with pytest.raises(ValueError, match="generators must be Monomial values"):
            MonomialIdeal(2, [bad])
    with pytest.raises(ValueError, match="generators must be Monomial values"):
        MonomialIdeal(2, [Monomial((1, 0)), (0, 1)])


def test_divides():
    assert divides(Monomial((2, 1, 0)), Monomial((2, 1, 2)))
    m = Monomial((1, 2, 3))
    assert divides(m, m)
    assert not divides(Monomial((2, 0)), Monomial((0, 3)))


def test_divides_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        divides(Monomial((1,)), Monomial((1, 2)))
    with pytest.raises(ValueError, match="arity must be >= 1"):
        MonomialIdeal(0)
    with pytest.raises(ArityMismatchError):
        MonomialIdeal(2, (Monomial((1, 2, 3)),))
    I = ideal(2, (1, 0), (0, 1))
    with pytest.raises(ArityMismatchError):
        contains_monomial(I, Monomial((1, 1, 1)))
    for order in (VariableOrder.identity(1), VariableOrder.identity(3)):
        with pytest.raises(ArityMismatchError):
            restrict(I, order, 1)
        with pytest.raises(ArityMismatchError):
            reindex_for_table(I, order)


def test_lcm():
    assert lcm(Monomial((2, 1, 0)), Monomial((1, 0, 2))) == Monomial((2, 1, 2))
    m = Monomial((3, 0, 1))
    assert lcm(m, Monomial((0, 0, 0))) == m
    assert lcm(Monomial((2, 0)), Monomial((0, 3))) == Monomial((2, 3))


def test_syzygy_quotient():
    # lcm(xz, yz) / yz = x
    assert syzygy_quotient(Monomial((1, 0, 1)), Monomial((0, 1, 1))) == Monomial((1, 0, 0))
    # lcm(xy^4z, x^2y^3z) / x^2y^3z = y
    assert syzygy_quotient(Monomial((1, 4, 1)), Monomial((2, 3, 1))) == Monomial((0, 1, 0))
    p = Monomial((2, 5))
    assert syzygy_quotient(p, p) == Monomial((0, 0))


@given(monomials3, monomials3)
def test_lcm_commutative_and_divides(u, v):
    w = lcm(u, v)
    assert w == lcm(v, u)
    assert divides(u, w) and divides(v, w)
    assert lcm(u, u) == u


@given(monomials3, monomials3, monomials3)
def test_lcm_associative(u, v, w):
    assert lcm(lcm(u, v), w) == lcm(u, lcm(v, w))


@given(monomials3, monomials3)
def test_syzygy_quotient_times_pj_is_lcm(p_i, p_j):
    m = syzygy_quotient(p_i, p_j)
    combined = Monomial(tuple(a + b for a, b in zip(m.exponents, p_j.exponents)))
    assert combined == lcm(p_i, p_j)


def test_contains_monomial():
    I = ideal(3, (2, 0, 0), (0, 3, 0))
    assert contains_monomial(I, Monomial((2, 1, 0)))
    assert not contains_monomial(MonomialIdeal(3), Monomial((4, 4, 4)))
    J = ideal(3, (2, 1, 3), (3, 0, 1), (0, 2, 2))
    assert contains_monomial(J, Monomial((3, 0, 1)))


def test_minimalize():
    assert minimalize(ideal(2, (0, 6), (0, 5))) == ideal(2, (0, 5))
    # <y^5, xy^4, x, y> -> <x, y>
    assert minimalize(ideal(2, (0, 5), (1, 4), (1, 0), (0, 1))) == ideal(2, (1, 0), (0, 1))
    I = ideal(2, (2, 0), (0, 3))
    assert minimalize(I) == I
    # duplicates collapse to the earliest occurrence
    assert minimalize(ideal(2, (1, 1), (1, 1))) == ideal(2, (1, 1))


@given(st.lists(monomials3, max_size=5), monomials3)
def test_minimalize_preserves_membership(gens, m):
    I = MonomialIdeal(3, tuple(gens))
    assert contains_monomial(I, m) == contains_monomial(minimalize(I), m)


@given(
    st.integers(0, 5).flatmap(
        lambda arity: st.lists(st.tuples(*[st.integers(0, 4)] * arity), max_size=16)
    )
)
def test_minimal_exponents_is_the_first_copy_of_each_undivided_vector(vectors):
    def divides_strictly(u, v):
        return u != v and all(x <= y for x, y in zip(u, v))

    expected = [
        v
        for k, v in enumerate(vectors)
        if v not in vectors[:k] and not any(divides_strictly(u, v) for u in vectors)
    ]
    assert minimal_exponents(vectors) == expected


def test_variable_order_validation():
    with pytest.raises(ValueError):
        VariableOrder((0, 0, 1))
    # 0.0 == 0 == False, so sorting alone took these for permutations
    for bad in ((0.0, 1), (True, 0), (1, False)):
        with pytest.raises(ValueError, match="not a permutation"):
            VariableOrder(bad)
    assert VariableOrder.identity(3).perm == (0, 1, 2)


def test_restrict():
    # I = <x*xh, y*z*w> over (x, xh, y, z, w)
    I = ideal(5, (1, 1, 0, 0, 0), (0, 0, 1, 1, 1))
    order = VariableOrder.identity(5)
    assert restrict(I, order, 2) == ideal(2, (1, 1))
    assert restrict(I, order, 4) == ideal(4, (1, 1, 0, 0))
    assert restrict(I, order, 5).generators == I.generators
    with pytest.raises(ValueError):
        restrict(I, order, 6)


def test_restrict_nonidentity_order():
    # ring (x, y, z), order (y, z, x): only generators in y,z survive at a=2
    I = ideal(3, (0, 2, 2), (3, 0, 1))
    order = VariableOrder((1, 2, 0))
    assert restrict(I, order, 2) == ideal(2, (2, 2))


def test_reindex_for_table():
    # ring coordinates (y, x, z): swap of the two stage-3 generators
    I = ideal(3, (6, 0, 0), (5, 3, 0), (2, 2, 2), (0, 3, 1), (1, 2, 3))
    order = VariableOrder.identity(3)
    J = reindex_for_table(I, order)
    assert [g.exponents for g in J.generators] == [
        (6, 0, 0),
        (5, 3, 0),
        (0, 3, 1),
        (2, 2, 2),
        (1, 2, 3),
    ]
    assert reindex_for_table(J, order) == J
    single = ideal(3, (1, 2, 3))
    assert reindex_for_table(single, order) == single


def test_reindex_criterion_two_holds(rng):
    from conftest import random_ideal

    from hilbertfn.monomial import stage

    order = VariableOrder((2, 0, 3, 1))
    for _ in range(50):
        I = random_ideal(rng, 4, rng.randint(1, 6))
        J = reindex_for_table(I, order)
        gens = J.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                si, sj = stage(gens[i], order), stage(gens[j], order)
                assert si <= sj
                if si == sj and si > 0:
                    var = order.perm[si - 1]
                    assert gens[i].exponents[var] <= gens[j].exponents[var]


def _table_view(gens, perm):
    """Each generator's stage and its exponents listed by table position,
    built from the inverse of ``perm``: the independent reading that
    ``restrict`` and ``reindex_for_table`` are checked against."""
    position = {v: i for i, v in enumerate(perm)}
    views = []
    for g in gens:
        by_position = [0] * len(perm)
        for v, e in enumerate(g):
            by_position[position[v]] = e
        stage_ = max((i + 1 for i, e in enumerate(by_position) if e), default=0)
        views.append((stage_, tuple(by_position)))
    return views


def test_restrict_and_reindex_keep_exact_exponents(rng):
    # a permutation mixed up in either function keeps every degree, so the
    # exact exponent tuples are compared, on seeded ideals and random orders
    from conftest import random_ideal

    for _ in range(150):
        arity = rng.randint(1, 6)
        I = random_ideal(rng, arity, rng.randint(0, 10), max_exp=rng.choice([1, 3, 6]))
        if rng.random() < 0.2:
            I = ideal(arity, *(g.exponents for g in I.generators), (0,) * arity)
        perm = list(range(arity))
        rng.shuffle(perm)
        order = VariableOrder(perm)
        gens = [g.exponents for g in I.generators]
        views = _table_view(gens, perm)
        for a in range(1, arity + 1):
            expected = [view[:a] for s, view in views if s <= a]
            assert [g.exponents for g in restrict(I, order, a).generators] == expected

        # a stable sort by stage, then by the stage variable's exponent
        def rank(k):
            s, view = views[k]
            return (s, view[s - 1] if s else 0)

        J = reindex_for_table(I, order)
        assert [g.exponents for g in J.generators] == [
            gens[k] for k in sorted(range(len(gens)), key=rank)
        ]
