"""References that reach past the oracle, and identities that need none.

* Eliahou-Kervaire: a strongly stable ideal with minimal generators G has

      K(t) = 1 - sum over g in G of t^(deg g) (1 - t)^(m(g) - 1),

  m(g) the largest index of a variable dividing g (J. Algebra 129, 1990).
  The formula is linear in the generators, so it checks the recursion and
  the table on Borel ideals with hundreds of generators, far past the
  oracle's cap.
* Permuting the variables leaves K(t) unchanged, on the recursion and on the
  lcm lattice, and the table's last row does not depend on its order.
* Polarization leaves K(t) unchanged: P(I) is squarefree, in more variables,
  and the extra variables form a regular sequence of linear forms modulo it
  (Herzog-Hibi, Monomial Ideals).  So the squarefree P(I), which the
  recursion packs one bit per variable, checks the packing in fields of I.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import accumulate
from math import comb

from conftest import compositions
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertfn.engine import hf, hf_table
from hilbertfn.monomial import Monomial, MonomialIdeal, VariableOrder
from hilbertfn.series import SeriesNumerator, expand_series, lattice_numerator, series_numerator


def _borel(g: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The generators of the principal Borel ideal of g: every monomial of
    g's degree whose exponent prefix sums dominate g's, i.e. all that
    moves x_j -> x_i, i < j, reach from g."""
    bound = list(accumulate(g))
    return {
        u for u in compositions(sum(g), len(g))
        if all(s >= b for s, b in zip(accumulate(u), bound))
    }


def _minimal(gens: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The minimal ones among ``gens``, degree by degree: each kept unless a
    kept one of lower degree divides it."""
    kept: list[tuple[int, ...]] = []
    for d in sorted(set(map(sum, gens))):
        lower = list(kept)
        kept += sorted(
            u for u in gens
            if sum(u) == d and not any(all(map(int.__le__, v, u)) for v in lower)
        )
    return kept


def _moves(u: tuple[int, ...]):
    """Every x_i u / x_j with i < j and x_j dividing u."""
    for j in (j for j, e in enumerate(u) if e):
        for i in range(j):
            v = list(u)
            v[i] += 1
            v[j] -= 1
            yield tuple(v)


def _eliahou_kervaire(arity: int, gens: list[tuple[int, ...]]) -> SeriesNumerator:
    coeffs = Counter({0: 1})
    for g in gens:
        m = max(i + 1 for i, e in enumerate(g) if e)
        for i in range(m):
            coeffs[sum(g) + i] -= (-1) ** i * comb(m - 1, i)
    return SeriesNumerator.from_degrees(arity, coeffs)


def _values(num: SeriesNumerator, b_max: int) -> tuple[int, ...]:
    """HF(b) = sum of c_d C(b - d + a - 1, a - 1): one binomial per term."""
    a = num.arity
    return tuple(
        sum(c * comb(b - d + a - 1, a - 1) for d, c in num.coefficients if d <= b)
        for b in range(b_max + 1)
    )


def _strongly_stable_ideals(seed: int):
    """Seeded principal Borel ideals in 7 variables, of up to about 800
    generators, then sums of two or three smaller ones, of mixed degrees,
    each as the set of its Borel ideals' generators."""
    rng = random.Random(seed)

    def draw(degrees, most):
        while True:
            g = [0] * 7
            for _ in range(rng.choice(degrees)):
                g[min(6, int(rng.triangular(0, 7, 7)))] += 1
            if len(gens := _borel(tuple(g))) <= most:
                return gens

    ideals = [draw((5, 6, 7, 8), 850) for _ in range(6)]
    for _ in range(4):
        # a small Borel ideal in the lowest degree, so that it does not
        # swallow the higher ones
        low, *high = sorted(rng.sample((3, 4, 5, 6), rng.randint(2, 3)))
        ideals.append(draw((low,), 12).union(*(draw((d,), 150) for d in high)))
    return ideals


def test_eliahou_kervaire_on_borel_ideals():
    sizes = []
    for borel in _strongly_stable_ideals(1990):
        # strongly stable: every move x_j -> x_i, i < j, stays in the set
        assert all(v in borel for u in borel for v in _moves(u))
        gens = _minimal(borel)
        I = MonomialIdeal(7, tuple(map(Monomial, gens)))
        expected = _eliahou_kervaire(7, gens)
        assert series_numerator(I) == expected, gens
        b_max = max(map(sum, gens)) + 2
        assert hf_table(I, b_max=b_max).rows[-1] == _values(expected, b_max), gens
        sizes.append((len(gens), len(set(map(sum, gens)))))
    assert max(sizes)[0] > 600 and len(sizes) == 10
    assert sum(degrees > 1 for _, degrees in sizes) >= 3


@st.composite
def _ideals(draw, max_arity=5, max_exponent=4, max_generators=7):
    arity = draw(st.integers(1, max_arity))
    exponents = st.tuples(*[st.integers(0, max_exponent)] * arity)
    gens = draw(st.lists(exponents, max_size=max_generators))
    return MonomialIdeal(arity, tuple(map(Monomial, gens)))


def _permuted(I: MonomialIdeal, perm: list[int]) -> MonomialIdeal:
    gens = [tuple(g.exponents[p] for p in perm) for g in I.generators]
    return MonomialIdeal(I.arity, tuple(map(Monomial, gens)))


def _polarized(I: MonomialIdeal) -> MonomialIdeal:
    """x_i^e becomes x_i1 * ... * x_ie, each x_i given as many new variables
    as its largest exponent (at least one)."""
    widths = [max([g.exponents[i] for g in I.generators], default=0) or 1 for i in range(I.arity)]
    gens = [
        tuple(int(k < e) for e, w in zip(g.exponents, widths) for k in range(w))
        for g in I.generators
    ]
    return MonomialIdeal(sum(widths), tuple(map(Monomial, gens)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_ideals(), st.randoms(use_true_random=False))
def test_permuting_variables_leaves_k_unchanged(I, rng):
    perm = rng.sample(range(I.arity), I.arity)
    J = _permuted(I, perm)
    assert series_numerator(J) == series_numerator(I)
    assert lattice_numerator(J) == lattice_numerator(I)
    b_max = rng.randint(0, 12)
    rows = hf_table(I, order=VariableOrder(tuple(perm)), b_max=b_max).rows
    assert list(rows[-1]) == hf(I, b_max)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_ideals(max_arity=4, max_exponent=3, max_generators=6))
def test_polarization_leaves_k_unchanged(I):
    P = _polarized(I)
    assert all(e <= 1 for g in P.generators for e in g.exponents)
    K = series_numerator(I).coefficients
    assert series_numerator(P).coefficients == K
    assert lattice_numerator(P).coefficients == K
    # the table resolves P's stages in the bit layout, and I's K comes from
    # the field layout whenever I is not squarefree
    b_max = 7
    expected = expand_series(SeriesNumerator(P.arity, K), b_max)
    assert list(hf_table(P, b_max=b_max).rows[-1]) == expected
