from conftest import random_ideal

from hilbertfn import kernels
from hilbertfn.monomial import MonomialIdeal, contains_monomial
from hilbertfn.parser import parse_ideal

XYZ = ["x", "y", "z"]


def _gens(I):
    return [g.exponents for g in I.generators]


def test_pure_kernel_known_values():
    I = parse_ideal("x*z, y*z, x^2*y", XYZ)
    assert [kernels.count_outside(3, b, _gens(I)) for b in range(6)] == [1, 3, 4, 4, 4, 4]
    assert kernels.count_outside_upto(3, 5, _gens(I)) == [1, 3, 4, 4, 4, 4]
    assert kernels.count_outside(2, 5, []) == 6
    assert kernels.count_outside_upto(2, 5, []) == [1, 2, 3, 4, 5, 6]
    assert kernels.count_outside(3, -1, _gens(I)) == 0
    assert kernels.count_outside_upto(3, -1, _gens(I)) == []


def test_pure_matches_direct_enumeration(rng):
    from conftest import compositions

    from hilbertfn.monomial import Monomial

    cases = []
    for arity in range(1, 6):
        # zero ideal, unit ideal, a duplicated generator, last exponent 0
        cases.append(MonomialIdeal(arity))
        cases.append(MonomialIdeal(arity, (Monomial((0,) * arity),)))
        g = Monomial(tuple(range(1, arity + 1)))
        cases.append(MonomialIdeal(arity, (g, g)))
        cases.append(MonomialIdeal(arity, (Monomial((2,) * (arity - 1) + (0,)),)))
    while len(cases) < 200:
        arity = rng.randint(1, 5)
        I = random_ideal(rng, arity, rng.randint(1, 6), max_exp=4)
        if rng.random() < 0.3:
            # repeat a generator and add one with no last-variable factor
            gens = list(I.generators)
            gens.append(rng.choice(gens))
            gens.append(Monomial(tuple(rng.randint(0, 3) for _ in range(arity - 1)) + (0,)))
            I = MonomialIdeal(arity, tuple(gens))
        cases.append(I)
    for I in cases:
        arity = I.arity
        b_max = 8 if arity <= 3 else 6
        expected = [
            sum(
                1
                for exps in compositions(b, arity)
                if not contains_monomial(I, Monomial(exps))
            )
            for b in range(b_max + 1)
        ]
        upto = kernels.count_outside_upto(arity, b_max, _gens(I))
        assert upto == expected, I
        for d in range(b_max + 1):
            assert kernels.count_outside(arity, d, _gens(I)) == kernels.count_outside_upto(
                arity, d, _gens(I)
            )[d], (I, d)
