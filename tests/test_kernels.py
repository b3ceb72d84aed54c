import pytest
from conftest import random_ideal

from hilbertfn import kernels
from hilbertfn._oracle_py import count_outside as count_outside_py
from hilbertfn._oracle_py import count_outside_upto as count_outside_upto_py
from hilbertfn.monomial import MonomialIdeal, contains_monomial
from hilbertfn.parser import parse_ideal

XYZ = ["x", "y", "z"]


def _gens(I):
    return [g.exponents for g in I.generators]


def test_pure_kernel_known_values():
    I = parse_ideal("x*z, y*z, x^2*y", XYZ)
    assert [count_outside_py(3, b, _gens(I)) for b in range(6)] == [1, 3, 4, 4, 4, 4]
    assert count_outside_upto_py(3, 5, _gens(I)) == [1, 3, 4, 4, 4, 4]
    assert count_outside_py(2, 5, []) == 6
    assert count_outside_upto_py(2, 5, []) == [1, 2, 3, 4, 5, 6]


def test_backend_selection():
    I = parse_ideal("x^2, y^3", XYZ)
    v = kernels.count_outside(3, 4, _gens(I), backend="pure")
    assert v == 6
    assert kernels.count_outside(3, 4, _gens(I), backend="auto") == v
    assert kernels.count_outside_upto(3, 4, _gens(I)) == count_outside_upto_py(3, 4, _gens(I))
    with pytest.raises(ValueError):
        kernels.count_outside(3, 4, _gens(I), backend="gpu")


@pytest.mark.skipif(not kernels.HAVE_COMPILED, reason="compiled kernel not built")
def test_compiled_matches_pure(rng):
    for _ in range(30):
        arity = rng.randint(1, 4)
        I = random_ideal(rng, arity, rng.randint(0, 5) or 1, max_exp=4)
        gens = _gens(I)
        for b in range(0, 9, 2):
            assert kernels.count_outside(arity, b, gens, backend="compiled") == (
                count_outside_py(arity, b, gens)
            )
        assert kernels.count_outside_upto(arity, 8, gens) == count_outside_upto_py(arity, 8, gens)


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
        upto = count_outside_upto_py(arity, b_max, _gens(I))
        assert upto == expected, I
        for d in range(b_max + 1):
            assert count_outside_py(arity, d, _gens(I)) == count_outside_upto_py(
                arity, d, _gens(I)
            )[d], (I, d)
