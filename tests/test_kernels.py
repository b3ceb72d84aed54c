import random
from itertools import accumulate
from operator import add, itemgetter

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


def _reference_count_outside_upto(arity, b_max, gens):
    """The oracle walk as it stood before it closed the last two variables
    per prefix: one frame per prefix of the first a - 1 variables, the last
    variable by degree intervals.  Kept verbatim as the reference."""
    from itertools import accumulate
    from operator import add, itemgetter

    if b_max < 0:
        return []
    gen_list = [tuple(g) for g in gens]
    top = b_max + 1
    if arity == 1:
        m = min((g[0] for g in gen_list), default=top)
        return [1 if b < m else 0 for b in range(top)]

    last = arity - 1
    # Difference arrays over the degree.  ``bounded`` gets +1 on each degree
    # interval whose monomials are outside.  ``free[k]`` marks the start
    # degrees of prefixes whose k later variables are free: k + 1 prefix
    # sums turn the marks into the count of their completions per degree.
    bounded = [0] * (top + 1)
    free = [[0] * (top + 1) for _ in range(arity)]

    # Each frame extends a prefix of total ``s`` that ``active`` divide by the
    # exponent of variable ``pos``.  Frames only add into the difference
    # arrays, so the order they are taken in does not matter, and a stack
    # keeps a ring of any arity within Python's recursion limit.
    stack = [(0, 0, gen_list)]
    while stack:
        pos, s, active = stack.pop()
        active.sort(key=itemgetter(pos))
        first = active[0][pos] if active else top
        # exponents below ``first`` leave no generator dividing the prefix
        stop = min(s + first, top)
        if s < stop:
            marks = free[last - pos]
            marks[s] += 1
            marks[stop] -= 1
        n = 0
        low = top  # min of g[last] over active[:n]
        for d in range(s + first, top):
            e = d - s
            while n < len(active) and active[n][pos] <= e:
                if pos + 1 == last:
                    low = min(low, active[n][last])
                n += 1
            if pos + 1 == last:
                # outside for degrees d .. d + low - 1: the last exponent is
                # below every surviving generator's
                end = min(d + low, top)
                if d < end:
                    bounded[d] += 1
                    bounded[end] -= 1
            else:
                stack.append((pos + 1, d, active[:n]))

    acc = free[last]
    for k in range(last - 1, 0, -1):
        acc = list(map(add, accumulate(acc), free[k]))
    acc = list(map(add, accumulate(acc), bounded))
    return list(accumulate(acc[:top]))


def test_walk_matches_reference_walk():
    rng = random.Random(15)
    cases = 0
    for arity in range(1, 8):
        for b_max in range(26):
            # one special ideal per (arity, b_max), in turn: the zero ideal,
            # the unit alone, the unit among others, and one generator of
            # degree above b_max
            special = [
                [],
                [(0,) * arity],
                [(1,) * arity, (0,) * arity],
                [(b_max + 1,) * arity],
            ][(arity + b_max) % 4]
            for i in range(9):
                if i == 0:
                    gens = special
                else:
                    gens = [
                        tuple(rng.randint(0, 8) for _ in range(arity))
                        for _ in range(rng.randint(0, 12))
                    ]
                    if gens and rng.random() < 0.3:
                        gens.append(rng.choice(gens))
                    if arity >= 2 and rng.random() < 0.4:
                        # zero penultimate or last exponents
                        k = rng.choice((arity - 1, arity - 2))
                        gens = [
                            g[:k] + (0,) + g[k + 1 :] if rng.random() < 0.5 else g
                            for g in gens
                        ]
                assert kernels.count_outside_upto(arity, b_max, gens) == (
                    _reference_count_outside_upto(arity, b_max, gens)
                ), (arity, b_max, gens)
                cases += 1
    assert cases >= 1500
