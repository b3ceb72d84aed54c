import random
from collections import Counter
from itertools import accumulate

import pytest
from conftest import compositions, random_ideal

from hilbertfn import engine
from hilbertfn.engine import (
    adjacent_cancellations,
    annihilator_decomposition,
    annihilator_hf,
    build_lcm_lattice,
    hf,
    hf_lcm_lattice,
    hf_oracle,
    hf_syzygy,
    hf_table,
    upto_degree,
)
from hilbertfn.errors import ResourceCapError
from hilbertfn.monomial import (
    MAX_EXPONENT,
    MAX_ROW,
    ArityMismatchError,
    Monomial,
    MonomialIdeal,
    VariableOrder,
    ideal,
    lcm,
    minimal_exponents,
    minimalize,
    reindex_for_table,
    restrict,
    syzygy_quotient,
)
from hilbertfn.parser import parse_ideal
from hilbertfn.pascal import hf_principal, hf_two_generators, pascal_F
from hilbertfn.series import lattice_numerator, series_numerator, syzygy_coefficients

XYZ = ["x", "y", "z"]


class TestOracle:
    def test_example_values(self):
        I = parse_ideal("x^2, y^3", XYZ)
        assert hf_oracle(I, 3) == 6

    def test_unit_ideal(self):
        I = parse_ideal("1", XYZ)
        assert all(hf_oracle(I, b) == 0 for b in range(5))

    def test_suspected_table_typo_case(self):
        # enumeration gives 13 at degree 4: of the 15 degree-4 monomials only
        # x^3*z and y^2*z^2 lie in the ideal
        I = parse_ideal("x^2*y*z^3, x^3*z, y^2*z^2", XYZ)
        assert hf_oracle(I, 4) == 13

    def test_zero_ideal_counts_free_ring(self):
        I = MonomialIdeal(4)
        assert hf_oracle(I, 6) == pascal_F(4, 6)

    def test_enumeration_cap(self):
        I = parse_ideal("x^2", XYZ)
        with pytest.raises(ResourceCapError):
            hf_oracle(I, 8, enum_cap=10)
        # one walk visits F(a, b_max) prefixes, and that is what the cap bounds
        rng = random.Random(4)
        for _ in range(20):
            arity = rng.randint(1, 4)
            I = random_ideal(rng, arity, rng.randint(1, 4), max_exp=4)
            b_max = rng.randint(0, 8)
            work = pascal_F(arity, b_max)
            with pytest.raises(ResourceCapError):
                hf(I, b_max, method="oracle", enum_cap=work - 1)
            expected = hf(I, b_max, method="syzygy")
            values = hf(I, b_max, method="oracle", enum_cap=work)
            assert values == expected, I
            # hf_oracle is one degree of that walk, under the same cap at b
            assert hf_oracle(I, -1, enum_cap=0) == 0
            for b in range(b_max + 1):
                work_b = pascal_F(arity, b)
                with pytest.raises(ResourceCapError):
                    hf_oracle(I, b, enum_cap=work_b - 1)
                assert hf_oracle(I, b, enum_cap=work_b) == values[b], (I, b)


class TestLcmLattice:
    def test_layers_three_generators(self):
        I = parse_ideal("x*z, y*z, x^2*y", XYZ)
        lattice = build_lcm_lattice(I)
        layer_sets = [sorted(m.exponents for m in layer) for layer in lattice.layers]
        assert layer_sets[0] == [(0, 1, 1), (1, 0, 1), (2, 1, 0)]
        assert layer_sets[1] == [(1, 1, 1), (2, 1, 1), (2, 1, 1)]
        assert layer_sets[2] == [(2, 1, 1)]

    def test_layer_sizes_are_binomials(self):
        from math import comb

        I = ideal(3, (1, 0, 0), (0, 2, 0), (0, 0, 3), (1, 1, 1), (2, 2, 0))
        lattice = build_lcm_lattice(I)
        n = 5
        assert [len(layer) for layer in lattice.layers] == [comb(n, r) for r in range(1, n + 1)]

    def test_two_generator_layers(self):
        I = parse_ideal("x^2, y^3", XYZ)
        lattice = build_lcm_lattice(I)
        assert [m.exponents for m in lattice.layers[1]] == [(2, 3, 0)]

    def test_single_generator(self):
        I = parse_ideal("x^2*y", XYZ)
        lattice = build_lcm_lattice(I)
        assert len(lattice.layers) == 1
        assert lattice.layers[0][0].exponents == (2, 1, 0)

    def test_lattice_cap(self):
        I = ideal(2, *[(i + 1, 1) for i in range(6)])
        with pytest.raises(ResourceCapError):
            build_lcm_lattice(I, lattice_cap=5)

    def test_hf_values(self):
        I = parse_ideal("x*z, y*z, x^2*y", XYZ)
        assert hf_lcm_lattice(I, 9) == [1, 3, 4, 4, 4, 4, 4, 4, 4, 4]
        J = parse_ideal("x^2*y^3*z, x*z^3, x*y^4*z, x^2*z^2", XYZ)
        assert hf_lcm_lattice(J, 9)[9] == 22

    def test_zero_ideal(self):
        assert hf_lcm_lattice(MonomialIdeal(3), 4) == [pascal_F(3, b) for b in range(5)]

    def test_cancellation_is_sound_and_minimal(self):
        I = parse_ideal("x*z, y*z, x^2*y", XYZ)
        lattice = build_lcm_lattice(I)
        _, pairs = adjacent_cancellations(lattice)
        assert sorted(pairs) == [(1, 3), (2, 4)]
        assert hf_lcm_lattice(I, 12, cancel=True) == hf_lcm_lattice(I, 12)
        # seeded random ideals, redundant generators included: the cancelled
        # lattice over the given generators matches the plain sum over the
        # minimal ones
        rng = random.Random(1992)
        for _ in range(40):
            J = random_ideal(rng, rng.randint(1, 4), rng.randint(1, 8), max_exp=4)
            assert hf_lcm_lattice(J, 12, cancel=True) == hf_lcm_lattice(J, 12), J

    def test_lattice_numerator_is_the_layer_sum(self):
        # on the generators as given, the Mobius dict sums to the alternating
        # sum over every subset lcm of the lattice's layers.  The last
        # generator of x, y, x*y takes the entry x*y to 0, which drops it,
        # before lcm(x, x*y) brings it back; unit generators empty the dict,
        # and duplicates and multiples cancel against their divisors
        rng = random.Random(18)
        ideals = [MonomialIdeal(3), ideal(2, (1, 0), (0, 1), (1, 1)), ideal(2, (0, 0))]
        for _ in range(120):
            arity = rng.randint(1, 4)
            gens = list(random_ideal(rng, arity, rng.randint(1, 7), max_exp=3).generators)
            kind = rng.choice(("unit", "duplicate", "multiple", "plain"))
            if kind == "unit":
                g = Monomial((0,) * arity)
            elif kind == "duplicate":
                g = rng.choice(gens)
            else:
                e = list(rng.choice(gens).exponents)
                e[rng.randrange(arity)] += 1
                g = Monomial(tuple(e))
            if kind != "plain":
                gens.insert(rng.randrange(len(gens) + 1), g)
            ideals.append(MonomialIdeal(arity, tuple(gens)))
        for I in ideals:
            coeffs = Counter({0: 1})
            layers = build_lcm_lattice(I).layers if I.generators else ()
            for r, layer in enumerate(layers, start=1):
                for m in layer:
                    coeffs[m.degree] += (-1) ** r
            expected = tuple(sorted((d, c) for d, c in coeffs.items() if c))
            assert lattice_numerator(I).coefficients == expected, I


class TestSyzygy:
    def test_two_generators(self):
        I = parse_ideal("x^2, y^3", XYZ)
        assert hf_syzygy(I, 9) == [1, 3, 5, 6, 6, 6, 6, 6, 6, 6]

    def test_four_generators(self):
        I = parse_ideal("x^2*z^2, x*z^3, x*y^4*z, x^2*y^3*z", XYZ)
        assert hf_syzygy(I, 10)[10] == 24

    def test_single_generator(self):
        I = parse_ideal("x^5", XYZ)
        assert hf_syzygy(I, 6)[6] == 25

    def test_memo_reuse(self):
        stats = {}
        I = parse_ideal("x^2*y^3*z, x*z^3, x*y^4*z, x^2*z^2", XYZ)
        hf_syzygy(I, 10, stats=stats)
        assert stats["hits"] > 0
        assert stats["memo_size"] > 0

    def test_duplicate_generators(self):
        I = parse_ideal("x^2, x^2, y^3", XYZ)
        assert hf_syzygy(I, 8) == hf_syzygy(parse_ideal("x^2, y^3", XYZ), 8)

    def test_numerator_matches_subset_sum(self):
        # the recursion and the lcm lattice are independent routes to K(t)
        rng = random.Random(1992)
        ideals = [MonomialIdeal(3), parse_ideal("1", XYZ), parse_ideal("x^2, 1, y", XYZ)]
        for _ in range(200):
            arity = rng.randint(1, 5)
            I = random_ideal(rng, arity, rng.randint(1, 7), max_exp=rng.choice((2, 4, 6)))
            gens = list(I.generators)
            # redundant generators: a multiple and a duplicate of given ones
            if rng.random() < 0.5:
                g = rng.choice(gens).exponents
                gens.append(Monomial(tuple(e + rng.randint(0, 2) for e in g)))
            if rng.random() < 0.5:
                gens.insert(rng.randrange(len(gens) + 1), rng.choice(gens))
            ideals.append(MonomialIdeal(arity, tuple(gens)))
        # shaped like the antichain-subsets benchmark workload: equal-degree
        # antichains of 10-16 generators, some with redundant multiples
        for n in (10, 11, 12, 13, 14, 15, 16, 10, 11, 12):
            arity = rng.randint(3, 6)
            d = {3: 6, 4: 5, 5: 4, 6: 4}[arity] + rng.randint(0, 1)
            gens = rng.sample(list(compositions(d, arity)), n)
            for _ in range(rng.randint(0, 2)):
                g = list(rng.choice(gens))
                g[rng.randrange(arity)] += rng.randint(1, 2)
                gens.insert(rng.randrange(len(gens) + 1), tuple(g))
            I = ideal(arity, *gens)
            assert len(minimalize(I).generators) == n
            ideals.append(I)
        # a 72-variable ring, so packed generators pass a machine word:
        # sparse generators, often leaving trailing variables unused, and
        # the zero and unit ideals
        wide = 72
        for _ in range(20):
            gens = []
            for _ in range(rng.randint(1, 7)):
                e = [0] * wide
                for v in rng.sample(range(rng.choice((8, wide))), rng.randint(1, 4)):
                    e[v] = rng.randint(1, 5)
                gens.append(e)
            ideals.append(ideal(wide, *gens))
        ideals += [MonomialIdeal(wide), ideal(wide, (0,) * wide)]
        # the widest fields: exponents at MAX_EXPONENT next to exponents of 1
        for _ in range(20):
            arity = rng.choice((2, 3, 5, wide))
            gens = [
                [rng.choice((0, 0, 1, MAX_EXPONENT)) for _ in range(arity)]
                for _ in range(rng.randint(1, 6))
            ]
            ideals.append(ideal(arity, *(g for g in gens if any(g))))
        for I in ideals:
            assert series_numerator(I) == lattice_numerator(minimalize(I)), I

    def test_memo_does_not_depend_on_degree(self):
        I = parse_ideal("x^2*y^3*z, x*z^3, x*y^4*z, x^2*z^2, y^5, x^3*y", XYZ)
        low: dict = {}
        high: dict = {}
        hf_syzygy(I, 5, stats=low)
        hf_syzygy(I, 40, stats=high)
        assert low["misses"] == high["misses"] > 1
        assert low == high

    def test_shared_memo(self):
        # the memo is an argument of the tuple entry alone
        def shared_coefficients(J, stats=None, memo=None):
            exponents = minimal_exponents(g.exponents for g in J.generators)
            return syzygy_coefficients(exponents, stats, memo)

        I = parse_ideal("x^2*y^3*z, x*z^3, x*y^4*z, x^2*z^2, y^5, x^3*y", XYZ)
        memo: dict = {}
        first: dict = {}
        again: dict = {}
        expected = series_numerator(I).coefficients
        assert shared_coefficients(I, first, memo) == expected
        size = len(memo)
        assert first["misses"] == size > 1
        # the root is in the memo: no node opens and nothing is added
        assert shared_coefficients(I, again, memo) == expected
        assert again == {"hits": 1, "misses": 0, "memo_size": size}
        # a sub-ideal already in the memo is not computed again
        sub = parse_ideal("x*z^3, x^2*z^2, y^5", XYZ)
        fresh: dict = {}
        shared: dict = {}
        series_numerator(sub, fresh)
        assert shared_coefficients(sub, shared, memo) == series_numerator(sub).coefficients
        assert shared["misses"] < fresh["misses"]
        # ideals of different largest degrees pack at different widths, and
        # their packed generators can be equal ints: x*y packs to 8 + 1 at
        # width 3 and y^9 to 9 at width 5; x, w packs to 1, 64 at width 2
        # and x^4, y to 1, 64 at width 4.  One memo must keep them apart.
        ring = ["x", "y", "z", "w"]
        for texts in (("x*y", "y^9"), ("x, w", "x^4, y")):
            memo = {}
            for text in texts:
                J = parse_ideal(text, ring)
                expected = series_numerator(J).coefficients
                assert shared_coefficients(J, memo=memo) == expected, text

    def test_recursion_work_is_pinned(self):
        # the nodes and memo hits the recursion takes on a fresh memo; the
        # generator order (lexicographic on exponent vectors) decides them
        I = parse_ideal("x^2*y^3*z, x*z^3, x*y^4*z, x^2*z^2, y^5, x^3*y", XYZ)
        stats: dict = {}
        hf_syzygy(I, 10, stats=stats)
        assert stats == {"hits": 3, "misses": 8, "memo_size": 8}
        # a squarefree ideal shaped like a Stanley-Reisner ideal: 24 minimal
        # generators of degree 3 and 4 on 15 variables
        rng = random.Random(15)
        gens: list[tuple[int, ...]] = []
        while len(gens) < 26:
            support = rng.sample(range(15), rng.randint(3, 4))
            g = tuple(int(v in support) for v in range(15))
            if g not in gens:
                gens.append(g)
        J = ideal(15, *gens)
        assert len(minimalize(J).generators) == 24
        hf_syzygy(J, 6, stats=stats)
        assert stats == {"hits": 766, "misses": 272, "memo_size": 272}
        # the staircase x^12, x^11*y, ..., y^12: every S_j is (y), a
        # principal sub-ideal computed once and then found in the memo
        S = ideal(2, *[(12 - i, i) for i in range(13)])
        hf_syzygy(S, 20, stats=stats)
        assert stats == {"hits": 11, "misses": 2, "memo_size": 2}
        # an equal-degree antichain drawn as the many-generators workload
        # draws them (degree 5 in 4 variables), with 16 generators
        rng = random.Random(24)
        pool: set[tuple[int, ...]] = set()
        while len(pool) < 16:
            e = [0] * 4
            for _ in range(5):
                e[rng.randrange(4)] += 1
            pool.add(tuple(e))
        A = ideal(4, *sorted(pool))
        hf_syzygy(A, 12, stats=stats)
        assert stats == {"hits": 19, "misses": 14, "memo_size": 14}
        for K in (S, A):
            assert series_numerator(K) == lattice_numerator(K)

    def test_tuple_entry_takes_minimal_tuples(self):
        # the numerator is the tuple entry on the minimal exponent tuples,
        # with the same stats; rings of no variables hold the unit ideal
        rng = random.Random(31)
        for _ in range(40):
            I = random_ideal(rng, rng.randint(1, 6), rng.randint(0, 12), max_exp=4)
            exponents = minimal_exponents(g.exponents for g in I.generators)
            fresh: dict = {}
            tuples: dict = {}
            num = series_numerator(I, fresh)
            assert syzygy_coefficients(exponents, tuples) == num.coefficients
            assert tuples == fresh
        assert syzygy_coefficients([()]) == ()
        assert syzygy_coefficients([]) == ((0, 1),)

    def test_power_of_maximal_ideal(self):
        # m^20 in 3 variables: every monomial of degree >= 20 lies in it
        m20 = ideal(3, *[(i, j, 20 - i - j) for i in range(21) for j in range(21 - i)])
        assert len(m20.generators) == 231
        values = [pascal_F(3, b) for b in range(20)] + [0] * 6
        assert hf(m20, 25) == values
        assert hf_syzygy(m20, 25) == values


class TestAnnihilatorDecomposition:
    def _staged_three_var_ideal(self):
        ring = ["y", "x", "z"]
        I = parse_ideal("y^6, x^3*y^5, x^2*y^2*z^2, x^3*z, x^2*y*z^3", ring)
        order = VariableOrder.identity(3)
        return reindex_for_table(I, order), order

    def test_stage_one_delta(self):
        J, order = self._staged_three_var_ideal()
        dec = annihilator_decomposition(J, order, 1)
        assert dec.delta == 1 and dec.delta_shift == 5
        assert dec.terms == ()

    def test_stage_two_single_term(self):
        J, order = self._staged_three_var_ideal()
        dec = annihilator_decomposition(J, order, 2)
        assert dec.delta == 0
        ((sub, shift),) = dec.terms
        assert shift == 7
        assert list(sub) == [(1,)]

    def test_stage_three_terms(self):
        J, order = self._staged_three_var_ideal()
        dec = annihilator_decomposition(J, order, 3)
        assert dec.delta == 0
        shifts = [shift for _, shift in dec.terms]
        assert shifts == [3, 5, 5]
        gens = [sorted(sub) for sub, _ in dec.terms]
        assert gens == [
            [(5, 0)],
            [(0, 1), (4, 0)],  # {x, y^4}
            [(0, 1), (1, 0)],  # {x, y}
        ]

    def test_stage_without_new_generators(self):
        I = ideal(3, (2, 0, 0))
        order = VariableOrder.identity(3)
        dec = annihilator_decomposition(I, order, 2)
        assert dec.delta == 0 and dec.terms == ()

    def test_order_arity_must_match(self):
        # a wider order used to index past the ideal's exponents, a narrower
        # one to drop its last variables from every term
        for I, order, a in (
            (ideal(2, (1, 0), (0, 1)), VariableOrder.identity(3), 3),
            (ideal(3, (1, 0, 0), (0, 1, 1)), VariableOrder.identity(2), 2),
        ):
            with pytest.raises(ArityMismatchError, match="order arity"):
                annihilator_decomposition(I, order, a)

    def test_terms_are_projected_colon_ideals(self):
        # every term against the colon ideal (p_1, ..., p_{j-1}) : p_j built
        # from syzygy_quotient and minimalize, compared by exact exponents
        def stage_of(g, order):
            return max((s + 1 for s, v in enumerate(order.perm) if g.exponents[v]), default=0)

        rng = random.Random(4141)
        checked = unit_terms = empty_terms = 0
        for k in range(150):
            arity = rng.randint(1, 6)
            order = VariableOrder(tuple(rng.sample(range(arity), arity)))
            I = random_ideal(rng, arity, rng.randint(1, 9), max_exp=rng.choice((2, 3, 5)))
            if k % 3 == 0:
                # repeated powers of the first variable: stage-1 terms in no variables
                first = order.perm[0]
                powers = [tuple(e if v == first else 0 for v in range(arity)) for e in (3, 2, 4)]
                I = MonomialIdeal(arity, I.generators + tuple(map(Monomial, powers)))
            J = reindex_for_table(I, order)
            gens = J.generators
            for a in range(1, arity + 1):
                dec = annihilator_decomposition(J, order, a)
                free = order.perm[: a - 1]
                staged = [j for j, g in enumerate(gens) if stage_of(g, order) == a]
                first_here = bool(staged) and staged[0] == 0
                assert dec.free_arity == a - 1
                assert (dec.delta, dec.delta_shift) == (
                    (1, gens[0].degree - 1) if first_here else (0, 0)
                ), (J, order, a)
                expected = []
                for j in staged[1:] if first_here else staged:
                    colon = minimalize(
                        MonomialIdeal(arity, [syzygy_quotient(p, gens[j]) for p in gens[:j]])
                    )
                    for m in colon.generators:
                        assert all(m.exponents[v] == 0 for v in order.perm[a - 1 :])
                    projected = [tuple(m.exponents[v] for v in free) for m in colon.generators]
                    expected.append((sorted(projected), gens[j].degree - 1))
                terms = [(sorted(sub), shift) for sub, shift in dec.terms]
                assert terms == expected, (J, order, a)
                checked += len(expected)
                unit_terms += sum(sub == ((0,) * (a - 1),) for sub, _ in dec.terms)
                empty_terms += sum(sub == ((),) for sub, _ in dec.terms)
        assert checked > 500 and unit_terms > 300 and empty_terms > 150

    def test_reindex_precondition_enforced(self):
        # unordered stage-3 generators make a syzygy involve z
        I = ideal(3, (2, 2, 2), (0, 3, 1))
        order = VariableOrder.identity(3)
        with pytest.raises(ValueError):
            annihilator_decomposition(I, order, 3)

    def test_values_match_brute_force(self):
        J, order = self._staged_three_var_ideal()
        from hilbertfn.monomial import Monomial, contains_monomial, restrict

        for a in (2, 3):
            dec = annihilator_decomposition(J, order, a)
            values = annihilator_hf(dec, 10)
            I_a = restrict(J, order, a)
            x_a = a - 1  # identity order
            for b in range(11):
                count = 0
                for exps in compositions(b, a):
                    g = Monomial(exps)
                    if contains_monomial(I_a, g):
                        continue
                    shifted = list(exps)
                    shifted[x_a] += 1
                    if contains_monomial(I_a, Monomial(tuple(shifted))):
                        count += 1
                assert values[b] == count


class TestTable:
    def test_stanley_reisner_example(self):
        I = parse_ideal("x*xh, y*z*w", ["x", "xh", "y", "z", "w"])
        table = hf_table(I, b_max=7, a_max=5)
        assert table.rows[3] == (1, 4, 9, 16, 25, 36, 49, 64)
        assert table.rows[4] == (1, 5, 14, 29, 50, 77, 110, 149)

    def test_zero_ideal_gives_pascal_rows(self):
        table = hf_table(MonomialIdeal(5), b_max=6, a_max=5)
        for a in range(1, 6):
            assert list(table.rows[a - 1]) == [pascal_F(a, b) for b in range(7)]

    def test_row_two_nonidentity_ring_order(self):
        # ring listed (y, z, x): row 2 is k[y,z]/<y^2 z^2>
        I = parse_ideal("y^2*z^2, x^2*y*z^3, x^3*z", ["y", "z", "x"])
        table = hf_table(I, b_max=7, a_max=3)
        assert table.rows[1] == (1, 2, 3, 4, 4, 4, 4, 4)

    def test_unit_ideal_rows_are_zero(self):
        I = parse_ideal("1", XYZ)
        for a_max in (3, 6):
            table = hf_table(I, b_max=4, a_max=a_max)
            assert table.rows == ((0,) * 5,) * a_max

    def test_rows_beyond_arity_satisfy_pascal_recurrence(self):
        I = parse_ideal("x^2*y, x*z^2", XYZ)
        table = hf_table(I, b_max=8, a_max=6)
        for a in range(4, 7):
            row, prev = table.rows[a - 1], table.rows[a - 2]
            for b in range(1, 9):
                assert row[b] == prev[b] + row[b - 1]
        # up to the command line's row bound: prefix sums, zero annihilators
        I = parse_ideal("x^2*y, y*z^3, x*z", XYZ)
        table = hf_table(I, a_max=MAX_ROW, b_max=10)
        assert len(table.rows) == len(table.annihilator_hfs) == MAX_ROW
        assert table.rows[2] == tuple(hf(I, 10, method="oracle"))
        for a in range(4, MAX_ROW + 1):
            assert table.rows[a - 1] == tuple(accumulate(table.rows[a - 2])), a
            assert table.annihilator_hfs[a - 1] == (0,) * 11, a

    def test_rows_never_reenter_the_dispatcher(self, monkeypatch):
        # row 1 is read off the first reindexed generator; every row up to
        # the arity is checked against the oracle on the stage quotient
        def refuse(*args, **kwargs):
            raise AssertionError("hf_table called hf")

        monkeypatch.setattr(engine, "hf", refuse)
        rng = random.Random(1414)
        row_one_kinds = Counter()
        for k in range(240):
            arity = rng.randint(1, 5)
            order = VariableOrder(tuple(rng.sample(range(arity), arity)))
            a_max = rng.randint(1, arity + 2)
            b_max = rng.randint(0, 12)
            I = random_ideal(rng, arity, rng.randint(1, 8), max_exp=rng.choice((2, 4, 8)))
            x = order.perm[0]
            unit = Monomial((0,) * arity)

            def power(e):
                return Monomial(tuple(e if v == x else 0 for v in range(arity)))

            gens = I.generators
            unstaged = tuple(g for g in gens if any(g.exponents[v] for v in order.perm[1:]))
            gens = (
                gens,
                (unit,),
                gens + (unit,),
                (),  # the zero ideal
                unstaged,  # no stage-1 generator
                unstaged + (power(b_max + rng.randint(2, 4)),),  # x^m above b_max + 1
                gens + tuple(power(e) for e in rng.sample(range(1, 15), 3)),  # unsorted x^m
            )[k % 7]
            I = MonomialIdeal(arity, gens)
            table = hf_table(I, order=order, a_max=a_max, b_max=b_max)
            J = reindex_for_table(I, order)
            assert len(table.rows) == a_max
            for a in range(1, min(a_max, arity) + 1):
                expected = hf(restrict(J, order, a), b_max, method="oracle")
                assert list(table.rows[a - 1]) == expected, (I, order, a, b_max)
            m = sum(table.rows[0])
            row_one_kinds["unit" if m == 0 else "free" if m == b_max + 1 else "power"] += 1
        assert min(row_one_kinds.values()) > 30 and len(row_one_kinds) == 3, row_one_kinds


class TestDispatcher:
    def test_auto_examples(self):
        assert hf(parse_ideal("x^5", XYZ), 9) == [1, 3, 6, 10, 15, 20, 25, 30, 35, 40]
        assert hf(parse_ideal("x^2*y, x*z^2", XYZ), 6) == [1, 3, 6, 8, 9, 10, 11]
        assert hf(MonomialIdeal(1), 5) == [1] * 6

    def test_all_methods_agree_on_examples(self):
        cases = [
            "x^5",
            "x^2*y, x*z^2",
            "x^2, y^3",
            "x*z, y*z, x^2*y",
            "x^2*y^3*z, x*z^3, x*y^4*z, x^2*z^2",
            "x^2*y*z^3, x^3*z, y^2*z^2",
            # redundant generators: multiples and duplicates of minimal ones
            "x^2, x^3*y, y^3, x^2*y^3, y^3",
            "x*z, y*z, x^2*y, x^2*y*z, x*y*z^2, x^3*y^2",
        ]
        for text in cases:
            I = parse_ideal(text, XYZ)
            expected = hf(I, 12, method="oracle")
            for method in ("lcm", "syzygy", "table", "auto"):
                assert hf(I, 12, method=method) == expected, (text, method)

    def test_auto_matches_closed_forms(self):
        # ideals whose minimal generators of degree <= b number 0, 1 or 2,
        # padded with duplicates, redundant multiples and generators above b
        rng = random.Random(1992)
        found = {0: 0, 1: 0, 2: 0}
        padded = {"duplicate": 0, "multiple": 0, "above b": 0}
        while min(found.values()) < 25:
            arity = rng.randint(1, 6)
            b = rng.randint(0, 9)
            gens = [_of_degree(rng, arity, rng.randint(1, b + 1)) for _ in range(rng.randint(0, 2))]
            if gens and rng.random() < 0.5:
                gens.append(rng.choice(gens))
                padded["duplicate"] += 1
            if gens and rng.random() < 0.5:
                g = rng.choice(gens)
                gens.append(tuple(e + rng.randint(0, 2) for e in g))
                padded["multiple"] += 1
            for _ in range(rng.randint(0, 3)):
                gens.append(_of_degree(rng, arity, rng.randint(b + 1, b + 6)))
                padded["above b"] += 1
            rng.shuffle(gens)
            I = ideal(arity, *gens)
            survivors = [g for g in minimalize(I).generators if g.degree <= b]
            if len(survivors) > 2:
                continue
            found[len(survivors)] += 1
            if not survivors:
                expected = [pascal_F(arity, c) for c in range(b + 1)]
            elif len(survivors) == 1:
                expected = [hf_principal(arity, survivors[0].degree, c) for c in range(b + 1)]
            else:
                u, v = survivors
                d_lcm = lcm(u, v).degree
                expected = [
                    hf_two_generators(arity, u.degree, v.degree, d_lcm, c) for c in range(b + 1)
                ]
            assert hf(I, b) == expected, (I, b)
        assert min(padded.values()) > 10
        for arity in range(1, 7):
            unit = ideal(arity, (0,) * arity, (1,) + (0,) * (arity - 1))
            assert hf(unit, 6) == [0] * 7

    def test_auto_beyond_lattice_cap_falls_back(self):
        gens = [tuple(1 if i == j % 3 else j + 2 for i in range(3)) for j in range(6)]
        I = ideal(3, *gens)
        assert hf(I, 8, lattice_cap=4) == hf(I, 8, method="syzygy")

    def test_auto_and_table_never_use_the_lattice(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the lcm lattice was used")

        monkeypatch.setattr(engine, "hf_lcm_lattice", refuse)
        rng = random.Random(2018)
        sizes = []
        while len(sizes) < 40:
            arity = rng.randint(2, 4)
            if len(sizes) % 2:
                I = random_ideal(rng, arity, rng.randint(3, 24), max_exp=5)
            else:
                # an equal-degree antichain: every generator is minimal
                degree_d = list(compositions(rng.randint(3, 6), arity))
                n = rng.randint(3, min(20, len(degree_d)))
                I = ideal(arity, *rng.sample(degree_d, n))
            n = len(minimalize(I).generators)
            if not 3 <= n <= 20:
                continue
            b_max = 12 if arity < 4 else 8
            expected = hf(I, b_max, method="oracle")
            assert hf(I, b_max) == expected, I
            assert list(hf_table(I, b_max=b_max).rows[-1]) == expected, I
            sizes.append(n)
        assert max(sizes) == 20

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            hf(MonomialIdeal(2), 3, method="nope")


def _of_degree(rng: random.Random, arity: int, d: int) -> tuple[int, ...]:
    exps = [0] * arity
    for _ in range(d):
        exps[rng.randrange(arity)] += 1
    return tuple(exps)


def _random_order(rng: random.Random, arity: int) -> VariableOrder:
    perm = list(range(arity))
    while arity > 1 and perm == sorted(perm):
        rng.shuffle(perm)
    return VariableOrder(tuple(perm))


def _boundary_ideals(seed: int):
    """(ideal, b) pairs whose generators cluster at degrees b and b + 1,
    with some below and some far above."""
    rng = random.Random(seed)
    cases = []
    for _ in range(40):
        arity = rng.randint(2, 5)
        b = rng.randint(3, 8)
        degrees = [b] * rng.randint(1, 4) + [b + 1] * rng.randint(1, 4)
        degrees += [rng.randint(1, b - 1) for _ in range(rng.randint(0, 2))]
        degrees += [rng.randint(b + 2, 3 * b) for _ in range(rng.randint(0, 3))]
        rng.shuffle(degrees)
        cases.append((ideal(arity, *(_of_degree(rng, arity, d) for d in degrees)), b))
    return cases


def _many_generator_ideals(seed: int):
    """Shaped like the many-generators benchmark workload at b = 10."""
    rng = random.Random(seed)
    return [
        (random_ideal(rng, rng.randint(6, 8), rng.randint(60, 150), max_exp=6), 10)
        for _ in range(8)
    ]


class TestDegreeFilter:
    def test_upto_degree(self):
        I = ideal(2, (3, 1), (1, 1), (2, 3), (4, 0), (0, 5), (1, 1))
        assert [g.exponents for g in upto_degree(I, 4).generators] == [
            (3, 1), (1, 1), (4, 0), (1, 1)
        ]
        assert upto_degree(I, 5) == I
        assert upto_degree(I, 1).is_zero
        assert upto_degree(ideal(2, (0, 0), (1, 0)), 0) == ideal(2, (0, 0))
        rng = random.Random(31)
        for _ in range(100):
            J = random_ideal(rng, rng.randint(1, 5), rng.randint(1, 12), max_exp=4)
            b = rng.randint(0, 12)
            assert minimalize(upto_degree(J, b)) == upto_degree(minimalize(J), b)

    def test_filtered_routes_match_full_routes(self):
        cases = _boundary_ideals(7) + _many_generator_ideals(8)
        for I, b in cases:
            full = hf(I, b, method="syzygy")
            assert hf(I, b) == full, (I, b)
            assert list(hf_table(I, b_max=b).rows[-1]) == full, (I, b)
            if pascal_F(I.arity, b) <= 10_000:
                assert hf(I, b, method="oracle") == full, (I, b)
        # the boundary degrees decide some answers: a degree-b generator
        # lowers HF at b, and one of degree b + 1 is minimal there
        assert any(hf(I, b)[b] < hf(upto_degree(I, b - 1), b)[b] for I, b in cases)
        assert any(
            any(g.degree == b + 1 for g in minimalize(I).generators) for I, b in cases
        )

    def test_table_order_does_not_matter(self):
        rng = random.Random(9)
        for I, b in _boundary_ideals(10)[:20]:
            order = _random_order(rng, I.arity)
            rows = hf_table(I, order=order, b_max=b).rows
            assert list(rows[-1]) == hf(I, b, method="syzygy"), (I, order, b)

    def test_auto_reads_only_generators_that_reach_b(self, monkeypatch):
        real = engine.hf_syzygy
        seen = []

        def spy(I, b_max, stats=None):
            seen.append((I, b_max))
            return real(I, b_max, stats)

        monkeypatch.setattr(engine, "hf_syzygy", spy)
        for I, b in _boundary_ideals(11) + _many_generator_ideals(12):
            hf(I, b)
        degrees = [(max((g.degree for g in I.generators), default=0), b) for I, b in seen]
        assert len(degrees) == 48 and all(d <= b for d, b in degrees)
        assert any(d == b for d, b in degrees)
        # two generators reach b: the recursion sees exactly those
        seen.clear()
        I = parse_ideal("x^2, x*y^5*z^4, y^3, z^9, x^4*y^4*z^4", XYZ)
        assert hf(I, 6) == [1, 3, 5, 6, 6, 6, 6]
        assert seen == [(parse_ideal("x^2, y^3", XYZ), 6)]
        # nothing reaches b: the recursion sees the zero ideal, the free ring
        seen.clear()
        assert hf(parse_ideal("x^5*y, y^7", XYZ), 5) == [pascal_F(3, b) for b in range(6)]
        assert seen == [(MonomialIdeal(3), 5)]
        assert hf(I, 6) == hf(I, 6, method="syzygy")

    def test_table_decomposes_only_generators_that_reach_b(self, monkeypatch):
        real = engine.annihilator_decomposition
        seen = []

        def spy(I, order, a):
            dec = real(I, order, a)
            seen.append((max((g.degree for g in I.generators), default=0), dec))
            return dec

        monkeypatch.setattr(engine, "annihilator_decomposition", spy)
        for I, b in _boundary_ideals(13) + _many_generator_ideals(14):
            seen.clear()
            hf_table(I, b_max=b)
            assert all(d <= b + 1 for d, _ in seen), (I, b)
            assert all(shift <= b for _, dec in seen for _, shift in dec.terms), (I, b)


def _per_term_sum(dec, b_max: int) -> list[int]:
    """The annihilator's HF as one full-ideal evaluation per term."""
    values = []
    for b in range(b_max + 1):
        v = 0
        if dec.delta:
            if dec.free_arity:
                v += pascal_F(dec.free_arity, b - dec.delta_shift)
            else:
                v += int(b == dec.delta_shift)
        for sub, shift in dec.terms:
            if shift > b:
                continue
            if dec.free_arity:
                v += hf(ideal(dec.free_arity, *sub), b - shift, method="syzygy")[-1]
            else:
                v += int(b == shift and not sub)
        values.append(v)
    return values


class TestAnnihilatorNumerator:
    def test_matches_per_term_sum(self):
        rng = random.Random(2024)
        stages = termless = 0
        for _ in range(60):
            arity = rng.randint(2, 6)
            I = random_ideal(rng, arity, rng.randint(1, 10), max_exp=rng.choice((2, 3, 5)))
            order = _random_order(rng, arity)
            J = reindex_for_table(I, order)
            memo: dict = {}
            for a in range(1, arity + 1):
                dec = annihilator_decomposition(J, order, a)
                b = rng.randint(0, 12)
                expected = _per_term_sum(dec, b)
                assert annihilator_hf(dec, b) == expected, (I, order, a, b)
                assert annihilator_hf(dec, b, memo=memo) == expected, (I, order, a, b)
                stages += 1
                termless += not dec.delta and not dec.terms
        assert stages > 150 and termless > 10

    def test_terms_read_reachable_generators_over_one_memo(self, monkeypatch):
        real_coefficients = engine.syzygy_coefficients
        real_ann = engine.annihilator_hf
        roots = []
        memos = []

        def coefficients_spy(exponents, stats=None, memo=None):
            roots.append(exponents)
            return real_coefficients(exponents, stats, memo=memo)

        def ann_spy(dec, b_max, memo=None):
            memos.append(memo)
            del roots[:]
            values = real_ann(dec, b_max, memo=memo)
            assert len(roots) == len(dec.terms)
            for sub, (full, shift) in zip(roots, dec.terms):
                assert sub == [e for e in full if sum(e) <= b_max - shift]
            return values

        monkeypatch.setattr(engine, "syzygy_coefficients", coefficients_spy)
        monkeypatch.setattr(engine, "annihilator_hf", ann_spy)
        for I, b in _boundary_ideals(15) + _many_generator_ideals(16):
            del memos[:]
            hf_table(I, b_max=b)
            assert len(memos) == I.arity - 1
            assert all(m is memos[0] and isinstance(m, dict) for m in memos)

    def test_table_matches_pinned_values(self):
        # rows and annihilator HFs of the table method as computed by
        # per-term evaluation over every generator, for a_max below, at and
        # above the arity; each ideal has generators of degree b_max + 1
        three = parse_ideal("y^6, x^3*y^5, x^2*y^2*z^2, x^3*z, x^2*y*z^3", ["y", "x", "z"])
        rows3 = (
            (1, 1, 1, 1, 1, 1, 1, 1),
            (1, 2, 3, 4, 5, 6, 6, 6),
            (1, 3, 6, 10, 14, 18, 19, 20),
            (1, 4, 10, 20, 34, 52, 71, 91),
            (1, 5, 15, 35, 69, 121, 192, 283),
        )
        ann3 = ((0,) * 8, (0, 0, 0, 0, 0, 1, 1, 2), (0, 0, 0, 1, 2, 5, 5, 6))
        four = ideal(
            4, (2, 2, 1, 1), (1, 0, 2, 3), (0, 3, 1, 1), (3, 1, 2, 2), (0, 0, 2, 3), (2, 3, 0, 2)
        )
        rows4 = (
            (1, 1, 1, 1, 1, 1, 1),
            (1, 2, 3, 4, 5, 6, 7),
            (1, 3, 6, 10, 15, 21, 28),
            (1, 4, 10, 20, 35, 54, 75),
            (1, 5, 15, 35, 70, 124, 199),
            (1, 6, 21, 56, 126, 250, 449),
        )
        ann4 = ((0,) * 7, (0,) * 7, (0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 2, 7, 14))
        for I, order, b, rows, ann in (
            (three, (1, 0, 2), 7, rows3, ann3),
            (four, (3, 1, 0, 2), 6, rows4, ann4),
        ):
            for a_max in (I.arity - 1, I.arity, I.arity + 2):
                table = hf_table(I, order=VariableOrder(order), a_max=a_max, b_max=b)
                assert table.rows == rows[:a_max]
                # rows past the arity have a zero annihilator
                assert table.annihilator_hfs == (ann + ((0,) * (b + 1),) * 2)[:a_max]
