import random

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
    syzygy_numerator,
)
from hilbertfn.errors import ResourceCapError
from hilbertfn.monomial import (
    Monomial,
    MonomialIdeal,
    VariableOrder,
    ideal,
    minimalize,
    reindex_for_table,
)
from hilbertfn.parser import parse_ideal
from hilbertfn.pascal import pascal_F
from hilbertfn.series import series_numerator, subset_numerator

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
            assert hf(I, b_max, method="oracle", enum_cap=work) == expected, I


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
        # the recursion and the subset-lcm sum are independent routes to K(t)
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
        for I in ideals:
            assert syzygy_numerator(I) == subset_numerator(minimalize(I)), I
            assert series_numerator(I) == syzygy_numerator(I), I

    def test_memo_does_not_depend_on_degree(self):
        I = parse_ideal("x^2*y^3*z, x*z^3, x*y^4*z, x^2*z^2, y^5, x^3*y", XYZ)
        low: dict = {}
        high: dict = {}
        hf_syzygy(I, 5, stats=low)
        hf_syzygy(I, 40, stats=high)
        assert low["misses"] == high["misses"] > 1
        assert low == high

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
        assert [g.exponents for g in sub.generators] == [(1,)]

    def test_stage_three_terms(self):
        J, order = self._staged_three_var_ideal()
        dec = annihilator_decomposition(J, order, 3)
        assert dec.delta == 0
        shifts = [shift for _, shift in dec.terms]
        assert shifts == [3, 5, 5]
        gens = [sorted(g.exponents for g in sub.generators) for sub, _ in dec.terms]
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
        table = hf_table(I, b_max=4, a_max=3)
        assert all(all(v == 0 for v in row) for row in table.rows)

    def test_rows_beyond_arity_satisfy_pascal_recurrence(self):
        I = parse_ideal("x^2*y, x*z^2", XYZ)
        table = hf_table(I, b_max=8, a_max=6)
        for a in range(4, 7):
            row, prev = table.rows[a - 1], table.rows[a - 2]
            for b in range(1, 9):
                assert row[b] == prev[b] + row[b - 1]


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
