import io
import random
from collections import Counter
from itertools import accumulate, chain
from math import comb
from operator import le

import pytest
from conftest import compositions, random_ideal

from hilbertfn import cli, engine, monomial, series
from hilbertfn.cli import MAX_ROW
from hilbertfn.engine import (
    AnnihilatorDecomposition,
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
from hilbertfn.series import (
    SeriesNumerator,
    colon_coefficients,
    expand_series,
    lattice_numerator,
    series_numerator,
)

XYZ = ["x", "y", "z"]


def stage_coefficients(arity, gens, memo):
    """K of the ideal of the exponent tuples ``gens`` through the stage
    entry, the one entry whose calls share ``memo``: a unit target's colon
    ideal is the ideal itself, read up to its largest degree."""
    b = max(map(sum, gens), default=0)
    coeffs = colon_coefficients([*gens, (0,) * arity], (0,), b, memo)
    return SeriesNumerator.from_degrees(arity, coeffs).coefficients


class CountingMemo(dict):
    """A memo that counts the recursion's lookups and the entries it adds."""

    def __init__(self):
        super().__init__()
        self.lookups = self.stores = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __setitem__(self, key, value):
        self.stores += 1
        super().__setitem__(key, value)


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

    @staticmethod
    def work(arity, b_max):
        # the cap counts F(a, b_max) prefixes and C(a - 2 + b_max, b_max + 1)
        # frames and bounds the larger count; the walk opens at most
        # C(a + b_max, b_max + 1) frames, at most three times that
        frames = comb(arity - 2 + b_max, b_max + 1) if arity > 2 else 0
        return max(pascal_F(arity, b_max), frames)

    def test_enumeration_cap(self):
        I = parse_ideal("x^2", XYZ)
        with pytest.raises(ResourceCapError):
            hf_oracle(I, 8, enum_cap=10)
        # the frames outnumber the prefixes only for a = 4 at b = 0, and
        # a = 5 or 6 at b <= 1
        assert [self.work(4, b) for b in range(3)] == [2, 4, 10]
        rng = random.Random(4)
        for _ in range(20):
            arity = rng.randint(1, 4)
            I = random_ideal(rng, arity, rng.randint(1, 4), max_exp=4)
            b_max = rng.randint(0, 8)
            work = self.work(arity, b_max)
            with pytest.raises(ResourceCapError):
                hf(I, b_max, method="oracle", enum_cap=work - 1)
            expected = hf(I, b_max, method="syzygy")
            values = hf(I, b_max, method="oracle", enum_cap=work)
            assert values == expected, I
            # hf_oracle is one degree of that walk, under the same cap at b
            assert hf_oracle(I, -1, enum_cap=0) == 0
            for b in range(b_max + 1):
                work_b = self.work(arity, b)
                with pytest.raises(ResourceCapError):
                    hf_oracle(I, b, enum_cap=work_b - 1)
                assert hf_oracle(I, b, enum_cap=work_b) == values[b], (I, b)

    def test_enumeration_cap_counts_frames_on_a_wide_ring(self):
        # at b = 3 in 40 variables the cap counts C(41, 4) = 101 270 frames
        # for F(40, 3) = 11 480 prefixes, though the walk opens one frame per
        # variable on (x39^2): a cap of the frame count runs, one less
        # refuses and names it
        I = ideal(40, (0,) * 39 + (2,))
        assert (pascal_F(40, 3), self.work(40, 3)) == (11_480, 101_270)
        values = hf(I, 3, method="oracle", enum_cap=101_270)
        assert values == hf(I, 3, method="syzygy")
        with pytest.raises(ResourceCapError, match="^enumeration of 101270 frames exceeds cap"):
            hf(I, 3, method="oracle", enum_cap=101_269)


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

    def test_zero_ideal_lattice_is_empty(self):
        # no generator, no nonempty subset: the cancelled sum over no
        # layers is K = 1, the free ring
        for a in range(1, 5):
            zero = MonomialIdeal(a)
            assert build_lcm_lattice(zero).layers == ()
            for b in range(6):
                assert hf_lcm_lattice(zero, b, cancel=True) == hf(zero, b, method="oracle")

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
            for r, layer in enumerate(build_lcm_lattice(I).layers, start=1):
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
        # (y^2, z^2, x*u, x*v, x*w): the S_j of x*w is (y^2, z^2), a node;
        # x*v's is (y^2, z^2, w) and x*u's (y^2, z^2, v, w), so each splits
        # its variables off, finds the node in the memo and stores its own
        # product.  S_2 = (z^2) is principal and closed, and stores nothing
        stats = {}
        I = parse_ideal("y^2, z^2, x*u, x*v, x*w", ["x", "y", "z", "u", "v", "w"])
        hf_syzygy(I, 10, stats=stats)
        assert stats == {"hits": 2, "misses": 4, "memo_size": 4, "nodes": 2}

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
        # only the stage entry takes a memo, and calls that pass the same one
        # share their sub-ideals; a unit target resolves the ideal itself,
        # as the ideal entry does on a fresh memo
        def shared_coefficients(J, memo):
            exponents = [g.exponents for g in J.generators]
            return stage_coefficients(J.arity, exponents, memo)

        I = parse_ideal("x^2*y^3*z, x*z^3, x*y^4*z, x^2*z^2, y^5, x^3*y", XYZ)
        memo = CountingMemo()
        first: dict = {}
        expected = series_numerator(I, first).coefficients
        assert shared_coefficients(I, memo) == expected
        size = len(memo)
        assert first["misses"] == memo.stores == size > 1
        # the root is in the memo: one lookup answers it, so no node opens
        # and nothing is added
        memo.lookups = memo.stores = 0
        assert shared_coefficients(I, memo) == expected
        assert (memo.lookups, memo.stores, len(memo)) == (1, 0, size)
        # a node already in the memo is not opened again: (z^2, y^2*z, y^4)
        # is the S_j of x^2*z^2 in I, packed at I's width 4
        sub = parse_ideal("z^2, y^2*z, y^4", XYZ)
        fresh: dict = {}
        series_numerator(sub, fresh)
        memo.lookups = memo.stores = 0
        assert shared_coefficients(sub, memo) == series_numerator(sub).coefficients
        assert (memo.lookups, memo.stores, fresh["nodes"]) == (1, 0, 1)
        # ideals packed at different widths can give nodes of equal ints:
        # y*w, x*u packs to 10, 17 on bits and x*y^2, x^2*y to 10, 17 at
        # width 3; y^2*z, x*y^2 packs to 17, 80 at width 3 and x*y, x^5 to
        # 17, 80 at width 4.  One memo must keep them apart.
        ring = ["x", "y", "z", "w", "u"]
        for texts in (("y*w, x*u", "x*y^2, x^2*y"), ("y^2*z, x*y^2", "x*y, x^5")):
            memo = {}
            for text in texts:
                J = parse_ideal(text, ring)
                expected = series_numerator(J).coefficients
                assert shared_coefficients(J, memo) == expected, text
            assert len(memo) == 2 and len({rest for _, _, rest in memo}) == 1, texts

    def test_recursion_work_is_pinned(self):
        # the nodes opened, the nodes and split products stored and the memo
        # hits the recursion takes on a fresh memo; the generator order
        # (lexicographic on exponent vectors) decides them
        I = parse_ideal("x^2*y^3*z, x*z^3, x*y^4*z, x^2*z^2, y^5, x^3*y", XYZ)
        stats: dict = {}
        hf_syzygy(I, 10, stats=stats)
        assert stats == {"hits": 0, "misses": 2, "memo_size": 2, "nodes": 2}
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
        assert stats == {"hits": 31, "misses": 166, "memo_size": 166, "nodes": 98}
        # the staircase x^12, x^11*y, ..., y^12: every S_j is (y), a
        # principal sub-ideal closed each time it is found, so only the
        # root is stored
        S = ideal(2, *[(12 - i, i) for i in range(13)])
        hf_syzygy(S, 20, stats=stats)
        assert stats == {"hits": 0, "misses": 1, "memo_size": 1, "nodes": 1}
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
        assert stats == {"hits": 1, "misses": 9, "memo_size": 9, "nodes": 6}
        for K in (S, A):
            assert series_numerator(K) == lattice_numerator(K)
        # the edge ideal of a seeded graph on 24 vertices with 51 edges: its
        # colon ideals are mostly variables, split off before their nodes open
        rng = random.Random(51)
        edges: set[tuple[int, ...]] = set()
        while len(edges) < 51:
            edges.add(tuple(sorted(rng.sample(range(24), 2))))
        E = ideal(24, *[tuple(int(v in e) for v in range(24)) for e in sorted(edges)])
        assert hf_syzygy(E, 4, stats=stats) == hf(E, 4, method="oracle")
        assert (stats["hits"], stats["misses"], stats["nodes"]) == (319, 546, 218)

    def test_variables_split_off_colon_ideals(self):
        # K(S) = (1 - t)^k K(S') for a colon ideal S with k variables among
        # its minimal generators; checked against the lattice and the oracle
        # where a variable's packed bit could be confused with another one
        def check(arity, gens, memo=None, b_max=6):
            I = ideal(arity, *gens)
            if memo is None:
                coeffs = series_numerator(I).coefficients
            else:
                coeffs = stage_coefficients(arity, gens, memo)
            assert coeffs == lattice_numerator(minimalize(I)).coefficients, gens
            values = expand_series(SeriesNumerator(arity, coeffs), b_max)
            assert values == hf(I, b_max, method="oracle"), gens

        # x-colon (w^D, z, y^e), e = 2^i: y^e is one packed bit above its
        # field's bottom, not a variable, at every width 3..8; the colon
        # step on the generators packed at the width of their largest
        # degree sets z aside and keeps w^D < y^e as the rest
        for width in range(3, 9):
            D = 2 ** (width - 2)
            for i in range(1, width - 1):
                gens = [(1, 0, 0, 0), (0, 2**i, 0, 0), (0, 0, 1, 0), (0, 0, 0, D)]
                packed, (W, guards, _, _, _) = series._pack(sorted(gens))
                w_D, z, y_e, _ = packed
                assert W == width and z == 1 << width
                colon = series._colon(packed, 3, guards, width - 1)
                assert colon == (z, (w_D, y_e))
                check(4, gens)
                check(4, [(1, 0, 0, 0), (0, 2**i, 0, 0), (0, 1, 1, 0), (0, 0, 0, D)])
        # every variable: each S_j holds only variables, and K = (1 - t)^k
        for k in range(1, 7):
            gens = [tuple(int(v == u) for v in range(k)) for u in range(k)]
            expected = tuple((i, (-1) ** i * comb(k, i)) for i in range(k + 1))
            assert series_numerator(ideal(k, *gens)).coefficients == expected
            check(k, gens)
        # a principal rest (w^3) beside the variable z, and beside z, y
        check(4, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 3)])
        check(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 3)])
        # unit quotients of repeated generators, beside variables
        check(3, [(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        check(3, [(0, 1, 0), (1, 1, 0), (1, 0, 0), (0, 0, 0), (0, 0, 1)])
        # squarefree ideals shaped like Stanley-Reisner ideals
        rng = random.Random(2301)
        for _ in range(30):
            arity = rng.randint(4, 10)
            gens = [
                tuple(int(v in support) for v in range(arity))
                for support in (
                    rng.sample(range(arity), rng.randint(1, 4)) for _ in range(rng.randint(2, 14))
                )
            ]
            check(arity, sorted(set(gens)), b_max=4)
        # raw roots are minimalized first and then split like any colon
        # ideal: x*y^3 goes before x, the variable, splits off (y^8) in the
        # first; random lists of variables, their multiples and duplicates
        check(2, [(1, 0), (0, 8), (1, 3)])
        shared: dict = {}
        for _ in range(200):
            arity = rng.randint(1, 5)
            raw = [
                tuple(int(v == u) for v in range(arity))
                for u in rng.sample(range(arity), rng.randint(1, arity))
            ]
            for _ in range(rng.randint(1, 4)):
                g = rng.choice(raw)
                raw.append(g if rng.random() < 0.3 else tuple(e + rng.randint(0, 2) for e in g))
                raw.append(tuple(rng.randint(0, 3) for _ in range(arity)))
            rng.shuffle(raw)
            check(arity, raw)
            check(arity, raw, memo=shared)

    def test_root_is_resolved_like_a_colon_ideal(self):
        # the root is minimalized and then takes the variable split, the
        # closed form and the memo as every colon ideal does: the stats pin
        # that a root whose rest is closed opens no node and stores nothing
        def check(arity, gens, hits, misses, nodes):
            stats: dict = {}
            I = ideal(arity, *gens)
            coeffs = series_numerator(I, stats).coefficients
            assert coeffs == lattice_numerator(minimalize(I)).coefficients
            expected = {"hits": hits, "misses": misses, "memo_size": misses, "nodes": nodes}
            assert stats == expected, gens

        # six variables: the rest is the zero ideal, K = (1 - t)^6
        check(6, [tuple(int(v == u) for v in range(6)) for u in range(6)], 0, 0, 0)
        # (x, y, z^2*w, z*w^2): one node for the rest, whose S_2 is principal,
        # and the product (1 - t)^2 K(rest)
        check(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 1), (0, 0, 1, 2)], 0, 2, 1)
        # (x, y^8, x*y^3): x*y^3 goes, then x splits off the principal (y^8)
        check(2, [(1, 0), (0, 8), (1, 3)], 0, 0, 0)
        # annihilator terms over one shared memo.  Each target is 1, so every
        # earlier generator is its own quotient.  The node (y^2, z^3) is
        # stored once; (x, y^2, z^3), at the same width 3, splits x off,
        # finds the node and stores only its product, which a repeat then
        # finds in one lookup; a term of variables alone is closed and
        # stores nothing
        memo = CountingMemo()
        J = ideal(3, (0, 2, 0), (0, 0, 3))
        node = AnnihilatorDecomposition(3, ((0, 2, 0), (0, 0, 3), (0, 0, 0)), (1,))
        assert node.terms == ((((0, 0, 3), (0, 2, 0)), 1),)
        assert annihilator_hf(node, 5, memo) == [0] + hf(J, 4, method="oracle")
        assert len(memo) == 1
        split = AnnihilatorDecomposition(3, ((1, 0, 0), (0, 2, 0), (0, 0, 3), (0, 0, 0)), (2,))
        expected = [0, 0] + hf(ideal(3, (1, 0, 0), (0, 2, 0), (0, 0, 3)), 3, method="oracle")
        for stores in (1, 0):
            memo.lookups = memo.stores = 0
            assert annihilator_hf(split, 5, memo) == expected
            assert (memo.stores, len(memo)) == (stores, 2)
        assert memo.lookups == 1
        units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        dec = AnnihilatorDecomposition(3, (*units, (0, 0, 0)), (2,))
        assert dec.terms == (((units[2], units[1], units[0]), 2),)
        memo.lookups = 0
        assert annihilator_hf(dec, 5, memo) == [0, 0, 1, 0, 0, 0]
        assert (memo.lookups, len(memo)) == (0, 2)

    def test_memo_holds_only_nodes_and_split_products(self):
        # one memo shared by the table stages and the whole ideals of seeded
        # random ideals, squarefree ones on bits among them: every key's rest
        # has at least 2 generators, since a closed form is never stored;
        # every split key's node is stored beside it; and every entry's K is
        # the lcm lattice's over the key's generators, unpacked
        def unpack(key):
            width, variables, rest = key
            arity = (max(variables, *rest).bit_length() - 1) // width + 1
            offsets = range((arity - 1) * width, -1, -width)
            gens = [tuple(int(s == u) for u in offsets) for s in offsets if variables >> s & 1]
            gens += [tuple((v >> s) & ((1 << width) - 1) for s in offsets) for v in rest]
            return ideal(arity, *gens)

        rng = random.Random(39)
        memo: dict = {}
        for _ in range(300):
            arity = rng.randint(3, 7)
            I = random_ideal(rng, arity, rng.randint(3, 12), max_exp=rng.choice((1, 1, 2, 4)))
            order = _random_order(rng, arity)
            b = rng.randint(2, 10)
            live = upto_degree(I, b)
            for a in range(2, arity + 1):
                annihilator_hf(annihilator_decomposition(live, order, a), b - 1, memo)
            stage_coefficients(arity, [g.exponents for g in I.generators], memo)
        kinds = Counter()
        for key, coeffs in memo.items():
            width, variables, rest = key
            assert len(rest) >= 2, key
            assert not variables or (width, 0, rest) in memo, key
            assert coeffs == lattice_numerator(unpack(key)).coefficients, key
            kinds[width == 1, variables > 0] += 1
        assert len(kinds) == 4 and min(kinds.values()) > 20, kinds

    def test_colon_step_sets_variables_aside(self):
        # the colon step returns (variables, rest): the variables' bits ORed,
        # then the other minimal quotients, ascending, none a multiple of a
        # variable; together they are the minimal quotients, checked here on
        # exponent tuples, apart from the packing
        rng = random.Random(25)

        def variable(arity, i):
            return tuple(int(v == i) for v in range(arity))

        def plus(*vectors):
            return tuple(map(sum, zip(*vectors)))

        def check(arity, earlier, g):
            packed, (width, guards, _, minimal, colon) = series._pack([*earlier, g])
            if max(chain(g, *earlier), default=0) < 2:
                assert (width, guards, colon) == (1, 0, series._bit_colon)
            else:
                assert width == max(map(sum, [*earlier, g])).bit_length() + 1
                assert colon is series._colon
            offsets = range((arity - 1) * width, -1, -width)
            ones, mask = sum(1 << s for s in offsets), (1 << width) - 1

            def unpack(v):
                return tuple((v >> s) & mask for s in offsets)

            assert list(map(unpack, packed)) == [*earlier, g]
            variables, rest = colon(packed, len(earlier), guards, width - 1)
            quotients = [tuple(max(a, b) - b for a, b in zip(h, g)) for h in earlier]
            expected = sorted(minimal_exponents(quotients))
            split = [variable(arity, i) for i, s in enumerate(offsets) if variables >> s & 1]
            got = sorted([*map(unpack, rest), *split])
            assert got == expected, (earlier, g)
            assert variables & ~ones == 0, (earlier, g)
            assert list(rest) == sorted(set(rest)), (earlier, g)
            if (0,) * arity in quotients:
                assert (variables, rest) == (0, (0,)), (earlier, g)
            else:
                for v in rest:
                    assert sum(unpack(v)) > 1 and not v & (variables * mask), (earlier, g)
            # with g = 1 the colon is the ideal itself, as the root's pass gives it
            if g == (0,) * arity:
                assert minimal(sorted(packed[:-1]), guards, width - 1) == (variables, rest)
            return width

        widths = Counter()
        for _ in range(600):
            arity = rng.randint(0, 7)
            g = tuple(rng.randint(0, 3) if rng.random() < 0.8 else 0 for _ in range(arity))
            if rng.random() < 0.2:
                g = (0,) * arity
            earlier = [
                tuple(rng.randint(0, 4) for _ in range(arity)) for _ in range(rng.randint(1, 6))
            ]
            for _ in range(rng.randint(0, 4) if arity else 0):
                x = variable(arity, rng.randrange(arity))
                kind = rng.randrange(4)
                if kind == 0:  # a variable quotient and x^2 beside it
                    earlier += [plus(g, x), plus(g, x, x)]
                elif kind == 1:  # a multiple of a variable quotient
                    earlier += [plus(g, x), plus(g, x, variable(arity, rng.randrange(arity)))]
                elif kind == 2:  # a divisor of g: the unit quotient
                    earlier.append(tuple(rng.randint(0, e) for e in g))
                else:  # a repeated quotient
                    earlier.append(rng.choice(earlier))
            rng.shuffle(earlier)
            widths[check(arity, earlier, g) == 1] += 1
        # both layouts are drawn: squarefree inputs take the bit layout
        assert widths[True] > 50 and widths[False] > 400
        # the unit wins over variables beside it
        check(3, [(1, 0, 0), (0, 0, 0), (0, 1, 0)], (0, 0, 0))
        check(3, [(2, 1, 0), (1, 2, 0), (1, 0, 0)], (1, 0, 0))
        # the cached row of (1 - t)^k is K of (x_1, ..., x_k), and K(S') = 1
        # gives the row itself
        for k in range(13):
            gens = [variable(k, i) for i in range(k)]
            expected = lattice_numerator(ideal(max(k, 1), *gens)).coefficients
            assert series._row(k) == expected == series._times_row(((0, 1),), k), k
        # a nontrivial K(S'): (y^2*z, y*z^3) beside the variables u, v, w
        rest = [(0, 0, 0, 2, 1), (0, 0, 0, 1, 3)]
        uvw = [variable(5, i) for i in range(3)]
        K = lattice_numerator(ideal(5, *rest)).coefficients
        expected = lattice_numerator(ideal(5, *rest, *uvw)).coefficients
        full = series_numerator(ideal(5, *rest, *uvw)).coefficients
        assert series._times_row(K, 3) == expected == full

    def test_bit_colon_step_matches_field_colon_step(self):
        # squarefree tuples take the bit layout; packed by hand in the field
        # layout instead, at the width of their largest degree (2 for zeros
        # alone, as a width of 1 leaves no room for a guard), they must
        # give the same minimal quotients and the same root pass, compared
        # as exponent tuples
        rng = random.Random(38)

        def unpacked(arity, width, variables, rest):
            offsets = range((arity - 1) * width, -1, -width)
            mask = (1 << width) - 1
            split = [tuple(int(s == u) for s in offsets) for u in offsets if variables >> u & 1]
            return split, [tuple((v >> s) & mask for s in offsets) for v in rest]

        cases = Counter()
        for _ in range(400):
            arity = rng.randint(1, 12)
            density = rng.random()
            tuples = [
                tuple(int(rng.random() < density) for _ in range(arity))
                for _ in range(rng.randint(1, 16))
            ]
            bits, (width, guards, _, minimal, colon) = series._pack(tuples)
            assert (width, guards, minimal, colon) == (1, 0, series._bit_minimal, series._bit_colon)
            W = max(2, max(map(sum, tuples)).bit_length() + 1)
            offsets = range((arity - 1) * W, -1, -W)
            fields = [sum(e << s for e, s in zip(t, offsets)) for t in tuples]
            field_guards = sum(1 << s for s in offsets) << (W - 1)
            for j in range(1, len(tuples)):
                got = unpacked(arity, 1, *series._bit_colon(bits, j))
                expected = unpacked(arity, W, *series._colon(fields, j, field_guards, W - 1))
                assert got == expected, (tuples, j)
                cases["unit" if got[1] == [(0,) * arity] else "split" if got[0] else "rest"] += 1
            got = unpacked(arity, 1, *series._bit_minimal(sorted(bits)))
            expected = unpacked(arity, W, *series._minimal(sorted(fields), field_guards, W - 1))
            assert got == expected, tuples
        assert min(cases.values()) > 100, cases

    def test_recursion_owns_its_minimalization(self, monkeypatch):
        # the recursion minimalizes packed ints; only the lcm route still
        # minimalizes exponent tuples, through minimalize
        class Refused(Exception):
            pass

        def refuse(vectors):
            raise Refused

        monkeypatch.setattr(monomial, "minimal_exponents", refuse)
        monkeypatch.setattr(series, "minimal_exponents", refuse, raising=False)
        text = "x^3*z, x^2*y*z^3, y^2*z^2, x^3*z^2, x^3*z, y"
        I = parse_ideal(text, XYZ)
        expected = hf(I, 8, method="oracle")
        for method in ("auto", "syzygy", "table"):
            assert hf(I, 8, method=method) == expected, method
        out = io.StringIO()
        argv = ["series", "--ring", "x,y,z", "--ideal", text, "--expand-to", "8"]
        assert cli.run(argv, out) == 0
        assert out.getvalue().split("\n")[1] == " ".join(map(str, expected))
        with pytest.raises(Refused):
            hf(I, 8, method="lcm")

    def test_ideal_entry_minimalizes_its_generators(self):
        # the numerator of an ideal is that of its minimal generators, with
        # the same stats; rings of no variables, which only the stage entry
        # reaches, hold the unit ideal
        rng = random.Random(31)
        for _ in range(40):
            I = random_ideal(rng, rng.randint(1, 6), rng.randint(0, 12), max_exp=4)
            exponents = minimal_exponents(g.exponents for g in I.generators)
            fresh: dict = {}
            tuples: dict = {}
            num = series_numerator(I, fresh)
            assert series_numerator(ideal(I.arity, *exponents), tuples) == num
            assert tuples == fresh
        assert stage_coefficients(0, [()], {}) == ()
        assert stage_coefficients(0, [], {}) == ((0, 1),)
        # raw tuples give the K of their minimal ones, the unit among them
        # included: the recursion minimalizes them itself, on a fresh memo
        # through the ideal entry and on a shared one through the stage entry
        shared: dict = {}
        for _ in range(400):
            arity = rng.randint(0, 7)
            raw = [
                tuple(rng.choice((0, 0, 1, 2, 3, MAX_EXPONENT)) for _ in range(arity))
                for _ in range(rng.randint(1, 6))
            ]
            for _ in range(rng.randint(0, 3)):
                g = rng.choice(raw)
                raw.append(g)  # a duplicate
                raw.append(tuple(min(e + rng.randint(0, 2), MAX_EXPONENT) for e in g))
            if rng.random() < 0.1:
                raw.append((0,) * arity)  # the unit
            rng.shuffle(raw)
            expected = stage_coefficients(arity, minimal_exponents(raw), {})
            if arity:
                assert series_numerator(ideal(arity, *raw)).coefficients == expected, raw
                minimal = ideal(arity, *minimal_exponents(raw))
                assert series_numerator(minimal).coefficients == expected, raw
            assert stage_coefficients(arity, raw, shared) == expected, raw
        assert stage_coefficients(0, [(), ()], {}) == ()
        assert series_numerator(ideal(2, (2, 1), (2, 1), (3, 1), (0, 0))).coefficients == ()

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

    def test_stage_one_zero_ideal_target(self):
        # y^6 has no generator before it: a target whose colon ideal is the
        # zero ideal, so its term is k shifted by 5
        J, order = self._staged_three_var_ideal()
        dec = annihilator_decomposition(J, order, 1)
        assert (dec.generators, dec.shifts) == (((),), (5,))
        assert dec.terms == (((), 5),)

    def test_stage_two_single_term(self):
        J, order = self._staged_three_var_ideal()
        dec = annihilator_decomposition(J, order, 2)
        ((sub, shift),) = dec.terms
        assert shift == 7
        assert list(sub) == [(1,)]

    def test_stage_three_terms(self):
        J, order = self._staged_three_var_ideal()
        dec = annihilator_decomposition(J, order, 3)
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
        assert (dec.generators, dec.shifts, dec.terms) == ((), (), ())

    def test_constructor_checks_generators_and_shifts(self):
        # a generator of another length than free_arity used to be cut short
        # by zip: (0, 0, 1) read as the unit, and the annihilator as zero
        with pytest.raises(ValueError, match="does not have free_arity 2"):
            AnnihilatorDecomposition(2, ((1, 0), (0, 0, 1)), (1,))
        with pytest.raises(ValueError, match="does not have free_arity 2"):
            AnnihilatorDecomposition(2, ((1,), (0, 1)), (1,))
        with pytest.raises(ValueError, match="3 shifts for 2 generators"):
            AnnihilatorDecomposition(2, ((1, 0), (0, 1)), (1, 2, 3))
        # every generator a target: the first one's colon is the zero ideal
        dec = AnnihilatorDecomposition(2, ((1, 0), (0, 1)), (1, 2))
        assert dec.terms == (((), 1), (((1, 0),), 2))
        # t * HF(k[x, y]) + t^2 * HF(k[x, y] / (x))
        assert annihilator_hf(dec, 4) == [0, 1, 3, 4, 5] == _per_term_sum(dec, 4)

    def test_order_arity_must_match(self):
        # a wider order used to index past the ideal's exponents, a narrower
        # one to drop its last variables from every term; the table refuses
        # either before it reads row 1
        for I, order, a in (
            (ideal(2, (1, 0), (0, 1)), VariableOrder.identity(3), 3),
            (ideal(3, (1, 0, 0), (0, 1, 1)), VariableOrder.identity(2), 2),
            (ideal(3, (0, 2, 0), (0, 1, 1)), VariableOrder.identity(4), 3),
        ):
            with pytest.raises(ArityMismatchError, match="order arity"):
                annihilator_decomposition(I, order, a)
            with pytest.raises(ArityMismatchError, match="order arity"):
                hf_table(I, order=order, a_max=1)

    def test_terms_are_projected_colon_ideals(self):
        # every term against the colon ideal (p_1, ..., p_{j-1}) : p_j built
        # from syzygy_quotient and minimalize, compared by exact exponents
        def stage_of(g, order):
            return max((s + 1 for s, v in enumerate(order.perm) if g.exponents[v]), default=0)

        rng = random.Random(4141)
        cases = []
        for k in range(150):
            arity = rng.randint(1, 6)
            order = VariableOrder(tuple(rng.sample(range(arity), arity)))
            I = random_ideal(rng, arity, rng.randint(1, 9), max_exp=rng.choice((2, 3, 5)))
            if k % 3 == 0:
                # repeated powers of the first variable: stage-1 terms in no variables
                first = order.perm[0]
                powers = [tuple(e if v == first else 0 for v in range(arity)) for e in (3, 2, 4)]
                I = MonomialIdeal(arity, I.generators + tuple(map(Monomial, powers)))
            cases.append((I, order))
        for I, _ in _packing_ideals(4142):
            cases.append((I, VariableOrder(tuple(rng.sample(range(I.arity), I.arity)))))
        checked = unit_terms = empty_terms = zero_terms = 0
        for I, order in cases:
            arity = I.arity
            J = reindex_for_table(I, order)
            gens = J.generators
            for a in range(1, arity + 1):
                dec = annihilator_decomposition(J, order, a)
                free = order.perm[: a - 1]
                staged = [j for j, g in enumerate(gens) if stage_of(g, order) == a]
                first_here = bool(staged) and staged[0] == 0
                assert dec.free_arity == a - 1
                expected = []
                for j in staged:
                    colon = minimalize(
                        MonomialIdeal(arity, [syzygy_quotient(p, gens[j]) for p in gens[:j]])
                    )
                    for m in colon.generators:
                        assert all(m.exponents[v] == 0 for v in order.perm[a - 1 :])
                    projected = [tuple(m.exponents[v] for v in free) for m in colon.generators]
                    expected.append((sorted(projected), gens[j].degree - 1))
                terms = [(sorted(sub), shift) for sub, shift in dec.terms]
                assert terms == expected, (J, order, a)
                if first_here:
                    # no generator comes before the first: its S is the zero ideal
                    assert dec.terms[0] == ((), gens[0].degree - 1), (J, order, a)
                    zero_terms += 1
                checked += len(expected)
                unit_terms += sum(sub == ((0,) * (a - 1),) for sub, _ in dec.terms)
                empty_terms += sum(sub == ((),) for sub, _ in dec.terms)
        assert checked > 500 and unit_terms > 300 and empty_terms > 150 and zero_terms > 100

    def test_generators_in_any_order(self):
        # <y, x>: y is stage 2 but comes first; M_2 = k[x,y]/(x, y) = k, all
        # of it killed by y, so the annihilator is k in degree 0
        order = VariableOrder.identity(2)
        dec = annihilator_decomposition(ideal(2, (0, 1), (1, 0)), order, 2)
        assert annihilator_hf(dec, 4) == [1, 0, 0, 0, 0]
        # stage-3 generators listed against ascending z: the decomposition
        # is that of the re-indexed list
        I = ideal(3, (2, 2, 2), (0, 3, 1))
        order = VariableOrder.identity(3)
        J = reindex_for_table(I, order)
        assert J.generators != I.generators
        assert annihilator_decomposition(I, order, 3) == annihilator_decomposition(J, order, 3)
        # earlier-stage generators in any order: y, x and x*y before z, whose
        # colon ideals do not depend on that order, give one decomposition
        I = ideal(3, (0, 1, 0), (0, 0, 2), (1, 1, 0), (1, 0, 0), (0, 1, 1))
        J = reindex_for_table(I, order)
        assert J.generators != I.generators
        for a in (1, 2, 3):
            assert annihilator_decomposition(I, order, a) == annihilator_decomposition(J, order, a)
        # stages run 1..arity
        for a in (0, 4):
            with pytest.raises(ValueError, match=f"stage {a} out of range"):
                annihilator_decomposition(I, order, a)

    def test_values_match_brute_force(self):
        # annihilator_hf against a count of the monomials m of M_a =
        # k[first a table variables]/I_a outside I_a with x_a * m in I_a: the
        # staged ideal, then random generator lists in their given order
        # (with the unit, duplicates and unsorted powers of the first
        # variable) under random orders
        def count(I, order, a, b_max):
            gens = [g.exponents for g in restrict(I, order, a).generators]

            def inside(e):
                return any(all(map(le, g, e)) for g in gens)

            values = [0] * (b_max + 1)
            for b in range(b_max + 1):
                for e in compositions(b, a):
                    values[b] += not inside(e) and inside(e[:-1] + (e[-1] + 1,))
            return values

        J, order = self._staged_three_var_ideal()
        cases = [(J, order, 10)]
        rng = random.Random(11)
        for k in range(240):
            arity = rng.randint(1, 4)
            order = VariableOrder(tuple(rng.sample(range(arity), arity)))
            I = random_ideal(rng, arity, rng.randint(1, 6), max_exp=rng.choice((2, 3, 4)))
            gens = list(I.generators)
            x = order.perm[0]
            gens += (
                [],
                [Monomial((0,) * arity)],
                rng.sample(gens, min(2, len(gens))),
                [Monomial(tuple(e if v == x else 0 for v in range(arity))) for e in (4, 2, 3)],
            )[k % 4]
            rng.shuffle(gens)
            cases.append((MonomialIdeal(arity, gens), order, 6))
        unordered = 0
        for I, order, b_max in cases:
            unordered += I != reindex_for_table(I, order)
            for a in range(1, I.arity + 1):
                dec = annihilator_decomposition(I, order, a)
                assert annihilator_hf(dec, b_max) == count(I, order, a, b_max), (I, order, a)
        assert unordered > 150


class TestTable:
    def test_stanley_reisner_example(self, monkeypatch):
        I = parse_ideal("x*xh, y*z*w", ["x", "xh", "y", "z", "w"])
        table = hf_table(I, b_max=7, a_max=5)
        assert table.rows[3] == (1, 4, 9, 16, 25, 36, 49, 64)
        assert table.rows[4] == (1, 5, 14, 29, 50, 77, 110, 149)
        # stages 3 and 4 of (y*z, x*y*w, w^2, u) are squarefree and pack one
        # bit per variable; stage 5 holds w^2 and packs in fields of 3 bits.
        # All three share the table's memo, whose keys lead with the width:
        # stage 4's target w^2 opens the node (y*z, x*y) on bits, and stage
        # 5's target u the node (y*z, x*y*w, w^2) in fields
        memos = []
        real = engine.colon_coefficients

        def spy(exponents, shifts, b_max, memo):
            memos.append(memo)
            return real(exponents, shifts, b_max, memo)

        monkeypatch.setattr(engine, "colon_coefficients", spy)
        J = parse_ideal("y*z, x*y*w, w^2, u", ["x", "y", "z", "w", "u"])
        table = hf_table(J, b_max=8)
        identity = VariableOrder.identity(5)
        for a in range(1, 6):
            assert list(table.rows[a - 1]) == hf(restrict(J, identity, a), 8, method="oracle")
        assert len(memos) == 3 and all(m is memos[0] for m in memos)
        assert {key[0] for key in memos[0]} == {1, 3}

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
        # up to the command line's row bound: prefix sums
        I = parse_ideal("x^2*y, y*z^3, x*z", XYZ)
        table = hf_table(I, a_max=MAX_ROW, b_max=10)
        assert len(table.rows) == MAX_ROW
        assert table.rows[2] == tuple(hf(I, 10, method="oracle"))
        for a in range(4, MAX_ROW + 1):
            assert table.rows[a - 1] == tuple(accumulate(table.rows[a - 2])), a

    def test_only_entered_stages_are_decomposed(self, monkeypatch):
        # on a 3 000-variable ring the generators enter stages 1, 1 501 and
        # 3 000: the other stages add a nonzerodivisor and are never
        # decomposed
        real = engine.annihilator_decomposition
        stages = []

        def spy(I, order, a):
            stages.append(a)
            return real(I, order, a)

        monkeypatch.setattr(engine, "annihilator_decomposition", spy)
        ring = [f"x{i}" for i in range(3000)]
        I = parse_ideal("x0^2, x1*x2999, x1500^3", ring)
        table = hf_table(I, b_max=3)
        assert stages == [1501, 3000]
        assert list(table.rows[-1]) == hf(I, 3)

    def test_generator_past_max_degree_enters_no_stage(self, monkeypatch):
        # y^4 has degree b_max + 1: row 2 subtracts the annihilator only up
        # to degree b_max - 1, which y^4 cannot reach, so stage 2 is never
        # decomposed
        real = engine.annihilator_decomposition
        stages = []

        def spy(I, order, a):
            stages.append(a)
            return real(I, order, a)

        monkeypatch.setattr(engine, "annihilator_decomposition", spy)
        table = hf_table(parse_ideal("x^2, y^4", ["x", "y"]), b_max=3)
        assert stages == []
        assert table.rows == ((1, 1, 0, 0), (1, 2, 2, 2))

    def test_annihilator_read_up_to_max_degree_less_one(self, monkeypatch):
        # row a at degree b subtracts the annihilator at degree b - 1, so
        # every stage is evaluated for the b_max values row[1:] reads
        real = engine.annihilator_hf
        asked = []

        def spy(dec, b_max, memo=None):
            asked.append(b_max)
            return real(dec, b_max, memo=memo)

        monkeypatch.setattr(engine, "annihilator_hf", spy)
        rng = random.Random(36)
        calls = 0
        for _ in range(100):
            arity, b = rng.randint(2, 5), rng.randint(0, 12)
            I = random_ideal(rng, arity, rng.randint(1, 8), max_exp=rng.choice((1, 2, 3)))
            del asked[:]
            table = hf_table(I, order=_random_order(rng, arity), b_max=b)
            assert asked == [b - 1] * len(asked), (I, b)
            assert list(table.rows[-1]) == hf(I, b), (I, b)
            calls += len(asked)
        assert calls > 100

    def test_sparse_ideal_leaves_interior_stages_empty(self):
        # a permuted order over 12 variables in which most interior stages
        # enter no generator: every row is the stage quotient's, and rows
        # past the arity are prefix sums
        ring = [f"x{i}" for i in range(12)]
        I = parse_ideal("x4^2*x9, x9^3, x2*x7*x11^2, x7^2*x0, x5*x6", ring)
        order = VariableOrder((9, 3, 4, 10, 1, 7, 8, 2, 0, 11, 6, 5))
        entered = {monomial.stage(g, order) for g in I.generators}
        assert entered == {1, 3, 9, 10, 12}
        table = hf_table(I, order=order, a_max=14, b_max=6)
        for a in range(1, 13):
            expected = hf(restrict(I, order, a), 6, method="oracle")
            assert list(table.rows[a - 1]) == expected, a
        for a in (13, 14):
            assert table.rows[a - 1] == tuple(accumulate(table.rows[a - 2])), a

    def test_rows_never_reenter_the_dispatcher(self, monkeypatch):
        # row 1 is read off the least power of the first variable; every row
        # up to the arity is checked against the oracle on the stage
        # quotient, and the generators in shuffled order give the table of
        # their re-indexed list
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
            gens = list(gens)
            random.Random(k).shuffle(gens)  # apart from rng, which sets the case mix
            I = MonomialIdeal(arity, gens)
            table = hf_table(I, order=order, a_max=a_max, b_max=b_max)
            J = reindex_for_table(I, order)
            assert table == hf_table(J, order=order, a_max=a_max, b_max=b_max)
            assert len(table.rows) == a_max
            for a in range(1, min(a_max, arity) + 1):
                expected = hf(restrict(J, order, a), b_max, method="oracle")
                assert list(table.rows[a - 1]) == expected, (I, order, a, b_max)
            m = sum(table.rows[0])
            kind = "unit" if m == 0 else "free" if m == b_max + 1 else "power"
            # a unit generator makes row 1 zero, and with no power of x of
            # degree at most b_max + 1 row 1 is free; the random generators
            # and the sampled powers of the other shapes can give any kind
            shape_kind = {1: "unit", 2: "unit", 3: "free", 4: "free", 5: "free"}.get(k % 7, kind)
            assert kind == shape_kind, (I, order, b_max)
            row_one_kinds[kind] += 1
        assert len(row_one_kinds) == 3, row_one_kinds

    def test_row_one_closed_form_is_the_uniform_rule(self):
        # hf_table reads row 1 off the least power of x; the uniform rule it
        # runs for later stages, applied to stage 1 from row 0 (k, or 0 with
        # the unit), must give the same row
        rng = random.Random(1010)
        shapes = Counter()
        for k in range(300):
            arity = rng.randint(1, 5)
            order = VariableOrder(tuple(rng.sample(range(arity), arity)))
            b_max = rng.randint(0, 12)
            I = random_ideal(rng, arity, rng.randint(1, 8), max_exp=rng.choice((2, 4, 8)))
            x = order.perm[0]
            others = [g for g in I.generators if any(g.exponents[v] for v in order.perm[1:])]
            powers = [
                Monomial(tuple(e if v == x else 0 for v in range(arity)))
                for e in rng.sample(range(1, b_max + 4), rng.randint(2, 3))
            ]
            unit = Monomial((0,) * arity)
            gens = (others, others + powers, others + powers + [unit], [*others, unit])[k % 4]
            rng.shuffle(gens)
            I = MonomialIdeal(arity, tuple(gens))
            live = upto_degree(I, b_max + 1)
            dec = annihilator_decomposition(live, order, 1)
            ann = annihilator_hf(dec, b_max)
            row = [0 if unit in gens else 1]
            for b in range(1, b_max + 1):
                row.append(row[b - 1] - ann[b - 1])
            assert tuple(row) == hf_table(I, order=order, b_max=b_max).rows[0], (I, order)
            shapes[k % 4, len(dec.shifts) > 1] += 1
        # no power of x, repeated powers of x, and the unit with and without them
        assert shapes[0, False] == shapes[3, False] == 75
        assert shapes[1, True] > 40 and shapes[2, True] > 40, shapes


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
        I = ideal(2, (1, 1))
        with pytest.raises(ValueError, match="b_max must be >= 0"):
            hf(I, -1)
        for a_max, b_max in ((0, 3), (2, -1)):
            with pytest.raises(ValueError, match="need a_max >= 1 and b_max >= 0"):
                hf_table(I, a_max=a_max, b_max=b_max)


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


def _packing_ideals(seed: int):
    """(ideal, b) pairs aimed at the packed layout of the colon step and the
    recursion, whose field width W steps up where the largest degree
    reaches 8, 16 and 64: generators of degree on either side of each step,
    exponents well above 5, and antichains of 20 to 45 generators in 3 to 6
    variables shaped like the many-generators benchmark workload."""
    rng = random.Random(seed)
    cases = []
    for d in (7, 8, 15, 16, 63, 64):
        arity = rng.randint(2, 5)
        # x_v^(d+1) for every variable, and the product of all variables,
        # which is at the last stage in every table order: its colon ideal
        # holds x_v^d for every variable but the last, at shift arity - 1
        gens = [tuple((d + 1) * (v == u) for v in range(arity)) for u in range(arity)]
        gens += [(1,) * arity]
        gens += [_of_degree(rng, arity, e) for e in (d, d - 1, rng.randint(1, d - 1))]
        cases.append((ideal(arity, *gens), d + arity))
    for max_exp in (9, 17, 40):
        for _ in range(3):
            arity = rng.randint(2, 5)
            cases.append((random_ideal(rng, arity, rng.randint(3, 8), max_exp), rng.randint(8, 20)))
    for arity, n in ((3, 22), (3, 30), (4, 24), (4, 45), (5, 30), (6, 20)):
        d = max(3, next(k for k in range(1, 40) if comb(arity + k - 1, k) >= 2 * n))
        pool: set = set()
        while len(pool) < n:
            pool.add(_of_degree(rng, arity, d))
        gens = sorted(pool)
        rng.shuffle(gens)
        cases.append((ideal(arity, *gens), d + rng.randint(1, 3)))
    return cases


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
        random_cases = (
            (random_ideal(rng, arity, rng.randint(1, 10), max_exp=rng.choice((2, 3, 5))), 0, 12)
            for arity in (rng.randint(2, 6) for _ in range(60))
        )
        # at its bound, a packing ideal's widest colon generators are read
        packing_cases = ((I, b, b) for I, b in _packing_ideals(2025))
        stages = termless = 0
        for I, b_min, b_max in chain(random_cases, packing_cases):
            arity = I.arity
            order = _random_order(rng, arity)
            J = reindex_for_table(I, order)
            memo: dict = {}
            for a in range(1, arity + 1):
                dec = annihilator_decomposition(J, order, a)
                b = rng.randint(b_min, b_max)
                expected = _per_term_sum(dec, b)
                assert annihilator_hf(dec, b) == expected, (I, order, a, b)
                assert annihilator_hf(dec, b, memo=memo) == expected, (I, order, a, b)
                stages += 1
                termless += not dec.terms
        assert stages > 150 and termless > 10

    def test_terms_read_reachable_generators_over_one_memo(self, monkeypatch):
        # the stage entry resolves each target's packed colon on its
        # generators of degree <= b_max - shift alone, over one memo per
        # table: unpacked, those are the reachable tuples of the term
        real_stage = engine.colon_coefficients
        real_resolve = series._resolve
        resolved = []
        memos = []
        dropped = Counter()

        def resolve_spy(variables, rest, layout, memo, stats=None):
            resolved.append((variables, rest, layout, memo))
            return real_resolve(variables, rest, layout, memo, stats)

        def stage_spy(exponents, shifts, b_max, memo):
            memos.append(memo)
            del resolved[:]
            coeffs = real_stage(exponents, shifts, b_max, memo)
            arity = len(exponents[0]) if exponents else 0
            dec = AnnihilatorDecomposition(arity, exponents, shifts)
            assert len(resolved) == len(shifts)
            for (variables, rest, layout, sub_memo), (full, shift) in zip(resolved, dec.terms):
                assert sub_memo is memo
                width = layout[0]
                mask = (1 << width) - 1
                offsets = range((arity - 1) * width, -1, -width)
                got = [tuple([(v >> s) & mask for s in offsets]) for v in rest]
                split = [u for u in offsets if variables >> u & 1]
                got += [tuple([int(s == u) for s in offsets]) for u in split]
                assert all(sum(e) <= b_max - shift for e in got)
                assert sorted(got) == [e for e in full if sum(e) <= b_max - shift]
                dropped["generators"] += len(full) - len(got)
                dropped["variables"] += b_max - shift < 1 and any(sum(e) == 1 for e in full)
            return coeffs

        monkeypatch.setattr(series, "_resolve", resolve_spy)
        monkeypatch.setattr(engine, "colon_coefficients", stage_spy)
        for I, b in _boundary_ideals(15) + _many_generator_ideals(16):
            del memos[:]
            hf_table(I, b_max=b)
            # one stage entry per stage >= 2 that a generator of degree
            # <= b enters
            identity = VariableOrder.identity(I.arity)
            entered = {monomial.stage(g, identity) for g in upto_degree(I, b).generators}
            assert len(memos) == len(entered - {0, 1})
            assert all(m is memos[0] and isinstance(m, dict) for m in memos)
        assert dropped["generators"] > 100 and dropped["variables"] > 10

    def test_table_matches_pinned_values(self):
        # rows of the table method and annihilator HFs of its stages as
        # computed by per-term evaluation over every generator, for a_max
        # below, at and above the arity; each ideal has generators of
        # degree b_max + 1, which the table drops and the annihilator HFs,
        # taken here over every generator up to degree b_max, still read
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
            for a in range(1, I.arity + 1):
                dec = annihilator_decomposition(I, VariableOrder(order), a)
                assert tuple(annihilator_hf(dec, b)) == ann[a - 1], a
