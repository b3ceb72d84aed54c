"""End-to-end acceptance checks, one test per shipped guarantee.

Every expected number here is exact integer arithmetic; most were derived by
independent brute-force enumeration (see conftest.compositions), the rest are
standard binomial identities.
"""

from __future__ import annotations

import io
import json
import random

from conftest import compositions, random_ideal

from hilbertfn import cli
from hilbertfn.engine import (
    adjacent_cancellations,
    annihilator_decomposition,
    annihilator_hf,
    build_lcm_lattice,
    hf,
    hf_lcm_lattice,
    hf_table,
)
from hilbertfn.monomial import (
    Monomial,
    MonomialIdeal,
    VariableOrder,
    contains_monomial,
    ideal,
    minimalize,
    reindex_for_table,
    restrict,
)
from hilbertfn.parser import parse_ideal
from hilbertfn.pascal import hf_two_generators, pascal_F, pascal_table
from hilbertfn.series import expand_series, series_numerator

XYZ = ["x", "y", "z"]
ALL_METHODS = ("oracle", "lcm", "syzygy", "table")


def test_criterion_01_pascal_table():
    table = pascal_table(8, 7)
    assert table[0] == [1, 1, 1, 1, 1, 1, 1, 1]
    assert table[1] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert table[2] == [1, 3, 6, 10, 15, 21, 28, 36]
    assert table[3] == [1, 4, 10, 20, 35, 56, 84, 120]
    assert table[4] == [1, 5, 15, 35, 70, 126, 210, 330]
    assert table[5] == [1, 6, 21, 56, 126, 252, 462, 792]
    assert table[6] == [1, 7, 28, 84, 210, 462, 924, 1716]
    assert table[7] == [1, 8, 36, 120, 330, 792, 1716, 3432]


def test_criterion_02_principal_x5():
    I = parse_ideal("x^5", XYZ)
    expected = [1, 3, 6, 10, 15, 20, 25, 30, 35, 40]
    for method in ALL_METHODS:
        assert hf(I, 9, method=method) == expected, method


def test_criterion_03_principal_xy2():
    I = parse_ideal("x*y^2", XYZ)
    expected = [1, 3, 6, 9, 12, 15, 18]
    for method in ALL_METHODS:
        assert hf(I, 6, method=method) == expected, method


def test_criterion_04_two_generators():
    I = parse_ideal("x^2*y, x*z^2", XYZ)
    expected = [1, 3, 6, 8, 9, 10, 11]
    closed = [hf_two_generators(3, 3, 3, 5, b) for b in range(7)]
    assert closed == expected
    for method in ALL_METHODS:
        assert hf(I, 6, method=method) == expected, method


def test_criterion_05_x2_y3():
    I = parse_ideal("x^2, y^3", XYZ)
    expected = [1, 3, 5, 6, 6, 6, 6, 6, 6, 6]
    for method in ALL_METHODS:
        assert hf(I, 9, method=method) == expected, method


def test_criterion_06_three_generators_and_cancellation():
    I = parse_ideal("x*z, y*z, x^2*y", XYZ)
    expected = [1, 3] + [4] * 10
    for method in ALL_METHODS:
        assert hf(I, 11, method=method) == expected, method
    _, pairs = adjacent_cancellations(build_lcm_lattice(I))
    assert sorted(deg for _, deg in pairs) == [3, 4]
    assert len(pairs) == 2
    assert hf_lcm_lattice(I, 11, cancel=True) == expected


def test_criterion_07_four_generators():
    I = parse_ideal("x^2*y^3*z, x*z^3, x*y^4*z, x^2*z^2", XYZ)
    expected = [1, 3, 6, 10, 13, 16, 17, 18, 20, 22, 24]
    for method in ALL_METHODS:
        assert hf(I, 10, method=method) == expected, method


def test_criterion_08_stanley_reisner_table():
    ring = ["x", "xh", "y", "z", "w"]
    I = parse_ideal("x*xh, y*z*w", ring)
    table = hf_table(I, b_max=7, a_max=5)
    assert table.rows[3] == (1, 4, 9, 16, 25, 36, 49, 64)
    assert table.rows[4] == (1, 5, 14, 29, 50, 77, 110, 149)
    # the final stage's annihilator is the row-4 module shifted by 2
    order = VariableOrder.identity(5)
    dec = annihilator_decomposition(reindex_for_table(I, order), order, 5)
    ((sub, shift),) = dec.terms
    assert shift == 2
    assert sub == ((1, 1, 0, 0),)
    values = annihilator_hf(dec, 7)
    assert values == [0, 0] + [table.rows[3][b] for b in range(6)]


def test_criterion_09_annihilator_decomposition():
    ring = ["y", "x", "z"]
    I = parse_ideal("y^6, x^3*y^5, x^2*y^2*z^2, x^3*z, x^2*y*z^3", ring)
    order = VariableOrder.identity(3)
    J = reindex_for_table(I, order)

    dec1 = annihilator_decomposition(J, order, 1)
    # y^6 has no generator before it: its colon ideal is the zero ideal
    assert dec1.terms == (((), 5),)

    dec2 = annihilator_decomposition(J, order, 2)
    ((sub, shift),) = dec2.terms
    assert shift == 7 and sub == ((1,),)
    # quotient by <y> in one variable is the field k, so the term is HF{k(-7)}
    assert annihilator_hf(dec2, 9) == [0] * 7 + [1, 0, 0]

    dec3 = annihilator_decomposition(J, order, 3)
    assert [(sorted(sub), shift) for sub, shift in dec3.terms] == [
        ([(5, 0)], 3),
        ([(0, 1), (4, 0)], 5),
        ([(0, 1), (1, 0)], 5),
    ]


def test_criterion_10_randomized_property_suite():
    rng = random.Random(57005)
    n_ideals = 500
    checked = 0
    for k in range(n_ideals):
        arity = rng.randint(1, 5)
        n_gens = rng.randint(1, 6)
        I = random_ideal(rng, arity, n_gens, max_exp=6)
        b_max = rng.randint(4, 15)
        reference = hf(I, b_max, method="oracle")
        for method in ("lcm", "syzygy", "table"):
            assert hf(I, b_max, method=method) == reference, (I, method)

        # dimensions of the degree-b pieces of I and R/I sum to that of R
        b = rng.randint(0, min(b_max, 8 if arity >= 4 else b_max))
        inside = sum(
            1 for e in compositions(b, arity) if contains_monomial(I, Monomial(e))
        )
        assert inside + reference[b] == pascal_F(arity, b)

        # invariance under generator order, variable relabelling, minimalization
        gens = list(I.generators)
        rng.shuffle(gens)
        assert hf(MonomialIdeal(arity, tuple(gens)), b_max) == reference
        perm = list(range(arity))
        rng.shuffle(perm)
        relabelled = MonomialIdeal(
            arity,
            tuple(Monomial(tuple(g.exponents[p] for p in perm)) for g in I.generators),
        )
        assert hf(relabelled, b_max) == reference
        assert hf(minimalize(I), b_max) == reference

        # series expansion reproduces the function
        assert expand_series(series_numerator(I), b_max) == reference

        # rows past the last stage grow by plain Pascal accumulation
        table = hf_table(I, b_max=b_max, a_max=arity + 2)
        assert table.rows[arity - 1] == tuple(reference)
        for a in (arity + 1, arity + 2):
            row, prev = table.rows[a - 1], table.rows[a - 2]
            assert row[0] == prev[0]
            for t in range(1, b_max + 1):
                assert row[t] == prev[t] + row[t - 1]

        # annihilator decomposition against a direct count at a random stage
        order = VariableOrder.identity(arity)
        J = reindex_for_table(I, order)
        a = rng.randint(1, arity)
        dec = annihilator_decomposition(J, order, a)
        b_ann = rng.randint(0, 8)
        I_a = restrict(J, order, a)
        direct = 0
        for e in compositions(b_ann, a):
            if contains_monomial(I_a, Monomial(e)):
                continue
            bumped = list(e)
            bumped[a - 1] += 1
            if contains_monomial(I_a, Monomial(tuple(bumped))):
                direct += 1
        assert annihilator_hf(dec, b_ann)[b_ann] == direct
        checked += 1
    assert checked == n_ideals


def test_criterion_11_degree_four_discrepancy_guard():
    # Direct enumeration of the 15 degree-4 monomials in three variables puts
    # exactly two of them (x^3*z and y^2*z^2) inside the ideal, so the value
    # is 13.  A published table for this example shows 12 at b=4, which the
    # enumeration contradicts; we pin the enumerated value.
    I = parse_ideal("x^2*y*z^3, x^3*z, y^2*z^2", XYZ)
    members = [
        e
        for e in compositions(4, 3)
        if contains_monomial(I, Monomial(e))
    ]
    assert sorted(members) == [(0, 2, 2), (3, 0, 1)]
    for method in ALL_METHODS:
        assert hf(I, 4, method=method)[4] == 13, method


def test_criterion_12_bench_determinism():
    def bench_json():
        out = io.StringIO()
        code = cli.run(
            ["bench", "--seed", "11", "--max-degree", "8", "--format", "json"],
            out=out,
        )
        assert code == 0
        return json.loads(out.getvalue())

    doc1, doc2 = bench_json(), bench_json()
    assert len(doc1["cases"]) == len(doc2["cases"]) == 20
    for e1, e2 in zip(doc1["cases"], doc2["cases"]):
        assert e1["ideal"] == e2["ideal"]
        for method in ("lcm", "syzygy", "table"):
            assert e1["methods"][method].get("values") == (
                e2["methods"][method].get("values")
            )
    # the seed-to-ideal mapping itself: these cases and values were recorded
    # from ``bench --seed 11 --max-degree 8``, and every method gives the values
    pinned = {
        0: (3, "x1^3*x2^6*x3^4, x1^6*x2^6*x3^3", "1 3 6 10 15 21 28 36 45"),
        9: (
            4,
            "x1^5*x2^6*x3^4*x4^4, x2^2*x3*x4, x1^5*x4^2, x1^3*x2^3*x3, "
            "x2*x3^2*x4^2, x1^4*x2^4*x3, x1^2*x2*x3^3*x4^2, x1^5*x2^5*x3^5*x4^4, "
            "x1^4*x2*x3^4, x2^3*x3^2*x4^5, x1^2*x4^4, x1^5*x3^3, "
            "x1^5*x2^2*x3^2*x4, x3^3*x4^4, x1^2*x2^5*x4^5, x1^5*x2^5*x3*x4^6",
            "1 4 10 20 34 51 70 87 99",
        ),
        19: (
            6,
            "x1^3*x3^3*x4^5*x5^4, x1^6*x2^4*x3^4*x4^2*x5^5*x6, "
            "x1^5*x2^4*x3^3*x5^3*x6^5, x1^3*x2^6*x3^4*x4^4*x5*x6^4, "
            "x1*x2^6*x3^5*x4^4*x5^5*x6, x1^4*x2*x3^6*x4^4*x5^4*x6^4, "
            "x1^6*x2*x3*x4^5*x5^5*x6^6, x1^2*x2*x3^2*x4^4*x5^2*x6, "
            "x1*x2^6*x3*x5*x6, x1*x2^5*x4^2*x5^3, "
            "x1^3*x2^6*x3^3*x4^4*x5^6*x6^5, x1*x2*x3^3*x4^5*x5^5*x6^6, "
            "x3*x4^4*x5^5*x6^2, x1^6*x2^2*x4^5*x5^4*x6^5, "
            "x1^6*x2^2*x3^4*x4^5*x5^6*x6, x1^6*x3^3",
            "1 6 21 56 126 252 462 792 1287",
        ),
    }
    for case, (arity, ideal_text, values) in pinned.items():
        entry = doc1["cases"][case]
        assert (entry["arity"], entry["ideal"]) == (arity, ideal_text), case
        assert entry["generators"] == ideal_text.count(",") + 1, case
        for method in ("lcm", "syzygy", "table"):
            assert entry["methods"][method]["values"] == values.split(), (case, method)
