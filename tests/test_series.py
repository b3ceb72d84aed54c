import io
import random

import pytest
from conftest import random_ideal

from hilbertfn import cli, engine, series
from hilbertfn.engine import LATTICE_CAP_DEFAULT, hf
from hilbertfn.monomial import ideal, minimalize
from hilbertfn.parser import parse_ideal
from hilbertfn.pascal import pascal_F
from hilbertfn.series import expand_series, render_series, series_numerator

XYZ = ["x", "y", "z"]


def test_numerator_two_generators():
    num = series_numerator(parse_ideal("x^2, y^3", XYZ))
    assert num.coefficients == ((0, 1), (2, -1), (3, -1), (5, 1))


def test_numerator_cancels_equal_degrees():
    # <x^2, y^2>: pairwise lcm degree 4 appears once with + sign
    num = series_numerator(parse_ideal("x^2, y^2", ["x", "y"]))
    assert num.coefficients == ((0, 1), (2, -2), (4, 1))


def test_numerator_zero_ideal():
    from hilbertfn.monomial import MonomialIdeal

    num = series_numerator(MonomialIdeal(3))
    assert num.coefficients == ((0, 1),)
    assert expand_series(num, 4) == [1, 3, 6, 10, 15]


def test_numerator_unit_ideal_is_zero():
    num = series_numerator(parse_ideal("1", XYZ))
    assert num.is_zero
    assert expand_series(num, 3) == [0, 0, 0, 0]


def test_expansion_matches_hilbert_function():
    cases = [
        "x^5",
        "x*z, y*z, x^2*y",
        "x^2*y^3*z, x*z^3, x*y^4*z, x^2*z^2",
        # redundant generators: multiples and duplicates of minimal ones
        "x^2, x^3*y, y^3, x^2*y^3, y^3",
        "x*z, y*z, x^2*y, x^2*y*z, x*y*z^2, x^3*y^2",
    ]
    for text in cases:
        I = parse_ideal(text, XYZ)
        num = series_numerator(I)
        assert expand_series(num, 12) == hf(I, 12), text
        assert render_series(num) == render_series(series_numerator(minimalize(I))), text


def test_expansion_is_the_convolution_with_F():
    # reference: coefficient b of K(t) / (1 - t)^a is sum over d of c_d F(a, b - d)
    rng = random.Random(404)
    for _ in range(150):
        arity = rng.randint(1, 8)
        I = random_ideal(rng, arity, rng.randint(0, 9), max_exp=rng.choice((1, 3, 6)))
        num = series_numerator(I)
        b_max = rng.randint(0, 30)
        assert expand_series(num, b_max) == [
            sum(c * pascal_F(arity, b - d) for d, c in num.coefficients)
            for b in range(b_max + 1)
        ], (I, b_max)


def test_expansion_rejects_negative_coefficients():
    from hilbertfn.series import SeriesNumerator

    bad = SeriesNumerator(2, ((0, 1), (1, -3)))
    with pytest.raises(ValueError, match="negative coefficient -1 at degree 1"):
        expand_series(bad, 5)


def test_render():
    num = series_numerator(parse_ideal("x^2, y^3", XYZ))
    assert render_series(num) == "(1 - t^2 - t^3 + t^5)/(1 - t)^3"
    from hilbertfn.monomial import MonomialIdeal

    assert render_series(series_numerator(MonomialIdeal(2))) == "1/(1 - t)^2"
    assert render_series(series_numerator(parse_ideal("1", XYZ))) == "0"
    two = series_numerator(parse_ideal("x^2, y^2", ["x", "y"]))
    assert render_series(two) == "(1 - 2*t^2 + t^4)/(1 - t)^2"
    lin = series_numerator(parse_ideal("x", ["x", "y"]))
    assert render_series(lin) == "(1 - t)/(1 - t)^2"


def test_no_generator_cap():
    # m^6 in three variables: 28 minimal generators, more than the lcm
    # method's cap, which does not apply because no lattice is built
    m6 = ideal(3, *[(i, j, 6 - i - j) for i in range(7) for j in range(7 - i)])
    assert len(m6.generators) > LATTICE_CAP_DEFAULT
    assert expand_series(series_numerator(m6), 9) == hf(m6, 9, method="oracle")


def test_series_never_uses_the_subset_sum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the subset sum was used")

    monkeypatch.setattr(series, "lattice_numerator", refuse)
    monkeypatch.setattr(engine, "lattice_numerator", refuse)
    for text in (
        "x^2*y^3*z, x*z^3, x*y^4*z, x^2*z^2",
        "x^2, x^3*y, y^3, x^2*y^3, y^3",
        "x*y, y*z, x*z, x^2*y*z",
    ):
        I = parse_ideal(text, XYZ)
        expected = hf(I, 10, method="oracle")
        assert expand_series(series_numerator(I), 10) == expected, text
        out = io.StringIO()
        argv = ["series", "--ring", "x,y,z", "--ideal", text, "--expand-to", "10"]
        assert cli.run(argv, out=out) == 0, text
        assert out.getvalue().splitlines()[1] == " ".join(map(str, expected)), text
        # the lcm method still reaches the subset sum
        with pytest.raises(AssertionError, match="subset sum"):
            hf(I, 10, method="lcm")
