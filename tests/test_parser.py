import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbertfn.monomial import Monomial, MonomialIdeal, ideal
from hilbertfn.parser import (
    ParseError,
    parse_complex,
    parse_ideal,
    parse_ring,
    render,
    render_ideal,
    render_monomial,
)

XYZ = ["x", "y", "z"]


class TestRing:
    def test_basic(self):
        assert parse_ring("x, y, z") == ["x", "y", "z"]
        assert parse_ring("x_1,x_2,x'") == ["x_1", "x_2", "x'"]

    def test_duplicate(self):
        with pytest.raises(ParseError) as e:
            parse_ring("x, y, x")
        assert e.value.kind == "duplicate-variable"
        assert (e.value.span.start, e.value.span.end) == (6, 7)

    def test_bad_name(self):
        with pytest.raises(ParseError) as e:
            parse_ring("x, 2y")
        assert e.value.kind == "syntax"

    def test_empty_name(self):
        with pytest.raises(ParseError) as e:
            parse_ring("x,, y")
        assert e.value.kind == "syntax"


class TestIdeal:
    def test_basic(self):
        assert parse_ideal("x^2*y*z^3, x^3*z, y^2*z^2", XYZ) == ideal(
            3, (2, 1, 3), (3, 0, 1), (0, 2, 2)
        )

    def test_bare_variable(self):
        assert parse_ideal("y", XYZ) == ideal(3, (0, 1, 0))

    def test_repeated_variable_multiplies(self):
        assert parse_ideal("x*y^2*x^3", XYZ) == ideal(3, (4, 2, 0))

    def test_zero_and_unit(self):
        assert parse_ideal("0", XYZ) == MonomialIdeal(3)
        assert parse_ideal("1", XYZ) == ideal(3, (0, 0, 0))
        assert parse_ideal("1", XYZ).is_unit

    def test_whitespace_tolerated(self):
        assert parse_ideal("  x ^ 2 * y , z ", XYZ) == ideal(3, (2, 1, 0), (0, 0, 1))

    def test_unknown_variable_span(self):
        with pytest.raises(ParseError) as e:
            parse_ideal("x^2, w*y", XYZ)
        assert e.value.kind == "unknown-variable"
        assert (e.value.span.start, e.value.span.end) == (5, 6)

    def test_bad_exponent(self):
        with pytest.raises(ParseError) as e:
            parse_ideal("x^0, y", XYZ)
        assert e.value.kind == "bad-exponent"
        with pytest.raises(ParseError) as e:
            parse_ideal("x^-2", XYZ)
        assert e.value.kind == "bad-exponent"
        with pytest.raises(ParseError) as e:
            parse_ideal("x^two", XYZ)
        assert e.value.kind == "bad-exponent"
        with pytest.raises(ParseError) as e:
            parse_ideal("x^2^3", XYZ)
        assert e.value.kind == "bad-exponent"
        # past MAX_EXPONENT, alone or summed over repeated factors
        with pytest.raises(ParseError) as e:
            parse_ideal("y, x^1000001", XYZ)
        assert e.value.kind == "bad-exponent"
        assert (e.value.span.start, e.value.span.end) == (3, 12)
        with pytest.raises(ParseError) as e:
            parse_ideal("x^600000*x^600000", XYZ)
        assert e.value.kind == "bad-exponent"
        assert (e.value.span.start, e.value.span.end) == (9, 17)
        # ASCII digits only, and no int() of a string past the bound's length
        for text, span in (
            ("x^\u00b2", (1, 3)),  # superscript two
            ("y*x^\u0663", (3, 5)),  # Arabic-Indic three
            ("x^" + "9" * 5000, (0, 5002)),
        ):
            with pytest.raises(ParseError) as e:
                parse_ideal(text, XYZ)
            assert e.value.kind == "bad-exponent", text[:10]
            assert (e.value.span.start, e.value.span.end) == span, text[:10]
        # leading zeros do not count towards the bound
        assert parse_ideal("x^" + "0" * 5000 + "7", XYZ) == parse_ideal("x^7", XYZ)

    def test_empty_generator(self):
        with pytest.raises(ParseError) as e:
            parse_ideal("x^2,, y", XYZ)
        assert e.value.kind == "empty-generator"

    def test_syntax_errors(self):
        for text in ("x y", "x*", "*x", "x+y"):
            with pytest.raises(ParseError) as e:
                parse_ideal(text, XYZ)
            assert e.value.kind == "syntax", text


class TestComplex:
    def test_basic(self):
        c = parse_complex("x, y; y, z", XYZ)
        assert c.vertices == ("x", "y", "z")
        assert c.facets == (("x", "y"), ("y", "z"))

    def test_unknown_vertex(self):
        with pytest.raises(ParseError) as e:
            parse_complex("x, q", XYZ)
        assert e.value.kind == "unknown-variable"

    def test_empty_facet(self):
        with pytest.raises(ParseError):
            parse_complex("x, y;; z", XYZ)


class TestRender:
    def test_monomial(self):
        assert render_monomial(Monomial((2, 1, 3)), XYZ) == "x^2*y*z^3"
        assert render_monomial(Monomial((0, 0, 0)), XYZ) == "1"
        assert render_monomial(Monomial((0, 1, 0)), XYZ) == "y"

    def test_ideal(self):
        assert render_ideal(ideal(3, (2, 0, 0), (0, 3, 0)), XYZ) == "x^2, y^3"
        assert render_ideal(MonomialIdeal(3), XYZ) == "0"

    def test_render_dispatch(self):
        from hilbertfn.series import series_numerator

        assert render(Monomial((1, 0, 0)), XYZ) == "x"
        assert render(series_numerator(MonomialIdeal(2))) == "1/(1 - t)^2"
        with pytest.raises(ValueError):
            render(Monomial((1, 0, 0)))
        with pytest.raises(TypeError):
            render([1, 2], XYZ)

    @given(
        st.lists(
            st.tuples(*[st.integers(0, 9)] * 3).map(Monomial), min_size=0, max_size=6
        )
    )
    def test_round_trip(self, gens):
        I = MonomialIdeal(3, tuple(gens))
        assert parse_ideal(render_ideal(I, XYZ), XYZ) == I
