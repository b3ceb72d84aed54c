import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertfn import parser
from hilbertfn.monomial import MAX_EXPONENT, Monomial, MonomialIdeal, ideal
from hilbertfn.parser import (
    FACTOR_RE,
    IDENT_RE,
    ParseError,
    SourceSpan,
    parse_complex,
    parse_ideal,
    parse_ring,
    render_ideal,
    render_monomial,
)
from hilbertfn.simplicial import SimplicialComplex

XYZ = ["x", "y", "z"]


# Reference: parsers that strip, slice and span every piece, kept to check
# that the parser, which spans only the piece it rejects, accepts the same
# text and explains every rejection the same way.
def _ref_split(text, sep):
    pieces = []
    start = 0
    while True:
        idx = text.find(sep, start)
        if idx == -1:
            pieces.append((text[start:], start))
            return pieces
        pieces.append((text[start:idx], start))
        start = idx + 1


def _ref_stripped(piece, offset):
    lead = len(piece) - len(piece.lstrip())
    return piece.strip(), offset + lead


def _ref_parse_factor(text, offset, index):
    span = SourceSpan(offset, offset + len(text))
    if not text:
        raise ParseError("syntax", span, "empty factor")
    m = IDENT_RE.match(text)
    if not m or m.start() != 0:
        raise ParseError("syntax", span, f"expected a variable, got {text!r}")
    name = m.group()
    if name not in index:
        raise ParseError(
            "unknown-variable",
            SourceSpan(offset, offset + len(name)),
            f"unknown variable {name!r}",
        )
    rest = text[m.end() :].strip()
    if not rest:
        return index[name], 1
    if not rest.startswith("^"):
        raise ParseError("syntax", span, f"unexpected text {rest!r} after {name!r}")
    exp_text = rest[1:].strip()
    exp_span = SourceSpan(offset + m.end(), offset + len(text))
    if not (exp_text.isascii() and exp_text.isdigit()):
        raise ParseError("bad-exponent", exp_span, f"exponent must be a positive integer, got {exp_text!r}")
    digits = exp_text.lstrip("0") or "0"
    if len(digits) > len(str(MAX_EXPONENT)):
        raise ParseError(
            "bad-exponent",
            span,
            f"exponent of {len(digits)} digits exceeds supported bound {MAX_EXPONENT}",
        )
    exp = int(digits)
    if exp < 1:
        raise ParseError("bad-exponent", exp_span, "exponent must be >= 1")
    return index[name], exp


def _ref_parse_ideal(text, ring):
    index = {name: i for i, name in enumerate(ring)}
    arity = len(ring)
    if text.strip() == "0":
        return MonomialIdeal(arity, ())
    gens = []
    for piece, offset in _ref_split(text, ","):
        gen_text, start = _ref_stripped(piece, offset)
        if not gen_text:
            raise ParseError(
                "empty-generator",
                SourceSpan(offset, offset + len(piece)),
                "empty generator",
            )
        if gen_text == "1":
            gens.append(Monomial((0,) * arity))
            continue
        exps = [0] * arity
        for factor_piece, factor_offset in _ref_split(gen_text, "*"):
            factor, fstart = _ref_stripped(factor_piece, start + factor_offset)
            if not factor:
                raise ParseError(
                    "syntax",
                    SourceSpan(start + factor_offset, start + factor_offset + len(factor_piece)),
                    "empty factor",
                )
            var, exp = _ref_parse_factor(factor, fstart, index)
            exps[var] += exp
            if exps[var] > MAX_EXPONENT:
                raise ParseError(
                    "bad-exponent",
                    SourceSpan(fstart, fstart + len(factor)),
                    f"exponent {exps[var]} exceeds supported bound {MAX_EXPONENT}",
                )
        gens.append(Monomial(tuple(exps)))
    return MonomialIdeal(arity, tuple(gens))


def _ref_parse_ring(text):
    names = []
    seen = set()
    for piece, offset in _ref_split(text, ","):
        name, start = _ref_stripped(piece, offset)
        if not name:
            raise ParseError("syntax", SourceSpan(offset, offset + len(piece)), "empty variable name")
        if not IDENT_RE.fullmatch(name):
            raise ParseError(
                "syntax", SourceSpan(start, start + len(name)), f"invalid variable name {name!r}"
            )
        if name in seen:
            raise ParseError(
                "duplicate-variable",
                SourceSpan(start, start + len(name)),
                f"duplicate variable {name!r}",
            )
        seen.add(name)
        names.append(name)
    return names


def _ref_parse_complex(text, ring):
    known = set(ring)
    facets = []
    for piece, offset in _ref_split(text, ";"):
        facet_text, start = _ref_stripped(piece, offset)
        if not facet_text:
            raise ParseError(
                "syntax", SourceSpan(offset, offset + len(piece)), "empty facet"
            )
        facet = []
        for vpiece, voffset in _ref_split(facet_text, ","):
            name, vstart = _ref_stripped(vpiece, start + voffset)
            span = SourceSpan(vstart, vstart + len(name))
            if not name or not IDENT_RE.fullmatch(name):
                raise ParseError("syntax", span, f"invalid vertex name {name!r}")
            if name not in known:
                raise ParseError("unknown-variable", span, f"unknown vertex {name!r}")
            facet.append(name)
        facets.append(tuple(facet))
    return SimplicialComplex(tuple(ring), tuple(facets))


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ParseError as e:
        return (e.kind, e.span.start, e.span.end, str(e))


# The ring names, an unknown name, the separators, ASCII and non-ASCII
# whitespace, exponents on both sides of the bounds, and non-ASCII digits and
# signs.
NAMES = (*XYZ, "w")
SPACES = (" ", "\t", "\u00a0")
EXPONENTS = ("0", "00", "1", "2", "9", "600000", "1000001", "0" * 12 + "7", "9" * 12)
ODD = ("\u00b2", "\u0663", "-", "+")
IDEAL_TOKENS = (*NAMES, "^", "*", ",", *SPACES, *EXPONENTS, *ODD)


def _ideal_text(rng):
    """A text over IDEAL_TOKENS.  Token soup is nearly always an error, so
    most texts follow the grammar, some with one stray token spliced in."""
    mode = rng.random()
    if mode < 0.2:
        return "".join(rng.choice(IDEAL_TOKENS) for _ in range(rng.randrange(13)))

    def space():
        return rng.choice(("", "", *SPACES))

    gens = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.1:
            gens.append(rng.choice(("1", " 1\t", "0", "")))
            continue
        factors = []
        for _ in range(rng.randint(1, 3)):
            factor = space() + (rng.choice(XYZ) if rng.random() < 0.95 else "w")
            if rng.random() < 0.5:
                exponent = rng.choice(EXPONENTS if rng.random() < 0.9 else ODD)
                factor += space() + "^" + space() + exponent
            factors.append(factor + space())
        gens.append("*".join(factors))
    text = ",".join(gens)
    if mode < 0.4:
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(IDEAL_TOKENS) + text[at:]
    return text


def _repeated_factors_text(rng):
    """5 to 12 generators built from two to four factor texts, so that the
    same text, surrounding whitespace included, recurs within the ideal and
    across texts, and a stored factor can overflow on a later occurrence."""

    def space():
        return rng.choice(("", "", *SPACES))

    pool = []
    for _ in range(rng.randint(2, 4)):
        factor = space() + (rng.choice(XYZ) if rng.random() < 0.9 else "w")
        if rng.random() < 0.7:
            exponent = rng.choice(EXPONENTS if rng.random() < 0.95 else ODD)
            factor += space() + "^" + space() + exponent
        pool.append(factor + space())
    gens = []
    for _ in range(rng.randint(5, 12)):
        if rng.random() < 0.05:
            gens.append("1")
            continue
        gens.append("*".join(rng.choice(pool) for _ in range(rng.randint(1, 4))))
    return ",".join(gens)


# The names of a ring, an unknown name, names IDENT_RE rejects (the empty one
# included), both separators and ASCII and non-ASCII whitespace.
LIST_RING = (*XYZ, "x_1", "x'")
LIST_NAMES = (*LIST_RING, "w")
BAD_NAMES = ("", "2y", "_a", "x-y", "\u00e9", "x^2")
LIST_SPACES = (*SPACES, "\u2003")
LIST_TOKENS = (*LIST_NAMES, *BAD_NAMES, ",", ";", *LIST_SPACES)


def _list_text(rng, seps):
    """A list separated by ``seps[0]`` of lists separated by the rest of
    ``seps`` of names, mostly valid, with whitespace around them; or, one
    time in five, token soup."""
    if rng.random() < 0.2:
        return "".join(rng.choice(LIST_TOKENS) for _ in range(rng.randrange(13)))

    def space():
        return rng.choice(("", "", *LIST_SPACES))

    def items(depth):
        if depth == len(seps):
            name = rng.choice(LIST_NAMES if rng.random() < 0.9 else BAD_NAMES)
            return space() + name + space()
        return seps[depth].join(items(depth + 1) for _ in range(rng.randint(1, 4)))

    return items(0)


class TestRing:
    def test_basic(self):
        assert parse_ring("x, y, z") == ["x", "y", "z"]
        assert parse_ring("x_1,x_2,x'") == ["x_1", "x_2", "x'"]

    def test_duplicate(self):
        with pytest.raises(ParseError) as e:
            parse_ring("x, y, x")
        assert e.value.kind == "duplicate-variable"
        assert (e.value.span.start, e.value.span.end) == (6, 7)

    def test_duplicate_among_many_names_is_linear(self):
        names = [f"v{i}" for i in range(50_000)]
        text = ",".join(names) + ",v7"
        t0 = time.perf_counter()
        with pytest.raises(ParseError) as e:
            parse_ring(text)
        assert time.perf_counter() - t0 < 2.0
        assert e.value.kind == "duplicate-variable"
        assert (e.value.span.start, e.value.span.end) == (len(text) - 2, len(text))
        assert str(e.value) == f"duplicate variable 'v7' (at {len(text) - 2}..{len(text)})"

    def test_bad_name(self):
        with pytest.raises(ParseError) as e:
            parse_ring("x, 2y")
        assert e.value.kind == "syntax"

    def test_empty_name(self):
        with pytest.raises(ParseError) as e:
            parse_ring("x,, y")
        assert e.value.kind == "syntax"

    @settings(max_examples=1000, derandomize=True, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_the_reference_parser(self, rng):
        text = _list_text(rng, ",")
        assert _outcome(parse_ring, text) == _outcome(_ref_parse_ring, text), repr(text)


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
        with pytest.raises(ParseError) as e:
            parse_ideal("x^1000000*x", XYZ)  # a bare factor can overflow too
        assert e.value.kind == "bad-exponent"
        assert (e.value.span.start, e.value.span.end) == (10, 11)
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

    def test_parsed_generators_equal_checked_monomials(self):
        # the parser builds its monomials unchecked; the public constructor
        # still checks library input
        with pytest.raises(ValueError):
            Monomial((-1,))
        with pytest.raises(OverflowError):
            Monomial((MAX_EXPONENT + 1,))
        text = f"1, x^2*y*z^3, z, y*x^{MAX_EXPONENT}*y, x^{MAX_EXPONENT}*y^{MAX_EXPONENT}"
        for g in parse_ideal(text, XYZ).generators:
            checked = Monomial(tuple(g.exponents))
            assert type(g) is Monomial and type(g.exponents) is tuple
            assert g == checked and hash(g) == hash(checked), g
            assert g.degree == checked.degree and repr(g) == repr(checked)

    def test_empty_generator(self):
        with pytest.raises(ParseError) as e:
            parse_ideal("x^2,, y", XYZ)
        assert e.value.kind == "empty-generator"

    def test_syntax_errors(self):
        for text in ("x y", "x*", "*x", "x+y"):
            with pytest.raises(ParseError) as e:
                parse_ideal(text, XYZ)
            assert e.value.kind == "syntax", text

    def test_units_and_long_exponents_stay_linear(self):
        # a unit skips the factor walk; a zero-padded exponent goes to _parse_factor
        n = 20_000
        t0 = time.perf_counter()
        assert len(parse_ideal(",".join(["1"] * n), XYZ).generators) == n
        assert len(parse_ideal(",".join(["y^000000003"] * n), XYZ).generators) == n
        assert time.perf_counter() - t0 < 2.0

    def test_factor_whitespace_is_what_strip_removes(self):
        chars = [chr(c) for c in range(sys.maxunicode + 1)]
        matched = [c for c in chars if FACTOR_RE.fullmatch(f"{c}x{c}^{c}2{c}")]
        assert matched == [c for c in chars if c.isspace()]

    # one example in four from _repeated_factors_text, and still about 2 000
    # from _ideal_text, each over a ring whose variable order varies
    @settings(max_examples=2700, derandomize=True, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_the_reference_parser(self, rng):
        ring = rng.sample(XYZ, 3)
        text = _repeated_factors_text(rng) if rng.random() < 0.25 else _ideal_text(rng)
        expected = _outcome(_ref_parse_ideal, text, ring)
        assert _outcome(parse_ideal, text, ring) == expected, (repr(text), ring)

    def test_each_distinct_factor_text_is_matched_once_per_call(self, monkeypatch):
        # six factor texts with no surrounding whitespace, so stripping a
        # generator leaves each as it is, and their (variable, exponent)
        factors = {"x": (0, 1), "y^2": (1, 2), "z ^ 3": (2, 3), "x^4": (0, 4), "y ^10": (1, 10), "z^ 5": (2, 5)}
        texts = list(factors)
        gens = [[texts[(i + k) % 6] for k in range(1 + i % 3)] for i in range(1000)]
        expected = []
        for gen in gens:
            exps = [0, 0, 0]
            for factor in gen:
                var, exp = factors[factor]
                exps[var] += exp
            expected.append(tuple(exps))
        text = ", ".join("*".join(gen) for gen in gens)

        class CountingPattern:
            def __init__(self, pattern):
                self.pattern = pattern
                self.matches = 0

            def fullmatch(self, string):
                self.matches += 1
                return self.pattern.fullmatch(string)

        counting = CountingPattern(FACTOR_RE)
        monkeypatch.setattr(parser, "FACTOR_RE", counting)
        assert [g.exponents for g in parse_ideal(text, XYZ).generators] == expected
        assert counting.matches <= 6
        # a new call over another ring matches again and reads its order
        first = counting.matches
        reversed_gens = parse_ideal(text, XYZ[::-1]).generators
        assert [g.exponents for g in reversed_gens] == [e[::-1] for e in expected]
        assert first < counting.matches <= first + 6

    def test_stored_factor_overflowing_later_spans_that_occurrence(self):
        text = "x^600000*y, y*x^600000*x^600000"
        with pytest.raises(ParseError) as e:
            parse_ideal(text, XYZ)
        assert e.value.kind == "bad-exponent"
        assert (e.value.span.start, e.value.span.end) == (23, 31)
        assert _outcome(parse_ideal, text, XYZ) == _outcome(_ref_parse_ideal, text, XYZ)

    @pytest.mark.parametrize(
        "text",
        [
            # factor offsets run over the stripped generator, not the piece
            " x ^ 1*x * x ^ 0000000000007, x ^600000, *x^0,1",
            # a blank first factor after leading whitespace
            " \u00a0*x, y",
        ],
    )
    def test_pinned_texts_match_the_reference_parser(self, text):
        assert _outcome(parse_ideal, text, XYZ) == _outcome(_ref_parse_ideal, text, XYZ)


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

    @settings(max_examples=1000, derandomize=True, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_the_reference_parser(self, rng):
        text = _list_text(rng, ";,")
        expected = _outcome(_ref_parse_complex, text, LIST_RING)
        assert _outcome(parse_complex, text, LIST_RING) == expected, repr(text)


class TestRender:
    def test_monomial(self):
        assert render_monomial(Monomial((2, 1, 3)), XYZ) == "x^2*y*z^3"
        assert render_monomial(Monomial((0, 0, 0)), XYZ) == "1"
        assert render_monomial(Monomial((0, 1, 0)), XYZ) == "y"

    def test_ideal(self):
        assert render_ideal(ideal(3, (2, 0, 0), (0, 3, 0)), XYZ) == "x^2, y^3"
        assert render_ideal(MonomialIdeal(3), XYZ) == "0"

    @given(
        st.lists(
            st.tuples(*[st.integers(0, 9)] * 3).map(Monomial), min_size=0, max_size=6
        )
    )
    def test_round_trip(self, gens):
        I = MonomialIdeal(3, tuple(gens))
        assert parse_ideal(render_ideal(I, XYZ), XYZ) == I
