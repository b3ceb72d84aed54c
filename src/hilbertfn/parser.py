"""Text grammar for rings, ideals, variable orders and complexes.

Rings are comma-separated identifiers whose listing order is the variable
order.  Ideal generators are ``*``-separated factors ``var`` or ``var^k``;
``0`` is the zero ideal and ``1`` the unit ideal.  Facet lists are
semicolon-separated, comma-separated vertex names.  Errors carry the span
of the offending token as character offsets into the text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .monomial import MAX_EXPONENT, Monomial, MonomialIdeal
from .series import SeriesNumerator, render_series
from .simplicial import SimplicialComplex, validate_complex

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_']*")
# One valid factor as it stands between separators, surrounding whitespace
# included: ``var`` or ``var^k`` with ASCII digits k.  ``\s`` matches exactly
# the characters ``str.strip`` removes.
FACTOR_RE = re.compile(rf"\s*({IDENT_RE.pattern})(?:\s*\^\s*([0-9]+))?\s*")
# Significant digits of MAX_EXPONENT: a longer exponent is out of bounds.
EXPONENT_DIGITS = len(str(MAX_EXPONENT))

ErrorKind = str  # unknown-variable | bad-exponent | empty-generator | syntax | duplicate-variable


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


class ParseError(ValueError):
    def __init__(self, kind: ErrorKind, span: SourceSpan, message: str):
        super().__init__(f"{message} (at {span.start}..{span.end})")
        self.kind = kind
        self.span = span
        self.message = message


def _split(text: str, sep: str) -> list[tuple[str, int]]:
    """Split on ``sep`` keeping the start offset of each piece."""
    pieces = []
    start = 0
    while True:
        idx = text.find(sep, start)
        if idx == -1:
            pieces.append((text[start:], start))
            return pieces
        pieces.append((text[start:idx], start))
        start = idx + 1


def _stripped(piece: str, offset: int) -> tuple[str, int]:
    lead = len(piece) - len(piece.lstrip())
    return piece.strip(), offset + lead


def parse_ring(text: str) -> list[str]:
    """Comma-separated variable names; listing order is the variable order."""
    names: list[str] = []
    seen: set[str] = set()
    for piece, offset in _split(text, ","):
        name, start = _stripped(piece, offset)
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


def _parse_factor(text: str, offset: int, index: dict[str, int]) -> tuple[int, int]:
    """One ``var`` or ``var^k`` factor; returns (variable index, exponent)."""
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
    if len(digits) > EXPONENT_DIGITS:
        raise ParseError(
            "bad-exponent",
            span,
            f"exponent of {len(digits)} digits exceeds supported bound {MAX_EXPONENT}",
        )
    exp = int(digits)
    if exp < 1:
        raise ParseError("bad-exponent", exp_span, "exponent must be >= 1")
    return index[name], exp


def _match_generator(piece: str, index: dict[str, int], arity: int) -> Monomial | None:
    """The generator ``piece`` if each of its factors is a valid ``var`` or
    ``var^k``, else None.

    Builds no span: whatever it rejects, ``_parse_generator`` parses again
    and explains.  It rejects all the text that function rejects, and also
    the unit ``1`` and exponents padded with leading zeros past
    ``EXPONENT_DIGITS`` digits, which that function accepts.
    """
    exps = [0] * arity
    for factor in piece.split("*"):
        m = FACTOR_RE.fullmatch(factor)
        if m is None:
            return None
        name, digits = m.groups()
        if digits is None:
            exp = 1
        elif len(digits) <= EXPONENT_DIGITS:
            exp = int(digits)
        else:
            return None
        var = index.get(name)
        if var is None or exp < 1:
            return None
        exps[var] += exp
        if exps[var] > MAX_EXPONENT:
            return None
    return Monomial(tuple(exps))


def _parse_generator(piece: str, offset: int, index: dict[str, int], arity: int) -> Monomial:
    """One generator whose text starts at ``offset``; an invalid one raises a
    ParseError spanning its first offending token."""
    gen_text, start = _stripped(piece, offset)
    if not gen_text:
        raise ParseError(
            "empty-generator",
            SourceSpan(offset, offset + len(piece)),
            "empty generator",
        )
    if gen_text == "1":
        return Monomial((0,) * arity)
    exps = [0] * arity
    for factor_piece, factor_offset in _split(gen_text, "*"):
        factor, fstart = _stripped(factor_piece, start + factor_offset)
        if not factor:
            raise ParseError(
                "syntax",
                SourceSpan(start + factor_offset, start + factor_offset + len(factor_piece)),
                "empty factor",
            )
        var, exp = _parse_factor(factor, fstart, index)
        exps[var] += exp
        if exps[var] > MAX_EXPONENT:
            raise ParseError(
                "bad-exponent",
                SourceSpan(fstart, fstart + len(factor)),
                f"exponent {exps[var]} exceeds supported bound {MAX_EXPONENT}",
            )
    return Monomial(tuple(exps))


def parse_ideal(text: str, ring: Sequence[str]) -> MonomialIdeal:
    """Comma-separated generators over the given ring.

    ``0`` alone is the zero ideal; a generator ``1`` is the constant
    monomial (unit ideal).  Repeated variables within a generator multiply.
    """
    index = {name: i for i, name in enumerate(ring)}
    arity = len(ring)
    if text.strip() == "0":
        return MonomialIdeal(arity, ())
    pieces = text.split(",")
    starts: list[int] | None = None
    gens: list[Monomial] = []
    for i, piece in enumerate(pieces):
        gen = _match_generator(piece, index, arity)
        if gen is None:
            if starts is None:
                # split on one character: a piece starts one past the last one's end
                starts = [0, *accumulate(len(p) + 1 for p in pieces)]
            gen = _parse_generator(piece, starts[i], index, arity)
        gens.append(gen)
    return MonomialIdeal(arity, tuple(gens))


def parse_complex(text: str, ring: Sequence[str]) -> SimplicialComplex:
    """Semicolon-separated facets, each a comma-separated vertex list."""
    known = set(ring)
    facets: list[tuple[str, ...]] = []
    for piece, offset in _split(text, ";"):
        facet_text, start = _stripped(piece, offset)
        if not facet_text:
            raise ParseError(
                "syntax", SourceSpan(offset, offset + len(piece)), "empty facet"
            )
        facet: list[str] = []
        for vpiece, voffset in _split(facet_text, ","):
            name, vstart = _stripped(vpiece, start + voffset)
            span = SourceSpan(vstart, vstart + len(name))
            if not name or not IDENT_RE.fullmatch(name):
                raise ParseError("syntax", span, f"invalid vertex name {name!r}")
            if name not in known:
                raise ParseError("unknown-variable", span, f"unknown vertex {name!r}")
            facet.append(name)
        facets.append(tuple(facet))
    return SimplicialComplex(tuple(ring), tuple(facets))


def render_monomial(m: Monomial, variables: Sequence[str]) -> str:
    if m.is_one:
        return "1"
    parts = []
    for name, e in zip(variables, m.exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def render_ideal(I: MonomialIdeal, variables: Sequence[str]) -> str:
    if I.is_zero:
        return "0"
    return ", ".join(render_monomial(g, variables) for g in I.generators)


def render(value, variables: Sequence[str] | None = None) -> str:
    """Deterministic text form; parse(render(v)) round-trips for ideals."""
    if isinstance(value, SeriesNumerator):
        return render_series(value)
    if variables is None:
        raise ValueError("variable names are required to render monomials/ideals")
    if isinstance(value, Monomial):
        return render_monomial(value, variables)
    if isinstance(value, MonomialIdeal):
        return render_ideal(value, variables)
    raise TypeError(f"cannot render {type(value).__name__}")


__all__ = [
    "ParseError",
    "SourceSpan",
    "parse_ring",
    "parse_ideal",
    "parse_complex",
    "render",
    "render_monomial",
    "render_ideal",
    "validate_complex",
]
