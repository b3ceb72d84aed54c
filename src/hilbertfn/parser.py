"""Text grammar for rings, ideals, variable orders and complexes.

Rings are comma-separated identifiers whose listing order is the variable
order.  Ideal generators are ``*``-separated factors ``var`` or ``var^k``;
``0`` is the zero ideal and ``1`` the unit ideal.  Facet lists are
semicolon-separated, comma-separated vertex names.  Errors carry the span
of the offending token as character offsets into the text.

Each list is walked once, by ``str.split`` on its one-character separator
and a running offset that grows by each piece's length plus one.  A span is
built only where an error is raised.  A valid factor costs one compiled
match per distinct text in the ideal: ``parse_ideal`` keeps, for its call
only, a dict from each factor text it has accepted to its (variable,
exponent), and a repeated text is one dict lookup.  The exponent bound is
still checked on every occurrence, and only a factor that is rejected or
overflows is parsed again, by the function that explains the error.
"""

from __future__ import annotations

import re
from typing import Sequence

from .monomial import MAX_EXPONENT, Monomial, MonomialIdeal, _set, _unchecked_monomial, _Value
from .simplicial import SimplicialComplex

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_']*")
# One valid factor as it stands between separators, surrounding whitespace
# included: ``var`` or ``var^k`` with ASCII digits k.  ``\s`` matches exactly
# the characters ``str.strip`` removes.
FACTOR_RE = re.compile(rf"\s*({IDENT_RE.pattern})(?:\s*\^\s*([0-9]+))?\s*")
# Significant digits of MAX_EXPONENT: a longer exponent is out of bounds.
EXPONENT_DIGITS = len(str(MAX_EXPONENT))

ErrorKind = str  # unknown-variable | bad-exponent | empty-generator | syntax | duplicate-variable


class SourceSpan(_Value):
    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int) -> None:
        _set(self, "start", start)
        _set(self, "end", end)


class ParseError(ValueError):
    def __init__(self, kind: ErrorKind, span: SourceSpan, message: str):
        super().__init__(f"{message} (at {span.start}..{span.end})")
        self.kind = kind
        self.span = span


def parse_ring(text: str) -> list[str]:
    """Comma-separated variable names; listing order is the variable order."""
    names: list[str] = []
    seen: set[str] = set()
    offset = 0
    for piece in text.split(","):
        name = piece.strip()
        if not name:
            raise ParseError("syntax", SourceSpan(offset, offset + len(piece)), "empty variable name")
        if not IDENT_RE.fullmatch(name) or name in seen:
            start = offset + len(piece) - len(piece.lstrip())
            span = SourceSpan(start, start + len(name))
            if name in seen:
                raise ParseError("duplicate-variable", span, f"duplicate variable {name!r}")
            raise ParseError("syntax", span, f"invalid variable name {name!r}")
        seen.add(name)
        names.append(name)
        offset += len(piece) + 1
    return names


def _parse_factor(piece: str, offset: int, index: dict[str, int], exps: list[int]) -> None:
    """Multiply the factor ``piece``, ``var`` or ``var^k`` starting at
    ``offset``, into the exponents ``exps``; raise a ParseError spanning its
    first offending token if it is invalid."""
    text = piece.strip()
    if not text:
        raise ParseError("syntax", SourceSpan(offset, offset + len(piece)), "empty factor")
    offset += len(piece) - len(piece.lstrip())
    span = SourceSpan(offset, offset + len(text))
    m = IDENT_RE.match(text)
    if not m:
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
        exp = 1
    elif not rest.startswith("^"):
        raise ParseError("syntax", span, f"unexpected text {rest!r} after {name!r}")
    else:
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
    var = index[name]
    exps[var] += exp
    if exps[var] > MAX_EXPONENT:
        raise ParseError(
            "bad-exponent", span, f"exponent {exps[var]} exceeds supported bound {MAX_EXPONENT}"
        )


def _parse_generator(
    piece: str,
    offset: int,
    index: dict[str, int],
    arity: int,
    factors: dict[str, tuple[int, int]],
) -> Monomial:
    """One generator whose text starts at ``offset``.

    ``factors`` maps each valid factor text already met in this ideal,
    surrounding whitespace included, to its (variable, exponent).  A text
    not in it is matched by ``FACTOR_RE`` and stored if the match gives a
    known name and an exponent of at most ``EXPONENT_DIGITS`` digits.  A
    stored factor whose exponent keeps the running sum in bounds is added
    with no span built.  Any other factor is left to :func:`_parse_factor`,
    which raises the error for it, or accepts an exponent padded with zeros
    past ``EXPONENT_DIGITS`` digits.
    """
    text = piece.strip()
    if not text:
        raise ParseError("empty-generator", SourceSpan(offset, offset + len(piece)), "empty generator")
    if text == "1":
        return _unchecked_monomial((0,) * arity)
    exps = [0] * arity
    offset += len(piece) - len(piece.lstrip())
    for factor in text.split("*"):
        known = factors.get(factor)
        if known is None:
            m = FACTOR_RE.fullmatch(factor)
            # a factor the match rejects has no name, so ``var`` is None
            name, digits = m.groups() if m else (None, None)
            var = index.get(name)
            exp = 1 if digits is None else int(digits) if len(digits) <= EXPONENT_DIGITS else 0
            if var is not None and exp > 0:
                factors[factor] = known = (var, exp)
        if known is None or exps[known[0]] + known[1] > MAX_EXPONENT:
            _parse_factor(factor, offset, index, exps)
        else:
            exps[known[0]] += known[1]
        offset += len(factor) + 1
    return _unchecked_monomial(tuple(exps))


def parse_ideal(text: str, ring: Sequence[str]) -> MonomialIdeal:
    """Comma-separated generators over the given ring.

    ``0`` alone is the zero ideal; a generator ``1`` is the constant
    monomial (unit ideal).  Repeated variables within a generator multiply.
    """
    index = {name: i for i, name in enumerate(ring)}
    arity = len(ring)
    if text.strip() == "0":
        return MonomialIdeal(arity, ())
    gens: list[Monomial] = []
    # factor texts of this call only: a valid one is matched once per ideal
    factors: dict[str, tuple[int, int]] = {}
    offset = 0
    for piece in text.split(","):
        gens.append(_parse_generator(piece, offset, index, arity, factors))
        offset += len(piece) + 1
    return MonomialIdeal(arity, tuple(gens))


def parse_complex(text: str, ring: Sequence[str]) -> SimplicialComplex:
    """Semicolon-separated facets, each a comma-separated vertex list."""
    known = set(ring)
    facets: list[tuple[str, ...]] = []
    offset = 0
    for piece in text.split(";"):
        facet_text = piece.strip()
        if not facet_text:
            raise ParseError("syntax", SourceSpan(offset, offset + len(piece)), "empty facet")
        voffset = offset + len(piece) - len(piece.lstrip())
        facet: list[str] = []
        for vpiece in facet_text.split(","):
            name = vpiece.strip()
            if not IDENT_RE.fullmatch(name) or name not in known:
                vstart = voffset + len(vpiece) - len(vpiece.lstrip())
                span = SourceSpan(vstart, vstart + len(name))
                if not IDENT_RE.fullmatch(name):
                    raise ParseError("syntax", span, f"invalid vertex name {name!r}")
                raise ParseError("unknown-variable", span, f"unknown vertex {name!r}")
            facet.append(name)
            voffset += len(vpiece) + 1
        facets.append(tuple(facet))
        offset += len(piece) + 1
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
