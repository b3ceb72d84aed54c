"""Simplicial complexes and their Stanley-Reisner ideals.

A complex is given by its facets (maximal faces); the face family is their
downward closure, and the empty set is always a face.  The Stanley-Reisner
ideal is generated by the squarefree monomials of the minimal non-faces.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .errors import ResourceCapError
from .monomial import MonomialIdeal, _set, _unchecked_monomial, _Value

VERTEX_CAP = 24


class InvalidComplexError(ValueError):
    """A complex that :func:`validate_complex` rejects; ``violations`` holds
    its messages."""

    def __init__(self, violations: list[str]) -> None:
        super().__init__("invalid complex: " + "; ".join(violations))
        self.violations = violations


class SimplicialComplex(_Value):
    __slots__ = ("vertices", "facets")

    def __init__(self, vertices: tuple[str, ...], facets: tuple[tuple[str, ...], ...]) -> None:
        _set(self, "vertices", vertices)
        _set(self, "facets", facets)


def validate_complex(c: SimplicialComplex) -> list[str]:
    """Check the complex; returns a list of violation messages (empty = ok).

    Violations: facet vertices not in the vertex set, a facet listing a
    vertex twice, one facet containing another, duplicate vertices, and
    vertices covered by no facet.
    """
    violations: list[str] = []
    seen = set()
    for v in c.vertices:
        if v in seen:
            violations.append(f"duplicate vertex {v!r}")
        seen.add(v)
    facet_sets = [frozenset(f) for f in c.facets]
    for f, fs in zip(c.facets, facet_sets):
        unknown = [v for v in f if v not in seen]
        if unknown:
            violations.append(f"facet {f} uses unknown vertices {unknown}")
        repeated = [v for v, n in Counter(f).items() if n > 1]
        if repeated:
            violations.append(f"facet {f} repeats vertices {repeated}")
    for i, fi in enumerate(facet_sets):
        for j, fj in enumerate(facet_sets):
            if i != j and fi < fj:
                violations.append(
                    f"facet {c.facets[i]} is contained in facet {c.facets[j]}"
                )
                break
    covered = set().union(*facet_sets)
    for v in c.vertices:
        if v not in covered:
            violations.append(f"vertex {v!r} is not covered by any facet")
    return violations


def minimal_nonfaces(c: SimplicialComplex) -> list[tuple[str, ...]]:
    """Subsets that are not faces while all their proper subsets are faces.

    Listed in ascending size, then lexicographic in the vertex order.  A
    vertex set is a non-face exactly when it meets the complement of every
    facet, so the minimal non-faces are the minimal transversals of the facet
    complements.  They are built one facet at a time (Berge's algorithm), so
    the work follows the facets and the transversals, never the 2^|V| vertex
    subsets.

    At a facet complement E, the transversals that meet E stay, and each one
    t that misses E grows to t + {v} for every v in E.  Grown sets are
    distinct, pairwise incomparable and inside no stayer, so t + {v} is
    minimal unless it contains a stayer h, and then h meets E in v alone:
    h lies inside t + {v} and t misses E, so h meets E in v or nowhere, and
    h meets E.  So t + {v} is tested only against the stayers whose meet
    with E is {v}.

    The complex is validated first, so an invalid complex raises
    :class:`InvalidComplexError` whatever its size; a valid one with more
    than ``VERTEX_CAP`` vertices raises ResourceCapError.
    """
    violations = validate_complex(c)
    if violations:
        raise InvalidComplexError(violations)
    if len(c.vertices) > VERTEX_CAP:
        raise ResourceCapError(
            f"{len(c.vertices)} vertices exceed cap {VERTEX_CAP}"
        )
    n = len(c.vertices)
    # Vertex i is bit n - 1 - i, so among sets of one size, lexicographic
    # order of the vertex lists is descending int order.
    bit = {v: 1 << (n - 1 - i) for i, v in enumerate(c.vertices)}
    everything = (1 << n) - 1
    # minimal transversals of the complements seen so far, as vertex bitmasks
    transversals = [0]
    for facet in c.facets:
        complement = everything & ~sum(bit[v] for v in facet)
        # the stayers, the missed, and for each v in E the stayers that meet
        # E in v alone, each less v
        kept, missed, blockers = [], [], {}
        for t in transversals:
            meet = t & complement
            if not meet:
                missed.append(t)
                continue
            kept.append(t)
            if not meet & (meet - 1):
                blockers.setdefault(meet, []).append(t ^ meet)
        for v in bit.values():
            if v & complement:
                # t + {v} holds a blocker h exactly when t holds h less v
                blocked = {t for r in blockers.get(v, ()) for t in missed if r & t == r}
                kept += [t | v for t in missed if t not in blocked]
        transversals = kept
    transversals.sort(key=lambda t: (t.bit_count(), -t))
    nonfaces = []
    for t in transversals:
        names = []
        while t:
            top = t.bit_length()
            names.append(c.vertices[n - top])
            t ^= 1 << (top - 1)
        if names:
            nonfaces.append(tuple(names))
    return nonfaces


def nonface_ideal(
    vertices: Sequence[str], nonfaces: Iterable[tuple[str, ...]]
) -> MonomialIdeal:
    """Squarefree monomial ideal on the vertex variables, one generator per
    non-face, in the given order.  Its exponents are 0 and 1, so the
    generators skip ``Monomial``'s check."""
    index = {v: i for i, v in enumerate(vertices)}
    arity = len(vertices)
    gens = []
    for nonface in nonfaces:
        exps = [0] * arity
        for v in nonface:
            exps[index[v]] = 1
        gens.append(_unchecked_monomial(tuple(exps)))
    return MonomialIdeal(arity, tuple(gens))


def stanley_reisner_ideal(c: SimplicialComplex) -> MonomialIdeal:
    """Squarefree monomial ideal on the vertex variables, one generator per
    minimal non-face, in the minimal_nonfaces order."""
    return nonface_ideal(c.vertices, minimal_nonfaces(c))
