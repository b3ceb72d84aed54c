"""Simplicial complexes and their Stanley-Reisner ideals.

A complex is given by its facets (maximal faces); the face family is their
downward closure, and the empty set is always a face.  The Stanley-Reisner
ideal is generated by the squarefree monomials of the minimal non-faces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ResourceCapError
from .monomial import Monomial, MonomialIdeal

VERTEX_CAP = 24


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple[str, ...]
    facets: tuple[tuple[str, ...], ...]


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
    covered = set().union(*facet_sets) if facet_sets else set()
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
    """
    if len(c.vertices) > VERTEX_CAP:
        raise ResourceCapError(
            f"{len(c.vertices)} vertices exceed cap {VERTEX_CAP}"
        )
    violations = validate_complex(c)
    if violations:
        raise ValueError("invalid complex: " + "; ".join(violations))
    n = len(c.vertices)
    index = {v: i for i, v in enumerate(c.vertices)}
    everything = (1 << n) - 1
    # minimal transversals of the complements seen so far, as vertex bitmasks
    transversals = [0]
    for facet in c.facets:
        complement = everything & ~sum(1 << index[v] for v in facet)
        bits = [1 << i for i in range(n) if complement >> i & 1]
        hit = [t for t in transversals if t & complement]
        # A missed transversal grows by one complement vertex.  Grown sets are
        # distinct and pairwise incomparable, and none lies inside a set that
        # already hits; only a grown set containing one of those is not minimal.
        grown = [t | bit for t in transversals if not t & complement for bit in bits]
        transversals = hit + [g for g in grown if not any(h & g == h for h in hit)]
    vertex_lists = sorted(
        (bin(t).count("1"), [i for i in range(n) if t >> i & 1]) for t in transversals if t
    )
    return [tuple(c.vertices[i] for i in vs) for _, vs in vertex_lists]


def nonface_ideal(
    vertices: Sequence[str], nonfaces: Iterable[tuple[str, ...]]
) -> MonomialIdeal:
    """Squarefree monomial ideal on the vertex variables, one generator per
    non-face, in the given order."""
    index = {v: i for i, v in enumerate(vertices)}
    arity = len(vertices)
    gens = []
    for nonface in nonfaces:
        exps = [0] * arity
        for v in nonface:
            exps[index[v]] = 1
        gens.append(Monomial(tuple(exps)))
    return MonomialIdeal(arity, tuple(gens))


def stanley_reisner_ideal(c: SimplicialComplex) -> MonomialIdeal:
    """Squarefree monomial ideal on the vertex variables, one generator per
    minimal non-face, in the minimal_nonfaces order."""
    return nonface_ideal(c.vertices, minimal_nonfaces(c))
