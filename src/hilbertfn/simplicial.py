"""Simplicial complexes and their Stanley-Reisner ideals.

A complex is given by its facets (maximal faces); the face family is their
downward closure, and the empty set is always a face.  The Stanley-Reisner
ideal is generated by the squarefree monomials of the minimal non-faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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

    Violations: facet vertices not in the vertex set, one facet containing
    another, duplicate vertices, and vertices covered by no facet.
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

    Enumerated in ascending size, lexicographic in the vertex order.
    Supersets of an already-found minimal non-face are faces of nothing and
    get pruned by the one-element-removed test.
    """
    if len(c.vertices) > VERTEX_CAP:
        raise ResourceCapError(
            f"{len(c.vertices)} vertices exceed cap {VERTEX_CAP}"
        )
    violations = validate_complex(c)
    if violations:
        raise ValueError("invalid complex: " + "; ".join(violations))
    index = {v: i for i, v in enumerate(c.vertices)}
    facet_masks = [
        sum(1 << index[v] for v in facet) for facet in c.facets
    ]

    def is_face(mask: int) -> bool:
        return any(mask & fm == mask for fm in facet_masks) or mask == 0

    result: list[tuple[str, ...]] = []
    n = len(c.vertices)
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            mask = sum(1 << i for i in combo)
            if is_face(mask):
                continue
            if all(is_face(mask & ~(1 << i)) for i in combo):
                result.append(tuple(c.vertices[i] for i in combo))
    return result


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
