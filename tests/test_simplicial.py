import random
from itertools import combinations

import pytest

from hilbertfn.errors import ResourceCapError
from hilbertfn.monomial import ideal
from hilbertfn.simplicial import (
    SimplicialComplex,
    minimal_nonfaces,
    stanley_reisner_ideal,
    validate_complex,
)

# two triangles sharing the edge {y, z}
BOWTIE = SimplicialComplex(
    ("x", "xh", "y", "z", "w"),
    (("x", "y", "z"), ("xh", "y", "z"), ("y", "z", "w")),
)


def test_validate_ok():
    assert validate_complex(BOWTIE) == []


def test_validate_duplicate_vertex():
    c = SimplicialComplex(("a", "a"), (("a",),))
    assert any("duplicate" in v for v in validate_complex(c))


def test_validate_facet_repeating_a_vertex():
    # {x}, {y}: the repeated x must not carry into y's bit of the facet mask
    c = SimplicialComplex(("x", "y"), (("x", "x"), ("y",)))
    assert validate_complex(c) == ["facet ('x', 'x') repeats vertices ['x']"]
    with pytest.raises(ValueError):
        minimal_nonfaces(c)


def test_validate_unknown_vertex():
    c = SimplicialComplex(("a", "b"), (("a", "c"), ("b",)))
    assert any("unknown" in v for v in validate_complex(c))


def test_validate_facet_containment():
    c = SimplicialComplex(("a", "b", "c"), (("a", "b", "c"), ("a", "b")))
    assert any("contained" in v for v in validate_complex(c))


def test_validate_uncovered_vertex():
    c = SimplicialComplex(("a", "b"), (("a",),))
    assert any("not covered" in v for v in validate_complex(c))


def test_minimal_nonfaces_bowtie():
    assert minimal_nonfaces(BOWTIE) == [
        ("x", "xh"),
        ("x", "w"),
        ("xh", "w"),
    ]


def test_minimal_nonfaces_hollow_triangle():
    c = SimplicialComplex(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
    assert minimal_nonfaces(c) == [("a", "b", "c")]


def test_minimal_nonfaces_full_simplex_has_none():
    c = SimplicialComplex(("a", "b", "c"), (("a", "b", "c"),))
    assert minimal_nonfaces(c) == []


def test_minimal_nonfaces_rejects_invalid():
    c = SimplicialComplex(("a", "b"), (("a",),))
    with pytest.raises(ValueError) as e:
        minimal_nonfaces(c)
    assert e.value.violations == validate_complex(c)
    # an invalid complex is reported as such above the vertex cap too
    names = tuple(f"v{i}" for i in range(25))
    with pytest.raises(ValueError) as e:
        minimal_nonfaces(SimplicialComplex(names, (names[:-1],)))
    assert e.value.violations == ["vertex 'v24' is not covered by any facet"]


def test_vertex_cap():
    names = tuple(f"v{i}" for i in range(25))
    c = SimplicialComplex(names, (names,))
    with pytest.raises(ResourceCapError):
        minimal_nonfaces(c)


def test_stanley_reisner_ideal_bowtie():
    I = stanley_reisner_ideal(BOWTIE)
    assert I == ideal(
        5,
        (1, 1, 0, 0, 0),
        (1, 0, 0, 0, 1),
        (0, 1, 0, 0, 1),
    )


def test_stanley_reisner_generators_are_squarefree():
    I = stanley_reisner_ideal(BOWTIE)
    assert all(max(g.exponents) <= 1 for g in I.generators)


def brute_force_nonfaces(c):
    """Scan every vertex subset in ascending size, lexicographic in vertex
    index, and keep the non-faces whose one-smaller subsets are all faces."""
    n = len(c.vertices)
    facets = [frozenset(c.vertices.index(v) for v in f) for f in c.facets]

    def is_face(s):
        return any(s <= f for f in facets)

    found = []
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            s = frozenset(combo)
            if not is_face(s) and all(is_face(s - {i}) for i in combo):
                found.append(tuple(c.vertices[i] for i in combo))
    return found


def random_complex(rng, n):
    vertices = tuple(f"v{i}" for i in range(n))
    facets = {frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 6))}
    facets = [f for f in facets if not any(f < g for g in facets)]
    covered = frozenset().union(*facets)
    facets += [frozenset({i}) for i in range(n) if i not in covered]
    rng.shuffle(facets)
    return SimplicialComplex(
        vertices, tuple(tuple(vertices[i] for i in sorted(f)) for f in facets)
    )


def test_minimal_nonfaces_match_brute_force_scan():
    rng = random.Random(2402)
    for _ in range(300):
        c = random_complex(rng, rng.randint(1, 10))
        assert validate_complex(c) == []
        assert minimal_nonfaces(c) == brute_force_nonfaces(c), c
