"""Seeded query generators for the four benchmark workloads.

Each workload is a fixed batch of CLI queries made from ``--seed`` alone; the
program under test only ever sees the generated argv text.  The shape of each
batch (arity, generator count, degree bound per slot) is a fixed grid, and the
seed picks the concrete exponents, variable names and orderings.  The grid
keeps the cost mix of a batch nearly the same for every seed, so run-to-run
spread comes from the program, not from one seed drawing a costlier batch.

This module imports nothing from ``hilbertfn``: the spec of every query is
kept next to its argv so the checker can recompute the answer on its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

WHY = {
    "antichain-subsets": (
        "2^n generator-subset sums do nearly all the work: auto takes the lcm "
        "lattice and series sums over raw generators; syzygy, table, oracle "
        "and simplicial stay idle"
    ),
    "many-generators": (
        "above the lattice cap, so auto takes the syzygy recursion and "
        "minimalize is quadratic; table annihilator sub-ideals fall back into "
        "the lcm lattice, a second use of that layer"
    ),
    "stanley-reisner": (
        "minimal_nonfaces scans 2^|V| vertex subsets and cmd_sr calls it "
        "twice; the only workload where simplicial runs"
    ),
    "crosscheck-small": (
        "small ideals shaped like the acceptance suite run through compare: "
        "the only workload on the oracle kernel, where fixed per-query cost "
        "dominates"
    ),
}


@dataclass(frozen=True)
class Query:
    """One CLI invocation plus what the checker needs to verify its answer.

    ``gens`` are the raw generator exponent vectors in the order the ideal
    text lists them; ``facets`` holds vertex-index tuples for ``sr``.
    """

    kind: str
    argv: tuple[str, ...]
    arity: int
    b: int
    gens: tuple[tuple[int, ...], ...] = ()
    facets: tuple[tuple[int, ...], ...] = ()


def ring_names(rng: random.Random, arity: int) -> list[str]:
    """Variable names in a seeded style, so the parser sees varied text."""
    style = rng.randrange(3)
    if style == 0 and arity <= 6:
        return list("xyzwuv"[:arity])
    if style == 1:
        return [f"x{i + 1}" for i in range(arity)]
    return [f"t_{i}" for i in range(arity)]


def render_monomial(exps: tuple[int, ...], names: list[str]) -> str:
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
    return "*".join(parts) if parts else "1"


def render_ideal(gens, names: list[str]) -> str:
    return ", ".join(render_monomial(g, names) for g in gens)


def _of_degree(rng: random.Random, arity: int, d: int) -> tuple[int, ...]:
    exps = [0] * arity
    for _ in range(d):
        exps[rng.randrange(arity)] += 1
    return tuple(exps)


def _antichain(rng: random.Random, arity: int, n: int, d: int) -> list[tuple[int, ...]]:
    """n distinct monomials of degree d: an antichain under divisibility."""
    pool: set[tuple[int, ...]] = set()
    while len(pool) < n:
        pool.add(_of_degree(rng, arity, d))
    gens = sorted(pool)
    rng.shuffle(gens)
    return gens


def _powers(arity: int, k: int) -> list[tuple[int, ...]]:
    """Generators of m^k, the k-th power of the maximal ideal."""
    gens = []
    for combo in combinations(range(arity + k - 1), arity - 1):
        # stars and bars: bar positions split k into arity parts
        prev = -1
        exps = []
        for pos in combo:
            exps.append(pos - prev - 1)
            prev = pos
        exps.append(arity + k - 2 - prev)
        gens.append(tuple(exps))
    return gens


def minimal_gens(gens) -> list[tuple[int, ...]]:
    """The minimal generators: those no other generator divides."""
    kept: list[tuple[int, ...]] = []
    for g in sorted(set(gens), key=sum):
        if not any(all(h_i <= g_i for h_i, g_i in zip(h, g)) for h in kept):
            kept.append(g)
    return kept


def _stage(g: tuple[int, ...]) -> int:
    return max((i + 1 for i, e in enumerate(g) if e), default=0)


def table_lattice_subsets(gens, b: int) -> int:
    """Generator subsets that ``table`` on the ring order hands to the lattice.

    Follows the SES table's annihilator terms from the paper: generators
    sorted by stage, then by the stage variable's exponent; each generator
    p at stage a >= 2 (but the first) contributes the sub-ideal of syzygy
    quotients lcm(g, p)/p of all earlier generators, projected to the first
    a - 1 variables, when deg p - 1 <= b.  Auto sends a sub-ideal with 3..20
    minimal generators to the lattice, which sums over 2^n - 1 subsets.
    """
    order = sorted(gens, key=lambda g: (_stage(g), g[_stage(g) - 1] if _stage(g) else 0))
    total = 0
    for j, p in enumerate(order):
        a = _stage(p)
        if j == 0 or a < 2 or sum(p) - 1 > b:
            continue
        sub = [tuple(max(x, y) - y for x, y in zip(g[: a - 1], p[: a - 1])) for g in order[:j]]
        n = len(minimal_gens(sub))
        if 3 <= n <= 20:
            total += 2**n - 1
    return total


def _ideal_queries(kind_argvs, arity, b, gens, rng) -> list[Query]:
    names = ring_names(rng, arity)
    ring = ",".join(names)
    text = render_ideal(gens, names)
    out = []
    for kind, extra in kind_argvs:
        argv = (kind, "--ring", ring, "--ideal", text, *extra)
        out.append(Query(kind, argv, arity, b, tuple(gens)))
    return out


# (minimal generators, ideals per batch): few large ideals, many small ones,
# so one pass stays within a run while every size in 10..16 appears.
ANTICHAIN_SIZES = ((10, 46), (11, 24), (12, 14), (13, 8), (14, 5), (15, 2), (16, 1))


def antichain_subsets(seed: int) -> list[Query]:
    rng = random.Random(seed)
    queries: list[Query] = []
    slot = 0
    for n, count in ANTICHAIN_SIZES:
        for _ in range(count):
            arity = 3 + slot % 4
            d = {3: 6, 4: 5, 5: 4, 6: 4}[arity] + slot // 4 % 2
            b = 10 + 5 * (slot % 5)
            gens = _antichain(rng, arity, n, d)
            if n <= 11 and slot % 3 == 0:
                # redundant generators: multiples of a minimal one
                for _ in range(1 + slot % 2):
                    g = list(rng.choice(gens[:n]))
                    g[rng.randrange(arity)] += 1 + rng.randrange(2)
                    gens.insert(rng.randrange(len(gens) + 1), tuple(g))
            queries += _ideal_queries(
                (("eval", ("--max-degree", str(b))), ("series", ("--expand-to", str(b)))),
                arity, b, gens, rng,
            )
            slot += 1
    return queries


def _random_gens(rng: random.Random, arity: int, n: int, max_exp: int) -> list[tuple[int, ...]]:
    gens = []
    while len(gens) < n:
        g = tuple(rng.randint(0, max_exp) for _ in range(arity))
        if sum(g):
            gens.append(g)
    return gens


# Each entry is (family, arity, size, degree bound); the family decides what
# size means.  Random ideals are redrawn until more than 20 generators stay
# minimal, so auto never takes the lattice for them, and until the table
# method's annihilator terms hand the lattice at most TABLE_LATTICE_BUDGET
# subsets.  About one draw in ten needs 2^17..2^20 of them and costs seconds,
# outweighing the rest of the batch; below 2^13, the largest lattice (which
# sets the peak RSS) is about the same size in every batch.
TABLE_LATTICE_BUDGET = 2**13
MANY_GENERATOR_GRID = (
    ("power", 3, 5, 10), ("power", 3, 6, 10), ("power", 3, 6, 14), ("power", 3, 7, 12),
    ("power", 3, 8, 10), ("power", 4, 4, 10), ("power", 4, 4, 12), ("power", 3, 5, 20),
    ("antichain", 3, 22, 10), ("antichain", 3, 30, 14), ("antichain", 4, 24, 12),
    ("antichain", 4, 28, 10), ("antichain", 4, 36, 12), ("antichain", 5, 30, 10),
    ("antichain", 5, 40, 10), ("antichain", 5, 24, 16), ("antichain", 6, 24, 10),
    ("antichain", 6, 30, 10), ("antichain", 4, 45, 10), ("antichain", 3, 21, 20),
    ("random", 6, 60, 10), ("random", 6, 100, 10), ("random", 7, 80, 10), ("random", 8, 60, 10),
    ("random", 6, 150, 10),
)


def many_generators(seed: int) -> list[Query]:
    rng = random.Random(seed)
    queries: list[Query] = []
    for family, arity, size, b in MANY_GENERATOR_GRID * 4:
        if family == "power":
            gens = _powers(arity, size)
            rng.shuffle(gens)
        elif family == "antichain":
            d = max(3, next(k for k in range(1, 40) if len(_powers(arity, k)) >= 2 * size))
            gens = _antichain(rng, arity, size, d)
        else:
            gens = _random_gens(rng, arity, size, 6)
            while (len(minimal_gens(gens)) <= 20
                   or table_lattice_subsets(gens, b) > TABLE_LATTICE_BUDGET):
                gens = _random_gens(rng, arity, size, 6)
        queries += _ideal_queries(
            (
                ("eval", ("--max-degree", str(b))),
                ("table", ("--max-degree", str(b), "--max-row", str(arity))),
            ),
            arity, b, gens, rng,
        )
    return queries


def minimal_nonfaces(n_vertices: int, facets) -> list[frozenset[int]]:
    """Minimal non-faces as the minimal transversals of the facet complements.

    A vertex set is a non-face exactly when it meets the complement of every
    facet, so the minimal non-faces are the minimal hitting sets of those
    complements (Berge's algorithm, one complement at a time).  Works on the
    facets, never on the 2^|V| vertex subsets.
    """
    everything = frozenset(range(n_vertices))
    hitting: list[frozenset[int]] = [frozenset()]
    for facet in facets:
        comp = everything - frozenset(facet)
        grown = {h for h in hitting if h & comp}
        grown |= {h | {v} for h in hitting if not h & comp for v in comp}
        hitting = [h for h in grown if not any(o < h for o in grown)]
    return hitting


# Vertex counts per complex in one batch, with degree bounds.
SR_GRID = ((14, 8), (15, 9), (16, 8), (14, 10), (15, 8), (14, 9), (15, 10), (16, 9))


def stanley_reisner(seed: int) -> list[Query]:
    rng = random.Random(seed)
    queries: list[Query] = []
    for slot, (n_vertices, b) in enumerate(SR_GRID * 7):
        n_facets = 4 + slot % 4
        while True:
            facets: set[frozenset[int]] = set()
            while len(facets) < n_facets:
                size = rng.randint(n_vertices - 5, n_vertices - 2)
                facets.add(frozenset(rng.sample(range(n_vertices), size)))
            if any(f < g for f in facets for g in facets):
                continue
            if frozenset().union(*facets) != frozenset(range(n_vertices)):
                continue
            # more than 20 minimal non-faces, so auto takes the syzygy
            # recursion; at most 32, so the recursion stays a minor share
            if 20 < len(minimal_nonfaces(n_vertices, facets)) <= 32:
                break
        names = [f"v{i}" for i in range(n_vertices)]
        facet_list = [tuple(sorted(f)) for f in facets]
        rng.shuffle(facet_list)
        text = "; ".join(",".join(names[i] for i in f) for f in facet_list)
        argv = ("sr", "--ring", ",".join(names), "--facets", text, "--max-degree", str(b))
        queries.append(Query("sr", argv, n_vertices, b, facets=tuple(facet_list)))
    return queries


def crosscheck_small(seed: int) -> list[Query]:
    rng = random.Random(seed)
    queries: list[Query] = []
    for slot in range(1200):
        arity = 1 + slot % 5
        n = 1 + (slot // 5) % 8
        b = 4 + (slot * 7) % 17
        gens = _random_gens(rng, arity, n, 6)
        queries += _ideal_queries(
            (("compare", ("--max-degree", str(b))),), arity, b, gens, rng
        )
    return queries


WORKLOADS = {
    "antichain-subsets": antichain_subsets,
    "many-generators": many_generators,
    "stanley-reisner": stanley_reisner,
    "crosscheck-small": crosscheck_small,
}
