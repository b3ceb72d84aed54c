"""Independent answer checks, run after the timed region.

Every answer is compared with a method the query did not use:

* ``eval`` and ``table`` values against the oracle when its enumeration fits
  ``ORACLE_BUDGET``, otherwise against another exact method (syzygy, table or
  lcm, in that order).  When a sibling query on the same ideal and degree
  bound already produced that method's values, its output is the witness, so
  the eval/table pairs of many-generators check each other for free;
* ``series``: the printed expansion against the reference values, and the
  printed numerator against the reference values times (1 - t)^a, carried to
  the degree of the lcm of all generators so the numerator is fully pinned;
* ``table``: the row count, and the last row against the reference;
* ``compare``: exit code 0 and the single line ``AGREE``;
* ``sr``: minimal non-faces against minimal transversals of the facet
  complements, and values against the face-count formula
  HF(b) = sum_i f_i * C(b - 1, i - 1), both computed here from the facets.
"""

from __future__ import annotations

import re
from math import comb
from typing import Optional

from hilbertfn import engine
from hilbertfn.monomial import Monomial, MonomialIdeal

from workloads import Query, minimal_gens, minimal_nonfaces

ORACLE_BUDGET = 30_000  # monomials of degree <= b, i.e. C(a + b, a)

LATTICE_CAP = engine.LATTICE_CAP_DEFAULT  # auto takes the lattice up to it


def auto_route(gens) -> str:
    """The method family ``auto`` takes on these generators."""
    n = len(minimal_gens(gens))
    if n <= 2:
        return "closed"
    return "lcm" if n <= LATTICE_CAP else "syzygy"


def used_method(q: Query) -> str:
    if q.kind == "eval":
        return auto_route(q.gens)
    if q.kind == "series":
        return "lcm"  # the numerator is the same subset sum as the lattice
    return q.kind


def _values_line(line: str, head: str) -> list[int]:
    parts = line.split()
    if not parts or parts[0] != head:
        raise ValueError(f"expected a {head!r} line, got {line!r}")
    return [int(p) for p in parts[1:]]


TERM_RE = re.compile(r"([+-])?\s*(\d+)?\*?(t(?:\^(\d+))?)?")


def parse_series(text: str) -> tuple[dict[int, int], int]:
    """``(1 - t^2 + 3*t^5)/(1 - t)^3`` -> ({0: 1, 2: -1, 5: 3}, 3)."""
    num, _, den = text.rpartition("/")
    m = re.fullmatch(r"\(1 - t\)\^(\d+)", den)
    if not m:
        raise ValueError(f"bad denominator in {text!r}")
    arity = int(m.group(1))
    num = num.strip()
    if num == "0":
        return {}, arity
    if num.startswith("("):
        num = num[1:-1]
    coeffs: dict[int, int] = {}
    for piece in re.findall(r"[+-]?\s*[^+-]+", num):
        tm = TERM_RE.fullmatch(piece.strip())
        if not tm or not (tm.group(2) or tm.group(3)):
            raise ValueError(f"bad term {piece!r} in {text!r}")
        sign = -1 if tm.group(1) == "-" else 1
        mag = int(tm.group(2)) if tm.group(2) else 1
        degree = 0 if not tm.group(3) else int(tm.group(4) or 1)
        coeffs[degree] = coeffs.get(degree, 0) + sign * mag
    return coeffs, arity


def face_count_hf(n_vertices: int, facets, b_max: int) -> list[int]:
    """HF of the Stanley-Reisner ring from the f-vector of the complex."""
    sets = [frozenset(f) for f in facets]
    f = [0] * (n_vertices + 1)
    for mask in range(1, 1 << len(sets)):
        common = frozenset(range(n_vertices))
        for k, s in enumerate(sets):
            if mask >> k & 1:
                common &= s
        sign = 1 if bin(mask).count("1") % 2 else -1
        for i in range(1, len(common) + 1):
            f[i] += sign * comb(len(common), i)
    return [1] + [
        sum(f[i] * comb(b - 1, i - 1) for i in range(1, n_vertices + 1))
        for b in range(1, b_max + 1)
    ]


class Checker:
    """Checks query outputs; caches reference values per ideal and method."""

    def __init__(self, queries: list[Query], outputs: list[tuple[int, str]]):
        self.queries = queries
        self.outputs = outputs
        self._refs: dict[tuple, list[int]] = {}
        # program outputs that can witness another query: (gens, b, method)
        self._witness: dict[tuple, list[int]] = {}
        for q, (rc, out) in zip(queries, outputs):
            if rc != 0:
                continue
            try:
                if q.kind == "eval":
                    self._witness[(q.gens, q.b, used_method(q))] = self._eval_values(out)
                elif q.kind == "table":
                    self._witness[(q.gens, q.b, "table")] = self._table_rows(out)[-1]
            except (ValueError, IndexError):
                pass

    def reference(self, q: Query, b_max: int, exclude: str) -> list[int]:
        gens = q.gens
        if comb(q.arity + b_max, q.arity) <= ORACLE_BUDGET:
            method = "oracle"
        else:
            method = next(m for m in ("syzygy", "table", "lcm") if m != exclude)
        key = (gens, b_max, method)
        if key in self._witness:
            return self._witness[key]
        if key not in self._refs:
            I = MonomialIdeal(q.arity, tuple(Monomial(g) for g in gens))
            if method == "table":
                values = list(engine.hf_table(I, b_max=b_max).rows[-1])
            else:
                values = engine.hf(I, b_max, method=method, enum_cap=ORACLE_BUDGET)
            self._refs[key] = values
        return self._refs[key]

    @staticmethod
    def _eval_values(out: str) -> list[int]:
        lines = out.splitlines()
        return _values_line(lines[1], "HF")

    @staticmethod
    def _table_rows(out: str) -> list[list[int]]:
        rows = []
        for a, line in enumerate(out.splitlines()[1:], start=1):
            head, *values = line.split()
            if head != str(a):
                raise ValueError(f"row {a} starts with {head!r}")
            rows.append([int(v) for v in values])
        return rows

    def check(self, i: int) -> Optional[str]:
        """None when query i answered correctly, else what was wrong."""
        q = self.queries[i]
        rc, out = self.outputs[i]
        if rc != 0:
            return f"exit code {rc}"
        try:
            return getattr(self, f"_check_{q.kind}")(q, out)
        except (ValueError, IndexError) as exc:
            return f"unreadable output: {exc}"

    def _check_eval(self, q: Query, out: str) -> Optional[str]:
        got = self._eval_values(out)
        if got != self.reference(q, q.b, used_method(q)):
            return "values differ from the reference"
        return None

    def _check_table(self, q: Query, out: str) -> Optional[str]:
        rows = self._table_rows(out)
        if len(rows) != q.arity:
            return f"{len(rows)} rows, expected {q.arity}"
        if rows[-1] != self.reference(q, q.b, "table"):
            return "last row differs from the reference"
        return None

    def _check_series(self, q: Query, out: str) -> Optional[str]:
        series_line, expansion_line = out.splitlines()
        coeffs, arity = parse_series(series_line)
        expansion = [int(v) for v in expansion_line.split()]
        if arity != q.arity:
            return f"denominator exponent {arity}, expected {q.arity}"
        lcm_degree = sum(max(col) for col in zip(*q.gens))
        top = max(q.b, lcm_degree)
        ref = self.reference(q, top, "lcm")
        if expansion != ref[: q.b + 1]:
            return "expansion differs from the reference"
        # K(t) = HS(t) * (1 - t)^a, exact up to degree `top` >= deg K
        want = {}
        for d in range(top + 1):
            c = sum((-1) ** j * comb(arity, j) * ref[d - j] for j in range(min(arity, d) + 1))
            if c:
                want[d] = c
        if {d: c for d, c in coeffs.items() if c} != want:
            return "numerator differs from HF * (1 - t)^a"
        return None

    def _check_compare(self, q: Query, out: str) -> Optional[str]:
        return None if out == "AGREE\n" else f"compare printed {out[:40]!r}"

    def _check_sr(self, q: Query, out: str) -> Optional[str]:
        lines = out.splitlines()
        names = q.argv[q.argv.index("--ring") + 1].split(",")
        index = {v: k for k, v in enumerate(names)}
        head, _, listed = lines[0].partition(": ")
        if head != "minimal non-faces":
            raise ValueError(f"bad first line {lines[0]!r}")
        got = {frozenset(index[v] for v in nf.split(",")) for nf in listed.split("; ")}
        if got != set(minimal_nonfaces(q.arity, q.facets)):
            return "minimal non-faces differ from the facet-complement transversals"
        values = _values_line(lines[3], "HF")
        if values != face_count_hf(q.arity, q.facets, q.b):
            return "values differ from the face-count formula"
        return None
