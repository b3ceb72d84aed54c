"""Span tracing of hilbertfn's layers from outside the package.

``Tracer.install`` rebinds the public functions of each module (and the
names other modules imported from it) to wrappers that record a span per
call; ``uninstall`` restores the originals.  Nothing under ``src/`` changes,
and only this process sees the wrappers.  Calls nest strictly, because every
query runs serially on one thread, so a span's self time is its duration
minus the durations of its direct children.

``pascal_F`` and the monomial arithmetic (``lcm``, ``divides``) are not
wrapped: they sit in inner loops, and their time shows in the self time of
whichever layer calls them.
"""

from __future__ import annotations

import json
import time
from array import array
from math import comb

from hilbertfn import cli, engine, kernels, monomial, parser, series, simplicial

# (module, function name, layer) for every wrapped entry point.  A layer
# gathers the self time of all its functions.
LAYERS = (
    (cli, "run", "cli.self"),
    (parser, "parse_ring", "parser.parse"),
    (parser, "parse_ideal", "parser.parse"),
    (parser, "parse_complex", "parser.parse"),
    (parser, "render_monomial", "parser.render"),
    (parser, "render_ideal", "parser.render"),
    (monomial, "minimalize", "monomial.minimalize"),
    (engine, "hf", "engine.hf"),
    (engine, "hf_lcm_lattice", "engine.lattice"),
    (engine, "hf_syzygy", "engine.syzygy"),
    (engine, "hf_table", "engine.table"),
    (engine, "annihilator_decomposition", "engine.annihilator_decomp"),
    (engine, "annihilator_hf", "engine.annihilator_hf"),
    (engine, "hf_oracle", "engine.oracle"),
    (kernels, "count_outside", "kernels.count_outside"),
    (series, "series_numerator", "series.numerator"),
    (series, "expand_series", "series.expand"),
    (series, "render_series", "series.render"),
    (simplicial, "validate_complex", "simplicial.validate"),
    (simplicial, "minimal_nonfaces", "simplicial.nonfaces"),
    (simplicial, "stanley_reisner_ideal", "simplicial.sr_ideal"),
)

# Modules that imported a wrapped function by name and call it through
# their own global, so their binding must be swapped too.
ALIASES = ((engine, "minimalize", monomial),)

COUNTERS = (
    "monomial.minimalize_calls", "monomial.gens_in", "monomial.gens_out",
    "engine.lattice_calls", "engine.lattice_subsets",
    "engine.syzygy_calls", "engine.syzygy_nodes", "engine.syzygy_memo_hits",
    "engine.syzygy_memo_size",
    "engine.annihilator_terms",
    "kernels.calls", "kernels.monomials",
    "series.numerator_calls", "series.numerator_subsets", "series.numerator_coeffs",
    "simplicial.nonfaces_calls", "simplicial.subsets_scanned", "simplicial.nonfaces_found",
)


class Tracer:
    """Records spans (layer, start, end, parent, query) in flat arrays."""

    def __init__(self) -> None:
        self.layer_names = sorted({layer for _, _, layer in LAYERS})
        self._layer_id = {n: i for i, n in enumerate(self.layer_names)}
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.query_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _span(self, layer: str, fn, count=None):
        layer_id = self._layer_id[layer]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.layer.append(layer_id)
            self.parent.append(stack[-1] if stack else -1)
            self.query.append(self.query_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                if count is None:
                    return fn(*args, **kwargs)
                return count(fn, args, kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        counters = {
            "minimalize": self._count_minimalize,
            "hf_lcm_lattice": self._count_lattice,
            "hf_syzygy": self._count_syzygy,
            "annihilator_decomposition": self._count_annihilator,
            "count_outside": self._count_kernel,
            "series_numerator": self._count_numerator,
            "minimal_nonfaces": self._count_nonfaces,
        }
        wrapped = {}
        for module, name, layer in LAYERS:
            fn = getattr(module, name)
            wrapped[(module, name)] = self._span(layer, fn, counters.get(name))
            self._saved.append((module, name, fn))
            setattr(module, name, wrapped[(module, name)])
        for module, name, home in ALIASES:
            self._saved.append((module, name, getattr(module, name)))
            setattr(module, name, wrapped[(home, name)])

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    # -- counters taken at the same boundaries ------------------------------

    def _count_minimalize(self, fn, args, kwargs):
        result = fn(*args, **kwargs)
        c = self.counts
        c["monomial.minimalize_calls"] += 1
        c["monomial.gens_in"] += len(args[0].generators)
        c["monomial.gens_out"] += len(result.generators)
        return result

    def _count_lattice(self, fn, args, kwargs):
        ideal = args[0]
        self.counts["engine.lattice_calls"] += 1
        if not ideal.is_zero:
            self.counts["engine.lattice_subsets"] += 2 ** len(ideal.generators) - 1
        return fn(*args, **kwargs)

    def _count_syzygy(self, fn, args, kwargs):
        stats = kwargs.get("stats")
        if stats is None:
            stats = kwargs["stats"] = {}
        result = fn(*args, **kwargs)
        c = self.counts
        c["engine.syzygy_calls"] += 1
        c["engine.syzygy_nodes"] += stats["misses"]
        c["engine.syzygy_memo_hits"] += stats["hits"]
        c["engine.syzygy_memo_size"] = max(c["engine.syzygy_memo_size"], stats["memo_size"])
        return result

    def _count_annihilator(self, fn, args, kwargs):
        dec = fn(*args, **kwargs)
        self.counts["engine.annihilator_terms"] += len(dec.terms)
        return dec

    def _count_kernel(self, fn, args, kwargs):
        arity, degree = args[0], args[1]
        self.counts["kernels.calls"] += 1
        self.counts["kernels.monomials"] += comb(arity - 1 + degree, degree)
        return fn(*args, **kwargs)

    def _count_numerator(self, fn, args, kwargs):
        num = fn(*args, **kwargs)
        c = self.counts
        c["series.numerator_calls"] += 1
        c["series.numerator_subsets"] += 2 ** len(args[0].generators) - 1
        c["series.numerator_coeffs"] += len(num.coefficients)
        return num

    def _count_nonfaces(self, fn, args, kwargs):
        result = fn(*args, **kwargs)
        c = self.counts
        c["simplicial.nonfaces_calls"] += 1
        c["simplicial.subsets_scanned"] += 2 ** len(args[0].vertices) - 1
        c["simplicial.nonfaces_found"] += len(result)
        return result

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer, over all recorded spans."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = dict.fromkeys(self.layer_names, 0.0)
        for i in range(len(self.start)):
            name = self.layer_names[self.layer[i]]
            totals[name] += self.end[i] - self.start[i] - child[i]
        return totals

    def write(self, path, meta: dict) -> None:
        """Write every span as JSON: one row [layer, start, end, parent, query]."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "layers": self.layer_names,
                    "columns": ["layer", "start", "end", "parent", "query"],
                    "spans": [
                        [self.layer[i], self.start[i], self.end[i], self.parent[i], self.query[i]]
                        for i in range(len(self.start))
                    ],
                    "counts": self.counts,
                },
                fh,
                separators=(",", ":"),
            )
