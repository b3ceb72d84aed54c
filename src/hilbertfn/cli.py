"""Command-line front end.

Subcommands: eval, table, series, compare, bench, sr.  Exit codes:
0 success / agreement, 1 method disagreement (compare), 2 input error
(including a ``--max-degree`` or ``--expand-to`` above ``MAX_DEGREE`` and a
``--max-row`` above ``MAX_ROW``), 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import random
import sys
import time
from typing import Optional, Sequence

from . import engine, parser, series, simplicial
from .errors import ResourceCapError
from .monomial import MAX_DEGREE, MAX_ROW, Monomial, MonomialIdeal, VariableOrder
from .parser import ParseError

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _print_values(values: Sequence[int], fmt: str, meta: dict, out) -> None:
    if fmt == "json":
        doc = dict(meta)
        doc["values"] = [
            {"degree": b, "value": str(v)} for b, v in enumerate(values)
        ]
        print(json.dumps(doc), file=out)
    elif fmt == "csv":
        w = csv.writer(out)
        w.writerow(["degree", "value"])
        for b, v in enumerate(values):
            w.writerow([b, v])
    else:
        print("b  " + " ".join(str(b) for b in range(len(values))), file=out)
        print("HF " + " ".join(str(v) for v in values), file=out)


def _parse_ring_and_ideal(args) -> tuple[list[str], MonomialIdeal]:
    ring = parser.parse_ring(args.ring)
    I = parser.parse_ideal(args.ideal, ring)
    return ring, I


def cmd_eval(args, out) -> int:
    ring, I = _parse_ring_and_ideal(args)
    values = engine.hf(
        I,
        args.max_degree,
        method=args.method,
        enum_cap=args.enum_cap,
        lattice_cap=args.lattice_cap,
    )
    meta = {
        "ring": ring,
        "ideal": [parser.render_monomial(g, ring) for g in I.generators],
        "method": args.method,
    }
    _print_values(values, args.format, meta, out)
    return EXIT_OK


def _variable_order(args, ring: list[str]) -> VariableOrder:
    if not getattr(args, "order", None):
        return VariableOrder.identity(len(ring))
    names = parser.parse_ring(args.order)
    if sorted(names) != sorted(ring):
        raise ParseError(
            "syntax",
            parser.SourceSpan(0, len(args.order)),
            "--order must be a permutation of the ring variables",
        )
    return VariableOrder(tuple(ring.index(n) for n in names))


def cmd_table(args, out) -> int:
    ring, I = _parse_ring_and_ideal(args)
    order = _variable_order(args, ring)
    table = engine.hf_table(I, order=order, a_max=args.max_row, b_max=args.max_degree)
    if args.format == "json":
        doc = {
            "ring": ring,
            "ideal": [parser.render_monomial(g, ring) for g in I.generators],
            "rows": [
                {"a": a, "values": [str(v) for v in row]}
                for a, row in enumerate(table.rows, start=1)
            ],
        }
        print(json.dumps(doc), file=out)
    elif args.format == "csv":
        w = csv.writer(out)
        for a, row in enumerate(table.rows, start=1):
            w.writerow([a, *row])
    else:
        print("a\\b " + " ".join(str(b) for b in range(args.max_degree + 1)), file=out)
        for a, row in enumerate(table.rows, start=1):
            print(f"{a}   " + " ".join(str(v) for v in row), file=out)
    return EXIT_OK


def cmd_series(args, out) -> int:
    if args.expand_to is not None and args.expand_to < 0:
        raise ValueError("--expand-to must be >= 0")
    ring, I = _parse_ring_and_ideal(args)
    num = series.series_numerator(I)
    values = None if args.expand_to is None else series.expand_series(num, args.expand_to)
    if args.format == "json":
        doc = {
            "ring": ring,
            "ideal": [parser.render_monomial(g, ring) for g in I.generators],
            "series": series.render_series(num),
            "numerator": [
                {"degree": d, "coefficient": str(c)} for d, c in num.coefficients
            ],
        }
        if values is not None:
            doc["values"] = [{"degree": b, "value": str(v)} for b, v in enumerate(values)]
        print(json.dumps(doc), file=out)
    elif args.format == "csv":
        w = csv.writer(out)
        w.writerow(["part", "degree", "value"])
        w.writerows(("numerator", d, c) for d, c in num.coefficients)
        w.writerows(("hf", b, v) for b, v in enumerate(values or ()))
    else:
        print(series.render_series(num), file=out)
        if values is not None:
            print(" ".join(str(v) for v in values), file=out)
    return EXIT_OK


def cmd_compare(args, out) -> int:
    ring, I = _parse_ring_and_ideal(args)
    results = {}
    for method in ("oracle", "lcm", "syzygy", "table"):
        results[method] = engine.hf(
            I,
            args.max_degree,
            method=method,
            enum_cap=args.enum_cap,
            lattice_cap=args.lattice_cap,
        )
    reference = results["oracle"]
    if all(v == reference for v in results.values()):
        print("AGREE", file=out)
        return EXIT_OK
    print("DISAGREE", file=out)
    print("b " + " ".join(f"{m:>8}" for m in results), file=out)
    for b in range(args.max_degree + 1):
        row = [results[m][b] for m in results]
        marker = "" if len(set(row)) == 1 else "  <-- differs"
        print(f"{b} " + " ".join(f"{v:>8}" for v in row) + marker, file=out)
    return EXIT_DISAGREE


def _random_ideal(rng: random.Random, arity: int, n_gens: int, max_exp: int = 6) -> MonomialIdeal:
    gens = []
    while len(gens) < n_gens:
        exps = tuple(rng.randint(0, max_exp) for _ in range(arity))
        if sum(exps) == 0:
            continue
        gens.append(Monomial(exps))
    return MonomialIdeal(arity, tuple(gens))


def _bench_cases(seed: int) -> list[tuple[int, MonomialIdeal]]:
    rng = random.Random(seed)
    cases = []
    for arity in (3, 4, 5, 6):
        for n_gens in (2, 4, 8, 12, 16):
            cases.append((arity, _random_ideal(rng, arity, n_gens)))
    return cases


def cmd_bench(args, out) -> int:
    if args.repetitions < 1:
        raise ValueError("--repetitions must be >= 1")
    b_max = args.max_degree
    records = []
    for rep in range(args.repetitions):
        for case_id, (arity, I) in enumerate(_bench_cases(args.seed)):
            ring = [f"x{i + 1}" for i in range(arity)]
            entry = {
                "case": case_id,
                "repetition": rep,
                "arity": arity,
                "generators": len(I.generators),
                "ideal": parser.render_ideal(I, ring),
                "subsets": 2 ** len(I.generators) - 1,
                "methods": {},
            }
            for method in ("lcm", "syzygy", "table"):
                info: dict = {}
                stats: dict = {}
                t0 = time.perf_counter()
                try:
                    if method == "syzygy":
                        values = engine.hf_syzygy(I, b_max, stats=stats)
                    else:
                        values = engine.hf(
                            I, b_max, method=method, lattice_cap=args.lattice_cap
                        )
                    info["seconds"] = time.perf_counter() - t0
                    info["values"] = [str(v) for v in values]
                    if stats:
                        info["memo_size"] = stats["memo_size"]
                        info["memo_hits"] = stats["hits"]
                except ResourceCapError as exc:
                    info["error"] = str(exc)
                entry["methods"][method] = info
            records.append(entry)
    report = {"seed": args.seed, "max_degree": b_max, "cases": records}
    if args.format == "json":
        print(json.dumps(report), file=out)
    elif args.format == "csv":
        w = csv.writer(out)
        w.writerow(["case", "repetition", "arity", "generators", "method", "seconds", "ok"])
        for entry in records:
            for method, info in entry["methods"].items():
                w.writerow(
                    [
                        entry["case"],
                        entry["repetition"],
                        entry["arity"],
                        entry["generators"],
                        method,
                        info.get("seconds", ""),
                        "error" not in info,
                    ]
                )
    else:
        for entry in records:
            head = f"case {entry['case']} arity={entry['arity']} gens={entry['generators']}"
            for method, info in entry["methods"].items():
                if "error" in info:
                    print(f"{head} {method}: capped ({info['error']})", file=out)
                else:
                    extra = (
                        f" memo={info['memo_size']} hits={info['memo_hits']}"
                        if "memo_size" in info
                        else ""
                    )
                    print(f"{head} {method}: {info['seconds']:.4f}s{extra}", file=out)
    return EXIT_OK


def cmd_sr(args, out) -> int:
    ring = parser.parse_ring(args.ring)
    complex_ = parser.parse_complex(args.facets, ring)
    violations = simplicial.validate_complex(complex_)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_INPUT
    nonfaces = simplicial.minimal_nonfaces(complex_)
    I = simplicial.nonface_ideal(complex_.vertices, nonfaces)
    values = engine.hf(I, args.max_degree, method="auto")
    if args.format == "json":
        doc = {
            "ring": ring,
            "minimal_nonfaces": [list(nf) for nf in nonfaces],
            "ideal": [parser.render_monomial(g, ring) for g in I.generators],
            "values": [{"degree": b, "value": str(v)} for b, v in enumerate(values)],
        }
        print(json.dumps(doc), file=out)
        return EXIT_OK
    if args.format == "plain":
        print(
            "minimal non-faces: "
            + "; ".join(",".join(nf) for nf in nonfaces),
            file=out,
        )
        print("ideal: " + parser.render_ideal(I, ring), file=out)
    _print_values(values, args.format, {}, out)
    return EXIT_OK


def _add_common(sub, *, degree=True, caps=False) -> None:
    """Ring, ideal and format flags; ``caps`` adds the two method caps, for
    the subcommands whose methods read them."""
    sub.add_argument("--ring", required=True, help="comma-separated variables")
    sub.add_argument("--ideal", required=True, help="comma-separated generators")
    if degree:
        sub.add_argument("--max-degree", type=int, default=10)
    sub.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    if caps:
        sub.add_argument("--enum-cap", type=int, default=engine.ENUM_CAP_DEFAULT)
        sub.add_argument("--lattice-cap", type=int, default=engine.LATTICE_CAP_DEFAULT)


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    :func:`run`."""
    p = argparse.ArgumentParser(
        prog="hilbertfn",
        description="Hilbert functions and series of monomial quotient rings",
    )
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("eval", help="HF sequence of a quotient ring")
    _add_common(s, caps=True)
    s.add_argument(
        "--method",
        choices=("oracle", "lcm", "syzygy", "table", "auto"),
        default="auto",
    )
    s.set_defaults(func=cmd_eval)

    s = subs.add_parser("table", help="Hilbert function table")
    _add_common(s)
    s.add_argument("--max-row", type=int, required=True)
    s.add_argument("--order", help="variable introduction order (default: ring order)")
    s.set_defaults(func=cmd_table)

    s = subs.add_parser("series", help="Hilbert series as a rational function")
    _add_common(s, degree=False)
    s.add_argument("--expand-to", type=int, default=None)
    s.set_defaults(func=cmd_series)

    s = subs.add_parser("compare", help="run all four methods and diff")
    _add_common(s, caps=True)
    s.set_defaults(func=cmd_compare)

    s = subs.add_parser("bench", help="benchmark the methods on generated ideals")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--repetitions", type=int, default=1)
    s.add_argument("--max-degree", type=int, default=10)
    s.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    s.add_argument("--lattice-cap", type=int, default=engine.LATTICE_CAP_DEFAULT)
    s.set_defaults(func=cmd_bench)

    s = subs.add_parser("sr", help="Stanley-Reisner pipeline from a facet list")
    s.add_argument("--ring", required=True, help="comma-separated vertex names")
    s.add_argument("--facets", required=True, help="semicolon-separated facets")
    s.add_argument("--max-degree", type=int, default=10)
    s.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    s.set_defaults(func=cmd_sr)

    return p


def _check_degree_bounds(args) -> None:
    for flag, bound in (
        ("max_degree", MAX_DEGREE),
        ("expand_to", MAX_DEGREE),
        ("max_row", MAX_ROW),
    ):
        value = getattr(args, flag, None)
        if value is not None and value > bound:
            name = "--" + flag.replace("_", "-")
            raise ValueError(f"{name} {value} exceeds supported bound {bound}")


def run(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_arg_parser().parse_args(argv)
    try:
        _check_degree_bounds(args)
        return args.func(args, out)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
