"""Command-line front end.

Subcommands: eval, table, series, compare, bench, sr.  Exit codes:
0 success / agreement, 1 method disagreement (compare), 2 input error,
3 resource cap exceeded.  Every integer flag but ``--seed`` declares its
range: ``--max-degree`` and ``--expand-to`` 0..``MAX_DEGREE``,
``--max-row`` 1..``MAX_ROW``, ``--enum-cap`` and ``--lattice-cap`` >= 0,
``--repetitions`` >= 1.  argparse refuses a value outside it, like any other
bad flag value, with exit code 2 before any work.

argparse is the only grammar.  A subcommand followed only by its own flags
is read by that subcommand's parser in one pass; any other argv goes through
the full parser, so help, usage lines and error messages are argparse's own.

``json``, ``csv`` and ``random`` are imported where they are used, by
``--format json|csv`` and ``bench``, so other commands never load them.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import TYPE_CHECKING, Optional, Sequence

from . import engine, parser, series, simplicial
from .errors import ResourceCapError
from .monomial import Monomial, MonomialIdeal, VariableOrder
from .parser import ParseError

if TYPE_CHECKING:
    import random

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_INPUT = 2
EXIT_CAP = 3

# Largest degree bound (--max-degree, --expand-to) the command line accepts.
MAX_DEGREE = 10**5
# Largest table row count (--max-row) the command line accepts: it bounds the
# rows printed, each of --max-degree + 1 values that grow with the row.
MAX_ROW = 1000


def _print_values(values: Sequence[int], fmt: str, meta: dict, out) -> None:
    if fmt == "json":
        import json

        doc = dict(meta)
        doc["values"] = [
            {"degree": b, "value": str(v)} for b, v in enumerate(values)
        ]
        print(json.dumps(doc), file=out)
    elif fmt == "csv":
        import csv

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
    meta = {}
    if args.format == "json":
        meta = {
            "ring": ring,
            "ideal": [parser.render_monomial(g, ring) for g in I.generators],
            "method": args.method,
        }
    _print_values(values, args.format, meta, out)
    return EXIT_OK


def _variable_order(args, ring: list[str]) -> VariableOrder:
    if not args.order:
        return VariableOrder.identity(len(ring))
    names = parser.parse_ring(args.order)
    if sorted(names) != sorted(ring):
        raise ParseError(
            "syntax",
            parser.SourceSpan(0, len(args.order)),
            "--order must be a permutation of the ring variables",
        )
    position = {name: i for i, name in enumerate(ring)}
    return VariableOrder(tuple(position[n] for n in names))


def cmd_table(args, out) -> int:
    ring, I = _parse_ring_and_ideal(args)
    order = _variable_order(args, ring)
    table = engine.hf_table(I, order=order, a_max=args.max_row, b_max=args.max_degree)
    if args.format == "json":
        import json

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
        import csv

        w = csv.writer(out)
        for a, row in enumerate(table.rows, start=1):
            w.writerow([a, *row])
    else:
        print("a\\b " + " ".join(str(b) for b in range(args.max_degree + 1)), file=out)
        for a, row in enumerate(table.rows, start=1):
            print(f"{a}   " + " ".join(str(v) for v in row), file=out)
    return EXIT_OK


def cmd_series(args, out) -> int:
    ring, I = _parse_ring_and_ideal(args)
    num = series.series_numerator(I)
    values = None if args.expand_to is None else series.expand_series(num, args.expand_to)
    if args.format == "json":
        import json

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
        import csv

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
    import random

    rng = random.Random(seed)
    cases = []
    for arity in (3, 4, 5, 6):
        for n_gens in (2, 4, 8, 12, 16):
            cases.append((arity, _random_ideal(rng, arity, n_gens)))
    return cases


def cmd_bench(args, out) -> int:
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
                        info["memo_nodes"] = stats["nodes"]
                except ResourceCapError as exc:
                    info["error"] = str(exc)
                entry["methods"][method] = info
            records.append(entry)
    report = {"seed": args.seed, "max_degree": b_max, "cases": records}
    if args.format == "json":
        import json

        print(json.dumps(report), file=out)
    elif args.format == "csv":
        import csv

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
                        f" nodes={info['memo_nodes']}"
                        if "memo_size" in info
                        else ""
                    )
                    print(f"{head} {method}: {info['seconds']:.4f}s{extra}", file=out)
    return EXIT_OK


def cmd_sr(args, out) -> int:
    ring = parser.parse_ring(args.ring)
    complex_ = parser.parse_complex(args.facets, ring)
    try:
        nonfaces = simplicial.minimal_nonfaces(complex_)
    except simplicial.InvalidComplexError as exc:
        for v in exc.violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_INPUT
    I = simplicial.nonface_ideal(complex_.vertices, nonfaces)
    values = engine.hf(I, args.max_degree, method="auto")
    meta = {}
    if args.format == "json":
        meta = {
            "ring": ring,
            "minimal_nonfaces": [list(nf) for nf in nonfaces],
            "ideal": [parser.render_monomial(g, ring) for g in I.generators],
        }
    elif args.format == "plain":
        print(
            "minimal non-faces: "
            + "; ".join(",".join(nf) for nf in nonfaces),
            file=out,
        )
        print("ideal: " + parser.render_ideal(I, ring), file=out)
    _print_values(values, args.format, meta, out)
    return EXIT_OK


def _bounded(low: int, high: Optional[int] = None):
    """An argparse ``type`` for an integer flag in low..high, unbounded above
    when ``high`` is None: argparse refuses any other value with exit code 2
    and a message that names the flag."""

    def in_range(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    # argparse names the type in its message for a non-integer
    in_range.__name__ = "int"
    return in_range


def _add_common(sub, *, degree=True, caps=False) -> None:
    """Ring and ideal flags; ``caps`` adds the two method caps, for the
    subcommands whose methods read them."""
    sub.add_argument("--ring", required=True, help="comma-separated variables")
    sub.add_argument("--ideal", required=True, help="comma-separated generators")
    if degree:
        sub.add_argument("--max-degree", type=_bounded(0, MAX_DEGREE), default=10)
    if caps:
        sub.add_argument("--enum-cap", type=_bounded(0), default=engine.ENUM_CAP_DEFAULT)
        sub.add_argument("--lattice-cap", type=_bounded(0), default=engine.LATTICE_CAP_DEFAULT)


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    :func:`run`."""
    p = argparse.ArgumentParser(
        prog="hilbertfn",
        description="Hilbert functions and series of monomial quotient rings",
    )
    subs = p.add_subparsers(dest="command", required=True)
    # the output format, for every subcommand that renders values
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("plain", "csv", "json"), default="plain")

    s = subs.add_parser("eval", help="HF sequence of a quotient ring", parents=[fmt])
    _add_common(s, caps=True)
    s.add_argument(
        "--method",
        choices=("oracle", "lcm", "syzygy", "table", "auto"),
        default="auto",
    )
    s.set_defaults(func=cmd_eval)

    s = subs.add_parser("table", help="Hilbert function table", parents=[fmt])
    _add_common(s)
    s.add_argument("--max-row", type=_bounded(1, MAX_ROW), required=True)
    s.add_argument("--order", help="variable introduction order (default: ring order)")
    s.set_defaults(func=cmd_table)

    s = subs.add_parser("series", help="Hilbert series as a rational function", parents=[fmt])
    _add_common(s, degree=False)
    s.add_argument("--expand-to", type=_bounded(0, MAX_DEGREE), default=None)
    s.set_defaults(func=cmd_series)

    s = subs.add_parser("compare", help="run all four methods and diff")
    _add_common(s, caps=True)
    s.set_defaults(func=cmd_compare)

    s = subs.add_parser("bench", help="benchmark the methods on generated ideals", parents=[fmt])
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--repetitions", type=_bounded(1), default=1)
    s.add_argument("--max-degree", type=_bounded(0, MAX_DEGREE), default=10)
    s.add_argument("--lattice-cap", type=_bounded(0), default=engine.LATTICE_CAP_DEFAULT)
    s.set_defaults(func=cmd_bench)

    s = subs.add_parser("sr", help="Stanley-Reisner pipeline from a facet list", parents=[fmt])
    s.add_argument("--ring", required=True, help="comma-separated vertex names")
    s.add_argument("--facets", required=True, help="semicolon-separated facets")
    s.add_argument("--max-degree", type=_bounded(0, MAX_DEGREE), default=10)
    s.set_defaults(func=cmd_sr)

    return p


def _parse_argv(argv: Sequence[str]) -> argparse.Namespace:
    """Parse ``argv`` as :func:`build_arg_parser`'s ``parse_args`` would.

    A subcommand followed only by its own flags is read by that subcommand's
    parser alone, the one ``add_subparsers`` registered, starting from
    ``Namespace(command=argv[0])``: the top-level parser would hand it the
    same ``argv[1:]`` and add nothing. Every other argv (empty, no subcommand
    first, a ``--``, or arguments the subcommand leaves over) goes through
    the full parser, so its help, usage and error output are unchanged.
    """
    top = build_arg_parser()
    if argv and "--" not in argv:
        sub = top._subparsers._group_actions[0].choices.get(argv[0])
        if sub is not None:
            args, extras = sub.parse_known_args(
                argv[1:], argparse.Namespace(command=argv[0])
            )
            if not extras:
                return args
    return top.parse_args(argv)


def run(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Run one command and return its exit code.

    ``argv`` defaults to ``sys.argv[1:]`` and is parsed by
    :func:`_parse_argv`. argparse reports a rejected argv (exit code 2) and
    ``--help`` (exit code 0) by raising ``SystemExit``; ``run`` returns that
    code instead, so an in-process caller always gets a code and
    :func:`main` exits with it.
    """
    out = out if out is not None else sys.stdout
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args, out)
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
