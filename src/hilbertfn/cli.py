"""Command-line front end.

Subcommands: eval, table, series, compare, bench, sr.  Exit codes:
0 success / agreement, 1 method disagreement (compare), 2 input error,
3 resource cap exceeded.  Every integer flag but ``--seed`` declares its
range: ``--max-degree`` and ``--expand-to`` 0..``MAX_DEGREE``,
``--max-row`` 1..``MAX_ROW``, ``--enum-cap`` and ``--lattice-cap`` >= 0,
``--repetitions`` 1..``MAX_REPETITIONS``.  argparse refuses a value outside
it, like any other bad flag value, with exit code 2 before any work.  Three
products of two flags are refused with exit code 3 after the input is read
and before any work: a ``table`` of more than ``MAX_TABLE_VALUES`` values,
``--max-row`` times ``--max-degree`` + 1; an expansion in ``eval``,
``series`` or ``compare`` of more than ``MAX_EXPANSION`` terms, the ring's
arity times ``--max-degree`` (or ``--expand-to``) + 1; and a ``bench`` of
more than ``MAX_BENCH_VALUES`` values, ``--repetitions`` times
``--max-degree`` + 1.

argparse is the only grammar.  A subcommand followed only by its own flags
is read by that subcommand's parser in one pass; any other argv goes through
the full parser, so help, usage lines and error messages are argparse's own.

Every command but ``compare`` prints its result through one writer,
:func:`_write`.  The command hands it one zero-argument builder per format:
the JSON document, the csv rows or the plain lines; the writer calls only
the builder for ``--format``, so a result is rendered in that format alone.
Only the writer imports ``json`` and ``csv``, and only ``_bench_cases``
imports ``random``, each where it is used, so other commands never load
them.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Optional, Sequence

from . import engine, parser, series, simplicial
from .errors import ResourceCapError
from .monomial import Monomial, MonomialIdeal, VariableOrder
from .parser import ParseError

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_INPUT = 2
EXIT_CAP = 3

# Largest degree bound (--max-degree, --expand-to) the command line accepts.
MAX_DEGREE = 10**5
# Largest table row count (--max-row) the command line accepts: it bounds the
# rows printed, each of --max-degree + 1 values that grow with the row.
MAX_ROW = 1000
# Largest table the command line builds, in values: --max-row rows of
# --max-degree + 1 values each.  It bounds the work and the output, which
# the two flags' ranges do not bound together.
MAX_TABLE_VALUES = 10**5
# Largest series expansion eval, series and compare compute: the ring's
# arity times --max-degree (or --expand-to) + 1, the big-int additions of one
# expansion, which the two ranges do not bound together.
MAX_EXPANSION = 10**6
# Largest bench --repetitions: each repetition reruns every case.
MAX_REPETITIONS = 100
# Largest bench run, in values per case and method: --repetitions times
# --max-degree + 1.  bench keeps every value of every repetition.
MAX_BENCH_VALUES = 5_000


def _write(fmt: str, out, *, json, csv, plain) -> None:
    r"""Print one result to ``out`` in ``fmt``, built by that format's builder
    alone: ``json()`` returns the document, printed on one line; ``csv()``
    the rows, written by a ``csv.writer`` (``\r\n`` line ends); ``plain()``
    the lines."""
    if fmt == "json":
        import json as json_module

        print(json_module.dumps(json()), file=out)
    elif fmt == "csv":
        import csv as csv_module

        csv_module.writer(out).writerows(csv())
    else:
        for line in plain():
            print(line, file=out)


def _echo(ring: list[str], I: MonomialIdeal, **between) -> dict:
    """The JSON head that echoes the input: ``"ring"``, then ``between``'s
    keys, then ``"ideal"``, its generators rendered one by one."""
    return {
        "ring": ring,
        **between,
        "ideal": [parser.render_monomial(g, ring) for g in I.generators],
    }


def _value_docs(values: Sequence[int]) -> list[dict]:
    """HF values for JSON, as decimal strings so that no consumer that reads
    numbers as doubles rounds them."""
    return [{"degree": b, "value": str(v)} for b, v in enumerate(values)]


def _write_values(fmt: str, out, values: Sequence[int], head, lines=tuple) -> None:
    """Print HF values: after ``head()``'s keys in JSON, as ``degree,value``
    rows in csv, and as the ``b``/``HF`` lines after ``lines()`` in plain."""
    _write(
        fmt,
        out,
        json=lambda: {**head(), "values": _value_docs(values)},
        csv=lambda: [("degree", "value"), *enumerate(values)],
        plain=lambda: [
            *lines(),
            "b  " + " ".join(str(b) for b in range(len(values))),
            "HF " + " ".join(str(v) for v in values),
        ],
    )


def _parse_ring_and_ideal(args) -> tuple[list[str], MonomialIdeal]:
    ring = parser.parse_ring(args.ring)
    I = parser.parse_ideal(args.ideal, ring)
    return ring, I


def _check_expansion(ring: list[str], degree: int) -> None:
    """Refuse an expansion of ``ring``'s series up to ``degree`` past
    ``MAX_EXPANSION`` terms."""
    size = len(ring) * (degree + 1)
    if size > MAX_EXPANSION:
        raise ResourceCapError(f"an expansion of {size} terms exceeds cap {MAX_EXPANSION}")


def cmd_eval(args, out) -> int:
    ring, I = _parse_ring_and_ideal(args)
    _check_expansion(ring, args.max_degree)
    values = engine.hf(
        I,
        args.max_degree,
        method=args.method,
        enum_cap=args.enum_cap,
        lattice_cap=args.lattice_cap,
    )
    _write_values(args.format, out, values, lambda: {**_echo(ring, I), "method": args.method})
    return EXIT_OK


def _variable_order(args, ring: list[str]) -> VariableOrder:
    if args.order is None:
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
    size = args.max_row * (args.max_degree + 1)
    if size > MAX_TABLE_VALUES:
        raise ResourceCapError(f"a table of {size} values exceeds cap {MAX_TABLE_VALUES}")
    table = engine.hf_table(I, order=order, a_max=args.max_row, b_max=args.max_degree)
    # read once, by the one builder that runs
    rows = enumerate(table.rows, start=1)
    _write(
        args.format,
        out,
        json=lambda: {
            **_echo(ring, I),
            "rows": [{"a": a, "values": [str(v) for v in row]} for a, row in rows],
        },
        csv=lambda: ([a, *row] for a, row in rows),
        plain=lambda: [
            "a\\b " + " ".join(str(b) for b in range(args.max_degree + 1)),
            *(f"{a}   " + " ".join(str(v) for v in row) for a, row in rows),
        ],
    )
    return EXIT_OK


def cmd_series(args, out) -> int:
    ring, I = _parse_ring_and_ideal(args)
    if args.expand_to is not None:
        _check_expansion(ring, args.expand_to)
    num = series.series_numerator(I)
    values = None if args.expand_to is None else series.expand_series(num, args.expand_to)
    _write(
        args.format,
        out,
        json=lambda: {
            **_echo(ring, I),
            "series": series.render_series(num),
            "numerator": [{"degree": d, "coefficient": str(c)} for d, c in num.coefficients],
            **({} if values is None else {"values": _value_docs(values)}),
        },
        csv=lambda: [
            ("part", "degree", "value"),
            *(("numerator", d, c) for d, c in num.coefficients),
            *(("hf", b, v) for b, v in enumerate(values or ())),
        ],
        plain=lambda: [
            series.render_series(num),
            *(() if values is None else [" ".join(str(v) for v in values)]),
        ],
    )
    return EXIT_OK


def cmd_compare(args, out) -> int:
    ring, I = _parse_ring_and_ideal(args)
    _check_expansion(ring, args.max_degree)
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


def _bench_cases(seed: int) -> list[MonomialIdeal]:
    """Five ideals for each arity 3..6, with 2, 4, 8, 12 and 16 generators
    of exponents 0..6 drawn from ``random.Random(seed)``."""
    import random

    rng = random.Random(seed)
    cases = []
    for arity in (3, 4, 5, 6):
        for n_gens in (2, 4, 8, 12, 16):
            gens = []
            while len(gens) < n_gens:
                exps = tuple(rng.randint(0, 6) for _ in range(arity))
                if any(exps):
                    gens.append(Monomial(exps))
            cases.append(MonomialIdeal(arity, tuple(gens)))
    return cases


def _bench_line(entry: dict, method: str, info: dict) -> str:
    head = f"case {entry['case']} arity={entry['arity']} gens={entry['generators']} {method}"
    if "error" in info:
        return f"{head}: capped ({info['error']})"
    extra = (
        f" memo={info['memo_size']} hits={info['memo_hits']} nodes={info['memo_nodes']}"
        if "memo_size" in info
        else ""
    )
    return f"{head}: {info['seconds']:.4f}s{extra}"


def cmd_bench(args, out) -> int:
    b_max = args.max_degree
    size = args.repetitions * (b_max + 1)
    if size > MAX_BENCH_VALUES:
        raise ResourceCapError(
            f"a bench of {size} values per case and method exceeds cap {MAX_BENCH_VALUES}"
        )
    records = []
    for rep in range(args.repetitions):
        for case_id, I in enumerate(_bench_cases(args.seed)):
            ring = [f"x{i + 1}" for i in range(I.arity)]
            entry = {
                "case": case_id,
                "repetition": rep,
                "arity": I.arity,
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
    runs = [(e, m, info) for e in records for m, info in e["methods"].items()]
    _write(
        args.format,
        out,
        json=lambda: {"seed": args.seed, "max_degree": b_max, "cases": records},
        csv=lambda: [
            ("case", "repetition", "arity", "generators", "method", "seconds", "ok"),
            *(
                (
                    e["case"], e["repetition"], e["arity"], e["generators"], m,
                    info.get("seconds", ""), "error" not in info,
                )
                for e, m, info in runs
            ),
        ],
        plain=lambda: (_bench_line(e, m, info) for e, m, info in runs),
    )
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
    _write_values(
        args.format,
        out,
        values,
        lambda: _echo(ring, I, minimal_nonfaces=[list(nf) for nf in nonfaces]),
        lambda: [
            "minimal non-faces: " + "; ".join(",".join(nf) for nf in nonfaces),
            "ideal: " + parser.render_ideal(I, ring),
        ],
    )
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
    s.add_argument("--repetitions", type=_bounded(1, MAX_REPETITIONS), default=1)
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
