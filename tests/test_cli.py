import argparse
import ast
import contextlib
import csv
import io
import itertools
import json
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilbertfn import cli, engine, parser, simplicial
from hilbertfn.cli import MAX_DEGREE, MAX_ROW
from hilbertfn.monomial import VariableOrder, ideal
from hilbertfn.pascal import pascal_F


def run(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    return code, out.getvalue()


class TestEval:
    def test_plain(self):
        code, text = run(
            "eval", "--ring", "x,y,z", "--ideal", "x^2,y^3", "--max-degree", "5"
        )
        assert code == 0
        assert text.splitlines()[1] == "HF 1 3 5 6 6 6"

    def test_json_values_are_decimal_strings(self):
        code, text = run(
            "eval",
            "--ring", "x,y,z",
            "--ideal", "x*z, y*z, x^2*y",
            "--max-degree", "4",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(text)
        assert list(doc) == ["ring", "ideal", "method", "values"]
        assert doc["ring"] == ["x", "y", "z"]
        assert doc["ideal"] == ["x*z", "y*z", "x^2*y"]
        assert doc["method"] == "auto"
        assert [int(v["value"]) for v in doc["values"]] == [1, 3, 4, 4, 4]
        assert all(isinstance(v["value"], str) for v in doc["values"])

    def test_csv(self):
        code, text = run(
            "eval", "--ring", "x", "--ideal", "x^3", "--max-degree", "4",
            "--format", "csv",
        )
        assert code == 0
        rows = [line.split(",") for line in text.strip().splitlines()]
        assert rows[0] == ["degree", "value"]
        assert [r[1] for r in rows[1:]] == ["1", "1", "1", "0", "0"]

    def test_explicit_method(self):
        for method in ("oracle", "lcm", "syzygy", "table"):
            code, text = run(
                "eval", "--ring", "x,y,z", "--ideal", "x^2,y^3",
                "--max-degree", "3", "--method", method,
            )
            assert code == 0
            assert text.splitlines()[1] == "HF 1 3 5 6", method

    def test_oracle_on_a_ring_wider_than_the_recursion_limit(self):
        ring = ",".join(f"x{i}" for i in range(1200))
        outputs = []
        for method in ("oracle", "syzygy"):
            code, text = run(
                "eval", "--ring", ring, "--ideal", "x1*x1199, x5",
                "--max-degree", "1", "--method", method, "--format", "json",
            )
            assert code == 0, method
            outputs.append(json.loads(text)["values"])
        assert outputs[0] == outputs[1]
        code, text = run("compare", "--ring", ring, "--ideal", "x1*x1199, x5", "--max-degree", "1")
        assert (code, text.strip()) == (0, "AGREE")

    def test_parse_error_exit_code(self, capsys):
        for ideal, span in (
            ("x^2, q", "(at 5..6)"),
            ("x^1000001", "(at 0..9)"),
            ("x^600000*x^600000", "(at 9..17)"),
            ("x^\u00b2", "(at 1..3)"),
            ("x^\u0663", "(at 1..3)"),
            ("x^" + "9" * 5000, "(at 0..5002)"),
        ):
            code, _ = run("eval", "--ring", "x,y", "--ideal", ideal)
            assert code == cli.EXIT_INPUT, ideal
            assert span in capsys.readouterr().err, ideal

    def test_degree_bound(self, capsys):
        argv = ["eval", "--ring", "x", "--ideal", "x", "--method", "oracle"]
        code, text = run(*argv, "--max-degree", "100000000")
        assert (code, text) == (cli.EXIT_INPUT, "")
        code, text = run(*argv, "--max-degree", str(MAX_DEGREE))
        assert code == 0
        assert text.splitlines()[1] == "HF 1" + " 0" * MAX_DEGREE
        capsys.readouterr()
        over = str(MAX_DEGREE + 1)
        ideal = ["--ring", "x,y", "--ideal", "x^2"]
        # every bound is argparse's, so the message names the flag
        for flag, rejected in (
            ("--max-degree", ["eval", *ideal, "--max-degree", "-1"]),
            ("--max-degree", ["table", *ideal, "--max-row", "2", "--max-degree", over]),
            ("--max-degree", ["table", *ideal, "--max-row", "2", "--max-degree", "-1"]),
            ("--max-degree", ["compare", *ideal, "--max-degree", over]),
            ("--max-degree", ["compare", *ideal, "--max-degree", "-1"]),
            ("--expand-to", ["series", *ideal, "--expand-to", over]),
            ("--expand-to", ["series", *ideal, "--expand-to", "-1"]),
            ("--max-degree", ["sr", "--ring", "x,y", "--facets", "x; y", "--max-degree", over]),
            ("--max-degree", ["sr", "--ring", "x,y", "--facets", "x; y", "--max-degree", "-1"]),
            ("--max-degree", ["bench", "--max-degree", over]),
            ("--max-degree", ["bench", "--max-degree", "-1"]),
            ("--max-row", ["table", *ideal, "--max-row", "0"]),
            ("--max-row", ["table", *ideal, "--max-row", str(MAX_ROW + 1)]),
            ("--repetitions", ["bench", "--repetitions", "0"]),
        ):
            assert run(*rejected) == (cli.EXIT_INPUT, ""), rejected
            assert f"argument {flag}" in capsys.readouterr().err, rejected
        # refused before the complex is read: no violation is reported
        assert run("sr", "--ring", "a,b", "--facets", "a", "--max-degree", "-1") == (
            cli.EXIT_INPUT, ""
        )
        err = capsys.readouterr().err
        assert "argument --max-degree" in err and "violation:" not in err
        # a non-integer reads as for a plain int flag
        assert run("table", *ideal, "--max-row", "2.5") == (cli.EXIT_INPUT, "")
        assert "argument --max-row: invalid int value: '2.5'" in capsys.readouterr().err

    def test_cap_exit_code(self):
        code, _ = run(
            "eval", "--ring", "x,y", "--ideal", "x^2,y^2",
            "--max-degree", "9", "--enum-cap", "5", "--method", "oracle",
        )
        assert code == cli.EXIT_CAP

    def test_enum_cap_boundary_is_the_prefix_count(self, capsys):
        # the oracle walks F(a, b) prefixes: a cap of exactly that many runs,
        # one less refuses, for eval and compare alike
        for ring, gens, b in (
            ("x", "x^3", 4),
            ("x,y", "x^2*y, y^3", 5),
            ("x,y,z", "x*z, y*z, x^2*y", 6),
            ("x,y,z,w", "x^2, y*w, z^3*w", 5),
            ("v,w,x,y,z", "v*w, x^2*y, z^2", 4),
        ):
            work = pascal_F(len(ring.split(",")), b)
            base = ["--ring", ring, "--ideal", gens, "--max-degree", str(b)]
            for argv in (["eval", *base, "--method", "oracle"], ["compare", *base]):
                assert run(*argv, "--enum-cap", str(work))[0] == cli.EXIT_OK, argv
                code, text = run(*argv, "--enum-cap", str(work - 1))
                assert (code, text) == (cli.EXIT_CAP, ""), argv
                err = capsys.readouterr().err
                assert f"enumeration of {work} monomials exceeds cap {work - 1}" in err, argv

    def test_negative_caps_are_input_errors(self, capsys):
        base = ["--ring", "x,y", "--ideal", "x^2,y^2", "--max-degree", "3"]
        for flag, argv in (
            ("--enum-cap", ["eval", *base, "--enum-cap", "-1", "--method", "oracle"]),
            ("--lattice-cap", ["eval", *base, "--lattice-cap", "-1", "--method", "lcm"]),
            ("--lattice-cap", ["eval", *base, "--lattice-cap", "-5"]),
            ("--enum-cap", ["compare", *base, "--enum-cap", "-1"]),
            ("--lattice-cap", ["compare", *base, "--lattice-cap", "-1"]),
            ("--lattice-cap", ["bench", "--max-degree", "3", "--lattice-cap", "-1"]),
        ):
            assert run(*argv) == (cli.EXIT_INPUT, ""), argv
            assert f"argument {flag}: must be >= 0" in capsys.readouterr().err, argv

    def test_zero_caps_are_caps(self):
        base = ["eval", "--ring", "x,y", "--ideal", "x^2,y^2", "--max-degree", "3"]
        assert run(*base, "--enum-cap", "0", "--method", "oracle")[0] == cli.EXIT_CAP
        assert run(*base, "--lattice-cap", "0", "--method", "lcm")[0] == cli.EXIT_CAP
        code, text = run(*base, "--lattice-cap", "0", "--enum-cap", "0")
        assert code == 0 and text.splitlines()[1] == "HF 1 2 1 0"


class TestTable:
    def test_rows(self):
        code, text = run(
            "table",
            "--ring", "y,x,z",
            "--ideal", "y^6, x^3*y^5, x^2*y^2*z^2, x^3*z, x^2*y*z^3",
            "--max-row", "3",
            "--max-degree", "9",
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[1].split() == ["1"] + ["1"] * 6 + ["0", "0", "0", "0"]
        assert lines[2].split()[1:] == "1 2 3 4 5 6 6 6 5 5".split()
        assert lines[3].split()[1:] == "1 3 6 10 14 18 19 20 19 18".split()

    def test_order_flag(self):
        code, text = run(
            "table",
            "--ring", "x,y,z",
            "--ideal", "y^2*z^2, x^2*y*z^3, x^3*z",
            "--max-row", "3",
            "--max-degree", "5",
            "--order", "y,z,x",
            "--format", "csv",
        )
        assert code == 0
        rows = [line.split(",") for line in text.strip().splitlines()]
        assert rows[1][1:] == ["1", "2", "3", "4", "4", "4"]

    def test_reversed_order_over_many_names(self):
        ring = [f"v{i}" for i in range(50_000)]
        args = argparse.Namespace(order=",".join(reversed(ring)))
        t0 = time.perf_counter()
        order = cli._variable_order(args, ring)
        assert time.perf_counter() - t0 < 2.0
        assert order == VariableOrder(tuple(range(len(ring) - 1, -1, -1)))

    def test_order_must_be_permutation(self):
        code, _ = run(
            "table", "--ring", "x,y", "--ideal", "x*y",
            "--max-row", "2", "--order", "x,z",
        )
        assert code == cli.EXIT_INPUT

    def test_json(self):
        code, text = run(
            "table", "--ring", "x,y", "--ideal", "x*y",
            "--max-row", "3", "--max-degree", "3", "--format", "json",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["rows"][1] == {"a": 2, "values": ["1", "2", "2", "2"]}

    def test_row_bound(self):
        argv = ["table", "--ring", "x", "--ideal", "x^2", "--max-degree", "2"]
        assert run(*argv, "--max-row", str(MAX_ROW + 1)) == (cli.EXIT_INPUT, "")
        code, text = run(*argv, "--max-row", str(MAX_ROW))
        assert code == 0
        # k[x_1..x_1000]/(x_1^2): every linear form, every quadric but x_1^2
        assert text.splitlines()[-1].split() == [str(MAX_ROW), "1", "1000", "500499"]


class TestSeries:
    def test_render(self):
        code, text = run("series", "--ring", "x,y,z", "--ideal", "x^2, y^3")
        assert code == 0
        assert text.strip() == "(1 - t^2 - t^3 + t^5)/(1 - t)^3"

    def test_expansion_matches_eval(self):
        code, text = run(
            "series", "--ring", "x,y,z", "--ideal", "x*z, y*z, x^2*y",
            "--expand-to", "6",
        )
        assert code == 0
        assert text.splitlines()[1] == "1 3 4 4 4 4 4"

    def test_negative_expansion_prints_nothing(self):
        code, text = run(
            "series", "--ring", "x,y", "--ideal", "x^2", "--expand-to", "-1"
        )
        assert code == cli.EXIT_INPUT
        assert text == ""

    def test_no_lattice_cap(self):
        # series builds no lattice, so no flag caps its generators
        ideal = ", ".join(f"x^{i + 1}*y" for i in range(5))
        code, text = run("series", "--ring", "x,y", "--ideal", ideal)
        assert (code, text) == (0, "(1 - t^2)/(1 - t)^2\n")
        for argv in (
            ["series", "--ring", "x,y", "--ideal", ideal],
            ["table", "--ring", "x,y", "--ideal", ideal, "--max-row", "2"],
        ):
            for flag in ("--lattice-cap", "--enum-cap"):
                assert run(*argv, flag, "4") == (2, ""), (argv, flag)

    def test_more_generators_than_the_lattice_cap(self):
        m6 = ideal(3, *[(i, j, 6 - i - j) for i in range(7) for j in range(7 - i)])
        assert len(m6.generators) > engine.LATTICE_CAP_DEFAULT
        text = parser.render_ideal(m6, ["x", "y", "z"])
        code, out = run("series", "--ring", "x,y,z", "--ideal", text, "--expand-to", "9")
        assert code == 0
        expected = engine.hf(m6, 9, method="oracle")
        assert out.splitlines()[1] == " ".join(map(str, expected))

    def test_json(self):
        argv = ("series", "--ring", "x,y,z", "--ideal", "x^2, y^3", "--format", "json")
        code, text = run(*argv, "--expand-to", "4")
        assert code == 0
        doc = json.loads(text)
        assert doc["ring"] == ["x", "y", "z"]
        assert doc["ideal"] == ["x^2", "y^3"]
        assert doc["series"] == "(1 - t^2 - t^3 + t^5)/(1 - t)^3"
        assert doc["numerator"] == [
            {"degree": d, "coefficient": c}
            for d, c in ((0, "1"), (2, "-1"), (3, "-1"), (5, "1"))
        ]
        assert doc["values"] == [
            {"degree": b, "value": v} for b, v in enumerate(["1", "3", "5", "6", "6"])
        ]
        code, text = run(*argv)
        assert code == 0
        assert "values" not in json.loads(text)

    def test_csv(self):
        argv = ("series", "--ring", "x,y,z", "--ideal", "x*z, y*z, x^2*y", "--format", "csv")
        code, text = run(*argv, "--expand-to", "3")
        assert code == 0
        assert list(csv.reader(io.StringIO(text))) == [
            ["part", "degree", "value"],
            ["numerator", "0", "1"],
            ["numerator", "2", "-2"],
            ["numerator", "4", "1"],
            ["hf", "0", "1"],
            ["hf", "1", "3"],
            ["hf", "2", "4"],
            ["hf", "3", "4"],
        ]
        code, text = run(*argv)
        assert code == 0
        assert [row[0] for row in csv.reader(io.StringIO(text))] == ["part"] + ["numerator"] * 3


class TestCompare:
    def test_agreement(self):
        code, text = run(
            "compare", "--ring", "x,y,z",
            "--ideal", "x^2*y*z^3, x^3*z, y^2*z^2", "--max-degree", "8",
        )
        assert code == 0
        assert text.strip() == "AGREE"

    def test_disagreement_reported(self, monkeypatch):
        real_hf = engine.hf

        def broken_hf(I, b_max, method="auto", **kw):
            values = real_hf(I, b_max, method=method, **kw)
            if method == "syzygy":
                values = list(values)
                values[-1] += 1
            return values

        monkeypatch.setattr(engine, "hf", broken_hf)
        code, text = run(
            "compare", "--ring", "x,y", "--ideal", "x^2", "--max-degree", "3"
        )
        assert code == cli.EXIT_DISAGREE
        assert text.splitlines()[0] == "DISAGREE"
        assert "differs" in text

    def test_lcm_method_builds_no_subset_lattice(self, monkeypatch, capsys):
        # the lcm method sums the lattice's Mobius values; only cancel=True
        # still builds the 2^n subset lattice
        def refuse(*args, **kwargs):
            raise AssertionError("the subset lattice was built")

        monkeypatch.setattr(engine, "build_lcm_lattice", refuse)
        I = parser.parse_ideal("x^2*y*z^3, x^3*z, y^2*z^2", ["x", "y", "z"])
        assert engine.hf(I, 8, "lcm") == engine.hf(I, 8, "oracle")
        base = ["--ring", "x,y,z", "--ideal", "x^2*y*z^3, x^3*z, y^2*z^2", "--max-degree", "8"]
        assert run("compare", *base) == (cli.EXIT_OK, "AGREE\n")
        with pytest.raises(AssertionError, match="subset lattice"):
            engine.hf_lcm_lattice(I, 8, cancel=True)
        # 20 of the 56 cubics in six variables, an antichain at the cap
        rng = random.Random(20)
        cubics = [e for e in itertools.product(range(4), repeat=6) if sum(e) == 3]
        gens = rng.sample(cubics, engine.LATTICE_CAP_DEFAULT)
        names = [f"x{i}" for i in range(1, 7)]
        ring = ["--ring", ",".join(names), "--max-degree", "6"]
        text = parser.render_ideal(ideal(6, *gens), names)
        assert run("compare", *ring, "--ideal", text) == (cli.EXIT_OK, "AGREE\n")
        # a 21st, redundant generator: the cap counts generators as given
        redundant = (gens[0][0] + 1, *gens[0][1:])
        text = parser.render_ideal(ideal(6, *gens, redundant), names)
        code, out = run("eval", *ring, "--ideal", text, "--method", "lcm")
        assert (code, out) == (cli.EXIT_CAP, "")
        assert "21 generators exceed lattice cap 20" in capsys.readouterr().err

    def test_format_is_refused(self, capsys):
        # compare prints AGREE or a diff table in every case, so it takes no
        # --format: argparse rejects the flag
        code, text = run(
            "compare", "--ring", "x,y", "--ideal", "x^2",
            "--format", "json", "--max-degree", "3",
        )
        assert (code, text) == (cli.EXIT_INPUT, "")
        assert "--format" in capsys.readouterr().err


class TestBench:
    def test_deterministic_for_fixed_seed(self):
        code1, text1 = run(
            "bench", "--seed", "7", "--max-degree", "6", "--format", "json"
        )
        code2, text2 = run(
            "bench", "--seed", "7", "--max-degree", "6", "--format", "json"
        )
        assert code1 == code2 == 0
        doc1, doc2 = json.loads(text1), json.loads(text2)
        for e1, e2 in zip(doc1["cases"], doc2["cases"]):
            assert e1["ideal"] == e2["ideal"]
            assert list(e1) == ["case", "repetition", "arity", "generators", "ideal", "methods"]
            for method in ("lcm", "syzygy", "table"):
                assert e1["methods"][method].get("values") == (
                    e2["methods"][method].get("values")
                )

    def test_methods_agree_and_memo_reported(self):
        code, text = run(
            "bench", "--seed", "3", "--max-degree", "12", "--format", "json"
        )
        assert code == 0
        doc = json.loads(text)
        saw_memo_hit = False
        for entry in doc["cases"]:
            values = {
                m: info["values"]
                for m, info in entry["methods"].items()
                if "values" in info
            }
            assert len(set(map(tuple, values.values()))) == 1, entry["ideal"]
            info = entry["methods"]["syzygy"]
            if info.get("memo_hits", 0) > 0:
                saw_memo_hit = True
        assert saw_memo_hit

    def test_csv_format(self):
        code, text = run("bench", "--seed", "1", "--max-degree", "4", "--format", "csv")
        assert code == 0
        header = text.splitlines()[0].split(",")
        assert header == ["case", "repetition", "arity", "generators", "method", "seconds", "ok"]

    def test_text_format_reports_capped_cases(self):
        # the default format: one line per case and method, lcm refused past
        # the lattice cap, syzygy timed with its memo size, hits and nodes
        code, text = run("bench", "--seed", "1", "--max-degree", "2", "--lattice-cap", "3")
        assert code == 0
        line_re = re.compile(r"case (\d+) arity=(\d+) gens=(\d+) (lcm|syzygy|table): (.*)")
        capped = 0
        for line in text.splitlines():
            m = line_re.fullmatch(line)
            assert m, line
            gens, method, rest = int(m[3]), m[4], m[5]
            if method == "lcm" and gens > 3:
                assert rest == f"capped ({gens} generators exceed lattice cap 3)", line
                capped += 1
            elif method == "syzygy":
                assert re.fullmatch(r"\d+\.\d{4}s memo=\d+ hits=\d+ nodes=\d+", rest), line
            else:
                assert re.fullmatch(r"\d+\.\d{4}s", rest), line
        assert capped == 16

    def test_repetitions_must_be_positive(self, capsys):
        for reps in ("0", "-1"):
            assert run("bench", "--repetitions", reps) == (cli.EXIT_INPUT, ""), reps
            assert "--repetitions" in capsys.readouterr().err


class TestSr:
    def test_pipeline(self):
        code, text = run(
            "sr",
            "--ring", "x,xh,y,z,w",
            "--facets", "x,y,z; xh,y,z; y,z,w",
            "--max-degree", "4",
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "minimal non-faces: x,xh; x,w; xh,w"
        assert lines[1] == "ideal: x*xh, x*w, xh*w"

    def test_invalid_complex(self, capsys):
        code, _ = run("sr", "--ring", "a,b", "--facets", "a")
        assert code == cli.EXIT_INPUT
        assert "not covered" in capsys.readouterr().err

    def test_facet_repeating_a_vertex(self, capsys):
        code, text = run("sr", "--ring", "x,y", "--facets", "x,x;y", "--max-degree", "3")
        assert (code, text) == (cli.EXIT_INPUT, "")
        assert "repeats vertices ['x']" in capsys.readouterr().err

    def test_validates_once(self, monkeypatch):
        calls = []
        real = simplicial.validate_complex

        def counted(c):
            calls.append(c)
            return real(c)

        monkeypatch.setattr(simplicial, "validate_complex", counted)
        code, _ = run("sr", "--ring", "x,xh,y,z,w", "--facets", "x,y,z; xh,y,z; y,z,w")
        assert code == 0
        assert len(calls) == 1

    def test_invalid_complex_above_vertex_cap(self, capsys):
        # validation comes before the vertex cap: exit 2, not 3
        names = [f"v{i}" for i in range(simplicial.VERTEX_CAP + 1)]
        ring = ",".join(names)
        code, text = run("sr", "--ring", ring, "--facets", ",".join(names[:-1]))
        assert (code, text) == (cli.EXIT_INPUT, "")
        assert capsys.readouterr().err == (
            f"violation: vertex {names[-1]!r} is not covered by any facet\n"
        )
        code, text = run("sr", "--ring", ring, "--facets", ring)
        assert (code, text) == (cli.EXIT_CAP, "")
        assert capsys.readouterr().err == (
            f"resource cap: {len(names)} vertices exceed cap {simplicial.VERTEX_CAP}\n"
        )

    def test_json(self):
        code, text = run(
            "sr", "--ring", "a,b,c", "--facets", "a,b; b,c; a,c",
            "--max-degree", "3", "--format", "json",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["minimal_nonfaces"] == [["a", "b", "c"]]
        assert [int(v["value"]) for v in doc["values"]] == [1, 3, 6, 9]

    def test_csv(self):
        code, text = run(
            "sr", "--ring", "a,b,c", "--facets", "a,b; b,c; a,c",
            "--max-degree", "3", "--format", "csv",
        )
        assert code == 0
        assert list(csv.reader(io.StringIO(text))) == [
            ["degree", "value"], ["0", "1"], ["1", "3"], ["2", "6"], ["3", "9"]
        ]


class TestParser:
    def test_one_parser_per_process(self):
        assert cli.build_arg_parser() is cli.build_arg_parser()
        # errors leave the shared parser as it was
        good = ("eval", "--ring", "x,y,z", "--ideal", "x*z, y*z, x^2*y", "--format", "json")
        first = run(*good)
        assert first[0] == 0
        assert run("eval", "--ring", "x", "--method", "nope") == (2, "")
        assert run("eval", "--ring", "x,y", "--ideal", "x^2, q")[0] == cli.EXIT_INPUT
        assert run(*good) == first

    WELL_FORMED = (
        ["eval", "--ring", "x,y,z", "--ideal", "x^2,y^3", "--method", "lcm", "--format", "json"],
        ["table", "--ring", "x,y", "--ideal", "x^2,y", "--max-row", "2", "--order", "y,x"],
        ["series", "--ring", "x,y", "--ideal", "x*y", "--expand-to", "3", "--format", "csv"],
        ["compare", "--ring", "x,y", "--ideal", "x^2,y^3", "--max-degree", "4"],
        ["sr", "--ring", "x,y,z", "--facets", "x,y; y,z", "--max-degree", "3"],
    )

    def test_a_well_formed_query_takes_one_parser(self, monkeypatch, capsys):
        # the subcommand's parser reads a well-formed argv alone; an argument
        # it leaves over sends the argv through the top-level parser, which
        # reports it under its own usage line
        top = cli.build_arg_parser()
        calls = []
        full = top.parse_known_args

        def counted(*args, **kwargs):
            calls.append(args)
            return full(*args, **kwargs)

        monkeypatch.setattr(top, "parse_known_args", counted)
        for argv in self.WELL_FORMED:
            assert run(*argv)[0] == cli.EXIT_OK, argv
        assert calls == []
        assert run("eval", "--ring", "x", "--ideal", "x", "stray") == (cli.EXIT_INPUT, "")
        assert len(calls) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: hilbertfn [-h]")
        assert "unrecognized arguments: stray" in err


RING_TEXTS = st.one_of(
    st.sampled_from(["x", "x,y,z", "z,y,x"]),
    st.text(alphabet="xyz, ", max_size=7),
)
TERMS = st.lists(
    st.tuples(st.sampled_from("xyz"), st.integers(1, 4)), min_size=1, max_size=3
).map(lambda factors: "*".join(f"{v}^{e}" for v, e in factors))
IDEAL_TEXTS = st.one_of(
    st.lists(TERMS, min_size=1, max_size=5).map(", ".join),
    st.sampled_from(["0", "1", "x*z, y*z, x^2*y"]),
    st.text(alphabet="xyz^*,0123 ", max_size=14),
)
FACET_TEXTS = st.one_of(
    st.sampled_from(["x; y", "x,y; y,z", "x,y,z", "x,y; y,z; x,z"]),
    st.text(alphabet="xyz,; ", max_size=10),
)
# small valid values, negatives, and degrees past the command-line bound
INTS = st.one_of(
    st.integers(0, 8), st.integers(-3, 8), st.integers(MAX_DEGREE + 1, 10**12)
).map(str)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["eval", "table", "series", "compare", "sr"]))
    argv = [command, "--ring", draw(RING_TEXTS)]
    if command == "sr":
        argv += ["--facets", draw(FACET_TEXTS)]
    else:
        argv += ["--ideal", draw(IDEAL_TEXTS)]
    flags = {
        "--format": st.sampled_from(["plain", "csv", "json"]),
        "--max-degree": INTS,
    }
    if command in ("eval", "compare"):
        flags.update({"--enum-cap": INTS, "--lattice-cap": INTS})
    if command == "series":
        flags = {k: v for k, v in flags.items() if k != "--max-degree"}
        flags["--expand-to"] = INTS
    if command == "eval":
        flags["--method"] = st.sampled_from(["oracle", "lcm", "syzygy", "table", "auto"])
    if command == "table":
        argv += ["--max-row", draw(st.integers(-1, 4).map(str))]
        flags["--order"] = RING_TEXTS
    for flag, values in flags.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argvs())
# an option value that starts with "-" makes argparse reject the argv
@example(["eval", "--ring", "x,y,z", "--ideal", "-x"])
def test_every_argv_ends_in_a_documented_exit_code(argv):
    code = cli.run(argv, out=io.StringIO())
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_CAP), argv


COMMAND_NAMES = st.sampled_from(
    ["eval", "table", "series", "compare", "sr", "evl", "e", "", "EVAL", "x", "-", "-h", "--help", "--ring"]
)
# the flags each subcommand requires, so that some draws get past argparse
REQUIRED_FLAGS = {
    "eval": ["--ring", "x,y,z", "--ideal", "x^2,y*z"],
    "table": ["--ring", "x,y", "--ideal", "x^2,y", "--max-row", "2"],
    "series": ["--ring", "x,y", "--ideal", "x*y"],
    "compare": ["--ring", "x,y", "--ideal", "x^2,y^3"],
    "sr": ["--ring", "x,y,z", "--facets", "x,y; y,z"],
}
# every flag of every subcommand but bench, and abbreviations of them: some
# ambiguous (--m on eval, --f on sr), some of --help
FLAG_NAMES = st.sampled_from(
    "--ring --ideal --facets --max-degree --max-row --order --expand-to --enum-cap"
    " --lattice-cap --method --format --seed --ri --id --fa --max --max-d --max-r --m"
    " --e --en --l --o --ex --me --f --h --he".split()
)
FLAG_VALUES = st.one_of(
    st.integers(-3, 8).map(str),
    st.integers(MAX_DEGREE + 1, 10**12).map(str),
    st.sampled_from(
        ["x", "x,y,z", "x^2,y^3", "x; y", "plain", "csv", "json", "xml", "oracle",
         "lcm", "syzygy", "table", "auto", "nope", "1.5", "abc", "", "-x", "-0"]
    ),
)
ARGV_PIECES = st.one_of(
    st.tuples(FLAG_NAMES, FLAG_VALUES).map(list),
    st.tuples(FLAG_NAMES, FLAG_VALUES).map(lambda pair: ["=".join(pair)]),
    # a flag with its value missing, or a stray token
    st.one_of(FLAG_NAMES, FLAG_VALUES).map(lambda token: [token]),
    st.sampled_from(["--", "-h", "--help", "-x", "--bogus", "-3", "--=x"]).map(lambda t: [t]),
)


@st.composite
def raw_argvs(draw):
    command = draw(COMMAND_NAMES)
    argv = [command]
    if command in REQUIRED_FLAGS and draw(st.booleans()):
        argv += REQUIRED_FLAGS[command]
    for piece in draw(st.lists(ARGV_PIECES, max_size=6)):
        argv += piece
    return argv


def _observed(argv):
    out, stdout, stderr = io.StringIO(), io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(list(argv), out=out)
    return code, out.getvalue(), stdout.getvalue(), stderr.getvalue()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(raw_argvs())
@example(["eval", "--ring", "x", "--ideal", "x", "--", "--max-degree", "2"])
@example(["eval", "--ring", "x", "--ideal", "x", "--max-degree", "2", "--bogus", "1"])
@example(["eval", "-h"])
@example([])
def test_one_pass_parse_matches_the_full_parser(argv):
    # cli.run gives the same exit code and output as parse_args of the full
    # parser followed by args.func, on any argv
    got = _observed(argv)
    with mock.patch.object(cli, "_parse_argv", cli.build_arg_parser().parse_args):
        assert got == _observed(argv), argv


def test_entry_point_main(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.argv",
        ["hilbertfn", "eval", "--ring", "x", "--ideal", "x^2", "--max-degree", "3"],
    )
    with pytest.raises(SystemExit) as e:
        cli.main()
    assert e.value.code == 0
    assert "HF 1 1 0 0" in capsys.readouterr().out


def test_set_up_imports_every_submodule_and_no_deferred_module():
    # a fresh interpreter's `import hilbertfn, hilbertfn.cli` and parser
    # build load every hilbertfn submodule, so no query pays for one later,
    # and none of the standard modules that only some paths use
    probe = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]);"
        "import hilbertfn, hilbertfn.cli; hilbertfn.cli.build_arg_parser();"
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", probe, src], capture_output=True, text=True, check=True
    )
    added = set(proc.stdout.split())
    assert not added & {"dataclasses", "inspect", "json", "csv", "random"}
    submodules = "cli engine errors kernels monomial parser pascal series simplicial".split()
    assert {"hilbertfn", *(f"hilbertfn.{m}" for m in submodules)} <= added


def _readme_block(section: str, language: str) -> str:
    """The first ``language`` code block under README's ``section`` heading."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return readme.split(f"## {section}", 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_command_line_block_runs():
    # every hilbertfn line of README's "Command line" block exits 0, and a
    # "# -> ..." comment under a command is a line of that command's output
    block = _readme_block("Command line", "sh")
    commands: list[tuple[list[str], list[str]]] = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("hilbertfn "):
            commands.append((shlex.split(line)[1:], []))
        elif line.startswith("# -> "):
            commands[-1][1].append(line[len("# -> "):])
        else:
            assert not line.strip() or line.startswith("#"), line
    assert len(commands) == 7
    assert ["(1 - t^2 - t^3 + t^5)/(1 - t)^3"] in [shown for _, shown in commands]
    for argv, shown in commands:
        code, text = run(*argv)
        assert code == cli.EXIT_OK, argv
        for line in shown:
            assert line in text.splitlines(), argv


def test_readme_library_block_values():
    # README's "Library" block runs, and a line whose comment is a list
    # evaluates to that list
    namespace: dict = {}
    checked = 0
    for line in _readme_block("Library", "python").splitlines():
        code, _, comment = line.partition("#")
        if comment.strip().startswith("["):
            assert eval(code, namespace) == ast.literal_eval(comment.strip()), line
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 1
