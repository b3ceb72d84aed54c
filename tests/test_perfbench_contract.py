"""The names the benchmark harness under ``perfbench/`` reads or rebinds.

``perfbench/spans.py`` swaps public functions of the package for timing
wrappers by name, and ``perfbench/run.py`` reports ``kernels.HAVE_COMPILED``
in its run metadata.  A change that drops or renames one of those names
fails here instead of in a benchmark run.  The harness files are only read.
"""

import importlib
import io
from pathlib import Path

from hilbertfn import cli, kernels

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced(monkeypatch, argv):
    """Run one query under ``spans.Tracer``; returns its exit code and the tracer."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.run(argv, out=io.StringIO())
    finally:
        tracer.uninstall()
    return code, tracer


def test_tracer_wraps_a_compare_query(monkeypatch):
    code, tracer = _traced(
        monkeypatch,
        ["compare", "--ring", "x,y,z", "--ideal", "x*z, y*z, x^2*y", "--max-degree", "6"],
    )
    assert code == cli.EXIT_OK
    assert tracer.counts["engine.syzygy_nodes"] > 0
    assert not hasattr(kernels.count_outside, "__wrapped__")
    assert kernels.HAVE_COMPILED is False


def test_tracer_sees_the_table_annihilators(monkeypatch):
    # hf_table must call both through their module-level names
    code, tracer = _traced(
        monkeypatch,
        [
            "table", "--ring", "y,x,z", "--ideal", "y^6, x^3*y^5, x^2*y^2*z^2, x^3*z, x^2*y*z^3",
            "--max-row", "3", "--max-degree", "9",
        ],
    )
    assert code == cli.EXIT_OK
    assert tracer.counts["engine.annihilator_terms"] > 0
    layers = {tracer.layer_names[i] for i in tracer.layer}
    assert {"engine.annihilator_decomp", "engine.annihilator_hf"} <= layers


def test_tracer_sees_auto_take_the_recursion(monkeypatch):
    # two minimal generators: auto has no other route than hf_syzygy
    code, tracer = _traced(
        monkeypatch, ["eval", "--ring", "x,y,z", "--ideal", "x^2, y^3", "--max-degree", "6"]
    )
    assert code == cli.EXIT_OK
    assert tracer.counts["engine.syzygy_calls"] > 0
    layers = {tracer.layer_names[i] for i in tracer.layer}
    assert "engine.syzygy" in layers


def test_numerator_route_is_traced_once_per_query(monkeypatch):
    # hf_syzygy reaches the recursion through engine's own binding of
    # series_numerator, which the tracer leaves alone: an eval must not also
    # count as a series.numerator span (each adds 2^n - 1 numerator subsets)
    ideal = ["--ring", "x,y,z", "--ideal", "x^2*y, y*z^3, x*z, z^4"]
    for argv, layer, absent in (
        (["series", *ideal], "series.numerator", "engine.syzygy"),
        (["eval", *ideal, "--max-degree", "8"], "engine.syzygy", "series.numerator"),
    ):
        code, tracer = _traced(monkeypatch, argv)
        assert code == cli.EXIT_OK, argv[0]
        layers = [tracer.layer_names[i] for i in tracer.layer]
        assert layers.count(layer) == 1, argv[0]
        assert absent not in layers, argv[0]


def test_tracer_sees_the_parser_on_eval_and_table(monkeypatch):
    # cli must reach parse_ring and parse_ideal through the parser module
    ideal = ["--ring", "x,y,z", "--ideal", "x^2*y, y*z^3, x*z, z^4", "--max-degree", "8"]
    for argv in (["eval", *ideal], ["table", *ideal, "--max-row", "3"]):
        code, tracer = _traced(monkeypatch, argv)
        assert code == cli.EXIT_OK, argv[0]
        layers = {tracer.layer_names[i] for i in tracer.layer}
        assert "parser.parse" in layers, argv[0]
        assert tracer.self_times()["parser.parse"] > 0, argv[0]
