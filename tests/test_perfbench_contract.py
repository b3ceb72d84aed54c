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


def test_tracer_wraps_a_compare_query(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.run(
            ["compare", "--ring", "x,y,z", "--ideal", "x*z, y*z, x^2*y", "--max-degree", "6"],
            out=io.StringIO(),
        )
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    assert tracer.counts["engine.syzygy_nodes"] > 0
    assert not hasattr(kernels.count_outside, "__wrapped__")
    assert kernels.HAVE_COMPILED is False
