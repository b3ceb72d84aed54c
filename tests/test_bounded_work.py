"""Every input ends in a documented exit code after bounded work.

Each case runs ``python -m hilbertfn.cli`` in a child process that sets its
own CPU-time and address-space limits before it starts, so a runaway case is
killed by its own limits and not by the suite's.  A case passes when the
child exits with the code documented for it (0 success, 1 disagreement, 2
input error, 3 resource cap), prints no traceback, and ends within
``WALL_SECONDS``.  The inputs sit just past each cap, with a few at the cap
for contrast.  The known failures are strict xfails: the change that bounds
their work must flip the marker.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hilbertfn

CPU_SECONDS = 2
ADDRESS_SPACE = 1 << 30
WALL_SECONDS = 6
SRC = str(Path(hilbertfn.__file__).resolve().parents[1])


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS + 1))
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _ideal(ring: list[str], gens: str) -> list[str]:
    return ["--ring", ",".join(ring), "--ideal", gens]


def _edge_ideal(n_vertices: int, n_edges: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < n_edges:
        edges.add(tuple(sorted(rng.sample(range(n_vertices), 2))))
    return _ideal(_names("v", n_vertices), ", ".join(f"v{a}*v{b}" for a, b in sorted(edges)))


def _case(name: str, argv: list[str], code: int, xfail: str = ""):
    marks = [pytest.mark.xfail(strict=True, reason=xfail)] if xfail else []
    return pytest.param(argv, code, id=name, marks=marks)


def _sr(n_vertices: int) -> list[str]:
    # two facets that overlap and cover every vertex
    names = _names("v", n_vertices)
    facets = ",".join(names[: n_vertices - 5]) + "; " + ",".join(names[5:])
    return ["sr", "--ring", ",".join(names), "--facets", facets, "--max-degree", "3"]


XYZ = ["x", "y", "z"]
WIDE = _names("x", 3000)
WIDE_IDEAL = _ideal(WIDE, "x0^2, x1*x2999, x1500^3")
PATH = _names("x", 300)
# F(3, 10) = 66 exponent prefixes for the oracle walk; 3 generators for the lattice
ORACLE = ["eval", *_ideal(XYZ, "x^2*y, z^3"), "--method", "oracle", "--max-degree", "10"]
LATTICE = ["eval", *_ideal(XYZ, "x^2*y, z^3, x*y*z"), "--method", "lcm"]
# 237 generators x_i^e * x79^4 of degree >= 5, over 80 variables
UNREACHABLE = ", ".join(f"x{i}^{e}*x79^4" for i in range(79) for e in (1, 2, 3))
# 66 generators x_i * x33^4 and x_i^2 * x33^3 of degree 5, over 34 variables
BELOW_ROOT = ", ".join(f"x{i}*x33^4, x{i}^2*x33^3" for i in range(33))

CASES = [
    _case("sr-at-vertex-cap", _sr(24), 0),
    _case("sr-past-vertex-cap", _sr(25), 3),
    _case("oracle-at-enum-cap", [*ORACLE, "--enum-cap", "66"], 0),
    _case("oracle-past-enum-cap", [*ORACLE, "--enum-cap", "65"], 3),
    _case("lcm-at-lattice-cap", [*LATTICE, "--lattice-cap", "3"], 0),
    _case("lcm-past-lattice-cap", [*LATTICE, "--lattice-cap", "2"], 3),
    _case("eval-past-max-degree", ["eval", *_ideal(XYZ, "x^2"), "--max-degree", "100001"], 2),
    _case("series-past-max-degree", ["series", *_ideal(XYZ, "x^2"), "--expand-to", "100001"], 2),
    _case("table-past-max-row", ["table", *_ideal(XYZ, "x^2"), "--max-row", "1001"], 2),
    _case("wide-ring", ["eval", *_ideal(WIDE, "x0^2, x1*x2999, x1500^3"), "--max-degree", "3"], 0),
    _case(
        "wide-ring-table",
        ["eval", *WIDE_IDEAL, "--method", "table", "--max-degree", "3"],
        0,
    ),
    _case(
        "wide-ring-table-rows",
        ["table", *WIDE_IDEAL, "--max-row", "1000", "--max-degree", "3"],
        0,
    ),
    _case(
        "wide-ring-oracle-past-enum-cap",
        ["eval", *_ideal(WIDE, "x0^2"), "--method", "oracle", "--max-degree", "3"],
        3,
    ),
    # each of --max-row and --max-degree is within its range, but their
    # product is past the table's cap of 10^5 values
    _case(
        "table-rows-times-degree",
        ["table", *_ideal(["x"], "x^2"), "--max-row", "1000", "--max-degree", "100000"],
        3,
    ),
    # 1000 rows of 100 values: at the cap, in the slowest format
    _case(
        "table-at-values-cap",
        ["table", *_ideal(["x"], "x^2"), "--max-row", "1000", "--max-degree", "99",
         "--format", "csv"],
        0,
    ),
    _case("bench-past-max-repetitions", ["bench", "--repetitions", "101"], 2),
    # each flag is within its range, but 1 x 5 001 values per case and
    # method are past bench's cap of 5 000
    _case("bench-past-values-cap", ["bench", "--repetitions", "1", "--max-degree", "5000"], 3),
    # 3 000 x 100 001 expansion terms, past the cap of 10^6: unrefused, the
    # expansion alone runs past 30 s of CPU
    _case(
        "eval-wide-ring-past-expansion-cap",
        ["eval", *_ideal(WIDE, "x0^2"), "--max-degree", "100000"],
        3,
    ),
    # the default cap admits C(111, 4) = 5 989 005 frames here, but (x109^2)
    # leaves one span at each of the first 109 variables, so the walk opens
    # one frame per variable
    _case(
        "oracle-wide-ring-within-default-enum-cap",
        ["eval", *_ideal(_names("x", 110), "x109^2"), "--method", "oracle",
         "--max-degree", "3"],
        0,
    ),
    # F(300, 3) = 4 545 100 prefixes are within the default cap of 10^8, but
    # the cap also counts C(301, 4) = 335 246 275 frames
    _case(
        "oracle-within-default-enum-cap",
        ["eval", *_ideal(PATH, "x299^2"), "--method", "oracle", "--max-degree", "3"],
        3,
    ),
    # the 237 generators have degree >= 5, past --max-degree 3, so none enters
    # the walk, which opens one frame
    _case(
        "oracle-unreachable-generators",
        ["eval", *_ideal(_names("x", 80), UNREACHABLE), "--method", "oracle",
         "--max-degree", "3"],
        0,
    ),
    _case(
        "oracle-generators-unreachable-below-the-root",
        ["eval", *_ideal(_names("x", 34), BELOW_ROOT), "--method", "oracle",
         "--max-degree", "5"],
        0,
        xfail="each generator has degree 5, so the only monomial of degree <= 5 it"
        " reaches is itself, yet every frame whose prefixes it divides keeps it and it"
        " splits that frame's spans: 3 085 907 frames, past the cap's count"
        " C(37, 6) = 2 324 784, and about 8 s of CPU; dropping from each child frame"
        " the generators whose remaining degree puts them past b_max bounds it",
    ),
    _case(
        "series-path-300",
        ["series", *_ideal(PATH, ", ".join(f"x{i}*x{i + 1}" for i in range(299)))],
        0,
        xfail="the recursion opens only n - 4 nodes on a path ideal, but each forms O(n)"
        " colon ideals of O(n) quotients tested pairwise: about n^4 work, 49 s at 300"
        " variables, and no cap bounds it",
    ),
    _case(
        "eval-edge-ideal-60-171",
        ["eval", *_edge_ideal(60, 171, seed=60171), "--max-degree", "6"],
        0,
        xfail="the recursion's node count grows fast on sparse squarefree ideals: more"
        " than 60 s on a 60-vertex, 171-edge edge ideal, and no cap bounds it",
    ),
]


@pytest.mark.parametrize("argv, code", CASES)
def test_ends_in_documented_exit_code(argv, code):
    path = [SRC, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [SRC]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-m", "hilbertfn.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_limit_child,
        timeout=2 * WALL_SECONDS,
    )
    wall = time.perf_counter() - start
    assert "Traceback" not in child.stderr, child.stderr[-2000:]
    assert child.returncode == code, (child.returncode, child.stderr[-500:])
    assert wall < WALL_SECONDS, wall
