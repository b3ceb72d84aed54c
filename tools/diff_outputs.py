"""Compare the command-line output of two checkouts of hilbertfn.

Usage (from the repository root)::

    python3 tools/diff_outputs.py OLD NEW [--seeds 1 2]

OLD and NEW are checkout roots, each with its own ``src/``.  One battery of
argvs is built here, then each checkout answers all of it in its own child
process, which imports that checkout's ``src/`` and hands each argv to
``hilbertfn.cli.run``.  The battery is:

* every query of the four benchmark workloads (``perfbench/workloads.py``
  of the checkout holding this script, read, never edited) at each seed;
* each of those that is not ``compare`` again with ``--format json`` and
  ``--format csv``, and each ``table`` query again with its variables in
  reverse ``--order``;
* each ``eval`` and ``compare`` query again as ``eval --method lcm``, and
  each ``compare`` query as ``eval --method oracle``, since ``compare``
  prints only whether the methods agree; ``lcm`` refuses past its lattice
  cap, so the battery holds refusals too;
* squarefree ideals at each seed, larger than any the workloads but
  ``sr`` send to the recursion: edge ideals of seeded graphs on 8 to 20
  vertices and path ideals on 10 to 40 variables, each as ``eval`` by
  ``auto``, ``syzygy`` and ``table``, ``series --expand-to``, ``table``
  and ``compare``, all at degrees 3 to 6;
* ``bench --seed 3`` in all three formats, timings masked;
* the commands of README's "Command line" block.

stdout, stderr and the exit code must be equal.  The script prints the argv
count and the first argv whose answers differ, and exits 0 when none does,
1 on a difference.  It needs only the standard library and writes no
bytecode into either checkout.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import shlex
import subprocess
import sys
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Run in a child: reads the argv battery as JSON on stdin and writes one
# [exit code, stdout, stderr] triple per argv as JSON on stdout.
CHILD = """
import contextlib, io, json, sys
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import hilbertfn
from hilbertfn import cli
if Path(hilbertfn.__file__).resolve().parents[1] != src:
    raise ImportError(f"hilbertfn was imported from {hilbertfn.__file__}, not {src}")
answers = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv, out=out)
    answers.append([code, out.getvalue(), err.getvalue()])
json.dump(answers, sys.stdout)
"""

# the methods each query kind is asked again as `eval --method`: compare
# prints only AGREE, which hides each method's values
METHODS = {"eval": ("lcm",), "compare": ("lcm", "oracle")}

# every float that bench prints is a timing; its values are integers
TIMING = re.compile(r"\d+\.\d+(?:e[-+]?\d+)?")


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads.WORKLOADS


def _readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words and words[0] == "hilbertfn":
            commands.append(words[1:])
    return commands


def _squarefree(seed: int) -> list[list[str]]:
    """Seeded edge ideals on 8, 10, ..., 20 vertices, with n - 2 to 3n
    edges listed in a random order, and the path ideals x0*x1, x1*x2, ...
    on 10, 17, 25, 32 and 40 variables, each at one degree b in 3..6:
    ``eval`` by three methods, ``series``, ``table`` and, at degree 3,
    ``compare``."""
    rng = random.Random(seed)
    graphs = []
    for n in range(8, 21, 2):
        pairs = list(combinations(range(n), 2))
        graphs.append((n, rng.sample(pairs, rng.randint(n - 2, min(len(pairs), 3 * n)))))
    graphs += [(n, [(i, i + 1) for i in range(n - 1)]) for n in (10, 17, 25, 32, 40)]
    argvs = []
    for n, edges in graphs:
        ideal = ", ".join(f"x{i}*x{j}" for i, j in edges)
        given = ["--ring", ",".join(f"x{i}" for i in range(n)), "--ideal", ideal]
        b = str(rng.randint(3, 6))
        argvs += [
            *(["eval", *given, "--max-degree", b, "--method", m] for m in ("auto", "syzygy", "table")),
            ["series", *given, "--expand-to", b],
            ["table", *given, "--max-degree", b, "--max-row", str(n)],
            ["compare", *given, "--max-degree", "3"],
        ]
    return argvs


def battery(seeds: list[int]) -> list[list[str]]:
    argvs = []
    makers = _workloads().values()
    for seed in seeds:
        for make in makers:
            for q in make(seed):
                argv = list(q.argv)
                argvs.append(argv)
                if q.kind != "compare":
                    argvs += [argv + ["--format", fmt] for fmt in ("json", "csv")]
                if q.kind == "table":
                    ring = argv[argv.index("--ring") + 1]
                    argvs.append(argv + ["--order", ",".join(reversed(ring.split(",")))])
                argvs += [["eval", *argv[1:], "--method", m] for m in METHODS.get(q.kind, ())]
        argvs += _squarefree(seed)
    argvs += [["bench", "--seed", "3", "--format", fmt] for fmt in ("plain", "json", "csv")]
    return argvs + _readme_commands()


def answers(checkout: Path, argvs: list[list[str]]) -> list[list]:
    child = subprocess.run(
        [sys.executable, "-I", "-B", "-c", CHILD, str(checkout / "src")],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        check=True,
    )
    got = json.loads(child.stdout)
    for argv, answer in zip(argvs, got):
        if argv[0] == "bench":
            answer[1] = TIMING.sub("<seconds>", answer[1])
    return got


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", type=Path, help="root of the checkout to compare against")
    p.add_argument("new", type=Path, help="root of the checkout under test")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2], help="workload seeds")
    args = p.parse_args(argv)
    argvs = battery(args.seeds)
    old, new = answers(args.old, argvs), answers(args.new, argvs)
    print(f"{len(argvs)} argvs")
    for argv, a, b in zip(argvs, old, new):
        if a != b:
            parts = [name for name, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]
            print(f"first difference ({', '.join(parts)}): hilbertfn {shlex.join(argv)}")
            return 1
    print("no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
