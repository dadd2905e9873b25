"""Golden CLI outputs: the cases, how each one runs, and their rewriting.

    python tests/golden/regen.py

rewrites every case from the current sources. Each case is a directory
holding `case.json` (argv and exit code), `stdout`, `stderr` and, for a
`deviate --out` run, `out.csv`. The definition and graph files that the
cases read live in `inputs/`. A case runs `kccdyn.cli.main` in process,
from a directory holding a copy of `inputs/`, so every path in its output
is relative. tests/test_golden.py runs the same cases and compares them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import logging
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"

# name -> argv, run from a copy of inputs/
CASES: dict[str, list[str]] = {}
for _system in ("lcdm", "harmonic", "ring10", "path10", "complete10",
                "ring20", "path20", "complete20"):
    _target = _system if _system in ("lcdm", "harmonic") else f"{_system}.ini"
    for _fmt in ("text", "json"):
        CASES[f"analyze-{_system}-{_fmt}"] = ["analyze", _target, "--format", _fmt]
# u - ln(u) has no zero, so every seed fails
CASES["analyze-lnring10-text"] = ["analyze", "lnring10.ini"]
CASES["deviate-path10"] = ["deviate", "path10.ini", "--t-end", "0.1", "--out", "out.csv"]


def _edges(kind: str, n: int) -> list[tuple[int, int]]:
    if kind == "ring":
        return [(i, (i + 1) % n) for i in range(n)]
    if kind == "path":
        return [(i, i + 1) for i in range(n - 1)]
    return list(itertools.combinations(range(n), 2))


def _network(graph: str, name: str, n: int, evolution: str, seeds: list[str]) -> str:
    return (f"[system]\nname = {name}\nmodel = network\ngraph = {graph}\n"
            f"evolution = {evolution}\ncoupling = sin(u)\nsigma = 0.8\n"
            f"[search]\nseeds = {'; '.join(seeds)}\n")


def write_inputs() -> None:
    """The graph and definition files: ring, path and complete graphs with
    N = 10 and 20 under u - u^3 and sin(u) at sigma = 0.8, seeded at the
    origin, and a ring of u - ln(u)."""
    shutil.rmtree(INPUTS, ignore_errors=True)
    INPUTS.mkdir()
    for kind, n in itertools.product(("ring", "path", "complete"), (10, 20)):
        (INPUTS / f"{kind}{n}.txt").write_text(
            f"{n}\n" + "".join(f"{i} {j}\n" for i, j in _edges(kind, n)))
        (INPUTS / f"{kind}{n}.ini").write_text(
            _network(f"{kind}{n}.txt", f"{kind}-{n}", n, "u - u^3", [",".join(["0"] * n)]))
    (INPUTS / "lnring10.ini").write_text(_network(
        "ring10.txt", "ln-ring-10", 10, "u - ln(u)",
        [",".join(["0"] * 10), ",".join(["0.5"] * 10)]))


def run(argv: list[str], workdir: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `kccdyn.cli.main(argv)` run in
    workdir. Log records go to the captured stderr at the CLI's default
    level and format, whatever the logging set-up around the call."""
    from kccdyn import cli

    out, err = io.StringIO(), io.StringIO()
    handler = logging.StreamHandler(err)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("kccdyn")
    saved = logger.level, logger.propagate
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    logger.propagate = False
    here = os.getcwd()
    try:
        os.chdir(workdir)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(here)
        logger.removeHandler(handler)
        logger.setLevel(saved[0])
        logger.propagate = saved[1]
    return code, out.getvalue(), err.getvalue()


def run_case(name: str, base: Path) -> dict:
    """What the case produces: exit code, stdout, stderr and the CSV, if
    any, as text."""
    workdir = base / name
    shutil.copytree(INPUTS, workdir)
    code, out, err = run(CASES[name], workdir)
    csv_path = workdir / "out.csv"
    return {"exit": code, "stdout": out, "stderr": err,
            "csv": csv_path.read_text() if csv_path.exists() else None}


def main() -> int:
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    write_inputs()
    for stale in HERE.iterdir():
        if stale.is_dir() and stale != INPUTS and stale.name not in CASES:
            shutil.rmtree(stale)
    with tempfile.TemporaryDirectory() as base:
        for name, argv in CASES.items():
            result = run_case(name, Path(base))
            case = HERE / name
            shutil.rmtree(case, ignore_errors=True)
            case.mkdir()
            (case / "case.json").write_text(
                json.dumps({"argv": argv, "exit": result["exit"]}, indent=2) + "\n")
            (case / "stdout").write_text(result["stdout"])
            (case / "stderr").write_text(result["stderr"])
            if result["csv"] is not None:
                (case / "out.csv").write_text(result["csv"])
            print(f"{name}: exit {result['exit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
