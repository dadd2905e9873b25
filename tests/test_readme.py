"""The library use and the definition files documented in the README run
as written."""

import re
from pathlib import Path

import numpy as np

from kccdyn.cli import load_definition

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library use'"
    return match.group(1)


def test_library_use_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(_library_use_block(), str(README), "exec"), namespace)
    # the damped pendulum: a stable focus at the origin and a saddle at pi
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(namespace["search"].points) >= 2
    assert any(line.endswith("stable-focus Jacobi-stable") for line in lines)
    assert namespace["P"].shape == (2, 2)
    assert np.array_equal(namespace["inv"].P, namespace["P"])
    header = (tmp_path / "run.csv").read_text().splitlines()[0]
    assert header.startswith("t,")


def test_definition_files_load(tmp_path):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Definition files\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```ini\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 3
    # the network example reads its graph beside the definition: a ring of 4
    (tmp_path / "ring.txt").write_text("4\n0 1\n1 2\n2 3\n3 0\n")
    loaded = []
    for k, block in enumerate(blocks):
        path = tmp_path / f"example{k}.ini"
        path.write_text(block)
        loaded.append(load_definition(str(path)))
    oscillator, lcdm, network = loaded
    assert np.array_equal(oscillator.seeds, [[0.0, 0.0], [3.0, 0.0]])
    assert oscillator.box == ((-4.0, 4.0), (-2.0, 2.0))
    assert lcdm.field.dimension == 2
    assert network.field.dimension == 4
