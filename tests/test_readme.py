"""The library use documented in the README runs as written."""

import re
from pathlib import Path

import numpy as np

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
