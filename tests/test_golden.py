"""Golden CLI outputs (tests/golden/, rewritten by tests/golden/regen.py).

Exit codes, stderr and text stdout must match exactly. JSON stdout and CSV
files are compared parsed: keys, strings, booleans, integers (the Descartes
bounds) and the positions of null match exactly, and every float within
1e-12 relative, since another numpy build may differ in the last bits."""

import csv
import io
import json

import pytest

from golden.regen import CASES, HERE, run_case

_REL = 1e-12


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= _REL * max(abs(a), abs(b))


def _assert_same(got, expected, where="$"):
    if isinstance(expected, float) and isinstance(got, float):
        assert _close(got, expected), f"{where}: {got!r} != {expected!r}"
        return
    assert type(got) is type(expected), f"{where}: {got!r} != {expected!r}"
    if isinstance(expected, dict):
        assert list(got) == list(expected), f"{where}: keys {list(got)} != {list(expected)}"
        for key in expected:
            _assert_same(got[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(got) == len(expected), f"{where}: length {len(got)} != {len(expected)}"
        for k, (a, b) in enumerate(zip(got, expected)):
            _assert_same(a, b, f"{where}[{k}]")
    else:
        assert got == expected, f"{where}: {got!r} != {expected!r}"


def _csv_rows(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    return [rows[0]] + [[float(v) for v in row] for row in rows[1:]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    case = HERE / name
    recorded = json.loads((case / "case.json").read_text())
    assert recorded["argv"] == CASES[name]
    result = run_case(name, tmp_path)
    assert result["exit"] == recorded["exit"]
    assert result["stderr"] == (case / "stderr").read_text()
    expected_out = (case / "stdout").read_text()
    if "json" in recorded["argv"]:
        _assert_same(json.loads(result["stdout"]), json.loads(expected_out))
    else:
        assert result["stdout"] == expected_out
    expected_csv = case / "out.csv"
    assert (result["csv"] is None) == (not expected_csv.exists())
    if result["csv"] is not None:
        _assert_same(_csv_rows(result["csv"]), _csv_rows(expected_csv.read_text()))
