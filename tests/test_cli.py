import csv
import json

import pytest

from kccdyn.cli import (
    EXIT_DIVERGED,
    EXIT_INPUT,
    EXIT_NO_FIXED_POINT,
    EXIT_OK,
    load_definition,
    main,
)
from kccdyn.models import lcdm_system
from kccdyn.stability import analyze_fixed_point


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


THREE_D_DEFINITION = """\
[system]
name = shifted saddle
variables = x1, x2, x3
f1 = -x1 + x2^2
f2 = -2*x2
f3 = x3 + x1*x3

[search]
box = -1:1, -1:1, -1:1
grid = 3
"""


# S J S^-1 for the 3x3 Jordan block J at -1, S = [[1, 1, 0], [0, 1, 1], [1, 0, 1]].
# The triple eigenvalue is resolved only to about eps^(1/3), so the two
# deviation-spectrum routes disagree and the analysis of the origin fails.
JORDAN_DEFINITION = """\
[system]
name = jordan block
variables = x1, x2, x3
f1 = -x1 + x2
f2 = -0.5*x1 - 0.5*x2 + 0.5*x3
f3 = 0.5*x1 + 0.5*x2 - 1.5*x3

[search]
seeds = 1, 1, 1
"""


class TestModelsVerb:
    def test_lists_builtins(self, capsys):
        code, out, _ = run_cli(capsys, "models")
        assert code == EXIT_OK
        assert "lcdm" in out
        assert "harmonic" in out


class TestAnalyze:
    def test_lcdm_json(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "lcdm", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["system"] == "lcdm"
        points = payload["fixed_points"]
        assert len(points) == 3
        assert all(p["jacobi_verdict"] == "Jacobi-unstable" for p in points)
        labels = {p["lyapunov_class"] for p in points}
        assert labels == {"stable-node", "unstable-node", "saddle"}

    def test_json_round_trips_bit_identically(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "lcdm", "--format", "json")
        payload = json.loads(out)
        by_location = {tuple(round(v) for v in p["location"]): p
                       for p in payload["fixed_points"]}
        report = analyze_fixed_point(lcdm_system(), by_location[(0, 1)]["location"])
        parsed = by_location[(0, 1)]
        assert parsed["residual"] == report.residual
        assert parsed["jacobi_margin"] == report.jacobi_margin
        for got, want in zip(parsed["eigenvalues"], report.eigenvalues):
            assert got["re"] == want.real and got["im"] == want.imag
        for row_got, row_want in zip(parsed["jacobian"], report.jacobian):
            assert row_got == list(row_want)
        # a second emission is byte-identical
        _, out2, _ = run_cli(capsys, "analyze", "lcdm", "--format", "json")
        assert out2 == out

    def test_lcdm_text(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "lcdm")
        assert code == EXIT_OK
        assert "stable-node" in out
        assert "Jacobi-unstable" in out

    def test_definition_file(self, tmp_path, capsys):
        path = tmp_path / "sys.ini"
        path.write_text(THREE_D_DEFINITION)
        code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["dimension"] == 3
        assert all(p["jacobi_verdict"] != "Jacobi-stable"
                   for p in payload["fixed_points"])

    def test_empty_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.ini"
        path.write_text("")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == EXIT_INPUT
        assert "empty" in err

    def test_unknown_target_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "no-such-model")
        assert code == EXIT_INPUT
        assert "no-such-model" in err

    def test_no_fixed_point_exit_code(self, tmp_path, capsys):
        path = tmp_path / "nozero.ini"
        path.write_text("[system]\nvariables = x1\nf1 = x1^2 + 1\n"
                        "[search]\nbox = -2:2\ngrid = 5\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == EXIT_NO_FIXED_POINT
        assert "no fixed point" in err

    def test_analysis_failure_reported(self, tmp_path, capsys, caplog):
        path = tmp_path / "jordan.ini"
        path.write_text(JORDAN_DEFINITION)
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == EXIT_NO_FIXED_POINT
        assert "1 fixed point(s) found, none could be analysed" in err
        assert "no fixed point found" not in err
        # logged once, not also printed
        warnings = [r for r in caplog.records
                    if r.getMessage().startswith("analysis failed at [")]
        assert len(warnings) == 1
        assert "warning: analysis failed" not in err

    def test_model_and_components_conflict(self, tmp_path, capsys):
        path = tmp_path / "conflict.ini"
        path.write_text("[system]\nmodel = lcdm\nvariables = x1\nf1 = x1\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == EXIT_INPUT
        assert "not both" in err

    def test_seeds_flag(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "lcdm",
                               "--seeds", "0,0; 0,1; 1,0", "--format", "json")
        assert code == EXIT_OK
        assert len(json.loads(out)["fixed_points"]) == 3

    def test_network_definition(self, tmp_path, capsys):
        graph = tmp_path / "pair.txt"
        graph.write_text("2\n0 1\n")
        path = tmp_path / "net.ini"
        path.write_text(
            "[system]\nname = pair\nmodel = network\n"
            f"graph = {graph}\nevolution = -u\ncoupling = u\nsigma = 1\n"
            "[search]\nbox = -1:1, -1:1\ngrid = 3\n")
        code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["fixed_points"]) == 1
        point = payload["fixed_points"][0]
        assert point["lyapunov_class"] == "stable-node"
        assert point["jacobi_verdict"] == "Jacobi-unstable"


class TestInvariants:
    def test_lcdm_attractor(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "lcdm",
                               "--at", "0,1,0,0", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["P"] == [[4.0, 0.0], [-1.75, 2.25]]
        assert payload["berwald_all_zero"] is True
        assert payload["P3_all_zero"] is True
        assert payload["epsilon_all_zero"] is True
        assert payload["trace_P"] == 6.25

    def test_text_flags_zero_blocks(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "lcdm", "--at", "0,1,0,0")
        assert code == EXIT_OK
        assert "berwald  all zero" in out

    def test_bad_point_length(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "lcdm", "--at", "0,1,0")
        assert code == EXIT_INPUT
        assert "--at" in err


class TestDeviate:
    def test_harmonic_defaults(self, tmp_path, capsys):
        out_path = tmp_path / "run.csv"
        code, out, _ = run_cli(capsys, "deviate", "harmonic",
                               "--t-end", "1.5", "--out", str(out_path))
        assert code == EXIT_OK
        assert "Jacobi-stable" in out
        assert "dispersing" in out
        rows = list(csv.DictReader(out_path.open()))
        row = next(r for r in rows if abs(float(r["t"]) - 1.0) < 1e-12)
        # ||xi(1)|| = ||(sin 1, cos 1 - 1)|| ~ 0.9589
        assert float(row["norm"]) == pytest.approx(0.9588510772, abs=1e-6)

    def test_zero_W_rejected(self, capsys):
        code, _, err = run_cli(capsys, "deviate", "harmonic", "--W", "0,0")
        assert code == EXIT_INPUT
        assert "non-zero" in err

    def test_zero_dt_rejected(self, capsys):
        code, _, err = run_cli(capsys, "deviate", "harmonic", "--dt", "0")
        assert code == EXIT_INPUT

    def test_divergence_exit_code(self, tmp_path, capsys):
        path = tmp_path / "explode.ini"
        path.write_text("[system]\nvariables = x1\nf1 = x1^2\n")
        code, _, err = run_cli(capsys, "deviate", str(path),
                               "--x0", "2", "--W", "1", "--t-end", "2")
        assert code == EXIT_DIVERGED
        assert "truncated" in err


class TestLoadDefinition:
    def test_builtin_carries_search_box(self):
        definition = load_definition("lcdm")
        assert definition.box == ((0.0, 1.0), (0.0, 1.0))
        assert definition.grid == 5

    def test_variables_required_with_components(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[system]\nf1 = x1\n")
        from kccdyn.cli import DefinitionError
        with pytest.raises(DefinitionError):
            load_definition(str(path))

    def test_component_count_must_match(self, tmp_path):
        path = tmp_path / "bad2.ini"
        path.write_text("[system]\nvariables = x1, x2\nf1 = x1\n")
        from kccdyn.cli import DefinitionError
        with pytest.raises(DefinitionError):
            load_definition(str(path))
