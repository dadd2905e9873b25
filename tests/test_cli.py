import csv
import itertools
import json
import math
import re
import warnings

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
# The triple eigenvalue is resolved only to about eps^(1/3); the margin
# max Re(lambda^2) stays near 1, far from the indeterminate band.
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
        # f1 is 0 at the seed, but its Jacobian entry 1e300*1e300 is inf,
        # so the spectrum cannot be computed
        path = tmp_path / "infinite.ini"
        path.write_text("[system]\nvariables = x, y\nf1 = x*1e300*1e300\nf2 = -y\n"
                        "[search]\nseeds = 0, 0\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == EXIT_NO_FIXED_POINT
        assert "1 fixed point(s) found, none could be analysed" in err
        assert "no fixed point found" not in err
        # logged once, not also printed
        warnings = [r for r in caplog.records
                    if r.getMessage().startswith("analysis failed at [")]
        assert len(warnings) == 1
        assert "warning: analysis failed" not in err

    def test_subnormal_sqrt_curvature_reported(self, tmp_path, capsys, caplog):
        # the seed x = 1e-320 already meets the residual tolerance, and there
        # sqrt(x) * x underflows to 0
        path = tmp_path / "subnormal.ini"
        path.write_text("[system]\nvariables = x, y\nf1 = sqrt(x) - 1e-170\nf2 = -y\n"
                        "[search]\nseeds = 1e-320, 0\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == EXIT_NO_FIXED_POINT
        assert "1 fixed point(s) found, none could be analysed" in err
        warnings = [r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("analysis failed at [")]
        assert len(warnings) == 1
        assert "square root curvature out of range near zero" in warnings[0]

    def test_defective_spectrum_analysed(self, tmp_path, capsys):
        path = tmp_path / "jordan.ini"
        path.write_text(JORDAN_DEFINITION)
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == EXIT_OK
        assert "1 fixed point(s), 0 failed seed(s)" in out
        margin = re.search(r"jacobi verdict    Jacobi-unstable \(margin (\S+)\)", out)
        assert abs(float(margin.group(1)) - 1.0) <= 1e-3

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_undifferentiable_point_skipped(self, tmp_path, capsys, caplog, fmt):
        # sqrt(x) - x has no derivative at its fixed point (0, 0); the
        # point (1, 0) is still analysed
        path = tmp_path / "sqrt.ini"
        path.write_text("[system]\nvariables = x, y\nf1 = sqrt(x) - x\nf2 = -y\n"
                        "[search]\nseeds = 0, 0; 0.9, 0.1\n")
        code, out, _ = run_cli(capsys, "analyze", str(path), "--format", fmt)
        assert code == EXIT_OK
        warnings = [r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("analysis failed at [0.0, 0.0]")]
        assert len(warnings) == 1
        assert "square root derivative singular at zero" in warnings[0]
        if fmt == "json":
            points = json.loads(out)["fixed_points"]
            assert len(points) == 1
            assert points[0]["location"] == pytest.approx([1.0, 0.0])
            assert points[0]["lyapunov_class"] == "stable-node"
        else:
            assert "1 fixed point(s)" in out
            assert "fixed point (1, 0)" in out

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

    def test_network_definition(self, tmp_path, capsys, monkeypatch):
        graph = tmp_path / "pair.txt"
        graph.write_text("2\n0 1\n")
        # A relative graph path is read from the definition file's directory,
        # whatever the working directory.
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        path = tmp_path / "net.ini"
        for spelling in (str(graph), "pair.txt"):
            path.write_text(
                "[system]\nname = pair\nmodel = network\n"
                f"graph = {spelling}\nevolution = -u\ncoupling = u\nsigma = 1\n"
                "[search]\nbox = -1:1, -1:1\ngrid = 3\n")
            code, out, err = run_cli(capsys, "analyze", str(path), "--format", "json")
            assert code == EXIT_OK, (spelling, err)
            payload = json.loads(out)
            assert len(payload["fixed_points"]) == 1
            point = payload["fixed_points"][0]
            assert point["lyapunov_class"] == "stable-node"
            assert point["jacobi_verdict"] == "Jacobi-unstable"

    def test_default_grid_over_ceiling_refused(self, tmp_path, capsys):
        # Without [search] a 10-node ring would get [-2, 2]^10 at grid 5,
        # 5^10 seeds; the search refuses it before building any seed.
        graph = tmp_path / "ring10.txt"
        graph.write_text("10\n" + "".join(f"{k} {(k + 1) % 10}\n" for k in range(10)))
        path = tmp_path / "ring10.ini"
        path.write_text(
            "[system]\nmodel = network\n"
            f"graph = {graph}\nevolution = u - u^3\ncoupling = sin(u)\nsigma = 0.8\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == EXIT_INPUT
        assert out == ""
        assert "9765625 seeds, more than 100000" in err
        for option in ("--seeds", "--box", "--grid"):
            assert option in err
        code, out, _ = run_cli(capsys, "analyze", str(path), "--seeds", ",".join(["0"] * 10))
        assert code == EXIT_OK
        assert out.startswith("system ring10.ini: 1 fixed point(s), 0 failed seed(s)\n")


    def test_text_prints_no_negative_zero(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "lcdm")
        assert code == EXIT_OK
        assert "  jacobian          [-1, 0]; [0, 3]\n" in out
        assert re.search(r"-0(?![.\d])", out) is None
        # JSON keeps repr, so the sign of the zero survives there
        _, out, _ = run_cli(capsys, "analyze", "lcdm", "--format", "json")
        origin = next(p for p in json.loads(out)["fixed_points"]
                      if p["location"] == [0.0, 0.0])
        assert math.copysign(1.0, origin["jacobian"][0][1]) == -1.0

    def test_json_strict_when_hurwitz_overflows(self, tmp_path, capsys):
        # At the origin of a complete graph on 40 nodes, 24 of the exact
        # Hurwitz minors leave float range; they print as null, not as NaN
        # or Infinity, and nothing warns. On 20 nodes every minor is in range.
        def hurwitz(n):
            graph = tmp_path / f"complete{n}.txt"
            graph.write_text(f"{n}\n" + "".join(
                f"{i} {j}\n" for i, j in itertools.combinations(range(n), 2)))
            path = tmp_path / f"net{n}.ini"
            path.write_text(
                "[system]\nname = complete\nmodel = network\n"
                f"graph = {graph}\nevolution = u - u^3\ncoupling = sin(u)\nsigma = 0.8\n"
                "[search]\nseeds = " + ",".join(["0"] * n) + "\n")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
            assert code == EXIT_OK

            def reject(token):
                raise AssertionError(f"non-JSON constant {token}")

            return json.loads(out, parse_constant=reject)["fixed_points"][0]["hurwitz"]

        minors = hurwitz(40)
        assert minors.count(None) == 24
        assert all(v is None or math.isfinite(v) for v in minors)
        assert all(v is not None and math.isfinite(v) for v in hurwitz(20))

    def test_json_strict_when_charpoly_overflows(self, tmp_path, capsys):
        # det A = -2^1098 leaves float range; the eigenvalues are exact.
        path = tmp_path / "large.ini"
        path.write_text(
            "[system]\nname = large diagonal\nvariables = x1, x2, x3\n"
            "f1 = -2^365*x1\nf2 = -2^366*x2\nf3 = -2^367*x3\n"
            "[search]\nseeds = 1, 1, 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
        assert code == EXIT_OK

        def reject(token):
            raise AssertionError(f"non-JSON constant {token}")

        point = json.loads(out, parse_constant=reject)["fixed_points"][0]
        assert point["charpoly"][:3] == [1.0, 7.0 * 2.0 ** 365, 14.0 * 2.0 ** 730]
        assert point["charpoly"][3] is None
        assert point["hurwitz"][1:] == [None, None]
        assert point["lyapunov_class"] == "stable-node"


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
        with out_path.open() as handle:
            rows = list(csv.DictReader(handle))
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
