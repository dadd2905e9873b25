"""Command-line interface.

Verbs:
  analyze     find fixed points and classify each one
  invariants  dump the geometric invariants at a phase point
  deviate     integrate the trajectory and deviation vector, write CSV
  models      list built-in systems

Systems come either from a built-in name (see `models`) or from a
definition file (INI-style key/value sections, documented in the README).
Reports print with 6 significant digits; --format json emits every number
through repr so parsing the output recovers each value bit-identically.
Exit codes: 0 success, 1 input error, 2 no fixed point found or none could
be analysed, 3 integration divergence. Diagnostics go to stderr; set
KCC_LOG=DEBUG (or any logging level) for more.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import deviation, kcc, models, stability
from .exprdsl import ExpressionError
from .odesys import FieldDomainError, VectorField, eval_field

log = logging.getLogger("kccdyn")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_FIXED_POINT = 2
EXIT_DIVERGED = 3


class DefinitionError(Exception):
    """Bad definition file or command-line input."""


@dataclass(eq=False)
class SystemDefinition:
    name: str
    field: VectorField
    seeds: list[np.ndarray] | None = None
    box: tuple[tuple[float, float], ...] | None = None
    grid: int = 5


# ---------------------------------------------------------------------------
# Definition loading


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as err:
        raise DefinitionError(f"bad {what} {text!r}: {err}") from err


def _parse_seeds(text: str) -> list[np.ndarray]:
    seeds = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            seeds.append(np.array(_parse_floats(chunk, "seed")))
    if not seeds:
        raise DefinitionError(f"no seeds in {text!r}")
    return seeds


def _parse_box(text: str) -> tuple[tuple[float, float], ...]:
    axes = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise DefinitionError(f"bad box axis {chunk!r}, expected lo:hi")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError as err:
            raise DefinitionError(f"bad box axis {chunk!r}: {err}") from err
        if not hi >= lo:
            raise DefinitionError(f"bad box axis {chunk!r}: hi < lo")
        axes.append((lo, hi))
    if not axes:
        raise DefinitionError(f"empty box {text!r}")
    return tuple(axes)


def _definition_from_ini(text: str, source: str) -> SystemDefinition:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=source)
    except configparser.Error as err:
        raise DefinitionError(f"cannot parse {source}: {err}") from err
    if not cp.has_section("system"):
        raise DefinitionError(f"{source}: missing [system] section")
    system = cp["system"]
    name = system.get("name", os.path.basename(source))

    model_key = system.get("model")
    component_keys = sorted(k for k in system.keys() if k.startswith("f") and k[1:].isdigit())
    if model_key and component_keys:
        raise DefinitionError(
            f"{source}: give either model= or component expressions f1..fn, not both")

    if model_key:
        field = _field_from_model(system, model_key.strip(), source)
    elif component_keys:
        if "variables" not in system:
            raise DefinitionError(f"{source}: variables= is required with f1..fn")
        variables = [v.strip() for v in system["variables"].split(",") if v.strip()]
        n = len(variables)
        expected = [f"f{i + 1}" for i in range(n)]
        if component_keys != sorted(expected):
            raise DefinitionError(
                f"{source}: expected components {expected}, found {component_keys}")
        try:
            field = VectorField.from_expressions(
                [system[key] for key in expected], variables, name=name)
        except (ExpressionError, ValueError) as err:
            raise DefinitionError(f"{source}: {err}") from err
    else:
        raise DefinitionError(
            f"{source}: need either model= or component expressions f1..fn")

    definition = SystemDefinition(name=name, field=field)
    if cp.has_section("search"):
        search = cp["search"]
        if "seeds" in search:
            definition.seeds = _parse_seeds(search["seeds"])
        if "box" in search:
            definition.box = _parse_box(search["box"])
        if "grid" in search:
            try:
                definition.grid = int(search["grid"])
            except ValueError as err:
                raise DefinitionError(f"{source}: bad grid: {err}") from err
    return definition


def _field_from_model(system, model_name: str, source: str) -> VectorField:
    registry = models.builtin_models()
    if model_name in registry:
        return registry[model_name].factory()
    if model_name == "network":
        for key in ("graph", "evolution", "coupling", "sigma"):
            if key not in system:
                raise DefinitionError(f"{source}: model=network needs {key}=")
        graph_path = system["graph"]
        try:
            graph = models.read_graph(graph_path)
        except (OSError, ValueError) as err:
            raise DefinitionError(f"{source}: cannot load graph {graph_path!r}: {err}") from err
        try:
            spec = models.NetworkSpec.uniform(
                graph, system["evolution"], system["coupling"], float(system["sigma"]))
            return models.network_system(spec)
        except (ExpressionError, ValueError) as err:
            raise DefinitionError(f"{source}: {err}") from err
    raise DefinitionError(
        f"{source}: unknown model {model_name!r}; "
        f"built-ins are {sorted(registry)} plus 'network'")


def load_definition(target: str) -> SystemDefinition:
    """A built-in model name, or a path to a definition file."""
    registry = models.builtin_models()
    if target in registry:
        model = registry[target]
        return SystemDefinition(name=model.name, field=model.factory(),
                                box=model.search_box, grid=model.search_grid)
    if not os.path.exists(target):
        raise DefinitionError(
            f"{target!r} is neither a built-in model ({sorted(registry)}) "
            "nor an existing file")
    with open(target, "r", encoding="utf-8") as handle:
        text = handle.read()
    if not text.strip():
        raise DefinitionError(f"{target}: empty definition file")
    return _definition_from_ini(text, target)


# ---------------------------------------------------------------------------
# Report formatting


def _human(x: float) -> str:
    return f"{x:.6g}"


def _complex_payload(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _complex_human(z: complex) -> str:
    # Display only: hide imaginary dust far below the 6 printed digits.
    if abs(z.imag) <= 1e-12 * (1.0 + abs(z.real)):
        return _human(z.real)
    op = "+" if z.imag >= 0 else "-"
    return f"{_human(z.real)} {op} {_human(abs(z.imag))}i"


def _report_payload(report: stability.FixedPointReport) -> dict:
    return {
        "location": [float(v) for v in report.location],
        "residual": report.residual,
        "jacobian": [[float(v) for v in row] for row in report.jacobian],
        "charpoly": [float(v) for v in report.charpoly.coefficients],
        "eigenvalues": [_complex_payload(z) for z in report.eigenvalues],
        "hurwitz": [float(v) for v in report.hurwitz],
        "descartes_bound": report.descartes_bound,
        "lyapunov_class": report.lyapunov_class,
        "jacobi_spectrum": [_complex_payload(z) for z in report.jacobi_spectrum],
        "jacobi_verdict": report.jacobi_verdict,
        "jacobi_margin": report.jacobi_margin,
        "jacobi_saddle_focus": report.jacobi_saddle_focus,
    }


def _print_report_text(report: stability.FixedPointReport, out) -> None:
    loc = ", ".join(_human(v) for v in report.location)
    print(f"fixed point ({loc})", file=out)
    print(f"  residual          {report.residual:.3e}", file=out)
    rows = ["[" + ", ".join(_human(v) for v in row) + "]" for row in report.jacobian]
    print(f"  jacobian          {'; '.join(rows)}", file=out)
    print(f"  charpoly          {', '.join(_human(v) for v in report.charpoly.coefficients)}",
          file=out)
    print(f"  eigenvalues       {', '.join(_complex_human(z) for z in report.eigenvalues)}",
          file=out)
    print(f"  hurwitz D1..Dn    {', '.join(_human(v) for v in report.hurwitz)}", file=out)
    print(f"  descartes bound   {report.descartes_bound}", file=out)
    print(f"  lyapunov class    {report.lyapunov_class}", file=out)
    print(f"  jacobi spectrum   {', '.join(_complex_human(z) for z in report.jacobi_spectrum)}",
          file=out)
    print(f"  jacobi verdict    {report.jacobi_verdict} (margin {_human(report.jacobi_margin)})",
          file=out)
    if report.jacobi_saddle_focus:
        print("  note              Jacobi-type saddle-focus pattern "
              "(complex pair with alpha^2 < beta^2)", file=out)


# ---------------------------------------------------------------------------
# Verbs


def _cmd_analyze(args) -> int:
    definition = load_definition(args.system)
    seeds = _parse_seeds(args.seeds) if args.seeds else definition.seeds
    box = _parse_box(args.box) if args.box else definition.box
    grid = args.grid if args.grid is not None else definition.grid
    if seeds is None and box is None:
        box = tuple((-2.0, 2.0) for _ in range(definition.field.dimension))
    search = stability.find_fixed_points(
        definition.field, seeds=seeds, box=box, grid=grid, tol=args.tol)
    for failure in search.failures:
        log.info("seed %s failed: %s", failure.seed, failure.reason)
    reports = []
    for point in search.points:
        try:
            reports.append(stability.analyze_fixed_point(
                definition.field, point, residual_tol=max(args.tol, 1e-8)))
        except (stability.NotAFixedPointError, stability.RootConvergenceError) as err:
            log.warning("analysis failed at %s: %s", point.tolist(), err)
    if not reports:
        if search.points:
            print(f"{len(search.points)} fixed point(s) found, none could be analysed",
                  file=sys.stderr)
        else:
            print("no fixed point found", file=sys.stderr)
        return EXIT_NO_FIXED_POINT
    if args.format == "json":
        payload = {
            "system": definition.name,
            "dimension": definition.field.dimension,
            "fixed_points": [_report_payload(r) for r in reports],
            "failures": [{"seed": list(f.seed), "reason": f.reason}
                         for f in search.failures],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"system {definition.name}: {len(reports)} fixed point(s), "
              f"{len(search.failures)} failed seed(s)")
        for report in reports:
            _print_report_text(report, sys.stdout)
    return EXIT_OK


def _parse_phase_point(text: str, dimension: int) -> tuple[np.ndarray, np.ndarray, float]:
    values = _parse_floats(text, "phase point")
    if len(values) == 2 * dimension:
        t = 0.0
    elif len(values) == 2 * dimension + 1:
        t = values[-1]
        values = values[:-1]
    else:
        raise DefinitionError(
            f"--at needs 2n={2 * dimension} values (x then y), optionally "
            f"followed by t; got {len(values)}")
    return np.array(values[:dimension]), np.array(values[dimension:]), t


def _tensor_payload(arr: np.ndarray) -> list:
    return arr.tolist()


_ZERO_TOL = 1e-9


def _cmd_invariants(args) -> int:
    definition = load_definition(args.system)
    x, y, t = _parse_phase_point(args.at, definition.field.dimension)
    sode = kcc.lift(definition.field)
    inv = kcc.invariants(sode, x, y, t)
    tensors = [
        ("epsilon", inv.epsilon),
        ("N", inv.N),
        ("berwald", inv.berwald),
        ("P", inv.P),
        ("P3", inv.P3),
        ("P4", inv.P4),
        ("douglas", inv.douglas),
    ]
    if args.format == "json":
        payload = {
            "system": definition.name,
            "at": {"x": x.tolist(), "y": y.tolist(), "t": t},
            "trace_P": inv.trace_P,
        }
        for label, tensor in tensors:
            payload[label] = _tensor_payload(tensor)
            payload[label + "_all_zero"] = bool(np.max(np.abs(tensor)) <= _ZERO_TOL)
        print(json.dumps(payload, indent=2))
    else:
        point = ", ".join(_human(v) for v in x) + " | " + ", ".join(_human(v) for v in y)
        print(f"system {definition.name} at x = ({point}), t = {_human(t)}")
        for label, tensor in tensors:
            flat = np.ravel(tensor)
            if np.max(np.abs(flat)) <= _ZERO_TOL:
                print(f"  {label:<8} all zero (|entries| <= {_ZERO_TOL:g})")
            else:
                print(f"  {label:<8} {np.array2string(np.asarray(tensor), precision=6)}")
        print(f"  trace P  {_human(inv.trace_P)}")
    return EXIT_OK


def _cmd_deviate(args) -> int:
    definition = load_definition(args.system)
    field = definition.field
    n = field.dimension
    x0 = np.array(_parse_floats(args.x0, "--x0")) if args.x0 else np.eye(n)[0]
    if x0.shape != (n,):
        raise DefinitionError(f"--x0 needs {n} values")
    if args.y0:
        y0 = np.array(_parse_floats(args.y0, "--y0"))
        if y0.shape != (n,):
            raise DefinitionError(f"--y0 needs {n} values")
    else:
        y0 = eval_field(field, x0)
    W = np.array(_parse_floats(args.W, "--W")) if args.W else np.eye(n)[0]
    if W.shape != (n,):
        raise DefinitionError(f"--W needs {n} values")
    if not np.any(W):
        raise DefinitionError("--W must be non-zero")
    if args.dt <= 0:
        raise DefinitionError("--dt must be positive")
    if args.t_end < args.dt:
        raise DefinitionError("--t-end must be at least --dt")

    sode = kcc.lift(field)
    run = deviation.integrate(sode, x0, y0, W, t_end=args.t_end, dt=args.dt,
                              probe_time=args.probe)
    if args.out:
        run.to_csv(args.out)
        print(f"wrote {run.times.size} samples to {args.out}")

    P = kcc.deviation_tensor(sode, x0, y0, 0.0)
    spectrum = stability.eigenvalues(P)
    top = max(z.real for z in spectrum)
    if top < -_ZERO_TOL:
        verdict = "Jacobi-stable"
    elif top > _ZERO_TOL:
        verdict = "Jacobi-unstable"
    else:
        verdict = "indeterminate"
    print(f"deviation tensor spectrum at x0: "
          f"{', '.join(_complex_human(z) for z in spectrum)} -> {verdict}")
    if run.truncated:
        print(f"integration truncated: {run.truncation_reason}", file=sys.stderr)
        return EXIT_DIVERGED
    try:
        label = deviation.focusing_diagnostic(run, args.probe)
        print(f"focusing diagnostic at t* = {_human(args.probe)}: {label} "
              f"(informational: any run with W != 0 reads 'dispersing' as "
              f"t* -> 0+; trust the spectrum verdict above)")
    except ValueError as err:
        print(f"focusing diagnostic skipped: {err}", file=sys.stderr)
    return EXIT_OK


def _cmd_models(_args) -> int:
    for model in models.builtin_models().values():
        print(f"{model.name:<10} {model.description}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kccdyn",
        description="Lyapunov and Jacobi stability analysis of autonomous ODE systems")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="find and classify fixed points")
    analyze.add_argument("system", help="built-in model name or definition file")
    analyze.add_argument("--seeds", help="semicolon-separated start points, e.g. '0,0; 1,1'")
    analyze.add_argument("--box", help="per-axis lo:hi intervals, e.g. '0:1, 0:1'")
    analyze.add_argument("--grid", type=int, default=None, help="grid count per axis")
    analyze.add_argument("--tol", type=float, default=1e-10,
                         help="Newton residual tolerance (default 1e-10)")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.set_defaults(handler=_cmd_analyze)

    invariants = sub.add_parser("invariants", help="geometric invariants at a phase point")
    invariants.add_argument("system")
    invariants.add_argument("--at", required=True,
                            help="x1,..,xn,y1,..,yn[,t] (comma-separated)")
    invariants.add_argument("--format", choices=("text", "json"), default="text")
    invariants.set_defaults(handler=_cmd_invariants)

    deviate = sub.add_parser("deviate", help="integrate trajectory and deviation vector")
    deviate.add_argument("system")
    deviate.add_argument("--x0", help="start state (default 1,0,..,0)")
    deviate.add_argument("--y0", help="start velocity (default f(x0))")
    deviate.add_argument("--W", help="initial deviation velocity (default 1,0,..,0)")
    deviate.add_argument("--t-end", type=float, default=10.0, dest="t_end")
    deviate.add_argument("--dt", type=float, default=1e-3)
    deviate.add_argument("--probe", type=float, default=0.1,
                         help="probe time for the focusing diagnostic")
    deviate.add_argument("--out", help="CSV output path")
    deviate.set_defaults(handler=_cmd_deviate)

    listing = sub.add_parser("models", help="list built-in systems")
    listing.set_defaults(handler=_cmd_models)
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("KCC_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DefinitionError, ExpressionError, FieldDomainError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
