"""Reference checks: each op's output against numpy and the closed forms.

A check returns the op's unit of work (fixed-point reports for `analyze`,
RK4 steps for `deviate`) or raises Mismatch. Nothing here imports kccdyn.
"""

from __future__ import annotations

import csv
import json
import re

import numpy as np

from workloads import Op, System

RESIDUAL_TOL = 1e-8
SPECTRUM_TOL = 1e-7
JACOBI_TOL = 1e-9
JACOBIAN_TOL = 1e-9
RK4_TOL = 1e-8
# Text reports print 6 significant digits: half a unit in the sixth digit.
PRINT_REL = 5e-6
RK4_SAMPLES = 10  # compared rows per run, plus the final row


class Mismatch(Exception):
    """An op's output disagrees with the reference."""


class ReportedFailure(Exception):
    """Output is missing a part whose failure the program reported on stderr."""


def _close(got: float, want: float, tol: float, printed: bool) -> bool:
    return abs(got - want) <= tol + (PRINT_REL * abs(want) if printed else 0.0)


def _spectra_match(got, want, tol: float, printed: bool) -> bool:
    """Greedy nearest-neighbour matching of two complex multisets."""
    remaining = [complex(z) for z in want]
    if len(got) != len(remaining):
        return False
    for z in got:
        best = min(range(len(remaining)), key=lambda i: abs(remaining[i] - z))
        w = remaining.pop(best)
        if not (_close(z.real, w.real, tol, printed) and _close(z.imag, w.imag, tol, printed)):
            return False
    return True


def jacobi_verdict(eigs) -> str:
    """Sign of max Re(lambda^2), the Jacobi margin at a fixed point."""
    margin = max((complex(z) ** 2).real for z in eigs)
    if margin > JACOBI_TOL:
        return "Jacobi-unstable"
    if margin < -JACOBI_TOL:
        return "Jacobi-stable"
    return "indeterminate"


def _complex(text: str) -> complex:
    m = re.fullmatch(r"(\S+)(?: ([+-]) (\S+)i)?", text.strip())
    if not m:
        raise Mismatch(f"cannot read eigenvalue {text!r}")
    imag = 0.0 if m.group(2) is None else float(m.group(3)) * (1 if m.group(2) == "+" else -1)
    return complex(float(m.group(1)), imag)


# ---------------------------------------------------------------------------
# analyze


def _text_reports(stdout: str) -> list[dict]:
    lines = stdout.splitlines()
    header = re.fullmatch(r"system .*: (\d+) fixed point\(s\), \d+ failed seed\(s\)",
                          lines[0] if lines else "")
    if not header:
        raise Mismatch("missing report header")
    reports = []
    for line in lines[1:]:
        if line.startswith("fixed point ("):
            location = [float(v) for v in line[len("fixed point ("):-1].split(",")]
            reports.append({"location": np.array(location)})
        elif reports:
            key, _, value = re.split(r"(\s{2,})", line.strip(), maxsplit=1)
            reports[-1][key] = value
    if len(reports) != int(header.group(1)):
        raise Mismatch(f"header says {header.group(1)} reports, found {len(reports)}")
    return [{"location": r["location"],
             "residual": float(r["residual"]),
             "eigenvalues": [_complex(z) for z in r["eigenvalues"].split(",")],
             "verdict": r["jacobi verdict"].split()[0]} for r in reports]


def _json_reports(stdout: str) -> list[dict]:
    return [{"location": np.array(r["location"]),
             "residual": r["residual"],
             "jacobian": np.array(r["jacobian"]),
             "eigenvalues": [complex(z["re"], z["im"]) for z in r["eigenvalues"]],
             "verdict": r["jacobi_verdict"]} for r in json.loads(stdout)["fixed_points"]]


def _reference_point(system: System, report: dict, printed: bool) -> np.ndarray:
    """The exact fixed point a report stands for. JSON locations are exact, so
    the closed-form residual is checked there; a printed location must be
    one of the closed-form fixed points to print precision."""
    x = report["location"]
    if not printed:
        if np.max(np.abs(system.f(x))) > RESIDUAL_TOL:
            raise Mismatch(f"{system.name}: closed-form residual too large at {x.tolist()}")
        return x
    for c in system.candidates:
        if all(_close(g, w, SPECTRUM_TOL, True) for g, w in zip(x, c)):
            return c
    raise Mismatch(f"{system.name}: {x.tolist()} is not a closed-form fixed point")


def _reported_failures(stderr: str) -> list[np.ndarray]:
    return [np.array(json.loads(m)) for m in re.findall(r"analysis failed at (\[[^\]]*\])", stderr)]


def check_analyze(op: Op, stdout: str, stderr: str) -> int:
    system, printed = op.system, not op.json
    reports = _json_reports(stdout) if op.json else _text_reports(stdout)
    found = []
    for report in reports:
        if report["residual"] > RESIDUAL_TOL:
            raise Mismatch(f"{system.name}: reported residual {report['residual']:.3e}")
        x = _reference_point(system, report, printed)
        A = system.jac(x)
        if "jacobian" in report and np.max(np.abs(report["jacobian"] - A)) > \
                JACOBIAN_TOL * (1.0 + np.max(np.abs(A))):
            raise Mismatch(f"{system.name}: Jacobian differs at {x.tolist()}")
        if system.origin_spectrum is not None and not np.any(x):
            want = system.origin_spectrum  # 1 - sigma eig(L)
        else:
            want = np.linalg.eigvals(A)
        if not _spectra_match(report["eigenvalues"], want, SPECTRUM_TOL, printed):
            raise Mismatch(f"{system.name}: eigenvalues differ at {x.tolist()}")
        if report["verdict"] != jacobi_verdict(want):
            raise Mismatch(f"{system.name}: verdict {report['verdict']} at {x.tolist()}, "
                           f"reference {jacobi_verdict(want)}")
        found.append(x)
    failed = _reported_failures(stderr)
    for point in system.required:
        if any(np.max(np.abs(point - x)) <= SPECTRUM_TOL for x in found):
            continue
        if any(np.max(np.abs(point - x)) <= 1e-6 * (1.0 + np.max(np.abs(point))) for x in failed):
            raise ReportedFailure(f"analysis failed at fixed point {point.tolist()}")
        raise Mismatch(f"{system.name}: fixed point {point.tolist()} not reported")
    return len(reports)


# ---------------------------------------------------------------------------
# deviate


def _rk4(system: System, x0, W, dt: float, steps: int, keep: set[int]) -> dict[int, np.ndarray]:
    """Trajectory and deviation vector of the lifted system x'' = J(x) x',
    xi'' = J(x) xi' + (H(x) . x') xi, by classic RK4 on the closed forms."""
    n = len(x0)
    u = np.concatenate([x0, system.f(x0), np.zeros(n), W])

    def rhs(u):
        x, y, xi, eta = u[:n], u[n:2 * n], u[2 * n:3 * n], u[3 * n:]
        A = system.jac(x)
        return np.concatenate([y, A @ y, eta, A @ eta + system.hess_y(x, y) @ xi])

    rows = {0: u}
    for k in range(1, steps + 1):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k in keep:
            rows[k] = u
    return rows


def check_deviate(op: Op, stdout: str) -> int:
    system, steps, n = op.system, op.steps, len(op.x0)
    if f"wrote {steps + 1} samples to {op.out}" not in stdout:
        raise Mismatch(f"{system.name}: expected {steps + 1} samples")
    keep = set(range(0, steps + 1, max(1, steps // RK4_SAMPLES))) | {steps}
    with open(op.out, newline="") as handle:
        rows = {k: row for k, row in enumerate(csv.reader(handle), start=-1) if k in keep}
    if len(rows) != len(keep):
        raise Mismatch(f"{system.name}: CSV has fewer than {steps + 1} rows")
    reference = _rk4(system, op.x0, op.W, op.dt, steps, keep)
    for k in sorted(keep):
        got = np.array([float(v) for v in rows[k]])
        u = reference[k]
        want = np.concatenate([[k * op.dt], u[:3 * n], [np.linalg.norm(u[2 * n:3 * n])]])
        if got.shape != want.shape or np.any(np.abs(got - want) > RK4_TOL * (1.0 + np.abs(want))):
            raise Mismatch(f"{system.name}: CSV row {k} differs from the reference RK4")

    # Deviation tensor at the start point, P = 1/2 H.y0 + 1/4 J^2 for a lift.
    line = re.search(r"deviation tensor spectrum at x0: (.*) -> (\S+)", stdout)
    if not line:
        raise Mismatch(f"{system.name}: no deviation spectrum line")
    A = system.jac(op.x0)
    P = 0.5 * system.hess_y(op.x0, system.f(op.x0)) + 0.25 * (A @ A)
    want = np.linalg.eigvals(P)
    got = [_complex(z) for z in line.group(1).split(",")]
    if not _spectra_match(got, want, SPECTRUM_TOL, True):
        raise Mismatch(f"{system.name}: deviation spectrum differs at x0")
    top = max(want.real)
    verdict = ("Jacobi-stable" if top < -JACOBI_TOL else
               "Jacobi-unstable" if top > JACOBI_TOL else "indeterminate")
    if line.group(2) != verdict:
        raise Mismatch(f"{system.name}: start verdict {line.group(2)}, reference {verdict}")
    return steps


def check(op: Op, stdout: str, stderr: str) -> int:
    if op.verb == "deviate":
        return check_deviate(op, stdout)
    return check_analyze(op, stdout, stderr)
