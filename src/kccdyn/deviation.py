"""Trajectory plus deviation-vector integration.

Integrates the coupled first-order system

    x' = y,   y' = -2 G(x, y, t),
    xi' = eta, eta' = -2 N(x, y, t) eta - 2 dG/dx(x, y, t) xi

with classic fixed-step RK4, i.e. the trajectory of the second-order system
together with the linearized deviation equation along it, from xi(0) = 0
and xi'(0) = W != 0.

The near-zero focusing diagnostic compares ||xi(t*)|| against t*^2 at a
small probe time. Taken literally that comparison reads "dispersing" for
every run with W != 0 as t* -> 0+ (||xi|| grows like ||W|| t there), so the
diagnostic is informational only; the deviation-tensor spectrum is the
authoritative verdict.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .exprdsl import DomainError
from .kcc import Sode
from .odesys import FieldDomainError

__all__ = ["DeviationRun", "focusing_diagnostic", "integrate"]


@dataclass(eq=False)
class DeviationRun:
    """Samples of one integration, on the uniform grid times[k] = k dt."""

    times: np.ndarray        # (m,)
    states: np.ndarray       # (m, n) x(t)
    velocities: np.ndarray   # (m, n) y(t)
    xi: np.ndarray           # (m, n)
    xi_dot: np.ndarray       # (m, n)
    W: np.ndarray            # initial xi'
    norms: np.ndarray        # (m,) Euclidean ||xi(t)||
    truncated: bool = False
    truncation_reason: str | None = None

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def norm_at(self, t: float) -> float:
        if not self.times[0] <= t <= self.times[-1]:
            raise ValueError(f"time {t} outside run range [0, {self.final_time}]")
        return float(np.interp(t, self.times, self.norms))

    def to_csv(self, target) -> None:
        """Columns: t, x1.., y1.., xi1.., norm."""
        n = self.dimension
        header = (["t"]
                  + [f"x{i + 1}" for i in range(n)]
                  + [f"y{i + 1}" for i in range(n)]
                  + [f"xi{i + 1}" for i in range(n)]
                  + ["norm"])
        close = False
        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            handle = open(target, "w", newline="")
            close = True
        else:
            handle = target
        try:
            writer = csv.writer(handle)
            writer.writerow(header)
            for k in range(self.times.size):
                row = ([repr(float(self.times[k]))]
                       + [repr(float(v)) for v in self.states[k]]
                       + [repr(float(v)) for v in self.velocities[k]]
                       + [repr(float(v)) for v in self.xi[k]]
                       + [repr(float(self.norms[k]))])
                writer.writerow(row)
        finally:
            if close:
                handle.close()

    def csv_text(self) -> str:
        buffer = io.StringIO()
        self.to_csv(buffer)
        return buffer.getvalue()


def integrate(sode: Sode, x0, y0, W, t_end: float = 10.0,
              dt: float = 1e-3) -> DeviationRun:
    """RK4 run from t = 0 to t_end in steps of dt.

    A domain error or non-finite state mid-run truncates the run; the
    partial samples are returned with the truncated flag set.
    """
    n = sode.dimension
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    W = np.asarray(W, dtype=float)
    for name, vec in (("x0", x0), ("y0", y0), ("W", W)):
        if vec.shape != (n,):
            raise ValueError(f"{name} has shape {vec.shape}, expected ({n},)")
    if not np.any(W):
        raise ValueError("W must be non-zero (xi'(0) = W != 0)")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if t_end < dt:
        raise ValueError("t_end must be at least dt")
    steps = int(round(t_end / dt))

    def rhs(t: float, u: np.ndarray) -> np.ndarray:
        x, y, xi, eta = u[:n], u[n:2 * n], u[2 * n:3 * n], u[3 * n:]
        g, N, g_x = sode.motion_terms(x, y, t)
        return np.concatenate([y, -2.0 * g, eta, -2.0 * (N @ eta) - 2.0 * (g_x @ xi)])

    u = np.concatenate([x0, y0, np.zeros(n), W])
    samples = np.empty((steps + 1, 4 * n))
    samples[0] = u
    filled = 1
    truncated = False
    reason = None
    # Divergence is detected and truncated deliberately, so overflow along
    # the way must not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            t = k * dt
            try:
                k1 = rhs(t, u)
                k2 = rhs(t + 0.5 * dt, u + 0.5 * dt * k1)
                k3 = rhs(t + 0.5 * dt, u + 0.5 * dt * k2)
                k4 = rhs(t + dt, u + dt * k3)
            except (DomainError, FieldDomainError) as err:
                truncated = True
                reason = f"domain error at t = {t:.6g}: {err}"
                break
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(u)):
                truncated = True
                reason = f"non-finite state after t = {t + dt:.6g} (divergence)"
                break
            samples[filled] = u
            filled += 1

    times = np.arange(filled) * dt
    states = samples[:filled, :n]
    velocities = samples[:filled, n:2 * n]
    xi = samples[:filled, 2 * n:3 * n]
    xi_dot = samples[:filled, 3 * n:]
    norms = np.linalg.norm(xi, axis=1)

    return DeviationRun(
        times=times, states=states, velocities=velocities, xi=xi, xi_dot=xi_dot,
        W=W.copy(), norms=norms, truncated=truncated, truncation_reason=reason,
    )


def focusing_diagnostic(run: DeviationRun, t_star: float = 0.1) -> str:
    """"bunching" when ||xi(t*)|| < t*^2, otherwise "dispersing".

    Informational only (see the module docstring); it never overrides the
    deviation-tensor spectrum.
    """
    if not 0.0 < t_star <= run.final_time:
        raise ValueError(
            f"probe time {t_star} outside run range (0, {run.final_time}]")
    return "bunching" if run.norm_at(t_star) < t_star * t_star else "dispersing"
