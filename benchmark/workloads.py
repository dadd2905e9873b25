"""Seeded workloads: definition files, CLI argument lists and closed forms.

Everything kccdyn sees in a run is generated here from the run's seed and
written to the run's scratch directory. The closed forms next to each input
(field, Jacobian, Hessian-vector product, fixed points) are the benchmark's
own numpy code; the reference checks use them and never call kccdyn.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("deviate-lcdm", "analyze-network", "analyze-small")

NETWORK_SIGMA = 0.8
NEWTON_TOL = 1e-10  # the CLI's default --tol


@dataclass(eq=False)
class System:
    """One generated system and its closed forms."""

    name: str
    target: str                                   # built-in name or definition path
    f: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    # (x, v) -> sum_k d2 f_i / dx_j dx_k v_k, needed only for `deviate`
    hess_y: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    candidates: list[np.ndarray] = field(default_factory=list)  # known fixed points
    required: list[np.ndarray] = field(default_factory=list)    # must be reported
    seed_count: int = 0                           # Newton seeds the search runs
    origin_spectrum: np.ndarray | None = None     # closed-form spectrum at x = 0

    @property
    def dimension(self) -> int:
        return len(self.candidates[0])


@dataclass(eq=False)
class Op:
    """One CLI invocation and what its reference check needs."""

    verb: str                  # "analyze" | "deviate"
    system: System
    argv: list[str]
    json: bool = False         # analyze --format json
    x0: np.ndarray | None = None
    W: np.ndarray | None = None
    t_end: float = 10.0        # the CLI defaults
    dt: float = 1e-3
    out: str | None = None

    @property
    def steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(eq=False)
class Workload:
    deck: list[list[Op]]       # cycles, run in order and repeated
    setup_targets: list[str]   # what one set-up loads


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _in_box(point, box) -> bool:
    return all(lo <= v <= hi for v, (lo, hi) in zip(point, box))


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _search_section(box, grid: int) -> str:
    axes = ", ".join(f"{lo!r}:{hi!r}" for lo, hi in box)
    return f"[search]\nbox = {axes}\ngrid = {grid}\n"


def _finish(system: System, box) -> System:
    system.required = [c for c in system.candidates if _in_box(c, box)]
    return system


# ---------------------------------------------------------------------------
# Closed-form systems


def lcdm() -> System:
    """The built-in cosmology model with its default search (box [0,1]^2, grid 5)."""
    def f(v):
        x, y = v
        return np.array([-x * (1.0 - x + 3.0 * y), (3.0 + x - 3.0 * y) * y])

    def jac(v):
        x, y = v
        return np.array([[-1.0 + 2.0 * x - 3.0 * y, -3.0 * x],
                         [y, 3.0 + x - 6.0 * y]])

    def hess_y(v, w):
        return np.array([[2.0 * w[0] - 3.0 * w[1], -3.0 * w[0]],
                         [w[1], w[0] - 6.0 * w[1]]])

    box = ((0.0, 1.0), (0.0, 1.0))
    points = [np.array(p) for p in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))]
    return _finish(System("lcdm", "lcdm", f, jac, hess_y, points, seed_count=25), box)


def pendulum(path: str, w: float, c: float) -> System:
    """x' = y, y' = -w sin x - c y; fixed points (k pi, 0)."""
    box, grid = ((-4.0, 4.0), (-2.0, 2.0)), 15
    _write(path, f"[system]\nname = pendulum\nvariables = x, y\nf1 = y\n"
                 f"f2 = -{w!r}*sin(x) - {c!r}*y\n" + _search_section(box, grid))

    def f(v):
        return np.array([v[1], -w * math.sin(v[0]) - c * v[1]])

    def jac(v):
        return np.array([[0.0, 1.0], [-w * math.cos(v[0]), -c]])

    def hess_y(v, u):
        return np.array([[0.0, 0.0], [w * math.sin(v[0]) * u[0], 0.0]])

    # Newton from the edge of the box can land several periods away.
    points = [np.array([k * math.pi, 0.0]) for k in range(-50, 51)]
    return _finish(System("pendulum", path, f, jac, hess_y, points,
                          seed_count=grid ** 2), box)


def lorenz(path: str, r: float) -> System:
    s, b = 10.0, 8.0 / 3.0
    box, grid = ((-10.0, 10.0), (-10.0, 10.0), (-1.0, 31.0)), 6
    _write(path, f"[system]\nname = lorenz\nvariables = x, y, z\nf1 = {s!r}*(y - x)\n"
                 f"f2 = x*({r!r} - z) - y\nf3 = x*y - {b!r}*z\n"
                 + _search_section(box, grid))

    def f(v):
        x, y, z = v
        return np.array([s * (y - x), x * (r - z) - y, x * y - b * z])

    def jac(v):
        x, y, z = v
        return np.array([[-s, s, 0.0], [r - z, -1.0, -x], [y, x, -b]])

    q = math.sqrt(b * (r - 1.0))
    points = [np.zeros(3), np.array([q, q, r - 1.0]), np.array([-q, -q, r - 1.0])]
    return _finish(System("lorenz", path, f, jac, None, points, seed_count=grid ** 3), box)


def lotka_volterra(path: str, a: float, b: float, g: float) -> System:
    """Competitive pair x' = x(1 - x - a y), y' = g y(1 - y - b x)."""
    box, grid = ((-0.25, 1.25), (-0.25, 1.25)), 12
    _write(path, f"[system]\nname = lotka-volterra\nvariables = x, y\n"
                 f"f1 = x*(1 - x - {a!r}*y)\nf2 = {g!r}*y*(1 - y - {b!r}*x)\n"
                 + _search_section(box, grid))

    def f(v):
        x, y = v
        return np.array([x * (1.0 - x - a * y), g * y * (1.0 - y - b * x)])

    def jac(v):
        x, y = v
        return np.array([[1.0 - 2.0 * x - a * y, -a * x],
                         [-g * b * y, g * (1.0 - 2.0 * y - b * x)]])

    points = [np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]),
              np.array([(1.0 - a) / (1.0 - a * b), (1.0 - b) / (1.0 - a * b)])]
    return _finish(System("lotka-volterra", path, f, jac, None, points,
                          seed_count=grid ** 2), box)


def _graph_edges(kind: str, n: int) -> list[tuple[int, int]]:
    edges = [(i, i + 1) for i in range(n - 1)]
    return edges + [(n - 1, 0)] if kind == "ring" else edges


def _laplacian(n: int, edges) -> np.ndarray:
    L = np.zeros((n, n))
    for i, j in edges:
        L[i, i] += 1.0
        L[j, j] += 1.0
        L[i, j] = L[j, i] = -1.0
    return L


def _newton_reaches_origin(f, jac, seed) -> bool:
    """The CLI's damped Newton iteration (full step, halved until the max-norm
    residual drops), replayed on the closed form."""
    x = np.array(seed, dtype=float)
    fx = f(x)
    res = float(np.max(np.abs(fx)))
    for _ in range(100):
        if res <= NEWTON_TOL:
            break
        step = np.linalg.solve(jac(x), -fx)
        for halving in range(31):
            trial = x + 0.5 ** halving * step
            f_trial = f(trial)
            r_trial = float(np.max(np.abs(f_trial)))
            if r_trial < res:
                break
        else:
            return False
        x, fx, res = trial, f_trial, r_trial
    return res <= NEWTON_TOL and float(np.max(np.abs(x))) <= 1e-7


def network(directory: str, kind: str, n: int, rng: np.random.Generator) -> System:
    """x_i' = x_i - x_i^3 - sigma sum_r L_ir sin(x_r) on a ring or path graph."""
    sigma = NETWORK_SIGMA
    edges = _graph_edges(kind, n)
    L = _laplacian(n, edges)
    graph = _write(os.path.join(directory, f"{kind}{n}.txt"),
                   f"{n}\n" + "".join(f"{i} {j}\n" for i, j in edges))

    def f(x):
        return x - x ** 3 - sigma * (L @ np.sin(x))

    def jac(x):
        return np.diag(1.0 - 3.0 * x ** 2) - sigma * L * np.cos(x)

    def hess_y(x, v):
        return np.diag(-6.0 * x * v) + sigma * L * (np.sin(x) * v)

    # Seeds drawn in [-0.3, 0.3]^N are kept only when Newton takes them to the
    # origin. Other basins hold further fixed points, and each one found adds
    # a full spectrum analysis (seconds at N = 40), so letting the basin vary
    # with the seed would make a run's work depend on it.
    seeds = [np.zeros(n)]
    while len(seeds) < 3:
        candidate = rng.uniform(-0.3, 0.3, n)
        if _newton_reaches_origin(f, jac, candidate):
            seeds.append(candidate)
    path = _write(os.path.join(directory, f"{kind}{n}.ini"),
                  f"[system]\nname = {kind}-{n}\nmodel = network\ngraph = {graph}\n"
                  f"evolution = u - u^3\ncoupling = sin(u)\nsigma = {sigma!r}\n"
                  f"[search]\nseeds = {'; '.join(_csv(s) for s in seeds)}\n")
    origin = np.zeros(n)
    return System(f"{kind}-{n}", path, f, jac, hess_y, [origin], [origin],
                  seed_count=len(seeds),
                  origin_spectrum=1.0 - sigma * np.linalg.eigvalsh(L))


# ---------------------------------------------------------------------------
# Ops


def analyze(system: System, json: bool = False) -> Op:
    argv = ["analyze", system.target] + (["--format", "json"] if json else [])
    return Op("analyze", system, argv, json=json)


def deviate(system: System, x0, W, out: str, t_end: float | None = None,
            dt: float = 1e-3) -> Op:
    """`deviate` from x0 with xi'(0) = W; the CLI's default length unless t_end."""
    # "--x0=..." keeps a leading minus sign from reading as an option.
    argv = ["deviate", system.target, f"--x0={_csv(x0)}", f"--W={_csv(W)}", "--out", out]
    vectors = dict(x0=np.asarray(x0), W=np.asarray(W), out=out)
    if t_end is None:
        return Op("deviate", system, argv, **vectors)
    # The focusing probe (default t* = 0.1) must fall inside the run.
    argv += ["--t-end", repr(t_end), "--dt", repr(dt), "--probe", repr(t_end / 2)]
    return Op("deviate", system, argv, t_end=t_end, dt=dt, **vectors)


def _direction(rng: np.random.Generator, n: int) -> np.ndarray:
    W = rng.normal(size=n)
    return W / np.linalg.norm(W)


def build(name: str, seed: int, directory: str) -> Workload:
    rng = np.random.default_rng(seed)
    out = os.path.join(directory, "deviate.csv")

    if name == "deviate-lcdm":
        system = lcdm()
        deck = []
        for _ in range(16):
            # x0 uniform on the physical triangle x, y >= 0, x + y <= 1.
            u, v = rng.uniform(size=2)
            x0 = np.array([u, v]) if u + v <= 1.0 else np.array([1.0 - u, 1.0 - v])
            deck.append([deviate(system, x0, _direction(rng, 2), out)]
                        + [analyze(system) for _ in range(20)])
        return Workload(deck, ["lcdm"])

    if name == "analyze-network":
        systems = [network(directory, kind, n, rng)
                   for kind in ("ring", "path") for n in (10, 20, 40)]
        analyses = [analyze(s, json=True) for s in systems]
        # A fresh deviate start point per cycle, on path-10: one start point
        # whose spectrum defeats the eigen route then fails one cycle, not all.
        deck = [analyses + [deviate(systems[3], rng.uniform(-0.3, 0.3, 10),
                                    _direction(rng, 10), out, t_end=0.1)]
                for _ in range(8)]
        return Workload(deck, [s.target for s in systems])

    if name == "analyze-small":
        # Parameters are drawn one per stratum, so that every seed covers the
        # same regimes and does about the same work per cycle.
        def strata(lo: float, hi: float, k: int) -> float:
            return rng.uniform(lo + (hi - lo) * k / 4, lo + (hi - lo) * (k + 1) / 4)

        systems = []
        for k in range(4):
            w = strata(0.5, 2.0, k)
            # c^2 < 2w makes the origin a Jacobi-stable focus.
            c = strata(0.2, 0.8, 3 - k) * math.sqrt(2.0 * w)
            systems.append(pendulum(os.path.join(directory, f"pendulum{k}.ini"), w, c))
        for k in range(4):
            # Most of the top stratum, r in [23, 30], lies past the Hopf value
            # 24.74, where the outer points are saddle-foci.
            r = strata(2.0, 30.0, k)
            systems.append(lorenz(os.path.join(directory, f"lorenz{k}.ini"), r))
        for k, (sa, sb) in enumerate(((-1, -1), (1, 1), (-1, 1), (1, -1))):
            # One pair per competition regime, away from a = 1 and b = 1,
            # where fixed points collide.
            a = 1.0 + sa * rng.uniform(0.25, 0.75)
            b = 1.0 + sb * rng.uniform(0.25, 0.75)
            g = strata(0.5, 2.0, k)
            systems.append(lotka_volterra(os.path.join(directory, f"lv{k}.ini"), a, b, g))
        x0 = np.array([rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)])
        deck = [[analyze(s) for s in systems]
                + [deviate(systems[0], x0, _direction(rng, 2), out, t_end=0.5)]]
        return Workload(deck, [s.target for s in systems])

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
