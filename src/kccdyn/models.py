"""Built-in systems, network assembly, and the fixed-point translation.

The cosmology benchmark is the two-dimensional reduction of a flat
dust-plus-radiation universe with a cosmological constant, in density
parameter variables x (radiation) and y (constant term):

    dx/dtau = -x (1 - x + 3y),   dy/dtau = (3 + x - 3y) y

with fixed points (0,1) (late-time attractor), (1,0) (radiation source),
and (0,0) (matter saddle).

Coupled networks evolve one scalar state per node:

    dx_i/dt = F_i(x) - sigma sum_r L_ir H_r(x)

with L the graph Laplacian (degree on the diagonal, -1 across edges). The
assembled field is an ordinary VectorField, so the whole stability pipeline
applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .exprdsl import BinOp, Expression, Num, parse, remap_variables, shift_variables
from .odesys import VectorField

__all__ = [
    "AdjacencyGraph",
    "BuiltinModel",
    "NetworkSpec",
    "builtin_models",
    "harmonic_system",
    "laplacian",
    "lcdm_system",
    "network_system",
    "parse_graph",
    "read_graph",
    "translate_to_origin",
]


def lcdm_system() -> VectorField:
    """The cosmology benchmark field over variables (x, y)."""
    return VectorField.from_expressions(
        ["-x*(1 - x + 3*y)", "(3 + x - 3*y)*y"], ["x", "y"], name="lcdm")


def harmonic_system() -> VectorField:
    """Rotation pair f(x, y) = (y, -x); constant Jacobian [[0,1],[-1,0]]."""
    return VectorField.from_expressions(["y", "-x"], ["x", "y"], name="harmonic")


# ---------------------------------------------------------------------------
# Graphs and networks


@dataclass(frozen=True)
class AdjacencyGraph:
    """Undirected simple graph; edges stored as (i, j) pairs with i < j."""

    node_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("graph needs at least one node")
        normalized = set()
        for edge in self.edges:
            i, j = int(edge[0]), int(edge[1])
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < self.node_count and 0 <= j < self.node_count):
                raise ValueError(f"edge {edge} outside 0..{self.node_count - 1}")
            normalized.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(normalized))

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[tuple[int, int]]) -> "AdjacencyGraph":
        return cls(node_count=node_count, edges=frozenset((int(i), int(j)) for i, j in edges))

    def degree(self, node: int) -> int:
        return sum(1 for i, j in self.edges if node in (i, j))


def laplacian(graph: AdjacencyGraph) -> np.ndarray:
    """Degree matrix minus adjacency; symmetric with exactly-zero row sums."""
    N = graph.node_count
    L = np.zeros((N, N))
    for i, j in graph.edges:
        L[i, i] += 1.0
        L[j, j] += 1.0
        L[i, j] = -1.0
        L[j, i] = -1.0
    return L


def parse_graph(text: str) -> AdjacencyGraph:
    """Graph file format: first line N, then one "i j" edge per line
    (0-based). Blank lines and lines starting with # are skipped."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty graph file")
    try:
        node_count = int(lines[0])
    except ValueError as err:
        raise ValueError(f"first line must be the node count, got {lines[0]!r}") from err
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}, expected 'i j'")
        edges.append((int(parts[0]), int(parts[1])))
    return AdjacencyGraph.from_edges(node_count, edges)


def read_graph(path) -> AdjacencyGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_graph(handle.read())


def _node_variables(count: int, prefix: str = "x") -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))


@dataclass(frozen=True)
class NetworkSpec:
    """Evolution F_i and coupling H_r, one expression per node, over the
    N shared node-state variables, plus the coupling constant sigma."""

    graph: AdjacencyGraph
    evolution: tuple[Expression, ...]
    coupling: tuple[Expression, ...]
    sigma: float

    def __post_init__(self):
        N = self.graph.node_count
        object.__setattr__(self, "evolution", tuple(self.evolution))
        object.__setattr__(self, "coupling", tuple(self.coupling))
        object.__setattr__(self, "sigma", float(self.sigma))
        if len(self.evolution) != N or len(self.coupling) != N:
            raise ValueError(
                f"need {N} evolution and coupling expressions, got "
                f"{len(self.evolution)} and {len(self.coupling)}")
        names = self.variables
        for expr in self.evolution + self.coupling:
            if expr.variables != names:
                raise ValueError(
                    f"expression variables {expr.variables} do not match {names}")

    @property
    def variables(self) -> tuple[str, ...]:
        return self.evolution[0].variables if self.evolution else ()

    @classmethod
    def uniform(cls, graph: AdjacencyGraph, evolution: str, coupling: str,
                sigma: float, node_var: str = "u") -> "NetworkSpec":
        """Same per-node law everywhere: the templates are expressions over
        the single variable node_var, meaning each node's own state."""
        names = _node_variables(graph.node_count)
        f_template = parse(evolution, [node_var])
        h_template = parse(coupling, [node_var])
        evolution_exprs = tuple(
            remap_variables(f_template, names, {0: i}) for i in range(graph.node_count))
        coupling_exprs = tuple(
            remap_variables(h_template, names, {0: i}) for i in range(graph.node_count))
        return cls(graph=graph, evolution=evolution_exprs,
                   coupling=coupling_exprs, sigma=sigma)


def network_system(spec: NetworkSpec, name: str = "network") -> VectorField:
    """Assemble component i = F_i(x) - sigma sum_r L_ir H_r(x) as a plain
    VectorField. Zero coefficients contribute no AST term, so the sigma = 0
    limit is exactly the uncoupled field."""
    L = laplacian(spec.graph)
    names = spec.variables
    components = []
    for i in range(spec.graph.node_count):
        root = spec.evolution[i].root
        for r in range(spec.graph.node_count):
            weight = spec.sigma * L[i, r]
            if weight == 0.0:
                continue
            term = BinOp("*", Num(weight), spec.coupling[r].root)
            root = BinOp("-", root, term)
        components.append(Expression(root=root, variables=names))
    return VectorField(components=tuple(components), name=name)


# ---------------------------------------------------------------------------
# Fixed-point translation


def translate_to_origin(vf: VectorField, x_star) -> VectorField:
    """Field of the shifted variables u = x - x*: f_bar(u) = f(u + x*).

    Fixed points move by -x*; Jacobians at corresponding points, and hence
    both stability classifications, are unchanged.
    """
    shift = np.asarray(x_star, dtype=float)
    if shift.shape != (vf.dimension,):
        raise ValueError(f"shift has shape {shift.shape}, expected ({vf.dimension},)")
    components = tuple(shift_variables(comp, shift) for comp in vf.components)
    suffix = "@" + ",".join(f"{v:.6g}" for v in shift)
    return VectorField(components=components, name=(vf.name + suffix) if vf.name else suffix)


# ---------------------------------------------------------------------------
# Registry used by the CLI


@dataclass(frozen=True)
class BuiltinModel:
    name: str
    factory: Callable[[], VectorField]
    search_box: tuple[tuple[float, float], ...]
    search_grid: int
    description: str


_BUILTINS = (
    BuiltinModel(
        name="lcdm",
        factory=lcdm_system,
        search_box=((0.0, 1.0), (0.0, 1.0)),
        search_grid=5,
        description="cosmology benchmark: dx=-x(1-x+3y), dy=(3+x-3y)y",
    ),
    BuiltinModel(
        name="harmonic",
        factory=harmonic_system,
        search_box=((-1.0, 1.0), (-1.0, 1.0)),
        search_grid=3,
        description="rotation pair: dx=y, dy=-x",
    ),
)


def builtin_models() -> dict[str, BuiltinModel]:
    return {model.name: model for model in _BUILTINS}
