"""Built-in systems, network assembly, and the fixed-point translation.

The cosmology benchmark is the two-dimensional reduction of a flat
dust-plus-radiation universe with a cosmological constant, in density
parameter variables x (radiation) and y (constant term):

    dx/dtau = -x (1 - x + 3y),   dy/dtau = (3 + x - 3y) y

with fixed points (0,1) (late-time attractor), (1,0) (radiation source),
and (0,0) (matter saddle).

Coupled networks evolve one scalar state per node under one node law:

    dx_i/dt = F(x_i) - sigma sum_r L_ir H(x_r)

with L the graph Laplacian (degree on the diagonal, -1 across edges). A
NetworkField evaluates that law from the compiled kernels of F and H; the
odesys functions evaluate it like any VectorField, so the whole stability
pipeline applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .exprdsl import DomainError, Expression, parse, shift_variables
from .odesys import FieldDomainError, VectorField

__all__ = [
    "AdjacencyGraph",
    "BuiltinModel",
    "NetworkField",
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


@dataclass(frozen=True)
class NetworkSpec:
    """The node law: evolution F and coupling H, each a template over one
    variable that stands for a node's own state, on a graph, with the
    coupling constant sigma."""

    graph: AdjacencyGraph
    evolution: Expression
    coupling: Expression
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", float(self.sigma))
        for role, template in (("evolution", self.evolution), ("coupling", self.coupling)):
            if not isinstance(template, Expression) or len(template.variables) != 1:
                raise ValueError(f"the {role} must be an expression over one node variable")

    @classmethod
    def uniform(cls, graph: AdjacencyGraph, evolution: str, coupling: str,
                sigma: float, node_var: str = "u") -> "NetworkSpec":
        """The templates parsed from text over the single variable node_var."""
        return cls(graph=graph, evolution=parse(evolution, [node_var]),
                   coupling=parse(coupling, [node_var]), sigma=sigma)


class _Plan(NamedTuple):
    """The terms w H(x_r) of the coupling sums, w = sigma L_ir != 0, row by
    row with r ascending; and where the templates' slopes and curvatures lie
    in their derivative kernel outputs laid end to end."""

    weights: np.ndarray     # w of each term
    flat: np.ndarray        # i * n + r of each term
    source: np.ndarray      # place of each term's node in coupled
    coupled: list           # the nodes some term reads, ascending
    mine: np.ndarray        # the terms with r = i
    levels: tuple           # per k, (i, term) of the k-th term of each row
    slices: tuple           # F's slope and curvature, then H's; None if zero
    curved: np.ndarray      # i * n + r of each diagonal Hessian entry


@dataclass(frozen=True)
class NetworkField:
    """The field of a NetworkSpec from the kernels of its two templates:
    f_i = ((F(x_i) - w_1 H(x_r1)) - w_2 H(x_r2)) - ... over the terms of
    row i, the float arithmetic of that sum as an expression tree, domain
    errors included. Each component's Hessian is diagonal, so J and the
    Hessian entries scatter per-node slopes and curvatures; a structurally
    zero entry is +0.0. Immutable; evaluation is reentrant."""

    spec: NetworkSpec
    name: str = "network"

    @property
    def dimension(self) -> int:
        return self.spec.graph.node_count

    @cached_property
    def _plan(self) -> _Plan:
        n = self.dimension
        weights = self.spec.sigma * laplacian(self.spec.graph)
        comps, nodes = np.nonzero(weights)
        coupled, source = np.unique(nodes, return_inverse=True)
        rank = np.arange(len(comps)) - np.searchsorted(comps, comps)
        levels = tuple((comps[rank == k], np.flatnonzero(rank == k))
                       for k in range(int(rank.max(initial=-1)) + 1))
        F, H = self.spec.evolution._kernels, self.spec.coupling._kernels
        slices = []
        for kernels, start, count in ((F, 0, n), (H, n * F.width, len(coupled))):
            width, stop = kernels.width, start + count * kernels.width
            slices += [slice(start + 1, stop, width) if len(kernels.deps) else None,
                       slice(start + int(kernels.source[0]), stop, width)
                       if len(kernels.source) else None]
        curved = np.zeros(n * n, dtype=bool)
        curved[comps * n + nodes] = slices[3] is not None
        curved[::n + 1] |= slices[1] is not None
        return _Plan(weights[comps, nodes], comps * n + nodes, source, coupled.tolist(),
                     np.flatnonzero(comps == nodes), levels, tuple(slices),
                     np.flatnonzero(curved))

    def _per_node(self, kernel: str, point: list) -> list:
        """One kernel's outputs laid end to end: F's at every node, then
        H's at every coupled node. A domain error is raised for the first
        component whose sum fails: F(x_i) before H(x_r), r ascending."""
        F = getattr(self.spec.evolution._kernels, kernel)
        H = getattr(self.spec.coupling._kernels, kernel)
        plan = self._plan
        out = []
        add = out.append if kernel == "value" else out.extend
        try:
            for v in point:
                add(F((v,)))
            for r in plan.coupled:
                add(H((point[r],)))
        except DomainError:
            n = self.dimension
            for i in range(n):
                for fn, r in [(F, i)] + [(H, r) for r in plan.flat[plan.flat // n == i] % n]:
                    try:
                        fn((point[r],))
                    except DomainError as err:
                        raise FieldDomainError(i, err) from err
            raise
        return out

    def _scatter(self, own, coupled) -> np.ndarray:
        """(n, n): entry (i, r) is d/dx_r of the terms of component i, from
        the per-node derivatives of F and H, None if structurally zero."""
        plan = self._plan
        n = self.dimension
        out = np.zeros(n * n)
        if coupled is not None:
            terms = plan.weights * coupled[plan.source]
            out[plan.flat] = -terms
        if own is not None:
            out[::n + 1] = own
            if coupled is not None:
                out[plan.flat[plan.mine]] -= terms[plan.mine]
        return out.reshape(n, n)

    def _jets(self, x: np.ndarray) -> list:
        """Slopes and curvatures of F at every node, then of H at every
        coupled node; None where structurally zero."""
        flat = np.array(self._per_node("derivatives", x.tolist()))
        return [None if k is None else flat[k] for k in self._plan.slices]

    def _values(self, point: list) -> np.ndarray:
        plan = self._plan
        flat = np.array(self._per_node("value", point))
        out = flat[:self.dimension]
        terms = plan.weights * flat[self.dimension:][plan.source]
        for comps, sel in plan.levels:
            out[comps] -= terms[sel]
        return out

    def _jacobian(self, x: np.ndarray) -> np.ndarray:
        f1, _, h1, _ = self._jets(x)
        return self._scatter(f1, h1)

    def _hessian(self, x: np.ndarray):
        f1, f2, h1, h2 = self._jets(x)
        curved = self._plan.curved
        n = self.dimension
        return (self._scatter(f1, h1), curved, curved % n,
                self._scatter(f2, h2).reshape(n * n)[curved])


def network_system(spec: NetworkSpec, name: str = "network") -> NetworkField:
    """The field with component i = F(x_i) - sigma sum_r L_ir H(x_r). Zero
    weights contribute no term, so the sigma = 0 limit is exactly the
    uncoupled field."""
    return NetworkField(spec, name)


# ---------------------------------------------------------------------------
# Fixed-point translation


def translate_to_origin(vf: VectorField, x_star) -> VectorField:
    """Field of the shifted variables u = x - x*: f_bar(u) = f(u + x*).

    Fixed points move by -x*; Jacobians at corresponding points, and hence
    both stability classifications, are unchanged.
    """
    if isinstance(vf, NetworkField):
        raise ValueError("a network field holds its node law, not expressions to translate")
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
