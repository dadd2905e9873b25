"""Autonomous first-order systems dx/dt = f(x) with exact derivatives.

The functions here evaluate any field: a VectorField of n expressions over
n shared variables, or a network's models.NetworkField, which evaluates its
node law. A field has a dimension n and three methods: _values(point) at a
list of floats, _jacobian(x), and _hessian(x), which returns the Jacobian
and the Hessian entries (target, column, entries): d2 f_i/dx_j dx_k is
entries[e] for the one e with target[e] = i * n + j and column[e] = k, each
target's e in ascending k, or zero if there is none. Both come from the
compiled forward-mode kernels in exprdsl, so they are exact and every
Hessian is symmetric by construction. A VectorField reads them from its
components' flat kernel outputs through one index layout (_Layout).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .exprdsl import DomainError, Expression, parse

__all__ = [
    "FieldDomainError",
    "VectorField",
    "eval_field",
    "field_derivatives",
    "jacobian",
]


class FieldDomainError(Exception):
    """Evaluation of one component hit a singular operation."""

    def __init__(self, component: int, error: DomainError):
        self.component = component
        self.error = error
        super().__init__(f"component {component + 1}: {error}")


@dataclass(frozen=True)
class VectorField:
    """n smooth components over n shared variables. Immutable; evaluation is
    reentrant and thread-safe."""

    components: tuple[Expression, ...]
    name: str = ""

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) < 1:
            raise ValueError("a vector field needs at least one component")
        variables = comps[0].variables
        for k, comp in enumerate(comps):
            if comp.variables != variables:
                raise ValueError(
                    f"component {k + 1} uses variables {comp.variables}, "
                    f"expected {variables}")
        if len(variables) != len(comps):
            raise ValueError(
                f"{len(comps)} components over {len(variables)} variables; "
                "the system must be square")

    @property
    def dimension(self) -> int:
        return len(self.components)

    @property
    def variables(self) -> tuple[str, ...]:
        return self.components[0].variables

    @classmethod
    def from_expressions(cls, sources: Sequence[str], variables: Sequence[str],
                         name: str = "") -> "VectorField":
        names = tuple(variables)
        return cls(tuple(parse(src, names) for src in sources), name=name)

    @cached_property
    def _kernels(self) -> tuple:
        return tuple(comp._kernels for comp in self.components)

    @cached_property
    def _layout(self) -> "_Layout":
        return _field_layout(self)

    def __getstate__(self):
        # compiled functions do not pickle; they are rebuilt on demand
        return {k: v for k, v in self.__dict__.items() if k != "_kernels"}

    def _outputs(self, kernel: str, point: list) -> list:
        """One kernel of every component at point; derivative outputs are
        laid end to end after a zero slot, as _Layout describes."""
        out = [] if kernel == "value" else [0.0]
        add = out.append if kernel == "value" else out.extend
        for k, kernels in enumerate(self._kernels):
            try:
                add(getattr(kernels, kernel)(point))
            except DomainError as err:
                raise FieldDomainError(k, err) from err
        return out

    def _values(self, point: list) -> np.ndarray:
        return np.array(self._outputs("value", point))

    def _entries(self, x: np.ndarray) -> np.ndarray:
        return np.array(self._outputs("derivatives", x.tolist()))

    def _jacobian(self, x: np.ndarray) -> np.ndarray:
        n = self.dimension
        return self._entries(x)[self._layout.jacobian].reshape(n, n)

    def _hessian(self, x: np.ndarray):
        layout = self._layout
        entries = self._entries(x)
        n = self.dimension
        return (entries[layout.jacobian].reshape(n, n), layout.target, layout.column,
                entries[layout.source])


def _check_state(vf, x) -> np.ndarray:
    state = np.asarray(x, dtype=float)
    if state.shape != (vf.dimension,):
        raise ValueError(f"state has shape {state.shape}, expected ({vf.dimension},)")
    return state


def eval_field(vf, x) -> np.ndarray:
    """(f1(x), ..., fn(x)) from the value kernels; domain errors carry the
    component index."""
    return vf._values(_check_state(vf, x).tolist())


def field_derivatives(vf, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, Jacobian and the (n, n, n) Hessian stack, [i, j, k] =
    d2 f_i / dx_j dx_k."""
    state = _check_state(vf, x)
    n = vf.dimension
    # the derivative kernels check all that the value kernels do, and more
    jac, target, column, entries = vf._hessian(state)
    hess = np.zeros(n * n * n)
    hess[target * n + column] = entries
    return vf._values(state.tolist()), jac, hess.reshape(n, n, n)


def jacobian(vf, x) -> np.ndarray:
    """Matrix of partial derivatives df_i/dx_j at the state."""
    # read straight from the derivative kernels; no Hessian is formed
    return vf._jacobian(_check_state(vf, x))


def _jacobian_hessian_product(vf, x: np.ndarray,
                              y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J(x) and H y, read from the compiled kernels; the (n, n, n) Hessian
    stack is never formed."""
    jac, target, column, entries = vf._hessian(x)
    n = vf.dimension
    product = np.bincount(target, entries * y[column], minlength=n * n)
    return jac, product.reshape(n, n)


class _Layout(NamedTuple):
    """Where the flat kernel outputs of all components land. The outputs are
    concatenated after a leading zero slot.

    The flat Jacobian is entries[jacobian]; structurally zero entries read
    the zero slot. The Hessian entry of (target[e], column[e]) is
    entries[source[e]]; an off-diagonal entry has one e per mirror
    position.
    """

    jacobian: np.ndarray
    target: np.ndarray
    source: np.ndarray
    column: np.ndarray


def _field_layout(vf: VectorField) -> _Layout:
    n = vf.dimension
    jacobian = np.zeros(n * n, dtype=np.intp)
    target, column, source = [], [], []
    offset = 1
    for i, kernels in enumerate(vf._kernels):
        jacobian[i * n + kernels.deps] = offset + 1 + np.arange(len(kernels.deps))
        target.append(i * n + kernels.rows)
        column.append(kernels.cols)
        source.append(offset + kernels.source)
        offset += kernels.width
    target, column, source = (np.concatenate(a) for a in (target, column, source))
    order = np.lexsort((column, target))
    return _Layout(jacobian, target[order], source[order], column[order])
