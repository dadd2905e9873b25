"""Autonomous first-order systems dx/dt = f(x) with exact derivatives.

A VectorField bundles n expressions over n shared variables. Jacobian and
Hessian entries come from the compiled forward-mode kernels in exprdsl, so
they are exact and every Hessian is symmetric by construction. Every array
is read from the flat kernel outputs through one per-field index layout
(_Layout).
A field compiles its components together, each distinct shape once (see
_codegen): the components of a network differ only by variable renaming.
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
        # imported on first use, like Expression._kernels
        from ._codegen import compile_expressions
        return compile_expressions(self.components)

    @cached_property
    def _layout(self) -> "_Layout":
        return _field_layout(self)

    def __getstate__(self):
        # compiled functions do not pickle; they are rebuilt on demand
        return {k: v for k, v in self.__dict__.items() if k != "_kernels"}


def _check_state(vf: VectorField, x) -> np.ndarray:
    state = np.asarray(x, dtype=float)
    if state.shape != (vf.dimension,):
        raise ValueError(f"state has shape {state.shape}, expected ({vf.dimension},)")
    return state


def eval_field(vf: VectorField, x) -> np.ndarray:
    """(f1(x), ..., fn(x)) from the value kernels; domain errors carry the
    component index."""
    point = _check_state(vf, x).tolist()
    out = []
    for k, kernels in enumerate(vf._kernels):
        try:
            out.append(kernels.value(point))
        except DomainError as err:
            raise FieldDomainError(k, err) from err
    return np.array(out)


def field_derivatives(vf: VectorField, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, Jacobian and the (n, n, n) Hessian stack, [i, j, k] =
    d2 f_i / dx_j dx_k, from one derivative kernel call per component."""
    state = _check_state(vf, x)
    layout = vf._layout
    entries = _kernel_entries(vf, state)
    n = vf.dimension
    hess = np.zeros(n * n * n)
    hess[layout.target * n + layout.column] = entries[layout.source]
    return (entries[layout.value], entries[layout.jacobian].reshape(n, n),
            hess.reshape(n, n, n))


def jacobian(vf: VectorField, x) -> np.ndarray:
    """Matrix of partial derivatives df_i/dx_j at the state."""
    state = _check_state(vf, x)
    n = vf.dimension
    # read straight from the derivative kernels; no Hessian is formed
    return _kernel_entries(vf, state)[vf._layout.jacobian].reshape(n, n)


class _Layout(NamedTuple):
    """Where the flat kernel outputs of all components land. The outputs are
    concatenated after a leading zero slot.

    Component i's value is entries[value[i]]. The flat Jacobian is
    entries[jacobian]; structurally zero entries read the zero slot. Each
    Hessian entry d2 f_i/dx_j dx_k is entries[source[e]] for one e with
    target[e] = i * n + j and column[e] = k; an off-diagonal entry has one e
    per mirror position. The Hessian-vector product (H y)[i, j] therefore
    sums entries[source[e]] * y[column[e]] into flat index target[e], each
    target summing its terms in ascending k.
    """

    value: np.ndarray
    jacobian: np.ndarray
    target: np.ndarray
    source: np.ndarray
    column: np.ndarray


def _field_layout(vf: VectorField) -> _Layout:
    n = vf.dimension
    value = np.empty(n, dtype=np.intp)
    jacobian = np.zeros(n * n, dtype=np.intp)
    target, column, source = [], [], []
    offset = 1
    for i, kernels in enumerate(vf._kernels):
        value[i] = offset
        jacobian[i * n + kernels.deps] = offset + 1 + np.arange(len(kernels.deps))
        target.append(i * n + kernels.rows)
        column.append(kernels.cols)
        source.append(offset + kernels.source)
        offset += kernels.width
    target, column, source = (np.concatenate(a) for a in (target, column, source))
    order = np.lexsort((column, target))
    return _Layout(value, jacobian, target[order], source[order], column[order])


def _kernel_entries(vf: VectorField, x: np.ndarray) -> np.ndarray:
    """Every component's derivative kernel output at x, laid out as _Layout
    describes."""
    point = x.tolist()
    out = [0.0]
    for k, kernels in enumerate(vf._kernels):
        try:
            out += kernels.derivatives(point)
        except DomainError as err:
            raise FieldDomainError(k, err) from err
    return np.array(out)


def _jacobian_hessian_product(vf: VectorField, x: np.ndarray,
                              y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J(x) and H y, read from each component's compiled kernel; the
    (n, n, n) Hessian stack is never formed."""
    layout = vf._layout
    entries = _kernel_entries(vf, x)
    n = vf.dimension
    product = np.bincount(layout.target, entries[layout.source] * y[layout.column],
                          minlength=n * n)
    return entries[layout.jacobian].reshape(n, n), product.reshape(n, n)
