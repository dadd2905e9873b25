"""Second-order form of dynamical systems and their geometric invariants.

A first-order field dx/dt = f(x) lifts to the second-order system
x'' + 2G(x, y, t) = 0 with G = -1/2 J_f(x) y, where y = dx/dt. For a system
in that form (lifted or expression-backed) this module evaluates:

  N       nonlinear connection, N^i_j = dG^i/dy^j
  G^i_jl  Berwald coefficients, dN^i_j/dy^l
  epsilon first invariant, eps^i = 2G^i - N^i_j y^j
  P       deviation curvature tensor (second invariant),
          P^i_j = -2 dG^i/dx^j - 2 G^l G^i_jl + y^l dN^i_j/dx^l
                  + N^i_l N^l_j + dN^i_j/dt
  P3      torsion (third invariant), 1/3 (dP^i_j/dy^k - dP^i_k/dy^j)
  P4      curvature (fourth invariant), dP3^i_jk/dy^l
  D       Douglas tensor (fifth invariant), dG^i_jk/dy^l

For every lifted system N is y-independent, so the Berwald coefficients and
the invariants P3, P4, D all vanish; P collapses to the closed form
P^i_j = 1/2 d^2 f_i/dx_j dx_k y^k + 1/4 (J^2)^i_j and equals 1/4 J^2 at
y = 0.

Derivatives are exact (compiled forward-mode kernels) for both kinds of
system; a lifted system reads J and the Hessian-vector product H y for the
deviation integrator straight from those kernels. The higher invariants
apply central differences in y, with step cbrt(eps) * max(1, |coordinate|),
on top of exact quantities: P3 and the Douglas tensor one layer (none for
P3 of a lift, whose dP/dy is exact), and P4, which differences P3, one
more. Their "vanishes" tolerance is 1e-8 absolute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .exprdsl import Expression, parse
from .odesys import VectorField, _jacobian_hessian_product, field_derivatives, jacobian

__all__ = ["KccInvariants", "Sode", "lift"]

_EPS = float(np.finfo(float).eps)
_FIRST_STEP = _EPS ** (1.0 / 3.0)


def _step(coordinate: float) -> float:
    return _FIRST_STEP * max(1.0, abs(float(coordinate)))


class _Pieces(NamedTuple):
    g: np.ndarray        # (n,)     G^i
    N: np.ndarray        # (n,n)    dG^i/dy^j
    berwald: np.ndarray  # (n,n,n)  dN^i_j/dy^l
    g_x: np.ndarray      # (n,n)    dG^i/dx^j
    n_x: np.ndarray      # (n,n,n)  dN^i_j/dx^l
    n_t: np.ndarray      # (n,n)    dN^i_j/dt


def _assemble_deviation(pieces: _Pieces, y: np.ndarray) -> np.ndarray:
    force = -2.0 * np.einsum("ijl,l->ij", pieces.berwald, pieces.g)
    drift = np.einsum("ijl,l->ij", pieces.n_x, y)
    return -2.0 * pieces.g_x + force + drift + pieces.N @ pieces.N + pieces.n_t


@dataclass(eq=False)
class KccInvariants:
    """The five invariants plus the connections, at one phase point."""

    epsilon: np.ndarray       # (n,)
    N: np.ndarray             # (n,n)
    berwald: np.ndarray       # (n,n,n)
    P: np.ndarray             # (n,n)
    trace_P: float
    P3: np.ndarray            # (n,n,n), antisymmetric in the last two slots
    P4: np.ndarray            # (n,n,n,n)
    douglas: np.ndarray       # (n,n,n,n)
    at: tuple[np.ndarray, np.ndarray, float]


class Sode:
    """Second-order system x'' + 2G(x, y, t) = 0.

    Instances are immutable and all evaluation is reentrant, so one Sode can
    serve many concurrent analyses.
    """

    dimension: int

    @staticmethod
    def from_expressions(sources, state_vars: Sequence[str],
                         velocity_vars: Sequence[str],
                         time_var: str | None = None) -> "Sode":
        """G given as expressions over state variables, velocity variables,
        and optionally a time variable, in that order."""
        return _ExpressionSode(sources, state_vars, velocity_vars, time_var)

    def _check_phase(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        xv = np.asarray(x, dtype=float)
        yv = np.asarray(y, dtype=float)
        if xv.shape != (self.dimension,) or yv.shape != (self.dimension,):
            raise ValueError(
                f"phase point has shapes {xv.shape}, {yv.shape}; "
                f"expected ({self.dimension},) each")
        return xv, yv

    def g(self, x, y, t: float = 0.0) -> np.ndarray:
        raise NotImplementedError

    def _pieces(self, x: np.ndarray, y: np.ndarray, t: float) -> _Pieces:
        raise NotImplementedError

    def _p_y(self, x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
        """dP^i_j/dy^k."""
        raise NotImplementedError

    def nonlinear_connection(self, x, y, t: float = 0.0) -> np.ndarray:
        xv, yv = self._check_phase(x, y)
        return self._pieces(xv, yv, float(t)).N

    def berwald(self, x, y, t: float = 0.0) -> np.ndarray:
        xv, yv = self._check_phase(x, y)
        return self._pieces(xv, yv, float(t)).berwald

    def first_invariant(self, x, y, t: float = 0.0) -> np.ndarray:
        xv, yv = self._check_phase(x, y)
        pieces = self._pieces(xv, yv, float(t))
        return 2.0 * pieces.g - pieces.N @ yv

    def deviation_tensor(self, x, y, t: float = 0.0) -> np.ndarray:
        xv, yv = self._check_phase(x, y)
        return _assemble_deviation(self._pieces(xv, yv, float(t)), yv)

    def motion_terms(self, x, y, t: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(G, N, dG/dx) for the trajectory and deviation integrator."""
        xv, yv = self._check_phase(x, y)
        return self._motion(xv, yv, float(t))

    def _motion(self, x: np.ndarray, y: np.ndarray, t: float):
        pieces = self._pieces(x, y, t)
        return pieces.g, pieces.N, pieces.g_x

    def _p3(self, x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
        p_y = self._p_y(x, y, t)
        return (p_y - p_y.transpose(0, 2, 1)) / 3.0

    def higher_invariants(self, x, y, t: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(P3, P4, Douglas). Zero to 1e-8 absolute means vanishing."""
        xv, yv = self._check_phase(x, y)
        tv = float(t)
        n = self.dimension
        p3 = self._p3(xv, yv, tv)
        p4 = np.empty((n, n, n, n))
        douglas = np.empty((n, n, n, n))
        for l in range(n):
            h = _step(yv[l])
            e = np.zeros(n)
            e[l] = h
            p4[..., l] = (self._p3(xv, yv + e, tv) - self._p3(xv, yv - e, tv)) / (2.0 * h)
            douglas[..., l] = (self._pieces(xv, yv + e, tv).berwald
                               - self._pieces(xv, yv - e, tv).berwald) / (2.0 * h)
        return p3, p4, douglas

    def invariants(self, x, y, t: float = 0.0) -> KccInvariants:
        """All invariants and connections at one phase point."""
        xv, yv = self._check_phase(x, y)
        tv = float(t)
        pieces = self._pieces(xv, yv, tv)
        P = _assemble_deviation(pieces, yv)
        p3, p4, douglas = self.higher_invariants(xv, yv, tv)
        return KccInvariants(
            epsilon=2.0 * pieces.g - pieces.N @ yv,
            N=pieces.N,
            berwald=pieces.berwald,
            P=P,
            trace_P=float(np.trace(P)),
            P3=p3,
            P4=p4,
            douglas=douglas,
            at=(xv.copy(), yv.copy(), tv),
        )


class _LiftedSode(Sode):
    """Lift of a first-order field: G = -1/2 J(x) y, independent of t and
    linear in y. All derivative pieces come from the field's exact Jacobian
    and Hessian stack."""

    def __init__(self, field: VectorField):
        self.field = field
        self.dimension = field.dimension

    def g(self, x, y, t: float = 0.0) -> np.ndarray:
        xv, yv = self._check_phase(x, y)
        return -0.5 * (jacobian(self.field, xv) @ yv)

    def _motion(self, x: np.ndarray, y: np.ndarray, t: float):
        jac, curvature = _jacobian_hessian_product(self.field, x, y)
        return -0.5 * (jac @ y), -0.5 * jac, -0.5 * curvature

    def _pieces(self, x: np.ndarray, y: np.ndarray, t: float) -> _Pieces:
        n = self.dimension
        _, jac, hess = field_derivatives(self.field, x)
        return _Pieces(
            g=-0.5 * (jac @ y),
            N=-0.5 * jac,
            berwald=np.zeros((n, n, n)),
            g_x=-0.5 * np.einsum("ijk,k->ij", hess, y),
            n_x=-0.5 * hess,
            n_t=np.zeros((n, n)),
        )

    def _p_y(self, x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
        # P is linear in y with slope 1/2 d^2 f_i / dx_j dx_k, so the
        # derivative is exact; P3 then vanishes through Hessian symmetry.
        return 0.5 * field_derivatives(self.field, x)[2]


class _ExpressionSode(Sode):
    """G given as expressions over (state, velocity[, time]) variables; all
    derivatives up to second order are exact, from one call of each
    component's compiled derivative kernel."""

    def __init__(self, sources, state_vars: Sequence[str],
                 velocity_vars: Sequence[str], time_var: str | None):
        state_vars = tuple(state_vars)
        velocity_vars = tuple(velocity_vars)
        if len(state_vars) != len(velocity_vars):
            raise ValueError("state and velocity variable lists differ in length")
        self.dimension = len(state_vars)
        self.has_time = time_var is not None
        names = state_vars + velocity_vars + ((time_var,) if time_var else ())
        exprs = []
        for src in sources:
            if isinstance(src, Expression):
                if src.variables != names:
                    raise ValueError(
                        f"expression variables {src.variables} do not match {names}")
                exprs.append(src)
            else:
                exprs.append(parse(src, names))
        if len(exprs) != self.dimension:
            raise ValueError(
                f"{len(exprs)} component functions for dimension {self.dimension}")
        self.expressions = tuple(exprs)

    def _env(self, x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
        if self.has_time:
            return np.concatenate([x, y, [t]])
        return np.concatenate([x, y])

    def g(self, x, y, t: float = 0.0) -> np.ndarray:
        xv, yv = self._check_phase(x, y)
        env = self._env(xv, yv, float(t))
        return np.array([expr.evaluate(env) for expr in self.expressions])

    def _sweep(self, x: np.ndarray, y: np.ndarray, t: float):
        env = self._env(x, y, t)
        return [expr.with_derivatives(env) for expr in self.expressions]

    def _pieces(self, x: np.ndarray, y: np.ndarray, t: float) -> _Pieces:
        n = self.dimension
        g = np.empty(n)
        N = np.empty((n, n))
        berw = np.empty((n, n, n))
        g_x = np.empty((n, n))
        n_x = np.empty((n, n, n))
        n_t = np.zeros((n, n))
        for i, (value, grad, hess) in enumerate(self._sweep(x, y, t)):
            g[i] = value
            g_x[i] = grad[:n]
            N[i] = grad[n:2 * n]
            berw[i] = hess[n:2 * n, n:2 * n]
            n_x[i] = hess[n:2 * n, :n]
            if self.has_time:
                n_t[i] = hess[n:2 * n, 2 * n]
        return _Pieces(g=g, N=N, berwald=berw, g_x=g_x, n_x=n_x, n_t=n_t)

    def _p_y(self, x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
        """dP/dy assembled term by term from exact second derivatives; only
        the third derivatives of G take one central-difference layer. P4,
        which differentiates P3, stacks a second."""
        n = self.dimension
        pieces = self._pieces(x, y, t)
        gx_y = np.empty((n, n, n))  # d2 G_i / dx_j dy_k
        for i, (_, _, hess) in enumerate(self._sweep(x, y, t)):
            gx_y[i] = hess[:n, n:2 * n]
        berw_y = np.empty((n, n, n, n))
        nx_y = np.empty((n, n, n, n))
        nt_y = np.empty((n, n, n))
        for k in range(n):
            h = _step(y[k])
            e = np.zeros(n)
            e[k] = h
            plus = self._pieces(x, y + e, t)
            minus = self._pieces(x, y - e, t)
            berw_y[..., k] = (plus.berwald - minus.berwald) / (2.0 * h)
            nx_y[..., k] = (plus.n_x - minus.n_x) / (2.0 * h)
            nt_y[..., k] = (plus.n_t - minus.n_t) / (2.0 * h)
        out = -2.0 * gx_y
        out -= 2.0 * (np.einsum("ijl,lk->ijk", pieces.berwald, pieces.N)
                      + np.einsum("l,ijlk->ijk", pieces.g, berw_y))
        out += pieces.n_x + np.einsum("l,ijlk->ijk", y, nx_y)
        out += (np.einsum("ilk,lj->ijk", pieces.berwald, pieces.N)
                + np.einsum("il,ljk->ijk", pieces.N, pieces.berwald))
        out += nt_y
        return out


def lift(vf: VectorField) -> Sode:
    """Second-order form of dx/dt = f(x): G(x, y) = -1/2 J_f(x) y."""
    return _LiftedSode(vf)
