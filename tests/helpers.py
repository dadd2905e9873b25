"""Shared test oracles: finite differences (also of the KCC pieces of a
plain second-order G), complex multiset matching, the dense second-order
dual-number interpreter that the compiled expression kernels replaced,
Hurwitz minors in exact rational arithmetic, and closed forms of the
deviation tensor, kept as references to compare the library against."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from kccdyn.exprdsl import BinOp, Call, DomainError, Neg, Num, Var, _render
from kccdyn.models import laplacian


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def fd_hessian(f, x, h=1e-4):
    """Second central differences; step chosen for second-order accuracy."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            mixed = (f(x + ei + ej) - f(x + ei - ej)
                     - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * h * h)
            out[i, j] = mixed
            out[j, i] = mixed
    return out


def _fd_pieces(g, x, y, t):
    """G, its first derivatives and the second derivatives that P needs, for
    a plain G(x, y, t) -> length-n vector, by central differences over the
    joint point z = (x, y, t)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    z = np.concatenate([x, y, [float(t)]])
    comps = [lambda z, i=i: np.asarray(g(z[:n], z[n:2 * n], z[2 * n]), dtype=float)[i]
             for i in range(n)]
    grads = np.stack([fd_gradient(c, z) for c in comps])
    hessians = np.stack([fd_hessian(c, z) for c in comps])
    return {
        "g": np.asarray(g(x, y, float(t)), dtype=float),
        "N": grads[:, n:2 * n],
        "g_x": grads[:, :n],
        "berwald": hessians[:, n:2 * n, n:2 * n],
        "n_x": hessians[:, n:2 * n, :n],
        "n_t": hessians[:, n:2 * n, 2 * n],
    }


def fd_motion_terms(g, x, y, t=0.0):
    """(G, N, dG/dx) of a plain G(x, y, t), by central differences."""
    pieces = _fd_pieces(g, x, y, t)
    return pieces["g"], pieces["N"], pieces["g_x"]


def fd_deviation_tensor(g, x, y, t=0.0):
    """P^i_j = -2 dG^i/dx^j - 2 G^l G^i_jl + y^l dN^i_j/dx^l + N^i_l N^l_j
    + dN^i_j/dt of a plain G(x, y, t), from central differences."""
    p = _fd_pieces(g, x, y, t)
    y = np.asarray(y, dtype=float)
    return (-2.0 * p["g_x"] - 2.0 * np.einsum("ijl,l->ij", p["berwald"], p["g"])
            + np.einsum("ijl,l->ij", p["n_x"], y) + p["N"] @ p["N"] + p["n_t"])


def fd_p_y(sode, x, y, t):
    """dP^i_j/dy^k by central differences over the sode's exact P, with step
    cbrt(eps) * max(1, |y_k|)."""
    y = np.asarray(y, dtype=float)
    n = y.size
    out = np.empty((n, n, n))
    for k in range(n):
        h = np.finfo(float).eps ** (1.0 / 3.0) * max(1.0, abs(y[k]))
        e = np.zeros(n)
        e[k] = h
        plus = sode.deviation_tensor(x, y + e, t)
        minus = sode.deviation_tensor(x, y - e, t)
        out[:, :, k] = (plus - minus) / (2.0 * h)
    return out


def assert_complex_multisets_close(actual, expected, tol):
    """Greedy nearest-neighbour matching of two complex multisets."""
    actual = [complex(z) for z in actual]
    expected = [complex(z) for z in expected]
    assert len(actual) == len(expected), (actual, expected)
    remaining = list(expected)
    for z in actual:
        gaps = [abs(w - z) for w in remaining]
        best = int(np.argmin(gaps))
        assert gaps[best] <= tol, (z, remaining, gaps[best], tol)
        remaining.pop(best)


# ---------------------------------------------------------------------------
# Reference interpreter: a tree walk over floats or dense second-order duals


def _float_pow(a: float, b: float) -> float:
    """a ** b with the domain checks of the float semantics: an integer b
    keeps negative bases legal."""
    if float(b).is_integer():
        if a == 0.0 and b < 0:
            raise DomainError("division by zero")
        try:
            return a ** b
        except OverflowError:
            raise DomainError("overflow in power") from None
    if a < 0.0:
        raise DomainError("negative base with non-integer exponent")
    if a == 0.0:
        if b > 0:
            return 0.0
        raise DomainError("zero base with negative exponent")
    try:
        return a ** b
    except OverflowError:
        raise DomainError("overflow in power") from None


class DualScalar:
    """Truncated second-order Taylor value: a scalar together with its first
    and second directional derivatives against m seed directions.

    The second-derivative block is symmetric only up to rounding: a product
    adds cross + cross.T, which sums the same terms in another order below
    the diagonal. Arithmetic on constants leaves both derivative blocks zero.
    """

    __slots__ = ("value", "first", "second")

    def __init__(self, value: float, first: np.ndarray, second: np.ndarray):
        self.value = float(value)
        self.first = first
        self.second = second

    @classmethod
    def constant(cls, value: float, ndirections: int) -> "DualScalar":
        return cls(value, np.zeros(ndirections), np.zeros((ndirections, ndirections)))

    @classmethod
    def seed(cls, value: float, index: int, ndirections: int) -> "DualScalar":
        first = np.zeros(ndirections)
        first[index] = 1.0
        return cls(value, first, np.zeros((ndirections, ndirections)))

    def _coerce(self, other):
        if isinstance(other, DualScalar):
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return DualScalar.constant(float(other), self.first.shape[0])
        return None

    def _chain(self, f0: float, f1: float, f2: float) -> "DualScalar":
        # f(u): value f0, slope f1, curvature f2, all at u = self.value
        return DualScalar(
            f0,
            f1 * self.first,
            f1 * self.second + f2 * np.outer(self.first, self.first),
        )

    def __repr__(self) -> str:
        return f"DualScalar({self.value!r}, first={self.first!r})"

    def __neg__(self) -> "DualScalar":
        return DualScalar(-self.value, -self.first, -self.second)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return DualScalar(self.value + other.value, self.first + other.first,
                          self.second + other.second)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return DualScalar(self.value - other.value, self.first - other.first,
                          self.second - other.second)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        cross = np.outer(self.first, other.first)
        return DualScalar(
            self.value * other.value,
            self.value * other.first + other.value * self.first,
            self.value * other.second + other.value * self.second + cross + cross.T,
        )

    __rmul__ = __mul__

    def reciprocal(self) -> "DualScalar":
        if self.value == 0.0:
            raise DomainError("division by zero")
        inv = 1.0 / self.value
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # the derivatives through the reciprocal, the value as a quotient
        out = self * other.reciprocal()
        out.value = self.value / other.value
        return out

    def __pow__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # A constant exponent b takes the power rule, b a^(b-1) and
        # b (b-1) a^(b-2), with the float semantics of a ** b.
        if not other.first.any() and not other.second.any():
            a, b = self.value, other.value
            if b == 0.0 or b == 1.0:
                return self._chain(_float_pow(a, b), b, 0.0)
            return self._chain(_float_pow(a, b), b * _float_pow(a, b - 1.0),
                               b * (b - 1.0) * _float_pow(a, b - 2.0))
        if self.value < 0.0:
            raise DomainError("negative base with variable exponent")
        if self.value == 0.0:
            raise DomainError("zero base with variable exponent")
        return (other * self.ln()).exp()

    def sin(self) -> "DualScalar":
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain(s, c, -s)

    def cos(self) -> "DualScalar":
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain(c, -s, -c)

    def exp(self) -> "DualScalar":
        try:
            e = math.exp(self.value)
        except OverflowError:
            raise DomainError("overflow in exp") from None
        return self._chain(e, e, e)

    def ln(self) -> "DualScalar":
        if self.value <= 0.0:
            raise DomainError("ln of a non-positive value")
        inv = 1.0 / self.value
        return self._chain(math.log(self.value), inv, -inv * inv)

    def sqrt(self) -> "DualScalar":
        if self.value < 0.0:
            raise DomainError("square root of a negative value")
        if self.value == 0.0:
            raise DomainError("square root derivative singular at zero")
        s = math.sqrt(self.value)
        sv = s * self.value
        if sv == 0.0 or not math.isfinite(-0.25 / sv):
            raise DomainError("square root curvature out of range near zero")
        return self._chain(s, 0.5 / s, -0.25 / sv)

    def __abs__(self) -> "DualScalar":
        # sign(0) taken as 0; abs is treated as flat across the kink
        sign = 0.0 if self.value == 0.0 else math.copysign(1.0, self.value)
        return self._chain(abs(self.value), sign, 0.0)


def _float_ln(x: float) -> float:
    if x <= 0.0:
        raise DomainError("ln of a non-positive value")
    return math.log(x)


def _float_sqrt(x: float) -> float:
    if x < 0.0:
        raise DomainError("square root of a negative value")
    return math.sqrt(x)


def _float_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise DomainError("overflow in exp") from None


_FLOAT_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": _float_exp,
    "ln": _float_ln,
    "sqrt": _float_sqrt,
    "abs": abs,
}


class _FloatOps:
    @staticmethod
    def const(v: float) -> float:
        return float(v)

    @staticmethod
    def neg(a: float) -> float:
        return -a

    @staticmethod
    def binary(op: str, a: float, b: float) -> float:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0.0:
                raise DomainError("division by zero")
            return a / b
        return _float_pow(a, b)

    @staticmethod
    def call(name: str, a: float) -> float:
        return _FLOAT_FUNCS[name](a)


class _DualOps:
    def __init__(self, ndirections: int):
        self.ndirections = ndirections

    def const(self, v: float) -> DualScalar:
        return DualScalar.constant(v, self.ndirections)

    @staticmethod
    def neg(a: DualScalar) -> DualScalar:
        return -a

    @staticmethod
    def binary(op: str, a: DualScalar, b: DualScalar) -> DualScalar:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b
        return a ** b

    @staticmethod
    def call(name: str, a: DualScalar) -> DualScalar:
        if name == "abs":
            return abs(a)
        return getattr(a, name)()


def _evaluate(node: Node, env, ops, variables):
    try:
        if isinstance(node, Num):
            return ops.const(node.value)
        if isinstance(node, Var):
            return env[node.index]
        if isinstance(node, Neg):
            return ops.neg(_evaluate(node.operand, env, ops, variables))
        if isinstance(node, BinOp):
            left = _evaluate(node.left, env, ops, variables)
            right = _evaluate(node.right, env, ops, variables)
            return ops.binary(node.op, left, right)
        if isinstance(node, Call):
            return ops.call(node.func, _evaluate(node.arg, env, ops, variables))
    except DomainError as err:
        if err.fragment is None:
            raise DomainError(err.reason, offset=node.offset,
                              fragment=_render(node, variables, 0)) from None
        raise
    raise TypeError(f"not an AST node: {node!r}")


def oracle_value(expr, point):
    """Value by the float tree walk."""
    env = [float(v) for v in point]
    return float(_evaluate(expr.root, env, _FloatOps, expr.variables))


def oracle_derivatives(expr, point):
    """(value, gradient, Hessian) by one dense dual-number sweep. The Hessian
    is mirrored from its upper triangle, as the compiled kernel's is, so only
    the upper triangles are compared."""
    m = len(expr.variables)
    env = [DualScalar.seed(float(v), i, m) for i, v in enumerate(point)]
    out = _evaluate(expr.root, env, _DualOps(m), expr.variables)
    hess = out.second.copy()
    lower = np.tril_indices(m, -1)
    hess[lower] = hess.T[lower]
    return out.value, out.first.copy(), hess


# ---------------------------------------------------------------------------
# Hurwitz minors from their definition, in exact rational arithmetic


def _fraction_determinant(M: list[list[Fraction]]) -> Fraction:
    """Gaussian elimination over the rationals, with a non-zero pivot search."""
    M = [row[:] for row in M]
    n = len(M)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if M[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            M[k], M[pivot] = M[pivot], M[k]
            det = -det
        det *= M[k][k]
        for i in range(k + 1, n):
            if M[i][k] != 0:
                factor = M[i][k] / M[k][k]
                for c in range(k + 1, n):
                    M[i][c] -= factor * M[k][c]
    return det


def hurwitz_minors_exact(coeffs) -> list[float]:
    """D_1 .. D_n of the Hurwitz matrix H[i][j] = a_(2j-i) (1-based), one
    elimination per minor over the exact values of the float coefficients,
    then float(); +-inf when out of float range, NaN when a coefficient the
    minor reads (a_0 .. a_(2k-1)) is not finite."""
    a = [float(v) for v in coeffs]
    n = len(a) - 1
    minors = []
    for k in range(1, n + 1):
        if not all(math.isfinite(v) for v in a[:min(2 * k - 1, n) + 1]):
            minors.append(math.nan)
            continue
        H = [[Fraction(a[2 * j - i]) if 0 <= 2 * j - i <= n else Fraction(0)
              for j in range(1, k + 1)] for i in range(1, k + 1)]
        det = _fraction_determinant(H)
        try:
            minors.append(float(det))
        except OverflowError:
            minors.append(math.inf if det > 0 else -math.inf)
    return minors


# ---------------------------------------------------------------------------
# Closed forms of the deviation tensor, from per-component derivatives; they
# share neither the five-term assembly of Sode nor the field's kernel layout


def deviation_tensor_lifted(vf, x, y) -> np.ndarray:
    """Closed form for lifted systems:

        P^i_j = 1/2 sum_k d^2 f_i/dx_j dx_k y^k + 1/4 (J^2)^i_j
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if yv.shape != (vf.dimension,):
        raise ValueError(f"velocity has shape {yv.shape}, expected ({vf.dimension},)")
    jets = [comp.with_derivatives(xv) for comp in vf.components]
    jac = np.stack([grad for _, grad, _ in jets])
    hessian_rows = np.stack([hess @ yv for _, _, hess in jets])
    return 0.5 * hessian_rows + 0.25 * (jac @ jac)


def network_deviation_tensor(spec, x, y) -> np.ndarray:
    """Deviation tensor of a network straight from F and H derivatives:

        M    = J_F - sigma L J_H
        P^i_j = 1/2 sum_n (d2F_i/dx_j dx_n - sigma sum_r L_ir d2H_r/dx_j dx_n) y^n
                + 1/4 (M^2)^i_j
    """
    N = spec.graph.node_count
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.shape != (N,) or yv.shape != (N,):
        raise ValueError(f"state/velocity must have shape ({N},)")
    L = laplacian(spec.graph)
    jets_f = [expr.with_derivatives(xv) for expr in spec.evolution]
    jets_h = [expr.with_derivatives(xv) for expr in spec.coupling]
    jac_f = np.stack([grad for _, grad, _ in jets_f])
    jac_h = np.stack([grad for _, grad, _ in jets_h])
    hess_f = np.stack([hess for _, _, hess in jets_f])
    hess_h = np.stack([hess for _, _, hess in jets_h])
    M = jac_f - spec.sigma * (L @ jac_h)
    curvature = hess_f - spec.sigma * np.einsum("ir,rjn->ijn", L, hess_h)
    return 0.5 * np.einsum("ijn,n->ij", curvature, yv) + 0.25 * (M @ M)
