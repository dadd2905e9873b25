"""Shared test oracles: finite differences, complex multiset matching, and
the dense second-order dual-number interpreter that the compiled expression
kernels replaced, kept as a reference to compare them against."""

from __future__ import annotations

import math

import numpy as np

from kccdyn._codegen import _float_pow
from kccdyn.exprdsl import BinOp, Call, DomainError, Neg, Num, Var, _render


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


class DualScalar:
    """Truncated second-order Taylor value: a scalar together with its first
    and second directional derivatives against m seed directions.

    The second-derivative block stays exactly symmetric under every
    operation because all update terms are built from symmetric outer
    products. Arithmetic on constants leaves both derivative blocks zero.
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
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.reciprocal()

    def _integer_power(self, n: int) -> "DualScalar":
        if n == 0:
            return DualScalar.constant(1.0, self.first.shape[0])
        if n < 0:
            return self._integer_power(-n).reciprocal()
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __pow__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # A constant integer exponent keeps negative bases legal and exact.
        if not other.first.any() and not other.second.any():
            e = other.value
            if float(e).is_integer() and abs(e) < 2 ** 31:
                return self._integer_power(int(e))
        if self.value < 0.0:
            raise DomainError("negative base with non-integer exponent")
        if self.value == 0.0:
            raise DomainError("zero base with non-integer exponent (derivative singular)")
        return (other * self.ln()).exp()

    def __rpow__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other ** self

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
        return self._chain(s, 0.5 / s, -0.25 / (s * self.value))

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
    """(value, gradient, Hessian) by one dense dual-number sweep."""
    m = len(expr.variables)
    env = [DualScalar.seed(float(v), i, m) for i, v in enumerate(point)]
    out = _evaluate(expr.root, env, _DualOps(m), expr.variables)
    return out.value, out.first.copy(), out.second.copy()


# ---------------------------------------------------------------------------
# Reference Bareiss elimination: the row-by-row update that the library's
# block update replaced


def bareiss_rows(M) -> float:
    """Fraction-free elimination with partial pivoting, one row at a time."""
    M = np.array(M, dtype=float)
    n = M.shape[0]
    if n == 0:
        return 1.0
    sign = 1.0
    prev = 1.0
    for k in range(n - 1):
        pivot_row = k + int(np.argmax(np.abs(M[k:, k])))
        if M[pivot_row, k] == 0.0:
            return 0.0
        if pivot_row != k:
            M[[k, pivot_row]] = M[[pivot_row, k]]
            sign = -sign
        for i in range(k + 1, n):
            M[i, k + 1:] = (M[k, k] * M[i, k + 1:] - M[i, k] * M[k, k + 1:]) / prev
            M[i, k] = 0.0
        prev = M[k, k]
    return sign * M[n - 1, n - 1]
