"""Compilation of expressions into straight-line Python kernels.

exprdsl imports this module on an expression's first evaluation and caches
the result on the expression. It builds two functions of the point p, a
list of floats:

  value(p)        the value, with the float semantics of _float_pow;
  derivatives(p)  one flat tuple: the value, the gradient entries for the
                  variables the expression mentions (ascending), then the
                  upper-triangle Hessian entries (i <= j, ascending).

Each operation becomes one scalar assignment. The derivative kernel does
the forward-mode arithmetic on truncated second-order Taylor expansions
(Griewank & Walther, "Evaluating Derivatives", 2nd ed., 2008) in the order
of a dense second-order dual-number sweep, but only over the variables
each sub-expression mentions, so entries that are structurally zero are
never formed. Operations on constants fold to literals at compile time
through the same float arithmetic. Domain checks are emitted in place and
raise DomainError with the offset and fragment of their operation.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .exprdsl import Call, DomainError, Expression, Neg, Node, Num, Var, _render, _walk


def _float_pow(a: float, b: float) -> float:
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


_KERNEL_GLOBALS = {
    "DomainError": DomainError,
    "_float_pow": _float_pow,
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "copysign": math.copysign,
    "INF": math.inf,
    "NAN": math.nan,
}

_COMPARE = {"==": operator.eq, "<": operator.lt, "<=": operator.le}

# An atom is a float literal known at compile time or the name of a local.
_Atom = Union[float, str]


class _Unreachable(Exception):
    """An operation fails for every input; the kernel ends in its raise."""

    def __init__(self, statement: str):
        self.statement = statement


class _Emitter:
    """Straight-line code in single-assignment form. Identical right-hand
    sides share one local, so repeated sub-terms are computed once."""

    def __init__(self, variables: Sequence[str]):
        self.variables = variables
        self.lines: list[str] = []
        self.memo: dict[str, str] = {}
        self.count = 0

    @staticmethod
    def ref(atom: _Atom) -> str:
        if isinstance(atom, str):
            return atom
        if math.isnan(atom):
            return "NAN"
        text = repr(atom) if math.isfinite(atom) else "INF" if atom > 0 else "-INF"
        return f"({text})" if text.startswith("-") else text

    def fresh(self) -> str:
        self.count += 1
        return f"t{self.count}"

    def op(self, fold, template: str, *args: _Atom, commutative: bool = False) -> _Atom:
        if all(isinstance(a, float) for a in args):
            try:
                return float(fold(*args))
            except (ArithmeticError, ValueError):
                pass  # fails at run time as well; emit it
        refs = [self.ref(a) for a in args]
        if commutative:
            refs.sort()
        text = template.format(*refs)
        if text not in self.memo:
            self.memo[text] = self.fresh()
            self.lines.append(f"{self.memo[text]} = {text}")
        return self.memo[text]

    def error(self, node: Node, reason: str) -> str:
        fragment = _render(node, self.variables, 0)
        return f"raise DomainError({reason!r}, {node.offset!r}, {fragment!r})"

    def check(self, node: Node, atom: _Atom, compare: str, reason: str) -> None:
        """Raise `reason` at `node` when `atom <compare> 0.0`."""
        if isinstance(atom, str):
            self.lines.append(f"if {atom} {compare} 0.0: {self.error(node, reason)}")
        elif _COMPARE[compare](atom, 0.0):
            raise _Unreachable(self.error(node, reason))

    def guarded(self, node: Node, fold, template: str, *args: _Atom, reason: str) -> _Atom:
        """An operation whose OverflowError becomes `reason` at `node`."""
        if all(isinstance(a, float) for a in args):
            try:
                return float(fold(*args))
            except OverflowError:
                raise _Unreachable(self.error(node, reason)) from None
            except (ArithmeticError, ValueError):
                pass
        name = self.fresh()
        self.lines += ["try:",
                       f"    {name} = {template.format(*map(self.ref, args))}",
                       "except OverflowError:",
                       f"    {self.error(node, reason)} from None"]
        return name

    # Float semantics, for the value kernel

    def value(self, node: Node) -> _Atom:
        if isinstance(node, Num):
            return float(node.value)
        if isinstance(node, Var):
            return f"x{node.index}"
        if isinstance(node, Neg):
            return self.op(operator.neg, "-{0}", self.value(node.operand))
        if isinstance(node, Call):
            a = self.value(node.arg)
            if node.func == "exp":
                return self.guarded(node, math.exp, "exp({0})", a, reason="overflow in exp")
            if node.func == "ln":
                self.check(node, a, "<=", "ln of a non-positive value")
                return self.op(math.log, "log({0})", a)
            if node.func == "sqrt":
                self.check(node, a, "<", "square root of a negative value")
                return self.op(math.sqrt, "sqrt({0})", a)
            fold = abs if node.func == "abs" else getattr(math, node.func)
            return self.op(fold, node.func + "({0})", a)
        a, b = self.value(node.left), self.value(node.right)
        if node.op == "+":
            return self.op(operator.add, "{0} + {1}", a, b, commutative=True)
        if node.op == "-":
            return self.op(operator.sub, "{0} - {1}", a, b)
        if node.op == "*":
            return self.op(operator.mul, "{0} * {1}", a, b, commutative=True)
        if node.op == "/":
            self.check(node, b, "==", "division by zero")
            return self.op(operator.truediv, "{0} / {1}", a, b)
        return self.float_pow(node, a, b)

    def float_pow(self, node: Node, a: _Atom, b: _Atom) -> _Atom:
        """_float_pow, its DomainError located at `node`."""
        if isinstance(a, float) and isinstance(b, float):
            try:
                return _float_pow(a, b)
            except DomainError as error:
                raise _Unreachable(self.error(node, error.reason)) from None
        name = self.fresh()
        fragment = _render(node, self.variables, 0)
        self.lines += [
            "try:",
            f"    {name} = _float_pow({self.ref(a)}, {self.ref(b)})",
            "except DomainError as error:",
            f"    raise DomainError(error.reason, {node.offset!r}, {fragment!r}) from None"]
        return name


class _Jet(NamedTuple):
    """Second-order Taylor coefficients of one sub-expression."""

    value: _Atom
    grad: dict    # variable index -> atom, for the variables mentioned
    hess: dict    # (i, j) with i <= j -> atom; absent entries are zero


class _JetEmitter(_Emitter):
    """Forward-mode value, gradient and Hessian. Every entry is computed by
    the same float operations, in the same order, as the dense second-order
    arithmetic; a term whose factor is structurally zero is left out, which
    changes no nonzero result."""

    def add(self, a: _Atom, b: _Atom) -> _Atom:
        return self.op(operator.add, "{0} + {1}", a, b, commutative=True)

    def mul(self, a: _Atom, b: _Atom) -> _Atom:
        if a == 1.0:  # 1.0 * b is b, bit for bit
            return b
        if b == 1.0:
            return a
        return self.op(operator.mul, "{0} * {1}", a, b, commutative=True)

    def neg(self, a: _Atom) -> _Atom:
        return self.op(operator.neg, "-{0}", a)

    def total(self, *terms: _Atom | None) -> _Atom:
        """Left-to-right sum of the terms that are not structurally zero."""
        present = [t for t in terms if t is not None]
        out = present[0]
        for term in present[1:]:
            out = self.add(out, term)
        return out

    def jet(self, node: Node) -> _Jet:
        if isinstance(node, Num):
            return _Jet(float(node.value), {}, {})
        if isinstance(node, Var):
            return _Jet(f"x{node.index}", {node.index: 1.0}, {})
        if isinstance(node, Neg):
            u = self.jet(node.operand)
            return _Jet(self.neg(u.value), {k: self.neg(g) for k, g in u.grad.items()},
                        {k: self.neg(h) for k, h in u.hess.items()})
        if isinstance(node, Call):
            return self.call(node, self.jet(node.arg))
        u, w = self.jet(node.left), self.jet(node.right)
        if node.op in "+-":
            return self.sum(u, w, node.op == "-")
        if node.op == "*":
            return self.product(u, w)
        if node.op == "/":
            return self.product(u, self.reciprocal(node, w))
        return self.power(node, u, w)

    def sum(self, u: _Jet, w: _Jet, minus: bool) -> _Jet:
        def combine(a, b):
            if a is None:
                return self.neg(b) if minus else b
            if b is None:
                return a
            return self.op(operator.sub, "{0} - {1}", a, b) if minus else self.add(a, b)

        def merge(left: dict, right: dict) -> dict:
            return {k: combine(left.get(k), right.get(k))
                    for k in sorted(left.keys() | right.keys())}

        return _Jet(combine(u.value, w.value), merge(u.grad, w.grad), merge(u.hess, w.hess))

    def product(self, u: _Jet, w: _Jet) -> _Jet:
        ug, wg = u.grad, w.grad
        grad = {k: self.total(self.mul(u.value, wg[k]) if k in wg else None,
                              self.mul(w.value, ug[k]) if k in ug else None)
                for k in sorted(ug.keys() | wg.keys())}
        keys = u.hess.keys() | w.hess.keys() | {
            (min(i, j), max(i, j)) for i in ug for j in wg}
        hess = {}
        for i, j in sorted(keys):
            hess[i, j] = self.total(
                self.mul(u.value, w.hess[i, j]) if (i, j) in w.hess else None,
                self.mul(w.value, u.hess[i, j]) if (i, j) in u.hess else None,
                self.mul(ug[i], wg[j]) if i in ug and j in wg else None,
                self.mul(ug[j], wg[i]) if j in ug and i in wg else None)
        return _Jet(self.mul(u.value, w.value), grad, hess)

    def chain(self, u: _Jet, f0: _Atom, slope, curvature) -> _Jet:
        """f(u) from f(u) and thunks for f'(u) and f''(u), which are emitted
        only when u depends on a variable."""
        if not u.grad:
            return _Jet(f0, {}, {})
        f1, f2 = slope(), curvature()
        keys = sorted(u.grad)
        hess = {}
        for a, i in enumerate(keys):
            for j in keys[a:]:
                hess[i, j] = self.total(
                    self.mul(f1, u.hess[i, j]) if (i, j) in u.hess else None,
                    self.mul(f2, self.mul(u.grad[i], u.grad[j])))
        return _Jet(f0, {k: self.mul(f1, g) for k, g in u.grad.items()}, hess)

    def reciprocal(self, node: Node, u: _Jet) -> _Jet:
        self.check(node, u.value, "==", "division by zero")
        inv = self.op(lambda v: 1.0 / v, "1.0 / {0}", u.value)
        return self.chain(u, inv, lambda: self.mul(self.neg(inv), inv),
                          lambda: self.mul(self.mul(self.mul(2.0, inv), inv), inv))

    def log(self, u: _Jet) -> _Jet:
        def inv():
            return self.op(lambda v: 1.0 / v, "1.0 / {0}", u.value)
        return self.chain(u, self.op(math.log, "log({0})", u.value), inv,
                          lambda: self.mul(self.neg(inv()), inv()))

    def exp(self, node: Node, u: _Jet) -> _Jet:
        e = self.guarded(node, math.exp, "exp({0})", u.value, reason="overflow in exp")
        return self.chain(u, e, lambda: e, lambda: e)

    def power(self, node: Node, u: _Jet, w: _Jet) -> _Jet:
        # An exponent with no variable keeps negative bases legal and exact.
        if not w.grad and isinstance(w.value, float):
            if w.value.is_integer() and abs(w.value) < 2 ** 31:
                return self.integer_power(node, u, int(w.value))
        self.check(node, u.value, "<", "negative base with non-integer exponent")
        self.check(node, u.value, "==",
                   "zero base with non-integer exponent (derivative singular)")
        return self.exp(node, self.product(w, self.log(u)))

    def integer_power(self, node: Node, u: _Jet, n: int) -> _Jet:
        """Binary powering, one product per step."""
        if n == 0:
            return _Jet(1.0, {}, {})
        if n < 0:
            return self.reciprocal(node, self.integer_power(node, u, -n))
        result, base = None, u
        while n:
            if n & 1:
                result = base if result is None else self.product(result, base)
            n >>= 1
            if n:
                base = self.product(base, base)
        return result

    def call(self, node: Call, u: _Jet) -> _Jet:
        v = u.value
        if node.func in ("sin", "cos"):
            def s():
                return self.op(math.sin, "sin({0})", v)

            def c():
                return self.op(math.cos, "cos({0})", v)

            if node.func == "sin":
                return self.chain(u, s(), c, lambda: self.neg(s()))
            return self.chain(u, c(), lambda: self.neg(s()), lambda: self.neg(c()))
        if node.func == "exp":
            return self.exp(node, u)
        if node.func == "ln":
            self.check(node, v, "<=", "ln of a non-positive value")
            return self.log(u)
        if node.func == "sqrt":
            self.check(node, v, "<", "square root of a negative value")
            self.check(node, v, "==", "square root derivative singular at zero")
            s = self.op(math.sqrt, "sqrt({0})", v)
            return self.chain(u, s, lambda: self.op(lambda a: 0.5 / a, "0.5 / {0}", s),
                              lambda: self.op(lambda a: -0.25 / a, "-0.25 / {0}",
                                              self.mul(s, v)))
        # abs: sign(0) taken as 0, flat across the kink
        sign = self.op(lambda a: 0.0 if a == 0.0 else math.copysign(1.0, a),
                       "0.0 if {0} == 0.0 else copysign(1.0, {0})", v)
        return self.chain(u, self.op(abs, "abs({0})", v), lambda: sign, lambda: 0.0)


class _Kernels(NamedTuple):
    value: Callable[[list], float]
    derivatives: Callable[[list], tuple]
    width: int          # length of the tuple derivatives returns
    deps: np.ndarray    # variable of each gradient entry
    mirror: np.ndarray  # flat (n, n) positions of the Hessian entries, both
    source: np.ndarray  # triangles, each once; and their slots in the tuple


def _function(name: str, header: list[str], emitter: _Emitter, emit, returned):
    """Source of `def name(p)` and the root emitted for it, None when every
    call raises."""
    try:
        root = emit()
        tail = ["return " + returned(root)]
    except _Unreachable as stop:
        root, tail = None, [stop.statement]
    body = header + emitter.lines + tail
    return f"def {name}(p):\n" + "".join(f"    {line}\n" for line in body), root


def _flat(jet: _Jet) -> list[_Atom]:
    return ([jet.value] + [jet.grad[k] for k in sorted(jet.grad)]
            + [jet.hess[k] for k in sorted(jet.hess)])


def _compile(expr: Expression) -> _Kernels:
    used = sorted({node.index for node in _walk(expr.root) if isinstance(node, Var)})
    header = [f"x{k} = p[{k}]" for k in used]
    values = _Emitter(expr.variables)
    jets = _JetEmitter(expr.variables)
    value_source, _ = _function("value", header, values,
                                lambda: values.value(expr.root), values.ref)
    jet_source, jet = _function("derivatives", header, jets, lambda: jets.jet(expr.root),
                                lambda root: "".join(f"{jets.ref(a)}, " for a in _flat(root)))
    namespace = dict(_KERNEL_GLOBALS)
    exec(compile(value_source + jet_source, "<kccdyn expression>", "exec"), namespace)

    jet = jet or _Jet(0.0, {}, {})
    n = len(expr.variables)
    first = 1 + len(jet.grad)
    upper = sorted(jet.hess)
    placed = [(i * n + j, slot) for slot, (i, j) in enumerate(upper, first)] + [
        (j * n + i, slot) for slot, (i, j) in enumerate(upper, first) if i != j]
    return _Kernels(namespace["value"], namespace["derivatives"], first + len(upper),
                    np.array(sorted(jet.grad), dtype=np.intp),
                    np.array([m for m, _ in placed], dtype=np.intp),
                    np.array([slot for _, slot in placed], dtype=np.intp))
