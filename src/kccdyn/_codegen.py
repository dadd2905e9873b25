"""Compilation of expressions into straight-line Python kernels.

exprdsl imports this module on the first evaluation of an expression and
caches the result on it. It builds two functions of the point p, a
sequence of floats:

  value(p)        the value alone;
  derivatives(p)  one flat tuple: the value, the gradient entries for the
                  variables the expression mentions (ascending), then the
                  upper-triangle Hessian entries (i <= j, ascending).

Each operation becomes one scalar assignment. The derivative kernel does
the forward-mode arithmetic on truncated second-order Taylor expansions
(Griewank & Walther, "Evaluating Derivatives", 2nd ed., 2008) in the order
of a dense second-order dual-number sweep, but only over the variables
each sub-expression mentions, so entries that are structurally zero are
never formed. The value kernel is the same emitter run with no variable
seeded, so both kernels compute the value by the same float operations.
Operations on constants fold to literals at compile time through the same
float arithmetic. Domain checks are emitted in place and raise DomainError
with the offset and fragment of their operation. Variable k is read from
p[k], and each fragment is a literal of the code.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .exprdsl import Call, DomainError, Expression, Neg, Node, Num, Var, _render, _walk


_KERNEL_GLOBALS = {
    "DomainError": DomainError,
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


class _Jet(NamedTuple):
    """Second-order Taylor coefficients of one sub-expression."""

    value: _Atom
    grad: dict    # variable index -> atom, for the variables mentioned
    hess: dict    # (i, j) with i <= j -> atom; absent entries are zero


class _Emitter:
    """Straight-line code in single-assignment form for the forward-mode
    value, gradient and Hessian of one expression. Identical right-hand
    sides share one local, so repeated sub-terms are computed once. Every
    entry is computed by the same float operations, in the same order, as
    the dense second-order arithmetic; a term whose factor is structurally
    zero is left out, which changes no nonzero result.

    Unless `seeded`, no variable carries a gradient, so only the value
    statements are emitted, and the checks that only derivatives need are
    left out: that is the value kernel. `variables` names the expression's
    variables in the fragments that its domain errors carry."""

    def __init__(self, variables: Sequence[str], seeded: bool):
        self.variables = variables
        self.seeded = seeded
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

    def check(self, node: Node, atom: _Atom, compare: str, reason: str,
              bound: float = 0.0) -> None:
        """Raise `reason` at `node` when `atom <compare> bound`. A condition
        already checked has passed, so it is not checked again."""
        if isinstance(atom, str):
            condition = f"{atom} {compare} {self.ref(bound)}"
            if condition not in self.memo:
                self.memo[condition] = condition
                self.lines.append(f"if {condition}: {self.error(node, reason)}")
        elif _COMPARE[compare](atom, bound):
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
        text = template.format(*map(self.ref, args))
        if text not in self.memo:
            self.memo[text] = self.fresh()
            self.lines += ["try:",
                           f"    {self.memo[text]} = {text}",
                           "except OverflowError:",
                           f"    {self.error(node, reason)} from None"]
        return self.memo[text]

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
            k = node.index
            return _Jet(f"x{k}", {k: 1.0} if self.seeded else {}, {})
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
            return self.quotient(node, u, w)
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

    def product(self, u: _Jet, w: _Jet, value: _Atom | None = None) -> _Jet:
        """u w; `value`, when given, stands for the product's value."""
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
        return _Jet(self.mul(u.value, w.value) if value is None else value, grad, hess)

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

    def quotient(self, node: Node, u: _Jet, w: _Jet) -> _Jet:
        """u / w, its derivatives those of u times the reciprocal of w."""
        self.check(node, w.value, "==", "division by zero")
        value = self.op(operator.truediv, "{0} / {1}", u.value, w.value)
        if not (u.grad or w.grad):
            return _Jet(value, {}, {})
        inv = self.op(lambda v: 1.0 / v, "1.0 / {0}", w.value)
        reciprocal = self.chain(w, inv, lambda: self.mul(self.neg(inv), inv),
                                lambda: self.mul(self.mul(self.mul(2.0, inv), inv), inv))
        return self.product(u, reciprocal, value)

    def log(self, u: _Jet) -> _Jet:
        def inv():
            return self.op(lambda v: 1.0 / v, "1.0 / {0}", u.value)
        return self.chain(u, self.op(math.log, "log({0})", u.value), inv,
                          lambda: self.mul(self.neg(inv()), inv()))

    def exp(self, node: Node, u: _Jet) -> _Jet:
        e = self.guarded(node, math.exp, "exp({0})", u.value, reason="overflow in exp")
        return self.chain(u, e, lambda: e, lambda: e)

    def power(self, node: Node, u: _Jet, w: _Jet) -> _Jet:
        b = w.value
        # An exponent that mentions no variable folds to a literal, unless
        # it fails at run time before the power is reached.
        if isinstance(b, float) and not any(isinstance(n, Var) for n in _walk(node.right)):
            if b == 1.0:
                return u
            value = self.pow(node, u.value, b)
            if b == 0.0 or not self.seeded:
                return _Jet(value, {}, {})
            # formed even when u is constant, as the dense arithmetic forms them
            slope = self.mul(b, self.pow(node, u.value, b - 1.0))
            curvature = self.mul(b * (b - 1.0), self.pow(node, u.value, b - 2.0))
            return self.chain(u, value, lambda: slope, lambda: curvature)
        self.check(node, u.value, "<", "negative base with variable exponent")
        self.check(node, u.value, "==", "zero base with variable exponent")
        return self.exp(node, self.product(w, self.log(u)))

    def pow(self, node: Node, a: _Atom, b: float) -> _Atom:
        """a ** b for a literal b. An integer b keeps negative bases legal."""
        if b == 0.0:
            return 1.0  # a ** 0.0 is 1.0 for every float a, nan included
        if b == 1.0:
            return a
        if b.is_integer():
            if b < 0.0:
                self.check(node, a, "==", "division by zero")
        else:
            self.check(node, a, "<", "negative base with non-integer exponent")
            if not b > 0.0:  # 0.0 ** b is 0.0 for b > 0
                self.check(node, a, "==", "zero base with negative exponent")
        return self.guarded(node, operator.pow, "{0} ** {1}", a, b, reason="overflow in power")

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
            if self.seeded:
                self.check(node, v, "==", "square root derivative singular at zero")
            s = self.op(math.sqrt, "sqrt({0})", v)

            def curvature():
                # s * v underflows to 0 for v below about 1.8e-216, and
                # -0.25 / (s * v) overflows to -inf up to about 1.2e-206
                reason = "square root curvature out of range near zero"
                sv = self.mul(s, v)
                self.check(node, sv, "==", reason)
                c = self.op(lambda a: -0.25 / a, "-0.25 / {0}", sv)
                self.check(node, c, "==", reason, bound=-math.inf)
                return c

            return self.chain(u, s, lambda: self.op(lambda a: 0.5 / a, "0.5 / {0}", s),
                              curvature)
        # abs: sign(0) taken as 0, flat across the kink
        return self.chain(u, self.op(abs, "abs({0})", v), lambda: self.op(
            lambda a: 0.0 if a == 0.0 else math.copysign(1.0, a),
            "0.0 if {0} == 0.0 else copysign(1.0, {0})", v), lambda: 0.0)


class _Kernels(NamedTuple):
    value: Callable[[list], float]
    derivatives: Callable[[list], tuple]
    width: int          # length of the tuple derivatives returns
    deps: np.ndarray    # variable of each gradient entry
    rows: np.ndarray    # (row, column) of the Hessian entries in both
    cols: np.ndarray    # triangles, each position once; and the slots of
    source: np.ndarray  # their values in the tuple


def _function(name: str, header: list[str], emitter: _Emitter, root: Node, returned):
    """Source of `def name(p)` and the jet of `root` emitted for it, None
    when every call raises."""
    try:
        jet = emitter.jet(root)
        tail = ["return " + returned(jet)]
    except _Unreachable as stop:
        jet, tail = None, [stop.statement]
    body = header + emitter.lines + tail
    return f"def {name}(p):\n" + "".join(f"    {line}\n" for line in body), jet


def _flat(jet: _Jet) -> list[_Atom]:
    return ([jet.value] + [jet.grad[k] for k in sorted(jet.grad)]
            + [jet.hess[k] for k in sorted(jet.hess)])


def compile_expression(expr: Expression) -> _Kernels:
    """The value and derivative kernels of one expression."""
    root = expr.root
    used = sorted({node.index for node in _walk(root) if isinstance(node, Var)})
    header = [f"x{k} = p[{k}]" for k in used]
    values = _Emitter(expr.variables, seeded=False)
    jets = _Emitter(expr.variables, seeded=True)
    value_source, _ = _function("value", header, values, root,
                                lambda top: values.ref(top.value))
    jet_source, jet = _function("derivatives", header, jets, root,
                                lambda top: "".join(f"{jets.ref(a)}, " for a in _flat(top)))
    namespace = dict(_KERNEL_GLOBALS)
    exec(compile(value_source + jet_source, "<kccdyn expression>", "exec"), namespace)

    jet = jet or _Jet(0.0, {}, {})
    first = 1 + len(jet.grad)
    upper = sorted(jet.hess)
    i = np.array([a for a, _ in upper], dtype=np.intp)
    j = np.array([b for _, b in upper], dtype=np.intp)
    slots = np.arange(first, first + len(upper), dtype=np.intp)
    off = i != j
    return _Kernels(namespace["value"], namespace["derivatives"], first + len(upper),
                    np.array(sorted(jet.grad), dtype=np.intp),
                    np.concatenate([i, j[off]]), np.concatenate([j, i[off]]),
                    np.concatenate([slots, slots[off]]))
