"""Scalar expression DSL: parsing, serialization, exact differentiation.

Expressions over an ordered list of named variables are parsed into an
immutable AST (grammar in the README). On first evaluation each expression
compiles into straight-line Python code: a float kernel for the value, and a
forward-mode kernel for value, gradient and Hessian. Gradient and Hessian
entries are therefore exact derivatives rather than finite-difference
estimates, and every Hessian is symmetric by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Union

import numpy as np

__all__ = [
    "BinOp",
    "Call",
    "DomainError",
    "Expression",
    "ExpressionError",
    "FUNCTION_NAMES",
    "Neg",
    "Num",
    "ParseError",
    "UnknownIdentifierError",
    "Var",
    "parse",
    "shift_variables",
]

FUNCTION_NAMES = frozenset({"sin", "cos", "exp", "ln", "sqrt", "abs"})


class ExpressionError(ValueError):
    """Base class for expression parsing and evaluation failures."""


class ParseError(ExpressionError):
    """Syntax error; carries the byte offset and what was expected there."""

    def __init__(self, message: str, offset: int, expected: str | None = None):
        self.offset = offset
        self.expected = expected
        detail = f", expected {expected}" if expected else ""
        super().__init__(f"{message} at offset {offset}{detail}")


class UnknownIdentifierError(ParseError):
    """Identifier that is neither a declared variable nor a function."""

    def __init__(self, name: str, offset: int):
        self.name = name
        super().__init__(
            f"unknown identifier {name!r}", offset,
            expected="a declared variable or one of " + ", ".join(sorted(FUNCTION_NAMES)),
        )


class DomainError(ExpressionError):
    """Singular numeric operation (division by zero, ln of a non-positive
    value, ...), located at the offending sub-expression."""

    def __init__(self, reason: str, offset: int | None = None, fragment: str | None = None):
        self.reason = reason
        self.offset = offset
        self.fragment = fragment
        message = reason
        if fragment is not None:
            message += f" in {fragment!r}"
        if offset is not None:
            message += f" (offset {offset})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float
    offset: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    index: int
    offset: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Neg:
    operand: "Node"
    offset: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"
    offset: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    func: str  # member of FUNCTION_NAMES
    arg: "Node"
    offset: int | None = field(default=None, compare=False, repr=False)


Node = Union[Num, Var, Neg, BinOp, Call]


def _walk(node: Node):
    yield node
    if isinstance(node, Neg):
        yield from _walk(node.operand)
    elif isinstance(node, BinOp):
        yield from _walk(node.left)
        yield from _walk(node.right)
    elif isinstance(node, Call):
        yield from _walk(node.arg)


@dataclass(frozen=True)
class Expression:
    """Parsed expression over an ordered variable list.

    Immutable after construction; evaluation is reentrant, so a single
    Expression may be evaluated from many threads at once. The compiled
    kernels are built on first evaluation, of the expression or of a field
    that holds it, and cached on the instance.
    """

    root: Node
    variables: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.variables)
        object.__setattr__(self, "variables", names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for name in names:
            if not name.isidentifier():
                raise ValueError(f"variable name {name!r} is not a valid identifier")
        for node in _walk(self.root):
            if isinstance(node, Var) and not 0 <= node.index < len(names):
                raise ValueError(
                    f"variable index {node.index} out of range for {len(names)} variables")
            if isinstance(node, Call) and node.func not in FUNCTION_NAMES:
                raise ValueError(f"unknown function {node.func!r}")
            if isinstance(node, BinOp) and node.op not in "+-*/^":
                raise ValueError(f"unknown operator {node.op!r}")

    def __str__(self) -> str:
        return _render(self.root, self.variables, 0)

    def _check_point(self, point) -> list[float]:
        values = np.asarray(point, dtype=float)
        if values.shape != (len(self.variables),):
            raise ValueError(
                f"point has shape {values.shape}, expected ({len(self.variables)},)")
        return values.tolist()

    def evaluate(self, point) -> float:
        """Value of the expression at the point; raises DomainError at
        singular operations, locating the offending sub-expression."""
        return self._kernels.value(self._check_point(point))

    def with_derivatives(self, point) -> tuple[float, np.ndarray, np.ndarray]:
        """Value, exact gradient and exact Hessian from one call of the
        compiled forward-mode kernel. The Hessian is mirrored from its upper
        triangle, so it is exactly symmetric."""
        values = self._check_point(point)
        kernels = self._kernels
        out = kernels.derivatives(values)
        entries = np.array(out)
        n = len(values)
        grad = np.zeros(n)
        grad[kernels.deps] = entries[1:1 + len(kernels.deps)]
        hess = np.zeros((n, n))
        hess[kernels.rows, kernels.cols] = entries[kernels.source]
        return out[0], grad, hess

    @cached_property
    def _kernels(self):
        # imported on first use, so that importing kccdyn does not pay for
        # loading the code generator
        from ._codegen import compile_expression
        return compile_expression(self)

    def __getstate__(self):
        # compiled functions do not pickle; they are rebuilt on demand
        return {k: v for k, v in self.__dict__.items() if k != "_kernels"}


# ---------------------------------------------------------------------------
# Tokenizer and recursive-descent parser


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j >= n or not source[j].isdigit():
                    raise ParseError("malformed number", j, expected="exponent digits")
                i = j
                while i < n and source[i].isdigit():
                    i += 1
            tokens.append(_Token("num", source[start:i], start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(_Token("ident", source[start:i], start))
            continue
        if c in "+-*/^()":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i,
                         expected="a number, identifier, or operator")
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], variables: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.index = {name: k for k, name in enumerate(variables)}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def match_op(self, chars: str) -> _Token | None:
        tok = self.peek()
        if tok.kind == "op" and tok.text in chars:
            return self.take()
        return None

    def expect_op(self, char: str) -> _Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == char:
            return self.take()
        raise ParseError(self._describe(tok), tok.offset, expected=repr(char))

    @staticmethod
    def _describe(tok: _Token) -> str:
        return "unexpected end of input" if tok.kind == "end" else f"unexpected {tok.text!r}"

    def expression(self) -> Node:
        node = self.term()
        while (tok := self.match_op("+-")) is not None:
            node = BinOp(tok.text, node, self.term(), offset=tok.offset)
        return node

    def term(self) -> Node:
        node = self.unary()
        while (tok := self.match_op("*/")) is not None:
            node = BinOp(tok.text, node, self.unary(), offset=tok.offset)
        return node

    def unary(self) -> Node:
        if (tok := self.match_op("-")) is not None:
            return Neg(self.unary(), offset=tok.offset)
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if (tok := self.match_op("^")) is not None:
            return BinOp("^", base, self.unary(), offset=tok.offset)
        return base

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return Num(float(tok.text), offset=tok.offset)
        if tok.kind == "ident":
            self.take()
            if tok.text in self.index:
                return Var(self.index[tok.text], offset=tok.offset)
            if tok.text in FUNCTION_NAMES:
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return Call(tok.text, arg, offset=tok.offset)
            raise UnknownIdentifierError(tok.text, tok.offset)
        if tok.kind == "op" and tok.text == "(":
            self.take()
            node = self.expression()
            self.expect_op(")")
            return node
        raise ParseError(self._describe(tok), tok.offset, expected="an expression")


def parse(source: str, variables: Sequence[str]) -> Expression:
    """Parse infix text over the given ordered variable names.

    Grammar: + - * / ^ with standard precedence, ^ right-associative,
    unary minus binding below ^, parentheses, decimal and scientific
    number literals, and the functions sin, cos, exp, ln, sqrt, abs.
    """
    names = tuple(variables)
    if not source or not source.strip():
        raise ParseError("empty input", 0, expected="an expression")
    parser = _Parser(_tokenize(source), names)
    root = parser.expression()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(parser._describe(trailing), trailing.offset,
                         expected="end of input or an operator")
    return Expression(root=root, variables=names)


# ---------------------------------------------------------------------------
# Serialization (round-trips through parse with identical evaluation)

_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
# (left slot, right slot) minimum precedence: the right slot of - and / is
# raised one level so reparsing cannot reassociate, and the left slot of ^
# demands an atom so exponent towers stay right-associated.
_SLOT_PREC = {"+": (1, 2), "-": (1, 2), "*": (2, 3), "/": (2, 3), "^": (5, 3)}


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _BIN_PREC[node.op]
    if isinstance(node, Neg):
        return 3
    if isinstance(node, Num) and math.copysign(1.0, node.value) < 0:
        return 3  # renders with a leading minus sign
    return 5


def _number_text(value: float) -> str:
    # Integer-valued floats print without the trailing .0; repr otherwise.
    # Both forms re-tokenize to the identical float.
    if value.is_integer() and abs(value) < 1e16 and math.copysign(1.0, value) > 0:
        return str(int(value))
    return repr(value)


def _render(node: Node, variables: Sequence[str], min_prec: int) -> str:
    if isinstance(node, Num):
        text = _number_text(node.value)
    elif isinstance(node, Var):
        text = variables[node.index]
    elif isinstance(node, Neg):
        text = "-" + _render(node.operand, variables, 3)
    elif isinstance(node, BinOp):
        lmin, rmin = _SLOT_PREC[node.op]
        text = (_render(node.left, variables, lmin) + node.op
                + _render(node.right, variables, rmin))
    elif isinstance(node, Call):
        text = f"{node.func}({_render(node.arg, variables, 0)})"
    else:
        raise TypeError(f"not an AST node: {node!r}")
    if _prec(node) < min_prec:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# AST rewrite used by the fixed-point translation


def _transform(node: Node, fn) -> Node:
    if isinstance(node, Var):
        return fn(node)
    if isinstance(node, Neg):
        return Neg(_transform(node.operand, fn), offset=node.offset)
    if isinstance(node, BinOp):
        return BinOp(node.op, _transform(node.left, fn), _transform(node.right, fn),
                     offset=node.offset)
    if isinstance(node, Call):
        return Call(node.func, _transform(node.arg, fn), offset=node.offset)
    return node


def shift_variables(expr: Expression, offsets) -> Expression:
    """Substitute every variable v_i by (v_i + offsets[i])."""
    shifts = np.asarray(offsets, dtype=float)
    if shifts.shape != (len(expr.variables),):
        raise ValueError(
            f"offsets have shape {shifts.shape}, expected ({len(expr.variables)},)")

    def rewrite(var: Var) -> Node:
        c = float(shifts[var.index])
        if c == 0.0:
            return var
        return BinOp("+", Var(var.index), Num(c))

    return Expression(root=_transform(expr.root, rewrite), variables=expr.variables)

