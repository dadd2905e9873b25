import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kccdyn.exprdsl import (
    FUNCTION_NAMES,
    BinOp,
    Call,
    DomainError,
    Expression,
    Neg,
    Num,
    ParseError,
    UnknownIdentifierError,
    Var,
    parse,
    shift_variables,
    _walk,
)

from helpers import fd_gradient, fd_hessian, oracle_derivatives, oracle_value

# Smooth everywhere on the sampling box [-1.5, 1.5]^3.
SMOOTH_CORPUS = [
    ("x1^2*x2", 2),
    ("sin(x1)*cos(x2)", 2),
    ("exp(x1/2)", 1),
    ("ln(2 + sin(x1))", 1),
    ("sqrt(1 + x1^2)", 1),
    ("x1*x2*x3", 3),
    ("(x1 + 2*x2)^3", 2),
    ("1/(2 + x1^2)", 1),
    ("exp(-x1^2/2)*cos(3*x2)", 2),
    ("x1^4 - 3*x1^2 + 2", 1),
    ("sin(x1*x2)", 2),
    ("(1 + x1^2)^1.5", 1),
    ("x1/(1 + x2^2)", 2),
    ("ln(2 + x1^2 + x2^2)", 2),
    ("cos(x1)^2", 1),
    ("exp(x1)*sin(x2)", 2),
    ("sqrt(2 + cos(x1))", 1),
    ("x1^2/(1 + exp(x2))", 2),
    ("2^x1", 1),
    ("abs(2 + x1^2)", 1),
]


def _vars(n):
    return [f"x{i + 1}" for i in range(n)]


class TestParsing:
    def test_reference_expression(self):
        # hand arithmetic: -0.5 * (1 - 0.5 + 1.5) = -1.0
        expr = parse("-x1*(1 - x1 + 3*x2)", ["x1", "x2"])
        assert expr.evaluate([0.5, 0.5]) == -1.0

    def test_constant_zero(self):
        expr = parse("0", ["x1"])
        rng = np.random.default_rng(0)
        for point in rng.uniform(-5, 5, size=(10, 1)):
            assert expr.evaluate(point) == 0.0

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ParseError) as info:
            parse("x1*(", ["x1"])
        assert info.value.offset == 4

    @pytest.mark.parametrize("source", ["", "   "])
    def test_empty_input(self, source):
        with pytest.raises(ParseError) as info:
            parse(source, ["x1"])
        assert info.value.offset == 0

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as info:
            parse("x1 + argle", ["x1"])
        assert info.value.name == "argle"
        assert info.value.offset == 5

    def test_function_requires_paren(self):
        with pytest.raises(ParseError):
            parse("sin + 1", ["x1"])

    def test_trailing_tokens(self):
        with pytest.raises(ParseError) as info:
            parse("x1 )", ["x1"])
        assert info.value.offset == 3

    def test_malformed_exponent(self):
        with pytest.raises(ParseError):
            parse("1e+", ["x1"])

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as info:
            parse("x1 $ 2", ["x1"])
        assert info.value.offset == 3

    def test_scientific_literals(self):
        expr = parse("1e-3 + 2.5E+2 + 1.25e1", ["x1"])
        assert expr.evaluate([0.0]) == 1e-3 + 2.5e2 + 12.5

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError):
            parse("x1", ["x1", "x1"])

    def test_bad_variable_name_rejected(self):
        with pytest.raises(ValueError):
            parse("x1", ["x1", "2bad"])

    def test_variable_shadowing_function_name(self):
        expr = parse("sin", ["sin"])
        assert expr.evaluate([0.25]) == 0.25


class TestPrecedence:
    def test_mul_over_add(self):
        assert parse("2+3*4", []).evaluate([]) == 14.0

    def test_pow_right_associative(self):
        assert parse("2^3^2", []).evaluate([]) == 512.0

    def test_unary_minus_below_pow(self):
        assert parse("-2^2", []).evaluate([]) == -4.0

    def test_unary_after_operators(self):
        assert parse("2*-3", []).evaluate([]) == -6.0
        assert parse("2^-2", []).evaluate([]) == 0.25
        assert parse("1 - -2", []).evaluate([]) == 3.0


class TestEvaluation:
    def test_reference_value(self):
        # hand arithmetic: (3 + 1 - 3) * 1 = 1
        assert parse("(3+x1-3*x2)*x2", ["x1", "x2"]).evaluate([1.0, 1.0]) == 1.0

    def test_sin_zero(self):
        assert parse("sin(x1)", ["x1"]).evaluate([0.0]) == 0.0

    def test_division_by_zero_located(self):
        expr = parse("1/x1", ["x1"])
        with pytest.raises(DomainError) as info:
            expr.evaluate([0.0])
        assert info.value.offset == 1
        assert "1/x1" in info.value.fragment

    def test_ln_of_negative(self):
        with pytest.raises(DomainError):
            parse("ln(x1)", ["x1"]).evaluate([-1.0])

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError):
            parse("sqrt(x1)", ["x1"]).evaluate([-1.0])

    def test_pow_integer_exponent_negative_base(self):
        assert parse("x1^3", ["x1"]).evaluate([-2.0]) == -8.0
        assert parse("x1^2", ["x1"]).evaluate([-2.0]) == 4.0

    def test_pow_non_integer_negative_base(self):
        with pytest.raises(DomainError):
            parse("x1^2.5", ["x1"]).evaluate([-1.0])

    def test_pow_zero_base(self):
        assert parse("x1^0", ["x1"]).evaluate([0.0]) == 1.0
        assert parse("x1^0.5", ["x1"]).evaluate([0.0]) == 0.0
        with pytest.raises(DomainError):
            parse("x1^-1", ["x1"]).evaluate([0.0])

    def test_constant_failure_raises_at_every_point(self):
        expr = parse("x + ln(1 - 2)", ["x"])
        for kernel in (Expression.evaluate, Expression.with_derivatives):
            with pytest.raises(DomainError) as info:
                kernel(expr, [0.5])
            assert info.value.reason == "ln of a non-positive value"
            assert info.value.offset == 4

    def test_point_length_checked(self):
        with pytest.raises(ValueError):
            parse("x1", ["x1", "x2"]).evaluate([1.0])

    def test_finite_on_corpus(self):
        rng = np.random.default_rng(1)
        for source, n in SMOOTH_CORPUS:
            expr = parse(source, _vars(n))
            for point in rng.uniform(-1.5, 1.5, size=(5, n)):
                assert math.isfinite(expr.evaluate(point))


class TestDerivatives:
    def test_gradient_reference(self):
        # hand differentiation: d/dx1 = -1 + 2 x1 - 3 x2, d/dx2 = -3 x1
        grad = parse("-x1*(1-x1+3*x2)", ["x1", "x2"]).with_derivatives([0.0, 1.0])[1]
        assert np.array_equal(grad, [-4.0, 0.0])

    def test_gradient_monomial(self):
        grad = parse("x1^2*x2", ["x1", "x2"]).with_derivatives([1.0, 1.0])[1]
        assert np.array_equal(grad, [2.0, 1.0])

    def test_gradient_of_constant(self):
        rng = np.random.default_rng(2)
        expr = parse("5", ["x1", "x2", "x3"])
        for point in rng.uniform(-3, 3, size=(5, 3)):
            assert np.array_equal(expr.with_derivatives(point)[1], np.zeros(3))

    def test_hessian_monomial(self):
        hess = parse("x1^2*x2", ["x1", "x2"]).with_derivatives([1.0, 1.0])[2]
        assert np.array_equal(hess, [[2.0, 2.0], [2.0, 0.0]])

    def test_hessian_of_linear(self):
        hess = parse("3*x1 - 2*x2 + 7", ["x1", "x2"]).with_derivatives([0.3, -0.8])[2]
        assert np.array_equal(hess, np.zeros((2, 2)))

    def test_hessian_of_quadratic_constant(self):
        expr = parse("-x1*(1-x1+3*x2)", ["x1", "x2"])
        rng = np.random.default_rng(3)
        for point in rng.uniform(-2, 2, size=(5, 2)):
            assert np.array_equal(expr.with_derivatives(point)[2], [[2.0, -3.0], [-3.0, 0.0]])

    def test_hessian_exactly_symmetric(self):
        rng = np.random.default_rng(4)
        for source, n in SMOOTH_CORPUS:
            expr = parse(source, _vars(n))
            for point in rng.uniform(-1.5, 1.5, size=(3, n)):
                hess = expr.with_derivatives(point)[2]
                assert np.array_equal(hess, hess.T)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for source, n in SMOOTH_CORPUS:
            expr = parse(source, _vars(n))
            for point in rng.uniform(-1.5, 1.5, size=(50, n)):
                value, grad, hess = expr.with_derivatives(point)
                assert value == expr.evaluate(point)
                fd_g = fd_gradient(expr.evaluate, point)
                scale_g = max(1.0, float(np.max(np.abs(grad))))
                assert np.max(np.abs(grad - fd_g)) <= 1e-6 * scale_g, source
                fd_h = fd_hessian(expr.evaluate, point)
                scale_h = max(1.0, float(np.max(np.abs(hess))))
                assert np.max(np.abs(hess - fd_h)) <= 1e-5 * scale_h, source

    def test_gradient_singularity_raises(self):
        with pytest.raises(DomainError):
            parse("sqrt(x1)", ["x1"]).with_derivatives([0.0])

    def test_sqrt_curvature_at_subnormal_raises(self):
        # sqrt(5e-324) * 5e-324 underflows to 0, so -0.25 / (s * v) has no
        # float value; the value itself is fine
        expr = parse("1 + sqrt(x)", ["x"])
        assert expr.evaluate([5e-324]) == 1.0
        with pytest.raises(DomainError) as info:
            expr.with_derivatives([5e-324])
        assert info.value.reason == "square root curvature out of range near zero"
        assert info.value.offset == 4
        assert info.value.fragment == "sqrt(x)"
        with pytest.raises(DomainError) as info:
            oracle_derivatives(expr, [5e-324])
        assert info.value.reason == "square root curvature out of range near zero"

    @pytest.mark.parametrize("v", [2e-216, 1.2e-206])
    def test_sqrt_curvature_overflow_raises(self, v):
        # s * v is subnormal but not 0, and -0.25 / (s * v) overflows to -inf
        expr = parse("sqrt(x)", ["x"])
        for derivatives in (expr.with_derivatives, lambda p: oracle_derivatives(expr, p)):
            with pytest.raises(DomainError) as info:
                derivatives([v])
            assert info.value.reason == "square root curvature out of range near zero"

    def test_sqrt_curvature_finite_just_above_overflow(self):
        expr = parse("sqrt(x)", ["x"])
        _, _, hess = expr.with_derivatives([1.3e-206])
        assert np.isfinite(hess).all()
        assert hess[0, 0] == oracle_derivatives(expr, [1.3e-206])[2][0, 0]


class TestCompiledDerivatives:
    def test_constant_blocks_stay_zero(self):
        # a = 2, b = -0.5 over three unused variables: (a*b + a/b - b)^2
        expr = parse("(2*-0.5 + 2/-0.5 - -0.5)^2", ["x1", "x2", "x3"])
        value, grad, hess = expr.with_derivatives([0.3, -1.0, 2.0])
        assert value == (2.0 * -0.5 + 2.0 / -0.5 + 0.5) ** 2
        assert not grad.any()
        assert not hess.any()

    def test_second_block_symmetric_through_ops(self):
        expr = parse("sin((x*y + x)/(y*y + 2))*exp(x)", ["x", "y"])
        _, _, hess = expr.with_derivatives([0.7, -1.2])
        assert hess[0, 1] != 0.0
        assert np.array_equal(hess, hess.T)

    def test_seed_derivative(self):
        value, grad, hess = parse("x*x", ["x"]).with_derivatives([3.0])
        assert value == 9.0
        assert grad[0] == 6.0
        assert hess[0, 0] == 2.0


class TestPowerSemantics:
    """An exponent that mentions no variable is a literal b: the value is
    a ** b, so integer exponents keep negative bases legal, and the
    derivatives follow the power rule b a^(b-1), b (b-1) a^(b-2). An
    exponent that mentions a variable takes the general route exp(b ln a),
    which needs a positive base. Both kernels follow the one rule."""

    @pytest.mark.parametrize("source", ["x^-2", "x^(2^2)", "(-x)^3", "x^(1+1)", "x^3"])
    def test_constant_exponent_negative_base(self, source):
        expr = parse(source, ["x"])
        for point in ([-1.5], [-0.3], [2.0]):
            value, grad, hess = expr.with_derivatives(point)
            expected = oracle_derivatives(expr, point)
            assert value == expected[0]
            assert np.array_equal(grad, expected[1])
            assert np.array_equal(hess, expected[2])
            assert expr.evaluate(point) == oracle_value(expr, point) == value

    def test_power_rule_exact(self):
        # d/dx x^3 = 3 x^2 and d2/dx2 = 6 x, by hand at x = -2
        value, grad, hess = parse("x^3", ["x"]).with_derivatives([-2.0])
        assert (value, grad[0], hess[0, 0]) == (-8.0, 12.0, -12.0)

    def test_exponent_cancelling_at_run_time_takes_general_route(self):
        # y-y is 0 and x^0 is 1 at run time, yet both exponents mention a
        # variable, so both kernels take exp(b ln a) and refuse the negative
        # base.
        for source, at_two in (("x^(y-y)", 1.0), ("x^(x^0)", 2.0)):
            expr = parse(source, ["x", "y"])
            for kernel in (Expression.evaluate, Expression.with_derivatives):
                with pytest.raises(DomainError) as info:
                    kernel(expr, [-2.0, 0.5])
                assert info.value.reason == "negative base with variable exponent"
                assert info.value.offset == 1
                assert info.value.fragment == str(expr)
            value = expr.evaluate([2.0, 0.5])
            assert value == expr.with_derivatives([2.0, 0.5])[0]
            assert value == pytest.approx(at_two, rel=1e-15)

    def test_zero_base_variable_exponent(self):
        # 0^2 is 0, but x^y takes exp(y ln x), which needs x > 0
        expr = parse("x^y", ["x", "y"])
        for kernel in (Expression.evaluate, Expression.with_derivatives):
            with pytest.raises(DomainError) as info:
                kernel(expr, [0.0, 2.0])
            assert info.value.reason == "zero base with variable exponent"
            assert info.value.offset == 1
            assert info.value.fragment == "x^y"

    def test_zero_base_negative_constant_exponent(self):
        for kernel in (Expression.evaluate, Expression.with_derivatives):
            with pytest.raises(DomainError) as info:
                kernel(parse("x^-2", ["x"]), [0.0])
            assert info.value.reason == "division by zero"
            assert info.value.fragment == "x^-2"

    def test_zero_base_derivative_only_failure(self):
        # 0^0.5 is 0, but its slope 0.5 * 0^-0.5 is not finite
        expr = parse("x^0.5", ["x"])
        assert expr.evaluate([0.0]) == 0.0
        with pytest.raises(DomainError) as info:
            expr.with_derivatives([0.0])
        assert info.value.reason == "zero base with negative exponent"
        # 0^2.5 has zero slope and zero curvature
        value, grad, hess = parse("x^2.5", ["x"]).with_derivatives([0.0])
        assert (value, grad[0], hess[0, 0]) == (0.0, 0.0, 0.0)

    def test_quotient_value(self):
        # 3/10 and 3 * (1/10) differ in the last bit
        expr = parse("x/y", ["x", "y"])
        assert 3.0 / 10.0 != 3.0 * (1.0 / 10.0)
        assert expr.evaluate([3.0, 10.0]) == expr.with_derivatives([3.0, 10.0])[0] == 0.3


# Random trees over two variables, through every operator and function.
_LEAVES = st.one_of(
    st.builds(Num, st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, -1.0, -2.5])),
    st.builds(Var, st.integers(0, 1)),
)
_TREES = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(sorted(FUNCTION_NAMES)), sub),
    ),
    max_leaves=10,
)
_COORDINATES = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.0]),
                         st.floats(-2.5, 2.5, allow_nan=False))
_POINTS = st.lists(_COORDINATES, min_size=2, max_size=2)
_NAMES = ("x", "y")


def _outcome(fn, *args):
    """The result, or the identity of the exception it raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return "ok", fn(*args)
    except DomainError as err:
        return "domain", (err.reason, err.offset, err.fragment)
    except (ArithmeticError, ValueError) as err:
        return "error", type(err)


def _cancelling_exponent(root, point) -> bool:
    """Some exponent mentions a variable, yet the dense sweep sees all-zero
    derivative blocks there (the one pinned departure from the oracle)."""
    for node in _walk(root):
        if isinstance(node, BinOp) and node.op == "^" and any(
                isinstance(n, Var) for n in _walk(node.right)):
            kind, out = _outcome(oracle_derivatives, Expression(node.right, _NAMES), point)
            if kind == "ok" and not out[1].any() and not out[2].any():
                return True
    return False


def _constant_exponents(root) -> bool:
    """No exponent mentions a variable, so every power is a ** b with a
    literal b, as in the float tree walk of tests/helpers.py."""
    return not any(isinstance(node, BinOp) and node.op == "^" and any(
        isinstance(n, Var) for n in _walk(node.right)) for node in _walk(root))


# Failures that only the derivative kernel can meet: the slope of sqrt at
# 0, a derivative term of a power, and the curvature -0.25 / (s * v) of
# sqrt(v) when s * v underflows to zero or the quotient overflows.
_DERIVATIVE_ONLY = {
    ("domain", "square root derivative singular at zero"),
    ("domain", "zero base with negative exponent"),
    ("domain", "overflow in power"),
    ("domain", "square root curvature out of range near zero"),
}


class TestCompiledAgainstOracle:
    """The compiled kernels against the dense dual-number interpreter they
    replaced (tests/helpers.py). Both do the same float operations in the
    same order, so results agree exactly; only the sign of a zero may
    differ, where the dense sweep carried a structurally zero entry."""

    @settings(max_examples=300, deadline=None)
    @given(_TREES, _POINTS)
    # the dense sweep rounds h[1, 0] and h[0, 1] apart in the last bit here
    @example(parse("(x+y)*(3+x)^y", ["x", "y"]).root, [-1.0, -0.5])
    def test_derivatives_match_oracle(self, root, point):
        expr = Expression(root, _NAMES)
        assume(not _cancelling_exponent(root, point))
        kind, expected = _outcome(oracle_derivatives, expr, point)
        assume(kind != "ok" or all(np.isfinite(np.asarray(v)).all() for v in expected))
        got_kind, got = _outcome(Expression.with_derivatives, expr, point)
        assert got_kind == kind, (str(expr), point, got, expected)
        if kind != "ok":
            assert got == expected
            return
        value, grad, hess = got
        assert value == expected[0]
        assert np.array_equal(grad, expected[1])
        assert np.array_equal(hess, expected[2])
        assert np.array_equal(hess, hess.T)

    @settings(max_examples=300, deadline=None)
    @given(_TREES, _POINTS)
    def test_value_matches_oracle(self, root, point):
        expr = Expression(root, _NAMES)
        assume(_constant_exponents(root))
        kind, expected = _outcome(oracle_value, expr, point)
        got_kind, got = _outcome(Expression.evaluate, expr, point)
        assert got_kind == kind, (str(expr), point, got, expected)
        if kind == "ok":
            assert repr(got) == repr(expected)  # the sign of a zero too
        else:
            assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(_TREES, _POINTS)
    # C pow and x * (x * x) round this cube apart in the last bit
    @example(parse("x^3", _NAMES).root, [0.5853086206137439, 0.0])
    def test_value_kernel_agrees_with_derivative_kernel(self, root, point):
        expr = Expression(root, _NAMES)
        kind, value = _outcome(Expression.evaluate, expr, point)
        d_kind, out = _outcome(Expression.with_derivatives, expr, point)
        if d_kind == "ok":
            assert kind == "ok", (str(expr), point, value)
            assert repr(value) == repr(out[0]), (str(expr), point)
        elif (d_kind, out) != (kind, value):
            reason = out[0] if d_kind == "domain" else out
            assert (d_kind, reason) in _DERIVATIVE_ONLY, (str(expr), point, out, value)

    @settings(max_examples=200, deadline=None)
    @given(_TREES, _POINTS)
    def test_reparse_evaluates_identically(self, root, point):
        expr = Expression(root, _NAMES)
        again = parse(str(expr), _NAMES)
        for fn in (Expression.evaluate, Expression.with_derivatives):
            kind, first = _outcome(fn, expr, point)
            again_kind, second = _outcome(fn, again, point)
            assert kind == again_kind
            if kind == "domain":
                assert first[0] == second[0]  # offsets exist only after parsing
            elif kind == "ok" and fn is Expression.evaluate:
                assert first == second or (math.isnan(first) and math.isnan(second))
            elif kind == "ok":
                for a, b in zip(first, second):
                    assert np.array_equal(a, b, equal_nan=True)

    def test_pickles_after_compiling(self):
        expr = parse("sin(x)*y", ["x", "y"])
        before = expr.with_derivatives([0.3, 2.0])
        again = pickle.loads(pickle.dumps(expr))
        after = again.with_derivatives([0.3, 2.0])
        assert again == expr
        assert before[0] == after[0]
        assert np.array_equal(before[2], after[2])


class TestRoundTrip:
    @pytest.mark.parametrize("source,n", SMOOTH_CORPUS + [
        ("-x1*(1 - x1 + 3*x2)", 2),
        ("(3 + x1 - 3*x2)*x2", 2),
        ("-2^2 + x1--3", 1),
        ("1e-3*x1^-2^2", 1),
    ])
    def test_reparse_evaluates_identically(self, source, n):
        names = _vars(n)
        expr = parse(source, names)
        again = parse(str(expr), names)
        rng = np.random.default_rng(6)
        for point in rng.uniform(-1.5, 1.5, size=(100, n)):
            assert again.evaluate(point) == expr.evaluate(point)

    def test_programmatic_negative_base_power(self):
        expr = Expression(root=BinOp("^", Num(-2.0), Num(2.0)), variables=())
        assert expr.evaluate([]) == 4.0
        again = parse(str(expr), [])
        assert again.evaluate([]) == 4.0

    def test_rebuilt_tree_round_trips(self):
        # right-nested subtraction must keep its parentheses
        root = BinOp("-", Num(1.0), BinOp("-", Var(0), Num(2.0)))
        expr = Expression(root=root, variables=("x1",))
        again = parse(str(expr), ["x1"])
        rng = np.random.default_rng(7)
        for point in rng.uniform(-5, 5, size=(20, 1)):
            assert again.evaluate(point) == expr.evaluate(point)


class TestConcurrency:
    def test_shared_expression_reentrant(self):
        from concurrent.futures import ThreadPoolExecutor
        expr = parse("exp(-x1^2/2)*cos(3*x2) + x1*x2", ["x1", "x2"])
        rng = np.random.default_rng(20)
        points = rng.uniform(-2, 2, size=(64, 2))
        serial = [expr.with_derivatives(p) for p in points]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda p: expr.with_derivatives(p), points))
        for (v1, g1, h1), (v2, g2, h2) in zip(serial, threaded):
            assert v1 == v2
            assert np.array_equal(g1, g2)
            assert np.array_equal(h1, h2)


class TestRewrites:
    def test_shift_variables(self):
        expr = parse("x1^2 + x2", ["x1", "x2"])
        shifted = shift_variables(expr, [1.0, -2.0])
        rng = np.random.default_rng(8)
        for point in rng.uniform(-2, 2, size=(10, 2)):
            assert shifted.evaluate(point) == expr.evaluate(point + np.array([1.0, -2.0]))

    def test_zero_shift_identity(self):
        expr = parse("sin(x1)*x2", ["x1", "x2"])
        shifted = shift_variables(expr, [0.0, 0.0])
        assert shifted == expr

    def test_expression_validates_indices(self):
        with pytest.raises(ValueError):
            Expression(root=Var(3), variables=("x1",))
