import pickle

import numpy as np
import pytest

from kccdyn.cli import load_definition
from kccdyn.exprdsl import BinOp, Call, Expression, Num, Var
from kccdyn.kcc import lift
from kccdyn.models import (
    AdjacencyGraph,
    NetworkSpec,
    harmonic_system,
    laplacian,
    lcdm_system,
    network_system,
)
from kccdyn.odesys import (
    FieldDomainError,
    VectorField,
    eval_field,
    field_derivatives,
    hessians,
    jacobian,
)

from helpers import fd_gradient


def _linear_field(A, name=""):
    n = A.shape[0]
    names = [f"x{i + 1}" for i in range(n)]
    sources = []
    for row in A:
        terms = [f"({repr(float(c))})*{names[j]}" for j, c in enumerate(row)]
        sources.append(" + ".join(terms))
    return VectorField.from_expressions(sources, names, name=name)


class TestEvalField:
    def test_lcdm_fixed_points(self):
        vf = lcdm_system()
        assert np.all(eval_field(vf, [0.0, 1.0]) == 0.0)
        assert np.all(eval_field(vf, [1.0, 0.0]) == 0.0)
        assert np.all(eval_field(vf, [0.0, 0.0]) == 0.0)

    def test_lcdm_generic_point(self):
        # hand substitution: (-0.5*(1 - 0.5), (3 + 0.5)*0) -> (-0.25, 0)...
        # at (1/2, 0): f1 = -0.5*(1 - 0.5 + 0) = -0.25, f2 = (3.5)*0 = 0
        assert np.array_equal(eval_field(lcdm_system(), [0.5, 0.0]), [-0.25, 0.0])

    def test_zero_field(self):
        vf = VectorField.from_expressions(["0", "0"], ["x1", "x2"])
        rng = np.random.default_rng(0)
        for point in rng.uniform(-3, 3, size=(5, 2)):
            assert np.all(eval_field(vf, point) == 0.0)

    def test_wrong_state_shape(self):
        with pytest.raises(ValueError):
            eval_field(lcdm_system(), [1.0, 2.0, 3.0])

    def test_domain_error_carries_component(self):
        vf = VectorField.from_expressions(["x1", "1/x2"], ["x1", "x2"])
        with pytest.raises(FieldDomainError) as info:
            eval_field(vf, [1.0, 0.0])
        assert info.value.component == 1


class TestJacobian:
    def test_lcdm_reference_points(self):
        vf = lcdm_system()
        assert np.allclose(jacobian(vf, [0.0, 1.0]).entries,
                           [[-4.0, 0.0], [1.0, -3.0]], atol=0.0)
        assert np.allclose(jacobian(vf, [0.0, 0.0]).entries,
                           [[-1.0, 0.0], [0.0, 3.0]], atol=0.0)

    def test_linear_field_constant(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 3))
        vf = _linear_field(A)
        for point in rng.uniform(-2, 2, size=(5, 3)):
            assert np.array_equal(jacobian(vf, point).entries, A)

    def test_records_evaluation_point(self):
        jm = jacobian(lcdm_system(), [0.25, 0.75])
        assert np.array_equal(jm.evaluated_at, [0.25, 0.75])

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(2)
        for vf in (lcdm_system(), harmonic_system()):
            for point in rng.uniform(-2, 2, size=(10, 2)):
                jac = jacobian(vf, point).entries
                for i, comp in enumerate(vf.components):
                    fd = fd_gradient(comp.evaluate, point)
                    scale = max(1.0, float(np.max(np.abs(jac[i]))))
                    assert np.max(np.abs(jac[i] - fd)) <= 1e-5 * scale


class TestHessians:
    def test_lcdm_constant_hessians(self):
        vf = lcdm_system()
        rng = np.random.default_rng(3)
        for point in rng.uniform(-2, 2, size=(5, 2)):
            h1, h2 = hessians(vf, point)
            assert np.array_equal(h1, [[2.0, -3.0], [-3.0, 0.0]])
            assert np.array_equal(h2, [[0.0, 1.0], [1.0, -6.0]])

    def test_linear_field_zero_hessians(self):
        rng = np.random.default_rng(4)
        vf = _linear_field(rng.standard_normal((2, 2)))
        for h in hessians(vf, [0.4, -1.3]):
            assert np.array_equal(h, np.zeros((2, 2)))

    def test_exact_symmetry(self):
        vf = VectorField.from_expressions(
            ["sin(x1*x2)*x3", "exp(x1)*x2^2", "x3^3/(2 + x1^2)"],
            ["x1", "x2", "x3"])
        rng = np.random.default_rng(5)
        for point in rng.uniform(-1.5, 1.5, size=(5, 3)):
            for h in hessians(vf, point):
                assert np.array_equal(h, h.T)

    def test_shared_sweep_consistency(self):
        vf = lcdm_system()
        point = [0.3, 0.6]
        values, jac, hess = field_derivatives(vf, point)
        assert np.array_equal(values, eval_field(vf, point))
        assert np.array_equal(jac, jacobian(vf, point).entries)
        assert all(np.array_equal(a, b) for a, b in zip(hess, hessians(vf, point)))


class TestValidation:
    def test_mismatched_variables(self):
        from kccdyn.exprdsl import parse
        a = parse("x1", ["x1", "x2"])
        b = parse("u1", ["u1", "u2"])
        with pytest.raises(ValueError):
            VectorField(components=(a, b))

    def test_non_square_rejected(self):
        from kccdyn.exprdsl import parse
        a = parse("x1", ["x1", "x2"])
        with pytest.raises(ValueError):
            VectorField(components=(a,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VectorField(components=())


def _graph(kind, n):
    edges = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if kind == "ring" else [])
    return AdjacencyGraph.from_edges(n, edges)


def _network(kind, n, evolution="u - u^3", coupling="sin(u)", sigma=0.3):
    return network_system(NetworkSpec.uniform(_graph(kind, n), evolution, coupling, sigma))


def _code_objects(vf):
    """Identities of the distinct code objects of the field's value and
    derivative kernels (code objects compare equal by content)."""
    kernels = vf._kernels
    return ({id(k.value.__code__) for k in kernels},
            {id(k.derivatives.__code__) for k in kernels})


class TestSharedShapes:
    """Components equal up to an order-preserving renaming share compiled
    code; each keeps its own variables and error fragments."""

    @pytest.mark.parametrize("kind", ["ring", "path"])
    def test_forty_nodes_compile_three_shapes(self, kind):
        vf = _network(kind, 40)
        values, derivatives = _code_objects(vf)
        # first node, inner nodes, last node
        assert len(values) == 3
        assert len(derivatives) == 3
        alone = [Expression(comp.root, comp.variables) for comp in vf.components]
        x = np.random.default_rng(7).uniform(-0.5, 0.5, 40)
        assert np.array_equal(eval_field(vf, x), [e.evaluate(x) for e in alone])
        _, jac, hess = field_derivatives(vf, x)
        assert np.array_equal(jacobian(vf, x).entries, jac)
        for comp, h, expr in zip(jac, hess, alone):
            _, grad, expected = expr.with_derivatives(x)
            assert np.array_equal(comp, grad)
            assert np.array_equal(h, expected)
        L = laplacian(_graph(kind, 40))
        closed = x - x ** 3 - 0.3 * (L @ np.sin(x))
        assert np.allclose(eval_field(vf, x), closed, rtol=0, atol=1e-14)
        closed_jac = np.diag(1.0 - 3.0 * x ** 2) - 0.3 * L * np.cos(x)
        assert np.allclose(jac, closed_jac, rtol=0, atol=1e-14)

    def test_each_definition_load_compiles_its_own(self, tmp_path):
        graph = tmp_path / "ring.txt"
        graph.write_text("6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        ini = tmp_path / "ring.ini"
        ini.write_text(f"[system]\nname = ring\nmodel = network\ngraph = {graph}\n"
                       "evolution = u - u^3\ncoupling = sin(u)\nsigma = 0.3\n")
        first, second = (load_definition(str(ini)).field for _ in range(2))
        (v1, d1), (v2, d2) = _code_objects(first), _code_objects(second)
        assert len(v1) == len(v2) == 3
        assert not v1 & v2
        assert not d1 & d2

    def test_domain_errors_name_their_own_component(self):
        # component i is x_i - ln(x_i) - sigma sum_r L_ir x_r: one shape for
        # the inner nodes, the ln at offset 4 of the template
        vf = _network("path", 5, evolution="u - ln(u)", coupling="u")
        assert len(_code_objects(vf)[0]) == 3
        sode = lift(vf)
        for k in range(5):
            x = np.ones(5)
            x[k] = -1.0
            calls = [lambda: eval_field(vf, x), lambda: jacobian(vf, x),
                     lambda: field_derivatives(vf, x), lambda: sode.motion_terms(x, x)]
            for call in calls:
                with pytest.raises(FieldDomainError) as info:
                    call()
                err = info.value.error
                assert info.value.component == k
                assert (err.reason, err.offset, err.fragment) == (
                    "ln of a non-positive value", 4, f"ln(x{k + 1})")

    def test_offsets_are_part_of_the_shape(self):
        vf = VectorField.from_expressions(["ln(x1)", "ln(x2)", "  ln(x3)"],
                                          ["x1", "x2", "x3"])
        values, derivatives = _code_objects(vf)
        assert len(values) == len(derivatives) == 2
        for k, offset in enumerate([0, 0, 2]):
            x = np.ones(3)
            x[k] = 0.0
            with pytest.raises(FieldDomainError) as info:
                eval_field(vf, x)
            assert info.value.component == k
            assert (info.value.error.offset, info.value.error.fragment) == (
                offset, f"ln(x{k + 1})")

    def test_call_offsets_are_part_of_the_shape(self):
        # argument offsets equal, call offsets not
        names = ("x1", "x2")
        vf = VectorField(tuple(Expression(Call("ln", Var(k, offset=3), offset=offset), names)
                               for k, offset in enumerate([0, 7])))
        assert len(_code_objects(vf)[0]) == 2
        for k, offset in enumerate([0, 7]):
            x = np.ones(2)
            x[k] = -1.0
            with pytest.raises(FieldDomainError) as info:
                eval_field(vf, x)
            assert (info.value.error.offset, info.value.error.fragment) == (
                offset, f"ln(x{k + 1})")

    def test_literal_values_are_part_of_the_shape(self):
        names = ("x1", "x2", "x3", "x4")
        vf = VectorField(tuple(Expression(BinOp("*", Num(c), Var(k)), names)
                               for k, c in enumerate([2.0, 2.0, 0.0, -0.0])))
        assert len(_code_objects(vf)[0]) == 3
        values = eval_field(vf, [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(values, [2.0, 4.0, 0.0, 0.0])
        assert np.array_equal(np.signbit(values), [False, False, False, True])

    def test_variable_order_is_part_of_the_shape(self):
        # the same tree with its variables in swapped order is another shape;
        # x1*x3 and x2*x3 place their variables in the same order
        vf = VectorField.from_expressions(["x1 - x2", "x2 - x1", "x1*x3", "x2*x3"],
                                          ["x1", "x2", "x3", "x4"])
        values, derivatives = _code_objects(vf)
        assert len(values) == len(derivatives) == 3
        x = np.array([1.0, 4.0, 2.0, 8.0])
        assert np.array_equal(eval_field(vf, x), [-3.0, 3.0, 2.0, 8.0])
        assert np.array_equal(jacobian(vf, x).entries, [[1.0, -1.0, 0.0, 0.0],
                                                        [-1.0, 1.0, 0.0, 0.0],
                                                        [2.0, 0.0, 1.0, 0.0],
                                                        [0.0, 2.0, 4.0, 0.0]])

    def test_pickles_after_compiling(self):
        vf = _network("ring", 6)
        x = np.linspace(-0.2, 0.2, 6)
        before = jacobian(vf, x).entries
        again = pickle.loads(pickle.dumps(vf))
        assert again == vf
        assert np.array_equal(jacobian(again, x).entries, before)
