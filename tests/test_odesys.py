import pickle

import numpy as np
import pytest

from kccdyn.cli import load_definition
from kccdyn.exprdsl import BinOp, Call, DomainError, Expression, Num, Var
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
    jacobian,
)

from helpers import fd_gradient, network_tree_field


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
        assert np.allclose(jacobian(vf, [0.0, 1.0]),
                           [[-4.0, 0.0], [1.0, -3.0]], atol=0.0)
        assert np.allclose(jacobian(vf, [0.0, 0.0]),
                           [[-1.0, 0.0], [0.0, 3.0]], atol=0.0)

    def test_linear_field_constant(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 3))
        vf = _linear_field(A)
        for point in rng.uniform(-2, 2, size=(5, 3)):
            assert np.array_equal(jacobian(vf, point), A)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(2)
        for vf in (lcdm_system(), harmonic_system()):
            for point in rng.uniform(-2, 2, size=(10, 2)):
                jac = jacobian(vf, point)
                for i, comp in enumerate(vf.components):
                    fd = fd_gradient(comp.evaluate, point)
                    scale = max(1.0, float(np.max(np.abs(jac[i]))))
                    assert np.max(np.abs(jac[i] - fd)) <= 1e-5 * scale


class TestHessians:
    def test_lcdm_constant_hessians(self):
        vf = lcdm_system()
        rng = np.random.default_rng(3)
        for point in rng.uniform(-2, 2, size=(5, 2)):
            h1, h2 = field_derivatives(vf, point)[2]
            assert np.array_equal(h1, [[2.0, -3.0], [-3.0, 0.0]])
            assert np.array_equal(h2, [[0.0, 1.0], [1.0, -6.0]])

    def test_linear_field_zero_hessians(self):
        rng = np.random.default_rng(4)
        vf = _linear_field(rng.standard_normal((2, 2)))
        for h in field_derivatives(vf, [0.4, -1.3])[2]:
            assert np.array_equal(h, np.zeros((2, 2)))

    def test_exact_symmetry(self):
        vf = VectorField.from_expressions(
            ["sin(x1*x2)*x3", "exp(x1)*x2^2", "x3^3/(2 + x1^2)"],
            ["x1", "x2", "x3"])
        rng = np.random.default_rng(5)
        for point in rng.uniform(-1.5, 1.5, size=(5, 3)):
            for h in field_derivatives(vf, point)[2]:
                assert np.array_equal(h, h.T)

    def test_shared_sweep_consistency(self):
        # every entry must be exactly where each component's own derivative
        # kernel puts it, and the error must name the component that fails;
        # a network's components are those of its tree oracle, whose error
        # fragments name x_i where the network's name its template's u
        fields = {"lcdm": lcdm_system(),
                  "ring-40": _network("ring", 40),
                  "path-40": _network("path", 40),
                  "ring-10-ln": _network("ring", 10, evolution="ln(u) - u^1.5",
                                         coupling="u^1.5")}
        rng = np.random.default_rng(6)
        for name, vf in fields.items():
            components = (vf.components if isinstance(vf, VectorField)
                          else network_tree_field(vf.spec).components)
            n = vf.dimension
            failures = 0
            for point in rng.uniform(0.1, 0.9, size=(3, n)):
                values, jac, hess = field_derivatives(vf, point)
                assert hess.shape == (n, n, n)
                assert _same_bits(jac, jacobian(vf, point))
                # one emitter: the value kernels compute the same floats
                assert _same_bits(values, eval_field(vf, point))
                for i, comp in enumerate(components):
                    value, grad, h = comp.with_derivatives(point)
                    assert _same_bits(value, values[i])
                    assert _same_bits(grad, jac[i])
                    assert _same_bits(h, hess[i])
                bad = point.copy()
                bad[rng.integers(n)] *= -1.0
                expected = None
                for i, comp in enumerate(components):
                    try:
                        comp.with_derivatives(bad)
                    except DomainError as err:
                        expected = (i, err.reason, err.offset)
                        break
                if expected is None:
                    field_derivatives(vf, bad)
                    continue
                failures += 1
                with pytest.raises(FieldDomainError) as info:
                    field_derivatives(vf, bad)
                err = info.value.error
                assert (info.value.component, err.reason, err.offset) == expected
            assert failures == (3 if name == "ring-10-ln" else 0), name


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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


class TestSharedShapes:
    """Fields whose components share a shape, as the nodes of a network
    share one law: values, signs of zero and domain errors stay each
    component's own."""

    @pytest.mark.parametrize("kind", ["ring", "path"])
    def test_forty_nodes_compile_three_shapes(self, kind):
        vf = _network(kind, 40)
        spec = NetworkSpec.uniform(_graph(kind, 40), "u - u^3", "sin(u)", 0.3)
        alone = network_tree_field(spec).components
        x = np.random.default_rng(7).uniform(-0.5, 0.5, 40)
        assert np.array_equal(eval_field(vf, x), [e.evaluate(x) for e in alone])
        _, jac, hess = field_derivatives(vf, x)
        assert np.array_equal(jacobian(vf, x), jac)
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
        x = np.linspace(-0.4, 0.3, 6)
        assert np.array_equal(jacobian(first, x), jacobian(second, x))
        # no kernel outlives its definition: nothing is cached across loads
        for template in ("evolution", "coupling"):
            kernels = (getattr(f.spec, template)._kernels for f in (first, second))
            assert len({id(k.derivatives) for k in kernels}) == 2

    def test_domain_errors_name_their_own_component(self):
        # component i is x_i - ln(x_i) - sigma sum_r L_ir x_r; the ln at
        # offset 4 of the template
        vf = _network("path", 5, evolution="u - ln(u)", coupling="u")
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
                    "ln of a non-positive value", 4, "ln(u)")

    def test_offsets_are_part_of_the_shape(self):
        vf = VectorField.from_expressions(["ln(x1)", "ln(x2)", "  ln(x3)"],
                                          ["x1", "x2", "x3"])
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
        values = eval_field(vf, [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(values, [2.0, 4.0, 0.0, 0.0])
        assert np.array_equal(np.signbit(values), [False, False, False, True])

    def test_variable_order_is_part_of_the_shape(self):
        # the same tree with its variables swapped, and two trees that place
        # their variables in the same order
        vf = VectorField.from_expressions(["x1 - x2", "x2 - x1", "x1*x3", "x2*x3"],
                                          ["x1", "x2", "x3", "x4"])
        x = np.array([1.0, 4.0, 2.0, 8.0])
        assert np.array_equal(eval_field(vf, x), [-3.0, 3.0, 2.0, 8.0])
        assert np.array_equal(jacobian(vf, x), [[1.0, -1.0, 0.0, 0.0],
                                                        [-1.0, 1.0, 0.0, 0.0],
                                                        [2.0, 0.0, 1.0, 0.0],
                                                        [0.0, 2.0, 4.0, 0.0]])

    def test_pickles_after_compiling(self):
        vf = _network("ring", 6)
        x = np.linspace(-0.2, 0.2, 6)
        before = jacobian(vf, x)
        again = pickle.loads(pickle.dumps(vf))
        assert again == vf
        assert np.array_equal(jacobian(again, x), before)
