import numpy as np
import pytest

from kccdyn.kcc import Sode, lift
from kccdyn.models import (
    AdjacencyGraph,
    NetworkSpec,
    harmonic_system,
    lcdm_system,
    network_system,
)
from kccdyn.odesys import FieldDomainError, VectorField, jacobian

from helpers import (
    deviation_tensor_lifted,
    fd_deviation_tensor,
    fd_motion_terms,
    fd_p_y,
)


# Symbolic Jacobian of the cosmology benchmark, typed by hand as the oracle.
def _lcdm_jac(x, y):
    return np.array([[-1.0 + 2.0 * x - 3.0 * y, -3.0 * x],
                     [y, 3.0 + x - 6.0 * y]])


class TestLift:
    def test_reference_value(self):
        # hand matrix-vector: -1/2 [[-4,0],[1,-3]] (1,0)^T = (2, -1/2)
        sode = lift(lcdm_system())
        assert np.array_equal(sode.g([0.0, 1.0], [1.0, 0.0]), [2.0, -0.5])

    def test_zero_velocity(self):
        sode = lift(lcdm_system())
        rng = np.random.default_rng(0)
        for x in rng.uniform(-2, 2, size=(5, 2)):
            assert np.all(sode.g(x, [0.0, 0.0]) == 0.0)

    def test_harmonic_pair(self):
        sode = lift(harmonic_system())
        rng = np.random.default_rng(1)
        for x, y in zip(rng.uniform(-2, 2, size=(5, 2)), rng.uniform(-2, 2, size=(5, 2))):
            expected = -0.5 * np.array([y[1], -y[0]])
            assert np.allclose(sode.g(x, y), expected, atol=1e-15)

    def test_linear_in_velocity(self):
        sode = lift(lcdm_system())
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.uniform(-2, 2, 2)
            y1, y2 = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            a, b = rng.uniform(-2, 2, 2)
            lhs = sode.g(x, a * y1 + b * y2)
            rhs = a * sode.g(x, y1) + b * sode.g(x, y2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_time_independent(self):
        sode = lift(lcdm_system())
        x, y = [0.3, 0.4], [0.5, -0.2]
        assert np.array_equal(sode.deviation_tensor(x, y, 0.3),
                              sode.deviation_tensor(x, y, 0.7))


class TestNonlinearConnection:
    def test_reference_value(self):
        sode = lift(lcdm_system())
        N = sode.nonlinear_connection([0.0, 1.0], [0.0, 0.0])
        assert np.array_equal(N, [[2.0, 0.0], [-0.5, 1.5]])

    def test_zero_field(self):
        sode = lift(VectorField.from_expressions(["0", "0"], ["x1", "x2"]))
        assert np.all(sode.nonlinear_connection([1.0, 2.0], [3.0, 4.0]) == 0.0)

    def test_equals_minus_half_jacobian_exactly(self):
        vf = lcdm_system()
        sode = lift(vf)
        rng = np.random.default_rng(3)
        for x, y in zip(rng.uniform(-2, 2, size=(5, 2)), rng.uniform(-2, 2, size=(5, 2))):
            assert np.array_equal(sode.nonlinear_connection(x, y),
                                  -0.5 * jacobian(vf, x))

    def test_quadratic_velocity_sode(self):
        sode = Sode.from_expressions(["y1^2/2"], ["x1"], ["y1"])
        for y in (0.3, -1.7, 2.0):
            N = sode.nonlinear_connection([0.0], [y])
            assert N[0, 0] == pytest.approx(y, abs=1e-14)


class TestBerwald:
    def test_lifted_vanishes(self):
        sode = lift(lcdm_system())
        rng = np.random.default_rng(4)
        for x, y in zip(rng.uniform(-2, 2, size=(5, 2)), rng.uniform(-2, 2, size=(5, 2))):
            assert np.all(sode.berwald(x, y) == 0.0)

    def test_cubic_velocity_sode(self):
        sode = Sode.from_expressions(["y1^3/6"], ["x1"], ["y1"])
        for y in (0.5, -1.2, 2.0):
            B = sode.berwald([0.0], [y])
            assert B[0, 0, 0] == pytest.approx(y, abs=1e-12)

    def test_linear_velocity_sode_vanishes(self):
        sode = Sode.from_expressions(
            ["x1*y1 + 2*y2", "sin(x2)*y1"], ["x1", "x2"], ["y1", "y2"])
        B = sode.berwald([0.4, -0.3], [1.0, 2.0])
        assert np.max(np.abs(B)) == 0.0


class TestFirstInvariant:
    def test_lift_gives_g(self):
        sode = lift(lcdm_system())
        rng = np.random.default_rng(5)
        for x, y in zip(rng.uniform(-2, 2, size=(10, 2)), rng.uniform(-2, 2, size=(10, 2))):
            eps = sode.first_invariant(x, y)
            g = sode.g(x, y)
            assert np.max(np.abs(eps - g)) <= 1e-12 * max(1.0, np.max(np.abs(g)))

    def test_zero_velocity(self):
        sode = lift(lcdm_system())
        assert np.all(sode.first_invariant([0.7, -0.2], [0.0, 0.0]) == 0.0)

    def test_degree_one_homogeneous(self):
        # G linear in y with state-dependent coefficients: N y = G exactly
        sode = Sode.from_expressions(
            ["x1*y1 + y2", "3*y1 - x2*y2"], ["x1", "x2"], ["y1", "y2"])
        rng = np.random.default_rng(6)
        for x, y in zip(rng.uniform(-2, 2, size=(5, 2)), rng.uniform(-2, 2, size=(5, 2))):
            eps = sode.first_invariant(x, y)
            g = sode.g(x, y)
            assert np.max(np.abs(eps - g)) <= 1e-12 * max(1.0, np.max(np.abs(g)))


class TestDeviationTensor:
    def test_lcdm_attractor_quarter_square(self):
        # hand: 1/4 [[-4,0],[1,-3]]^2 = [[4, 0], [-7/4, 9/4]]
        sode = lift(lcdm_system())
        P = sode.deviation_tensor([0.0, 1.0], [0.0, 0.0])
        assert np.allclose(P, [[4.0, 0.0], [-1.75, 2.25]], atol=1e-14)

    def test_harmonic_is_minus_quarter_identity(self):
        # 1/4 [[0,1],[-1,0]]^2 = -1/4 I at every phase point
        sode = lift(harmonic_system())
        rng = np.random.default_rng(7)
        for x, y in zip(rng.uniform(-2, 2, size=(5, 2)), rng.uniform(-2, 2, size=(5, 2))):
            P = sode.deviation_tensor(x, y)
            assert np.allclose(P, [[-0.25, 0.0], [0.0, -0.25]], atol=1e-14)

    def test_zero_velocity_quarter_jacobian_square(self):
        sode = lift(lcdm_system())
        rng = np.random.default_rng(8)
        for x in rng.uniform(-2, 2, size=(10, 2)):
            J = _lcdm_jac(*x)
            P = sode.deviation_tensor(x, [0.0, 0.0])
            assert np.max(np.abs(P - 0.25 * (J @ J))) <= 1e-12 * max(1.0, np.max(np.abs(P)))

    def test_closed_form_cross_check_example(self):
        # both routes at x = (0,0), y = (1,1); value derived by hand:
        # 1/2 [[-1,-3],[1,-5]] + 1/4 [[1,0],[0,9]] = [[-0.25,-1.5],[0.5,-0.25]]
        vf = lcdm_system()
        generic = lift(vf).deviation_tensor([0.0, 0.0], [1.0, 1.0])
        closed = deviation_tensor_lifted(vf, [0.0, 0.0], [1.0, 1.0])
        expected = np.array([[-0.25, -1.5], [0.5, -0.25]])
        assert np.allclose(generic, expected, atol=1e-13)
        assert np.allclose(closed, expected, atol=1e-13)

    def test_lift_consistency_random(self):
        rng = np.random.default_rng(9)
        for vf in (lcdm_system(), harmonic_system()):
            sode = lift(vf)
            for x, y in zip(rng.uniform(-2, 2, size=(50, 2)),
                            rng.uniform(-2, 2, size=(50, 2))):
                a = sode.deviation_tensor(x, y)
                b = deviation_tensor_lifted(vf, x, y)
                assert np.max(np.abs(a - b)) <= 1e-9

    def test_linear_field_constant(self):
        A = np.array([[0.3, -1.1], [0.8, 0.4]])
        vf = VectorField.from_expressions(
            ["0.3*x1 - 1.1*x2", "0.8*x1 + 0.4*x2"], ["x1", "x2"])
        rng = np.random.default_rng(10)
        for x, y in zip(rng.uniform(-2, 2, size=(5, 2)), rng.uniform(-2, 2, size=(5, 2))):
            P = deviation_tensor_lifted(vf, x, y)
            assert np.allclose(P, 0.25 * (A @ A), atol=1e-15)

    def test_time_dependent_expression_sode(self):
        # G = t y: N = t, dN/dt = 1, everything else zero: P = t^2 + 1
        sode = Sode.from_expressions(["t*y1"], ["x1"], ["y1"], time_var="t")
        for t in (0.0, 0.5, 2.0):
            P = sode.deviation_tensor([0.0], [0.7], t)
            assert P[0, 0] == pytest.approx(t * t + 1.0, abs=1e-12)

    def test_callable_matches_expression_backend(self):
        expr_sode = Sode.from_expressions(
            ["x2*y1^2 - x1*y2", "y1*y2 + x1^2"], ["x1", "x2"], ["y1", "y2"])

        def g(x, y, t):
            return np.array([x[1] * y[0] ** 2 - x[0] * y[1],
                             y[0] * y[1] + x[0] ** 2])

        rng = np.random.default_rng(11)
        for x, y in zip(rng.uniform(-1.5, 1.5, size=(5, 2)),
                        rng.uniform(-1.5, 1.5, size=(5, 2))):
            a = expr_sode.deviation_tensor(x, y)
            b = fd_deviation_tensor(g, x, y)
            assert np.max(np.abs(a - b)) <= 1e-5


class TestMotionTerms:
    def test_lifted_matches_assembled_pieces(self):
        # The lifted system reads J and H y straight from the compiled
        # kernels; the generic route assembles them from the Hessian stack.
        ring = AdjacencyGraph.from_edges(5, [(k, (k + 1) % 5) for k in range(5)])
        network = network_system(NetworkSpec.uniform(ring, "u - u^3", "sin(u)", 0.8))
        rng = np.random.default_rng(13)
        for vf in (lcdm_system(), harmonic_system(), network):
            sode = lift(vf)
            n = vf.dimension
            for x, y in zip(rng.uniform(-1.5, 1.5, size=(5, n)),
                            rng.uniform(-1.5, 1.5, size=(5, n))):
                g, N, g_x = sode.motion_terms(x, y)
                pieces = sode._pieces(x, y, 0.0)
                assert np.array_equal(g, pieces.g)
                assert np.array_equal(N, pieces.N)
                assert np.allclose(g_x, pieces.g_x, rtol=1e-14, atol=1e-15)

    def test_lifted_domain_error_names_component(self):
        sode = lift(VectorField.from_expressions(["x2", "1/x1"], ["x1", "x2"]))
        with pytest.raises(FieldDomainError) as info:
            sode.motion_terms([0.0, 1.0], [1.0, 0.0])
        assert info.value.component == 1
        assert info.value.error.fragment == "1/x1"

    def test_callable_matches_expression_backend(self):
        expr_sode = Sode.from_expressions(
            ["x2*y1^2 - x1*y2", "y1*y2 + x1^2"], ["x1", "x2"], ["y1", "y2"])

        def g(x, y, t):
            return np.array([x[1] * y[0] ** 2 - x[0] * y[1],
                             y[0] * y[1] + x[0] ** 2])

        x, y = np.array([0.4, -0.7]), np.array([1.1, 0.3])
        for a, b in zip(expr_sode.motion_terms(x, y), fd_motion_terms(g, x, y)):
            assert np.max(np.abs(a - b)) <= 1e-8


class TestHigherInvariants:
    def test_lifted_all_vanish(self):
        rng = np.random.default_rng(12)
        for vf in (lcdm_system(), harmonic_system()):
            sode = lift(vf)
            for x, y in zip(rng.uniform(-2, 2, size=(5, 2)),
                            rng.uniform(-2, 2, size=(5, 2))):
                p3, p4, douglas = sode.higher_invariants(x, y)
                assert np.max(np.abs(p3)) <= 1e-9
                assert np.max(np.abs(p4)) <= 1e-9
                assert np.max(np.abs(douglas)) <= 1e-9

    def test_velocity_free_sode_all_vanish(self):
        sode = Sode.from_expressions(
            ["sin(x1) + x2", "x1*x2"], ["x1", "x2"], ["y1", "y2"])
        p3, p4, douglas = sode.higher_invariants([0.4, -0.9], [1.0, 2.0])
        assert np.max(np.abs(p3)) == 0.0
        assert np.max(np.abs(p4)) == 0.0
        assert np.max(np.abs(douglas)) == 0.0

    def test_cubic_douglas(self):
        sode = Sode.from_expressions(["y1^3/6"], ["x1"], ["y1"])
        _, _, douglas = sode.higher_invariants([0.0], [0.9])
        assert douglas[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_p3_antisymmetry(self):
        sode = Sode.from_expressions(
            ["x1*y1^2*y2", "sin(y1) + x2*y2^3"], ["x1", "x2"], ["y1", "y2"])
        rng = np.random.default_rng(13)
        for x, y in zip(rng.uniform(-1.5, 1.5, size=(5, 2)),
                        rng.uniform(-1.5, 1.5, size=(5, 2))):
            p3, _, _ = sode.higher_invariants(x, y)
            assert np.max(np.abs(p3 + p3.transpose(0, 2, 1))) <= 1e-9

    def test_p_y_routes_agree(self):
        # term-by-term dP/dy against plain differences over the assembled P
        sode = Sode.from_expressions(
            ["x1*y1^2*y2", "sin(y1) + x2*y2^3"], ["x1", "x2"], ["y1", "y2"])
        rng = np.random.default_rng(14)
        for x, y in zip(rng.uniform(-1.5, 1.5, size=(5, 2)),
                        rng.uniform(-1.5, 1.5, size=(5, 2))):
            exact = sode._p_y(x, y, 0.0)
            differenced = fd_p_y(sode, x, y, 0.0)
            assert np.max(np.abs(exact - differenced)) <= 1e-7


class TestInvariantsBundle:
    def test_trace_is_exact_diagonal_sum(self):
        sode = lift(lcdm_system())
        inv = sode.invariants([0.2, 0.4], [0.6, -0.1])
        assert inv.trace_P == float(inv.P[0, 0] + inv.P[1, 1])

    def test_phase_point_recorded(self):
        sode = lift(lcdm_system())
        inv = sode.invariants([0.2, 0.4], [0.6, -0.1], 1.5)
        assert np.array_equal(inv.at[0], [0.2, 0.4])
        assert np.array_equal(inv.at[1], [0.6, -0.1])
        assert inv.at[2] == 1.5

    def test_epsilon_zero_at_rest(self):
        sode = lift(lcdm_system())
        inv = sode.invariants([0.0, 1.0], [0.0, 0.0])
        assert np.all(inv.epsilon == 0.0)
        assert np.array_equal(inv.N, [[2.0, 0.0], [-0.5, 1.5]])


class TestValidation:
    def test_phase_shape_checked(self):
        sode = lift(lcdm_system())
        with pytest.raises(ValueError):
            sode.g([0.0], [0.0, 0.0])

    def test_expression_sode_needs_square(self):
        with pytest.raises(ValueError):
            Sode.from_expressions(["y1", "y2"], ["x1"], ["y1"])
