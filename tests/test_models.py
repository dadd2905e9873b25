import itertools

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kccdyn.exprdsl import parse
from kccdyn.kcc import lift
from kccdyn.models import (
    AdjacencyGraph,
    NetworkSpec,
    builtin_models,
    harmonic_system,
    laplacian,
    lcdm_system,
    network_system,
    parse_graph,
    read_graph,
    translate_to_origin,
)
from kccdyn.odesys import (
    FieldDomainError,
    VectorField,
    _jacobian_hessian_product,
    eval_field,
    field_derivatives,
    jacobian,
)
from kccdyn.stability import analyze_fixed_point, eigenvalues, find_fixed_points

from helpers import assert_complex_multisets_close, network_deviation_tensor, network_tree_field


class TestLcdm:
    def test_origin_is_fixed(self):
        assert np.all(eval_field(lcdm_system(), [0.0, 0.0]) == 0.0)

    def test_jacobian_symbolic_form(self):
        vf = lcdm_system()
        rng = np.random.default_rng(0)
        for x, y in rng.uniform(-2, 2, size=(10, 2)):
            expected = np.array([[-1.0 + 2.0 * x - 3.0 * y, -3.0 * x],
                                 [y, 3.0 + x - 6.0 * y]])
            assert np.allclose(jacobian(vf, [x, y]), expected, atol=1e-13)

    def test_hand_substitution(self):
        # f1 = -0.5 (1 - 0.5 + 0) = -0.25; f2 = (3.5) * 0 = 0
        assert np.array_equal(eval_field(lcdm_system(), [0.5, 0.0]), [-0.25, 0.0])


class TestLaplacian:
    def test_single_edge(self):
        g = AdjacencyGraph.from_edges(2, [(0, 1)])
        L = laplacian(g)
        assert np.array_equal(L, [[1.0, -1.0], [-1.0, 1.0]])
        assert_complex_multisets_close(np.linalg.eigvalsh(L), [0.0, 2.0], 1e-12)

    def test_empty_graph(self):
        assert np.array_equal(laplacian(AdjacencyGraph.from_edges(3, [])), np.zeros((3, 3)))

    def test_triangle(self):
        g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        L = laplacian(g)
        assert np.array_equal(np.diag(L), [2.0, 2.0, 2.0])
        assert np.all(L[~np.eye(3, dtype=bool)] == -1.0)
        assert_complex_multisets_close(np.linalg.eigvalsh(L), [0.0, 3.0, 3.0], 1e-12)

    def test_row_sums_exactly_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            n = int(rng.integers(2, 9))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.uniform() < 0.4]
            L = laplacian(AdjacencyGraph.from_edges(n, edges))
            assert np.all(L.sum(axis=1) == 0.0)
            assert np.array_equal(L, L.T)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdjacencyGraph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError):
            AdjacencyGraph.from_edges(3, [(0, 3)])


class TestGraphFile:
    def test_parse(self):
        g = parse_graph("3\n0 1\n1 2\n")
        assert g.node_count == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_comments_and_blanks(self):
        g = parse_graph("# ring\n2\n\n0 1\n")
        assert g.edges == frozenset({(0, 1)})

    def test_read(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2\n0 1\n")
        assert read_graph(path).node_count == 2

    def test_bad_lines(self):
        with pytest.raises(ValueError):
            parse_graph("")
        with pytest.raises(ValueError):
            parse_graph("x\n")
        with pytest.raises(ValueError):
            parse_graph("2\n0 1 2\n")


class TestNetworkSystem:
    def test_sigma_zero_is_uncoupled(self):
        g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)])
        spec = NetworkSpec.uniform(g, "u - u^3", "sin(u)", sigma=0.0)
        field = network_system(spec)
        uncoupled = VectorField.from_expressions(
            [f"x{i} - x{i}^3" for i in (1, 2, 3)], ["x1", "x2", "x3"])
        rng = np.random.default_rng(2)
        for x in rng.uniform(-2, 2, size=(10, 3)):
            assert np.array_equal(eval_field(field, x), eval_field(uncoupled, x))

    def test_identity_coupling_gives_laplacian(self):
        g = AdjacencyGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        spec = NetworkSpec.uniform(g, "0", "u", sigma=0.7)
        field = network_system(spec)
        L = laplacian(g)
        rng = np.random.default_rng(3)
        for x in rng.uniform(-2, 2, size=(5, 4)):
            assert np.array_equal(jacobian(field, x), -0.7 * L)

    def test_two_node_reference(self):
        # F = -u, H = u, sigma = 1: J = -I - L = [[-2,1],[1,-2]]
        g = AdjacencyGraph.from_edges(2, [(0, 1)])
        spec = NetworkSpec.uniform(g, "-u", "u", sigma=1.0)
        field = network_system(spec)
        J = jacobian(field, [0.0, 0.0])
        assert np.array_equal(J, [[-2.0, 1.0], [1.0, -2.0]])
        assert_complex_multisets_close(eigenvalues(J), [-1.0, -3.0], 1e-9)
        report = analyze_fixed_point(field, [0.0, 0.0])
        assert report.lyapunov_class == "stable-node"
        assert report.jacobi_verdict == "Jacobi-unstable"

    @pytest.mark.parametrize("N", [6, 10, 20, 40])
    @pytest.mark.parametrize("kind", ["ring", "path", "complete"])
    def test_origin_analysis_matches_laplacian_spectrum(self, kind, N):
        # F = u - u^3, H = sin(u): J(0) = I - sigma L, eigenvalues 1 - sigma eig(L)
        k = np.arange(N)
        if kind == "ring":
            edges = [(i, (i + 1) % N) for i in range(N)]
            lap = 2.0 - 2.0 * np.cos(2.0 * np.pi * k / N)
        elif kind == "path":
            edges = [(i, i + 1) for i in range(N - 1)]
            lap = 2.0 - 2.0 * np.cos(np.pi * k / N)
        else:
            edges = list(itertools.combinations(range(N), 2))
            lap = np.where(k == 0, 0.0, float(N))
        spec = NetworkSpec.uniform(AdjacencyGraph.from_edges(N, edges),
                                   "u - u^3", "sin(u)", sigma=0.8)
        report = analyze_fixed_point(network_system(spec), np.zeros(N))
        assert_complex_multisets_close(report.eigenvalues, 1.0 - 0.8 * lap, 1e-9)
        assert report.lyapunov_class == "saddle"
        assert report.jacobi_verdict == "Jacobi-unstable"

    def test_deviation_tensor_matches_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(4):
            n = int(rng.integers(2, 6))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.uniform() < 0.5]
            g = AdjacencyGraph.from_edges(n, edges)
            spec = NetworkSpec.uniform(g, "u - u^3", "sin(u)",
                                       sigma=float(rng.uniform(0.2, 1.5)))
            sode = lift(network_system(spec))
            for _ in range(3):
                x = rng.uniform(-1.5, 1.5, n)
                y = rng.uniform(-1.5, 1.5, n)
                generic = sode.deviation_tensor(x, y)
                closed = network_deviation_tensor(spec, x, y)
                assert np.max(np.abs(generic - closed)) <= 1e-9

    def test_dimension_validation(self):
        # templates are over the one node variable
        g = AdjacencyGraph.from_edges(2, [(0, 1)])
        wide = parse("x1", ["x1", "x2"])
        with pytest.raises(ValueError):
            NetworkSpec(graph=g, evolution=wide, coupling=wide, sigma=1.0)


_LAWS = ["u - u^3", "sin(u)", "u - ln(u)", "u^1.5", "sqrt(u)", "abs(u)"]
_COORDINATE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                        st.floats(-2.0, 2.0, allow_nan=False))


@st.composite
def _networks(draw):
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for p, keep in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    sigma = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-2.0, 2.0, allow_nan=False)))
    spec = NetworkSpec.uniform(AdjacencyGraph.from_edges(n, edges),
                               draw(st.sampled_from(_LAWS)), draw(st.sampled_from(_LAWS)), sigma)
    x = np.array(draw(st.lists(_COORDINATE, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(_COORDINATE, min_size=n, max_size=n)))
    return spec, x, y


def _outcome(call):
    """The bytes of every array returned, or what the domain error names."""
    try:
        out = call()
    except FieldDomainError as err:
        return "error", err.component, err.error.reason, err.error.offset
    return "ok", [np.asarray(a).tobytes() for a in (out if isinstance(out, tuple) else (out,))]


class TestNetworkFieldAgainstOracle:
    """The node-law field against the field of one expression tree per
    component: bit for bit, and the same component, reason and offset in
    its domain errors."""

    @settings(max_examples=100, deadline=None)
    @given(_networks())
    # F fails at node 0 and so does H, which row 0 reads too: F's error wins
    @example((NetworkSpec.uniform(AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)]),
                                  "u - ln(u)", "u^1.5", 1.0),
              np.array([-1.0, 2.0, 1.0]), np.zeros(3)))
    def test_matches_tree_oracle(self, case):
        spec, x, y = case
        field, oracle = network_system(spec), network_tree_field(spec)
        for call in (lambda f: eval_field(f, x), lambda f: jacobian(f, x),
                     lambda f: field_derivatives(f, x),
                     lambda f: _jacobian_hessian_product(f, x, y),
                     lambda f: lift(f).motion_terms(x, y)):
            assert _outcome(lambda: call(field)) == _outcome(lambda: call(oracle))


class TestTranslateToOrigin:
    def test_lcdm_shift_to_attractor(self):
        vf = lcdm_system()
        shifted = translate_to_origin(vf, [0.0, 1.0])
        assert np.max(np.abs(eval_field(shifted, [0.0, 0.0]))) == 0.0
        assert np.allclose(jacobian(shifted, [0.0, 0.0]),
                           [[-4.0, 0.0], [1.0, -3.0]], atol=1e-13)

    def test_zero_shift_identity(self):
        vf = lcdm_system()
        shifted = translate_to_origin(vf, [0.0, 0.0])
        rng = np.random.default_rng(5)
        for x in rng.uniform(-2, 2, size=(10, 2)):
            assert np.array_equal(eval_field(shifted, x), eval_field(vf, x))

    def test_round_trip(self):
        vf = lcdm_system()
        there = translate_to_origin(vf, [0.3, -0.8])
        back = translate_to_origin(there, [-0.3, 0.8])
        rng = np.random.default_rng(6)
        for x in rng.uniform(-2, 2, size=(10, 2)):
            assert np.max(np.abs(eval_field(back, x) - eval_field(vf, x))) <= 1e-12

    def test_stability_invariant_under_translation(self):
        vf = lcdm_system()
        shift = np.array([0.37, -1.22])
        shifted = translate_to_origin(vf, shift)
        for point in ([0.0, 0.0], [0.0, 1.0], [1.0, 0.0]):
            original = analyze_fixed_point(vf, point)
            moved = analyze_fixed_point(shifted, np.asarray(point) - shift)
            assert moved.lyapunov_class == original.lyapunov_class
            assert moved.jacobi_verdict == original.jacobi_verdict
            assert_complex_multisets_close(moved.eigenvalues,
                                           original.eigenvalues, 1e-9)

    def test_network_field_refused(self):
        g = AdjacencyGraph.from_edges(2, [(0, 1)])
        field = network_system(NetworkSpec.uniform(g, "u - u^3", "sin(u)", 0.5))
        with pytest.raises(ValueError, match="network"):
            translate_to_origin(field, [0.0, 0.0])

    def test_translated_fixed_points_found(self):
        vf = translate_to_origin(lcdm_system(), [0.0, 1.0])
        search = find_fixed_points(vf, box=((-1, 1), (-1, 1)), grid=5)
        assert any(np.max(np.abs(p)) <= 1e-8 for p in search.points)


class TestRegistry:
    def test_builtins_present(self):
        registry = builtin_models()
        assert set(registry) == {"lcdm", "harmonic"}
        assert registry["lcdm"].factory().name == "lcdm"
        assert harmonic_system().dimension == 2
