import itertools

import numpy as np
import pytest

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
from kccdyn.odesys import VectorField, eval_field, jacobian
from kccdyn.stability import analyze_fixed_point, eigenvalues, find_fixed_points

from helpers import assert_complex_multisets_close, network_deviation_tensor


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
        uncoupled = VectorField(components=spec.evolution)
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
        g = AdjacencyGraph.from_edges(2, [(0, 1)])
        from kccdyn.exprdsl import parse
        short = (parse("x1", ["x1", "x2"]),)
        with pytest.raises(ValueError):
            NetworkSpec(graph=g, evolution=short, coupling=short, sigma=1.0)


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
