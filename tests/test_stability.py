import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kccdyn import stability
from kccdyn.exprdsl import BinOp, Expression, Num, Var
from kccdyn.models import AdjacencyGraph, NetworkSpec, lcdm_system, network_system
from kccdyn.odesys import VectorField, jacobian
from kccdyn.stability import (
    CharPoly,
    NotAFixedPointError,
    RootConvergenceError,
    analyze_fixed_point,
    characteristic_polynomial,
    descartes_bound,
    eigenvalues,
    find_fixed_points,
    hurwitz_determinants,
    hurwitz_matrix,
    is_hurwitz_stable,
    jacobi_classify,
    lyapunov_classify,
)

from helpers import assert_complex_multisets_close, hurwitz_minors_exact


def _poly(*coeffs):
    return CharPoly(np.asarray(coeffs, dtype=float))


def _linear_field(A):
    n = A.shape[0]
    names = tuple(f"x{i + 1}" for i in range(n))
    comps = []
    for row in A:
        root = None
        for j, c in enumerate(row):
            term = BinOp("*", Num(float(c)), Var(j))
            root = term if root is None else BinOp("+", root, term)
        comps.append(Expression(root=root, variables=names))
    return VectorField(components=tuple(comps))


class TestCharacteristicPolynomial:
    def test_diagonal(self):
        p = characteristic_polynomial(np.diag([2.0, 3.0]))
        assert np.array_equal(p.coefficients, [1.0, -5.0, 6.0])

    def test_triangular_reference(self):
        # hand: trace -7, det 12
        p = characteristic_polynomial([[-4.0, 0.0], [1.0, -3.0]])
        assert np.array_equal(p.coefficients, [1.0, 7.0, 12.0])

    def test_three_by_three_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = rng.standard_normal((3, 3))
            p = characteristic_polynomial(A)
            tr = np.trace(A)
            closed = np.array([
                1.0,
                -tr,
                0.5 * (tr * tr - np.trace(A @ A)),
                -np.linalg.det(A),
            ])
            assert np.max(np.abs(p.coefficients - closed)) <= 1e-12 * max(
                1.0, np.max(np.abs(closed)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            characteristic_polynomial(np.ones((2, 3)))

    def test_monic_required(self):
        with pytest.raises(ValueError):
            _poly(2.0, 1.0)


class TestEigenvalues:
    def test_rotation_generator(self):
        assert_complex_multisets_close(eigenvalues([[0.0, 1.0], [-1.0, 0.0]]),
                                       [1j, -1j], 1e-12)

    def test_triangular(self):
        assert_complex_multisets_close(eigenvalues([[-4.0, 0.0], [1.0, -3.0]]),
                                       [-4.0, -3.0], 1e-9)

    def test_diagonal_saddle(self):
        assert_complex_multisets_close(eigenvalues(np.diag([-1.0, 3.0])),
                                       [-1.0, 3.0], 1e-12)

    def test_double_root(self):
        assert_complex_multisets_close(eigenvalues(np.diag([2.0, 2.0])),
                                       [2.0, 2.0], 1e-6)

    def test_exact_zero_roots_stripped(self):
        A = np.zeros((3, 3))
        A[2, 2] = 1.0
        roots = eigenvalues(A)
        assert roots.count(0j) == 2
        assert_complex_multisets_close(roots, [0.0, 0.0, 1.0], 1e-12)

    def test_conjugate_pairing(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            eigs = eigenvalues(rng.standard_normal((n, n)))
            complex_part = [z for z in eigs if abs(z.imag) > 1e-9]
            conjugates = [z.conjugate() for z in complex_part]
            assert_complex_multisets_close(complex_part, conjugates, 1e-9)

    def test_residual_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            A = rng.standard_normal((n, n))
            p = characteristic_polynomial(A)
            for lam in eigenvalues(A):
                assert abs(np.polyval(p.coefficients, lam)) <= 1e-7 * (1.0 + abs(lam) ** n)

    @pytest.mark.parametrize("A", [
        [[1.0, np.nan], [0.0, 1.0]],
        [[1.0, 0.0], [np.inf, 1.0]],
        # finite entries, but the eigenvalue 2e308 overflows to inf
        [[1e308, 1e308], [1e308, 1e308]],
    ])
    def test_non_finite_raises(self, A):
        with pytest.raises(RootConvergenceError):
            eigenvalues(np.array(A))

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            A = rng.standard_normal((n, n))
            assert_complex_multisets_close(eigenvalues(A), np.linalg.eigvals(A), 1e-7)


class TestHurwitz:
    def test_quadratic_by_hand(self):
        # D1 = 3, D2 = |3 0; 1 2| = 6
        p = _poly(1, 3, 2)
        assert np.array_equal(hurwitz_determinants(p), [3.0, 6.0])
        assert is_hurwitz_stable(p)

    def test_lcdm_attractor_polynomial(self):
        p = _poly(1, 7, 12)
        assert np.array_equal(hurwitz_determinants(p), [7.0, 84.0])
        assert is_hurwitz_stable(p)

    def test_negative_middle_coefficient(self):
        p = _poly(1, -1, 1)
        assert hurwitz_determinants(p)[0] == -1.0
        assert not is_hurwitz_stable(p)

    def test_quartic_matrix_pattern(self):
        p = _poly(1, 2, 3, 4, 5)
        expected = np.array([
            [2.0, 4.0, 0.0, 0.0],
            [1.0, 3.0, 5.0, 0.0],
            [0.0, 2.0, 4.0, 0.0],
            [0.0, 1.0, 3.0, 5.0],
        ])
        assert np.array_equal(hurwitz_matrix(p), expected)

    def test_agrees_with_roots(self):
        rng = np.random.default_rng(4)
        for _ in range(150):
            coeffs, roots = _random_real_polynomial(rng)
            if min(abs(r.real) for r in roots) <= 1e-6:
                continue
            truth = all(r.real < 0 for r in roots)
            assert is_hurwitz_stable(CharPoly(coeffs)) == truth


def _same_floats(got, expected) -> bool:
    """Equal to the bit: the sign of a zero counts, and NaN matches NaN."""
    return [repr(float(v)) for v in got] == [repr(float(v)) for v in expected]


_DYADIC = st.one_of(
    st.just(0.0),
    st.integers(-4, 4).map(float),
    st.builds(math.ldexp, st.integers(-(2 ** 53) + 1, 2 ** 53 - 1), st.integers(-80, 80)),
)


@st.composite
def _sparse_polynomials(draw):
    """Integer and dyadic coefficients, biased towards exact zeros: every odd
    coefficient, a_1 alone, or one interior coefficient."""
    n = draw(st.integers(1, 10))
    coeffs = [1.0] + draw(st.lists(_DYADIC, min_size=n, max_size=n))
    zeros = draw(st.sampled_from(["odd", "a1", "interior", "drawn"]))
    if zeros == "odd":
        coeffs[1::2] = [0.0] * len(coeffs[1::2])
    elif zeros == "a1":
        coeffs[1] = 0.0
    elif zeros == "interior" and n >= 2:
        coeffs[draw(st.integers(1, n - 1))] = 0.0
    return coeffs


class TestHurwitzExact:
    """The Routh pass against one exact rational elimination per minor
    (tests/helpers.py): the same correctly rounded floats."""

    @pytest.mark.parametrize("coeffs", [
        (1, 0, 2, 0, 1),            # D1 = a1 = 0: zero pivot at once
        (1, 1, 1, 1, 0, 0, 1),
        (1, 2, 4, 8, 16, 32),       # singular minors from proportional rows
        (1, 0, 0, 0, 0, 0, 0, 1),
        (1, -3, 0, 2, 0, -1e-300, 5),
        (1, 0, 5, 0, 4),            # odd coefficients 0: row 1 of H is zero
    ])
    def test_minors_with_zero_pivots(self, coeffs):
        assert _same_floats(hurwitz_determinants(_poly(*coeffs)), hurwitz_minors_exact(coeffs))

    def test_random_real_polynomials(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            coeffs, _ = _random_real_polynomial(rng, max_degree=10)
            assert _same_floats(hurwitz_determinants(CharPoly(coeffs)),
                                hurwitz_minors_exact(coeffs)), coeffs

    @settings(max_examples=100, deadline=None)
    @given(_sparse_polynomials())
    def test_integer_and_dyadic_polynomials(self, coeffs):
        assert _same_floats(hurwitz_determinants(CharPoly(coeffs)), hurwitz_minors_exact(coeffs))

    @pytest.mark.parametrize("n", [10, 20])
    @pytest.mark.parametrize("kind", ["ring", "path", "complete"])
    def test_network_origins(self, kind, n):
        # the origin of u - u^3 coupled by sin(u) with sigma = 0.8
        edges = {"ring": [(i, (i + 1) % n) for i in range(n)],
                 "path": [(i, i + 1) for i in range(n - 1)],
                 "complete": list(itertools.combinations(range(n), 2))}[kind]
        spec = NetworkSpec.uniform(AdjacencyGraph.from_edges(n, edges), "u - u^3", "sin(u)", 0.8)
        p = characteristic_polynomial(jacobian(network_system(spec), np.zeros(n)))
        assert _same_floats(hurwitz_determinants(p), hurwitz_minors_exact(p.coefficients))

    def test_out_of_range_and_non_finite(self):
        # D_2 = -2^1200 - 1 and D_3 = D_2 leave float range, with their sign;
        # below, D_2 and D_3 read a_3 = inf
        assert _same_floats(hurwitz_determinants(_poly(1, 2.0 ** 600, -2.0 ** 600, 1)),
                            [2.0 ** 600, -math.inf, -math.inf])
        assert _same_floats(hurwitz_determinants(_poly(1, 3, 2, math.inf)),
                            [3.0, math.nan, math.nan])


def _random_real_polynomial(rng, max_degree=6):
    """Monic real polynomial from conjugate-closed random roots."""
    degree = int(rng.integers(1, max_degree + 1))
    coeffs = np.array([1.0])
    roots = []
    remaining = degree
    while remaining > 0:
        if remaining >= 2 and rng.uniform() < 0.5:
            alpha = rng.uniform(-2, 2)
            beta = rng.uniform(0.1, 2)
            coeffs = np.convolve(coeffs, [1.0, -2.0 * alpha, alpha * alpha + beta * beta])
            roots += [complex(alpha, beta), complex(alpha, -beta)]
            remaining -= 2
        else:
            r = rng.uniform(-2, 2)
            coeffs = np.convolve(coeffs, [1.0, -r])
            roots.append(complex(r, 0.0))
            remaining -= 1
    return coeffs, roots


class TestDescartes:
    def test_no_sign_changes(self):
        assert descartes_bound(_poly(1, 3, 2)) == 0

    def test_two_sign_changes(self):
        assert descartes_bound(_poly(1, -3, 2)) == 2

    def test_zero_root_stripped_then_counted(self):
        # lambda^3 - lambda: strip the zero root, then +,0,- gives one change
        assert descartes_bound(_poly(1, 0, -1, 0)) == 1

    def test_positive_root_count_in_bound_family(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            degree = int(rng.integers(1, 7))
            roots = rng.uniform(-2, 2, degree)
            roots = roots[np.abs(roots) > 1e-3]
            if roots.size == 0:
                continue
            coeffs = np.array([1.0])
            for r in roots:
                coeffs = np.convolve(coeffs, [1.0, -r])
            m = descartes_bound(CharPoly(coeffs))
            positives = int(np.sum(roots > 0))
            assert positives <= m
            assert (m - positives) % 2 == 0


class TestLyapunovClassify:
    @pytest.mark.parametrize("eigs,label", [
        ([-4, -3], "stable-node"),
        ([2, 5], "unstable-node"),
        ([-1, 3], "saddle"),
        ([-1 + 2j, -1 - 2j], "stable-focus"),
        ([1 + 2j, 1 - 2j], "unstable-focus"),
        ([2j, -2j], "center"),
        ([-1 + 2j, -1 - 2j, -3], "focus"),
        ([-1 + 2j, -1 - 2j, 3], "saddle-focus"),
        ([2j, -2j, -3], "center"),
        ([-1, -2, -3], "stable-node"),
        ([-1, 2, -3], "saddle"),
        ([1e-12, -3], "non-hyperbolic"),
        ([1e-12 + 2j, 1e-12 - 2j, 1e-12], "non-hyperbolic"),
        ([-2 + 1j, -2 - 1j, -1 + 3j, -1 - 3j], "stable-focus"),
        ([-2 + 1j, -2 - 1j, 1 + 3j, 1 - 3j], "saddle-focus"),
    ])
    def test_labels(self, eigs, label):
        assert lyapunov_classify(eigs) == label


# Halves, so that alpha = +-beta, beta = 0 and zero entries come up often.
_ENTRIES = st.integers(-6, 6).map(lambda v: v / 2.0)


class TestJacobiClassify:
    def test_stable_complex_pair(self):
        verdict, margin, spectrum = jacobi_classify([-1 + 2j, -1 - 2j])
        assert verdict == "Jacobi-stable"
        assert margin == pytest.approx(-3.0, abs=1e-12)
        assert_complex_multisets_close(spectrum, [-0.75 + 1j, -0.75 - 1j], 1e-12)

    def test_stable_node_is_jacobi_unstable(self):
        verdict, margin, spectrum = jacobi_classify([-4.0, -3.0])
        assert verdict == "Jacobi-unstable"
        assert margin == pytest.approx(16.0)
        assert_complex_multisets_close(spectrum, [4.0, 2.25], 1e-12)

    def test_three_dimensional_never_stable(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            eigs = eigenvalues(rng.standard_normal((3, 3)))
            verdict, _, _ = jacobi_classify(eigs)
            assert verdict != "Jacobi-stable"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.tuples(_ENTRIES), st.tuples(_ENTRIES, _ENTRIES)),
                    min_size=1, max_size=4),
           st.integers(0, 2 ** 32 - 1))
    def test_stable_only_in_even_dimension_with_complex_spectrum(self, blocks, seed):
        # S D S^-1, D block-diagonal with real 1x1 entries and 2x2 blocks
        # [[alpha, beta], [-beta, alpha]] (eigenvalues alpha +- i beta)
        n = sum(len(b) for b in blocks)
        D = np.zeros((n, n))
        i = 0
        for block in blocks:
            if len(block) == 1:
                D[i, i] = block[0]
            else:
                alpha, beta = block
                D[i:i + 2, i:i + 2] = [[alpha, beta], [-beta, alpha]]
            i += len(block)
        S = np.random.default_rng(seed).standard_normal((n, n))
        eigs = eigenvalues(S @ D @ np.linalg.inv(S))
        verdict, _, _ = jacobi_classify(eigs)
        if verdict == "Jacobi-stable":
            assert n % 2 == 0
            assert all(abs(z.imag) > stability.HYPERBOLIC_TOL for z in eigs)

    def test_boundary_indeterminate(self):
        verdict, margin, _ = jacobi_classify([1 + 1j, 1 - 1j])
        assert verdict == "indeterminate"
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_scaling_lemma(self):
        rng = np.random.default_rng(7)
        for trial in range(51):
            n = 40 if trial == 50 else int(rng.integers(2, 7))
            A = rng.standard_normal((n, n))
            k = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            base = eigenvalues(A)
            scaled = eigenvalues(k * A)
            assert_complex_multisets_close(scaled, [k * z for z in base], 1e-7)

    def test_square_lemma(self):
        rng = np.random.default_rng(8)
        for trial in range(51):
            n = 40 if trial == 50 else int(rng.integers(2, 7))
            A = rng.standard_normal((n, n))
            base = eigenvalues(A)
            quarter = eigenvalues(0.25 * (A @ A))
            assert_complex_multisets_close(quarter, [z * z / 4.0 for z in base], 1e-7)


class TestFindFixedPoints:
    def test_lcdm_grid(self):
        search = find_fixed_points(lcdm_system(), box=((0, 1), (0, 1)), grid=5)
        assert len(search.points) == 3
        expected = [np.array(p) for p in ([0.0, 0.0], [0.0, 1.0], [1.0, 0.0])]
        for found, want in zip(search.points, expected):
            assert np.max(np.abs(found - want)) <= 1e-7

    def test_linear_unique_zero(self):
        vf = _linear_field(np.array([[2.0, 1.0], [0.5, -1.0]]))
        search = find_fixed_points(vf, seeds=[[3.0, -2.0], [0.1, 0.1]])
        assert len(search.points) == 1
        assert np.max(np.abs(search.points[0])) <= 1e-10

    def test_scalar_quadratic(self):
        vf = VectorField.from_expressions(["x1^2 - 1"], ["x1"])
        search = find_fixed_points(vf, seeds=[[-2.0], [2.0]])
        assert len(search.points) == 2
        assert search.points[0][0] == pytest.approx(-1.0, abs=1e-10)
        assert search.points[1][0] == pytest.approx(1.0, abs=1e-10)

    def test_singular_jacobian_reported(self):
        vf = VectorField.from_expressions(["x1^2 - 1"], ["x1"])
        search = find_fixed_points(vf, seeds=[[0.0]])
        assert not search.points
        assert len(search.failures) == 1
        assert "singular" in search.failures[0].reason

    def test_no_real_root_reports_failures(self):
        vf = VectorField.from_expressions(["x1^2 + 1"], ["x1"])
        search = find_fixed_points(vf, seeds=[[0.5], [-1.5]])
        assert not search.points
        assert len(search.failures) == 2
        # plain floats, so a logged seed reads (0.5,) and not np.float64(0.5)
        assert [f.seed for f in search.failures] == [(0.5,), (-1.5,)]
        assert all(type(v) is float for f in search.failures for v in f.seed)

    def test_duplicate_seeds_merge(self):
        search = find_fixed_points(
            lcdm_system(), seeds=[[0, 0], [1e-9, -1e-9], [0, 1], [0, 1]])
        assert len(search.points) == 2

    def test_requires_seeds_or_box(self):
        with pytest.raises(ValueError):
            find_fixed_points(lcdm_system())

    def test_box_grid_ceiling(self, monkeypatch):
        names = [f"x{i}" for i in range(1, 11)]
        vf = VectorField.from_expressions([f"-{v}" for v in names], names)
        with pytest.raises(ValueError) as info:
            find_fixed_points(vf, seeds=[[0.0] * 10], box=[(-2, 2)] * 10, grid=5)
        message = str(info.value)
        assert "9765625 seeds, more than 100000" in message
        for option in ("--seeds", "--box", "--grid"):
            assert option in message
        # exactly at the ceiling the grid runs, one step finer it does not
        monkeypatch.setattr(stability, "MAX_GRID_SEEDS", 16)
        assert len(find_fixed_points(lcdm_system(), box=((0, 1), (0, 1)), grid=4).points) == 3
        with pytest.raises(ValueError):
            find_fixed_points(lcdm_system(), box=((0, 1), (0, 1)), grid=5)


class TestAnalyzeFixedPoint:
    def test_lcdm_attractor(self):
        report = analyze_fixed_point(lcdm_system(), [0.0, 1.0])
        assert report.lyapunov_class == "stable-node"
        assert report.jacobi_verdict == "Jacobi-unstable"
        assert_complex_multisets_close(report.eigenvalues, [-4.0, -3.0], 1e-9)
        assert_complex_multisets_close(report.jacobi_spectrum, [4.0, 2.25], 1e-7)
        assert report.jacobi_margin == pytest.approx(16.0, abs=1e-7)
        assert np.allclose(report.hurwitz, [7.0, 84.0], atol=1e-12)
        assert report.descartes_bound == 0
        assert not report.jacobi_saddle_focus

    def test_lcdm_saddle(self):
        report = analyze_fixed_point(lcdm_system(), [0.0, 0.0])
        assert report.lyapunov_class == "saddle"
        assert report.jacobi_verdict == "Jacobi-unstable"
        assert_complex_multisets_close(report.eigenvalues, [-1.0, 3.0], 1e-9)
        assert_complex_multisets_close(report.jacobi_spectrum, [0.25, 2.25], 1e-7)

    def test_lcdm_past_attractor(self):
        report = analyze_fixed_point(lcdm_system(), [1.0, 0.0])
        assert report.lyapunov_class == "unstable-node"
        assert report.jacobi_verdict == "Jacobi-unstable"
        assert_complex_multisets_close(report.eigenvalues, [1.0, 4.0], 1e-9)
        assert_complex_multisets_close(report.jacobi_spectrum, [0.25, 4.0], 1e-7)
        assert report.descartes_bound == 2

    def test_rejects_non_fixed_point(self):
        with pytest.raises(NotAFixedPointError):
            analyze_fixed_point(lcdm_system(), [0.5, 0.5])

    def test_saddle_focus_flag(self):
        A = np.array([[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.0], [0.0, 0.0, 3.0]])
        report = analyze_fixed_point(_linear_field(A), [0.0, 0.0, 0.0])
        assert report.lyapunov_class == "saddle-focus"
        assert report.jacobi_saddle_focus
        assert report.jacobi_verdict == "Jacobi-unstable"

    def test_planar_center_is_jacobi_stable(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        report = analyze_fixed_point(_linear_field(A), [0.0, 0.0])
        assert report.lyapunov_class == "center"
        assert report.jacobi_verdict == "Jacobi-stable"
        assert report.jacobi_margin == pytest.approx(-1.0, abs=1e-9)

    def test_defective_jordan_block(self):
        # S J S^-1 with J = [[-1, 1], [0, -1]] and S = [[2, 1], [1, 1]]
        A = np.array([[-3.0, 4.0], [-1.0, 1.0]])
        report = analyze_fixed_point(_linear_field(A), [0.0, 0.0])
        assert_complex_multisets_close(report.eigenvalues, [-1.0, -1.0], 1e-7)
        assert report.jacobi_verdict == "Jacobi-unstable"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 5), st.integers(0, 2 ** 32 - 1))
    def test_jordan_block_is_jacobi_unstable(self, k, seed):
        # S J S^-1 with J the k x k Jordan block at -1. LAPACK splits the
        # k-fold eigenvalue by about delta = (cond(S) eps |A|)^(1/k), and
        # the margin max Re(lambda^2) = 1 - 2 Re(lambda + 1) + ... moves by
        # about 2 delta; over 12 000 seeded draws it moved by at most 1.9 delta.
        S = np.random.default_rng(seed).standard_normal((k, k))
        A = S @ (np.eye(k, k=1) - np.eye(k)) @ np.linalg.inv(S)
        report = analyze_fixed_point(_linear_field(A), np.zeros(k))
        assert report.jacobi_verdict == "Jacobi-unstable"
        delta = (np.linalg.cond(S) * np.finfo(float).eps * np.linalg.norm(A, 2)) ** (1.0 / k)
        assert abs(report.jacobi_margin - 1.0) <= 4.0 * delta

    def test_jacobi_spectrum_is_quarter_square_of_eigenvalues(self):
        trace_zero = np.array([[0.0, 1.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0],
                               [0.0, 0.0, 0.0, 3.0], [0.0, 0.0, -1.0, 0.0]])
        reports = [analyze_fixed_point(lcdm_system(), p)
                   for p in ([0.0, 0.0], [0.0, 1.0], [1.0, 0.0])]
        reports.append(analyze_fixed_point(_linear_field(trace_zero), np.zeros(4)))
        for report in reports:
            squares = [z * z / 4.0 for z in report.eigenvalues]
            assert report.jacobi_spectrum == sorted(squares, key=lambda z: (z.real, z.imag))
            # the square of a negative real eigenvalue has imaginary part -0.0
            parts = [part for z in report.jacobi_spectrum for part in (z.real, z.imag)]
            assert all(math.copysign(1.0, part) == 1.0 for part in parts if part == 0.0)

    def test_concurrent_analyses_match_serial(self):
        from concurrent.futures import ThreadPoolExecutor
        vf = lcdm_system()
        points = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]] * 4
        serial = [analyze_fixed_point(vf, p) for p in points]
        with ThreadPoolExecutor(max_workers=6) as pool:
            threaded = list(pool.map(lambda p: analyze_fixed_point(vf, p), points))
        for a, b in zip(serial, threaded):
            assert a.lyapunov_class == b.lyapunov_class
            assert a.jacobi_verdict == b.jacobi_verdict
            assert a.eigenvalues == b.eigenvalues
