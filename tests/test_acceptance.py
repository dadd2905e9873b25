"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here, not configurable.
"""

import json

import numpy as np

from kccdyn.cli import main as cli_main
from kccdyn.deviation import integrate
from kccdyn.exprdsl import BinOp, Expression, Num, Var
from kccdyn.kcc import Sode, lift
from kccdyn.models import (
    AdjacencyGraph,
    NetworkSpec,
    builtin_models,
    harmonic_system,
    lcdm_system,
    network_system,
    translate_to_origin,
)
from kccdyn.odesys import VectorField, eval_field
from kccdyn.stability import (
    CharPoly,
    analyze_fixed_point,
    characteristic_polynomial,
    eigenvalues,
    is_hurwitz_stable,
)

from helpers import assert_complex_multisets_close, deviation_tensor_lifted, network_deviation_tensor


def _ok(number, text):
    print(f"\nACCEPTANCE {number}: {text}: PASS")


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


def test_criterion_1_lcdm_end_to_end(capsys):
    code = cli_main(["analyze", "lcdm", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    points = payload["fixed_points"]
    assert len(points) == 3
    by_location = {}
    for point in points:
        assert point["residual"] <= 1e-10
        assert point["jacobi_verdict"] == "Jacobi-unstable"
        key = tuple(round(v) for v in point["location"])
        assert np.max(np.abs(np.array(point["location"]) - np.array(key))) <= 1e-7
        by_location[key] = point
    assert set(by_location) == {(0, 1), (1, 0), (0, 0)}
    assert by_location[(0, 1)]["lyapunov_class"] == "stable-node"    # future attractor
    assert by_location[(1, 0)]["lyapunov_class"] == "unstable-node"  # past attractor
    assert by_location[(0, 0)]["lyapunov_class"] == "saddle"
    expected_spectra = {
        (0, 1): [4.0, 9.0 / 4.0],
        (1, 0): [4.0, 1.0 / 4.0],
        (0, 0): [9.0 / 4.0, 1.0 / 4.0],
    }
    for key, spectrum in expected_spectra.items():
        got = [complex(z["re"], z["im"]) for z in by_location[key]["jacobi_spectrum"]]
        assert_complex_multisets_close(got, spectrum, 1e-7)
    _ok(1, "lcdm end-to-end (3 points, labels, Jacobi-unstable, spectra)")


def test_criterion_2_eigenvalue_lemmas():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        A = rng.standard_normal((n, n))
        base = eigenvalues(A)
        k = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        assert_complex_multisets_close(eigenvalues(k * A), [k * z for z in base], 1e-7)
        assert_complex_multisets_close(
            eigenvalues(0.25 * (A @ A)), [z * z / 4.0 for z in base], 1e-7)
    _ok(2, "eigenvalue scaling and quarter-square lemmas, 200 random matrices")


def test_criterion_3_planar_complex_pair_sweep():
    grid = np.linspace(-2.0, 2.0, 21)
    checked = 0
    for alpha in grid:
        for beta in grid:
            if abs(alpha * alpha - beta * beta) < 1e-3:
                continue
            A = np.array([[alpha, beta], [-beta, alpha]])
            report = analyze_fixed_point(_linear_field(A), [0.0, 0.0])
            expected = alpha * alpha < beta * beta
            assert (report.jacobi_verdict == "Jacobi-stable") == expected, (alpha, beta)
            checked += 1
    assert checked > 350
    _ok(3, f"planar alpha/beta sweep, {checked} grid points, 100% agreement")


def _random_cubic_field_3d(rng):
    """Cubic polynomial components with f(0) = 0; linear part returned too."""
    n = 3
    names = ("x1", "x2", "x3")
    C = rng.uniform(-1.0, 1.0, (n, n))
    comps = []
    for i in range(n):
        root = None
        for j in range(n):
            term = BinOp("*", Num(float(C[i, j])), Var(j))
            root = term if root is None else BinOp("+", root, term)
        for _ in range(3):
            j, k = rng.integers(0, n, 2)
            term = BinOp("*", Num(float(rng.uniform(-1, 1))),
                         BinOp("*", Var(int(j)), Var(int(k))))
            root = BinOp("+", root, term)
        for _ in range(2):
            j, k, l = rng.integers(0, n, 3)
            term = BinOp("*", Num(float(rng.uniform(-1, 1))),
                         BinOp("*", Var(int(j)), BinOp("*", Var(int(k)), Var(int(l)))))
            root = BinOp("+", root, term)
        comps.append(Expression(root=root, variables=names))
    return VectorField(components=tuple(comps)), C


def test_criterion_4_three_dimensional_sweep():
    rng = np.random.default_rng(7)
    accepted = 0
    while accepted < 200:
        vf, C = _random_cubic_field_3d(rng)
        if np.min(np.abs(np.linalg.eigvals(C).real)) <= 1e-3:
            continue
        report = analyze_fixed_point(vf, [0.0, 0.0, 0.0])
        assert report.jacobi_verdict == "Jacobi-unstable"
        accepted += 1
    _ok(4, "200 random cubic 3D fields with hyperbolic origin, none Jacobi-stable")


def _random_real_polynomial(rng, max_degree=6):
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


def test_criterion_5_routh_hurwitz_agreement():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 500:
        coeffs, roots = _random_real_polynomial(rng)
        if min(abs(r.real) for r in roots) <= 1e-6:
            continue
        truth = all(r.real < 0 for r in roots)
        assert is_hurwitz_stable(CharPoly(coeffs)) == truth
        checked += 1
    for _ in range(100):
        A = rng.standard_normal((3, 3))
        tr = np.trace(A)
        closed = np.array([1.0, -tr, 0.5 * (tr * tr - np.trace(A @ A)),
                           -np.linalg.det(A)])
        got = characteristic_polynomial(A).coefficients
        assert np.all(np.abs(got - closed) <= 1e-12 * np.maximum(1.0, np.abs(closed)))
    _ok(5, "Hurwitz predicate vs roots on 500 polynomials; cubic closed form on 100")


def test_criterion_6_lift_consistency_and_vanishing():
    rng = np.random.default_rng(21)
    for factory in (lcdm_system, harmonic_system):
        vf = factory()
        sode = lift(vf)
        for _ in range(100):
            x = rng.uniform(-2, 2, vf.dimension)
            y = rng.uniform(-2, 2, vf.dimension)
            generic = sode.deviation_tensor(x, y)
            closed = deviation_tensor_lifted(vf, x, y)
            assert np.max(np.abs(generic - closed)) <= 1e-9
            assert np.max(np.abs(sode.berwald(x, y))) <= 1e-8
            p3, p4, douglas = sode.higher_invariants(x, y)
            assert np.max(np.abs(p3)) <= 1e-8
            assert np.max(np.abs(p4)) <= 1e-8
            assert np.max(np.abs(douglas)) <= 1e-8

    # Non-vacuous vanishing check: the lcdm lift written out symbolically,
    # so the Berwald block comes from exact second y-derivatives.
    twin = Sode.from_expressions(
        ["-0.5*((-1 + 2*x1 - 3*x2)*y1 - 3*x1*y2)",
         "-0.5*(x2*y1 + (3 + x1 - 6*x2)*y2)"],
        ["x1", "x2"], ["y1", "y2"])
    sode = lift(lcdm_system())
    for _ in range(10):
        x = rng.uniform(-2, 2, 2)
        y = rng.uniform(-2, 2, 2)
        assert np.max(np.abs(twin.berwald(x, y))) == 0.0
        assert np.max(np.abs(twin.nonlinear_connection(x, y)
                             - sode.nonlinear_connection(x, y))) <= 1e-12
        assert np.max(np.abs(twin.deviation_tensor(x, y)
                             - sode.deviation_tensor(x, y))) <= 1e-9
        p3, p4, douglas = twin.higher_invariants(x, y)
        assert np.max(np.abs(p3)) <= 1e-8
        assert np.max(np.abs(p4)) <= 1e-8
        assert np.max(np.abs(douglas)) <= 1e-8
    _ok(6, "lift consistency <= 1e-9 and invariants 3-5 vanish, 100 points/model")


def test_criterion_7_deviation_integrator():
    vf = harmonic_system()
    sode = lift(vf)
    x0 = np.array([1.0, 0.0])
    y0 = eval_field(vf, x0)
    W = np.array([1.0, 0.0])

    run = integrate(sode, x0, y0, W, t_end=1.0, dt=1e-3)
    exact = np.array([np.sin(1.0), np.cos(1.0) - 1.0])
    assert np.max(np.abs(run.xi[-1] - exact)) <= 1e-6

    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        r = integrate(sode, x0, y0, W, t_end=1.0, dt=dt)
        reference = np.stack([np.sin(r.times), np.cos(r.times) - 1.0], axis=1)
        errors.append(np.max(np.abs(r.xi - reference)))
    assert np.log2(errors[0] / errors[1]) >= 3.5
    assert np.log2(errors[1] / errors[2]) >= 3.5

    cosmology = lcdm_system()
    csode = lift(cosmology)
    cx0 = np.array([0.5, 0.5])
    cy0 = eval_field(cosmology, cx0)
    eta = 1e-6
    base = integrate(csode, cx0, cy0, W, t_end=1.0, dt=1e-3)
    shifted = integrate(csode, cx0, cy0 + eta * W, W, t_end=1.0, dt=1e-3)
    diff = shifted.states - base.states
    linear = eta * base.xi
    err = np.max(np.linalg.norm(diff - linear, axis=1))
    assert err <= 0.05 * np.max(np.linalg.norm(linear, axis=1))
    _ok(7, "harmonic closed form <= 1e-6, RK4 order >= 3.5, variational within 5%")


def test_criterion_8_translation_invariance():
    rng = np.random.default_rng(33)
    fixed_points = {
        "lcdm": [np.array([0.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0])],
        "harmonic": [np.array([0.0, 0.0])],
    }
    for name, model in builtin_models().items():
        vf = model.factory()
        for _ in range(20):
            shift = rng.uniform(-2, 2, vf.dimension)
            moved = translate_to_origin(vf, shift)
            for point in fixed_points[name]:
                original = analyze_fixed_point(vf, point)
                translated = analyze_fixed_point(moved, point - shift)
                assert translated.lyapunov_class == original.lyapunov_class
                assert translated.jacobi_verdict == original.jacobi_verdict
                assert_complex_multisets_close(
                    translated.eigenvalues, original.eigenvalues, 1e-9)
    _ok(8, "translation keeps labels, verdicts, and eigenvalues (20 shifts/model)")


def test_criterion_9_network_path():
    rng = np.random.default_rng(55)
    for trial in range(10):
        n = int(rng.integers(3, 9))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.uniform() < 0.5]
        graph = AdjacencyGraph.from_edges(n, edges)
        sigma = float(rng.uniform(0.2, 1.5))
        spec = NetworkSpec.uniform(graph, "u - u^3", "sin(u)", sigma)
        sode = lift(network_system(spec))
        for _ in range(3):
            x = rng.uniform(-1.5, 1.5, n)
            y = rng.uniform(-1.5, 1.5, n)
            generic = sode.deviation_tensor(x, y)
            closed = network_deviation_tensor(spec, x, y)
            assert np.max(np.abs(generic - closed)) <= 1e-9

        uncoupled_spec = NetworkSpec.uniform(graph, "u - u^3", "sin(u)", 0.0)
        field = network_system(uncoupled_spec)
        bare = VectorField.from_expressions(
            [f"x{i + 1} - x{i + 1}^3" for i in range(n)], [f"x{i + 1}" for i in range(n)])
        for _ in range(3):
            x = rng.uniform(-2, 2, n)
            assert np.array_equal(eval_field(field, x), eval_field(bare, x))
    _ok(9, "network deviation tensor matches closed form; sigma=0 reduces exactly")
