import csv
import io

import numpy as np
import pytest

from kccdyn.deviation import focusing_diagnostic, integrate
from kccdyn.kcc import lift
from kccdyn.models import harmonic_system, lcdm_system
from kccdyn.odesys import VectorField, eval_field


def _harmonic_run(t_end=1.0, dt=1e-3):
    # lifted rotation pair from x0 = (1, 0) on its own flow, W = (1, 0);
    # closed forms: x(t) = (cos t, -sin t), xi(t) = (sin t, cos t - 1)
    vf = harmonic_system()
    return integrate(lift(vf), [1.0, 0.0], eval_field(vf, [1.0, 0.0]), [1.0, 0.0],
                     t_end=t_end, dt=dt)


def _xi_exact(times):
    return np.stack([np.sin(times), np.cos(times) - 1.0], axis=1)


class TestIntegrate:
    def test_initial_conditions_exact(self):
        run = _harmonic_run(t_end=0.1)
        assert np.all(run.xi[0] == 0.0)
        assert np.array_equal(run.xi_dot[0], [1.0, 0.0])
        assert np.array_equal(run.W, [1.0, 0.0])

    def test_harmonic_closed_form(self):
        run = _harmonic_run(t_end=1.0, dt=1e-3)
        exact = np.array([np.sin(1.0), np.cos(1.0) - 1.0])
        assert np.max(np.abs(run.xi[-1] - exact)) <= 1e-6

    def test_convergence_order(self):
        errors = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            run = _harmonic_run(t_end=1.0, dt=dt)
            errors.append(np.max(np.abs(run.xi - _xi_exact(run.times))))
        order1 = np.log2(errors[0] / errors[1])
        order2 = np.log2(errors[1] / errors[2])
        assert order1 >= 3.5
        assert order2 >= 3.5

    def test_trajectory_error_halving_band(self):
        errs = []
        for dt in (1e-2, 5e-3):
            run = _harmonic_run(t_end=1.0, dt=dt)
            exact = np.stack([np.cos(run.times), -np.sin(run.times)], axis=1)
            errs.append(np.max(np.abs(run.states - exact)))
        assert errs[0] / errs[1] >= 12.0

    def test_velocity_is_state_derivative(self):
        run = _harmonic_run(t_end=1.0, dt=1e-3)
        dx = (run.states[2:] - run.states[:-2]) / (2e-3)
        assert np.max(np.abs(dx - run.velocities[1:-1])) <= 1e-6

    def test_zero_field_linear_growth(self):
        vf = VectorField.from_expressions(["0", "0"], ["x1", "x2"])
        run = integrate(lift(vf), [0.0, 0.0], [0.0, 0.0], [1.0, 0.0],
                        t_end=1.0, dt=1e-2)
        assert np.allclose(run.norms, run.times, atol=1e-12)

    def test_variational_definition(self):
        # eta-shifted initial velocity against the linearized deviation
        vf = lcdm_system()
        sode = lift(vf)
        x0 = np.array([0.5, 0.5])
        y0 = eval_field(vf, x0)
        W = np.array([1.0, 0.0])
        eta = 1e-6
        base = integrate(sode, x0, y0, W, t_end=1.0, dt=1e-3)
        shifted = integrate(sode, x0, y0 + eta * W, W, t_end=1.0, dt=1e-3)
        diff = shifted.states - base.states
        linear = eta * base.xi
        scale = np.max(np.linalg.norm(linear, axis=1))
        err = np.max(np.linalg.norm(diff - linear, axis=1))
        assert err <= 0.05 * scale

    def test_rejects_zero_W(self):
        with pytest.raises(ValueError):
            _run_with(W=[0.0, 0.0])

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            _run_with(dt=0.0)
        with pytest.raises(ValueError):
            _run_with(dt=-1e-3)

    def test_rejects_t_end_below_dt(self):
        with pytest.raises(ValueError):
            _run_with(t_end=1e-4, dt=1e-3)

    def test_divergence_truncates(self):
        vf = VectorField.from_expressions(["x1*x1"], ["x1"])
        run = integrate(lift(vf), [2.0], [4.0], [1.0], t_end=2.0, dt=1e-3)
        assert run.truncated
        assert "divergence" in run.truncation_reason
        assert run.final_time < 0.6  # blow-up of x' = x^2 from 2 is at t = 0.5
        assert np.all(np.isfinite(run.xi))

    def test_power_overflow_truncates(self):
        # the same blow-up through a power stops at its overflow check,
        # before the state turns non-finite
        vf = VectorField.from_expressions(["x1^2"], ["x1"])
        run = integrate(lift(vf), [2.0], [4.0], [1.0], t_end=2.0, dt=1e-3)
        assert run.truncated
        assert "overflow in power in 'x1^2'" in run.truncation_reason
        assert run.final_time < 0.6
        assert np.all(np.isfinite(run.xi))


def _run_with(W=(1.0, 0.0), dt=1e-3, t_end=1.0):
    vf = harmonic_system()
    return integrate(lift(vf), [1.0, 0.0], [0.0, -1.0], W, t_end=t_end, dt=dt)


class TestFocusingDiagnostic:
    def test_zero_field_disperses(self):
        vf = VectorField.from_expressions(["0", "0"], ["x1", "x2"])
        run = integrate(lift(vf), [0.0, 0.0], [0.0, 0.0], [1.0, 0.0],
                        t_end=1.0, dt=1e-2)
        # ||xi(0.1)|| = 0.1 > 0.01
        assert focusing_diagnostic(run, 0.1) == "dispersing"

    def test_harmonic_disperses_by_literal_criterion(self):
        run = _harmonic_run(t_end=1.0)
        assert focusing_diagnostic(run, 0.1) == "dispersing"
        norm = run.norm_at(0.1)
        assert norm == pytest.approx(np.sqrt(2.0 - 2.0 * np.cos(0.1)), abs=1e-8)

    def test_probe_out_of_range(self):
        run = _harmonic_run(t_end=0.5)
        with pytest.raises(ValueError):
            focusing_diagnostic(run, 0.6)
        with pytest.raises(ValueError):
            focusing_diagnostic(run, 0.0)


class TestCsvExport:
    def test_columns_and_values(self):
        run = _harmonic_run(t_end=0.02, dt=1e-2)
        text = run.csv_text()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert list(rows[0].keys()) == ["t", "x1", "x2", "y1", "y2",
                                        "xi1", "xi2", "norm"]
        assert len(rows) == 3
        # repr round-trip: parsed floats match the stored samples exactly
        assert float(rows[2]["xi1"]) == run.xi[2, 0]
        assert float(rows[2]["norm"]) == run.norms[2]

    def test_to_path(self, tmp_path):
        run = _harmonic_run(t_end=0.02, dt=1e-2)
        target = tmp_path / "run.csv"
        run.to_csv(target)
        assert target.read_text().splitlines()[0] == "t,x1,x2,y1,y2,xi1,xi2,norm"
