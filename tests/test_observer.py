"""Tests for the iterative forward/backward recovery loop and its reports.

The loop itself is checked against the standalone reference sweep from
test_pde (an independent transcription of the integrator), and the
qualitative convergence split and contraction-rate numbers are frozen from
reference runs of that transcription.
"""

import json
import math

import numpy as np
import pytest

from test_pde import oracle_recover_once, ref_boundary_sq_integral

from wavecert import observer, pde, search
from wavecert.certificates import (ProblemParams, compute_iss_gain,
                                   make_certificate)

PI = math.pi

QUADRATIC = pde.Nonlinearity(lambda z, x, t: 0.1 * z * z, fz_bound=0.2,
                             local_radius=1.0)


def preset_ic(x):
    return 0.2733 * x * (1 - x / 2)


def example_setup(horizon, n_points=201, nonlinearity=QUADRATIC):
    """Plant run with the quadratic source and the polynomial preset."""
    grid = pde.make_grid(1, n_points, horizon)
    x = grid.axis()
    truth = pde.WaveField(preset_ic(x), preset_ic(x))
    _, trace, _ = pde.run(truth, horizon, grid, nonlinearity)
    return grid, truth, trace


def stability_certificate(d=None):
    """Feasible decay certificate for the quadratic-source example."""
    params = ProblemParams(n=1, k=1.0, g1=0.2, delta=0.09, d=d)
    return make_certificate(params, search.find_feasible_vars(params))


def contraction_setup(horizon=4.0, m_max=6):
    """Certified linear pipeline: k=0.1, delta=0.08, T* ~ 2.41."""
    params = ProblemParams(n=1, k=0.1, g1=0.0, delta=0.08)
    t_star, _, cert = search.minimal_observability_time(params)
    grid = pde.make_grid(1, 201, horizon)
    x = grid.axis()
    truth = pde.WaveField(preset_ic(x), preset_ic(x))
    _, trace, _ = pde.run(truth, horizon, grid)
    config = observer.RecoveryConfig(k=0.1, horizon=horizon, m_max=m_max,
                                     grid=grid, certificate=cert,
                                     convergence_threshold=1e-12,
                                     stop_early=False)
    return t_star, cert, config, truth, trace


class TestRecoveryConfig:
    def test_defaults(self):
        g = pde.make_grid(1, 101, 2.0)
        c = observer.RecoveryConfig(k=1.0, horizon=2.0, m_max=10, grid=g)
        assert c.convergence_threshold == 1e-3
        assert c.nonlinearity is pde.ZERO_F
        assert c.certificate is None and c.stop_early
        assert c.steps == round(2.0 / g.dt)

    def test_validation(self):
        g = pde.make_grid(1, 101, 2.0)
        with pytest.raises(ValueError):
            observer.RecoveryConfig(k=-1.0, horizon=2.0, m_max=1, grid=g)
        with pytest.raises(ValueError):
            observer.RecoveryConfig(k=1.0, horizon=0.0, m_max=1, grid=g)
        with pytest.raises(ValueError):
            observer.RecoveryConfig(k=1.0, horizon=2.0, m_max=0, grid=g)
        with pytest.raises(ValueError):
            observer.RecoveryConfig(k=1.0, horizon=2.0, m_max=True, grid=g)
        with pytest.raises(ValueError):
            observer.RecoveryConfig(k=1.0, horizon=2.0, m_max=math.inf, grid=g)
        with pytest.raises(ValueError):
            observer.RecoveryConfig(k=1.0, horizon=2.0, m_max=1, grid=g,
                                    convergence_threshold=0.0)
        with pytest.raises(ValueError):
            observer.RecoveryConfig(k=1.0, horizon=2.0, m_max=1, grid="grid")
        with pytest.raises(ValueError):
            observer.RecoveryConfig(k=1.0, horizon=2.0, m_max=1, grid=g,
                                    nonlinearity=lambda z, x, t: z)
        # horizon must land on the step grid
        with pytest.raises(ValueError):
            observer.RecoveryConfig(k=1.0, horizon=2.0 + 0.4 * g.dt, m_max=1,
                                    grid=g)


class TestRecover:
    def test_linear_recovery_within_two_percent(self):
        grid = pde.make_grid(1, 201, 3.0)
        x = grid.axis()
        truth = pde.WaveField(np.sin(PI * x / 2), np.zeros_like(x))
        _, trace, _ = pde.run(truth, 3.0, grid)
        config = observer.RecoveryConfig(k=1.0, horizon=3.0, m_max=10,
                                         grid=grid)
        run = observer.recover(trace, config, truth=truth)
        assert run.final_error_vs_truth <= 0.02
        assert run.converged and not run.diverged

    def test_matches_reference_sweep(self):
        horizon = 1.2
        grid, truth, trace = example_setup(horizon, n_points=101)
        config = observer.RecoveryConfig(k=1.0, horizon=horizon, m_max=3,
                                         grid=grid, nonlinearity=QUADRATIC,
                                         convergence_threshold=1e-15,
                                         stop_early=False)
        run = observer.recover(trace, config)
        steps = config.steps
        oz = np.zeros(101)
        ov = np.zeros(101)
        for _ in range(3):
            oz, ov = oracle_recover_once(oz, ov, grid.dx, grid.dt, steps,
                                         QUADRATIC.f, 1.0, trace.samples[:, 0])
        assert np.allclose(run.recovered.z, oz, rtol=1e-9, atol=1e-13)
        assert np.allclose(run.recovered.zt, ov, rtol=1e-9, atol=1e-13)
        assert len(run.records) == 3

    def test_zero_trace_zero_truth_degenerate(self):
        grid = pde.make_grid(1, 101, 1.0)
        steps = round(1.0 / grid.dt)
        trace = pde.BoundaryTrace(np.zeros(steps + 1), grid.dt)
        config = observer.RecoveryConfig(k=1.0, horizon=1.0, m_max=5,
                                         grid=grid, nonlinearity=QUADRATIC)
        run = observer.recover(trace, config)
        assert run.converged and len(run.records) == 1
        assert run.records[0].succ_change == 0.0
        assert np.all(run.recovered.z == 0.0)
        assert np.all(run.recovered.zt == 0.0)

    def test_production_records_have_no_truth_fields(self):
        grid, truth, trace = example_setup(2.1)
        config = observer.RecoveryConfig(k=1.0, horizon=2.1, m_max=4,
                                         grid=grid, nonlinearity=QUADRATIC,
                                         convergence_threshold=1e-15,
                                         stop_early=False)
        run = observer.recover(trace, config)
        assert all(r.E_b_t0 is None and r.V_b_t0 is None for r in run.records)
        assert run.records[0].ratio is None
        assert all(r.ratio is not None for r in run.records[1:])
        assert all(r.succ_change is not None for r in run.records)
        assert run.E_b_initial is None and run.final_error_vs_truth is None

    def test_truth_records(self):
        grid, truth, trace = example_setup(2.1)
        cert = stability_certificate()
        config = observer.RecoveryConfig(k=1.0, horizon=2.1, m_max=3,
                                         grid=grid, nonlinearity=QUADRATIC,
                                         certificate=cert,
                                         convergence_threshold=1e-15,
                                         stop_early=False)
        run = observer.recover(trace, config, truth=truth)
        gf = pde.Grid(1, 201, grid.dt, "observer-forward", 1.0)
        assert abs(run.E_b_initial - pde.energy(truth, gf)) < 1e-15
        want_v0 = pde.lyapunov(pde.WaveField(truth.z, -truth.zt), gf,
                               cert.vars.chi, 1.0)
        assert abs(run.V_b_initial - want_v0) < 1e-15
        assert run.records[0].ratio == run.records[0].E_b_t0 / run.E_b_initial
        assert all(r.E_b_t0 is not None and r.V_b_t0 is not None
                   for r in run.records)

    def test_recovered_time_stamp_and_budget(self):
        grid, truth, trace = example_setup(1.5, n_points=101)
        shifted = pde.BoundaryTrace(trace.samples, trace.dt, t0=0.5)
        config = observer.RecoveryConfig(k=1.0, horizon=1.5, m_max=2,
                                         grid=grid, nonlinearity=QUADRATIC,
                                         convergence_threshold=1e-15,
                                         stop_early=False)
        run = observer.recover(shifted, config)
        assert run.recovered.t == 0.5
        assert len(run.records) == 2

    def test_trace_mismatches_rejected(self):
        grid = pde.make_grid(1, 101, 1.0)
        steps = round(1.0 / grid.dt)
        config = observer.RecoveryConfig(k=1.0, horizon=1.0, m_max=1, grid=grid)
        with pytest.raises(ValueError):
            observer.recover(np.zeros(steps + 1), config)
        with pytest.raises(ValueError):
            observer.recover(pde.BoundaryTrace(np.zeros(steps + 5), grid.dt),
                             config)
        with pytest.raises(ValueError):
            observer.recover(pde.BoundaryTrace(np.zeros(steps + 1), 2 * grid.dt),
                             config)
        g2 = pde.make_grid(2, 31, 1.0)
        c2 = observer.RecoveryConfig(k=1.0, horizon=1.0, m_max=1, grid=g2)
        bad = pde.BoundaryTrace(np.zeros((c2.steps + 1, 7)), g2.dt)
        with pytest.raises(ValueError):
            observer.recover(bad, c2)

    def test_truth_shape_rejected(self):
        grid, truth, trace = example_setup(1.0, n_points=101)
        config = observer.RecoveryConfig(k=1.0, horizon=1.0, m_max=1, grid=grid)
        bad = pde.WaveField(np.zeros(51), np.zeros(51))
        with pytest.raises(ValueError, match=r"\(51,\) does not match .* \(101,\)"):
            observer.recover(trace, config, truth=bad)

    def test_two_dimensional_recovery(self):
        horizon = 3.5
        grid = pde.make_grid(2, 61, horizon)
        x1, x2 = grid.coords()
        mode = np.sin(PI * x1 / 2) * np.sin(PI * x2 / 2)
        truth = pde.WaveField(0.3 * mode, 0.1 * mode)
        _, trace, _ = pde.run(truth, horizon, grid)
        config = observer.RecoveryConfig(k=1.0, horizon=horizon, m_max=6,
                                         grid=grid)
        run = observer.recover(trace, config, truth=truth)
        assert run.converged
        assert run.final_error_vs_truth <= 1e-4


class TestConvergenceSplit:
    def test_converges_on_long_window(self):
        grid, truth, trace = example_setup(2.1)
        config = observer.RecoveryConfig(k=1.0, horizon=2.1, m_max=10,
                                         grid=grid, nonlinearity=QUADRATIC)
        run = observer.recover(trace, config, truth=truth)
        assert run.converged and not run.diverged
        assert len(run.records) <= 10
        assert run.records[-1].succ_change < 1e-3
        assert run.records[-1].succ_change < 5e-4  # measured 1.6e-4 at m=2
        assert run.final_error_vs_truth <= 0.01

    def test_fails_on_short_window(self):
        grid, truth, trace = example_setup(1.8)
        config = observer.RecoveryConfig(k=1.0, horizon=1.8, m_max=10,
                                         grid=grid, nonlinearity=QUADRATIC)
        run = observer.recover(trace, config, truth=truth)
        assert not run.converged and not run.diverged
        assert len(run.records) == 10
        assert all(r.succ_change >= 1e-3 for r in run.records)

    def test_divergence_flag_not_exception(self):
        grid = pde.make_grid(1, 101, 2.0)
        x = grid.axis()
        truth = pde.WaveField(np.sin(PI * x / 2) * 0.1, np.zeros_like(x))
        nl = pde.Nonlinearity(lambda z, x, t: 30.0 * z, fz_bound=30.0)
        with np.errstate(all="ignore"):
            _, trace, _ = pde.run(truth, 2.0, grid, nl)
            config = observer.RecoveryConfig(k=1.0, horizon=2.0, m_max=8,
                                             grid=grid, nonlinearity=nl)
            run = observer.recover(trace, config)
        assert run.diverged and not run.converged
        assert len(run.records) < 8

    def test_overflowing_energy_is_divergence(self):
        # a finite trace of 1e160 drives a finite field whose energy overflows
        grid = pde.make_grid(1, 41, 1.0)
        steps = int(round(1.0 / grid.dt))
        trace = pde.BoundaryTrace(np.full(steps + 1, 1e160), grid.dt)
        config = observer.RecoveryConfig(k=1.0, horizon=1.0, m_max=4, grid=grid)
        with np.errstate(over="ignore", invalid="ignore"):
            run = observer.recover(trace, config)
        assert run.diverged and not run.converged
        assert run.records == ()


class TestContractionReport:
    def test_certified_pipeline(self):
        t_star, cert, config, truth, trace = contraction_setup()
        run = observer.recover(trace, config, truth=truth)
        report = observer.contraction_report(run, cert)
        assert report.applicable and report.reason is None
        want_q = math.exp(-4 * 0.08 * (4.0 - t_star))
        assert abs(report.q - want_q) < 1e-12
        assert 0.55 <= report.q <= 0.65
        assert report.ratios_ok and report.uniform_ok and report.ok
        assert len(report.rows) == len(run.records)
        ratios = [row["ratio"] for row in report.rows]
        assert max(ratios) <= 0.3  # measured ~0.20, far below q
        assert all(row["ok"] for row in report.rows)
        assert report.uniform_peak <= report.uniform_bound
        # first row compares against the Lyapunov value of the true state
        assert report.rows[0]["ratio"] == run.records[0].V_b_t0 / run.V_b_initial

    def test_error_energy_monotone(self):
        _, cert, config, truth, trace = contraction_setup()
        run = observer.recover(trace, config, truth=truth)
        energies = [run.E_b_initial] + [r.E_b_t0 for r in run.records]
        for a, b in zip(energies, energies[1:]):
            assert b <= 1.1 * a

    def test_k_zero_inapplicable(self):
        _, cert, config, truth, trace = contraction_setup(m_max=1)
        grid = config.grid
        c0 = observer.RecoveryConfig(k=0.0, horizon=4.0, m_max=1, grid=grid,
                                     certificate=cert)
        run = observer.recover(trace, c0, truth=truth)
        report = observer.contraction_report(run, cert)
        assert not report.applicable
        assert "k = 0" in report.reason
        assert report.ok is None

    def test_short_horizon_inapplicable(self):
        t_star, cert, config, truth, _ = contraction_setup(m_max=1)
        horizon = 2.0  # below the certified observation time
        grid = pde.make_grid(1, 201, horizon)
        x = grid.axis()
        truth = pde.WaveField(preset_ic(x), preset_ic(x))
        _, trace, _ = pde.run(truth, horizon, grid)
        c = observer.RecoveryConfig(k=0.1, horizon=horizon, m_max=1, grid=grid,
                                    certificate=cert)
        run = observer.recover(trace, c, truth=truth)
        report = observer.contraction_report(run, cert)
        assert not report.applicable
        assert "does not exceed" in report.reason

    def test_gain_mismatch_inapplicable(self):
        _, cert, config, truth, trace = contraction_setup(m_max=1)
        c = observer.RecoveryConfig(k=1.0, horizon=4.0, m_max=1,
                                    grid=config.grid, certificate=cert)
        run = observer.recover(trace, c, truth=truth)
        report = observer.contraction_report(run, cert)
        assert not report.applicable
        assert "gain" in report.reason

    def test_uncovered_source_inapplicable(self):
        # the certificate has g1 = 0, so it says nothing of a 5 z source
        _, cert, config, truth, trace = contraction_setup(m_max=1)
        source = pde.Nonlinearity(lambda z, x, t: 5.0 * z, fz_bound=5.0)
        c = observer.RecoveryConfig(k=0.1, horizon=4.0, m_max=1, grid=config.grid,
                                    nonlinearity=source, certificate=cert)
        run = observer.recover(trace, c, truth=truth)
        report = observer.contraction_report(run, cert)
        assert not report.applicable and report.ok is None
        assert report.reason == "certificate g1 0 is below the source's fz_bound 5"

    def test_preconditions(self):
        _, cert, config, truth, trace = contraction_setup(m_max=1)
        run = observer.recover(trace, config, truth=truth)
        with pytest.raises(ValueError):
            observer.contraction_report(run, None)
        bare = observer.recover(trace, config)  # no truth
        with pytest.raises(ValueError):
            observer.contraction_report(bare, cert)


def iss_certificate(t_star_factor=1.02):
    params = ProblemParams(n=1, k=1.0, g1=0.2, delta=0.09)
    t_star, _, _ = search.minimal_observability_time(params)
    full = ProblemParams(n=1, k=1.0, g1=0.2, delta=0.09,
                         t_star=t_star * t_star_factor)
    vars = search.find_feasible_vars(full)
    return make_certificate(full, vars)


class TestPerturbedRecover:
    def setup_method(self):
        self.cert = iss_certificate()
        self.grid, self.truth, self.trace = example_setup(2.1)
        self.config = observer.RecoveryConfig(
            k=1.0, horizon=2.1, m_max=10, grid=self.grid,
            nonlinearity=QUADRATIC, certificate=self.cert)
        steps = self.config.steps
        tt = np.arange(steps + 1) * self.grid.dt
        self.noise = pde.BoundaryTrace(1e-3 * np.sin(2 * PI * tt / 2.1),
                                       self.grid.dt)

    def test_zero_noise_identical(self):
        steps = self.config.steps
        zero = pde.BoundaryTrace(np.zeros(steps + 1), self.grid.dt)
        noisy, report = observer.perturbed_recover(self.trace, zero, self.config)
        clean = report.baseline_run
        assert noisy.records == clean.records
        assert np.array_equal(noisy.recovered.z, clean.recovered.z)
        assert np.array_equal(noisy.recovered.zt, clean.recovered.zt)
        assert report.gap_sq == 0.0 and report.ok
        assert report.ratio is None

    def test_gap_bounded(self):
        noisy, report = observer.perturbed_recover(self.trace, self.noise,
                                                   self.config)
        assert report.ok
        assert report.gap_sq <= report.bound
        assert 0.0 < report.ratio < 1.0
        assert noisy.converged
        assert 0.0 < report.delta0 <= 0.09
        # constant assembled from the certified gain and the margin in delta
        _, gamma = compute_iss_gain(self.cert.params, self.cert.vars)
        denom = self.cert.alpha * (1 - math.exp(-2 * report.delta0
                                                * self.cert.params.t_star))
        assert abs(report.c_constant - gamma / denom) < 1e-12 * report.c_constant

    def test_quadratic_scaling_exact(self):
        _, r1 = observer.perturbed_recover(self.trace, self.noise, self.config)
        doubled = pde.BoundaryTrace(2.0 * self.noise.samples, self.grid.dt)
        _, r2 = observer.perturbed_recover(self.trace, doubled, self.config)
        assert r2.noise_integral == 4.0 * r1.noise_integral
        assert r2.bound == 4.0 * r1.bound

    def test_validation(self):
        steps = self.config.steps
        with pytest.raises(ValueError):
            observer.perturbed_recover(self.trace, np.zeros(steps + 1),
                                       self.config)
        with pytest.raises(ValueError):
            observer.perturbed_recover(
                self.trace, pde.BoundaryTrace(np.zeros(steps + 3), self.grid.dt),
                self.config)
        with pytest.raises(ValueError):
            observer.perturbed_recover(
                self.trace,
                pde.BoundaryTrace(np.zeros(steps + 1), 2 * self.grid.dt),
                self.config)
        bare = observer.RecoveryConfig(k=1.0, horizon=2.1, m_max=1,
                                       grid=self.grid, nonlinearity=QUADRATIC)
        with pytest.raises(ValueError):
            observer.perturbed_recover(self.trace, self.noise, bare)

    def test_uncovered_source_rejected(self):
        # the certificate's g1 = 0.2 does not bound the slope 0.5 of the source
        steep = pde.Nonlinearity(lambda z, x, t: 0.5 * z, fz_bound=0.5)
        config = observer.RecoveryConfig(
            k=1.0, horizon=2.1, m_max=1, grid=self.grid, nonlinearity=steep,
            certificate=self.cert)
        with pytest.raises(ValueError, match="g1 0.2 is below the source's fz_bound 0.5"):
            observer.perturbed_recover(self.trace, self.noise, config)


class TestPerturbedRecover2D:
    def test_noise_integral_matches_reference(self):
        # the 2-D faces x1 = 1 and x2 = 1, the corner on both
        params = ProblemParams(n=2, k=1.0, g1=0.0, delta=0.05)
        t_star, _, _ = search.minimal_observability_time(params)
        full = ProblemParams(n=2, k=1.0, g1=0.0, delta=0.05, t_star=t_star * 1.02)
        cert = make_certificate(full, search.find_feasible_vars(full))
        grid = pde.make_grid(2, 17, 0.8)
        x1, x2 = grid.coords()
        truth = pde.WaveField(0.3 * np.sin(PI * x1 / 2) * np.sin(PI * x2 / 2),
                              np.zeros_like(x1))
        _, trace, _ = pde.run(truth, 0.8, grid)
        config = observer.RecoveryConfig(k=1.0, horizon=0.8, m_max=2, grid=grid,
                                         certificate=cert)
        rng = np.random.default_rng(29)
        shape = trace.samples.shape
        w = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 0, shape)
        w[rng.random(shape) < 0.1] = -0.0
        noise = pde.BoundaryTrace(w, grid.dt)
        _, report = observer.perturbed_recover(trace, noise, config)
        want = float(np.trapezoid(ref_boundary_sq_integral(w, grid), dx=grid.dt))
        assert np.asarray(report.noise_integral).tobytes() == np.asarray(want).tobytes()
        assert report.noise_integral > 0.0
        with pytest.raises(ValueError):
            observer.perturbed_recover(
                trace, pde.BoundaryTrace(w[:, :7], grid.dt), config)


class TestRegionalGuard:
    def test_no_regional_data_no_guard(self):
        grid, truth, trace = example_setup(2.1)
        config = observer.RecoveryConfig(k=1.0, horizon=2.1, m_max=2,
                                         grid=grid, nonlinearity=QUADRATIC)
        run = observer.recover(trace, config, truth=truth)
        assert run.regional_guard_ok is None

    def test_guard_holds_inside_region(self):
        cert = stability_certificate(d=0.5)
        grid, truth, trace = example_setup(2.1)
        config = observer.RecoveryConfig(k=1.0, horizon=2.1, m_max=3,
                                         grid=grid, nonlinearity=QUADRATIC,
                                         certificate=cert)
        run = observer.recover(trace, config, truth=truth)
        assert run.regional_guard_ok is True

    def test_guard_trips_on_small_region(self):
        cert = stability_certificate(d=0.01)
        grid, truth, trace = example_setup(2.1)
        config = observer.RecoveryConfig(k=1.0, horizon=2.1, m_max=2,
                                         grid=grid, nonlinearity=QUADRATIC,
                                         certificate=cert)
        run = observer.recover(trace, config, truth=truth)
        assert run.regional_guard_ok is False

    def test_local_radius_participates(self):
        tight = pde.Nonlinearity(lambda z, x, t: 0.1 * z * z, fz_bound=0.2,
                                 local_radius=0.05)
        cert = stability_certificate(d=0.5)
        grid, truth, trace = example_setup(2.1, nonlinearity=tight)
        config = observer.RecoveryConfig(k=1.0, horizon=2.1, m_max=2,
                                         grid=grid, nonlinearity=tight,
                                         certificate=cert)
        run = observer.recover(trace, config, truth=truth)
        assert run.regional_guard_ok is False


class TestSerialization:
    def test_production_shape(self):
        grid, truth, trace = example_setup(2.1, n_points=101)
        config = observer.RecoveryConfig(k=1.0, horizon=2.1, m_max=3,
                                         grid=grid, nonlinearity=QUADRATIC,
                                         convergence_threshold=1e-15,
                                         stop_early=False)
        run = observer.recover(trace, config)
        data = json.loads(observer.run_to_json(run))
        assert set(data) == {"iterations", "converged", "diverged"}
        assert data["converged"] is False and data["diverged"] is False
        assert [row["m"] for row in data["iterations"]] == [1, 2, 3]
        assert set(data["iterations"][0]) == {"m", "succ_change"}
        assert set(data["iterations"][1]) == {"m", "ratio", "succ_change"}

    def test_truth_shape(self):
        grid, truth, trace = example_setup(2.1, n_points=101)
        cert = stability_certificate(d=0.5)
        config = observer.RecoveryConfig(k=1.0, horizon=2.1, m_max=2,
                                         grid=grid, nonlinearity=QUADRATIC,
                                         certificate=cert)
        run = observer.recover(trace, config, truth=truth)
        data = json.loads(observer.run_to_json(run))
        assert "final_error_vs_truth" in data
        assert data["regional_guard_ok"] is True
        row = data["iterations"][0]
        assert set(row) == {"m", "E_b_t0", "V_b_t0", "ratio", "succ_change"}
        assert row["E_b_t0"] == run.records[0].E_b_t0

    def test_round_trip_floats(self):
        grid, truth, trace = example_setup(1.5, n_points=101)
        config = observer.RecoveryConfig(k=1.0, horizon=1.5, m_max=2,
                                         grid=grid, nonlinearity=QUADRATIC,
                                         convergence_threshold=1e-15,
                                         stop_early=False)
        run = observer.recover(trace, config, truth=truth)
        data = json.loads(observer.run_to_json(run))
        assert data["final_error_vs_truth"] == run.final_error_vs_truth
        assert data["iterations"][1]["ratio"] == run.records[1].ratio
