"""Tests for the iterative forward/backward recovery loop and its reports.

The loop itself is checked against the standalone reference sweep from
test_pde (an independent transcription of the integrator), and the
qualitative convergence split and contraction-rate numbers are frozen from
reference runs of that transcription.
"""

import gc
import json
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from test_pde import oracle_recover_once, oracle_run_1d, ref_boundary_sq_integral

from wavecert import observer, pde, search
from wavecert.certificates import (CertificateError, ProblemParams, _q_at,
                                   certificate_from_dict, certificate_to_dict,
                                   compute_iss_gain, make_certificate)

PI = math.pi

QUADRATIC = pde.Nonlinearity(lambda z, x, t: 0.1 * z * z, fz_bound=0.2,
                             local_radius=1.0)


def preset_ic(x):
    return 0.2733 * x * (1 - x / 2)


def example_setup(horizon, n_points=201, nonlinearity=QUADRATIC):
    """Plant run with the quadratic source and the polynomial preset."""
    grid = pde.make_grid(1, n_points, horizon, k=1.0)
    x = grid.axis()
    truth = pde.WaveField(preset_ic(x), preset_ic(x))
    trace = pde.run(truth, horizon, grid, nonlinearity).trace
    return grid, truth, trace


def stability_certificate(d=None):
    """Feasible decay certificate for the quadratic-source example."""
    params = ProblemParams(n=1, k=1.0, g1=0.2, delta=0.09, d=d)
    return make_certificate(params, search.find_feasible_vars(params))


def contraction_setup(horizon=4.0, m_max=6):
    """Certified linear pipeline: k=0.1, delta=0.08, T* ~ 2.41."""
    params = ProblemParams(n=1, k=0.1, g1=0.0, delta=0.08)
    t_star, _, cert = search.minimal_observability_time(params)
    grid = pde.make_grid(1, 201, horizon, k=0.1)
    x = grid.axis()
    truth = pde.WaveField(preset_ic(x), preset_ic(x))
    trace = pde.run(truth, horizon, grid).trace
    config = observer.RecoveryConfig(horizon=horizon, m_max=m_max,
                                     grid=grid, certificate=cert,
                                     convergence_threshold=1e-12)
    return t_star, cert, config, truth, trace


class TestRecoveryConfig:
    def test_defaults(self):
        g = pde.make_grid(1, 101, 2.0)
        c = observer.RecoveryConfig(horizon=2.0, m_max=10, grid=g)
        assert c.convergence_threshold == 1e-3
        assert c.nonlinearity is pde.ZERO_F
        assert c.certificate is None and not hasattr(c, "stop_early")
        assert c.steps == round(2.0 / g.dt)

    def test_validation(self):
        g = pde.make_grid(1, 101, 2.0)
        with pytest.raises(ValueError):
            observer.RecoveryConfig(horizon=0.0, m_max=1, grid=g)
        with pytest.raises(ValueError):
            observer.RecoveryConfig(horizon=2.0, m_max=0, grid=g)
        with pytest.raises(ValueError):
            observer.RecoveryConfig(horizon=2.0, m_max=True, grid=g)
        with pytest.raises(ValueError):
            observer.RecoveryConfig(horizon=2.0, m_max=math.inf, grid=g)
        with pytest.raises(ValueError):
            observer.RecoveryConfig(horizon=2.0, m_max=1, grid=g,
                                    convergence_threshold=0.0)
        with pytest.raises(ValueError):
            observer.RecoveryConfig(horizon=2.0, m_max=1, grid="grid")
        with pytest.raises(ValueError):
            observer.RecoveryConfig(horizon=2.0, m_max=1, grid=g,
                                    nonlinearity=lambda z, x, t: z)
        # horizon must land on the step grid
        with pytest.raises(ValueError):
            observer.RecoveryConfig(horizon=2.0 + 0.4 * g.dt, m_max=1,
                                    grid=g)

    def test_work_budget(self):
        # 2 runs x m_max iterations x steps x nodes, checked before any array
        # exists, so no iteration count makes a recovery run for days
        g = pde.make_grid(2, 81, 2.0, k=1.0)
        per_iteration = 2 * pde.whole_steps(2.0, g.dt) * 81 ** 2
        most = observer.MAX_RECOVERY_NODE_STEPS // per_iteration
        assert observer.RecoveryConfig(horizon=2.0, m_max=most, grid=g).m_max == most
        for m_max in (most + 1, 10 ** 12):
            with pytest.raises(ValueError, match="node-steps, more than 10000000000"):
                observer.RecoveryConfig(horizon=2.0, m_max=m_max, grid=g)
        # 100x over the benchmark's 2-D recovery: N=81, 315 steps, 10 iterations
        assert 100 * 2 * 10 * 315 * 81 ** 2 < observer.MAX_RECOVERY_NODE_STEPS


class TestRecover:
    def test_linear_recovery_within_two_percent(self):
        grid = pde.make_grid(1, 201, 3.0, k=1.0)
        x = grid.axis()
        truth = pde.WaveField(np.sin(PI * x / 2), np.zeros_like(x))
        trace = pde.run(truth, 3.0, grid).trace
        config = observer.RecoveryConfig(horizon=3.0, m_max=10,
                                         grid=grid)
        run = observer.recover(trace, config, truth=truth)
        assert run.final_error_vs_truth <= 0.02
        assert run.converged and not run.diverged

    def test_no_run_trace_outlives_the_next_run(self, monkeypatch):
        # recover keeps each run's state and energies only: a trace it kept
        # would hold steps x nodes floats per run; with the cyclic collector
        # off, the trace must be freed by the time the next run starts
        horizon = 1.2
        grid, truth, trace = example_setup(horizon, n_points=41)
        config = observer.RecoveryConfig(horizon=horizon, m_max=3, grid=grid,
                                         nonlinearity=QUADRATIC,
                                         convergence_threshold=1e-15)
        real_run, kept = pde.run, []

        def run(*args, **kwargs):
            assert [ref() for ref in kept] == [None] * len(kept)
            result = real_run(*args, **kwargs)
            kept.extend((weakref.ref(result.trace), weakref.ref(result.trace.samples)))
            return result

        monkeypatch.setattr(pde, "run", run)
        gc.collect()
        gc.disable()
        try:
            observer.recover(trace, config, truth=truth)
        finally:
            gc.enable()
        assert len(kept) == 2 * 2 * 3
        assert [ref() for ref in kept] == [None] * len(kept)

    def test_matches_reference_sweep(self):
        horizon = 1.2
        grid, truth, trace = example_setup(horizon, n_points=101)
        config = observer.RecoveryConfig(horizon=horizon, m_max=3,
                                         grid=grid, nonlinearity=QUADRATIC,
                                         convergence_threshold=1e-15)
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
        grid = pde.make_grid(1, 101, 1.0, k=1.0)
        steps = round(1.0 / grid.dt)
        trace = pde.BoundaryTrace(np.zeros(steps + 1), grid.dt)
        config = observer.RecoveryConfig(horizon=1.0, m_max=5,
                                         grid=grid, nonlinearity=QUADRATIC)
        run = observer.recover(trace, config)
        assert run.converged and len(run.records) == 1
        assert run.stop_reason == "converged"
        assert run.records[0].succ_change == 0.0
        assert run.records[0].E_fwd_peak == run.records[0].E_back_peak == 0.0
        assert np.all(run.recovered.z == 0.0)
        assert np.all(run.recovered.zt == 0.0)

    def test_production_records_have_no_truth_fields(self):
        grid, truth, trace = example_setup(2.1)
        config = observer.RecoveryConfig(horizon=2.1, m_max=4,
                                         grid=grid, nonlinearity=QUADRATIC,
                                         convergence_threshold=1e-15)
        run = observer.recover(trace, config)
        assert all(r.E_b_t0 is None and r.V_b_t0 is None for r in run.records)
        assert run.records[0].ratio is None
        assert all(r.ratio is not None for r in run.records[1:])
        assert all(r.succ_change is not None for r in run.records)
        assert run.E_b_initial is None and run.final_error_vs_truth is None

    def test_truth_records(self):
        grid, truth, trace = example_setup(2.1)
        cert = stability_certificate()
        config = observer.RecoveryConfig(horizon=2.1, m_max=3,
                                         grid=grid, nonlinearity=QUADRATIC,
                                         certificate=cert,
                                         convergence_threshold=1e-15)
        run = observer.recover(trace, config, truth=truth)
        gf = pde.Grid(1, 201, grid.dt, "observer-forward", 1.0)
        assert abs(run.E_b_initial - pde.energy(truth, gf)) < 1e-15
        want_v0 = pde.lyapunov(pde.WaveField(truth.z, -truth.zt), gf,
                               cert.vars.chi)
        assert abs(run.V_b_initial - want_v0) < 1e-15
        assert run.records[0].ratio == run.records[0].E_b_t0 / run.E_b_initial
        assert all(r.E_b_t0 is not None and r.V_b_t0 is not None
                   for r in run.records)

    def test_recovered_time_stamp_and_budget(self):
        grid, truth, trace = example_setup(1.5, n_points=101)
        shifted = pde.BoundaryTrace(trace.samples, trace.dt, t0=0.5)
        config = observer.RecoveryConfig(horizon=1.5, m_max=2,
                                         grid=grid, nonlinearity=QUADRATIC,
                                         convergence_threshold=1e-15)
        run = observer.recover(shifted, config)
        assert run.recovered.t == 0.5
        assert len(run.records) == 2

    def test_trace_mismatches_rejected(self):
        grid = pde.make_grid(1, 101, 1.0, k=1.0)
        steps = round(1.0 / grid.dt)
        config = observer.RecoveryConfig(horizon=1.0, m_max=1, grid=grid)
        with pytest.raises(ValueError):
            observer.recover(np.zeros(steps + 1), config)
        with pytest.raises(ValueError):
            observer.recover(pde.BoundaryTrace(np.zeros(steps + 5), grid.dt),
                             config)
        with pytest.raises(ValueError):
            observer.recover(pde.BoundaryTrace(np.zeros(steps + 1), 2 * grid.dt),
                             config)
        g2 = pde.make_grid(2, 31, 1.0, k=1.0)
        c2 = observer.RecoveryConfig(horizon=1.0, m_max=1, grid=g2)
        bad = pde.BoundaryTrace(np.zeros((c2.steps + 1, 7)), g2.dt)
        with pytest.raises(ValueError):
            observer.recover(bad, c2)

    def test_truth_shape_rejected(self):
        grid, truth, trace = example_setup(1.0, n_points=101)
        config = observer.RecoveryConfig(horizon=1.0, m_max=1, grid=grid)
        bad = pde.WaveField(np.zeros(51), np.zeros(51))
        with pytest.raises(ValueError, match=r"\(51,\) does not match .* \(101,\)"):
            observer.recover(trace, config, truth=bad)

    def test_two_dimensional_recovery(self):
        horizon = 3.5
        grid = pde.make_grid(2, 61, horizon, k=1.0)
        x1, x2 = grid.coords()
        mode = np.sin(PI * x1 / 2) * np.sin(PI * x2 / 2)
        truth = pde.WaveField(0.3 * mode, 0.1 * mode)
        trace = pde.run(truth, horizon, grid).trace
        config = observer.RecoveryConfig(horizon=horizon, m_max=6,
                                         grid=grid)
        run = observer.recover(trace, config, truth=truth)
        assert run.converged
        assert run.final_error_vs_truth <= 1e-4


class TestConvergenceSplit:
    def test_converges_on_long_window(self):
        grid, truth, trace = example_setup(2.1)
        config = observer.RecoveryConfig(horizon=2.1, m_max=10,
                                         grid=grid, nonlinearity=QUADRATIC)
        run = observer.recover(trace, config, truth=truth)
        assert run.converged and not run.diverged
        assert run.stop_reason == "converged"
        assert len(run.records) <= 10
        assert run.records[-1].succ_change < 1e-3
        assert run.records[-1].succ_change < 5e-4  # measured 1.6e-4 at m=2
        assert run.final_error_vs_truth <= 0.01

    def test_fails_on_short_window(self):
        grid, truth, trace = example_setup(1.8)
        config = observer.RecoveryConfig(horizon=1.8, m_max=10,
                                         grid=grid, nonlinearity=QUADRATIC)
        run = observer.recover(trace, config, truth=truth)
        assert not run.converged and not run.diverged
        assert run.stop_reason == "out of budget"
        assert len(run.records) == 10
        assert all(r.succ_change >= 1e-3 for r in run.records)

    def test_divergence_flag_not_exception(self):
        grid = pde.make_grid(1, 101, 2.0, k=1.0)
        x = grid.axis()
        truth = pde.WaveField(np.sin(PI * x / 2) * 0.1, np.zeros_like(x))
        nl = pde.Nonlinearity(lambda z, x, t: 30.0 * z, fz_bound=30.0)
        with np.errstate(all="ignore"):
            trace = pde.run(truth, 2.0, grid, nl).trace
            config = observer.RecoveryConfig(horizon=2.0, m_max=8,
                                             grid=grid, nonlinearity=nl)
            run = observer.recover(trace, config)
        assert run.diverged and not run.converged
        assert run.stop_reason == "diverged"
        # the sweep whose peak energy passed the bound keeps its record
        assert 2 <= len(run.records) < 8
        assert run.records[-1].E_back_peak > (observer.DIVERGENCE_FACTOR
                                              * run.records[0].E_fwd_peak)

    def test_overflowing_energy_is_divergence(self):
        # a finite trace of 1e160 drives a finite field whose energy overflows
        grid = pde.make_grid(1, 41, 1.0, k=1.0)
        steps = int(round(1.0 / grid.dt))
        trace = pde.BoundaryTrace(np.full(steps + 1, 1e160), grid.dt)
        config = observer.RecoveryConfig(horizon=1.0, m_max=4, grid=grid)
        with np.errstate(over="ignore", invalid="ignore"):
            run = observer.recover(trace, config)
        assert run.diverged and not run.converged
        # the first sweep raised DivergenceError, which leaves no record
        assert run.stop_reason == "diverged"
        assert run.records == ()

    def test_records_keep_each_sweeps_peak_energies(self, monkeypatch):
        grid, truth, trace = example_setup(1.2, n_points=101)
        config = observer.RecoveryConfig(horizon=1.2, m_max=3, grid=grid,
                                         nonlinearity=QUADRATIC,
                                         convergence_threshold=1e-15)
        real_sweep, peaks = observer._sweep, []

        def sweep(*args):
            result = real_sweep(*args)
            peaks.append((float(np.max(result[2])), float(np.max(result[3]))))
            return result

        monkeypatch.setattr(observer, "_sweep", sweep)
        run = observer.recover(trace, config, truth=truth)
        assert run.stop_reason == "out of budget" and len(peaks) == 3
        assert [(r.E_fwd_peak, r.E_back_peak) for r in run.records] == peaks
        assert all(fwd > 0.0 and back > 0.0 for fwd, back in peaks)

    @pytest.mark.parametrize("reason", ["converged", "diverged", "out of budget"])
    def test_outcome_flags_are_read_from_the_stop_reason(self, reason):
        run = observer.RecoveryRun(records=(), recovered=None, stop_reason=reason)
        assert run.converged is (reason == "converged")
        assert run.diverged is (reason == "diverged")
        with pytest.raises(AttributeError):
            run.converged = True
        with pytest.raises(TypeError, match="stop_reason"):
            observer.RecoveryRun(records=(), recovered=None)


class TestContractionReport:
    def test_certified_pipeline(self):
        t_star, cert, config, truth, trace = contraction_setup()
        run = observer.recover(trace, config, truth=truth)
        report = observer.contraction_report(run)
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
        c0 = observer.RecoveryConfig(horizon=4.0, m_max=1,
                                     grid=replace(config.grid, k=0.0),
                                     certificate=cert)
        run = observer.recover(trace, c0, truth=truth)
        report = observer.contraction_report(run)
        assert not report.applicable
        assert "k = 0" in report.reason
        assert report.ok is None

    def test_short_horizon_inapplicable(self):
        t_star, cert, config, truth, _ = contraction_setup(m_max=1)
        horizon = 2.0  # below the certified observation time
        grid = pde.make_grid(1, 201, horizon, k=0.1)
        x = grid.axis()
        truth = pde.WaveField(preset_ic(x), preset_ic(x))
        trace = pde.run(truth, horizon, grid).trace
        c = observer.RecoveryConfig(horizon=horizon, m_max=1, grid=grid,
                                    certificate=cert)
        run = observer.recover(trace, c, truth=truth)
        report = observer.contraction_report(run)
        assert not report.applicable
        assert "does not exceed" in report.reason

    def test_gain_mismatch_inapplicable(self):
        _, cert, config, truth, trace = contraction_setup(m_max=1)
        c = observer.RecoveryConfig(horizon=4.0, m_max=1,
                                    grid=replace(config.grid, k=1.0),
                                    certificate=cert)
        run = observer.recover(trace, c, truth=truth)
        report = observer.contraction_report(run)
        assert not report.applicable
        assert "gain" in report.reason

    def test_uncovered_source_inapplicable(self):
        # the certificate has g1 = 0, so it says nothing of a 5 z source
        _, cert, config, truth, trace = contraction_setup(m_max=1)
        source = pde.Nonlinearity(lambda z, x, t: 5.0 * z, fz_bound=5.0)
        c = observer.RecoveryConfig(horizon=4.0, m_max=1, grid=config.grid,
                                    nonlinearity=source, certificate=cert)
        run = observer.recover(trace, c, truth=truth)
        report = observer.contraction_report(run)
        assert not report.applicable and report.ok is None
        assert report.reason == "certificate g1 0 is below the source's fz_bound 5"

    def test_stability_certificate_inapplicable(self):
        # no t_star: the certificate bounds decay, not the sweep's contraction
        cert = stability_certificate()
        grid, truth, trace = example_setup(2.1, n_points=101)
        config = observer.RecoveryConfig(horizon=2.1, m_max=1, grid=grid,
                                         nonlinearity=QUADRATIC, certificate=cert)
        run = observer.recover(trace, config, truth=truth)
        report = observer.contraction_report(run)
        assert not report.applicable and report.ok is None
        assert report.reason == "certificate carries no observation time"

    def test_preconditions(self):
        # V_b needs both the truth and the run's certificate
        _, cert, config, truth, trace = contraction_setup(m_max=1)
        no_cert = observer.recover(trace, replace(config, certificate=None),
                                   truth=truth)
        no_truth = observer.recover(trace, config)
        for run in (no_cert, no_truth):
            with pytest.raises(ValueError, match="lacks ground-truth Lyapunov records"):
                observer.contraction_report(run)


def iss_certificate(t_star_factor=1.02):
    params = ProblemParams(n=1, k=1.0, g1=0.2, delta=0.09)
    t_star, _, _ = search.minimal_observability_time(params)
    full = ProblemParams(n=1, k=1.0, g1=0.2, delta=0.09,
                         t_star=t_star * t_star_factor)
    vars = search.find_feasible_vars(full)
    return make_certificate(full, vars)


class TestPerturbedRecover:
    HORIZON = 6.0  # past the certificate's t_star = 1.02 * 5.457 = 5.566

    def setup_method(self):
        self.cert = iss_certificate()
        self.grid, self.truth, self.trace = example_setup(self.HORIZON)
        self.config = observer.RecoveryConfig(
            horizon=self.HORIZON, m_max=10, grid=self.grid,
            nonlinearity=QUADRATIC, certificate=self.cert)
        steps = self.config.steps
        tt = np.arange(steps + 1) * self.grid.dt
        self.noise = pde.BoundaryTrace(1e-3 * np.sin(2 * PI * tt / self.HORIZON),
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

    def test_gain_comes_from_the_lmis(self):
        # a certificate document cannot carry its own r or gamma, which
        # would scale the ISS bound to whatever it said
        doc = certificate_to_dict(self.cert)
        for extra in ({"gamma": 1e-30}, {"gamma": 1e30}, {"r": 5}):
            bad = dict(doc, vars=dict(doc["vars"], **extra))
            with pytest.raises(CertificateError, match="unknown variable keys"):
                certificate_from_dict(bad)
        config = replace(self.config, certificate=certificate_from_dict(doc))
        _, report = observer.perturbed_recover(self.trace, self.noise, config)
        _, gamma = compute_iss_gain(self.cert.params, self.cert.vars)
        assert report.c_constant * report.noise_integral == report.bound
        assert report.c_constant == gamma / (self.cert.alpha * (
            1.0 - math.exp(-2.0 * report.delta0 * self.cert.params.t_star)))

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
        bare = observer.RecoveryConfig(horizon=self.HORIZON, m_max=1,
                                       grid=self.grid, nonlinearity=QUADRATIC)
        with pytest.raises(ValueError):
            observer.perturbed_recover(self.trace, self.noise, bare)

    def test_overflowing_sum_rejected(self, monkeypatch):
        # two finite traces whose sum overflows: rejected as BoundaryTrace
        # rejects non-finite samples, with no RuntimeWarning, once the clean
        # run is done; a finite sum reaches recover as y + w itself
        traces = []

        def recover(measurements, config, truth=None):
            traces.append(measurements)
            return observer.RecoveryRun(records=(), recovered=self.truth,
                                        stop_reason="out of budget", config=config)

        monkeypatch.setattr(observer, "recover", recover)
        big = pde.BoundaryTrace(np.full(self.config.steps + 1, 1e308), self.grid.dt)
        with pytest.raises(ValueError, match="^trace samples must be finite$"):
            observer.perturbed_recover(big, big, self.config)
        assert len(traces) == 1 and traces[0] is big
        del traces[:]
        observer.perturbed_recover(self.trace, self.noise, self.config)
        assert traces[0] is self.trace and len(traces) == 2
        assert np.array_equal(traces[1].samples, self.trace.samples + self.noise.samples)
        assert (traces[1].dt, traces[1].t0) == (self.trace.dt, self.trace.t0)

    def test_uncovered_source_rejected(self):
        # the certificate's g1 = 0.2 does not bound the slope 0.5 of the source
        steep = pde.Nonlinearity(lambda z, x, t: 0.5 * z, fz_bound=0.5)
        config = observer.RecoveryConfig(
            horizon=self.HORIZON, m_max=1, grid=self.grid, nonlinearity=steep,
            certificate=self.cert)
        with pytest.raises(ValueError, match="g1 0.2 is below the source's fz_bound 0.5"):
            observer.perturbed_recover(self.trace, self.noise, config)

    def test_certificate_for_another_gain_rejected(self):
        # the certificate's LMIs were solved at k = 1; they bound nothing
        # of a run whose boundary gain is 0.5
        config = replace(self.config, m_max=1, grid=replace(self.grid, k=0.5))
        with pytest.raises(ValueError,
                           match="^certificate gain 1 differs from the run gain 0.5$"):
            observer.perturbed_recover(self.trace, self.noise, config)

    def test_window_within_t_star_rejected(self):
        # the certificate says nothing of a window it does not cover: the
        # same reason contraction_report gives the same run
        grid, truth, trace = example_setup(2.1, n_points=101)
        config = observer.RecoveryConfig(horizon=2.1, m_max=1, grid=grid,
                                         nonlinearity=QUADRATIC, certificate=self.cert)
        reason = observer.contraction_report(
            observer.recover(trace, config, truth=truth)).reason
        assert reason == "horizon 2.1 does not exceed the observation time %g" \
            % self.cert.params.t_star
        zero = pde.BoundaryTrace(np.zeros(config.steps + 1), grid.dt)
        with pytest.raises(ValueError) as caught:
            observer.perturbed_recover(trace, zero, config)
        assert str(caught.value) == reason


class TestPerturbedRecover2D:
    def test_noise_integral_matches_reference(self):
        # the 2-D faces x1 = 1 and x2 = 1, the corner on both
        params = ProblemParams(n=2, k=1.0, g1=0.0, delta=0.05)
        t_star, _, _ = search.minimal_observability_time(params)
        full = ProblemParams(n=2, k=1.0, g1=0.0, delta=0.05, t_star=t_star * 1.02)
        cert = make_certificate(full, search.find_feasible_vars(full))
        horizon = 4.5  # past the certificate's t_star = 1.02 * 4.109 = 4.191
        grid = pde.make_grid(2, 17, horizon, k=1.0)
        x1, x2 = grid.coords()
        truth = pde.WaveField(0.3 * np.sin(PI * x1 / 2) * np.sin(PI * x2 / 2),
                              np.zeros_like(x1))
        trace = pde.run(truth, horizon, grid).trace
        config = observer.RecoveryConfig(horizon=horizon, m_max=2, grid=grid,
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
        config = observer.RecoveryConfig(horizon=2.1, m_max=2,
                                         grid=grid, nonlinearity=QUADRATIC)
        run = observer.recover(trace, config, truth=truth)
        assert run.regional_guard_ok is None

    def test_guard_holds_inside_region(self):
        cert = stability_certificate(d=0.5)
        grid, truth, trace = example_setup(2.1)
        config = observer.RecoveryConfig(horizon=2.1, m_max=3,
                                         grid=grid, nonlinearity=QUADRATIC,
                                         certificate=cert)
        run = observer.recover(trace, config, truth=truth)
        assert run.regional_guard_ok is True

    def test_guard_trips_on_small_region(self):
        cert = stability_certificate(d=0.01)
        grid, truth, trace = example_setup(2.1)
        config = observer.RecoveryConfig(horizon=2.1, m_max=2,
                                         grid=grid, nonlinearity=QUADRATIC,
                                         certificate=cert)
        run = observer.recover(trace, config, truth=truth)
        assert run.regional_guard_ok is False

    def test_guard_trips_inside_the_loop(self):
        # without the truth the guard starts out holding; the estimates,
        # which approach the truth (max |z| 0.137), leave the radius 0.05
        cert = stability_certificate(d=0.05)
        grid, truth, trace = example_setup(2.1, n_points=101)
        config = observer.RecoveryConfig(horizon=2.1, m_max=2,
                                         grid=grid, nonlinearity=QUADRATIC,
                                         certificate=cert)
        run = observer.recover(trace, config)
        assert float(np.max(np.abs(truth.z))) > 0.05
        assert run.regional_guard_ok is False

    def test_local_radius_participates(self):
        tight = pde.Nonlinearity(lambda z, x, t: 0.1 * z * z, fz_bound=0.2,
                                 local_radius=0.05)
        cert = stability_certificate(d=0.5)
        grid, truth, trace = example_setup(2.1, nonlinearity=tight)
        config = observer.RecoveryConfig(horizon=2.1, m_max=2,
                                         grid=grid, nonlinearity=tight,
                                         certificate=cert)
        run = observer.recover(trace, config, truth=truth)
        assert run.regional_guard_ok is False


class TestSerialization:
    def test_production_shape(self):
        grid, truth, trace = example_setup(2.1, n_points=101)
        config = observer.RecoveryConfig(horizon=2.1, m_max=3,
                                         grid=grid, nonlinearity=QUADRATIC,
                                         convergence_threshold=1e-15)
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
        config = observer.RecoveryConfig(horizon=2.1, m_max=2,
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
        config = observer.RecoveryConfig(horizon=1.5, m_max=2,
                                         grid=grid, nonlinearity=QUADRATIC,
                                         convergence_threshold=1e-15)
        run = observer.recover(trace, config, truth=truth)
        data = json.loads(observer.run_to_json(run))
        assert data["final_error_vs_truth"] == run.final_error_vs_truth
        assert data["iterations"][1]["ratio"] == run.records[1].ratio


class TestSweep:
    def test_matches_reference_sweep(self, monkeypatch):
        # from a nonzero estimate on a window that starts at t0 = 0.5
        horizon = 1.2
        grid, truth, trace = example_setup(horizon, n_points=101)
        shifted = pde.BoundaryTrace(trace.samples, trace.dt, t0=0.5)
        config = observer.RecoveryConfig(horizon=horizon, m_max=1, grid=grid,
                                         nonlinearity=QUADRATIC)
        grids = (replace(grid, mode="observer-forward"),
                 replace(grid, mode="observer-backward"))
        x = grid.axis()
        estimate = pde.WaveField(0.5 * preset_ic(x), -0.3 * preset_ic(x), 0.5)
        real_run, runs = pde.run, []

        def run(*args, **kwargs):
            runs.append(real_run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(pde, "run", run)
        forward, estimate_next, e_fwd, e_back = observer._sweep(
            estimate, grids, config, shifted)
        steps = config.steps
        y = trace.samples[:, 0]
        fz, fv, _ = oracle_run_1d(estimate.z, estimate.zt, grid.dx, grid.dt, steps,
                                  f=QUADRATIC.f, t0=0.5, k=1.0, trace=y)
        oz, ov = oracle_recover_once(estimate.z, estimate.zt, grid.dx, grid.dt,
                                     steps, QUADRATIC.f, 1.0, y, t0=0.5)
        for got, want in ((forward.z, fz), (forward.zt, fv),
                          (estimate_next.z, oz), (estimate_next.zt, ov)):
            assert np.allclose(got, want, rtol=1e-9, atol=1e-13)
        # the next estimate is the backward run's own field, at the window start
        assert [r.final for r in runs] == [forward, estimate_next]
        assert estimate_next.t == 0.5
        assert forward.t == pytest.approx(0.5 + horizon)
        assert e_fwd is runs[0].energies and e_back is runs[1].energies
        assert e_fwd[-1] == pde.energy(forward, grid)
        assert e_back[-1] == pde.energy(estimate_next, grid)


def power_iteration(n, horizon, sweeps, k=0.5, seed=0):
    """The per-sweep hnorm ratios of the error sweep map on a 1-D grid,
    f = 0: observer._sweep against the zero measurement, from a seeded
    rough error (every grid mode) rescaled to unit hnorm after each sweep.
    The last ratio estimates the dominant contraction rho(T)."""
    grid = pde.make_grid(1, n, horizon, k=k)
    config = observer.RecoveryConfig(horizon=horizon, m_max=1, grid=grid)
    grids = (replace(grid, mode="observer-forward"),
             replace(grid, mode="observer-backward"))
    zeros = pde.zero_trace(grid, horizon)
    rng = np.random.default_rng(seed)
    z, zt = rng.normal(size=n), rng.normal(size=n)
    z[0] = zt[0] = 0.0
    error = pde.WaveField(z, zt)
    scale = pde.hnorm(error, grid)
    ratios = []
    for _ in range(sweeps):
        error = pde.WaveField(error.z / scale, error.zt / scale)
        _, error, _, _ = observer._sweep(error, grids, config, zeros)
        scale = pde.hnorm(error, grid)
        ratios.append(scale)
    return ratios


class TestDiscreteContraction:
    """The sweep map contracts by ((1 - k)/(1 + k))^2 past the travel time
    2 and barely below it (Ramdani, Tucsnak & Weiss, Automatica 2010), and
    only the smoothing makes it contract at every grid size: without it
    the last ratio is 0.996-1.0001 on the three windows past it here."""

    K = 0.5
    RHO = ((1.0 - K) / (1.0 + K)) ** 2

    def test_past_the_travel_time(self):
        # measured 0.1081 after 12 sweeps, against 1/9
        rho = power_iteration(101, 2.1, 12, self.K)[-1]
        assert abs(rho / self.RHO - 1.0) <= 0.05, rho

    def test_below_the_travel_time(self):
        # measured 0.9807
        assert power_iteration(101, 1.9, 12, self.K)[-1] > 0.9

    @pytest.mark.parametrize("n", [51, 201])
    def test_the_smoothing_contracts_at_every_grid_size(self, n):
        # measured 0.1089 at N = 51, 0.1079 at N = 201
        assert power_iteration(n, 2.5, 12, self.K)[-1] < 0.2

    @pytest.mark.parametrize("horizon", [4.0, 6.0])
    def test_the_certificate_bounds_the_contraction(self, horizon):
        # one sweep scales the error energy by at most (beta/alpha) q: for
        # the pinned-delta certificate (t* = 2.2316, beta/alpha = 1.25) the
        # bound is 0.878 at T = 4 and 0.588 at T = 6, against a measured
        # rho^2 of 3.37e-3 and 4.4e-5; at T = 3 it is 1.07, a vacuous check
        _, _, cert = search.minimal_observability_time(
            ProblemParams(n=1, k=self.K, g1=0.0, delta=0.05))
        bound = cert.beta / cert.alpha * _q_at(cert.params, horizon)
        assert cert.params.t_star < horizon and bound < 1.0, bound
        rho = power_iteration(101, horizon, 12, self.K)[-1]
        assert rho ** 2 <= bound, (rho, bound)


class TestFinalError:
    @staticmethod
    def _case(kind):
        if kind == "1-D":
            grid, truth, trace = example_setup(1.5, n_points=101)
            return grid, truth, trace, 1.5, QUADRATIC
        if kind == "2-D":
            grid = pde.make_grid(2, 21, 2.0, k=1.0)
            x1, x2 = grid.coords()
            mode = np.sin(PI * x1 / 2) * np.sin(PI * x2 / 2)
            truth = pde.WaveField(0.3 * mode, 0.1 * x1 * mode)
            return grid, truth, pde.run(truth, 2.0, grid).trace, 2.0, pde.ZERO_F
        # diverges, so the last record may come from the sweep before the last
        grid = pde.make_grid(1, 101, 2.0, k=1.0)
        x = grid.axis()
        truth = pde.WaveField(np.sin(PI * x / 2) * 0.1, np.zeros_like(x))
        nl = pde.Nonlinearity(lambda z, x, t: 30.0 * z, fz_bound=30.0)
        return grid, truth, pde.run(truth, 2.0, grid, nl).trace, 2.0, nl

    @pytest.mark.parametrize("kind", ["1-D", "2-D", "diverging"])
    def test_is_the_hnorm_ratio_bit_for_bit(self, kind):
        with np.errstate(all="ignore"):
            grid, truth, trace, horizon, nl = self._case(kind)
            config = observer.RecoveryConfig(horizon=horizon, m_max=3, grid=grid,
                                             nonlinearity=nl,
                                             convergence_threshold=1e-15)
            run = observer.recover(trace, config, truth=truth)
        assert run.diverged == (kind == "diverging") and len(run.records) >= 1
        err = pde.WaveField(run.recovered.z - truth.z, run.recovered.zt - truth.zt)
        want = pde.hnorm(err, grid) / pde.hnorm(truth, grid)
        assert math.isfinite(want)
        assert np.float64(run.final_error_vs_truth).tobytes() == np.float64(want).tobytes()


class TestNoiseIntegralMemory:
    def test_scatter_is_bounded(self, monkeypatch):
        # the benchmark's 2-D grid, N = 81, over 567 levels of a window past
        # the certificate's t_star = 4.191: scattering every level onto the
        # full grid at once took 18 MB for a 0.4 MB trace of 316 levels;
        # recover is stubbed out, so the peak is the noisy trace that
        # perturbed_recover sums (two copies at most) and the integral
        params = ProblemParams(n=2, k=1.0, g1=0.0, delta=0.05)
        t_star, _, _ = search.minimal_observability_time(params)
        full = ProblemParams(n=2, k=1.0, g1=0.0, delta=0.05, t_star=t_star * 1.02)
        cert = make_certificate(full, search.find_feasible_vars(full))
        grid = pde.make_grid(2, 81, 4.5, k=1.0)
        config = observer.RecoveryConfig(horizon=4.5, m_max=1, grid=grid,
                                         certificate=cert)
        shape = (config.steps + 1, pde.boundary_node_count(grid))
        assert shape == (567, 159)
        rng = np.random.default_rng(43)
        noise = pde.BoundaryTrace(1e-3 * rng.normal(size=shape), grid.dt)
        measurements = pde.BoundaryTrace(np.zeros(shape), grid.dt)
        zeros = np.zeros(grid.coords()[0].shape)

        def recover(measurements, config, truth=None):
            return observer.RecoveryRun(records=(), recovered=pde.WaveField(zeros, zeros),
                                        stop_reason="out of budget", config=config)

        monkeypatch.setattr(observer, "recover", recover)
        tracemalloc.start()
        try:
            _, report = observer.perturbed_recover(measurements, noise, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = float(np.trapezoid(ref_boundary_sq_integral(noise.samples, grid), dx=grid.dt))
        assert report.noise_integral == want
        assert peak < 4 * noise.samples.nbytes, peak / noise.samples.nbytes
