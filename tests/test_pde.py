"""Tests for the finite-difference solver and the quadrature functionals.

Oracles come first: a line-by-line reference transcription of the 1-D
update (different operation order, so agreement is a real check), an
explicit double-loop 2-D stepper, separation-of-variables solutions, and
closed-form integrals for (bi)linear fields.  Frozen reference values in
asserts were produced by those oracles.
"""

import copy
import functools
import gc
import math
import pathlib
import pickle
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import wavecert
from wavecert import pde
from wavecert.certificates import DecisionVars, ProblemParams, compute_alpha_beta, fmt_float

PI = math.pi


# --------------------------------------------------------------------- oracles


def oracle_run_1d(z, v, dx, dt, steps, f=None, t0=0.0, k=0.0, trace=None, nu=0.02):
    """Reference 1-D integrator, transcribed independently of the module."""
    z = z.copy()
    v = v.copy()
    x = np.linspace(0, 1, z.shape[0])

    def lap_f(w, t):
        a = np.empty_like(w)
        a[1:-1] = (w[:-2] - 2 * w[1:-1] + w[2:]) / (dx * dx)
        a[-1] = 2.0 * (w[-2] - w[-1]) / (dx * dx)
        a[0] = 0.0
        if f is not None:
            a = a + f(w, x, t)
            a[0] = 0.0
        return a

    def smooth(w):
        d4 = np.zeros_like(w)
        d4[2:-2] = w[:-4] - 4 * w[1:-3] + 6 * w[2:-2] - 4 * w[3:-1] + w[4:]
        return w - (nu / 16.0) * d4

    # kick, drift, smooth, kick; the acceleration of each new z is the
    # next step's first one
    rec = [v[-1]]
    a = lap_f(z, t0)
    for j in range(steps):
        t = t0 + j * dt
        y0 = trace[j] if trace is not None else 0.0
        y1 = trace[j + 1] if trace is not None else 0.0
        if k:
            a[-1] += (2.0 / dx) * k * (y0 - v[-1])
        z_new = z + dt * v + 0.5 * dt * dt * a
        v_half = v + 0.5 * dt * a
        z_new[0] = v_half[0] = 0.0
        z, v_half = smooth(z_new), smooth(v_half)
        z[0] = v_half[0] = 0.0
        a = lap_f(z, t + dt)
        v = v_half + 0.5 * dt * a
        if k:
            v[-1] = (v_half[-1] + 0.5 * dt * (a[-1] + (2.0 * k / dx) * y1)) \
                / (1.0 + k * dt / dx)
        v[0] = 0.0
        rec.append(v[-1])
    return z, v, np.array(rec)


def oracle_recover_once(z0, v0, dx, dt, steps, f, k, trace, t0=0.0):
    """One forward/backward sweep of the reference integrator."""
    T = steps * dt
    zf, vf, _ = oracle_run_1d(z0, v0, dx, dt, steps, f=f, t0=t0, k=k, trace=trace)
    fr = None if f is None else (lambda w, x, tau: f(w, x, t0 + T - tau))
    wz, wv, _ = oracle_run_1d(zf, -vf, dx, dt, steps, f=fr, t0=0.0, k=k,
                              trace=-trace[::-1])
    return wz, -wv


def oracle_step_2d(z, v, t, dx, dt, k, f, y0, y1, nu=0.02):
    """Explicit-loop 2-D step: reflect ghosts, corner multiplicity two."""
    N = z.shape[0]
    coords = np.meshgrid(np.linspace(0, 1, N), np.linspace(0, 1, N), indexing="ij")

    def scatter(y):
        full = np.zeros((N, N))
        for idx, i in enumerate(range(1, N - 1)):
            full[i, N - 1] = y[idx]
        for idx, j in enumerate(range(1, N)):
            full[N - 1, j] = y[N - 2 + idx]
        return full

    def accel(w, tt):
        a = np.zeros_like(w)
        for i in range(1, N):
            for j in range(1, N):
                s = w[i - 1, j]
                s += w[i + 1, j] if i + 1 < N else w[i - 1, j]
                s += w[i, j - 1]
                s += w[i, j + 1] if j + 1 < N else w[i, j - 1]
                a[i, j] = (s - 4.0 * w[i, j]) / (dx * dx)
        if f is not None:
            a = a + f(w, coords, tt)
            a[0, :] = 0.0
            a[:, 0] = 0.0
        return a

    def smooth(w):
        c = nu / 16.0
        w1 = w.copy()
        for i in range(2, N - 2):
            for j in range(N):
                w1[i, j] = w[i, j] - c * (w[i - 2, j] - 4 * w[i - 1, j]
                                          + 6 * w[i, j] - 4 * w[i + 1, j] + w[i + 2, j])
        w2 = w1.copy()
        for i in range(N):
            for j in range(2, N - 2):
                w2[i, j] = w1[i, j] - c * (w1[i, j - 2] - 4 * w1[i, j - 1]
                                           + 6 * w1[i, j] - 4 * w1[i, j + 1] + w1[i, j + 2])
        w2[0, :] = 0.0
        w2[:, 0] = 0.0
        return w2

    m = np.zeros((N, N))
    m[1:, N - 1] += 1.0
    m[N - 1, 1:] += 1.0
    a0 = accel(z, t)
    a0 += (2.0 / dx) * m * k * (scatter(y0) - v)
    a0[0, :] = 0.0
    a0[:, 0] = 0.0
    z_new = smooth(z + dt * v + 0.5 * dt * dt * a0)
    v_half = smooth(v + 0.5 * dt * a0)
    a1 = accel(z_new, t + dt)
    v_new = (v_half + 0.5 * dt * (a1 + (2.0 * k / dx) * m * scatter(y1))) \
        / (1.0 + m * k * dt / dx)
    v_new[0, :] = 0.0
    v_new[:, 0] = 0.0
    return z_new, v_new


def oracle_energy(z, v, dx):
    """Manual gradients (first-order one-sided edges) and trapezoid weights."""
    def grad(w, axis):
        g = np.zeros_like(w)
        w = np.moveaxis(w, axis, 0)
        gg = np.moveaxis(g, axis, 0)
        gg[1:-1] = (w[2:] - w[:-2]) / (2 * dx)
        gg[0] = (w[1] - w[0]) / dx
        gg[-1] = (w[-1] - w[-2]) / dx
        return g

    if z.ndim == 1:
        dens = grad(z, 0) ** 2 + v * v
        w = np.full(z.shape[0], dx)
        w[0] = w[-1] = dx / 2
        return 0.5 * float(np.sum(w * dens))
    dens = grad(z, 0) ** 2 + grad(z, 1) ** 2 + v * v
    w = np.full(z.shape[0], dx)
    w[0] = w[-1] = dx / 2
    return 0.5 * float(np.sum(np.outer(w, w) * dens))


def separation_solution(x, t):
    return np.cos(PI * t / 2) * np.sin(PI * x / 2)


def fourier_field(rng, n_points, modes=6, dim=1):
    xs = np.linspace(0, 1, n_points)
    if dim == 1:
        z = np.zeros(n_points)
        v = np.zeros(n_points)
        for j in range(1, modes + 1):
            z += rng.normal(0, 1.0 / j) * np.sin((j - 0.5) * PI * xs)
            v += rng.normal(0, 1.0 / j) * np.sin((j - 0.5) * PI * xs)
        return pde.WaveField(z, v)
    z = np.zeros((n_points, n_points))
    v = np.zeros((n_points, n_points))
    for _ in range(4):
        j, l = rng.integers(1, modes, 2)
        z += rng.normal(0, 0.5) * np.outer(np.sin((j - 0.5) * PI * xs),
                                           np.sin((l - 0.5) * PI * xs))
        j, l = rng.integers(1, modes, 2)
        v += rng.normal(0, 0.5) * np.outer(np.sin((j - 0.5) * PI * xs),
                                           np.sin((l - 0.5) * PI * xs))
    return pde.WaveField(z, v)


# ----------------------------------------------------------------------- types


class TestGrid:
    def test_spacing_and_axes(self):
        g = pde.Grid(1, 201, 0.004)
        assert g.dx == 1.0 / 200
        x = g.axis()
        assert x[0] == 0.0 and x[-1] == 1.0 and x.size == 201

    def test_coords_convention(self):
        g = pde.Grid(2, 21, 0.01)
        x1, x2 = g.coords()
        x = g.axis()
        assert x1[2, 0] == x[2] and x1[2, 17] == x[2]
        assert x2[0, 3] == x[3] and x2[11, 3] == x[3]

    def test_make_grid_divides_horizon(self):
        for horizon in (1.0, 2.1, 10.0, 0.37):
            g = pde.make_grid(1, 201, horizon)
            steps = round(horizon / g.dt)
            assert abs(steps * g.dt - horizon) <= 1e-12 * horizon
            assert g.dt <= 0.9 * g.dx * (1 + 1e-12)

    def test_make_grid_2d_cfl(self):
        g = pde.make_grid(2, 61, 1.0)
        assert g.dt <= 0.9 / math.sqrt(2) * g.dx * (1 + 1e-12)

    def test_cfl_violation_rejected(self):
        dx = 1.0 / 200
        with pytest.raises(ValueError):
            pde.Grid(1, 201, 0.91 * dx)
        # the same step is fine in 1-D but over the 2-D bound
        pde.Grid(1, 201, 0.8 * dx)
        with pytest.raises(ValueError):
            pde.Grid(2, 201, 0.8 * dx)

    def test_validation(self):
        with pytest.raises(ValueError):
            pde.Grid(3, 31, 0.001)
        with pytest.raises(ValueError):
            pde.Grid(1, 15, 0.001)
        with pytest.raises(ValueError):
            pde.Grid(1, True, 0.001)
        with pytest.raises(ValueError):
            pde.Grid(1, 31, 0.001, mode="sideways")
        with pytest.raises(ValueError):
            pde.Grid(1, 31, 0.001, k=-1.0)
        with pytest.raises(ValueError):
            pde.Grid(1, 31, 0.0)
        with pytest.raises(ValueError):
            pde.make_grid(1, 31, 0.0)
        with pytest.raises(ValueError):
            pde.Grid(True, 31, 0.001)
        with pytest.raises(ValueError):
            pde.make_grid(1, math.inf, 1.0)
        # dim is checked before it sets the step
        for dim in (0, None, "x"):
            with pytest.raises(ValueError, match="dim must"):
                pde.make_grid(dim, 31, 1.0)
        # a step count past the float range, not an OverflowError
        with pytest.raises(ValueError, match="step count"):
            pde.make_grid(1, 21, 1e308)

    def test_step_count_bounded(self):
        # 1e300 takes 2.2e301 steps of dt = 0.045, a run that would append
        # trace rows until memory ran out
        too_many = "step count horizon/dt must be <= 1000000"
        with pytest.raises(ValueError, match=too_many):
            pde.make_grid(1, 21, 1e300)
        dt = pde.make_grid(1, 21, 1.0).dt
        for horizon in (1e300, (pde.MAX_STEPS + 1) * dt):
            with pytest.raises(ValueError, match=too_many):
                pde.whole_steps(horizon, dt)
        # 1e308 over a small step is inf, not an OverflowError
        with pytest.raises(ValueError, match=too_many):
            pde.whole_steps(1e308, 1e-10)
        horizon = pde.MAX_STEPS * 0.9 / 20
        grid = pde.make_grid(1, 21, horizon)
        assert pde.whole_steps(horizon, grid.dt) == pde.MAX_STEPS
        with pytest.raises(ValueError, match=too_many):
            pde.make_grid(1, 21, horizon * (1.0 + 1e-6))

    def test_gain_keeps_the_boundary_constants_finite(self):
        # 2 k / dx past the float range made inf * 0 = NaN at the nodes the
        # plan gives no multiplicity; in 2-D the corner doubles it
        for dim, k in ((1, 1e308), (2, 4e306)):
            with pytest.raises(ValueError, match="k must keep 2 k / dx"):
                pde.Grid(dim, 21, 0.03, "observer-forward", k)
        plan = pde.Grid(2, 21, 0.03, "observer-forward", 1e306)._plan
        assert np.all(np.isfinite(plan.flux_mult)) and np.all(np.isfinite(plan.denom))

    def test_node_count_bounded_before_any_array(self):
        n = math.isqrt(pde.MAX_GRID_NODES)
        assert pde.Grid(2, n, 0.5 / n).points_per_axis == n
        tracemalloc.start()
        try:
            for dim, count in ((2, n + 1), (1, pde.MAX_GRID_NODES + 1), (2, 100000)):
                with pytest.raises(ValueError, match="nodes, more than"):
                    pde.Grid(dim, count, 0.5 / count)
            with pytest.raises(ValueError, match="nodes, more than"):
                pde.make_grid(2, 100000, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


    def test_node_steps_bounded_before_any_array(self):
        # 993,407 steps over 9,998,244 nodes keep within MAX_STEPS and
        # MAX_GRID_NODES, yet make 9.9e12 node-steps and a 50 GB trace
        too_much = "node-steps, more than 200000000"
        grid = pde.make_grid(1, 201, 4400.0)  # 977,778 steps, 1.97e8 node-steps
        field = pde.WaveField(np.zeros(201), np.zeros(201))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=too_much):
                pde.make_grid(2, 3162, 200.0)
            with pytest.raises(ValueError, match=too_much):
                pde.make_grid(1, 201, 4480.0)
            with pytest.raises(ValueError, match=too_much):
                pde.run(field, 995556 * grid.dt, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestWaveField:
    def test_copies_input(self):
        z = np.zeros(21)
        f = pde.WaveField(z, z)
        z[3] = 5.0
        assert f.z[3] == 0.0 and f.zt[3] == 0.0

    def test_dirichlet_enforced(self):
        z = np.ones(21)
        with pytest.raises(ValueError):
            pde.WaveField(z, np.zeros(21))
        with pytest.raises(ValueError):
            pde.WaveField(np.zeros(21), z)
        bad = np.zeros((21, 21))
        bad[0, 4] = 1.0
        with pytest.raises(ValueError):
            pde.WaveField(bad, np.zeros((21, 21)))
        bad = np.zeros((21, 21))
        bad[4, 0] = 1.0
        with pytest.raises(ValueError):
            pde.WaveField(bad, np.zeros((21, 21)))

    def test_roundoff_residue_pinned(self):
        z = np.linspace(0, 1, 21)
        z[0] = 1e-13
        f = pde.WaveField(z, np.zeros(21))
        assert f.z[0] == 0.0

    def test_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            pde.WaveField(np.zeros(21), np.zeros(22))
        with pytest.raises(ValueError):
            pde.WaveField(np.zeros((21, 22)), np.zeros((21, 22)))
        with pytest.raises(ValueError):
            pde.WaveField(np.zeros((3, 3, 3)), np.zeros((3, 3, 3)))
        z = np.zeros(21)
        z[5] = np.nan
        with pytest.raises(ValueError):
            pde.WaveField(z, np.zeros(21))

    def test_empty_field_rejected(self):
        for empty in ([], np.zeros((0, 0))):
            with pytest.raises(ValueError, match="non-empty"):
                pde.WaveField(empty, empty)

    def test_copy_independent(self):
        f = pde.WaveField(np.linspace(0, 1, 21), np.zeros(21), t=2.0)
        g = pde.WaveField(f.z, f.zt, f.t)
        g.z[5] = 9.0
        assert f.z[5] != 9.0 and g.t == 2.0


class TestFieldShapeMatchesGrid:
    CASES = [((41,), 1), ((21, 21), 1), ((21,), 2), ((31, 31), 2)]

    @pytest.mark.parametrize("shape,dim", CASES)
    def test_mismatch_rejected_naming_both_shapes(self, shape, dim):
        g = pde.make_grid(dim, 21, 0.5)
        go = pde.make_grid(dim, 21, 0.5, "observer-forward", 1.0)
        f = pde.WaveField(np.zeros(shape), np.zeros(shape))
        y = np.zeros(pde.boundary_node_count(go))
        calls = [lambda: pde.run(f, 0.5, g),
                 lambda: pde.run(f, 0.5, go, trace_in=pde.zero_trace(go, 0.5)),
                 lambda: pde.step(f, g),
                 lambda: pde.step(f, go, boundary_input=(y, y)),
                 lambda: pde.energy(f, g),
                 lambda: pde.hnorm(f, g),
                 lambda: pde.lyapunov(f, g, 0.1),
                 lambda: pde.wirtinger_check(f, g),
                 lambda: pde.trace_check(f, g)]
        want = r"field shape %s does not match the grid shape %s" % (
            re.escape(str(shape)), re.escape(str((21,) * dim)))
        for call in calls:
            with pytest.raises(ValueError, match=want):
                call()


class TestBoundaryTrace:
    def test_properties(self):
        tr = pde.BoundaryTrace(np.zeros(11), 0.1, t0=1.0)
        assert tr.steps == 10 and tr.t0 == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pde.BoundaryTrace(np.zeros(1), 0.1)
        with pytest.raises(ValueError):
            pde.BoundaryTrace(np.array([0.0, np.inf]), 0.1)
        with pytest.raises(ValueError):
            pde.BoundaryTrace(np.zeros(5), 0.0)
        with pytest.raises(ValueError):
            pde.BoundaryTrace(np.zeros(5), math.inf)

    def test_flat_series_is_one_column(self):
        flat = pde.BoundaryTrace(np.arange(5.0), 0.1)
        column = pde.BoundaryTrace(np.arange(5.0)[:, None], 0.1)
        assert flat.samples.shape == column.samples.shape == (5, 1)
        assert flat.samples.tobytes() == column.samples.tobytes()


class TestNonlinearity:
    def test_zero_default(self):
        assert pde.ZERO_F(np.ones(5), None, 0.0) == 0.0
        assert pde.ZERO_F.fz_bound == 0.0
        assert math.isinf(pde.ZERO_F.local_radius)

    def test_passthrough(self):
        nl = pde.Nonlinearity(lambda z, x, t: 0.5 * z, fz_bound=0.5)
        out = nl(np.array([2.0, 4.0]), None, 0.0)
        assert np.array_equal(out, [1.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            pde.Nonlinearity(fz_bound=-0.1)
        with pytest.raises(ValueError):
            pde.Nonlinearity(local_radius=0.0)
        for bad in (math.nan, math.inf, True):
            with pytest.raises(ValueError):
                pde.Nonlinearity(fz_bound=bad)


# -------------------------------------------------------------------- stepping


class TestStepAgainstOracle:
    def test_1d_damped_with_trace_and_source(self):
        rng = np.random.default_rng(11)
        g = pde.make_grid(1, 101, 0.9, mode="observer-forward", k=0.7)
        steps = int(round(0.9 / g.dt))
        x = g.axis()
        z0 = np.sin(PI * x / 2) * 0.4 + np.sin(2.5 * PI * x) * 0.1
        v0 = np.sin(1.5 * PI * x) * 0.2
        trace = rng.normal(0, 0.1, steps + 1)
        nl = pde.Nonlinearity(lambda z, x, t: 0.1 * z * z + 0.05 * np.sin(t) * z,
                              fz_bound=0.3)
        final, tr_out, energies, _ = pde.run(
            pde.WaveField(z0, v0, t=0.25), 0.9, g, nl,
            pde.BoundaryTrace(trace, g.dt, 0.25))
        oz, ov, orec = oracle_run_1d(z0, v0, g.dx, g.dt, steps,
                                     f=nl.f, t0=0.25, k=0.7, trace=trace)
        assert np.allclose(final.z, oz, rtol=1e-10, atol=1e-13)
        assert np.allclose(final.zt, ov, rtol=1e-10, atol=1e-13)
        assert np.allclose(tr_out.samples[:, 0], orec, rtol=1e-10, atol=1e-13)
        assert abs(final.t - 1.15) < 1e-9
        assert energies.shape == (steps + 1,)

    def test_1d_plant_matches_oracle(self):
        g = pde.make_grid(1, 101, 1.3)
        steps = int(round(1.3 / g.dt))
        x = g.axis()
        z0 = np.sin(PI * x / 2)
        v0 = np.sin(1.5 * PI * x) * 0.3
        final = pde.run(pde.WaveField(z0, v0), 1.3, g).final
        oz, ov, _ = oracle_run_1d(z0, v0, g.dx, g.dt, steps)
        assert np.allclose(final.z, oz, rtol=1e-10, atol=1e-14)
        assert np.allclose(final.zt, ov, rtol=1e-10, atol=1e-14)

    def test_2d_observer_step_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        N = 25
        g = pde.Grid(2, N, 0.01, "observer-forward", k=0.8)
        xs = np.linspace(0, 1, N)
        z = np.outer(np.sin(PI * xs / 2), np.sin(PI * xs / 2)) * 0.5
        v = np.outer(np.sin(1.5 * PI * xs), np.sin(PI * xs / 2)) * 0.2
        m = pde.boundary_node_count(g)
        nl = pde.Nonlinearity(lambda w, x, t: 0.1 * w * w, fz_bound=0.2)
        field = pde.WaveField(z, v, t=0.0)
        oz, ov = z.copy(), v.copy()
        for j in range(12):
            y0 = rng.normal(0, 0.1, m)
            y1 = rng.normal(0, 0.1, m)
            field = pde.step(field, g, nl, (y0, y1))
            oz, ov = oracle_step_2d(oz, ov, j * 0.01, g.dx, g.dt, 0.8, nl.f, y0, y1)
        assert np.allclose(field.z, oz, rtol=1e-9, atol=1e-13)
        assert np.allclose(field.zt, ov, rtol=1e-9, atol=1e-13)

    def test_boundary_input_mode_consistency(self):
        g = pde.Grid(1, 31, 0.01)
        f = pde.WaveField(np.zeros(31), np.zeros(31))
        with pytest.raises(ValueError):
            pde.step(f, g, boundary_input=(0.0, 0.0))
        go = pde.Grid(1, 31, 0.01, "observer-forward", 1.0)
        with pytest.raises(ValueError):
            pde.step(f, go)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_boundary_input_rows_match_the_measured_nodes(self, dim):
        # a 2-D row of the wrong length used to broadcast or fail inside numpy
        go = pde.Grid(dim, 17, 0.01, "observer-forward", 1.0)
        f = pde.WaveField(np.zeros((17,) * dim), np.zeros((17,) * dim))
        nodes = pde.boundary_node_count(go)
        good = 0.5 if dim == 1 else np.full(nodes, 0.5)
        pde.step(f, go, boundary_input=(good, good))
        bad_rows = [np.zeros(5), np.zeros(nodes + 1)] + ([0.5] if dim == 2 else [])
        for bad in bad_rows:
            want = "boundary input carries %d values, the grid has %d" % (
                np.size(bad), nodes)
            for binput in ((bad, good), (good, bad)):
                with pytest.raises(ValueError, match=want):
                    pde.step(f, go, boundary_input=binput)

    def test_zero_field_stays_zero(self):
        g = pde.Grid(1, 31, 0.01)
        f = pde.WaveField(np.zeros(31), np.zeros(31))
        for _ in range(100):
            f = pde.step(f, g)
        assert np.all(f.z == 0.0) and np.all(f.zt == 0.0)

    def test_divergence_reported_with_time(self):
        g = pde.make_grid(1, 21, 3.0)
        x = g.axis()
        f0 = pde.WaveField(np.sin(PI * x / 2) * 0.3, np.zeros(21))
        nl = pde.Nonlinearity(lambda z, x, t: 1e12 * z, fz_bound=1e12)
        with np.errstate(all="ignore"), pytest.raises(pde.DivergenceError) as exc:
            pde.run(f0, 3.0, g, nl)
        assert 0.0 < exc.value.t <= 3.0
        assert "diverged" in str(exc.value)

    @pytest.mark.parametrize("chi", [None, 0.1])
    def test_overflowing_energy_is_divergence(self, chi):
        # the field stays finite while |grad z|^2 overflows: no inf energies
        g = pde.make_grid(1, 21, 0.05)
        x = g.axis()
        f0 = pde.WaveField(1e200 * x * (1.0 - x), np.zeros_like(x))
        assert np.all(np.isfinite(f0.z))
        with np.errstate(over="ignore"), pytest.raises(pde.DivergenceError) as exc:
            pde.run(f0, 0.05, g, chi=chi)
        assert exc.value.t == 0.0
        assert "energy inf" in str(exc.value)

    @pytest.mark.parametrize("chi", [None, 0.1])
    def test_overflowing_energy_warns_nothing(self, chi):
        # no np.errstate here: DivergenceError is the only report
        g = pde.make_grid(1, 21, 0.05)
        x = g.axis()
        f0 = pde.WaveField(1e200 * x * (1.0 - x), np.zeros_like(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(pde.DivergenceError, match="energy inf"):
                pde.run(f0, 0.05, g, chi=chi)

    def test_energy_overflow_mid_run_is_divergence(self):
        # finite initial energy, then a source that grows |z| past 1e154
        g = pde.make_grid(1, 21, 1.0)
        x = g.axis()
        f0 = pde.WaveField(np.sin(PI * x) * 1e150, np.zeros_like(x))
        nl = pde.Nonlinearity(lambda z, x, t: 1e6 * z, fz_bound=1e6)
        with np.errstate(over="ignore"), pytest.raises(pde.DivergenceError) as exc:
            pde.run(f0, 1.0, g, nl)
        assert 0.0 < exc.value.t <= 1.0


    @pytest.mark.parametrize("chi", [None, 0.1])
    def test_energy_overflow_is_reported_before_a_later_divergence(self, chi):
        # the energy overflows at t=0 and the first step goes non-finite:
        # the energy comes first, at its own t, as the states come in order
        g = pde.make_grid(1, 21, 0.05)
        x = g.axis()
        f0 = pde.WaveField(1e200 * x * (1.0 - x), np.zeros_like(x))
        nl = pde.Nonlinearity(lambda z, x, t: 1e200 * z)
        with np.errstate(all="ignore"), pytest.raises(pde.DivergenceError,
                                                      match="non-finite"):
            pde.step(f0, g, nl)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(pde.DivergenceError, match="energy inf") as exc:
                pde.run(f0, 0.05, g, nl, chi=chi)
        assert exc.value.t == 0.0


class TestRunPlant:
    def test_separation_of_variables(self):
        g = pde.make_grid(1, 201, 1.0)
        x = g.axis()
        f0 = pde.WaveField(np.sin(PI * x / 2), np.zeros_like(x))
        final = pde.run(f0, 1.0, g).final
        err = np.max(np.abs(final.z - separation_solution(x, 1.0)))
        assert err <= 0.05 * g.dx ** 2

    @pytest.mark.parametrize("dim", [1, 2])
    def test_refinement_reduces_error(self, dim):
        # second order: the mode prod_p sin(pi x_p / 2) cos(pi sqrt(dim) t / 2)
        # at t = 1; measured ratios 4.15 and 4.08 in 1-D, 4.54 and 4.02 in 2-D
        errs = []
        for n in {1: (101, 201, 401), 2: (21, 41, 81)}[dim]:
            g = pde.make_grid(dim, n, 1.0)
            mode = np.prod([np.sin(PI * x / 2) for x in ([g.axis()] if dim == 1
                                                         else g.coords())], axis=0)
            final = pde.run(pde.WaveField(mode, np.zeros_like(mode)), 1.0, g).final
            exact = mode * np.cos(PI * math.sqrt(dim) / 2)
            errs.append(np.max(np.abs(final.z - exact)))
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] / errs[2] >= 3.5

    def test_energy_conservation(self):
        g = pde.make_grid(1, 201, 10.0)
        x = g.axis()
        f0 = pde.WaveField(np.sin(PI * x / 2), np.zeros_like(x))
        energies = pde.run(f0, 10.0, g).energies
        drift = np.max(np.abs(energies - energies[0])) / energies[0]
        assert drift <= 1e-3
        assert drift <= 5e-6  # measured 2.86e-6; the scheme should stay there

    def test_energy_conservation_2d(self):
        g = pde.make_grid(2, 61, 2.0)
        x1, x2 = g.coords()
        f0 = pde.WaveField(np.sin(PI * x1 / 2) * np.sin(PI * x2 / 2),
                           np.zeros_like(x1))
        _, trace, energies, _ = pde.run(f0, 2.0, g)
        assert np.max(np.abs(energies - energies[0])) / energies[0] <= 1e-3
        assert trace.samples.shape[1] == 2 * 61 - 3

    def test_growth_bound_along_trajectories(self):
        g = pde.make_grid(1, 201, 3.0)
        x = g.axis()
        f0 = pde.WaveField(0.2733 * x * (1 - x / 2), 0.2733 * x * (1 - x / 2))
        for g1, fn in ((0.2, lambda z, x, t: 0.1 * z * z),
                       (0.1, lambda z, x, t: 0.1 * z),
                       (0.3, lambda z, x, t: 0.3 * np.sin(z))):
            nl = pde.Nonlinearity(fn, fz_bound=g1, local_radius=1.0)
            energies = pde.run(f0, 3.0, g, nl).energies
            ts = np.arange(energies.size) * g.dt
            bound = np.exp(2 * g1 * ts / PI) * energies[0] * (1 + 1e-3)
            assert np.all(energies <= bound)

    def test_zero_stays_zero(self):
        g = pde.make_grid(1, 31, 1.0)
        f0 = pde.WaveField(np.zeros(31), np.zeros(31))
        final, trace, energies, _ = pde.run(f0, 1.0, g)
        assert np.all(final.z == 0.0) and np.all(final.zt == 0.0)
        assert np.all(trace.samples == 0.0) and np.all(energies == 0.0)

    def test_horizon_must_divide(self):
        g = pde.Grid(1, 31, 0.01)
        f0 = pde.WaveField(np.zeros(31), np.zeros(31))
        with pytest.raises(ValueError):
            pde.run(f0, 0.505, g)

    def test_plant_rejects_trace(self):
        g = pde.Grid(1, 31, 0.01)
        f0 = pde.WaveField(np.zeros(31), np.zeros(31))
        with pytest.raises(ValueError):
            pde.run(f0, 0.5, g, trace_in=pde.BoundaryTrace(np.zeros(51), 0.01))


class TestRunObserver:
    def test_error_system_energy_decreases(self):
        g = pde.make_grid(1, 201, 1.0, mode="observer-forward", k=1.0)
        x = g.axis()
        e0 = 0.2733 * x * (1 - x / 2)
        fld = pde.WaveField(e0, e0.copy())
        energies = pde.run(fld, 1.0, g, trace_in=pde.zero_trace(g, 1.0)).energies
        assert np.all(np.diff(energies) < 0.0)

    def test_decay_certificate_slack(self):
        # certified point: g1=0.1, delta=0.1, chi=0.1803, sharp alpha/beta
        g1, delta, chi = 0.1, 0.1, 0.1803
        g = pde.make_grid(1, 401, 10.0, mode="observer-forward", k=1.0)
        x = g.axis()
        e0 = 0.2733 * x * (1 - x / 2)
        fld = pde.WaveField(e0, e0.copy())
        nl = pde.Nonlinearity(lambda z, x, t: g1 * z, fz_bound=g1)
        energies = pde.run(fld, 10.0, g, nl, pde.zero_trace(g, 10.0)).energies
        ts = np.arange(energies.size) * g.dt
        bound = ((1 + 2 * chi) / (1 - 2 * chi)) * np.exp(-2 * delta * ts) * energies[0]
        slack = np.max(energies / bound)
        assert slack <= 1.05
        assert slack <= 0.6  # measured 0.508

    def test_forward_backward_inverts_with_k_zero(self):
        g = pde.make_grid(1, 201, 1.7)
        x = g.axis()
        z0 = np.sin(PI * x / 2) * 0.3 + np.sin(1.5 * PI * x) * 0.1
        v0 = np.sin(2.5 * PI * x) * 0.05
        f0 = pde.WaveField(z0, v0)
        ff = pde.run(f0, 1.7, g).final
        gb = pde.Grid(1, 201, g.dt, "observer-backward", 0.0)
        fb = pde.run(ff, 1.7, gb, trace_in=pde.zero_trace(gb, 1.7)).final
        err = pde.hnorm(pde.WaveField(fb.z - z0, fb.zt - v0), g)
        assert err <= g.dx ** 2
        assert abs(fb.t) < 1e-12

    def test_backward_matches_reference_sweep(self):
        # one full forward/backward iterate against the reference transcription,
        # time-dependent source and nonzero start time included
        g = pde.make_grid(1, 101, 1.2, mode="observer-forward", k=1.0)
        steps = int(round(1.2 / g.dt))
        x = g.axis()
        rng = np.random.default_rng(23)
        trace = rng.normal(0, 0.2, steps + 1)
        nl = pde.Nonlinearity(lambda z, x, t: 0.1 * z * z + 0.02 * np.cos(t) * z,
                              fz_bound=0.25)
        tr_in = pde.BoundaryTrace(trace, g.dt, 0.5)
        start = pde.WaveField(np.zeros(101), np.zeros(101), t=0.5)
        fwd = pde.run(start, 1.2, g, nl, tr_in).final
        gb = pde.Grid(1, 101, g.dt, "observer-backward", 1.0)
        back = pde.run(fwd, 1.2, gb, nl, tr_in).final
        oz, ov = oracle_recover_once(np.zeros(101), np.zeros(101), g.dx, g.dt,
                                     steps, nl.f, 1.0, trace, t0=0.5)
        assert np.allclose(back.z, oz, rtol=1e-9, atol=1e-13)
        assert np.allclose(back.zt, ov, rtol=1e-9, atol=1e-13)
        assert abs(back.t - 0.5) < 1e-9

    def test_observer_from_truth_tracks_plant(self):
        g = pde.make_grid(1, 201, 1.5)
        x = g.axis()
        f0 = pde.WaveField(np.sin(PI * x / 2) * 0.3, np.zeros_like(x))
        pf, ptr, _, _ = pde.run(f0, 1.5, g)
        go = pde.Grid(1, 201, g.dt, "observer-forward", 1.0)
        of = pde.run(f0, 1.5, go, trace_in=ptr).final
        err = pde.hnorm(pde.WaveField(of.z - pf.z, of.zt - pf.zt), g)
        assert err / pde.hnorm(pf, g) <= 1e-12

    def test_trace_mismatches_rejected(self):
        g = pde.Grid(1, 31, 0.01, "observer-forward", 1.0)
        f0 = pde.WaveField(np.zeros(31), np.zeros(31))
        with pytest.raises(ValueError):
            pde.run(f0, 0.5, g)  # no trace
        with pytest.raises(ValueError):
            pde.run(f0, 0.5, g, trace_in=pde.BoundaryTrace(np.zeros(40), 0.01))
        with pytest.raises(ValueError):
            pde.run(f0, 0.5, g, trace_in=pde.BoundaryTrace(np.zeros(51), 0.02))
        with pytest.raises(ValueError):
            pde.run(f0, 0.5, g, trace_in=np.zeros(51))  # not a BoundaryTrace
        g2 = pde.Grid(2, 31, 0.01, "observer-forward", 1.0)
        f2 = pde.WaveField(np.zeros((31, 31)), np.zeros((31, 31)))
        with pytest.raises(ValueError):
            pde.run(f2, 0.5, g2, trace_in=pde.BoundaryTrace(np.zeros((51, 7)), 0.01))

    def test_lyapunov_series_option(self):
        g = pde.make_grid(1, 101, 0.5, mode="observer-forward", k=1.0)
        x = g.axis()
        f0 = pde.WaveField(np.sin(PI * x / 2) * 0.2, np.zeros_like(x))
        final, trace, energies, lyap = pde.run(f0, 0.5, g, trace_in=pde.zero_trace(g, 0.5),
                                               chi=0.18)
        assert energies.shape == lyap.shape == (trace.steps + 1,)
        assert trace.samples.shape == (trace.steps + 1, 1)
        assert abs(lyap[0] - pde.lyapunov(f0, g, 0.18)) < 1e-15
        assert abs(energies[0] - pde.energy(f0, g)) < 1e-15


class TestZeroTrace:
    """zero_trace is the zero measurement of the error system, the same
    input as a hand-built trace of zeros, bit for bit, held in one row."""

    @pytest.mark.parametrize("dim,n,horizon", [(1, 41, 0.5), (2, 21, 0.3)])
    @pytest.mark.parametrize("mode", ["observer-forward", "observer-backward"])
    @pytest.mark.parametrize("chi", [None, 0.18])
    def test_runs_match_a_hand_built_zero_trace(self, dim, n, horizon, mode, chi):
        # backward mode replays the zeros negated, as -0.0, which tobytes
        # tells apart from +0.0
        grid = pde.make_grid(dim, n, horizon, mode, k=1.0)
        steps = int(round(horizon / grid.dt))
        hand = pde.BoundaryTrace(np.zeros((steps + 1, ref_boundary_node_count(grid))),
                                 grid.dt)
        zero = pde.zero_trace(grid, horizon)
        assert (zero.steps, zero.dt, zero.t0) == (hand.steps, hand.dt, hand.t0)
        assert _bits(zero.samples) == _bits(hand.samples)
        field = _random_field(np.random.default_rng([29, dim]), n, dim)
        nl = _sources(dim)["x-dependent"]
        got = pde.run(field, horizon, grid, nl, zero, chi)
        want = pde.run(field, horizon, grid, nl, hand, chi)
        for a, b in [(got.final.z, want.final.z), (got.final.zt, want.final.zt),
                     (got.trace.samples, want.trace.samples),
                     (got.energies, want.energies)]:
            assert _bits(a) == _bits(b)
        assert got.final.t == want.final.t
        if chi is not None:
            assert _bits(got.lyapunovs) == _bits(want.lyapunovs)

    def test_levels_share_one_read_only_row(self):
        # a long 2-D window: 12,572 levels of 159 nodes would take 16 MB
        grid = pde.make_grid(2, 81, 100.0, "observer-forward", k=1.0)
        assert pde.boundary_node_count(grid) == 159  # builds the plan before the count
        tracemalloc.start()
        try:
            zero = pde.zero_trace(grid, 100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert zero.samples.shape == (pde.whole_steps(100.0, grid.dt) + 1, 159)
        assert zero.samples.strides == (0, 8)
        assert not zero.samples.flags.writeable
        assert peak < 64 * 1024, peak

    def test_horizon_must_be_whole_steps(self):
        grid = pde.Grid(1, 31, 0.01, "observer-forward", 1.0)
        with pytest.raises(ValueError, match="whole number of time steps"):
            pde.zero_trace(grid, 0.505)


class TestBoundaryGeometry:
    def test_trace_order_lexicographic(self):
        N = 21
        g = pde.Grid(2, N, 0.01)
        x1, x2 = g.coords()
        vals = x1 + 10.0 * x2
        # the index run takes each trace row with, from the flat field
        got = np.take(vals.reshape(-1), g._plan.flat_measured)
        dx = g.dx
        want = [i * dx + 10.0 for i in range(1, N - 1)]
        want += [1.0 + 10.0 * j * dx for j in range(1, N)]
        assert np.allclose(got, want, rtol=0, atol=1e-14)
        assert got[-1] == 11.0  # corner (1,1) appears once, last

    def test_node_count(self):
        assert pde.boundary_node_count(pde.Grid(1, 31, 0.01)) == 1
        assert pde.boundary_node_count(pde.Grid(2, 31, 0.01)) == 2 * 31 - 3


# ------------------------------------------------------------------ functionals


class TestEnergy:
    def test_analytic_value(self):
        g = pde.Grid(1, 201, 0.004)
        x = g.axis()
        f = pde.WaveField(np.sin(PI * x / 2), np.zeros_like(x))
        assert abs(pde.energy(f, g) - PI ** 2 / 16) <= 1e-4

    def test_matches_manual_quadrature(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            f = fourier_field(rng, 101)
            g = pde.Grid(1, 101, 0.004)
            assert abs(pde.energy(f, g) - oracle_energy(f.z, f.zt, g.dx)) \
                <= 1e-12 * max(1.0, pde.energy(f, g))
        for _ in range(10):
            f = fourier_field(rng, 33, dim=2)
            g = pde.Grid(2, 33, 0.004)
            assert abs(pde.energy(f, g) - oracle_energy(f.z, f.zt, g.dx)) \
                <= 1e-12 * max(1.0, pde.energy(f, g))

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(3)
        g = pde.Grid(1, 101, 0.004)
        f = fourier_field(rng, 101)
        scaled = pde.WaveField(3.0 * f.z, 3.0 * f.zt)
        assert abs(pde.energy(scaled, g) - 9.0 * pde.energy(f, g)) \
            <= 1e-12 * pde.energy(scaled, g)
        v1 = pde.lyapunov(f, g, 0.2)
        v9 = pde.lyapunov(scaled, g, 0.2)
        assert abs(v9 - 9.0 * v1) <= 1e-12 * abs(v9)

    def test_hnorm(self):
        g = pde.Grid(1, 101, 0.004)
        f = fourier_field(np.random.default_rng(4), 101)
        assert abs(pde.hnorm(f, g) - math.sqrt(2 * pde.energy(f, g))) < 1e-15


class TestLyapunov:
    def test_chi_zero_is_energy(self):
        rng = np.random.default_rng(6)
        g = pde.Grid(1, 101, 0.004, "observer-forward", 1.0)
        for _ in range(20):
            f = fourier_field(rng, 101)
            assert pde.lyapunov(f, g, 0.0) == pde.energy(f, g)

    def test_2d_boundary_term_analytic(self):
        # e = x1 x2, e_t = 0: V - E is the boundary term chi k / 2 * (2/3)
        g = pde.Grid(2, 101, 0.004, "observer-forward", 1.0)
        x1, x2 = g.coords()
        f = pde.WaveField(x1 * x2, np.zeros_like(x1))
        got = pde.lyapunov(f, g, 0.1) - pde.energy(f, g)
        assert abs(got - 0.1 * 1.0 / 2 * (2.0 / 3.0)) <= 5e-6

    def test_cross_term_sign(self):
        g = pde.Grid(1, 201, 0.004)
        x = g.axis()
        f = pde.WaveField(np.sin(PI * x / 2), np.sin(PI * x / 2))
        # 2 x z_x z_t > 0 pointwise here, so V > E for chi > 0
        assert pde.lyapunov(f, g, 0.1) > pde.energy(f, g)

    def test_sandwich_certified_1d(self):
        # sharp pair alpha = 1-2chi, beta = 1+2chi at the stability point
        chi = 0.18035
        alpha, beta = 1 - 2 * chi, 1 + 2 * chi
        g = pde.Grid(1, 201, 0.004, "observer-forward", 1.0)
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            f = fourier_field(rng, 201)
            e = pde.energy(f, g)
            v = pde.lyapunov(f, g, chi)
            assert v - alpha * e >= -1e-6 * e
            assert beta * e - v >= -1e-6 * e

    def test_sandwich_certified_2d(self):
        params = ProblemParams(n=2, k=1.0, g1=0.0, delta=1e-4)
        vars = DecisionVars(chi=0.05, lambda0=0.1)
        alpha, beta = compute_alpha_beta(params, vars)
        g = pde.Grid(2, 65, 0.004, "observer-forward", 1.0)
        rng = np.random.default_rng(909)
        for _ in range(200):
            f = fourier_field(rng, 65, dim=2)
            e = pde.energy(f, g)
            v = pde.lyapunov(f, g, 0.05)
            assert v - alpha * e >= -1e-6 * e
            assert beta * e - v >= -1e-6 * e

    def test_negative_chi_rejected(self):
        g = pde.Grid(1, 101, 0.004)
        f = pde.WaveField(np.zeros(101), np.zeros(101))
        with pytest.raises(ValueError):
            pde.lyapunov(f, g, -0.1)


class TestInequalityChecks:
    def test_extremal_mode(self):
        g = pde.Grid(1, 201, 0.004)
        x = g.axis()
        f = pde.WaveField(np.sin(PI * x / 2), np.zeros_like(x))
        r = pde.wirtinger_check(f, g)
        assert 0.0 <= r <= 1e-4

    def test_extremal_mode_2d(self):
        g = pde.Grid(2, 101, 0.004)
        x1, x2 = g.coords()
        f = pde.WaveField(np.sin(PI * x1 / 2) * np.sin(PI * x2 / 2), np.zeros_like(x1))
        r = pde.wirtinger_check(f, g)
        assert 0.0 <= r <= 1e-4

    def test_zero_field(self):
        g1 = pde.Grid(1, 101, 0.004)
        f1 = pde.WaveField(np.zeros(101), np.zeros(101))
        assert pde.wirtinger_check(f1, g1) == 0.0
        assert pde.trace_check(f1, g1) == 0.0
        assert pde.sobolev_check(f1, g1) == 0.0

    def test_linear_field_exact_values(self):
        # z = x: interpolant is exact, stiffness 1, mass 1/3
        g = pde.Grid(1, 101, 0.004)
        x = g.axis()
        f = pde.WaveField(x, np.zeros_like(x))
        assert abs(pde.wirtinger_check(f, g) - (4 / PI ** 2 - 1 / 3)) <= 1e-14
        assert abs(pde.trace_check(f, g)) <= 1e-14
        assert abs(pde.sobolev_check(f, g)) <= 1e-14

    def test_bilinear_field_exact_values(self):
        # z = x1 x2 is reproduced exactly by the bilinear interpolant:
        # integral |grad z|^2 = 2/3, integral z^2 = 1/9, both faces give 1/3
        g = pde.Grid(2, 101, 0.004)
        x1, x2 = g.coords()
        f = pde.WaveField(x1 * x2, np.zeros_like(x1))
        want = (4 / (2 * PI ** 2)) * (2.0 / 3.0) - 1.0 / 9.0
        assert abs(pde.wirtinger_check(f, g) - want) <= 1e-12
        assert abs(pde.trace_check(f, g)) <= 1e-12

    def test_dirichlet_violation_rejected(self):
        g = pde.Grid(1, 101, 0.004)
        f = pde.WaveField(np.linspace(0, 1, 101), np.zeros(101))
        f.z[0] = 0.5  # corrupt after construction
        for check in (pde.wirtinger_check, pde.trace_check, pde.sobolev_check):
            with pytest.raises(ValueError):
                check(f, g)

    def test_sobolev_needs_1d(self):
        g = pde.Grid(2, 31, 0.004)
        f = pde.WaveField(np.zeros((31, 31)), np.zeros((31, 31)))
        with pytest.raises(ValueError):
            pde.sobolev_check(f, g)

    def test_wirtinger_sweep_1d(self):
        g = pde.Grid(1, 201, 0.004)
        xs = g.axis()
        rng = np.random.default_rng(20240817)
        worst = math.inf
        for case in range(1000):
            z = np.zeros(201)
            if case % 10 == 0:
                # near-extremal: dominant first mode
                z = np.sin(0.5 * PI * xs) + rng.normal(0, 1e-3) * np.sin(2.5 * PI * xs)
            else:
                for j in range(1, 9):
                    z += rng.normal(0, 1.0 / j) * np.sin((j - 0.5) * PI * xs)
            worst = min(worst, pde.wirtinger_check(pde.WaveField(z, np.zeros(201)), g))
        assert worst >= -1e-8

    def test_trace_sweep_1d(self):
        g = pde.Grid(1, 201, 0.004)
        xs = g.axis()
        rng = np.random.default_rng(20240818)
        worst = math.inf
        for case in range(1000):
            z = np.zeros(201)
            if case % 7 == 0:
                z = xs + rng.normal(0, 1e-3) * np.sin(1.5 * PI * xs)
            else:
                for j in range(1, 9):
                    z += rng.normal(0, 1.0 / j) * np.sin((j - 0.5) * PI * xs)
            worst = min(worst, pde.trace_check(pde.WaveField(z, np.zeros(201)), g))
        assert worst >= -1e-8

    def test_sobolev_sweep(self):
        g = pde.Grid(1, 201, 0.004)
        xs = g.axis()
        rng = np.random.default_rng(20240819)
        worst = math.inf
        for case in range(1000):
            if case % 7 == 0:
                z = xs * rng.normal(1.0, 0.1)
            else:
                z = np.zeros(201)
                for j in range(1, 9):
                    z += rng.normal(0, 1.0 / j) * np.sin((j - 0.5) * PI * xs)
            worst = min(worst, pde.sobolev_check(pde.WaveField(z, np.zeros(201)), g))
        assert worst >= -1e-8

    def test_sweeps_2d(self):
        g = pde.Grid(2, 65, 0.004)
        rng = np.random.default_rng(20240820)
        worst_w = worst_t = math.inf
        for _ in range(1000):
            f = fourier_field(rng, 65, dim=2)
            f = pde.WaveField(f.z, np.zeros_like(f.z))
            worst_w = min(worst_w, pde.wirtinger_check(f, g))
            worst_t = min(worst_t, pde.trace_check(f, g))
        assert worst_w >= -1e-8
        assert worst_t >= -1e-8


# --------------------------------------------------------------------- export


class TestExport:
    def test_trajectory_round_trip(self):
        g = pde.make_grid(1, 21, 0.5)
        x = g.axis()
        f0 = pde.WaveField(np.sin(PI * x / 2), np.zeros_like(x))
        final, trace, energies, _ = pde.run(f0, 0.5, g)
        text = pde.trajectory_csv(trace, energies)
        assert text.splitlines()[0] == "t,E,V,trace0"
        tr2, e2, v2 = pde.read_trajectory_csv(text)
        assert np.array_equal(tr2.samples, trace.samples)
        assert np.array_equal(e2, energies)
        assert np.array_equal(v2, energies)  # V defaults to E
        assert abs(tr2.dt - trace.dt) < 1e-18

    @pytest.mark.parametrize("chi", [None, 0.2])
    def test_run_result_round_trips(self, chi):
        # result[1:] is trajectory_csv's input and read_trajectory_csv's
        # output, V read back as E without chi
        g = pde.make_grid(1, 41, 0.5, "observer-forward", 1.0)
        x = g.axis()
        f0 = pde.WaveField(np.sin(PI * x / 2), 0.3 * np.sin(PI * x))
        result = pde.run(f0, 0.5, g, trace_in=pde.zero_trace(g, 0.5), chi=chi)
        trace, energies, lyapunovs = pde.read_trajectory_csv(
            pde.trajectory_csv(*result[1:]))
        want_v = result.energies if chi is None else result.lyapunovs
        assert _bits(trace.samples) == _bits(result.trace.samples)
        assert (trace.dt, trace.t0) == (result.trace.dt, result.trace.t0)
        assert _bits(energies) == _bits(result.energies)
        assert _bits(lyapunovs) == _bits(want_v)

    def test_trajectory_2d_columns(self):
        g = pde.make_grid(2, 21, 0.2)
        x1, x2 = g.coords()
        f0 = pde.WaveField(x1 * x2 * 0.1, np.zeros_like(x1))
        _, trace, energies, _ = pde.run(f0, 0.2, g)
        text = pde.trajectory_csv(trace, energies)
        header = text.splitlines()[0].split(",")
        assert header[:3] == ["t", "E", "V"]
        assert len(header) == 3 + 2 * 21 - 3
        tr2, _, _ = pde.read_trajectory_csv(text)
        assert np.array_equal(tr2.samples, trace.samples)

    def test_trajectory_rejects_non_finite_values(self):
        trace = pde.BoundaryTrace(np.zeros(3), 0.1)
        for energies, lyap in [([0.0, math.inf, 1.0], None),
                               ([0.0, 1.0, 1.0], [0.0, math.nan, 1.0])]:
            with pytest.raises(ValueError, match="non-finite"):
                pde.trajectory_csv(trace, np.array(energies), lyap)

    def test_trajectory_rows_write_each_value_as_fmt_float(self):
        samples = np.array([[-0.0, 5e-324], [1e308, 1.0 / 3.0], [0.1, -2.5e-300]])
        trace = pde.BoundaryTrace(samples, 1.0 / 3.0, 0.25)
        energies = np.array([5e-324, 1e308, 1.0 / 3.0])
        lyap = [-0.0, 1.0 / 3.0, -1e308]
        want = ["t,E,V,trace0,trace1"]
        for i in range(3):
            values = [trace.t0 + i * trace.dt, energies[i], lyap[i]] + list(samples[i])
            want.append(",".join(fmt_float(v) for v in values))
        assert pde.trajectory_csv(trace, energies, lyap) == "\n".join(want) + "\n"
        assert "-0," in want[1] and "4.9406564584124654e-324" in want[1]

    def test_trajectory_bad_input(self):
        with pytest.raises(ValueError):
            pde.read_trajectory_csv("a,b\n1,2\n")
        with pytest.raises(ValueError):
            pde.read_trajectory_csv("t,E,V,trace0\n0,1,1,0\n")
        with pytest.raises(ValueError):
            pde.read_trajectory_csv("t,E,V,trace0\n0,1,1,0\n0.1,1,1,0\n0.3,1,1,0\n")

    @pytest.mark.parametrize("text,match", [
        # rows wider or narrower than the header's columns
        ("t,E,V,trace0\n0,1,1,0,5\n0.1,1,1,0,5\n",
         "row 1 carries 5 values, the header names 4"),
        ("t,E,V,trace0,trace1\n0,1,1,0\n0.1,1,1,0\n",
         "row 1 carries 4 values, the header names 5"),
        ("t,E,V,trace0\n0,1,1,0\n0.1,1,1,0,7\n", "row 2 carries 5 values"),
        # headers that are not t,E,V,trace0..trace{m-1}
        ("t,E,V,foo\n0,1,1,0\n0.1,1,1,0\n", "header"),
        ("t,E,V,trace1\n0,1,1,0\n0.1,1,1,0\n", "header"),
        ("t,E,V,trace0,trace2\n0,1,1,0,0\n0.1,1,1,0,0\n", "header"),
        ("t,V,E,trace0\n0,1,1,0\n0.1,1,1,0\n", "header"),
        ("t,E,V,trace0,\n0,1,1,0,\n0.1,1,1,0,\n", "header"),
        ("t,E,V\n0,1,1\n0.1,1,1\n", "header"),
        # non-finite E or V, which trajectory_csv never writes
        ("t,E,V,trace0\n0,nan,1,0\n0.1,1,1,0\n", "E and V values must be finite"),
        ("t,E,V,trace0\n0,1,1,0\n0.1,1,inf,0\n", "E and V values must be finite"),
        ("t,E,V,trace0\n0,-inf,1,0\n0.1,1,1,0\n", "E and V values must be finite"),
    ], ids=["wide-rows", "narrow-rows", "ragged", "foo", "trace1", "gap", "order",
            "empty-column", "no-trace", "nan-E", "inf-V", "minus-inf-E"])
    def test_malformed_trajectory_is_refused(self, text, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            pde.read_trajectory_csv(text)

    def test_trajectory_reads_every_column_of_its_header(self):
        samples = np.arange(12.0).reshape(3, 4)
        trace = pde.BoundaryTrace(samples, 0.25, 1.0)
        text = pde.trajectory_csv(trace, np.ones(3), np.full(3, 2.0))
        back, e, v = pde.read_trajectory_csv(text)
        assert back.samples.shape == (3, 4) and np.array_equal(back.samples, samples)
        assert (back.dt, back.t0) == (0.25, 1.0)
        assert np.array_equal(e, np.ones(3)) and np.array_equal(v, np.full(3, 2.0))


# ------------------------------------------------- bit identity with inline math
#
# Reference copies of the solver step, acceleration, energy and Lyapunov
# functional as they read with every constant evaluated inline, zero-filled
# work arrays and np.gradient, written per dimension.  They call no solver
# helper: the Dirichlet pin, the smoothing, the boundary multiplicity and
# scatter, the cell integrals (np.trapezoid) and the boundary node count
# are copied here too, so the solver's own versions are compared, not
# reused.  These tests require the same bits, compared through tobytes()
# so the sign of a zero counts.


def ref_pin_dirichlet(arr, dim):
    if dim == 1:
        arr[0] = 0.0
    else:
        arr[0, :] = 0.0
        arr[:, 0] = 0.0


def ref_smooth(w, dim):
    nu = 0.02 / 16.0
    if dim == 1:
        w[2:-2] -= nu * (w[4:] - 4.0 * w[3:-1] + 6.0 * w[2:-2] - 4.0 * w[1:-3] + w[:-4])
    else:
        w[2:-2, :] -= nu * (w[4:, :] - 4.0 * w[3:-1, :] + 6.0 * w[2:-2, :]
                            - 4.0 * w[1:-3, :] + w[:-4, :])
        w[:, 2:-2] -= nu * (w[:, 4:] - 4.0 * w[:, 3:-1] + 6.0 * w[:, 2:-2]
                            - 4.0 * w[:, 1:-3] + w[:, :-4])
    ref_pin_dirichlet(w, dim)


def ref_scatter(values, grid):
    n = grid.points_per_axis
    full = np.zeros((n, n))
    full[1:-1, -1] = values[: n - 2]
    full[-1, 1:] = values[n - 2:]
    return full


def ref_multiplicity(grid):
    n = grid.points_per_axis
    m = np.zeros((n, n))
    m[1:, -1] += 1.0
    m[-1, 1:] += 1.0
    return m


def ref_integrate_cells(values, dx):
    if values.ndim == 1:
        return np.trapezoid(values, dx=dx)
    return np.trapezoid(np.trapezoid(values, dx=dx, axis=1), dx=dx)


def ref_boundary_node_count(grid):
    return 1 if grid.dim == 1 else 2 * grid.points_per_axis - 3


def ref_accel(z, grid, nonlinearity, t):
    dx2 = grid.dx * grid.dx
    if grid.dim == 1:
        a = np.zeros_like(z)
        a[1:-1] = (z[2:] - 2.0 * z[1:-1] + z[:-2]) / dx2
        a[-1] = 2.0 * (z[-2] - z[-1]) / dx2
    else:
        d1 = np.zeros_like(z)
        d1[1:-1, :] = z[2:, :] - 2.0 * z[1:-1, :] + z[:-2, :]
        d1[-1, :] = 2.0 * (z[-2, :] - z[-1, :])
        d2 = np.zeros_like(z)
        d2[:, 1:-1] = z[:, 2:] - 2.0 * z[:, 1:-1] + z[:, :-2]
        d2[:, -1] = 2.0 * (z[:, -2] - z[:, -1])
        a = (d1 + d2) / dx2
    x = np.linspace(0.0, 1.0, grid.points_per_axis)
    coords = x if grid.dim == 1 else np.meshgrid(x, x, indexing="ij")
    fv = nonlinearity(z, coords, t)
    if np.ndim(fv) or fv:
        a = a + fv
    ref_pin_dirichlet(a, grid.dim)
    return a


def ref_step(field, grid, nonlinearity=pde.ZERO_F, boundary_input=None,
             direction=1.0):
    injecting = grid.mode != "plant"
    z, v, t = field.z, field.zt, field.t
    dt, dx, k = grid.dt, grid.dx, grid.k
    flux = 2.0 * k / dx

    a0 = ref_accel(z, grid, nonlinearity, t)
    if injecting:
        y0, y1 = boundary_input
        if grid.dim == 1:
            a0[-1] += flux * (float(y0) - v[-1])
        else:
            mult = ref_multiplicity(grid)
            a0 += flux * mult * (ref_scatter(np.asarray(y0, dtype=float), grid) - v)

    z_new = z + dt * v + 0.5 * dt * dt * a0
    v_half = v + 0.5 * dt * a0
    ref_pin_dirichlet(z_new, grid.dim)
    ref_pin_dirichlet(v_half, grid.dim)
    ref_smooth(z_new, grid.dim)
    ref_smooth(v_half, grid.dim)
    t_new = t + direction * dt
    a1 = ref_accel(z_new, grid, nonlinearity, t_new)
    v_new = v_half + 0.5 * dt * a1

    if injecting:
        if grid.dim == 1:
            v_new[-1] = (v_half[-1] + 0.5 * dt * (a1[-1] + flux * float(y1))) \
                / (1.0 + k * dt / dx)
        else:
            y1_full = ref_scatter(np.asarray(y1, dtype=float), grid)
            denom = 1.0 + mult * k * dt / dx
            v_new = (v_half + 0.5 * dt * (a1 + flux * mult * y1_full)) / denom
    ref_pin_dirichlet(v_new, grid.dim)

    out = pde.WaveField.__new__(pde.WaveField)
    out.z, out.zt, out.t = z_new, v_new, t_new
    return out


def ref_grad_sq(z, dx):
    if z.ndim == 1:
        g = np.gradient(z, dx)
        return g * g
    g1, g2 = np.gradient(z, dx)
    return g1 * g1 + g2 * g2


def ref_energy(field, grid):
    return 0.5 * ref_integrate_cells(
        ref_grad_sq(field.z, grid.dx) + field.zt * field.zt, grid.dx)


def ref_lyapunov(field, grid, chi, k):
    e = ref_energy(field, grid)
    z, v, dx = field.z, field.zt, grid.dx
    x = np.linspace(0.0, 1.0, grid.points_per_axis)
    if grid.dim == 1:
        zx = np.gradient(z, dx)
        cross = np.trapezoid(2.0 * x * zx * v, dx=dx)
        return e + chi * cross
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    g1, g2 = np.gradient(z, dx)
    cross = ref_integrate_cells((2.0 * (x1 * g1 + x2 * g2) + z) * v, dx)
    face = np.trapezoid(z[:, -1] ** 2, dx=dx) + np.trapezoid(z[-1, :] ** 2, dx=dx)
    return e + chi * cross + chi * k * 0.5 * face


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _random_field(rng, n, dim):
    # rough data over many scales, with signed zeros in the interior
    shape = (n,) if dim == 1 else (n, n)
    z = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 1, shape)
    zt = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 1, shape)
    z[rng.random(shape) < 0.05] = -0.0
    zt[rng.random(shape) < 0.05] = -0.0
    ref_pin_dirichlet(z, dim)
    ref_pin_dirichlet(zt, dim)
    f = pde.WaveField.__new__(pde.WaveField)
    f.z, f.zt, f.t = z, zt, float(rng.uniform(0.0, 2.0))
    return f


def _sources(dim):
    if dim == 1:
        xdep = pde.Nonlinearity(lambda z, x, t: 0.2 * z * z - 0.05 * t * x,
                                fz_bound=1.0)
    else:
        xdep = pde.Nonlinearity(
            lambda z, x, t: 0.1 * np.sin(z) + 0.05 * t * x[0] * x[1] - x[1],
            fz_bound=0.1)
    const = pde.Nonlinearity(lambda z, x, t: 0.5)
    return {"none": pde.ZERO_F, "x-dependent": xdep, "constant": const}


def _boundary_inputs(rng, grid, steps):
    count = ref_boundary_node_count(grid)
    shape = (steps + 1,) if grid.dim == 1 else (steps + 1, count)
    y = rng.normal(size=shape)
    y[rng.random(shape) < 0.1] = -0.0
    return y


class TestBitIdentity:
    @pytest.mark.parametrize("dim,n", [(1, 41), (2, 21)])
    @pytest.mark.parametrize("mode", pde.MODES)
    @pytest.mark.parametrize("source", ["none", "x-dependent", "constant"])
    def test_step_matches_inline_reference(self, dim, n, mode, source):
        rng = np.random.default_rng([dim, n, pde.MODES.index(mode), len(source)])
        k = 0.0 if mode == "plant" else 1.3
        grid = pde.make_grid(dim, n, 0.4, mode, k)
        nl = _sources(dim)[source]
        direction = -1.0 if mode == "observer-backward" else 1.0
        steps = 6
        y = _boundary_inputs(rng, grid, steps)
        for _ in range(4):
            new = ref = _random_field(rng, n, dim)
            for i in range(steps):
                binput = None if mode == "plant" else (y[i], y[i + 1])
                new = pde.step(new, grid, nl, binput)
                ref = ref_step(ref, grid, nl, binput, direction)
                assert _bits(new.z) == _bits(ref.z)
                assert _bits(new.zt) == _bits(ref.zt)
                assert new.t == ref.t

    @pytest.mark.parametrize("dim,n", [(1, 41), (1, 17), (2, 21), (2, 16)])
    def test_energy_and_lyapunov_match_inline_reference(self, dim, n):
        rng = np.random.default_rng([7, dim, n])
        grid = pde.make_grid(dim, n, 0.4, "observer-forward", 0.7)
        for _ in range(20):
            f = _random_field(rng, n, dim)
            assert _bits(pde.energy(f, grid)) == _bits(ref_energy(f, grid))
            for chi in (0.0, 0.05, 0.3):
                for k in (0.7, 0.0, 2.5):
                    g = replace(grid, k=k)
                    want = ref_lyapunov(f, g, chi, k)
                    assert _bits(pde.lyapunov(f, g, chi)) == _bits(want)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_run_series_match_inline_reference(self, dim):
        # the energy and Lyapunov series of a run equal the reference
        # functionals evaluated on the reference steps
        n = 41 if dim == 1 else 21
        rng = np.random.default_rng([11, dim])
        grid = pde.make_grid(dim, n, 0.3, "observer-forward", 1.0)
        nl = _sources(dim)["x-dependent"]
        y = _boundary_inputs(rng, grid, round(0.3 / grid.dt))
        trace = pde.BoundaryTrace(y, grid.dt)
        f0 = _random_field(rng, n, dim)
        f0.t = 0.0
        _, _, energies, lyaps = pde.run(f0, 0.3, grid, nl, trace, chi=0.2)
        ref = f0
        want_e = [ref_energy(ref, grid)]
        want_v = [ref_lyapunov(ref, grid, 0.2, grid.k)]
        for i in range(trace.steps):
            ref = ref_step(ref, grid, nl, (y[i], y[i + 1]))
            want_e.append(ref_energy(ref, grid))
            want_v.append(ref_lyapunov(ref, grid, 0.2, grid.k))
        assert _bits(energies) == _bits(want_e)
        assert _bits(lyaps) == _bits(want_v)


    @pytest.mark.parametrize("dim,n,horizon", [(1, 41, 10.0), (1, 201, 1.0),
                                                (2, 21, 1.0), (2, 81, 0.1)])
    def test_run_energies_match_per_state_energy(self, dim, n, horizon):
        # run takes the energies, and with chi the Lyapunov values from the
        # same gradients, a block of states at a time (199 states at 1-D
        # N=41, 40 at N=201, 18 at 2-D N=21, two at N=81); the step counts
        # leave a partial block at the end
        rng = np.random.default_rng([13, dim, n])
        grid = pde.make_grid(dim, n, horizon, "observer-forward", 1.0)
        steps = pde.whole_steps(horizon, grid.dt)
        y = _boundary_inputs(rng, grid, steps)
        f0 = _random_field(rng, n, dim)
        f0.t = 0.0
        nl = _sources(dim)["x-dependent"]
        trace = pde.BoundaryTrace(y, grid.dt)
        energies = pde.run(f0, horizon, grid, nl, trace).energies
        _, _, energies_v, lyaps = pde.run(f0, horizon, grid, nl, trace, chi=0.2)
        state, want = f0, [pde.energy(f0, grid)]
        want_v = [pde.lyapunov(f0, grid, 0.2)]
        for i in range(steps):
            state = pde.step(state, grid, nl, (y[i], y[i + 1]))
            want.append(pde.energy(state, grid))
            want_v.append(pde.lyapunov(state, grid, 0.2))
        assert len(energies) == steps + 1
        assert _bits(energies) == _bits(energies_v) == _bits(want)
        assert _bits(lyaps) == _bits(want_v)


# ------------------------------------------- per-axis stencils, flat last axis
#
# The Laplacian, smoothing and gradient stencils as they ran along every
# axis, the last one too, with that axis swapped to the front.  The solver
# runs the last axis of a C-contiguous array as one pass over the flat
# array instead; the entries where that pass straddles two rows must never
# reach a stored value, so a step agrees with ref_step, and the gradient
# with axis_gradient, bit for bit.


def axis_gradient(z, dx, dim):
    grads = []
    for axis in range(z.ndim - dim, z.ndim):
        f = z.swapaxes(0, axis)
        g = np.empty_like(f)
        np.divide(f[2:] - f[:-2], 2. * dx, out=g[1:-1])
        g[0] = (f[1] - f[0]) / dx
        g[-1] = (f[-1] - f[-2]) / dx
        grads.append(g.swapaxes(0, axis))
    return grads


# a 1-D field, an energy block of 40 1-D states, a stacked 1-D (z, z_t),
# 2-D fields and a stacked 2-D (z, z_t)
STENCIL_SHAPES = [(16,), (201,), (40, 201), (2, 201), (17, 17), (81, 81), (2, 81, 81)]


def _extreme_field(rng, shape):
    """Values over many scales with signed zeros, subnormals and entries
    near 1e300, which no stencil here overflows."""
    v = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, shape)
    u = rng.random(shape)
    v[u < 0.06] = -0.0
    v[(u >= 0.06) & (u < 0.1)] = 0.0
    sub = (u >= 0.1) & (u < 0.16)
    v[sub] = rng.choice([-1.0, 1.0], sub.sum()) * rng.integers(1, 2 ** 40, sub.sum()) * 5e-324
    big = (u >= 0.16) & (u < 0.22)
    v[big] = rng.choice([-1.0, 1.0], big.sum()) * rng.uniform(0.5, 1.5, big.sum()) * 1e300
    return v


def _layouts(z):
    """z as C-ordered, Fortran-ordered and strided (non-contiguous) arrays."""
    wide = np.zeros(tuple(2 * n for n in z.shape))
    strided = wide[tuple(slice(None, None, 2) for _ in z.shape)]
    strided[...] = z
    return {"C": z, "F": np.asfortranarray(z), "strided": strided}


class TestFlatLastAxis:
    @pytest.mark.parametrize("dim,n", [(1, 16), (1, 201), (2, 17), (2, 81)])
    @pytest.mark.parametrize("mode", pde.MODES)
    def test_step_matches_per_axis_in_every_layout(self, dim, n, mode):
        # a direct step on fields held in C, Fortran and strided arrays
        rng = np.random.default_rng([22, dim, n, pde.MODES.index(mode)])
        grid = pde.make_grid(dim, n, 0.4, mode, 0.0 if mode == "plant" else 1.3)
        direction = -1.0 if mode == "observer-backward" else 1.0
        binput = None if mode == "plant" else tuple(_boundary_inputs(rng, grid, 1))
        for _ in range(3):
            z, zt = _extreme_field(rng, (n,) * dim), _extreme_field(rng, (n,) * dim)
            ref_pin_dirichlet(z, dim)
            ref_pin_dirichlet(zt, dim)
            f = pde.WaveField.__new__(pde.WaveField)
            f.z, f.zt, f.t = z, zt, 0.5
            with np.errstate(over="raise", invalid="raise"):
                want = ref_step(f, grid, pde.ZERO_F, binput, direction)
                for (name, z_arr), zt_arr in zip(_layouts(z).items(), _layouts(zt).values()):
                    f.z, f.zt = z_arr, zt_arr
                    got = pde.step(f, grid, pde.ZERO_F, binput)
                    assert _bits(got.z) == _bits(want.z), name
                    assert _bits(got.zt) == _bits(want.zt), name
                    assert got.t == want.t

    @pytest.mark.parametrize("shape", STENCIL_SHAPES)
    def test_gradient_matches_per_axis(self, shape):
        # bits and layout: the cell sums that read the gradient follow its
        # layout, so each one keeps z's
        rng = np.random.default_rng([24] + list(shape))
        for _ in range(2):
            z = _extreme_field(rng, shape)
            for dim in range(1, z.ndim + 1):
                dx = 1.0 / (shape[-1] - 1)
                for name, arr in _layouts(z).items():
                    with np.errstate(over="raise", invalid="raise"):
                        got = pde._gradient(arr, dx, dim)
                    want = axis_gradient(arr, dx, dim)
                    assert len(got) == len(want) == dim
                    for g, w in zip(got, want):
                        assert _bits(g) == _bits(w), name
                        assert g.strides == w.strides, name

    @pytest.mark.parametrize("shape", [(201,), (40, 201), (81, 81), (2, 81, 81)])
    def test_energy_blocks_keep_their_bits_in_every_layout(self, shape):
        # scaled so that the squares stay finite
        dim = 1 if shape[-2:-1] != shape[-1:] else 2
        grid = pde.make_grid(dim, shape[-1], 0.4)
        z = _extreme_field(np.random.default_rng([25] + list(shape)), shape) * 1e-160
        v = _extreme_field(np.random.default_rng([26] + list(shape)), shape) * 1e-160
        for name, arr in _layouts(z).items():
            grads = axis_gradient(arr, grid.dx, dim)
            want = pde._energy(grads, v, grid.dx)
            got = pde._energy(pde._gradient(arr, grid.dx, dim), v, grid.dx)
            assert _bits(got) == _bits(want), name


def _huge_corner_step(dim, value, mode, k):
    n = 17
    grid = pde.make_grid(dim, n, 1.0, mode, k)
    x = np.linspace(0.0, 1.0, n)
    z = 0.25 * (np.outer(np.sin(x), np.sin(x)) if dim == 2 else np.sin(x))
    zt = 0.5 * z
    z[(-1,) * dim] = value
    field = pde.WaveField(z, zt)
    nodes = pde.boundary_node_count(grid)
    binput = None if mode == "plant" else (np.full(nodes, 0.1), np.full(nodes, 0.2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(pde.DivergenceError, match="non-finite"):
            pde.step(field, grid, boundary_input=binput)
    return [str(w.message) for w in caught]


class TestHugeMeasuredCorner:
    # The warnings a direct step call raises, as the per-axis stencils
    # raised them: the doubling shared by both axes must skip the measured
    # corner, which no per-axis stencil doubled; doubling it would add an
    # overflow in multiply.  The start field's acceleration warns first.
    # Its infinite corner then reaches z' and v', the smoothing spreads it
    # to the corner's neighbours in z', and the second acceleration takes
    # inf - inf there, one invalid subtract and add per axis; the second
    # kick adds that NaN to v'.
    TWO_GHOSTS = ["overflow encountered in multiply"] * 2 + ["overflow encountered in divide"]
    ONE_GHOST = ["overflow encountered in scalar multiply", "overflow encountered in divide"]

    @staticmethod
    def spread(dim):
        return ["invalid value encountered in subtract",
                "invalid value encountered in add"] * dim + ["invalid value encountered in add"]

    @pytest.mark.parametrize("value,mode,k", [
        (1e308, "plant", 0.0), (-1e308, "plant", 0.0),
        (1e308, "observer-forward", 1.0), (1.7e308, "observer-backward", 0.5)])
    def test_2d_corner_warns_as_per_axis_stencils(self, value, mode, k):
        assert _huge_corner_step(2, value, mode, k) == self.TWO_GHOSTS + self.spread(2)

    @pytest.mark.parametrize("value,mode,k", [
        (1e308, "plant", 0.0), (-1.5e308, "observer-forward", 1.0)])
    def test_1d_end_warns_as_per_axis_stencil(self, value, mode, k):
        assert _huge_corner_step(1, value, mode, k) == self.ONE_GHOST + self.spread(1)

    def test_below_doubling_overflow(self):
        # 6e307 doubles to a finite value; the sum of the two ghost terms
        # overflows in 2-D, the division by dx^2 in both
        assert _huge_corner_step(2, 6e307, "plant", 0.0) == [
            "overflow encountered in add", "overflow encountered in divide"] + self.spread(2)
        assert _huge_corner_step(1, 6e307, "plant", 0.0) == [
            "overflow encountered in divide"] + self.spread(1)


def ref_boundary_sq_integral(samples, grid):
    """The per-level noise integrand with the 2-D faces in trace order; a
    1-D trace is a flat series."""
    dx = grid.dx
    if grid.dim == 1:
        return samples * samples if np.ndim(samples) == 0 else samples ** 2
    n = grid.points_per_axis
    total = np.zeros(samples.shape[0])
    # face x2=1 runs over x1 with a clamped node at x1=0 and the corner last
    face = np.concatenate([np.zeros((samples.shape[0], 1)),
                           samples[:, : n - 2],
                           samples[:, -1:]], axis=1)
    a, b = face[:, :-1], face[:, 1:]
    total += np.sum(a * a + a * b + b * b, axis=1) * dx / 3.0
    face = np.concatenate([np.zeros((samples.shape[0], 1)),
                           samples[:, n - 2:]], axis=1)
    a, b = face[:, :-1], face[:, 1:]
    total += np.sum(a * a + a * b + b * b, axis=1) * dx / 3.0
    return total


def ref_edge_sq_integral(vals, dx):
    a, b = vals[:-1], vals[1:]
    return float(np.sum(a * a + a * b + b * b)) * dx / 3.0


def ref_trace_check_2d(field, grid):
    z, dx = field.z, grid.dx
    stiff, _ = pde._interp_quads(z, dx)
    return stiff - (ref_edge_sq_integral(z[-1, :], dx)
                    + ref_edge_sq_integral(z[:, -1], dx))


def ref_interp_quads_1d(z, dx):
    d = np.diff(z)
    return float(np.sum(d * d)) / dx, ref_edge_sq_integral(z, dx)


def ref_interp_quads_2d(z, dx):
    # bilinear cells, 2x2 Gauss rule (exact: integrands are quadratic
    # per coordinate)
    a, b, c, d = z[:-1, :-1], z[1:, :-1], z[:-1, 1:], z[1:, 1:]
    lo = 0.5 - 0.5 / math.sqrt(3.0)
    stiff = mass = 0.0
    for gx in (lo, 1.0 - lo):
        for gy in (lo, 1.0 - lo):
            val = (a * (1 - gx) * (1 - gy) + b * gx * (1 - gy)
                   + c * (1 - gx) * gy + d * gx * gy)
            dzx = (b - a) * (1 - gy) + (d - c) * gy
            dzy = (c - a) * (1 - gx) + (d - b) * gx
            stiff += float(np.sum(dzx * dzx + dzy * dzy))
            mass += float(np.sum(val * val))
    return 0.25 * stiff, 0.25 * mass * dx * dx


class TestInterpolantQuadrature:
    @pytest.mark.parametrize("n", [16, 41, 201])
    def test_1d_keeps_its_bits(self, n):
        rng = np.random.default_rng([29, n])
        dx = 1.0 / (n - 1)
        for _ in range(100):
            z = _random_field(rng, n, 1).z
            assert _bits(pde._interp_quads(z, dx)) == _bits(ref_interp_quads_1d(z, dx))

    @pytest.mark.parametrize("n", [16, 21, 41])
    def test_2d_matches_the_gauss_rule(self, n):
        rng = np.random.default_rng([31, n])
        dx = 1.0 / (n - 1)
        for case in range(200):
            z = _random_field(rng, n, 2).z if case % 2 else rng.normal(size=(n, n))
            for new, old in zip(pde._interp_quads(z, dx), ref_interp_quads_2d(z, dx)):
                assert abs(new - old) <= 1e-15 * old

    def test_trilinear_field_is_exact(self):
        # z = x1 x2 x3 is its own interpolant: integral |grad z|^2 = 3/9,
        # integral z^2 = 1/27
        x = np.linspace(0.0, 1.0, 21)
        x1, x2, x3 = np.meshgrid(x, x, x, indexing="ij")
        stiff, mass = pde._interp_quads(x1 * x2 * x3, 0.05)
        assert abs(stiff - 1.0 / 3.0) <= 1e-14
        assert abs(mass - 1.0 / 27.0) <= 1e-14


class TestFaceIntegral:
    @pytest.mark.parametrize("dim,n", [(1, 41), (1, 16), (2, 17), (2, 21), (2, 81)])
    def test_noise_integrand_matches_reference(self, dim, n):
        rng = np.random.default_rng([17, dim, n])
        grid = pde.make_grid(dim, n, 0.4)
        for _ in range(40):
            shape = (int(rng.integers(2, 30)), ref_boundary_node_count(grid))
            samples = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, shape)
            samples[rng.random(shape) < 0.1] = -0.0
            if dim == 1:
                want = ref_boundary_sq_integral(samples[:, 0], grid)
                full = np.zeros((shape[0], n))
                full[:, -1] = samples[:, 0]
            else:
                want = ref_boundary_sq_integral(samples, grid)
                full = np.array([ref_scatter(row, grid) for row in samples])
            assert _bits(pde._face_sq_integral(full, grid)) == _bits(want)

    @pytest.mark.parametrize("n", [17, 21, 81])
    def test_2d_trace_check_matches_reference(self, n):
        rng = np.random.default_rng([19, n])
        grid = pde.make_grid(2, n, 0.4)
        for _ in range(40):
            f = _random_field(rng, n, 2)
            assert _bits(pde.trace_check(f, grid)) == _bits(ref_trace_check_2d(f, grid))

    def test_1d_trace_check_squares_the_end_value(self):
        rng = np.random.default_rng(23)
        grid = pde.make_grid(1, 41, 0.4)
        for _ in range(40):
            f = _random_field(rng, 41, 1)
            stiff, _ = pde._interp_quads(f.z, grid.dx)
            want = stiff - f.z[-1] * f.z[-1]
            assert _bits(pde.trace_check(f, grid)) == _bits(want)


class TestTraceSqIntegral:
    # level counts that leave a partial last block of staged levels:
    # 40 levels a block at 1-D N=201, 18 at 2-D N=21 and 2 at 2-D N=81
    @pytest.mark.parametrize("dim,n,levels", [(1, 201, 95), (1, 41, 7),
                                              (2, 21, 50), (2, 81, 9)])
    def test_matches_the_trapezoid_of_the_face_integrals(self, dim, n, levels):
        grid = pde.make_grid(dim, n, 0.4)
        assert levels % pde._block_states(n ** dim) != 0
        rng = np.random.default_rng([31, dim, n])
        for _ in range(5):
            shape = (levels, ref_boundary_node_count(grid))
            samples = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, shape)
            samples[rng.random(shape) < 0.1] = -0.0
            noise = pde.BoundaryTrace(samples, grid.dt)
            got = pde.trace_sq_integral(noise, grid)
            assert type(got) is float
            per_level = ref_boundary_sq_integral(samples[:, 0] if dim == 1 else samples,
                                                 grid)
            assert _bits(got) == _bits(np.trapezoid(per_level, dx=grid.dt))

    def test_a_trace_of_another_grid_is_rejected(self):
        grid = pde.make_grid(2, 21, 0.4)
        other = pde.BoundaryTrace(np.ones((5, 7)), grid.dt)
        with pytest.raises(ValueError, match="boundary nodes"):
            pde.trace_sq_integral(other, grid)
        late = pde.BoundaryTrace(np.ones((5, 39)), 2.0 * grid.dt)
        with pytest.raises(ValueError, match="trace step"):
            pde.trace_sq_integral(late, grid)


class TestMeasuredBoundaryLayoutStaysInPde:
    def test_cli_and_observer_read_no_layout_privates(self):
        # the measured-node layout, the staging blocks and the face and cell
        # quadratures are pde's; the CLI and the observer ask for zero_trace
        # and trace_sq_integral instead
        root = pathlib.Path(wavecert.__file__).parent
        for name in ("cli.py", "observer.py"):
            text = (root / name).read_text()
            for private in ("_plan", "_block_states", "_face_sq_integral",
                            "_integrate_cells"):
                assert private not in text, (name, private)


class TestTrapezoid:
    @pytest.mark.parametrize("shape", [(41,), (2,), (21, 21), (16, 9), (5, 7, 6)])
    def test_cell_integrals_match_numpy_trapezoid(self, shape):
        # numpy's trapezoid along each axis, the last first, bit for bit
        rng = np.random.default_rng([13] + list(shape))
        rough = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, shape)
        rough[rng.random(shape) < 0.1] = -0.0
        rough[rng.random(shape) < 0.1] = 0.0
        for y in (rough, np.full(shape, -0.0)):
            for dx in (0.05, 1.0 / 3.0, 1.0 / 15.0):
                want = y
                for axis in reversed(range(y.ndim)):
                    want = np.trapezoid(want, dx=dx, axis=axis)
                assert _bits(pde._integrate_cells(y, dx)) == _bits(want)


class TestSharedCoordinates:
    def test_axis_and_coords_are_shared_and_read_only(self):
        for dim in (1, 2):
            g = pde.Grid(dim, 21, 0.01)
            assert g.axis() is g.axis() and g.coords() is g.coords()
            arrays = [g.axis()] + ([g.coords()] if dim == 1 else list(g.coords()))
            for arr in arrays:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[1] = 5.0
        # equal grids are still equal and hash alike once one has stepped
        a, b = pde.Grid(2, 21, 0.01), pde.Grid(2, 21, 0.01)
        a.coords()
        assert a == b and hash(a) == hash(b)
        # copies keep the coordinates read-only
        for c in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert c == a
            assert not any(x.flags.writeable for x in c.coords())

    @pytest.mark.parametrize("dim", [1, 2])
    def test_nonlinearity_writing_into_x_raises(self, dim):
        g = pde.make_grid(dim, 21, 0.2)
        before = [np.array(c) for c in
                  ([g.coords()] if dim == 1 else g.coords())]

        def writes_x(z, x, t):
            (x if dim == 1 else x[0])[...] = 7.0
            return 0.0 * z

        def scales_x(z, x, t):
            if dim == 1:
                x *= 2.0
            else:
                x[1] *= 2.0
            return 0.0 * z

        f = _random_field(np.random.default_rng(3), 21, dim)
        for fn in (writes_x, scales_x):
            with pytest.raises(ValueError, match="read-only"):
                pde.step(f, g, pde.Nonlinearity(fn))
        after = [g.coords()] if dim == 1 else g.coords()
        for old, new in zip(before, after):
            assert old.tobytes() == np.asarray(new).tobytes()
        # and the grid still steps as a fresh one does
        fresh = pde.make_grid(dim, 21, 0.2)
        nl = _sources(dim)["x-dependent"]
        assert _bits(pde.step(f, g, nl).z) == _bits(ref_step(f, fresh, nl).z)


class TestOverflowWarnsNothing:
    def test_overflowing_step_raises_divergence_not_warning(self):
        # a source that overflows inside the first step: z stays finite
        # until the update, then turns into inf and nan
        g = pde.make_grid(1, 21, 0.05)
        x = g.axis()
        f0 = pde.WaveField(1e150 * x, np.zeros_like(x))
        nl = pde.Nonlinearity(lambda z, x, t: 1e10 * z * z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(pde.DivergenceError, match="non-finite"):
                pde.run(f0, 0.05, g, nl)

    def test_overflowing_observer_step_raises_divergence_not_warning(self):
        g = pde.make_grid(2, 21, 0.1, "observer-forward", 1.0)
        x1, x2 = g.coords()
        f0 = pde.WaveField(1e150 * x1 * x2, np.zeros_like(x1))
        nl = pde.Nonlinearity(lambda z, x, t: 1e10 * z * z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(pde.DivergenceError, match="non-finite"):
                pde.run(f0, 0.1, g, nl, pde.zero_trace(g, 0.1))


# ------------------------------------------------ run's workspace, bit for bit
#
# run steps in a two-slot workspace of its own, copies each state into a
# staging block, takes a block's energies in one kernel pass whose
# intermediates live in buffers it allocates once, and fills one
# preallocated trace array.  fresh_array_run is run's loop as it read
# before that: a direct step per time step, which returns fresh arrays,
# each block of the given number of states stacked into a new array, its
# kernel pass on fresh temporaries, and the trace a list of rows.  Both
# must give the same bits, and the same error.


def fresh_array_run(initial, horizon, grid, nonlinearity=pde.ZERO_F, trace_in=None,
                    chi=None, *, block):
    steps = pde.whole_steps(horizon, grid.dt)
    injecting = grid.mode != "plant"
    backward = grid.mode == "observer-backward"
    samples = None if trace_in is None else trace_in.samples
    if backward:
        state = pde.WaveField(initial.z, -initial.zt, initial.t)
        samples = -samples[::-1]
    else:
        state = pde.WaveField(initial.z, initial.zt, initial.t)
    out_rows = [state.zt[grid._plan.measured]]
    energies, lyap = [], None if chi is None else []
    pending = [state]

    def stack(arrays):
        return arrays[0] if len(arrays) == 1 else np.array(arrays)

    def record():
        states = pending[:]
        del pending[:]
        z, v = stack([s.z for s in states]), stack([s.zt for s in states])
        grads = pde._gradient(z, grid.dx, grid.dim)
        values = pde._energy(grads, v, grid.dx)
        lyaps = None if lyap is None else pde._lyapunov(z, v, grads, values, grid,
                                                        chi).reshape(-1)
        for i, (s, value) in enumerate(zip(states, values.reshape(-1))):
            energies.append(pde._finite(value, "energy", s.t))
            if lyap is not None:
                lyap.append(pde._finite(lyaps[i], "Lyapunov value", s.t))

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for i in range(steps):
                if len(pending) == block:
                    record()
                binput = (samples[i], samples[i + 1]) if injecting else None
                state = pde.step(state, grid, nonlinearity, binput)
                out_rows.append(state.zt[grid._plan.measured])
                pending.append(state)
        finally:
            if pending:
                record()
    final = pde.WaveField(state.z, -state.zt, state.t) if backward else state
    trace_out = pde.BoundaryTrace(np.array(out_rows), grid.dt, initial.t)
    return pde.Run(final, trace_out, np.array(energies),
                   None if lyap is None else np.array(lyap))


# (dim, N, states per energy block): 40 at 1-D N=201, 18 at 2-D N=21 and
# 2 at 2-D N=81, where a block holds the least states it may
WORKSPACE_GRIDS = [(1, 201, 40), (2, 21, 18), (2, 81, 2)]


def _workspace_case(dim, n, mode, steps, seed):
    rng = np.random.default_rng([31, dim, n, pde.MODES.index(mode), steps, seed])
    grid = pde.make_grid(dim, n, 1.0, mode, 0.0 if mode == "plant" else 1.3)
    trace = None
    if mode != "plant":
        trace = pde.BoundaryTrace(_boundary_inputs(rng, grid, steps), grid.dt, 0.5)
    f0 = _random_field(rng, n, dim)
    f0 = pde.WaveField(f0.z, f0.zt, 0.5)
    return grid, steps * grid.dt, f0, trace


def _assert_same_run(got, want):
    assert _bits(got.final.z) == _bits(want.final.z)
    assert _bits(got.final.zt) == _bits(want.final.zt)
    assert got.final.t == want.final.t
    assert got.trace.samples.shape == want.trace.samples.shape
    assert _bits(got.trace.samples) == _bits(want.trace.samples)
    assert (got.trace.dt, got.trace.t0) == (want.trace.dt, want.trace.t0)
    assert _bits(got.energies) == _bits(want.energies)
    assert (got.lyapunovs is None) == (want.lyapunovs is None)
    if want.lyapunovs is not None:
        assert _bits(got.lyapunovs) == _bits(want.lyapunovs)


def _error(fn, *args, **kwargs):
    with pytest.raises(pde.DivergenceError) as exc:
        fn(*args, **kwargs)
    return str(exc.value), exc.value.t


class TestRunWorkspace:
    @pytest.mark.parametrize("dim,n,block", WORKSPACE_GRIDS)
    @pytest.mark.parametrize("mode", pde.MODES)
    @pytest.mark.parametrize("chi", [None, 0.2])
    def test_run_matches_the_fresh_array_loop(self, dim, n, block, mode, chi):
        nl = _sources(dim)["x-dependent"]
        for steps in (1, block - 1, block, block + 1, 2 * block + 3):
            grid, horizon, f0, trace = _workspace_case(dim, n, mode, steps, 0)
            got = pde.run(f0, horizon, grid, nl, trace, chi=chi)
            _assert_same_run(got, fresh_array_run(f0, horizon, grid, nl, trace, chi,
                                                  block=block))

    @pytest.mark.parametrize("dim,n,block", WORKSPACE_GRIDS)
    @pytest.mark.parametrize("mode", pde.MODES)
    @pytest.mark.parametrize("chi", [None, 0.2])
    def test_blocks_match_per_state_functionals(self, dim, n, block, mode, chi):
        # every energy, Lyapunov value and trace row of a run, two full
        # blocks and a partial one, is the bits of pde.energy, pde.lyapunov
        # and z_t at the measured nodes of the same state, stepped alone;
        # backward runs step the time-reversed state (z, -z_t)
        nl = _sources(dim)["x-dependent"]
        steps = 2 * block + 3
        grid, horizon, f0, trace = _workspace_case(dim, n, mode, steps, 8)
        got = pde.run(f0, horizon, grid, nl, trace, chi=chi)
        samples = None if trace is None else trace.samples
        state = f0
        if mode == "observer-backward":
            state = pde.WaveField(f0.z, -f0.zt, f0.t)
            samples = -samples[::-1]
        states = [state]
        for i in range(steps):
            binput = None if samples is None else (samples[i], samples[i + 1])
            states.append(pde.step(states[-1], grid, nl, binput))
        assert _bits(got.energies) == _bits([pde.energy(s, grid) for s in states])
        if chi is None:
            assert got.lyapunovs is None
        else:
            assert _bits(got.lyapunovs) == _bits([pde.lyapunov(s, grid, chi) for s in states])
        rows = [s.zt[grid._plan.measured] for s in states]
        assert _bits(got.trace.samples) == _bits(rows)

    @pytest.mark.parametrize("at", [0, 1])
    def test_2d_energy_overflowing_mid_block_is_reported_at_its_own_t(self, at):
        # 2-D N=81 runs two states per block; a source pulse gives the
        # state at index 2 + at, the first or the second of its block, a
        # finite field whose energy overflows, and the finite states after
        # it overflow too: the error names the first one's t, the t at
        # which pde.energy of the same state, stepped alone, overflows
        dim, n, block = WORKSPACE_GRIDS[-1]
        steps = 2 * block + 3
        grid, horizon, f0, trace = _workspace_case(dim, n, "observer-forward", steps, 9)
        kick = f0.t + (2 + at - 0.5) * grid.dt
        nl = pde.Nonlinearity(lambda z, x, t: 1e200 if kick <= t < kick + grid.dt else 0.0)
        got = _error(pde.run, f0, horizon, grid, nl, trace, chi=0.2)
        assert got == _error(fresh_array_run, f0, horizon, grid, nl, trace, 0.2,
                             block=block)
        state = f0
        for i in range(2 + at):
            assert math.isfinite(pde.energy(state, grid))
            state = pde.step(state, grid, nl, (trace.samples[i], trace.samples[i + 1]))
        assert np.all(np.isfinite(state.z)) and np.all(np.isfinite(state.zt))
        with np.errstate(over="ignore"):
            assert pde.energy(state, grid) == math.inf
        assert got == ("solution diverged (energy inf) at t=%g" % state.t, state.t)

    @pytest.mark.parametrize("dim,n,block", WORKSPACE_GRIDS)
    @pytest.mark.parametrize("chi", [None, 0.2])
    def test_divergence_mid_block_matches_the_fresh_array_loop(self, dim, n, block, chi):
        # sources that switch on mid-way through the second block: one
        # turns the next state non-finite; one gives a finite state whose
        # energy overflows, then a non-finite one, so the energy, the
        # earlier error, must be the one reported; one grows a huge field
        # until its energy overflows
        steps = 2 * block + 3
        grid, horizon, f0, trace = _workspace_case(dim, n, "observer-forward", steps, 1)
        kick = f0.t + (block + block // 2 + 0.5) * grid.dt

        def non_finite(z, x, t):
            return math.nan if t > kick else 0.0

        def overflowing(z, x, t):
            return 0.0 if t < kick else 1e200 if t < kick + grid.dt else math.inf

        def growing(z, x, t):
            return 1e8 * z

        messages = []
        for f, amp in ((non_finite, 1.0), (overflowing, 1.0), (growing, 1e140)):
            start = pde.WaveField(amp * f0.z, amp * f0.zt, f0.t)
            nl = pde.Nonlinearity(f)
            got = _error(pde.run, start, horizon, grid, nl, trace, chi=chi)
            assert got == _error(fresh_array_run, start, horizon, grid, nl, trace, chi,
                                 block=block)
            messages.append(got)
        (first, t1), (second, t2), (third, _) = messages
        assert "non-finite values" in first
        assert "energy inf" in second and "energy inf" in third
        assert t1 == t2 > kick

    @pytest.mark.parametrize("dim,n,block", WORKSPACE_GRIDS)
    def test_results_keep_their_values_after_later_runs_and_steps(self, dim, n, block):
        nl = _sources(dim)["x-dependent"]
        grid, horizon, f0, trace = _workspace_case(dim, n, "observer-forward", block + 5, 2)
        final, tr, e, v = pde.run(f0, horizon, grid, nl, trace, chi=0.2)
        kept = [_bits(a) for a in (final.z, final.zt, tr.samples, e, v)]
        back, back_tr, back_e, _ = pde.run(
            final, horizon, replace(grid, mode="observer-backward"), nl, trace)
        kept_back = [_bits(a) for a in (back.z, back.zt, back_tr.samples, back_e)]
        pde.run(pde.WaveField(2.0 * f0.z, f0.zt, f0.t), horizon, grid, nl, trace, chi=0.2)
        state = final
        for _ in range(2 * block + 1):  # more steps than a run's staging block
            state = pde.step(state, grid, nl, (trace.samples[0], trace.samples[1]))
        pde.run(f0, horizon, grid, nl, trace)
        assert [_bits(a) for a in (final.z, final.zt, tr.samples, e, v)] == kept
        assert [_bits(a) for a in (back.z, back.zt, back_tr.samples, back_e)] == kept_back

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("mode", pde.MODES)
    def test_direct_steps_share_no_memory(self, dim, mode):
        n = 21
        grid, _, f0, trace = _workspace_case(dim, n, mode, 4, 3)
        nl = _sources(dim)["x-dependent"]
        fields = [f0]
        for i in range(4):
            binput = None if trace is None else (trace.samples[i], trace.samples[i + 1])
            fields.append(pde.step(fields[-1], grid, nl, binput))
        first = [_bits(a) for a in (fields[1].z, fields[1].zt)]
        arrays = [a for f in fields for a in (f.z, f.zt)]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        assert [_bits(a) for a in (fields[1].z, fields[1].zt)] == first

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("mode", pde.MODES)
    def test_run_steps_through_the_module_step(self, monkeypatch, dim, mode):
        # the bench tracer replaces pde.step by a wrapper and counts each
        # call under the dimension of its second argument's grid
        calls = []
        original = pde.step

        @functools.wraps(original)
        def traced(*args, **kwargs):
            calls.append(args[1] if len(args) > 1 else kwargs["grid"])
            return original(*args, **kwargs)

        monkeypatch.setattr(pde, "step", traced)
        grid, horizon, f0, trace = _workspace_case(dim, 21, mode, 23, 8)
        pde.run(f0, horizon, grid, _sources(dim)["x-dependent"], trace)
        assert len(calls) == 23 and all(g is grid for g in calls)

    @pytest.mark.parametrize("mode", pde.MODES)
    def test_run_leaves_no_reference_cycle(self, mode):
        # a cycle would keep each run's workspace until the cyclic
        # collector runs; with the collector off, none may be left over
        results = []
        gc.collect()
        gc.disable()
        try:
            for dim, n, block in WORKSPACE_GRIDS:
                nl = _sources(dim)["x-dependent"]
                grid, horizon, f0, trace = _workspace_case(dim, n, mode, block + 2, 4)
                results.append(pde.run(f0, horizon, grid, nl, trace, chi=0.2))
                binput = None if trace is None else (trace.samples[0], trace.samples[1])
                results.append(pde.step(f0, grid, nl, binput))
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0

    @pytest.mark.parametrize("mode", pde.MODES)
    @pytest.mark.parametrize("chi", [None, 0.2])
    def test_result_fields_do_not_depend_on_chi(self, mode, chi):
        grid, horizon, f0, trace = _workspace_case(1, 21, mode, 3, 5)
        result = pde.run(f0, horizon, grid, trace_in=trace, chi=chi)
        assert type(result) is pde.Run and len(result) == 4
        assert result._fields == ("final", "trace", "energies", "lyapunovs")
        final, trace_out, energies, lyapunovs = result
        assert type(final) is pde.WaveField
        assert type(trace_out) is pde.BoundaryTrace
        assert trace_out.samples.shape == (4, 1) and energies.shape == (4,)
        assert (lyapunovs is None) == (chi is None)
        if chi is not None:
            assert lyapunovs.shape == (4,)

    def test_trace_memory_per_float(self):
        # a mid-size 2-D observer run: 4,715 steps over 29 measured nodes,
        # 136,764 trace floats, of which the trace array itself takes 8
        # bytes each; a run a quarter as long gives the bytes per further
        # trace float, free of the workspace and the energy kernel
        grid = pde.make_grid(2, 16, 200.0, "observer-forward", 1.0)
        x1, x2 = grid.coords()
        f0 = pde.WaveField(np.sin(PI * x1 / 2) * np.sin(PI * x2 / 2), np.zeros_like(x1))
        rng = np.random.default_rng(41)
        peaks, floats = [], []
        for steps in (1179, 4715):
            horizon = steps * grid.dt
            trace = pde.BoundaryTrace(
                0.01 * rng.normal(size=(steps + 1, pde.boundary_node_count(grid))), grid.dt)
            tracemalloc.start()
            try:
                result = pde.run(f0, horizon, grid, trace_in=trace)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            floats.append(result.trace.samples.size)
            del result
        assert floats[1] == 136764
        assert peaks[1] / floats[1] < 16.0, peaks[1] / floats[1]
        further = (peaks[1] - peaks[0]) / (floats[1] - floats[0])
        assert further < 10.0, further

    @staticmethod
    def _held_at_each_step(monkeypatch, f0, horizon, grid, chi=None):
        # the number of steps, the traced memory a run holds at its first
        # step and the peak from there to the last step; kept in three
        # numbers, as a list of one entry per step would grow with the run
        held = {"steps": 0, "first": None, "peak": 0}

        class Recording(pde._Workspace):
            def advance(self, boundary_input):
                if held["first"] is None:
                    held["first"] = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                held["steps"] += 1
                held["peak"] = max(held["peak"], tracemalloc.get_traced_memory()[1])
                return super().advance(boundary_input)

        monkeypatch.setattr(pde, "_Workspace", Recording)
        tracemalloc.start()
        try:
            result = pde.run(f0, horizon, grid, pde.ZERO_F, chi=chi)
        finally:
            tracemalloc.stop()
        return held["steps"], held["peak"] - held["first"], result

    def test_energy_blocks_allocate_no_grid_sized_temporary(self, monkeypatch):
        # by the first step a run holds every array it allocates once: the
        # start field, the workspace, the staging block, the kernel's
        # buffers, the trace and the series; from there to the last step,
        # over six kernel passes, a 2-D N=81 run peaks by less than one
        # 52 KB grid array above that
        grid = pde.make_grid(2, 81, 0.1)
        x1, x2 = grid.coords()
        f0 = pde.WaveField(np.sin(PI * x1 / 2) * np.sin(PI * x2 / 2), np.zeros_like(x1))
        steps, above, result = self._held_at_each_step(monkeypatch, f0, 0.1, grid)
        assert steps + 1 == len(result.energies) == 14
        assert above < 16 * 1024, above

    def test_1d_lyapunov_blocks_allocate_no_iterator_buffer(self, monkeypatch):
        # a 1-D N=201 run with chi takes three kernel passes over blocks of
        # 40 states; the cross term's axis, broadcast over such a block,
        # cost each pass numpy's 64 KB iterator buffer
        grid = pde.make_grid(1, 201, 0.5)
        x = grid.axis()
        f0 = pde.WaveField(np.sin(PI * x / 2), np.zeros_like(x))
        steps, above, result = self._held_at_each_step(monkeypatch, f0, 0.5, grid,
                                                       chi=0.1)
        assert steps + 1 == len(result.lyapunovs) == 113
        assert above < 16 * 1024, above


class TestOneAccelerationPerStep:
    """A run takes A(z) = Laplacian + f once per step, after the start
    field's, and a direct step twice: counted in calls of f, which no
    timing sways, each at its own time level."""

    @pytest.mark.parametrize("dim,n", [(1, 41), (2, 21)])
    @pytest.mark.parametrize("mode", pde.MODES)
    def test_source_evaluations(self, dim, n, mode):
        times = []

        def counted(z, x, t):
            times.append(t)
            return 0.1 * np.sin(z)

        nl = pde.Nonlinearity(counted, fz_bound=0.1)
        steps = 23
        grid, horizon, f0, trace = _workspace_case(dim, n, mode, steps, 10)
        final = pde.run(f0, horizon, grid, nl, trace).final
        assert len(times) == steps + 1
        assert times[0] == f0.t
        direction = -1.0 if mode == "observer-backward" else 1.0
        assert np.all(direction * np.diff(times) > 0.0)
        assert times[-1] == pytest.approx(final.t)
        del times[:]
        binput = None if trace is None else (trace.samples[0], trace.samples[1])
        pde.step(f0, grid, nl, binput)
        assert times == [f0.t, f0.t + direction * grid.dt]


class TestFreshResultFields:
    """run's final field, in either direction, and a direct step's result
    are new WaveFields: arrays of their own, +0.0 on the clamped faces."""

    @staticmethod
    def _record_workspaces(monkeypatch):
        made = []

        class Recording(pde._Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(pde, "_Workspace", Recording)
        return made

    @staticmethod
    def _assert_fresh(field, f0, ws):
        owned = [ws.slots, ws.acc, ws.finite, f0.z, f0.zt]
        owned += [] if ws.inject is None else [ws.inject]
        assert not np.shares_memory(field.z, field.zt)
        for arr in (field.z, field.zt):
            assert arr.base is None
            assert not any(np.shares_memory(arr, other) for other in owned)
            for axis in range(arr.ndim):
                face = arr.swapaxes(0, axis)[0]
                assert np.all(face == 0.0) and not np.any(np.signbit(face))

    @pytest.mark.parametrize("dim,n,block", WORKSPACE_GRIDS)
    @pytest.mark.parametrize("mode", pde.MODES)
    def test_run_final_field(self, monkeypatch, dim, n, block, mode):
        made = self._record_workspaces(monkeypatch)
        grid, horizon, f0, trace = _workspace_case(dim, n, mode, block + 3, 6)
        final = pde.run(f0, horizon, grid, _sources(dim)["x-dependent"], trace).final
        assert type(final) is pde.WaveField and len(made) == 1
        self._assert_fresh(final, f0, made[0])
        assert final.t == pytest.approx(
            f0.t + (-1.0 if mode == "observer-backward" else 1.0) * horizon)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("mode", pde.MODES)
    def test_direct_step_result(self, monkeypatch, dim, mode):
        made = self._record_workspaces(monkeypatch)
        grid, _, f0, trace = _workspace_case(dim, 21, mode, 2, 7)
        binput = None if trace is None else (trace.samples[0], trace.samples[1])
        got = pde.step(f0, grid, _sources(dim)["x-dependent"], binput)
        assert type(got) is pde.WaveField and len(made) == 1
        self._assert_fresh(got, f0, made[0])
