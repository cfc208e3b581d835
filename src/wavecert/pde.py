"""Finite-difference wave solver on the unit interval and unit square.

The scheme is the classical leapfrog in velocity form: the displacement
update is the exact Taylor half-step z + dt v + dt^2/2 a, the velocity is
advanced by the trapezoidal mean of the accelerations at both levels.
Neumann and injection boundary conditions enter through reflecting ghost
nodes; the damped boundary velocity is solved from its own trapezoidal
update (a scalar linear equation per node, so the step stays explicit).
A weak fourth-difference smoothing pass removes the near-Nyquist modes
that the 3-point stencil propagates with zero group velocity; without it
those modes sit on the measured boundary forever and poison long damped
runs.  The smoothing strength is far below the scheme's truncation error;
the energy-conservation and convergence-order tests pin that down.

Sides of the square with x_p = 0 are clamped (z = 0); the remaining sides
form the measured boundary.  In two dimensions the corner (1,1) belongs to
both measured faces and carries flux multiplicity two, with its trace
quadrature weight split evenly between the faces.
"""

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .certificates import checked_float, checked_int, fmt_float

KO_NU = 0.02  # fourth-difference smoothing strength
CFL_1D = 0.9
CFL_2D = 0.9 / math.sqrt(2.0)

_trapz = getattr(np, "trapezoid", None) or np.trapz

MODES = ("plant", "observer-forward", "observer-backward")


class DivergenceError(RuntimeError):
    """The explicit update produced non-finite values, or a finite field
    whose energy overflowed."""

    def __init__(self, t, what="non-finite values"):
        super().__init__("solution diverged (%s) at t=%g" % (what, t))
        self.t = t


def default_cfl(dim):
    return CFL_1D if dim == 1 else CFL_2D


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0,1]^dim with the time step and solver mode.

    mode selects the boundary condition on the measured faces: plant means
    zero flux, the observer modes add the damped injection k (y - z_t) with
    y replayed from a recorded trace.
    """

    dim: int
    points_per_axis: int
    dt: float
    mode: str = "plant"
    k: float = 0.0

    def __post_init__(self):
        dim = checked_int("dim", self.dim, 1)
        if dim > 2:
            raise ValueError("dim must be 1 or 2")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "points_per_axis",
                           checked_int("points_per_axis", self.points_per_axis, 16))
        if self.mode not in MODES:
            raise ValueError("mode must be one of %s" % (MODES,))
        object.__setattr__(self, "k", checked_float("k", self.k, 0.0))
        dt = checked_float("dt", self.dt, 0.0, strict=True)
        if dt > default_cfl(dim) * self.dx * (1.0 + 1e-12):
            raise ValueError("dt=%g violates the CFL bound %g * dx" %
                             (dt, default_cfl(dim)))
        object.__setattr__(self, "dt", dt)

    @property
    def dx(self):
        return 1.0 / (self.points_per_axis - 1)

    @cached_property
    def _plan(self):
        # built on first use, so constructing a grid stays cheap
        return _GridPlan(self)

    def __getstate__(self):
        # copies and pickles rebuild the plan: numpy does not keep the
        # read-only flag of the arrays through a pickle round trip
        state = dict(self.__dict__)
        state.pop("_plan", None)
        return state

    def axis(self):
        """Node coordinates along one axis; shared and read-only."""
        return self._plan.axis

    def coords(self):
        """Coordinate arrays matching the field shape (x, or (x1, x2)),
        shared by every caller and read-only."""
        return self._plan.coords


def _read_only(arr):
    arr.flags.writeable = False
    return arr


class _GridPlan:
    """Per-grid invariants of the solver step.

    Each constant keeps the association it has in the step formula
    ((0.5 * dt) * dt, then flux * mult before the field), so hoisting it
    out of the step changes no bit.  denom is the trapezoidal boundary
    velocity's divisor: a float in 1-D, an array over the nodes in 2-D.
    """

    __slots__ = ("axis", "coords", "dx2", "flux", "half_dt", "half_dt2",
                 "flux_mult", "denom")

    def __init__(self, grid):
        dt, dx, k = grid.dt, grid.dx, grid.k
        self.axis = _read_only(np.linspace(0.0, 1.0, grid.points_per_axis))
        self.dx2 = dx * dx
        self.flux = 2.0 * k / dx
        self.half_dt = 0.5 * dt
        self.half_dt2 = 0.5 * dt * dt
        if grid.dim == 1:
            self.coords = self.axis
            self.flux_mult = None
            self.denom = 1.0 + k * dt / dx
        else:
            self.coords = tuple(_read_only(c) for c in
                                np.meshgrid(self.axis, self.axis, indexing="ij"))
            mult = _multiplicity(grid)
            self.flux_mult = _read_only(self.flux * mult)
            self.denom = _read_only(1.0 + mult * k * dt / dx)


def make_grid(dim, points_per_axis, horizon, mode="plant", k=0.0, cfl=None):
    """Grid whose dt divides the horizon exactly at (or under) the CFL bound."""
    horizon = checked_float("horizon", horizon, 0.0, strict=True)
    cfl = default_cfl(dim) if cfl is None else checked_float("cfl", cfl, 0.0, strict=True)
    dx = 1.0 / (checked_int("points_per_axis", points_per_axis, 16) - 1)
    steps = max(1, int(math.ceil(horizon / (cfl * dx) - 1e-12)))
    return Grid(dim, points_per_axis, horizon / steps, mode, k)


def _check_dirichlet(name, arr, dim):
    scale = 1e-9 * max(1.0, float(np.max(np.abs(arr))) if arr.size else 1.0)
    if dim == 1:
        bad = abs(float(arr[0])) > scale
    else:
        bad = max(float(np.max(np.abs(arr[0, :]))), float(np.max(np.abs(arr[:, 0])))) > scale
    if bad:
        raise ValueError("%s must vanish on the clamped boundary (x_p = 0)" % name)


def _pin_dirichlet(arr, dim):
    if dim == 1:
        arr[0] = 0.0
    else:
        arr[0, :] = 0.0
        arr[:, 0] = 0.0


class WaveField:
    """Displacement and velocity arrays plus the current time.

    Arrays are copied and validated on construction: everything finite, and
    both components exactly zero on the clamped part of the boundary.
    """

    __slots__ = ("z", "zt", "t")

    def __init__(self, z, zt, t=0.0):
        z = np.array(z, dtype=float)
        zt = np.array(zt, dtype=float)
        if z.shape != zt.shape or z.ndim not in (1, 2):
            raise ValueError("z and zt must be equal-shape 1-D or 2-D arrays")
        if z.ndim == 2 and z.shape[0] != z.shape[1]:
            raise ValueError("2-D fields must be square")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(zt))):
            raise ValueError("field values must be finite")
        _check_dirichlet("z", z, z.ndim)
        _check_dirichlet("zt", zt, z.ndim)
        _pin_dirichlet(z, z.ndim)
        _pin_dirichlet(zt, z.ndim)
        self.z = z
        self.zt = zt
        self.t = float(t)

    @property
    def dim(self):
        return self.z.ndim

    def copy(self):
        return WaveField(self.z, self.zt, self.t)


@dataclass(frozen=True, eq=False)
class BoundaryTrace:
    """z_t sampled on the measured boundary at every solver step.

    samples has one row per time level; in 2-D the columns enumerate the
    measured nodes in lexicographic grid order, the corner (1,1) last.
    """

    samples: np.ndarray
    dt: float
    t0: float = 0.0

    def __post_init__(self):
        s = np.array(self.samples, dtype=float)
        if s.ndim not in (1, 2) or s.shape[0] < 2:
            raise ValueError("samples must hold at least two time levels")
        if not np.all(np.isfinite(s)):
            raise ValueError("trace samples must be finite")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "dt", checked_float("dt", self.dt, 0.0, strict=True))
        object.__setattr__(self, "t0", checked_float("t0", self.t0))

    @property
    def steps(self):
        return self.samples.shape[0] - 1

    @property
    def span(self):
        return self.steps * self.dt


@dataclass(frozen=True)
class Nonlinearity:
    """Source term f(z, x, t) with its declared Lipschitz data.

    f must be vectorized over the field array; fz_bound is the certified
    bound g1 on |df/dz|, valid on |z| <= local_radius.
    """

    f: object = None
    fz_bound: float = 0.0
    local_radius: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "fz_bound", checked_float("fz_bound", self.fz_bound, 0.0))
        if self.local_radius != math.inf:  # inf: the bound holds globally
            object.__setattr__(self, "local_radius",
                               checked_float("local_radius", self.local_radius, 0.0,
                                             strict=True))

    def __call__(self, z, x, t):
        if self.f is None:
            return 0.0
        return self.f(z, x, t)


ZERO_F = Nonlinearity()


# ------------------------------------------------------------------ boundary


def boundary_node_count(grid):
    n = grid.points_per_axis
    return 1 if grid.dim == 1 else 2 * n - 3


def gather_trace(v, grid):
    """Measured-boundary values of an array, lexicographic node order."""
    if grid.dim == 1:
        return float(v[-1])
    return np.concatenate([v[1:-1, -1], v[-1, 1:]])


def _scatter(values, grid):
    n = grid.points_per_axis
    full = np.zeros((n, n))
    full[1:-1, -1] = values[: n - 2]
    full[-1, 1:] = values[n - 2:]
    return full


def _multiplicity(grid):
    n = grid.points_per_axis
    m = np.zeros((n, n))
    m[1:, -1] += 1.0
    m[-1, 1:] += 1.0
    return m


# ------------------------------------------------------------------- stepping


def _accel(z, grid, nonlinearity, t):
    """Laplacian with reflecting ghosts on the measured faces, plus f."""
    plan = grid._plan
    dx2 = plan.dx2
    # the clamped entries are pinned at the end, but are zeroed first so
    # that no sum below meets uninitialised memory
    a = np.empty_like(z)
    if grid.dim == 1:
        a[0] = 0.0
        a[1:-1] = (z[2:] - 2.0 * z[1:-1] + z[:-2]) / dx2
        a[-1] = 2.0 * (z[-2] - z[-1]) / dx2
    else:
        a[0, :] = 0.0
        a[1:-1, :] = z[2:, :] - 2.0 * z[1:-1, :] + z[:-2, :]
        a[-1, :] = 2.0 * (z[-2, :] - z[-1, :])
        d2 = np.empty_like(z)
        d2[:, 0] = 0.0
        d2[:, 1:-1] = z[:, 2:] - 2.0 * z[:, 1:-1] + z[:, :-2]
        d2[:, -1] = 2.0 * (z[:, -2] - z[:, -1])
        a += d2
        a /= dx2
    fv = nonlinearity(z, plan.coords, t)
    if np.ndim(fv) or fv:
        a += fv
    _pin_dirichlet(a, grid.dim)
    return a


def _smooth(w, dim):
    nu = KO_NU / 16.0
    if dim == 1:
        w[2:-2] -= nu * (w[4:] - 4.0 * w[3:-1] + 6.0 * w[2:-2] - 4.0 * w[1:-3] + w[:-4])
    else:
        w[2:-2, :] -= nu * (w[4:, :] - 4.0 * w[3:-1, :] + 6.0 * w[2:-2, :]
                            - 4.0 * w[1:-3, :] + w[:-4, :])
        w[:, 2:-2] -= nu * (w[:, 4:] - 4.0 * w[:, 3:-1] + 6.0 * w[:, 2:-2]
                            - 4.0 * w[:, 1:-3] + w[:, :-4])
    _pin_dirichlet(w, dim)


def step(field, grid, nonlinearity=ZERO_F, boundary_input=None, _direction=1.0):
    """One explicit step; boundary_input = (y_now, y_next) in observer modes."""
    injecting = grid.mode != "plant"
    if injecting and boundary_input is None:
        raise ValueError("observer modes need boundary_input = (y_now, y_next)")
    if not injecting and boundary_input is not None:
        raise ValueError("plant mode takes no boundary input")
    z, v, t = field.z, field.zt, field.t
    dt = grid.dt
    plan = grid._plan

    a0 = _accel(z, grid, nonlinearity, t)
    if injecting:
        y0, y1 = boundary_input
        if grid.dim == 1:
            a0[-1] += plan.flux * (float(y0) - v[-1])
        else:
            a0 += plan.flux_mult * (_scatter(np.asarray(y0, dtype=float), grid) - v)

    z_new = z + dt * v + plan.half_dt2 * a0
    _pin_dirichlet(z_new, grid.dim)
    t_new = t + _direction * dt
    a1 = _accel(z_new, grid, nonlinearity, t_new)
    a01 = a0 + a1

    # in observer modes the trapezoidal boundary velocity keeps the
    # new-level damping term implicit, a scalar linear solve per measured node
    if injecting and grid.dim == 2:
        y1_full = _scatter(np.asarray(y1, dtype=float), grid)
        v_new = (v + plan.half_dt * (a01 + plan.flux_mult * y1_full)) / plan.denom
    else:
        v_new = v + plan.half_dt * a01
        if injecting:
            v_new[-1] = (v[-1] + plan.half_dt * (a01[-1] + plan.flux * float(y1))) \
                / plan.denom
    _pin_dirichlet(v_new, grid.dim)

    _smooth(z_new, grid.dim)
    _smooth(v_new, grid.dim)

    if not (np.isfinite(z_new).all() and np.isfinite(v_new).all()):
        raise DivergenceError(t_new)
    out = WaveField.__new__(WaveField)
    out.z = z_new
    out.zt = v_new
    out.t = t_new
    return out


def run(initial, horizon, grid, nonlinearity=ZERO_F, trace_in=None, chi=None):
    """Integrate over the horizon; returns (final, trace_out, energy series).

    Backward mode takes the states and the trace in physical orientation:
    initial is the state at the far end of the window, trace_in the
    recorded measurement on [t0, t0+T], and the returned field is the
    reconstructed state at t0.  Internally the time-reversed system is
    integrated forward (z, z_t) -> (z, -z_t) with the trace replayed in
    reverse and negated, which turns the anti-damped backward boundary
    condition into the usual damped one.

    With chi set, the series also records the Lyapunov value each step and
    the return becomes (final, trace_out, (E series, V series)).
    """
    steps = int(round(horizon / grid.dt))
    if steps < 1 or abs(steps * grid.dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be a whole number of time steps")
    injecting = grid.mode != "plant"
    if injecting:
        if trace_in is None:
            raise ValueError("observer modes need a measurement trace")
        samples = trace_in.samples
        if grid.dim == 1 and samples.ndim == 2 and samples.shape[1] == 1:
            samples = samples[:, 0]
        if samples.shape[0] != steps + 1:
            raise ValueError("trace has %d levels, the run needs %d"
                             % (samples.shape[0], steps + 1))
        if abs(trace_in.dt - grid.dt) > 1e-12 * grid.dt:
            raise ValueError("trace step %g does not match the grid step %g"
                             % (trace_in.dt, grid.dt))
        want = boundary_node_count(grid)
        got = 1 if samples.ndim == 1 else samples.shape[1]
        if got != want:
            raise ValueError("trace carries %d boundary nodes, the grid has %d"
                             % (got, want))
    elif trace_in is not None:
        raise ValueError("plant runs take no measurement trace")

    backward = grid.mode == "observer-backward"
    if backward:
        state = WaveField(initial.z, -initial.zt, initial.t)
        samples = -samples[::-1]
        direction = -1.0
    else:
        state = initial.copy()
        direction = 1.0

    n_f = nonlinearity
    out_rows = [gather_trace(state.zt, grid)]
    energies = []
    lyap = None if chi is None else []

    def record(state):
        energies.append(_finite(energy(state, grid), "energy", state.t))
        if lyap is not None:
            lyap.append(_finite(lyapunov(state, grid, chi, grid.k),
                                "Lyapunov value", state.t))

    # an overflowing step or energy is reported as DivergenceError alone,
    # without a RuntimeWarning first: step checks that the field stays
    # finite, record that the energy does
    with np.errstate(over="ignore", invalid="ignore"):
        record(state)
        for i in range(steps):
            binput = (samples[i], samples[i + 1]) if injecting else None
            state = step(state, grid, n_f, binput, _direction=direction)
            out_rows.append(gather_trace(state.zt, grid))
            record(state)

    if backward:
        final = WaveField(state.z, -state.zt, state.t)
    else:
        final = state
    trace_out = BoundaryTrace(np.array(out_rows), grid.dt, initial.t)
    energies = np.array(energies)
    if lyap is not None:
        return final, trace_out, (energies, np.array(lyap))
    return final, trace_out, energies


def _finite(value, name, t):
    if not math.isfinite(value):
        raise DivergenceError(t, "%s %s" % (name, fmt_float(value)))
    return value


# ----------------------------------------------------------------- functionals


def _gradient(z, dx):
    """Per-axis derivatives, as np.gradient(z, dx) computes them.

    numpy's own operations for a uniform spacing and edge_order=1: central
    differences (z[2:] - z[:-2]) / (2. * dx) inside, one-sided differences
    over dx at both ends, so the values are bit-identical, without
    np.gradient's argument handling.
    """
    grads = []
    for axis in range(z.ndim):
        f = z.swapaxes(0, axis)
        g = np.empty_like(f)  # keeps f's layout, so g swaps back to z's
        g[1:-1] = (f[2:] - f[:-2]) / (2. * dx)
        g[0] = (f[1] - f[0]) / dx
        g[-1] = (f[-1] - f[-2]) / dx
        grads.append(g.swapaxes(0, axis))
    return grads


def _grad_sq(z, dx):
    if z.ndim == 1:
        g = _gradient(z, dx)[0]
        return g * g
    g1, g2 = _gradient(z, dx)
    return g1 * g1 + g2 * g2


def _integrate_cells(values, dx):
    if values.ndim == 1:
        return _trapz(values, dx=dx)
    return _trapz(_trapz(values, dx=dx, axis=1), dx=dx)


def energy(field, grid):
    """E = 1/2 integral of |grad z|^2 + z_t^2 (trapezoid rule)."""
    return 0.5 * _integrate_cells(
        _grad_sq(field.z, grid.dx) + field.zt * field.zt, grid.dx)


def hnorm(field, grid):
    """Natural state norm sqrt(2 E)."""
    return math.sqrt(max(2.0 * energy(field, grid), 0.0))


def lyapunov(field, grid, chi, k=None):
    """V = E + chi * cross term + chi k (n-1)/2 boundary term.

    chi = 0 returns the energy exactly.
    """
    chi = 0.0 if chi is None else checked_float("chi", chi, 0.0)
    k = grid.k if k is None else k
    e = energy(field, grid)
    z, v, dx = field.z, field.zt, grid.dx
    if grid.dim == 1:
        x = grid.axis()
        zx = _gradient(z, dx)[0]
        cross = _trapz(2.0 * x * zx * v, dx=dx)
        return e + chi * cross
    x1, x2 = grid.coords()
    g1, g2 = _gradient(z, dx)
    cross = _integrate_cells((2.0 * (x1 * g1 + x2 * g2) + z) * v, dx)
    face = _trapz(z[:, -1] ** 2, dx=dx) + _trapz(z[-1, :] ** 2, dx=dx)
    return e + chi * cross + chi * k * 0.5 * face


# The three inequality checkers integrate the piecewise-(bi)linear
# interpolant of the samples exactly.  The interpolant vanishes on the
# clamped boundary whenever the samples do, so each continuous inequality
# applies to it verbatim and the residual can only go negative by float
# roundoff.  A pointwise-stencil quadrature would not do: its lowest
# discrete eigenvalue sits below the continuous one and near-extremal
# fields then report residuals around -dx^2.


def _edge_sq_integral(vals, dx):
    # exact integral of the linear interpolant squared along a line
    a, b = vals[:-1], vals[1:]
    return float(np.sum(a * a + a * b + b * b)) * dx / 3.0


def _interp_quads(z, dx):
    """Exact (integral |grad zh|^2, integral zh^2) for the interpolant zh."""
    if z.ndim == 1:
        d = np.diff(z)
        stiff = float(np.sum(d * d)) / dx
        mass = _edge_sq_integral(z, dx)
        return stiff, mass
    # bilinear cells, 2x2 Gauss rule (exact: integrands are quadratic
    # per coordinate)
    a = z[:-1, :-1]
    b = z[1:, :-1]
    c = z[:-1, 1:]
    d = z[1:, 1:]
    lo = 0.5 - 0.5 / math.sqrt(3.0)
    stiff = 0.0
    mass = 0.0
    for gx in (lo, 1.0 - lo):
        for gy in (lo, 1.0 - lo):
            val = (a * (1 - gx) * (1 - gy) + b * gx * (1 - gy)
                   + c * (1 - gx) * gy + d * gx * gy)
            dzx = (b - a) * (1 - gy) + (d - c) * gy
            dzy = (c - a) * (1 - gx) + (d - b) * gx
            stiff += float(np.sum(dzx * dzx + dzy * dzy))
            mass += float(np.sum(val * val))
    return 0.25 * stiff, 0.25 * mass * dx * dx


def wirtinger_check(field, grid):
    """4/(pi^2 n) integral |grad z|^2 - integral z^2, interpolant-exact."""
    _check_dirichlet("z", field.z, grid.dim)
    w = 4.0 / (math.pi ** 2 * grid.dim)
    stiff, mass = _interp_quads(field.z, grid.dx)
    return w * stiff - mass


def trace_check(field, grid):
    """Integral |grad z|^2 - boundary integral z^2, interpolant-exact."""
    _check_dirichlet("z", field.z, grid.dim)
    z, dx = field.z, grid.dx
    stiff, _ = _interp_quads(z, dx)
    if grid.dim == 1:
        boundary = float(z[-1]) ** 2
    else:
        boundary = _edge_sq_integral(z[-1, :], dx) + _edge_sq_integral(z[:, -1], dx)
    return stiff - boundary


def sobolev_check(field, grid):
    """Integral z_x^2 - max z^2 (one dimension only), interpolant-exact."""
    if grid.dim != 1:
        raise ValueError("the sup-norm bound is one-dimensional")
    _check_dirichlet("z", field.z, grid.dim)
    stiff, _ = _interp_quads(field.z, grid.dx)
    return stiff - float(np.max(field.z ** 2))


# -------------------------------------------------------------------- export


def trajectory_csv(trace, energies, lyapunovs=None):
    """CSV text t,E,V,trace0[,trace1,...]; V falls back to E when absent.

    A non-finite energy or Lyapunov value raises ValueError.
    """
    samples = trace.samples
    cols = 1 if samples.ndim == 1 else samples.shape[1]
    header = "t,E,V," + ",".join("trace%d" % j for j in range(cols))
    if lyapunovs is None:
        lyapunovs = energies
    if not (np.all(np.isfinite(energies)) and np.all(np.isfinite(lyapunovs))):
        raise ValueError("non-finite energy or Lyapunov value in the trajectory")
    lines = [header]
    for i in range(samples.shape[0]):
        t = trace.t0 + i * trace.dt
        row = [fmt_float(t), fmt_float(energies[i]), fmt_float(lyapunovs[i])]
        if cols == 1:
            row.append(fmt_float(samples[i]))
        else:
            row.extend(fmt_float(v) for v in samples[i])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def read_trajectory_csv(text):
    """(BoundaryTrace, E array, V array) parsed back from trajectory_csv."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    if header[:3] != ["t", "E", "V"] or len(header) < 4:
        raise ValueError("expected a header starting with t,E,V,trace0")
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    if rows.shape[0] < 2:
        raise ValueError("trajectory needs at least two time levels")
    times = rows[:, 0]
    dts = np.diff(times)
    dt = float(dts[0])
    if not np.all(np.abs(dts - dt) <= 1e-9 * max(dt, 1.0)):
        raise ValueError("trace sample times must be uniform")
    samples = rows[:, 3] if rows.shape[1] == 4 else rows[:, 3:]
    return BoundaryTrace(samples, dt, float(times[0])), rows[:, 1], rows[:, 2]


def snapshot_csv(field, grid):
    """CSV text x[,y],z,zt over all grid nodes in lexicographic order."""
    x = grid.axis()
    lines = []
    if grid.dim == 1:
        lines.append("x,z,zt")
        for i in range(x.size):
            lines.append(",".join([fmt_float(x[i]), fmt_float(field.z[i]),
                                   fmt_float(field.zt[i])]))
    else:
        lines.append("x,y,z,zt")
        for i in range(x.size):
            for j in range(x.size):
                lines.append(",".join([fmt_float(x[i]), fmt_float(x[j]),
                                       fmt_float(field.z[i, j]),
                                       fmt_float(field.zt[i, j])]))
    return "\n".join(lines) + "\n"
