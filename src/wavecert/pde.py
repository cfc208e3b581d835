"""Finite-difference wave solver on the unit hypercube [0,1]^dim.

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

Every stencil (Laplacian, smoothing, Dirichlet pin, gradient, cell
integrals) is written once and applied along each axis in turn, axis 0
first.  The faces x_p = 0 are clamped (z = 0); the faces x_p = 1 form the
measured boundary.  A measured node carries flux multiplicity equal to the
number of measured faces through it (two at the corner (1,1) in 2-D), and
the grid's plan fixes the measured nodes and their lexicographic order.
"""

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .certificates import checked_float, checked_int, fmt_float

KO_NU = 0.02  # fourth-difference smoothing strength
MAX_GRID_NODES = 10 ** 7  # 80 MB per node array; a step holds several
MAX_STEPS = 10 ** 6  # time steps of one run, which keeps a trace row per step

MODES = ("plant", "observer-forward", "observer-backward")


class DivergenceError(RuntimeError):
    """The explicit update produced non-finite values, or a finite field
    whose energy overflowed."""

    def __init__(self, t, what="non-finite values"):
        super().__init__("solution diverged (%s) at t=%g" % (what, t))
        self.t = t


def default_cfl(dim):
    return 0.9 / math.sqrt(dim)


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
        n = checked_int("points_per_axis", self.points_per_axis, 16)
        if n ** dim > MAX_GRID_NODES:
            raise ValueError("grid has %d^%d nodes, more than %d" % (n, dim, MAX_GRID_NODES))
        object.__setattr__(self, "points_per_axis", n)
        if self.mode not in MODES:
            raise ValueError("mode must be one of %s" % (MODES,))
        k = checked_float("k", self.k, 0.0)
        object.__setattr__(self, "k", k)
        dt = checked_float("dt", self.dt, 0.0, strict=True)
        if dt > default_cfl(dim) * self.dx * (1.0 + 1e-12):
            raise ValueError("dt=%g violates the CFL bound %g * dx" %
                             (dt, default_cfl(dim)))
        object.__setattr__(self, "dt", dt)
        # the plan's boundary constants at the corner, whose dim measured
        # faces give the largest multiplicity; inf there turns into NaN
        if not (math.isfinite(2.0 * k / self.dx * dim)
                and math.isfinite(dim * k * dt / self.dx)):
            raise ValueError("k must keep 2 k / dx and k dt / dx finite, got %r" % k)

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
    """Per-grid invariants of the solver step and the measured-boundary layout.

    The multiplicity of a node is the number of measured faces x_i = 1
    through it; nodes on a clamped face x_i = 0 have none.  measured indexes
    the nodes of nonzero multiplicity in lexicographic order, the order of
    every trace row.  Each constant keeps the association it has in the
    step formula ((0.5 * dt) * dt, then 2 k / dx before the multiplicity),
    so hoisting it out of the step changes no bit.  flux_mult and denom,
    the trapezoidal boundary velocity's divisor, are arrays over the nodes.
    """

    __slots__ = ("axis", "coords", "dx2", "half_dt", "half_dt2", "measured",
                 "flux_mult", "denom")

    def __init__(self, grid):
        dt, dx, k, dim = grid.dt, grid.dx, grid.k, grid.dim
        self.axis = _read_only(np.linspace(0.0, 1.0, grid.points_per_axis))
        # f(z, x, t) and coords() take a single axis bare, several as a tuple
        self.coords = self.axis if dim == 1 else tuple(
            _read_only(c) for c in np.meshgrid(*(self.axis,) * dim, indexing="ij"))
        self.dx2 = dx * dx
        self.half_dt = 0.5 * dt
        self.half_dt2 = 0.5 * dt * dt
        mult = np.zeros((grid.points_per_axis,) * dim)
        for axis in range(dim):
            mult.swapaxes(0, axis)[-1] += 1.0
        _pin_dirichlet(mult)
        self.measured = np.nonzero(mult)
        self.flux_mult = _read_only(2.0 * k / dx * mult)
        self.denom = _read_only(1.0 + mult * k * dt / dx)


def make_grid(dim, points_per_axis, horizon, mode="plant", k=0.0):
    """Grid whose dt divides the horizon exactly at (or under) the CFL bound."""
    horizon = checked_float("horizon", horizon, 0.0, strict=True)
    dim = checked_int("dim", dim, 1)
    dx = 1.0 / (checked_int("points_per_axis", points_per_axis, 16) - 1)
    steps = checked_float("step count horizon/dt", horizon / (default_cfl(dim) * dx))
    steps = max(1, int(math.ceil(steps - 1e-12)))
    # Grid rejects an oversized node count first, whatever the step count
    grid = Grid(dim, points_per_axis, horizon / steps, mode, k)
    if steps > MAX_STEPS:
        raise _too_many_steps(steps)
    return grid


def _too_many_steps(steps):
    return ValueError("step count horizon/dt must be <= %d, got %g" % (MAX_STEPS, steps))


def _check_dirichlet(name, arr):
    scale = 1e-9 * max(1.0, float(np.max(np.abs(arr))))
    if any(np.max(np.abs(arr.swapaxes(0, axis)[0])) > scale
           for axis in range(arr.ndim)):
        raise ValueError("%s must vanish on the clamped boundary (x_p = 0)" % name)


def _pin_dirichlet(arr):
    for axis in range(arr.ndim):
        arr.swapaxes(0, axis)[0] = 0.0


def _check_shape(field, grid):
    want = (grid.points_per_axis,) * grid.dim
    if field.z.shape != want:
        raise ValueError("field shape %s does not match the grid shape %s"
                         % (field.z.shape, want))


class WaveField:
    """Displacement and velocity arrays plus the current time.

    Arrays are copied and validated on construction: everything finite, and
    both components exactly zero on the clamped part of the boundary.
    """

    __slots__ = ("z", "zt", "t")

    def __init__(self, z, zt, t=0.0):
        z = np.array(z, dtype=float)
        zt = np.array(zt, dtype=float)
        if z.shape != zt.shape or z.ndim not in (1, 2) or not z.size:
            raise ValueError("z and zt must be non-empty equal-shape 1-D or 2-D arrays")
        if len(set(z.shape)) > 1:
            raise ValueError("fields must have the same length on every axis")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(zt))):
            raise ValueError("field values must be finite")
        _check_dirichlet("z", z)
        _check_dirichlet("zt", zt)
        _pin_dirichlet(z)
        _pin_dirichlet(zt)
        self.z = z
        self.zt = zt
        self.t = float(t)

    def copy(self):
        return WaveField(self.z, self.zt, self.t)


@dataclass(frozen=True, eq=False)
class BoundaryTrace:
    """z_t sampled on the measured boundary at every solver step.

    samples has one row per time level whose columns enumerate the measured
    nodes in lexicographic grid order, the corner (1,...,1) last; in 1-D it
    is a single column.  A flat series is read as that one column.
    """

    samples: np.ndarray
    dt: float
    t0: float = 0.0

    def __post_init__(self):
        s = np.array(self.samples, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        if s.ndim != 2 or s.shape[0] < 2:
            raise ValueError("samples must hold at least two time levels")
        if not np.all(np.isfinite(s)):
            raise ValueError("trace samples must be finite")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "dt", checked_float("dt", self.dt, 0.0, strict=True))
        object.__setattr__(self, "t0", checked_float("t0", self.t0))

    @property
    def steps(self):
        return self.samples.shape[0] - 1


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
    """Nodes with a measured face and no clamped one: (N-1)^d - (N-2)^d."""
    n = grid.points_per_axis
    return (n - 1) ** grid.dim - (n - 2) ** grid.dim


def whole_steps(horizon, dt):
    """The number of steps of size dt that make up the horizon."""
    steps = horizon / dt
    if not steps < MAX_STEPS + 0.5:  # rounds past MAX_STEPS, or is not finite
        raise _too_many_steps(steps)
    steps = int(round(steps))
    if steps < 1 or abs(steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be a whole number of time steps")
    return steps


def check_trace(trace, grid, steps):
    """Reject a trace that does not sample the grid's measured boundary at
    its time step over the given number of steps."""
    if not isinstance(trace, BoundaryTrace):
        raise ValueError("a measurement trace must be a BoundaryTrace")
    levels, nodes = trace.samples.shape
    if levels != steps + 1:
        raise ValueError("trace has %d levels, the run needs %d" % (levels, steps + 1))
    if abs(trace.dt - grid.dt) > 1e-12 * grid.dt:
        raise ValueError("trace step %g does not match the grid step %g"
                         % (trace.dt, grid.dt))
    if nodes != boundary_node_count(grid):
        raise ValueError("trace carries %d boundary nodes, the grid has %d"
                         % (nodes, boundary_node_count(grid)))


def gather_trace(v, grid):
    """Measured-boundary values of an array, lexicographic node order."""
    return v[grid._plan.measured]


def _scatter(values, plan):
    full = np.zeros(plan.flux_mult.shape)
    full[plan.measured] = values
    return full


# ------------------------------------------------------------------- stepping


def _second_difference(z, axis):
    """Undivided second difference along one axis, with the reflecting
    ghost on the measured face; the clamped entries are zeroed so that no
    sum meets uninitialised memory, and pinned again later."""
    d = np.empty_like(z)
    f, g = z.swapaxes(0, axis), d.swapaxes(0, axis)
    g[0] = 0.0
    g[1:-1] = f[2:] - 2.0 * f[1:-1] + f[:-2]
    g[-1] = 2.0 * (f[-2] - f[-1])
    return d


def _accel(z, grid, nonlinearity, t):
    """Laplacian with reflecting ghosts on the measured faces, plus f."""
    plan = grid._plan
    a = _second_difference(z, 0)
    for axis in range(1, z.ndim):
        a += _second_difference(z, axis)
    a /= plan.dx2
    fv = nonlinearity(z, plan.coords, t)
    if np.ndim(fv) or fv:
        a += fv
    _pin_dirichlet(a)
    return a


def _smooth(w):
    nu = KO_NU / 16.0
    for axis in range(w.ndim):
        f = w.swapaxes(0, axis)
        f[2:-2] -= nu * (f[4:] - 4.0 * f[3:-1] + 6.0 * f[2:-2] - 4.0 * f[1:-3] + f[:-4])
    _pin_dirichlet(w)


def step(field, grid, nonlinearity=ZERO_F, boundary_input=None):
    """One explicit step; boundary_input = (y_now, y_next) in observer modes."""
    injecting = grid.mode != "plant"
    if injecting and boundary_input is None:
        raise ValueError("observer modes need boundary_input = (y_now, y_next)")
    if not injecting and boundary_input is not None:
        raise ValueError("plant mode takes no boundary input")
    if injecting:
        y0, y1 = boundary_input
        nodes = boundary_node_count(grid)
        for y in (y0, y1):
            if np.size(y) != nodes:
                raise ValueError("boundary input carries %d values, the grid has %d"
                                 % (np.size(y), nodes))
    _check_shape(field, grid)
    z, v, t = field.z, field.zt, field.t
    dt = grid.dt
    plan = grid._plan

    a0 = _accel(z, grid, nonlinearity, t)
    if injecting:
        a0 += plan.flux_mult * (_scatter(y0, plan) - v)

    z_new = z + dt * v + plan.half_dt2 * a0
    _pin_dirichlet(z_new)
    t_new = t + (-1.0 if grid.mode == "observer-backward" else 1.0) * dt
    a1 = _accel(z_new, grid, nonlinearity, t_new)
    a01 = a0 + a1

    # in observer modes the trapezoidal boundary velocity keeps the
    # new-level damping term implicit, a scalar linear solve per measured node
    if injecting:
        v_new = (v + plan.half_dt * (a01 + plan.flux_mult * _scatter(y1, plan))) \
            / plan.denom
    else:
        v_new = v + plan.half_dt * a01
    _pin_dirichlet(v_new)

    _smooth(z_new)
    _smooth(v_new)

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
    steps = whole_steps(horizon, grid.dt)
    _check_shape(initial, grid)
    injecting = grid.mode != "plant"
    if injecting:
        if trace_in is None:
            raise ValueError("observer modes need a measurement trace")
        check_trace(trace_in, grid, steps)
        samples = trace_in.samples
    elif trace_in is not None:
        raise ValueError("plant runs take no measurement trace")

    backward = grid.mode == "observer-backward"
    if backward:
        state = WaveField(initial.z, -initial.zt, initial.t)
        samples = -samples[::-1]
    else:
        state = initial.copy()

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
            state = step(state, grid, n_f, binput)
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


def _integrate_cells(values, dx):
    """Trapezoid rule over every axis, the last axis first.

    Each pass is numpy's own np.trapezoid(values, dx=dx, axis=-1)
    operation for a scalar spacing, so the bits are the same without its
    argument handling.
    """
    for _ in range(values.ndim):
        values = (dx * (values[..., 1:] + values[..., :-1]) / 2.0).sum(-1)
    return values


def _energy(grads, zt, dx):
    """The energy from the gradient, so lyapunov differentiates once."""
    grad_sq = sum((g * g for g in grads[1:]), grads[0] * grads[0])
    return 0.5 * _integrate_cells(grad_sq + zt * zt, dx)


def energy(field, grid):
    """E = 1/2 integral of |grad z|^2 + z_t^2 (trapezoid rule)."""
    _check_shape(field, grid)
    return _energy(_gradient(field.z, grid.dx), field.zt, grid.dx)


def hnorm(field, grid):
    """Natural state norm sqrt(2 E)."""
    return math.sqrt(max(2.0 * energy(field, grid), 0.0))


def lyapunov(field, grid, chi, k=None):
    """V = E + chi * cross term + chi k (n-1)/2 boundary term.

    The cross term integrates (2 x . grad z + (n-1) z) z_t, the boundary
    term z^2 over the measured faces.  chi = 0 returns the energy exactly.
    """
    chi = 0.0 if chi is None else checked_float("chi", chi, 0.0)
    k = grid.k if k is None else k
    _check_shape(field, grid)
    z, v, dx, n = field.z, field.zt, grid.dx, grid.dim
    grads = _gradient(z, dx)
    e = _energy(grads, v, dx)
    # x_i * d_i z, with the axis broadcast along dimension i
    terms = [grid.axis().reshape((-1,) + (1,) * (n - 1 - i)) * g
             for i, g in enumerate(grads)]
    cross = _integrate_cells((2.0 * sum(terms[1:], terms[0]) + (n - 1) * z) * v, dx)
    face = sum(_integrate_cells(z.swapaxes(0, axis)[-1] ** 2, dx)
               for axis in range(n))
    return e + chi * cross + chi * k * (0.5 * (n - 1)) * face


# The inequality checkers and the face integral integrate the multilinear
# interpolant of the samples exactly, one axis at a time.  The interpolant
# vanishes on the clamped boundary whenever the samples do, so each
# continuous inequality applies to it verbatim and the residual can only
# go negative by float roundoff.  A pointwise-stencil quadrature would not
# do: its lowest discrete eigenvalue sits below the continuous one and
# near-extremal fields then report residuals around -dx^2.


def _product_integral(u, v, dx, axes):
    """Exact integral over the axes (ascending; the others are kept) of the
    product of the interpolants of u and v.  A cell of the first axis with
    ends a, b of u and c, d of v gives dx/3 (ac + (ad + bc)/2 + bd), each
    product integrated over the other axes; a square (u is v) gives
    dx/3 (a*a + a*b + b*b) and stays a square."""
    if not axes:
        return u * v
    head = (slice(None),) * axes[0]
    lo, hi = head + (slice(None, -1),), head + (slice(1, None),)
    rest = partial(_product_integral, dx=dx, axes=axes[1:])
    a, b = u[lo], u[hi]
    if u is v:
        cells = rest(a, a) + rest(a, b) + rest(b, b)
    else:
        c, d = v[lo], v[hi]
        cells = rest(a, c) + (rest(a, d) + rest(b, c)) / 2.0 + rest(b, d)
    return np.sum(cells, axis=axes[0]) * dx / 3.0


def _face_sq_integral(v, grid):
    """Exact integral of the interpolant of v squared over the measured
    faces x_i = 1, summed over the faces.

    The grid axes of v come last, after any leading axes (time levels); a
    face of a 1-D grid is a point, where the integral is the value squared.
    """
    lead = v.ndim - grid.dim
    total = 0.0
    for axis in range(lead, v.ndim):
        face = v.swapaxes(axis, -1)[..., -1]
        total = total + _product_integral(face, face, grid.dx, tuple(range(lead, face.ndim)))
    return total


def _interp_quads(z, dx):
    """Exact (integral |grad zh|^2, integral zh^2) for the interpolant zh."""
    axes = tuple(range(z.ndim))
    stiff = 0.0
    for i in axes:  # d_i zh is constant across a cell in x_i
        d = np.diff(z, axis=i)
        stiff += float(np.sum(_product_integral(d, d, dx, axes[:i] + axes[i + 1:]))) / dx
    return stiff, float(_product_integral(z, z, dx, axes))


def wirtinger_check(field, grid):
    """4/(pi^2 n) integral |grad z|^2 - integral z^2, interpolant-exact."""
    _check_shape(field, grid)
    _check_dirichlet("z", field.z)
    w = 4.0 / (math.pi ** 2 * grid.dim)
    stiff, mass = _interp_quads(field.z, grid.dx)
    return w * stiff - mass


def trace_check(field, grid):
    """Integral |grad z|^2 - boundary integral z^2, interpolant-exact."""
    _check_shape(field, grid)
    _check_dirichlet("z", field.z)
    stiff, _ = _interp_quads(field.z, grid.dx)
    return stiff - float(_face_sq_integral(field.z, grid))


def sobolev_check(field, grid):
    """Integral z_x^2 - max z^2 (one dimension only), interpolant-exact."""
    if grid.dim != 1:
        raise ValueError("the sup-norm bound is one-dimensional")
    _check_shape(field, grid)
    _check_dirichlet("z", field.z)
    stiff, _ = _interp_quads(field.z, grid.dx)
    return stiff - float(np.max(field.z ** 2))


# -------------------------------------------------------------------- export


def trajectory_csv(trace, energies, lyapunovs=None):
    """CSV text t,E,V,trace0[,trace1,...]; V falls back to E when absent.

    A non-finite energy or Lyapunov value raises ValueError.
    """
    samples = trace.samples
    header = "t,E,V," + ",".join("trace%d" % j for j in range(samples.shape[1]))
    if lyapunovs is None:
        lyapunovs = energies
    if not (np.all(np.isfinite(energies)) and np.all(np.isfinite(lyapunovs))):
        raise ValueError("non-finite energy or Lyapunov value in the trajectory")
    lines = [header]
    for i in range(samples.shape[0]):
        t = trace.t0 + i * trace.dt
        row = [fmt_float(t), fmt_float(energies[i]), fmt_float(lyapunovs[i])]
        row.extend(fmt_float(v) for v in samples[i])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def read_trajectory_csv(text):
    """(BoundaryTrace, E array, V array) parsed back from trajectory_csv."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines:
        raise ValueError("trajectory CSV is empty")
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
    return BoundaryTrace(rows[:, 3:], dt, float(times[0])), rows[:, 1], rows[:, 2]
