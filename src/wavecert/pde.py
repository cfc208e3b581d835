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
first.  The Laplacian, smoothing and gradient stencils run along the last
axis of a C-contiguous array as one pass over the flat array, whose rows
lie end to end in memory: where such a pass straddles two rows it computes
entries of no node, and each of those is either written over afterwards
(the clamped, ghost and one-sided end entries) or never written back (the
smoothing writes nodes 2..N-3 only), so every stored value has the bits of
the per-row stencil.  The faces x_p = 0 are clamped (z = 0); the faces
x_p = 1 form the measured boundary.  A measured node carries flux
multiplicity equal to the number of measured faces through it (two at the
corner (1,1) in 2-D), and the grid's plan fixes the measured nodes and
their lexicographic order.
"""

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .certificates import checked_float, checked_int, fmt_float

KO_NU = 0.02  # fourth-difference smoothing strength
MAX_GRID_NODES = 10 ** 7  # 80 MB per node array; a step holds several
MAX_STEPS = 10 ** 6  # time steps of one run, which keeps a trace row per step
# nodes times steps of one run: 100x the largest run the tests, demos and
# benchmark make (about 2e6); the measured boundary is a fraction of the
# nodes, so this also bounds the trace, to about 2.3e7 floats (2-D, N=16)
MAX_NODE_STEPS = 2 * 10 ** 8
# states whose energies run takes in one kernel pass: about 40 at 1-D N=201,
# one at 2-D N=81, where a batch of many runs out of cache and is slower
_ENERGY_BLOCK_NODES = 2 ** 13

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
    y replayed from a recorded trace.  k is the gain of those observer
    steps, of the observer grids a recovery builds from this grid and of
    the boundary term of lyapunov; plant steps ignore it.
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
    _check_work(grid, steps)
    return grid


def _too_many_steps(steps):
    return ValueError("step count horizon/dt must be <= %d, got %g" % (MAX_STEPS, steps))


def _check_work(grid, steps):
    nodes = grid.points_per_axis ** grid.dim
    if steps * nodes > MAX_NODE_STEPS:
        raise ValueError("%d steps over %d nodes make %d node-steps, more than %d"
                         % (steps, nodes, steps * nodes, MAX_NODE_STEPS))


def _check_dirichlet(name, arr):
    scale = 1e-9 * max(1.0, float(np.max(np.abs(arr))))
    if any(np.max(np.abs(arr.swapaxes(0, axis)[0])) > scale
           for axis in range(arr.ndim)):
        raise ValueError("%s must vanish on the clamped boundary (x_p = 0)" % name)


def _pin_dirichlet(arr, lead=0):
    """Zero the clamped faces; the grid axes follow lead leading axes."""
    for axis in range(lead, arr.ndim):
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


def _runs(axis, *arrays):
    """The views of equal-shape arrays that a stencil runs along as their
    axis 0; the first array's layout decides for all, and the others must
    be np.empty_like of it.

    A leading axis is swapped to the front, as is any axis of an array
    that is not C-contiguous.  The last axis of a C-contiguous array is the
    flat array instead, a single contiguous pass about twice as fast as
    the rows of N - 2 elements that numpy walks along a swapped last axis;
    the caller then owns the straddle entries (see the module docstring).
    A 1-D array is its own one row.
    """
    first = arrays[0]
    if first.ndim == 1:
        return arrays
    if axis == first.ndim - 1 and first.flags.c_contiguous:
        return [a.reshape(-1) for a in arrays]
    return [a.swapaxes(0, axis) for a in arrays]


def _second_difference(z, z2, axis):
    """Undivided second difference along one axis of a C-contiguous z, with
    the reflecting ghost on the measured face; z2 holds 2 z wherever the
    stencil reads it.  The clamped entries are zeroed so that no sum meets
    uninitialised memory, and pinned again later; they and the ghost
    entries are written after the stencil, over its straddle entries."""
    d = np.empty_like(z)
    f, f2, g = _runs(axis, z, z2, d)
    inner = g[1:-1]
    np.subtract(f[2:], f2[1:-1], out=inner)
    inner += f[:-2]
    f, g = z.swapaxes(0, axis), d.swapaxes(0, axis)
    g[0] = 0.0
    g[-1] = 2.0 * (f[-2] - f[-1])
    return d


def _accel(z, grid, nonlinearity, t):
    """Laplacian with reflecting ghosts on the measured faces, plus f."""
    plan = grid._plan
    c = np.ascontiguousarray(z)
    # 2 z for every axis at once, at all entries of the flat array but its
    # ends, which no stencil reads: the per-axis stencils never doubled the
    # measured corner (the last entry), and doubling it may overflow
    z2 = np.empty_like(c)
    f, f2 = _runs(c.ndim - 1, c, z2)
    np.multiply(2.0, f[1:-1], out=f2[1:-1])
    a = _second_difference(c, z2, 0)
    for axis in range(1, z.ndim):
        a += _second_difference(c, z2, axis)
    a /= plan.dx2
    fv = nonlinearity(z, plan.coords, t)
    if np.ndim(fv) or fv:
        a += fv
    _pin_dirichlet(a)
    return a


def _smooth(w):
    """Smooth a stacked (z, z_t) array over its grid axes, 1 onwards.

    Each pass evaluates the stencil into a buffer, zeroes the buffer at
    the nodes 0, 1, N-2 and N-1 of its axis, where a flat pass leaves its
    straddle entries, and subtracts the whole buffer in one contiguous
    pass: x - 0.0 is x, bit for bit, so only the nodes 2..N-3 are written
    back.  The products go through a second buffer rather than numpy's
    temporaries, which keeps the step's heap from growing and shrinking."""
    nu = KO_NU / 16.0
    buf = np.empty_like(w)
    tmp = np.empty_like(w)
    for axis in range(1, w.ndim):
        f, b, t = _runs(axis, w, buf, tmp)
        inner, scratch = b[2:-2], t[2:-2]
        np.multiply(4.0, f[3:-1], out=inner)
        np.subtract(f[4:], inner, out=inner)
        np.multiply(6.0, f[2:-2], out=scratch)
        inner += scratch
        np.multiply(4.0, f[1:-3], out=scratch)
        inner -= scratch
        inner += f[:-4]
        inner *= nu
        b = buf.swapaxes(0, axis)
        b[:2] = 0.0
        b[-2:] = 0.0
        w -= buf
    _pin_dirichlet(w, 1)


def step(field, grid, nonlinearity=ZERO_F, boundary_input=None):
    """One explicit step; boundary_input = (y_now, y_next) in observer modes.

    The new z and z_t are written into one stacked (2, ...) array, smoothed
    and checked for finiteness in one pass each; the returned field's z and
    zt are views into it.
    """
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
        inflow = _scatter(y0, plan)
        inflow -= v
        inflow *= plan.flux_mult
        a0 += inflow

    # each update in place, in the association of z + dt v + dt^2/2 a0
    # and v + dt/2 (a0 + a1): a sum or product of two values is the same
    # float in either order, and v_new holds dt^2/2 a0 until it is written
    stacked = np.empty((2,) + z.shape)
    z_new, v_new = stacked
    np.multiply(dt, v, out=z_new)
    z_new += z
    np.multiply(plan.half_dt2, a0, out=v_new)
    z_new += v_new
    _pin_dirichlet(z_new)
    t_new = t + (-1.0 if grid.mode == "observer-backward" else 1.0) * dt
    a01 = a0  # a0 is not read again
    a01 += _accel(z_new, grid, nonlinearity, t_new)

    # in observer modes the trapezoidal boundary velocity keeps the
    # new-level damping term implicit, a scalar linear solve per measured node
    if injecting:
        outflow = _scatter(y1, plan)
        outflow *= plan.flux_mult
        a01 += outflow
        a01 *= plan.half_dt
        a01 += v
        np.divide(a01, plan.denom, out=v_new)
    else:
        a01 *= plan.half_dt
        np.add(v, a01, out=v_new)
    _pin_dirichlet(v_new)

    _smooth(stacked)

    if not np.isfinite(stacked).all():
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
    _check_work(grid, steps)
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
    if chi is not None:
        chi = checked_float("chi", chi, 0.0)
    lyap = None if chi is None else []
    block = max(1, _ENERGY_BLOCK_NODES // state.z.size)
    pending = [state]

    def record():
        # the energies of the pending states in one kernel pass, checked in
        # time order, each before the Lyapunov value of its own state
        states = pending[:]
        del pending[:]
        z, v = _stack([s.z for s in states]), _stack([s.zt for s in states])
        grads = _gradient(z, grid.dx, grid.dim)
        values = _energy(grads, v, grid.dx)
        lyaps = None if lyap is None else _lyapunov(z, v, grads, values, grid,
                                                    chi).reshape(-1)
        for i, (s, value) in enumerate(zip(states, values.reshape(-1))):
            energies.append(_finite(value, "energy", s.t))
            if lyap is not None:
                lyap.append(_finite(lyaps[i], "Lyapunov value", s.t))

    # an overflowing step or energy is reported as DivergenceError alone,
    # without a RuntimeWarning first: step checks that the field stays
    # finite, record that the energy does
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for i in range(steps):
                if len(pending) == block:
                    record()
                binput = (samples[i], samples[i + 1]) if injecting else None
                state = step(state, grid, n_f, binput)
                out_rows.append(gather_trace(state.zt, grid))
                pending.append(state)
        finally:
            # also when a step raised: an energy that overflowed before it
            # is then reported instead, at its own t
            if pending:
                record()

    if backward:
        final = WaveField(state.z, -state.zt, state.t)
    else:
        final = state
    trace_out = BoundaryTrace(np.array(out_rows), grid.dt, initial.t)
    energies = np.array(energies)
    if lyap is not None:
        return final, trace_out, (energies, np.array(lyap))
    return final, trace_out, energies


def _stack(arrays):
    # a leading block axis, but a block of one goes bare: no copy, and in
    # 2-D its kernel pass is faster without the extra axis
    return arrays[0] if len(arrays) == 1 else np.array(arrays)


def _finite(value, name, t):
    if not math.isfinite(value):
        raise DivergenceError(t, "%s %s" % (name, fmt_float(value)))
    return value


# ----------------------------------------------------------------- functionals


def _gradient(z, dx, dim):
    """Derivatives along the last dim axes, the grid axes (any axes before
    them index states), as np.gradient(z, dx) computes them.

    numpy's own operations for a uniform spacing and edge_order=1: central
    differences (z[2:] - z[:-2]) / (2. * dx) inside, one-sided differences
    over dx at both ends, so the values are bit-identical, without
    np.gradient's argument handling.  The one-sided ends are written after
    the central differences, over a flat pass's straddle entries.
    """
    grads = []
    for axis in range(z.ndim - dim, z.ndim):
        grad = np.empty_like(z)  # z's layout, which the cell sums' bits follow
        f, g = _runs(axis, z, grad)
        inner = g[1:-1]
        np.subtract(f[2:], f[:-2], out=inner)
        inner /= 2. * dx
        f, g = z.swapaxes(0, axis), grad.swapaxes(0, axis)
        g[0] = (f[1] - f[0]) / dx
        g[-1] = (f[-1] - f[-2]) / dx
        grads.append(grad)
    return grads


def _integrate_cells(values, dx, lead=0):
    """Trapezoid rule over every axis after the lead leading ones, the last
    axis first.

    Each pass is numpy's own np.trapezoid(values, dx=dx, axis=-1)
    operation for a scalar spacing, so the bits are the same without its
    argument handling.
    """
    for _ in range(values.ndim - lead):
        values = (dx * (values[..., 1:] + values[..., :-1]) / 2.0).sum(-1)
    return values


def _energy(grads, zt, dx):
    """The energy from the gradient, so lyapunov differentiates once; with
    leading axes on zt and the gradients, one energy per state."""
    grad_sq = sum((g * g for g in grads[1:]), grads[0] * grads[0])
    return 0.5 * _integrate_cells(grad_sq + zt * zt, dx, zt.ndim - len(grads))


def energy(field, grid):
    """E = 1/2 integral of |grad z|^2 + z_t^2 (trapezoid rule)."""
    _check_shape(field, grid)
    return _energy(_gradient(field.z, grid.dx, grid.dim), field.zt, grid.dx)


def hnorm(field, grid):
    """Natural state norm sqrt(2 E)."""
    return math.sqrt(max(2.0 * energy(field, grid), 0.0))


def lyapunov(field, grid, chi):
    """V = E + chi * cross term + chi k (n-1)/2 boundary term, k = grid.k.

    The cross term integrates (2 x . grad z + (n-1) z) z_t, the boundary
    term z^2 over the measured faces.  chi = 0 returns the energy exactly.
    """
    chi = 0.0 if chi is None else checked_float("chi", chi, 0.0)
    _check_shape(field, grid)
    grads = _gradient(field.z, grid.dx, grid.dim)
    return _lyapunov(field.z, field.zt, grads, _energy(grads, field.zt, grid.dx),
                     grid, chi)


def _lyapunov(z, v, grads, e, grid, chi):
    """lyapunov from the gradient and energy of the state; with leading axes
    on z, v, the gradients and e, one value per state."""
    dx, n = grid.dx, grid.dim
    lead = z.ndim - n
    # x_i * d_i z, with the axis broadcast along dimension i
    terms = [grid.axis().reshape((-1,) + (1,) * (n - 1 - i)) * g
             for i, g in enumerate(grads)]
    cross = _integrate_cells((2.0 * sum(terms[1:], terms[0]) + (n - 1) * z) * v, dx, lead)
    # the face x_i = 1: index -1 along grid axis i
    face = sum(_integrate_cells(z[(..., -1) + (slice(None),) * (n - 1 - axis)] ** 2, dx, lead)
               for axis in range(n))
    return e + chi * cross + chi * grid.k * (0.5 * (n - 1)) * face


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
    levels, columns = samples.shape
    header = "t,E,V," + ",".join("trace%d" % j for j in range(columns))
    if lyapunovs is None:
        lyapunovs = energies
    if not (np.all(np.isfinite(energies)) and np.all(np.isfinite(lyapunovs))):
        raise ValueError("non-finite energy or Lyapunov value in the trajectory")
    times = trace.t0 + np.arange(levels) * trace.dt
    table = np.column_stack((times, energies, lyapunovs, samples))
    # "%.17g" per value, as fmt_float writes each one
    row = ",".join(["%.17g"] * (3 + columns))
    lines = [header]
    lines.extend(row % tuple(values) for values in table.tolist())
    return "\n".join(lines) + "\n"


def read_trajectory_csv(text):
    """(BoundaryTrace, E array, V array) parsed back from trajectory_csv.

    The header must be t,E,V,trace0,...,trace{m-1} exactly, every row must
    carry m + 3 values, and E and V must be finite, as trajectory_csv
    writes them.
    """
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines:
        raise ValueError("trajectory CSV is empty")
    header = lines[0].split(",")
    width = len(header)
    if width < 4 or header != ["t", "E", "V"] + ["trace%d" % j for j in range(width - 3)]:
        raise ValueError("expected the header t,E,V,trace0,...,trace{m-1}")
    rows = []
    for number, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError("row %d carries %d values, the header names %d"
                             % (number, len(cells), width))
        rows.append([float(c) for c in cells])
    if len(rows) < 2:
        raise ValueError("trajectory needs at least two time levels")
    rows = np.array(rows)
    if not np.all(np.isfinite(rows[:, 1:3])):
        raise ValueError("trajectory E and V values must be finite")
    times = rows[:, 0]
    dts = np.diff(times)
    dt = float(dts[0])
    if not np.all(np.abs(dts - dt) <= 1e-9 * max(dt, 1.0)):
        raise ValueError("trace sample times must be uniform")
    return BoundaryTrace(rows[:, 3:], dt, float(times[0])), rows[:, 1], rows[:, 2]
