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
the per-row stencil.  The faces x_p = 0 are clamped (z = 0 and z_t = 0); a
step pins them before it smooths, and the smoothing keeps them +0.0 bit
for bit with no pin after it: along its own axis it writes no face, and
along an axis that runs within a face it reads only that face's zeros.
The faces x_p = 1 form the measured boundary.  A measured node carries flux
multiplicity equal to the number of measured faces through it (two at the
corner (1,1) in 2-D), and the grid's plan fixes the measured nodes and
their lexicographic order.

A step reads the state in one slot of a two-slot workspace and writes the
next into the other; the workspace keeps the head slot's time.  run
allocates its workspace, a staging block and the energy kernel's buffers
once, hands the workspace to step, which advances it in place, copies each
state into the block and takes a block's energies in one kernel pass whose
grid-sized intermediates all live in those buffers: freed ones let glibc
trim the heap top, which the next state faulted back in.  run returns a
Run of the same four fields whether or not chi is set (lyapunovs is None
without it), whose arrays are the caller's: new start and final fields,
z_t negated in backward mode, and one (steps + 1, nodes) trace array.  A
direct step returns a WaveField of a throwaway workspace's new state.  f
must not keep the arrays passed to it: they are workspace slots that later
steps overwrite.
"""

import math
import re
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .certificates import checked_float, checked_int, fmt_float

KO_NU = 0.02  # fourth-difference smoothing strength
MAX_GRID_NODES = 10 ** 7  # 80 MB per node array; a step holds several
MAX_STEPS = 10 ** 6  # time steps of one run, which keeps a trace row per step
# nodes times steps of one run: 100x the largest run the tests, demos and
# benchmark make (about 2e6); the measured boundary is a fraction of the
# nodes, so this also bounds the trace, to about 2.3e7 floats (2-D, N=16)
MAX_NODE_STEPS = 2 * 10 ** 8
# nodes of the states staged per energy-kernel pass, and at least two: 40
# states at 1-D N=201, 2 at 2-D N=81; with its intermediates in buffers
# rather than freed temporaries, a pass costs less per state the more it takes
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
    every trace row, and flat_measured the same nodes in the flat array.
    Each constant keeps the association it has in the step formula
    ((0.5 * dt) * dt, then 2 k / dx before the multiplicity), so hoisting it
    out of the step changes no bit.  flux_mult and denom, the trapezoidal
    boundary velocity's divisor, are arrays over the nodes.
    """

    __slots__ = ("axis", "coords", "shape", "dx2", "half_dt", "half_dt2", "dt_signed",
                 "measured", "flat_measured", "nodes", "flux_mult", "denom")

    def __init__(self, grid):
        dt, dx, k, dim = grid.dt, grid.dx, grid.k, grid.dim
        self.axis = _read_only(np.linspace(0.0, 1.0, grid.points_per_axis))
        # f(z, x, t) and coords() take a single axis bare, several as a tuple
        self.coords = self.axis if dim == 1 else tuple(
            _read_only(c) for c in np.meshgrid(*(self.axis,) * dim, indexing="ij"))
        self.shape = (grid.points_per_axis,) * dim
        self.dx2 = dx * dx
        self.half_dt = 0.5 * dt
        self.half_dt2 = 0.5 * dt * dt
        # the step in time of the integrated system: backward runs reversed
        self.dt_signed = (-1.0 if grid.mode == "observer-backward" else 1.0) * dt
        mult = np.zeros(self.shape)
        for axis in range(dim):
            mult.swapaxes(0, axis)[-1] += 1.0
        _pin_dirichlet(mult)
        self.measured = np.nonzero(mult)
        self.flat_measured = np.ravel_multi_index(self.measured, self.shape)
        self.nodes = self.flat_measured.size
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


def _pin_dirichlet(arr):
    """Zero the clamped faces."""
    for axis in range(arr.ndim):
        arr.swapaxes(0, axis)[0] = 0.0


def _check_shape(field, grid):
    want = grid._plan.shape
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


def _adopted_trace(samples, dt, t0):
    """A BoundaryTrace over a finite float (levels, nodes) array that the
    caller hands over, without the copy the constructor takes."""
    trace = object.__new__(BoundaryTrace)
    object.__setattr__(trace, "samples", samples)
    object.__setattr__(trace, "dt", checked_float("dt", dt, 0.0, strict=True))
    object.__setattr__(trace, "t0", checked_float("t0", t0))
    return trace


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
    return grid._plan.nodes


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
    A 1-D array is its own one row either way.
    """
    first = arrays[0]
    if axis == first.ndim - 1 and first.flags.c_contiguous:
        return [a.reshape(-1) for a in arrays]
    return [a.swapaxes(0, axis) for a in arrays]


def _front(arr, axis):
    """arr with the axis in front; axis 0 is arr itself."""
    return arr if axis == 0 else arr.swapaxes(0, axis)


def _accelerate(slot, target, nonlinearity, plan, t):
    """Laplacian with reflecting ghosts on the measured faces, plus f, of
    the slot's z into the target's a.  Per axis the undivided second
    difference z[2:] - 2 z + z[:-2] runs over all but the ends, its output
    run out may be 2 z's run f2 itself (each entry reads 2 z at its own
    index only), and the clamped and ghost entries are written after it,
    over its straddle entries; the ghost in 1-D is a product of scalars."""
    a, twice, twice_mid, runs, pins = target
    np.multiply(2.0, slot.z_mid, out=twice_mid)
    for (hi, lo, f), (f2, out, g) in zip(slot.z_runs, runs):
        np.subtract(hi, f2, out=out)
        out += lo
        g[0] = 0.0
        g[-1] = 2.0 * (f[-2] - f[-1])
    if twice is not a:
        a += twice
    a /= plan.dx2
    fv = nonlinearity(slot.z, plan.coords, t)
    if np.ndim(fv) or fv:
        a += fv
    for face in pins:
        face[0] = 0.0


def _smooth_pass(slot, out, buffer_runs):
    """Smooth the slot's stacked (z, z_t) over its grid axes, 1 onwards.

    Each pass evaluates the stencil into out, the products through two
    buffers rather than numpy's temporaries, with 4 f taken once for its
    two reads; zeroes out at the nodes 0, 1, N-2 and N-1 of its axis, where
    a flat pass leaves its straddle entries; and subtracts the whole of out
    in one contiguous pass: x - 0.0 is x, bit for bit, so only the nodes
    2..N-3 are written back, and the clamped faces keep their +0.0."""
    nu = KO_NU / 16.0
    w = slot.w
    for (mid, hi, center, lo), (q_mid, q_hi, inner, six, q_lo, head, tail) in zip(
            slot.w_runs, buffer_runs):
        np.multiply(4.0, mid, out=q_mid)
        np.subtract(hi, q_hi, out=inner)
        np.multiply(6.0, center, out=six)
        inner += six
        inner -= q_lo
        inner += lo
        inner *= nu
        head.fill(0.0)
        tail.fill(0.0)
        w -= out


class _Slot:
    """The views a step takes of one workspace slot, the state w = (z, z_t):
    z_mid, the flat z but its ends, which the doubling reads (the per-axis
    stencils never doubled the measured corner, the last entry, and doing
    so may overflow); per axis z's runs z[2:] and z[:-2] and z with the
    axis in front, which also pins the clamped face; z_t with each axis in
    front; and per grid axis w's runs that the smoothing reads."""

    __slots__ = ("w", "z", "v", "z_mid", "z_runs", "v_pins", "w_runs")

    def __init__(self, w):
        self.w = w
        self.z, self.v = w
        z = self.z
        self.z_runs = []
        for axis in range(z.ndim):
            f = _runs(axis, z)[0]
            self.z_runs.append((f[2:], f[:-2], _front(z, axis)))
        self.z_mid = _runs(z.ndim - 1, z)[0][1:-1]
        self.v_pins = [_front(self.v, axis) for axis in range(z.ndim)]
        self.w_runs = []
        for axis in range(1, w.ndim):
            f = _runs(axis, w)[0]
            self.w_runs.append((f[1:-1], f[4:], f[2:-2], f[:-4]))


class _Workspace:
    """Every array the steps of one run write, with the views they take.

    slots holds two states, (z, z_t) each C-contiguous, and views the views
    a step takes of each; the field starts in slot 0, the head, at its time
    t, and a step writes the next state into the other slot, which becomes
    the head as t becomes the new time.  acc holds the accelerations a0 and
    a1 and, once the velocity is updated, the smoothing's output; aux is the
    smoothing's 6 f buffer, and in 2-D its first half holds 2 z during an
    acceleration; fours holds the smoothing's 4 f.  inject, in observer
    modes, is zero off the measured nodes, where each step writes its
    boundary values.

    A target is what an acceleration writes: a, the 2 z buffer (a itself
    in 1-D) and its flat run but its ends, per axis the runs of 2 z and of
    the output, which is a but on a 2-D field's last axis, where it writes
    over 2 z and a then adds it, and a with each axis in front to pin.
    smoothing holds per grid axis the runs of 4 f, of the output and of
    6 f that a pass takes, and the output's two entries at each axis end.
    """

    __slots__ = ("grid", "nonlinearity", "slots", "views", "head", "t", "targets",
                 "acc", "smoothing", "inject", "finite")

    def __init__(self, grid, nonlinearity, field):
        plan = grid._plan
        shape = plan.shape
        last = grid.dim - 1
        self.grid = grid
        self.nonlinearity = nonlinearity
        self.slots = np.empty((2, 2) + shape)
        self.slots[0, 0], self.slots[0, 1] = field.z, field.zt
        self.views = [_Slot(w) for w in self.slots]
        self.head, self.t = 0, field.t
        self.acc = np.empty((2,) + shape)
        aux = np.empty((2,) + shape)
        like = self.slots[0, 0]  # the layout of every field the steps read
        self.targets = []
        for a in self.acc:
            twice = a if last == 0 else aux[0]
            runs = []
            for axis in range(grid.dim):
                out = twice if axis == last else a
                f2, g = _runs(axis, like, twice, out)[1:]
                runs.append((f2[1:-1], g[1:-1], _front(out, axis)))
            pins = [_front(a, axis) for axis in range(grid.dim)]
            self.targets.append((a, twice, _runs(last, like, twice)[1][1:-1], runs, pins))
        fours = np.empty((2,) + shape)
        self.smoothing = []
        for axis in range(1, grid.dim + 1):
            b, t, q = _runs(axis, self.slots[0], self.acc, aux, fours)[1:]
            ends = self.acc.swapaxes(0, axis)
            self.smoothing.append((q[1:-1], q[3:-1], b[2:-2], t[2:-2], q[1:-3],
                                   ends[:2], ends[-2:]))
        self.inject = None if grid.mode == "plant" else np.zeros(shape)
        self.finite = np.empty((2,) + shape, dtype=bool)

    def advance(self, boundary_input):
        """One explicit step from the head slot, at t, into the next.

        Each update runs in place, in the association of z + dt v + dt^2/2 a0
        and v + dt/2 (a0 + a1): a sum or product of two values is the same
        float in either order, and v_new holds dt^2/2 a0 until it is written.
        In observer modes the trapezoidal boundary velocity keeps the
        new-level damping term implicit, a scalar linear solve per measured
        node.  The head and t move together, once the new state is finite.
        """
        grid, nl, t = self.grid, self.nonlinearity, self.t
        plan = grid._plan
        old, new = self.views[self.head], self.views[1 - self.head]
        z, v = old.z, old.v
        a0, a1 = self.targets[0][0], self.targets[1][0]
        inject = self.inject

        _accelerate(old, self.targets[0], nl, plan, t)
        if inject is not None:
            y0, y1 = boundary_input
            inject[plan.measured] = y0
            np.subtract(inject, v, out=a1)
            a1 *= plan.flux_mult
            a0 += a1

        z_new, v_new = new.z, new.v
        np.multiply(grid.dt, v, out=z_new)
        z_new += z
        np.multiply(plan.half_dt2, a0, out=v_new)
        z_new += v_new
        for _, _, face in new.z_runs:
            face[0] = 0.0
        t_new = t + plan.dt_signed
        _accelerate(new, self.targets[1], nl, plan, t_new)
        a0 += a1

        if inject is not None:
            inject[plan.measured] = y1
            np.multiply(inject, plan.flux_mult, out=a1)
            a0 += a1
            a0 *= plan.half_dt
            a0 += v
            np.divide(a0, plan.denom, out=v_new)
        else:
            a0 *= plan.half_dt
            np.add(v, a0, out=v_new)
        for face in new.v_pins:
            face[0] = 0.0

        _smooth_pass(new, self.acc, self.smoothing)

        if not np.isfinite(new.w, out=self.finite).all():
            raise DivergenceError(t_new)
        self.head, self.t = 1 - self.head, t_new


def step(field, grid, nonlinearity=ZERO_F, boundary_input=None):
    """One explicit step; boundary_input = (y_now, y_next) in observer modes.

    A direct call copies the field into a workspace, steps into its other
    slot and returns a WaveField of it, whose arrays are fresh copies that
    share no memory with the field or the workspace.  run passes its
    workspace instead, which steps in place, unchecked, on its own grid and
    nonlinearity: run checked its trace once and passes a boundary input
    exactly when its grid injects.
    """
    if isinstance(field, _Workspace):
        field.advance(boundary_input)
        return field
    plan = grid._plan
    injecting = grid.mode != "plant"
    if injecting and boundary_input is None:
        raise ValueError("observer modes need boundary_input = (y_now, y_next)")
    if not injecting and boundary_input is not None:
        raise ValueError("plant mode takes no boundary input")
    if injecting:
        for y in boundary_input:
            if np.size(y) != plan.nodes:
                raise ValueError("boundary input carries %d values, the grid has %d"
                                 % (np.size(y), plan.nodes))
    _check_shape(field, grid)
    ws = _Workspace(grid, nonlinearity, field)
    ws.advance(boundary_input)
    return WaveField(*ws.slots[ws.head], ws.t)


class Run(NamedTuple):
    """What run returns, the same fields with or without chi: lyapunovs is
    None without it.  result[1:] is what trajectory_csv takes and, with
    the energies for a None lyapunovs, what read_trajectory_csv returns."""

    final: WaveField
    trace: BoundaryTrace
    energies: np.ndarray
    lyapunovs: np.ndarray | None


def _block_states(nodes):
    return max(2, _ENERGY_BLOCK_NODES // nodes)


def run(initial, horizon, grid, nonlinearity=ZERO_F, trace_in=None, chi=None):
    """Integrate over the horizon; returns a Run.

    Backward mode takes the states and the trace in physical orientation:
    initial is the state at the far end of the window, trace_in the
    recorded measurement on [t0, t0+T], and the returned field is the
    reconstructed state at t0.  Internally the time-reversed system is
    integrated forward (z, z_t) -> (z, -z_t) with the trace replayed in
    reverse and negated, which turns the anti-damped backward boundary
    condition into the usual damped one.

    With chi set, lyapunovs records the Lyapunov value each step; the
    record has the same fields either way.

    The returned arrays share no memory with the run's workspace: final is
    a new field of the last state, and trace holds the (steps + 1, nodes)
    array the run filled.
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
    if chi is not None:
        chi = checked_float("chi", chi, 0.0)

    plan = grid._plan
    trace = np.empty((steps + 1, plan.nodes))
    backward = grid.mode == "observer-backward"

    def oriented(z, zt, t):
        # a new field, time-reversed (z, z_t) -> (z, -z_t) in backward mode
        return WaveField(z, -zt if backward else zt, t)

    start = oriented(initial.z, initial.zt, initial.t)
    if backward:
        # the replayed input lives in the trace rows not yet written: the
        # rows of a block of states are written after the step out of its
        # last state, which reads the last row the block needs
        samples = np.negative(samples[::-1], out=trace)

    ws = _Workspace(grid, nonlinearity, start)
    # the staged z and z_t and the kernel's buffers (without chi, sq is g0)
    shape = (_block_states(start.z.size),) + plan.shape
    zs, vs = staged = np.empty((2,) + shape)
    grads = np.empty((grid.dim,) + shape)
    sq, tmp = np.empty((2,) + shape) if chi is not None else (grads[0], np.empty(shape))
    # a 1-D cross term multiplies by the axis copied per staged state, which
    # numpy, unlike the axis broadcast over the block, takes unbuffered
    axes = np.tile(grid.axis(), (len(zs), 1)) if chi is not None and grid.dim == 1 else None
    energies = np.empty(steps + 1)
    lyaps = None if chi is None else np.empty(steps + 1)
    zs[0], vs[0], times = start.z, start.zt, [start.t]  # times of the staged states
    first = 0  # the index of the first of them

    def record():
        # the staged states' energies and trace rows in one kernel pass; each
        # energy is checked in time order, before its state's Lyapunov value
        nonlocal first
        count, pending = len(times), times[:]
        del times[:]
        z, v, out = zs[:count], vs[:count], (sq[:count], tmp[:count])
        g = _gradient(z, grid.dx, grid.dim, grads[:, :count])
        values = _energy(g, v, grid.dx, *out)
        lyap = None if lyaps is None else _lyapunov(
            z, v, g, values, grid, chi, *out, x=None if axes is None else [axes[:count]])
        if not (np.isfinite(values).all()
                and (lyap is None or np.isfinite(lyap).all())):
            for i, t in enumerate(pending):
                _finite(values[i], "energy", t)
                if lyap is not None:
                    _finite(lyap[i], "Lyapunov value", t)
        rows = slice(first, first + count)
        energies[rows] = values
        if lyap is not None:
            lyaps[rows] = lyap
        np.take(v.reshape(count, -1), plan.flat_measured, axis=1,
                out=trace[rows], mode="clip")
        first += count

    # an overflowing step or energy is reported as DivergenceError alone,
    # without a RuntimeWarning first: step checks that the field stays
    # finite, record that the energy does
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for i in range(steps):
                binput = (samples[i], samples[i + 1]) if injecting else None
                step(ws, grid, nonlinearity, binput)
                if len(times) == len(zs):
                    record()
                staged[:, len(times)] = ws.slots[ws.head]
                times.append(ws.t)
        finally:
            # also when a step raised: an energy that overflowed before it
            # is then reported instead, at its own t
            if times:
                record()

    final = oriented(*ws.slots[ws.head], ws.t)
    return Run(final, _adopted_trace(trace, grid.dt, initial.t), energies, lyaps)


def _finite(value, name, t):
    if not math.isfinite(value):
        raise DivergenceError(t, "%s %s" % (name, fmt_float(value)))
    return value


# ----------------------------------------------------------------- functionals


def _gradient(z, dx, dim, out=None):
    """Derivatives along the last dim axes, the grid axes (any axes before
    them index states), as np.gradient(z, dx) computes them.

    numpy's own operations for a uniform spacing and edge_order=1: central
    differences (z[2:] - z[:-2]) / (2. * dx) inside, one-sided differences
    over dx at both ends, so the values are bit-identical, without
    np.gradient's argument handling.  The one-sided ends are written after
    the central differences, over a flat pass's straddle entries.  Buffers
    (out here, sq and tmp below) are C-contiguous of z's shape, or else new
    arrays of z's layout, which the cell sums' bits follow.
    """
    grads = []
    for axis in range(z.ndim - dim, z.ndim):
        grad = np.empty_like(z) if out is None else out[len(grads)]
        f, g = _runs(axis, z, grad)
        inner = g[1:-1]
        np.subtract(f[2:], f[:-2], out=inner)
        inner /= 2. * dx
        f, g = z.swapaxes(0, axis), grad.swapaxes(0, axis)
        g[0] = (f[1] - f[0]) / dx
        g[-1] = (f[-1] - f[-2]) / dx
        grads.append(grad)
    return grads


def _integrate_cells(values, dx, lead=0, tmp=None):
    """Trapezoid rule over every axis after the lead leading ones, the last
    axis first.

    Each pass is numpy's own np.trapezoid(values, dx=dx, axis=-1)
    operation for a scalar spacing, so the bits are the same without its
    argument handling.  The first pass's cells fill tmp, of values' shape.
    A pass adds over the flat array of a C-contiguous one, whose straddle
    entries its sums leave out: numpy buffers an operand strided by rows.
    """
    for _ in range(values.ndim - lead):
        cells = np.empty_like(values) if tmp is None else tmp
        f, c = _runs(values.ndim - 1, values, cells)
        c = np.add(f[1:], f[:-1], out=c[:-1])
        c *= dx
        c /= 2.0
        values, tmp = cells[..., :-1].sum(-1), None
    return values


def _energy(grads, zt, dx, sq=None, tmp=None):
    """The energy from the gradient, so lyapunov differentiates once; with
    leading axes on zt and the gradients, one energy per state.  sq may be
    the first gradient, which it squares in place."""
    sq = np.multiply(grads[0], grads[0], out=sq)
    for u in grads[1:] + [zt]:
        sq += np.multiply(u, u, out=tmp)
    return 0.5 * _integrate_cells(sq, dx, zt.ndim - len(grads), tmp)


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


def _lyapunov(z, v, grads, e, grid, chi, sq=None, tmp=None, x=None):
    """lyapunov from the gradient and energy of the state; with leading axes
    on z, v, the gradients and e, one value per state.  x holds the
    coordinates by grid axis, the grid's own unless given."""
    dx, n = grid.dx, grid.dim
    lead = z.ndim - n
    # the sum of x_i * d_i z; 2-D takes whole coordinate arrays, not buffered
    if x is None:
        x = grid.coords() if n > 1 else [grid.axis()]
    sq = np.multiply(x[0], grads[0], out=sq)
    for x_i, g in zip(x[1:], grads[1:]):
        sq += np.multiply(x_i, g, out=tmp)
    sq *= 2.0
    sq += np.multiply(n - 1, z, out=tmp)
    sq *= v
    cross = _integrate_cells(sq, dx, lead, tmp)
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


def trajectory_csv(trace, energies, lyapunovs=None, rows=slice(None)):
    """CSV text t,E,V,trace0[,trace1,...]; V falls back to E when absent.

    rows picks the time levels written.  The header leads only a text whose
    rows start at level 0, so the texts of consecutive slices join into the
    text of their union, byte for byte.  A non-finite energy or Lyapunov
    value raises ValueError: one anywhere in the series when the text
    carries the header, else one in its rows.
    """
    samples = trace.samples
    levels, columns = samples.shape
    start, stop, step = rows.indices(levels)
    if lyapunovs is None:
        lyapunovs = energies
    checked = slice(None) if start == 0 else rows
    if not (np.all(np.isfinite(energies[checked]))
            and np.all(np.isfinite(lyapunovs[checked]))):
        raise ValueError("non-finite energy or Lyapunov value in the trajectory")
    times = trace.t0 + np.arange(start, stop, step) * trace.dt
    table = np.column_stack((times, energies[rows], lyapunovs[rows], samples[rows]))
    # "%.17g" per value, as fmt_float writes each one
    row = ",".join(["%.17g"] * (3 + columns))
    lines = ["t,E,V," + ",".join("trace%d" % j for j in range(columns))] if start == 0 else []
    lines.extend(row % tuple(values.tolist()) for values in table)
    lines.append("")
    return "\n".join(lines)


# a run of the characters at none of which str.splitlines breaks a line
_LINE = re.compile("[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]+")


def read_trajectory_csv(text):
    """(BoundaryTrace, E array, V array) parsed back from trajectory_csv.

    The header must be t,E,V,trace0,...,trace{m-1} exactly, every row must
    carry m + 3 values, and E and V must be finite, as trajectory_csv
    writes them.
    """
    # the non-empty lines of text.strip().splitlines(), found one at a time
    first = re.search(r"\S", text)
    if first is None:
        raise ValueError("trajectory CSV is empty")
    lines = partial(_LINE.finditer, text, first.start(), len(text.rstrip()))
    body = lines()
    header = next(body).group().split(",")
    width = len(header)
    if width < 4 or header != ["t", "E", "V"] + ["trace%d" % j for j in range(width - 3)]:
        raise ValueError("expected the header t,E,V,trace0,...,trace{m-1}")
    # the rows ahead of the first of the wrong width are parsed, in order,
    # into an array of their own size before that row is refused
    good, ragged = 0, None
    for line in map(re.Match.group, body):
        if line.count(",") != width - 1:
            ragged = line
            break
        good += 1
    cells = chain.from_iterable(m.group().split(",") for m in islice(lines(), 1, good + 1))
    rows = np.fromiter(map(float, cells), float, good * width).reshape(good, width)
    if ragged is not None:
        raise ValueError("row %d carries %d values, the header names %d"
                         % (good + 1, ragged.count(",") + 1, width))
    if good < 2:
        raise ValueError("trajectory needs at least two time levels")
    if not np.all(np.isfinite(rows[:, 1:3])):
        raise ValueError("trajectory E and V values must be finite")
    times = rows[:, 0]
    dts = np.diff(times)
    dt = float(dts[0])
    if not np.all(np.abs(dts - dt) <= 1e-9 * max(dt, 1.0)):
        raise ValueError("trace sample times must be uniform")
    return BoundaryTrace(rows[:, 3:], dt, float(times[0])), rows[:, 1], rows[:, 2]
