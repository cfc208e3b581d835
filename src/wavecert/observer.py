"""Iterative forward/backward recovery of initial states from boundary data.

Each iteration integrates the injected observer forward over the window
from the previous backward estimate (zero field on the first pass), then
integrates the backward observer from the forward terminal state; the
backward result at the window start is the next estimate.  Convergence is
declared from the relative change between successive estimates in the
energy norm, never from the unknown true state.  Test harnesses that do
own the ground truth can pass it in to obtain per-iteration error energies
and the Lyapunov contraction diagnostics.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import pde
from .certificates import checked_float, checked_int, compute_iss_gain, json_dumps
from .search import delta_margin

DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class RecoveryConfig:
    """Settings for one recovery: gain, window, budget, grid, source term.

    stop_early ends the loop at the first converged iteration; studies of
    the contraction rate switch it off to use the whole budget.
    """

    k: float
    horizon: float
    m_max: int
    grid: pde.Grid
    nonlinearity: pde.Nonlinearity = pde.ZERO_F
    convergence_threshold: float = 1e-3
    certificate: object = None
    stop_early: bool = True

    def __post_init__(self):
        object.__setattr__(self, "k", checked_float("k", self.k, 0.0))
        object.__setattr__(self, "horizon",
                           checked_float("horizon", self.horizon, 0.0, strict=True))
        object.__setattr__(self, "m_max", checked_int("m_max", self.m_max, 1))
        if not isinstance(self.grid, pde.Grid):
            raise ValueError("grid must be a Grid")
        if not isinstance(self.nonlinearity, pde.Nonlinearity):
            raise ValueError("nonlinearity must be a Nonlinearity")
        object.__setattr__(
            self, "convergence_threshold",
            checked_float("convergence_threshold", self.convergence_threshold,
                          0.0, strict=True))
        pde.whole_steps(self.horizon, self.grid.dt)  # the window is whole steps

    @property
    def steps(self):
        return pde.whole_steps(self.horizon, self.grid.dt)


@dataclass(frozen=True)
class IterationRecord:
    """One pass of the loop; truth-based entries stay None in production."""

    m: int
    succ_change: float
    E_b_t0: float = None
    V_b_t0: float = None
    ratio: float = None


@dataclass(frozen=True, eq=False)
class RecoveryRun:
    records: tuple
    recovered: pde.WaveField
    converged: bool
    diverged: bool = False
    E_b_initial: float = None
    V_b_initial: float = None
    final_error_vs_truth: float = None
    regional_guard_ok: bool = None
    config: RecoveryConfig = None


def _observer_grids(config):
    g = config.grid
    forward = pde.Grid(g.dim, g.points_per_axis, g.dt, "observer-forward",
                       config.k)
    backward = pde.Grid(g.dim, g.points_per_axis, g.dt, "observer-backward",
                        config.k)
    return forward, backward


def _zero_state(grid, t0):
    shape = (grid.points_per_axis,) * grid.dim
    return pde.WaveField(np.zeros(shape), np.zeros(shape), t0)


def _backward_lyapunov(z, zt, grid, chi, k):
    # the backward error functional is V evaluated with the velocity negated
    return pde.lyapunov(pde.WaveField(z, -zt), grid, chi, k)


def recover(measurements, config, truth=None):
    """Run the iteration; pass truth to enrich records with error energies."""
    pde.check_trace(measurements, config.grid, config.steps)
    grid_f, grid_b = _observer_grids(config)
    nl = config.nonlinearity
    t0 = measurements.t0
    cert = config.certificate
    chi = cert.vars.chi if cert is not None and cert.vars.chi is not None else None

    guard_bound = None
    if cert is not None and (cert.params.d is not None or cert.d0 is not None):
        guard_bound = nl.local_radius
        if cert.params.d is not None:
            guard_bound = min(guard_bound, cert.params.d)
    guard_ok = None if guard_bound is None else True

    e_b0 = v_b0 = None
    prev_e_b = None
    if truth is not None:
        pde._check_shape(truth, grid_f)
        e_b0 = pde.energy(truth, grid_f)
        prev_e_b = e_b0
        if chi is not None:
            v_b0 = _backward_lyapunov(truth.z, truth.zt, grid_f, chi, config.k)
        if guard_bound is not None and np.max(np.abs(truth.z)) > guard_bound:
            guard_ok = False

    prev = _zero_state(grid_f, t0)
    prev_diff_energy = None
    baseline = None
    records = []
    converged = False
    diverged = False

    for m in range(1, config.m_max + 1):
        try:
            start = pde.WaveField(prev.z, prev.zt, t0)
            forward, _, e_fwd = pde.run(start, config.horizon, grid_f, nl,
                                        measurements)
            back, _, e_back = pde.run(forward, config.horizon, grid_b, nl,
                                      measurements)
        except pde.DivergenceError:
            diverged = True
            break
        curr = pde.WaveField(back.z, back.zt, t0)

        peak = max(float(np.max(e_fwd)), float(np.max(e_back)))
        if baseline is None:
            baseline = max(peak, 1e-300)
        elif peak > DIVERGENCE_FACTOR * baseline:
            diverged = True

        if guard_bound is not None and guard_ok:
            if max(float(np.max(np.abs(forward.z))),
                   float(np.max(np.abs(curr.z)))) > guard_bound:
                guard_ok = False

        diff = pde.WaveField(curr.z - prev.z, curr.zt - prev.zt)
        diff_energy = pde.energy(diff, grid_f)
        den = pde.hnorm(curr, grid_f)
        succ = math.sqrt(max(2.0 * diff_energy, 0.0)) / den if den > 0.0 else 0.0

        e_b = v_b = ratio = None
        if truth is not None:
            err = pde.WaveField(curr.z - truth.z, curr.zt - truth.zt)
            e_b = pde.energy(err, grid_f)
            if chi is not None:
                v_b = _backward_lyapunov(err.z, err.zt, grid_f, chi, config.k)
            if prev_e_b is not None and prev_e_b > 0.0:
                ratio = e_b / prev_e_b
            prev_e_b = e_b
        elif m >= 2 and prev_diff_energy is not None and prev_diff_energy > 0.0:
            ratio = diff_energy / prev_diff_energy

        records.append(IterationRecord(m=m, succ_change=succ, E_b_t0=e_b,
                                       V_b_t0=v_b, ratio=ratio))
        prev = curr
        prev_diff_energy = diff_energy
        if diverged:
            break
        if succ < config.convergence_threshold:
            converged = True
            if config.stop_early:
                break

    final_error = None
    if truth is not None and records:
        scale = pde.hnorm(truth, grid_f)
        err = pde.WaveField(prev.z - truth.z, prev.zt - truth.zt)
        if scale > 0.0:
            final_error = pde.hnorm(err, grid_f) / scale

    return RecoveryRun(records=tuple(records), recovered=prev,
                       converged=converged, diverged=diverged,
                       E_b_initial=e_b0, V_b_initial=v_b0,
                       final_error_vs_truth=final_error,
                       regional_guard_ok=guard_ok, config=config)


# ------------------------------------------------------------------ reports


def _uncovered_source(params, config):
    return ("certificate g1 %g is below the source's fz_bound %g"
            % (params.g1, config.nonlinearity.fz_bound))


@dataclass(frozen=True)
class ContractionReport:
    applicable: bool
    reason: str = None
    q: float = None
    slack: float = None
    rows: tuple = ()
    ratios_ok: bool = None
    uniform_peak: float = None
    uniform_bound: float = None
    uniform_ok: bool = None

    @property
    def ok(self):
        if not self.applicable:
            return None
        return bool(self.ratios_ok and self.uniform_ok)


def contraction_report(run, certificate, slack=0.1):
    """Compare observed Lyapunov ratios against the certified rate q.

    Needs a run enriched with ground-truth energies and a certificate with
    an observation time below the run horizon.
    """
    if certificate is None:
        raise ValueError("a certificate is required")
    if run.V_b_initial is None or any(r.V_b_t0 is None for r in run.records):
        raise ValueError("run lacks ground-truth Lyapunov records; "
                         "recover(..., truth=...) with a certificate provides them")
    config = run.config
    p = certificate.params

    def inapplicable(reason):
        return ContractionReport(applicable=False, reason=reason)

    if config.k == 0.0:
        return inapplicable("no boundary dissipation at k = 0 "
                            "(psi1 = chi > 0, no contraction is certified)")
    if p.t_star is None or p.delta is None:
        return inapplicable("certificate carries no observation time")
    if abs(p.k - config.k) > 1e-12 * max(1.0, p.k):
        return inapplicable("certificate gain %g differs from the run gain %g"
                            % (p.k, config.k))
    if p.g1 < config.nonlinearity.fz_bound:
        return inapplicable(_uncovered_source(p, config))
    if config.horizon <= p.t_star:
        return inapplicable("horizon %g does not exceed the observation time %g"
                            % (config.horizon, p.t_star))

    q = math.exp(-4.0 * p.delta * (config.horizon - p.t_star))
    rows = []
    ratios_ok = True
    v_prev = run.V_b_initial
    for rec in run.records:
        ratio = rec.V_b_t0 / v_prev if v_prev > 0.0 else None
        ok = ratio is None or ratio <= q * (1.0 + slack)
        ratios_ok = ratios_ok and ok
        rows.append({"m": rec.m, "ratio": ratio, "bound": q * (1.0 + slack),
                     "ok": ok})
        v_prev = rec.V_b_t0

    peak = max([run.E_b_initial] + [r.E_b_t0 for r in run.records])
    uniform_bound = (certificate.beta / certificate.alpha) \
        * math.exp(2.0 * p.delta * p.t_star) * run.E_b_initial * (1.0 + slack)
    uniform_ok = peak <= uniform_bound
    return ContractionReport(applicable=True, q=q, slack=slack,
                             rows=tuple(rows), ratios_ok=ratios_ok,
                             uniform_peak=peak, uniform_bound=uniform_bound,
                             uniform_ok=uniform_ok)


@dataclass(frozen=True, eq=False)
class IssReport:
    gap_sq: float
    noise_integral: float
    c_constant: float
    delta0: float
    bound: float
    ok: bool
    ratio: float = None
    baseline_run: RecoveryRun = None


def perturbed_recover(measurements, noise, config, truth=None):
    """Recover from y + w and bound the induced gap by the ISS estimate.

    Returns (noisy run, report); the clean run rides along on the report.
    """
    pde.check_trace(noise, config.grid, config.steps)
    cert = config.certificate
    if cert is None or cert.params.t_star is None or cert.params.delta is None:
        raise ValueError("the ISS bound needs a certificate with an "
                         "observation time")
    if cert.params.g1 < config.nonlinearity.fz_bound:
        raise ValueError(_uncovered_source(cert.params, config))

    clean = recover(measurements, config, truth)
    noisy_trace = pde.BoundaryTrace(measurements.samples + noise.samples,
                                    measurements.dt, measurements.t0)
    noisy = recover(noisy_trace, config, truth)

    grid_f, _ = _observer_grids(config)
    gap_field = pde.WaveField(noisy.recovered.z - clean.recovered.z,
                              noisy.recovered.zt - clean.recovered.zt)
    gap_sq = 2.0 * pde.energy(gap_field, grid_f)

    # the noise on the full grid at every level, zero off the measured nodes
    plan = config.grid._plan
    w = np.zeros(noise.samples.shape[:1] + plan.flux_mult.shape)
    w[(slice(None),) + plan.measured] = noise.samples
    per_level = pde._face_sq_integral(w, config.grid)
    noise_integral = float(pde._integrate_cells(per_level, noise.dt))

    gamma = cert.vars.gamma
    if gamma is None:
        _, gamma = compute_iss_gain(cert.params, cert.vars)
    delta0 = delta_margin(cert.params, cert.vars)
    denom = cert.alpha * (1.0 - math.exp(-2.0 * delta0 * cert.params.t_star))
    c_constant = gamma / denom
    bound = c_constant * noise_integral
    report = IssReport(gap_sq=gap_sq, noise_integral=noise_integral,
                       c_constant=c_constant, delta0=delta0, bound=bound,
                       ok=gap_sq <= bound,
                       ratio=(gap_sq / bound) if bound > 0.0 else None,
                       baseline_run=clean)
    return noisy, report


# --------------------------------------------------------------------- export


def run_to_json(run):
    iterations = []
    for rec in run.records:
        row = {"m": rec.m}
        if rec.E_b_t0 is not None:
            row["E_b_t0"] = rec.E_b_t0
        if rec.V_b_t0 is not None:
            row["V_b_t0"] = rec.V_b_t0
        if rec.ratio is not None:
            row["ratio"] = rec.ratio
        row["succ_change"] = rec.succ_change
        iterations.append(row)
    out = {"iterations": iterations, "converged": bool(run.converged),
           "diverged": bool(run.diverged)}
    if run.final_error_vs_truth is not None:
        out["final_error_vs_truth"] = run.final_error_vs_truth
    if run.regional_guard_ok is not None:
        out["regional_guard_ok"] = bool(run.regional_guard_ok)
    return json_dumps(out)
