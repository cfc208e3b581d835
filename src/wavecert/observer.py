"""Iterative forward/backward recovery of initial states from boundary data.

The loop runs one sweep per iteration: the injected observer integrates
forward over the window from the previous estimate (zero field on the
first pass), then the backward observer integrates from the forward
terminal state, and the backward result at the window start is the next
estimate.  The loop itself only judges each sweep.  Convergence is
declared from the relative change between successive estimates in the
energy norm, never from the unknown true state.  Test harnesses that do
own the ground truth can pass it in to obtain per-iteration error energies
and the Lyapunov contraction diagnostics.  The result records store what
was measured and read every verdict and ratio they decide off it.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import pde
from .certificates import _q_at, checked_float, checked_int, compute_iss_gain, json_dumps

DIVERGENCE_FACTOR = 1e6
# node-steps of a recovery, 2 runs x m_max x steps x nodes: about 240x the
# largest recovery the tests, demos and benchmark make (2-D N=81: 4.1e7)
MAX_RECOVERY_NODE_STEPS = 10 ** 10
# relative slack of contraction_report's ratio and uniform bounds
CONTRACTION_SLACK = 0.1


@dataclass(frozen=True)
class RecoveryConfig:
    """Settings for one recovery: window, budget, grid, source term.

    The observer gain is grid.k.  The loop ends at the first iteration
    whose relative change is below convergence_threshold, or after m_max
    iterations.
    """

    horizon: float
    m_max: int
    grid: pde.Grid
    nonlinearity: pde.Nonlinearity = pde.ZERO_F
    convergence_threshold: float = 1e-3
    certificate: object = None

    def __post_init__(self):
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
        # self.steps also rejects a window that is not whole steps
        work = 2 * self.m_max * self.steps * self.grid.points_per_axis ** self.grid.dim
        if work > MAX_RECOVERY_NODE_STEPS:
            raise ValueError("%d iterations of 2 runs make %d node-steps, more than %d"
                             % (self.m_max, work, MAX_RECOVERY_NODE_STEPS))

    @property
    def steps(self):
        return pde.whole_steps(self.horizon, self.grid.dt)


@dataclass(frozen=True)
class IterationRecord:
    """One pass of the loop; truth-based entries stay None in production.

    ratio is the energy of this sweep's change of the estimate over that of
    the sweep before, None at m = 1 or after a zero change, with or without
    truth; a truth run's error ratios are read off E_b_t0.  E_fwd_peak and
    E_back_peak are the largest energies of the sweep's forward and
    backward runs."""

    m: int
    succ_change: float
    E_fwd_peak: float
    E_back_peak: float
    E_b_t0: float = None
    V_b_t0: float = None
    ratio: float = None


@dataclass(frozen=True, eq=False)
class RecoveryRun:
    """A recovery's records and estimate; stop_reason says why the loop
    ended: "converged", "diverged" or "out of budget"."""

    records: tuple
    recovered: pde.WaveField
    stop_reason: str
    E_b_initial: float = None
    V_b_initial: float = None
    regional_guard_ok: bool = None
    config: RecoveryConfig = None
    converged = property(lambda self: self.stop_reason == "converged")
    diverged = property(lambda self: self.stop_reason == "diverged")

    @property
    def final_error_vs_truth(self):
        # hnorm(last estimate - truth) / hnorm(truth), given a nonzero truth
        e_b = self.records[-1].E_b_t0 if self.records else None
        if e_b is None or not self.E_b_initial > 0.0:
            return None
        return math.sqrt(max(2.0 * e_b, 0.0)) / math.sqrt(2.0 * self.E_b_initial)


def _sweep(estimate, grids, config, measurements):
    """A forward observer run from the estimate, then a backward one from
    its end, on grids = (forward grid, backward grid); returns the forward
    field, the next estimate (the backward run's own field, t set to the
    window start) and both energy series.  Each trace that _ takes is
    dropped when _ takes the lyapunovs, so it is freed as its run returns.
    """
    grid_f, grid_b = grids
    nl = config.nonlinearity
    forward, _, e_fwd, _ = pde.run(estimate, config.horizon, grid_f, nl, measurements)
    back, _, e_back, _ = pde.run(forward, config.horizon, grid_b, nl, measurements)
    back.t = measurements.t0
    return forward, back, e_fwd, e_back


def _backward_lyapunov(z, zt, grid, chi):
    # the backward error functional is V evaluated with the velocity negated
    return pde.lyapunov(pde.WaveField(z, -zt), grid, chi)


def recover(measurements, config, truth=None):
    """Run the iteration; pass truth to enrich records with error energies."""
    grid = config.grid
    pde.check_trace(measurements, grid, config.steps)
    grids = (replace(grid, mode="observer-forward"),
             replace(grid, mode="observer-backward"))
    cert = config.certificate
    chi = None if cert is None else cert.vars.chi

    guard_bound = None
    if cert is not None and (cert.params.d is not None or cert.d0 is not None):
        guard_bound = config.nonlinearity.local_radius
        if cert.params.d is not None:
            guard_bound = min(guard_bound, cert.params.d)
    guard_ok = None if guard_bound is None else True

    e_b0 = v_b0 = None
    if truth is not None:
        e_b0 = pde.energy(truth, grid)
        if chi is not None:
            v_b0 = _backward_lyapunov(truth.z, truth.zt, grid, chi)
        if guard_bound is not None and np.max(np.abs(truth.z)) > guard_bound:
            guard_ok = False

    zeros = np.zeros((grid.points_per_axis,) * grid.dim)
    prev = pde.WaveField(zeros, zeros, measurements.t0)
    prev_diff_energy = 0.0
    baseline = None
    records = []
    stop = "out of budget"

    for m in range(1, config.m_max + 1):
        try:
            forward, curr, e_fwd, e_back = _sweep(prev, grids, config, measurements)
        except pde.DivergenceError:
            stop = "diverged"
            break
        fwd_peak, back_peak = float(np.max(e_fwd)), float(np.max(e_back))
        peak = max(fwd_peak, back_peak)
        if baseline is None:
            baseline = max(peak, 1e-300)
        elif peak > DIVERGENCE_FACTOR * baseline:
            stop = "diverged"

        if guard_bound is not None and guard_ok:
            if max(float(np.max(np.abs(forward.z))),
                   float(np.max(np.abs(curr.z)))) > guard_bound:
                guard_ok = False

        diff = pde.WaveField(curr.z - prev.z, curr.zt - prev.zt)
        diff_energy = pde.energy(diff, grid)
        den = pde.hnorm(curr, grid)
        succ = math.sqrt(max(2.0 * diff_energy, 0.0)) / den if den > 0.0 else 0.0

        ratio = diff_energy / prev_diff_energy if prev_diff_energy > 0.0 else None
        e_b = v_b = None
        if truth is not None:
            err = pde.WaveField(curr.z - truth.z, curr.zt - truth.zt)
            e_b = pde.energy(err, grid)
            if chi is not None:
                v_b = _backward_lyapunov(err.z, err.zt, grid, chi)

        records.append(IterationRecord(m=m, succ_change=succ, E_fwd_peak=fwd_peak,
                                       E_back_peak=back_peak, E_b_t0=e_b,
                                       V_b_t0=v_b, ratio=ratio))
        prev = curr
        prev_diff_energy = diff_energy
        if stop == "diverged":
            break
        if succ < config.convergence_threshold:
            stop = "converged"
            break

    return RecoveryRun(records=tuple(records), recovered=prev, stop_reason=stop,
                       E_b_initial=e_b0, V_b_initial=v_b0,
                       regional_guard_ok=guard_ok, config=config)


# ------------------------------------------------------------------ reports


def _uncovered(certificate, config):
    """Why the certificate says nothing of the config's run, or None."""
    p = certificate.params
    if p.n != config.grid.dim:
        return ("certificate dimension %d differs from the run dimension %d"
                % (p.n, config.grid.dim))
    if config.grid.k == 0.0:
        return ("no boundary dissipation at k = 0 "
                "(psi1 = chi > 0, no contraction is certified)")
    if p.t_star is None or p.delta is None:
        return "certificate carries no observation time"
    if abs(p.k - config.grid.k) > 1e-12 * max(1.0, p.k):
        return ("certificate gain %g differs from the run gain %g"
                % (p.k, config.grid.k))
    if p.g1 < config.nonlinearity.fz_bound:
        return ("certificate g1 %g is below the source's fz_bound %g"
                % (p.g1, config.nonlinearity.fz_bound))
    if config.horizon <= p.t_star:
        return ("horizon %g does not exceed the observation time %g"
                % (config.horizon, p.t_star))
    return None


@dataclass(frozen=True)
class ContractionReport:
    # the verdicts are None where the certificate does not cover the run,
    # and ok is False for a diverged run whatever its rows say
    applicable: bool
    reason: str = None
    q: float = None
    slack: float = None
    rows: tuple = ()
    uniform_peak: float = None
    uniform_bound: float = None
    diverged: bool = False
    ratios_ok = property(lambda self: all(row["ok"] for row in self.rows)
                         if self.applicable else None)
    uniform_ok = property(lambda self: self.uniform_peak <= self.uniform_bound
                          if self.applicable else None)
    ok = property(lambda self: bool(self.ratios_ok and self.uniform_ok and not self.diverged)
                  if self.applicable else None)


def contraction_report(run):
    """Compare observed Lyapunov ratios against the certified rate q.

    Judges the run against its own config's certificate, whose chi gave
    the V_b records, so the run needs ground-truth energies and that
    certificate must cover the run (_uncovered).
    """
    if run.V_b_initial is None or any(r.V_b_t0 is None for r in run.records):
        raise ValueError("run lacks ground-truth Lyapunov records; "
                         "recover(..., truth=...) with a certificate provides them")
    config = run.config
    certificate = config.certificate
    p = certificate.params
    slack = CONTRACTION_SLACK

    reason = _uncovered(certificate, config)
    if reason is not None:
        return ContractionReport(applicable=False, reason=reason)

    q = _q_at(p, config.horizon)
    bound = q * (1.0 + slack)
    rows = []
    v_prev = run.V_b_initial
    for rec in run.records:
        ratio = rec.V_b_t0 / v_prev if v_prev > 0.0 else None
        ok = ratio is None or ratio <= bound
        rows.append({"m": rec.m, "ratio": ratio, "bound": bound, "ok": ok})
        v_prev = rec.V_b_t0

    peak = max([run.E_b_initial] + [r.E_b_t0 for r in run.records])
    uniform_bound = (certificate.beta / certificate.alpha) \
        * math.exp(2.0 * p.delta * p.t_star) * run.E_b_initial * (1.0 + slack)
    return ContractionReport(applicable=True, q=q, slack=slack, rows=tuple(rows),
                             uniform_peak=peak, uniform_bound=uniform_bound,
                             diverged=run.diverged)


@dataclass(frozen=True, eq=False)
class IssReport:
    gap_sq: float
    noise_integral: float
    c_constant: float
    delta0: float
    diverged: bool
    baseline_run: RecoveryRun = None
    bound = property(lambda self: self.c_constant * self.noise_integral)
    ratio = property(lambda self: self.gap_sq / self.bound if self.bound > 0.0 else None)
    ok = property(lambda self: self.gap_sq <= self.bound and not self.diverged)


def perturbed_recover(measurements, noise, config):
    """Recover from y + w and bound the induced gap by the ISS estimate.

    Returns (noisy run, report); the clean run rides along on the report.
    The report is ok when the gap keeps the bound and neither run diverged.
    """
    pde.check_trace(noise, config.grid, config.steps)
    cert = config.certificate
    reason = ("the ISS bound needs a certificate with an observation time"
              if cert is None else _uncovered(cert, config))
    if reason is not None:
        raise ValueError(reason)

    clean = recover(measurements, config)
    # y + w, held once and only while recovering from it; two finite
    # traces can overflow when summed
    with np.errstate(over="ignore"):
        samples = measurements.samples + noise.samples
    if not np.all(np.isfinite(samples)):
        raise ValueError("trace samples must be finite")
    noisy = recover(pde._adopted_trace(samples, measurements.dt, measurements.t0),
                    config)
    del samples

    gap_field = pde.WaveField(noisy.recovered.z - clean.recovered.z,
                              noisy.recovered.zt - clean.recovered.zt)
    gap_sq = 2.0 * pde.energy(gap_field, config.grid)

    noise_integral = pde.trace_sq_integral(noise, config.grid)

    # the search layer loads with the one report that needs it
    from .search import delta_margin
    _, gamma = compute_iss_gain(cert.params, cert.vars)
    delta0 = delta_margin(cert.params, cert.vars)
    denom = cert.alpha * (1.0 - math.exp(-2.0 * delta0 * cert.params.t_star))
    return noisy, IssReport(gap_sq=gap_sq, noise_integral=noise_integral,
                            c_constant=gamma / denom, delta0=delta0,
                            diverged=clean.diverged or noisy.diverged, baseline_run=clean)


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
