"""Feasibility search over the LMI decision variables.

Everything here is grid-plus-bisection on scalar spectral margins: the
multiplier searches exploit that each lambda enters exactly one matrix
affinely (so the decisive eigenvalue is convex in it and a golden-section
scan is exact), chi scans exploit the hard psi1 cut chi < k/(1 + k^2 n),
and the minimal observation time is bisected using the monotonicity of the
observability matrix in t_star.  All searches are deterministic: same
inputs and config, same outputs, regardless of worker count.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .certificates import (
    DEFAULT_MARGIN,
    PI2,
    Certificate,
    CertificateError,
    DecisionVars,
    ProblemParams,
    _golden_min,
    build_psi1,
    build_psi2,
    build_phi0,
    build_phi_obs,
    certificate_to_dict,
    check_observability,
    check_stability,
    checked_float,
    checked_int,
    compute_regional_radius,
    fmt_float,
    json_dumps,
    make_certificate,
    phi0_entries,
    phi_obs_entries,
    psi1_value,
    psi2_entries,
    reject_unknown_keys,
)
from .smallmat import eigenvalues, extreme_eigenvalues

T_STAR_MAX = 200.0

CSV_HEADER = "n,k,g1,delta,t_star,chi,lambda0,lambda1,lambda2,alpha,beta,d0,feasible"


class Infeasible(Exception):
    """A search exhausted its region without finding a certified point.

    This is a result, not a failure: the reason string records the best
    margin seen or the structural cut that emptied the region.
    """

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


def _check_grid(name, grid):
    try:
        lo, hi, count = grid
    except (TypeError, ValueError):
        raise CertificateError("%s must be a (lo, hi, count) triple" % name)
    lo = checked_float(name + " lo", lo, 0.0, strict=True)
    hi = checked_float(name + " hi", hi)
    if not lo < hi:
        raise CertificateError("%s needs 0 < lo < hi" % name)
    return lo, hi, checked_int(name + " count", count, 2)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the grid searches; defaults reproduce the reference setup.

    chi_grid of None means automatic: 400 log-spaced points from 1e-4 up to
    the psi1 cut of the problem at hand.
    """

    chi_grid: tuple = None
    lambda_bisection_tol: float = 1e-9
    tstar_tol: float = 1e-3
    delta_grid: tuple = (1e-4, 0.5, 30)
    refinement_rounds: int = 3
    margin: float = DEFAULT_MARGIN

    def __post_init__(self):
        if self.chi_grid is not None:
            object.__setattr__(self, "chi_grid", _check_grid("chi_grid", self.chi_grid))
        object.__setattr__(self, "delta_grid", _check_grid("delta_grid", self.delta_grid))
        for name in ("lambda_bisection_tol", "tstar_tol"):
            object.__setattr__(self, name,
                               checked_float(name, getattr(self, name), 0.0, strict=True))
        object.__setattr__(self, "refinement_rounds",
                           checked_int("refinement_rounds", self.refinement_rounds, 0))
        object.__setattr__(self, "margin", checked_float("margin", self.margin, 0.0))

    def to_dict(self):
        out = {}
        if self.chi_grid is not None:
            out["chi_grid"] = list(self.chi_grid)
        out["lambda_bisection_tol"] = self.lambda_bisection_tol
        out["tstar_tol"] = self.tstar_tol
        out["delta_grid"] = list(self.delta_grid)
        out["refinement_rounds"] = self.refinement_rounds
        out["margin"] = self.margin
        return out

    @classmethod
    def from_dict(cls, dct):
        reject_unknown_keys("search", dct, (f.name for f in fields(cls)))
        return cls(**dct)


# --------------------------------------------------------- multiplier searches


def _bracket(params, chi, name):
    """Search interval of one multiplier.

    lambda1 must at least cancel the g1 (n-1) chi term of the (3,3) entry
    of the decay matrix and must not overfeed its (1,1) entry; a degenerate
    interval is widened.  lambda2's interval closes as t_star shrinks.
    """
    n = params.n
    if name == "lambda0":
        return 1e-12, PI2 * n / 8.0
    if name == "lambda1":
        lo = params.g1 * (n - 1) * chi
        hi = chi * PI2 * n / 4.0
        if hi <= lo:
            hi = lo + max(1e-15, 1e-9 * max(lo, 1.0))
        return lo, hi
    es = math.exp(-2.0 * params.delta * params.t_star)
    return 1e-14, 0.5 * (1.0 - es) * PI2 * n / 4.0


def _best_multiplier(params, chi, tol, build, name, top=True):
    """(decisive eigenvalue, multiplier) of build's matrix at its best `name`.

    top: the largest eigenvalue decides and is minimized (psi2, phi_obs);
    otherwise the smallest decides and is maximized (phi0).  An empty
    interval reports an infinitely bad eigenvalue at its lower end.
    """
    lo, hi = _bracket(params, chi, name)
    if hi <= lo:
        return (math.inf if top else -math.inf), lo

    def decisive(lam):
        eigs = eigenvalues(build(params, DecisionVars(chi=chi, **{name: lam})))
        return eigs[-1] if top else -eigs[0]

    lam = _golden_min(decisive, lo, hi, tol)
    value = decisive(lam)
    return (value if top else -value), lam


def _golden_lockstep(f, lo, hi, tol, iters=200):
    """_golden_min on every element of the arrays lo, hi at once.

    f(rows, x) returns the objective of elements rows at points x.  Each
    element follows _golden_min's update rule and leaves the batch once
    b - a < tol; iters caps every element alike.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo.copy(), hi.copy()
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    live = np.arange(a.size)
    fcd = f(np.concatenate([live, live]), np.concatenate([c, d]))
    fc, fd = fcd[:a.size], fcd[a.size:]
    for _ in range(iters):
        live = live[~(b[live] - a[live] < tol)]
        if not live.size:
            break
        left = fc[live] < fd[live]
        lt, rt = live[left], live[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = b[lt] - invphi * (b[lt] - a[lt])
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = a[rt] + invphi * (b[rt] - a[rt])
        fx = f(np.concatenate([lt, rt]), np.concatenate([c[lt], d[rt]]))
        fc[lt], fd[rt] = fx[:lt.size], fx[lt.size:]
    return 0.5 * (a + b)


def _best_multipliers(params, chi, tol, entries, name, top=True):
    """_best_multiplier at every chi of an array, the searches in lockstep.

    entries is the matrix's *_entries formula; each element gets its own
    _bracket and the values and multipliers _best_multiplier finds there.
    As DecisionVars would, a multiplier that is not finite and > 0 raises.
    """
    bounds = np.array([_bracket(params, float(x), name) for x in chi])
    lo, hi = bounds[:, 0], bounds[:, 1]
    empty = hi <= lo
    value = np.where(empty, math.inf if top else -math.inf, 0.0)
    lam = lo.copy()
    live = np.flatnonzero(~empty)
    if live.size:
        sub = chi[live]

        def decisive(rows, x):
            if not np.all((x > 0.0) & (x < math.inf)):
                raise CertificateError("%s must be finite and > 0" % name)
            low, high = extreme_eigenvalues(*entries(params, sub[rows], x))
            return high if top else -low

        best = _golden_lockstep(decisive, lo[live], hi[live], tol)
        found = decisive(np.arange(live.size), best)
        value[live] = found if top else -found
        lam[live] = best
    return value, lam


# ------------------------------------------------------------- stability scan


def _chi_cut(params):
    return params.k / (1.0 + params.k * params.k * params.n)


def _chi_grid(params, config):
    cut = _chi_cut(params)
    if config.chi_grid is None:
        return 1e-4, cut * (1.0 - 1e-9), 400
    lo, hi, count = config.chi_grid
    return lo, min(hi, cut * (1.0 - 1e-9)), count


def _stability_prefilter(params, chi, margin):
    """Cheap necessary conditions; False proves the point infeasible.

    The cushion keeps these conservative so pruning can never reject a chi
    that the full eigenvalue check would accept.
    """
    slack = margin + 1e-9
    n, k, g1, delta = params.n, params.k, params.g1, params.delta
    if build_psi1(params, DecisionVars(chi=chi)) > margin:
        return False
    if chi < delta - slack:
        return False  # (2,2) entry -chi + delta
    lam1_floor = max(0.0, g1 * (n - 1) * chi - slack)
    wq = 4.0 / (PI2 * n)
    if -chi + delta * (1.0 + chi * k * (n - 1)) + lam1_floor * wq > slack:
        return False  # (1,1) entry at the smallest admissible lambda1
    if n == 1:
        # principal minors {1,1} and {2,3} jointly force
        # (chi - delta)^2 pi^2 / 4 >= g1^2 / 4 up to slack terms
        u = chi - delta + slack
        if u < 0.0 or u * u * PI2 / 4.0 + u * slack < g1 * g1 / 4.0 - 1e-15:
            return False
    return True


def _stability_feasible(params, chi, config):
    """Full stability feasibility at one chi, multipliers optimized away.

    phi0 is checked against two candidate lambda0 values before paying for
    a full search: under the psi1 cut it is essentially never the binding
    constraint (chi < k/(1+k^2 n) <= 1/(2 sqrt n)).
    """
    margin = config.margin
    if not _stability_prefilter(params, chi, margin):
        return False
    top, _ = _best_multiplier(params, chi, config.lambda_bisection_tol,
                              build_psi2, "lambda1")
    if not top <= margin:
        return False
    for lam0 in (max(4.0 * margin, 1e-6), 0.3 * PI2 * params.n / 8.0):
        m = build_phi0(params, DecisionVars(chi=chi, lambda0=lam0))
        if eigenvalues(m)[0] > margin:
            return True
    bottom, _ = _best_multiplier(params, chi, config.lambda_bisection_tol,
                                 build_phi0, "lambda0", top=False)
    return bottom > margin


def chi_min_stability(params, config=None):
    """Smallest chi certifying exponential stability at the given delta.

    Scans the log grid for the first feasible point, then bisects against
    the last infeasible one; the returned value is the feasible endpoint.
    """
    config = config or SearchConfig()
    if params.delta is None:
        raise CertificateError("delta is required for a stability search")
    lo, hi, count = _chi_grid(params, config)
    if hi <= lo:
        raise Infeasible("empty chi range after the psi1 cut chi < k/(1+k^2 n) = %s"
                         % fmt_float(_chi_cut(params)))
    found = None
    prev = None
    for x in np.geomspace(lo, hi, count):
        chi = float(x)
        if _stability_feasible(params, chi, config):
            found = chi
            break
        prev = chi
    if found is None:
        raise Infeasible("no chi on (%s, %s) certifies stability at delta=%s"
                         % (fmt_float(lo), fmt_float(hi), fmt_float(params.delta)))
    if prev is None:
        return found
    a, b = prev, found
    for _ in range(60):
        mid = 0.5 * (a + b)
        if _stability_feasible(params, mid, config):
            b = mid
        else:
            a = mid
    return b


# ------------------------------------------------------------ time bisection


def _observation_window(params, config, delta):
    """Minimal t_star at one delta, bisected at a fixed probe chi.

    The probe sits a hair above chi_min_stability: the observability matrix
    only gets harder as chi grows, so the smallest stabilizing chi is the
    most favorable admissible point and the probe inherits its feasibility
    threshold in t_star.  Returns (t_star, chi_min, probe).
    """
    p = replace(params, delta=delta, t_star=None, t_total=None)
    cmin = chi_min_stability(p, config)
    probe = min(cmin * (1.0 + 1e-5), 0.5 * (cmin + _chi_cut(p)))
    tol = config.lambda_bisection_tol

    def feasible(t):
        top, _ = _best_multiplier(replace(p, t_star=t), probe, tol,
                                  build_phi_obs, "lambda2")
        return top < -config.margin

    if not feasible(T_STAR_MAX):
        top, _ = _best_multiplier(replace(p, t_star=T_STAR_MAX), probe, tol,
                                  build_phi_obs, "lambda2")
        raise Infeasible(
            "not observable within t_star <= %g at delta=%s (lambda_max(Phi)=%s)"
            % (T_STAR_MAX, fmt_float(delta), fmt_float(top)))
    lo_t, hi_t = 0.0, T_STAR_MAX
    while hi_t - lo_t > config.tstar_tol:
        mid = 0.5 * (lo_t + hi_t)
        if feasible(mid):
            hi_t = mid
        else:
            lo_t = mid
    return hi_t, cmin, probe


def minimal_observability_time(params, config=None):
    """(t_star, delta, Certificate) minimizing t_star over the delta grid.

    A set params.delta pins the search to that single delta; otherwise the
    configured grid is swept.  Among deltas whose minimal times agree within
    tstar_tol the largest delta wins (fastest certified contraction).
    """
    config = config or SearchConfig()
    if params.t_star is not None:
        raise CertificateError("t_star must be left unset for a minimal-time search")
    if params.delta is not None:
        deltas = [params.delta]
    else:
        lo, hi, count = config.delta_grid
        deltas = [float(x) for x in np.geomspace(lo, hi, count)]
    wins = []
    reasons = []
    for delta in deltas:
        try:
            t, cmin, probe = _observation_window(params, config, delta)
            wins.append((t, delta))
        except Infeasible as exc:
            reasons.append(str(exc))
    if not wins:
        raise Infeasible("no delta admits an observability certificate; last reason: %s"
                         % (reasons[-1] if reasons else "empty delta grid"))
    t_best = min(t for t, _ in wins)
    delta_star = max(d for t, d in wins if t <= t_best + config.tstar_tol)
    t_star = next(t for t, d in wins if d == delta_star)
    if params.t_total is not None and params.t_total < t_star:
        raise CertificateError(
            "t_total=%s is below the minimal observation time %s"
            % (fmt_float(params.t_total), fmt_float(t_star)))
    last_error = None
    for _ in range(4):
        p_final = replace(params, delta=delta_star, t_star=t_star)
        try:
            vars = find_feasible_vars(p_final, config)
            cert = make_certificate(p_final, vars, margin=config.margin)
            return t_star, delta_star, cert
        except (Infeasible, CertificateError) as exc:
            # the bisection endpoint can sit on the feasibility boundary;
            # nudging by one tolerance recovers a strictly interior point
            last_error = exc
            t_star = t_star + config.tstar_tol
    raise Infeasible("could not assemble a certificate near the bisected time: %s"
                     % last_error)


# -------------------------------------------------------------- joint searches


def find_feasible_vars(params, config=None):
    """Decision variables maximizing the worst LMI margin over the chi grid.

    Stability mode when t_star is unset, observability mode otherwise.  Each
    grid is evaluated in lockstep (one batched multiplier search per LMI);
    the first point that strictly beats the best so far wins, as in a
    point-by-point scan.  The returned point re-passes its checks at the
    configured margin; a nonpositive best margin raises Infeasible with the
    value seen.
    """
    config = config or SearchConfig()
    if params.delta is None:
        raise CertificateError("delta is required for a feasibility search")
    observability = params.t_star is not None
    lo, hi, count = _chi_grid(params, config)
    if hi <= lo:
        raise Infeasible("empty chi range after the psi1 cut chi < k/(1+k^2 n) = %s"
                         % fmt_float(_chi_cut(params)))
    margin = config.margin
    tol = config.lambda_bisection_tol

    def scan(grid):
        # the worst-case margin at each chi of grid (np.where(x < w, x, w)
        # keeps w on ties, as min(w, x) does), then the first point that
        # strictly beats the best so far
        nonlocal best_w, best_i, best_chi, best_lams
        top2, lam1 = _best_multipliers(params, grid, tol, psi2_entries, "lambda1")
        bottom0, lam0 = _best_multipliers(params, grid, tol, phi0_entries, "lambda0",
                                          top=False)
        terms = [margin - top2, bottom0 - margin]
        lam2 = None
        if observability:
            topf, lam2 = _best_multipliers(params, grid, tol, phi_obs_entries,
                                           "lambda2")
            terms.append(-margin - topf)
        w = margin - psi1_value(params, grid)
        for x in terms:
            w = np.where(x < w, x, w)
        better = np.flatnonzero(w > best_w)
        if better.size:
            best_i = int(better[np.argmax(w[better])])
            best_w, best_chi = float(w[best_i]), float(grid[best_i])
            best_lams = [None if lam is None else float(lam[best_i])
                         for lam in (lam0, lam1, lam2)]

    grid = np.geomspace(lo, hi, count)
    best_w, best_i, best_chi, best_lams = -math.inf, 0, float(grid[0]), None
    scan(grid)
    for _ in range(config.refinement_rounds):
        a = grid[max(best_i - 1, 0)]
        b = grid[min(best_i + 1, len(grid) - 1)]
        if not b > a:
            break
        grid = np.geomspace(a, b, 40)
        best_i = int(np.argmin(np.abs(grid - best_chi)))
        scan(grid)
    if not best_w > 0.0:
        raise Infeasible("LMIs infeasible on the chi grid; best worst-case margin %s at chi=%s"
                         % (fmt_float(best_w), fmt_float(best_chi)))
    lam0, lam1, lam2 = best_lams
    vars = DecisionVars(chi=best_chi, lambda0=lam0, lambda1=lam1, lambda2=lam2)
    report = (check_observability if observability else check_stability)(
        params, vars, margin)
    if not report["feasible"]:
        raise Infeasible("scan optimum failed re-verification (margins: %s)"
                         % report["margins"])
    return vars


def maximize_regional_radius(params, config=None):
    """(d0, Certificate) with the largest certified regional radius (n = 1).

    For each delta: the smallest stabilizing chi and the minimal t_star give
    the corner point at which the radius formula is largest (it decreases in
    both chi and delta t_star); the best corner over the grid wins.
    """
    config = config or SearchConfig()
    if params.n != 1:
        raise CertificateError("the regional search is defined for n = 1")
    if params.d is None:
        raise CertificateError("d (the radius on which f is Lipschitz) is required")
    if params.delta is not None:
        deltas = [params.delta]
    else:
        lo, hi, count = config.delta_grid
        deltas = [float(x) for x in np.geomspace(lo, hi, count)]
    best = None
    reasons = []
    for delta in deltas:
        try:
            t, cmin, probe = _observation_window(params, config, delta)
        except Infeasible as exc:
            reasons.append(str(exc))
            continue
        if params.t_total is not None and params.t_total < t:
            reasons.append("t_total below minimal time %s at delta=%s"
                           % (fmt_float(t), fmt_float(delta)))
            continue
        if cmin >= 0.5:
            reasons.append("chi_min %s >= 1/2 at delta=%s"
                           % (fmt_float(cmin), fmt_float(delta)))
            continue
        pt = replace(params, delta=delta, t_star=t)
        rr = compute_regional_radius(pt, DecisionVars(chi=cmin))
        if best is None or rr.d0 > best[0]:
            best = (rr.d0, delta, t, cmin)
    if best is None:
        raise Infeasible("no delta admits a regional certificate; last reason: %s"
                         % (reasons[-1] if reasons else "empty delta grid"))
    d0, delta, t, cmin = best
    p_final = replace(params, delta=delta, t_star=t)
    tol = config.lambda_bisection_tol
    _, lam1 = _best_multiplier(p_final, cmin, tol, build_psi2, "lambda1")
    _, lam0 = _best_multiplier(p_final, cmin, tol, build_phi0, "lambda0", top=False)
    _, lam2 = _best_multiplier(p_final, cmin, tol, build_phi_obs, "lambda2")
    vars = DecisionVars(chi=cmin, lambda0=lam0, lambda1=lam1, lambda2=lam2)
    cert = make_certificate(p_final, vars, margin=config.margin)
    return d0, cert


def delta_margin(params, vars, config=None):
    """Largest delta0 <= delta with stability still feasible at delta + delta0.

    chi is held at the certified value and lambda1 is re-optimized; the
    result feeds the ISS recovery-continuity constant, where it plays the
    role of the spare decay rate.  Floored at 1e-12.
    """
    config = config or SearchConfig()
    if params.delta is None:
        raise CertificateError("delta is required")
    chi = vars.chi
    tol = config.lambda_bisection_tol

    def ok(extra):
        top, _ = _best_multiplier(replace(params, delta=params.delta + extra), chi, tol,
                                  build_psi2, "lambda1")
        return top <= config.margin

    if not ok(0.0):
        raise Infeasible("the supplied point is not stability-feasible at its own delta")
    if ok(params.delta):
        return params.delta
    lo_e, hi_e = 0.0, params.delta
    for _ in range(60):
        mid = 0.5 * (lo_e + hi_e)
        if ok(mid):
            lo_e = mid
        else:
            hi_e = mid
    return max(lo_e, 1e-12)


# ----------------------------------------------------------------------- sweep


@dataclass(frozen=True)
class SweepRow:
    """One problem's outcome: certificate when feasible, reason when not."""

    params: ProblemParams
    feasible: bool
    certificate: Certificate = None
    note: str = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    def __post_init__(self):
        rows = tuple(self.rows)
        if not rows:
            raise CertificateError("a sweep result needs at least one row")
        object.__setattr__(self, "rows", rows)

    def to_csv(self):
        lines = [CSV_HEADER]
        for row in self.rows:
            lines.append(",".join(_row_cells(row)))
        return "\n".join(lines) + "\n"

    def to_json(self):
        out = []
        for row in self.rows:
            entry = {"params": row.params.to_dict(), "feasible": row.feasible}
            if row.certificate is not None:
                entry["certificate"] = certificate_to_dict(row.certificate)
            if row.note is not None:
                entry["note"] = row.note
            out.append(entry)
        return json_dumps({"rows": out})


def _cell(value):
    return "" if value is None else fmt_float(value)


def _row_cells(row):
    p = row.certificate.params if row.certificate is not None else row.params
    v = row.certificate.vars if row.certificate is not None else None
    c = row.certificate
    return [
        str(p.n),
        fmt_float(p.k),
        fmt_float(p.g1),
        _cell(p.delta),
        _cell(p.t_star),
        _cell(v.chi if v else None),
        _cell(v.lambda0 if v else None),
        _cell(v.lambda1 if v else None),
        _cell(v.lambda2 if v else None),
        _cell(c.alpha if c else None),
        _cell(c.beta if c else None),
        _cell(c.d0 if c else None),
        "true" if row.feasible else "false",
    ]


def _sweep_one(item):
    params, config = item
    try:
        if params.t_star is not None:
            vars = find_feasible_vars(params, config)
            cert = make_certificate(params, vars, margin=config.margin)
            return SweepRow(params, True, cert)
        _, _, cert = minimal_observability_time(params, config)
        return SweepRow(params, True, cert)
    except Infeasible as exc:
        return SweepRow(params, False, None, str(exc))
    except Exception as exc:  # a bad row must not take the batch down
        return SweepRow(params, False, None, "error: %s" % exc)


def sweep(problems, config=None, worker_count=1):
    """Evaluate each problem independently; row order follows input order.

    Rows with t_star search decision variables at that fixed time; rows
    without run the minimal-time search.  worker_count only changes wall
    time, never results; the pool never exceeds the row count or the CPU
    count, because under the fork start method the executor starts all
    its workers up front.
    """
    problems = list(problems)
    if not problems:
        raise CertificateError("sweep needs at least one problem")
    config = config or SearchConfig()
    items = [(p, config) for p in problems]
    workers = min(worker_count, len(items), os.cpu_count() or 1)
    if workers <= 1:
        rows = [_sweep_one(item) for item in items]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, items))
    return SweepResult(tuple(rows))
