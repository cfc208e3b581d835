"""Feasibility search over the LMI decision variables.

Everything here is grid-plus-bisection on scalar spectral margins.  Each
lambda enters exactly one matrix affinely, so the lambdas that clear a
threshold form one interval, read off in closed form (_span).  Yes/no
questions answer with a witness multiplier from it (_witness).  Every
monotone search (chi_min, the minimal observation time, delta_margin)
bisects such questions with _bisect; the chi_min scan before its
bisection decides its "no" answers in closed form over the whole grid at
once and confirms each "yes" with the scalar witness.  Values come from
the same interval: the best margin of a multiplier is the threshold at
which the interval stops being empty, bisected for every LMI of a chi
scan and the whole grid at once, in one loop (_best_multipliers, for the
find_feasible_vars chi scan and the lambda_max a failed T_STAR_MAX probe
quotes), with no eigenvalue computed.  The chi scan prunes that loop by
branch and bound: after the steps in PRUNE_STEPS it drops every point
whose worst-case margin, bounded by the ends of its LMIs' bisections,
can no longer win, and the last point left finishes on floats.  Each
element left keeps its own midpoints, so every value, multiplier and
winning chi keeps its bits.
chi scans exploit the hard psi1 cut chi < k/(1 + k^2 n).  What no delta
moves is done once: the chi grid and phi0's part of the closed-form pass
are built once per n, grid and margin (_chi_points), a witness is checked
on its entries at 0 shifted to it (_shifted), and the points a delta loop
bisects over are made from checked params without checking them again
(_point).  All searches are deterministic: same inputs and config, same
outputs, regardless of worker count.  Each LMI's sense (which eigenvalue
decides, strictness, the margin's side) comes from certificates.LMIS.
The searches' settings (SearchConfig) and negative result (Infeasible)
are defined in certificates, which parses configs without numpy, and are
the same objects here.
"""

import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np

from .certificates import (
    PHI0,
    PHI_OBS,
    PI2,
    PSI1,
    PSI2,
    Certificate,
    CertificateError,
    DecisionVars,
    Infeasible,
    ProblemParams,
    SearchConfig,
    _wq,
    check_observability,
    check_stability,
    checked_float,
    checked_int,
    compute_regional_radius,
    fmt_float,
    make_certificate,
    psi1_value,
)
from .smallmat import extremes3

T_STAR_MAX = 200.0
# the search resolution, fixed: the chi scan runs CHI_COUNT log-spaced points
# from CHI_LO to just below the psi1 cut, and find_feasible_vars refines it
# REFINEMENT_ROUNDS times with REFINEMENT_COUNT points between the best
# point's neighbours; an unpinned delta runs over DELTA_GRID (lo, hi, count)
CHI_LO = 1e-4
CHI_COUNT = 400
REFINEMENT_ROUNDS = 3
REFINEMENT_COUNT = 40
# the bisection steps after which a chi scan drops the points that can no
# longer win; dropping at every step would cost as much as the steps save
PRUNE_STEPS = (6, 12, 24)
DELTA_GRID = (1e-4, 0.5, 30)

CSV_HEADER = "n,k,g1,delta,t_star,chi,lambda0,lambda1,lambda2,alpha,beta,d0,feasible"


def _bisect(ok, bad, good, tol=0.0):
    """The last end at which ok holds, bisecting from bad (ok false) to good.

    ok must be monotone between the two ends, which may come in either
    order.  Stops after 60 steps, once |good - bad| <= tol, or once no
    float lies strictly between the ends, so any tol ends the search.
    """
    for _ in range(60):
        if abs(good - bad) <= tol:
            break
        mid = 0.5 * (bad + good)
        if not min(bad, good) < mid < max(bad, good):
            break
        if ok(mid):
            good = mid
        else:
            bad = mid
    return good


def _point(params, **changes):
    """replace(params, **changes) without ProblemParams's checks, for the
    points a search makes from checked params: every change is None or a
    finite float that passes them, and none breaks t_total >= t_star."""
    point = object.__new__(ProblemParams)
    vars(point).update(vars(params), **changes)
    return point


# --------------------------------------------------------- multiplier searches


def _bracket(params, chi, name):
    """Search interval of one multiplier, for a float chi or elementwise.

    lambda1 must at least cancel the g1 (n-1) chi term of the (3,3) entry
    of the decay matrix and must not overfeed its (1,1) entry; a degenerate
    interval is widened.  lambda2's interval closes as t_star shrinks.  For
    an array chi, lambda1's ends are arrays and the others' the floats every
    element shares, which callers broadcast.
    """
    n = params.n
    if name == "lambda0":
        return 1e-12, PI2 * n / 8.0
    if name == "lambda1":
        lo = params.g1 * (n - 1) * chi
        hi = chi * PI2 * n / 4.0
        if type(chi) is float:
            if hi <= lo:
                hi = lo + max(1e-15, 1e-9 * max(lo, 1.0))
            return lo, hi
        return lo, np.where(hi <= lo, lo + np.maximum(1e-15, 1e-9 * np.maximum(lo, 1.0)), hi)
    es = math.exp(-2.0 * params.delta * params.t_star)
    return 1e-14, 0.5 * (1.0 - es) * PI2 * n / 4.0


def _products(r, v):
    # the products of _span_quadratic that neither s nor lam moves
    return r * r, v * v, r * v


def _span_quadratic(n0, wq, rr, vv, rv):
    # cap, W, K and the discriminant of _span's determinant, with rr, vv, rv
    # from _products, in operators only: for floats (with q > 0) and arrays
    # alike.  The span can be non-empty only where q > 0, W > 0, the
    # discriminant is > 0 and all are finite
    p, _, u, q, _, w = n0
    cap = (p - rr / q) / wq
    big_w = w + cap - vv / q
    d = u - rv / q
    k = d * d / wq
    return cap, big_w, k, big_w * big_w - 4.0 * k


def _span_roots(cap, big_w, k, disc, sqrt):
    # the uncut ends cap - t2 and cap - t1, with t1 = K / t2 free of
    # cancellation; sqrt is math.sqrt for floats, np.sqrt for arrays
    t2 = 0.5 * (big_w + sqrt(disc))
    return cap - t2, cap - k / t2


def _span(n0, wq, lo, hi, products=None):
    """(a, b) where n0 + lam diag(-wq, 0, 1) is positive definite, cut to [lo, hi].

    n0 is the upper triangle (p, r, u, q, v, w) of a symmetric 3x3 matrix
    and wq > 0.  By Sylvester's criterion the first two leading minors are
    positive iff q > 0 and lam < cap = (p - r^2/q) / wq; with t = cap - lam
    the determinant is the concave quadratic q wq (W t - t^2 - K), W and K
    in _span_quadratic, positive between its two roots in t.  The span is
    empty when not a < b.  A float lo gives floats, and None when an input
    is not finite.  An array lo gives arrays (a, b, exists), elementwise:
    exists is False where the span is empty or an input or intermediate is
    not finite, and a and b mean nothing there; the caller passes
    products = _products(r, v) and holds np.errstate(all="ignore").
    """
    p, r, u, q, v, w = n0
    if type(lo) is float:
        if not math.isfinite(p + r + u + q + v + w + lo + hi):
            return None
        if not q > 0.0:
            return lo, lo
        cap, big_w, k, disc = _span_quadratic(n0, wq, *_products(r, v))
        if not (big_w > 0.0 and disc > 0.0 and math.isfinite(cap + big_w + disc)):
            return lo, lo
        a, b = _span_roots(cap, big_w, k, disc, math.sqrt)
        return max(lo, a), min(hi, b)
    cap, big_w, k, disc = _span_quadratic(n0, wq, *products)
    a, b = _span_roots(cap, big_w, k, disc, np.sqrt)
    a, b = np.maximum(lo, a), np.minimum(hi, b)
    return a, b, ((q > 0.0) & (big_w > 0.0) & (disc > 0.0)
                  & np.isfinite(cap + big_w + disc) & (a < b))


def _clearing(params, chi, entries, name, s, top):
    # the entries at lam = 0, and the n0, lo and hi of the _span that clears
    # s: N(lam) = sign (s I - M(lam)) is positive definite iff M(lam) is
    # below s (top) or above it (not top); a float or an array chi
    sign = 1.0 if top else -1.0
    a = entries(params, chi, 0.0)
    a00, a01, a02, a11, a12, a22 = a
    n0 = (sign * (s - a00), -sign * a01, -sign * a02,
          sign * (s - a11), -sign * a12, sign * (s - a22))
    return (a, n0) + _bracket(params, chi, name)


def _witness(params, chi, lmi, margin):
    """A multiplier at which lmi holds at the margin, or None if there is none.

    lmi is unpacked once: the scans call this at every point and step.
    The multipliers that clear its threshold s form one interval, which
    _span reads off in closed form; its midpoint is the witness once
    extremes3 confirms it there, on the entries at 0 shifted to it
    (_shifted; rounding can leave a sliver of a span that is really
    empty).  A non-finite entry raises as in extremes3; an intermediate
    that overflows from finite entries answers None, a conservative no.
    """
    _, entries, name, top, strict, side = lmi
    s = side * margin
    chi = checked_float("chi", chi, 0.0)
    wq = _wq(params.n)
    a, n0, lo, hi = _clearing(params, chi, entries, name, s, top)
    span = _span(n0, wq, lo, hi)
    if span is None:
        extremes3(*a)  # raises on a non-finite entry
        return None
    if not span[0] < span[1]:
        return None
    lam = 0.5 * (span[0] + span[1])
    low, high = extremes3(*_shifted(a, lam if top else -lam, wq))
    slack = s - high if top else low - s
    return lam if (slack > 0.0 if strict else slack >= 0.0) else None


def _shifted(a, d, wq):
    """psi2's or phi_obs's (d = lam) or phi0's (d = -lam) entries a at 0,
    moved to lam: a + d diag(wq, 0, -1), with the bits of *_entries at lam.

    lam enters each formula once, added to a part p free of it; the other
    entries are the same expressions at every lam, and a float sum is the
    same in either order.  At 0 the (3,3) entry is p (psi2's -0.0 + p),
    -0.0 (phi_obs's -lam) or +0.0 (phi0's lam), and -0.0 - lam = -lam and
    0.0 + lam = lam.  The (1,1) entry is phi0's 0.5 - 0.0 = 0.5, or p + 0.0,
    which is p but at p = -0.0, where +0.0 + t = -0.0 + t for every t but
    -0.0.  Both hold for every lam >= +0.0: every bracket starts at +0.0 or
    above, so every span midpoint is such a lam.
    """
    a00, a01, a02, a11, a12, a22 = a
    return a00 + d * wq, a01, a02, a11, a12, a22 - d


def _best_multipliers(params, chi, lmis, alive=None):
    """[(decisive eigenvalues, multipliers)] at the best multiplier, per LMI.

    lmis lists LMIS records.  Each element of the array chi gets its own
    _bracket per LMI.  No eigenvalue is computed: the best value is the
    threshold s at which _span stops being empty, bisected for every LMI
    and chi in one array.  Each step is elementwise and only .any() ends a
    loop, so every element gets the bits it would get alone.  With sign -1
    where the smallest eigenvalue decides (not top), B(lam) = sign
    M(lam) = B(0) + lam diag(wq, 0, -1), so lambda_max(B) >= b11 for every
    lam and s = b11 is an infeasible end; a Gershgorin bound at the bracket
    midpoint, widened until the span is non-empty, is the feasible end.
    The bisection stops where no float lies strictly between the ends; the
    value is the feasible end and the multiplier the span midpoint there.
    An empty bracket, or a span that stays empty, reports an infinitely bad
    value at its lower end.

    alive, when given, prunes the chi points.  After each bisection step in
    PRUNE_STEPS, while two or more points are left, it is called as
    alive(points, worst, best): points holds the indices into chi of the
    points left, and worst and best hold, one row per LMI, the worst and
    the best value each of those points can still end at.  It returns True
    for the points to keep.  A point dropped reports the infinitely bad
    value of every LMI, with a NaN multiplier.  Once one point is left, its
    LMIs finish on floats through _span's float branch (_finish_on_floats),
    as does a one-point chi from the first step.  Every element left keeps
    its own sequence of midpoints, so its value and multiplier keep their
    bits.  Errors come in the order of lmis, as if each were searched alone:
    a non-finite entry raises ValueError and, as DecisionVars would, a
    multiplier that is not finite and > 0 at a point not dropped raises
    CertificateError.
    """
    signs = np.array([[1.0 if lmi.top else -1.0] for lmi in lmis])
    bounds, b = [], []
    for i, lmi in enumerate(lmis):
        x = np.broadcast_arrays(chi, *lmi.entries(params, chi, 0.0))[1:]
        if not all(np.all(np.isfinite(e)) for e in x):
            if i:
                _best_multipliers(params, chi, lmis[:i])  # the earlier errors first
            raise ValueError("non-finite matrix entry in the batch")
        bounds.append(np.broadcast_arrays(chi, *_bracket(params, chi, lmi.multiplier))[1:])
        b.append([signs[i, 0] * e for e in x])
    lo, hi = (np.concatenate(e) for e in zip(*bounds))
    b00, b01, b02, b11, b12, b22 = (np.concatenate(e) for e in zip(*b))
    r, u, v = -b01, -b02, -b12
    wq = _wq(params.n)
    m = len(chi)
    with np.errstate(all="ignore"):
        products = _products(r, v)

        def span(s):
            # where s I - B(lam) is positive definite
            return _span((s - b00, r, u, s - b11, v, s - b22), wq, lo, hi, products)

        def on_floats():
            # the one point left, finished on floats, or None
            return _finish_on_floats(wq, bad, good, lo, hi, b00, r, u, b11, v, b22, found)

        mid = 0.5 * (lo + hi)
        good = np.maximum(np.maximum(b00 + mid * wq + np.abs(b01) + np.abs(b02),
                                     b11 + np.abs(b01) + np.abs(b12)),
                          b22 - mid + np.abs(b02) + np.abs(b12))
        found = np.zeros(lo.shape, dtype=bool)
        for _ in range(60):
            found |= span(good)[2]
            widen = ~found & (lo < hi)
            if not widen.any():
                break
            np.copyto(good, good + np.maximum(good - b11, np.spacing(np.abs(good))),
                      where=widen)
        bad = np.where(found, b11, good)
        points, at = np.arange(m), np.arange(lo.size)
        finished = on_floats() if m == 1 else None
        steps = 0
        while finished is None:
            s = 0.5 * (bad + good)
            inner = (bad < s) & (s < good)
            if not inner.any():
                break
            yes = inner & span(s)[2]
            np.copyto(good, s, where=yes)
            np.copyto(bad, s, where=inner ^ yes)
            steps += 1
            if alive is None or steps not in PRUNE_STEPS or len(points) < 2:
                continue
            worst, best = (signs * np.where(found, e, math.inf).reshape(len(lmis), -1)
                           for e in (good, bad))
            keep = alive(points, worst, best)
            if keep.all():
                continue
            points = points[keep]
            keep = np.tile(keep, len(lmis))
            lo, hi, b00, r, u, b11, v, b22, bad, good, found, at = (
                e[keep] for e in (lo, hi, b00, r, u, b11, v, b22, bad, good, found, at))
            products = tuple(e[keep] for e in products)
            if len(points) == 1:
                finished = on_floats()
        if finished is None:
            a, z, _ = span(good)
            lam = np.where(found, 0.5 * (a + z), lo)
        else:
            good, lam = finished
    every = np.full(m * len(lmis), math.inf)
    every[at] = np.where(found, good, math.inf)
    multipliers = np.full(every.shape, math.nan)
    multipliers[at] = lam
    hits = np.zeros(every.shape, dtype=bool)
    hits[at] = found
    results = []
    for i, lmi in enumerate(lmis):
        part = slice(i * m, (i + 1) * m)
        hit, lams = hits[part], multipliers[part]
        if not np.all((lams[hit] > 0.0) & (lams[hit] < math.inf)):
            raise CertificateError("%s must be finite and > 0" % lmi.multiplier)
        results.append((signs[i, 0] * every[part], lams))
    return results


def _finish_on_floats(wq, bad, good, lo, hi, b00, r, u, b11, v, b22, found):
    """(good, lam) of _best_multipliers's last steps, on floats, or None.

    Each element of the arrays, which hold one chi point's LMIs, goes on
    from its ends with the same midpoints through _span's float branch,
    which decides as the array branch does wherever it decides at all;
    where its finiteness check on the sum of its inputs answers None, so
    does this, and the arrays finish from where they stood.
    """
    goods, lams = [], []
    for f, bd, gd, a, z, p, ri, ui, q, vi, w in zip(found, *(e.tolist() for e in (
            bad, good, lo, hi, b00, r, u, b11, v, b22))):
        if not f:
            goods.append(gd)
            lams.append(a)
            continue
        while True:
            s = 0.5 * (bd + gd)
            inner = bd < s < gd
            t = s if inner else gd
            ends = _span((t - p, ri, ui, t - q, vi, t - w), wq, a, z)
            if ends is None:
                return None
            if not inner:
                break
            if ends[0] < ends[1]:
                gd = s
            else:
                bd = s
        goods.append(gd)
        lams.append(0.5 * (ends[0] + ends[1]))
    return np.array(goods), np.array(lams)


# ------------------------------------------------------------- stability scan


def _chi_cut(params):
    return params.k / (1.0 + params.k * params.k * params.n)


def _chi_grid(params):
    """(lo, hi, count) of the chi scan, hi a relative 1e-9 below the psi1 cut.

    psi1 is affine and increasing in chi and vanishes at the cut, so it is
    negative, below every margin, at each grid point and at each chi a
    bisection takes between them: the scans never test it.
    """
    cut = _chi_cut(params)
    hi = cut * (1.0 - 1e-9)
    if hi <= CHI_LO:
        raise Infeasible("empty chi range after the psi1 cut chi < k/(1+k^2 n) = %s"
                         % fmt_float(cut))
    return CHI_LO, hi, CHI_COUNT


def _stability_feasible(params, chi, config):
    """Stability feasibility at one chi of the grid: a witness for psi2 and phi0."""
    return (_witness(params, chi, PSI2, config.margin) is not None
            and _witness(params, chi, PHI0, config.margin) is not None)


def _ruled_out(params, grid, lmi, margin):
    # (finite, empty) of one LMI on the array grid: where its _clearing
    # inputs are finite, and where its span clearing its threshold is empty
    with np.errstate(all="ignore"):
        _, n0, lo, hi = _clearing(params, grid, lmi.entries, lmi.multiplier,
                                  lmi.side * margin, lmi.top)
        lo, hi = np.broadcast_arrays(grid, lo, hi)[1:]
        p, r, u, q, v, w = n0
        return (np.isfinite(p + r + u + q + v + w + lo + hi),
                ~_span(n0, _wq(params.n), lo, hi, _products(r, v))[2])


# bounded: a sweep over many k would otherwise keep every grid it met
@lru_cache(maxsize=16)
def _chi_points(n, bounds, margin):
    """(grid, phi0_out): the chi scan's grid np.geomspace(*bounds) and where
    phi0 rules its points out, both read-only and shared by every caller.

    phi0 and its lambda0 bracket read only n of the params, so the pair
    does not depend on delta, k or g1 beyond the bounds.  A test
    that monkeypatches _span, _bracket, _clearing or PHI0 and then
    reaches a chi scan calls _chi_points.cache_clear() first.
    """
    grid = np.geomspace(*bounds)
    # k only completes the params: phi0 never reads it
    finite, empty = _ruled_out(ProblemParams(n=n, k=1.0), grid, PHI0, margin)
    out = finite & empty
    grid.flags.writeable = out.flags.writeable = False
    return grid, out


def _stability_ruled_out(params, bounds, margin):
    """(grid, out): the chi grid of bounds and where _stability_feasible is
    False on it, in closed form.

    A point is out, and its scalar test could not raise there, where
    psi2's inputs are finite and its span is empty, or where phi0's are
    finite too and its span is empty (_chi_points, once per n, bounds and
    margin).  (Where psi2's inputs are finite, its witness check cannot
    raise: the span midpoint lies in the finite bracket and keeps psi2's
    entries finite.)  The scalar test decides every other point.
    """
    grid, phi0_out = _chi_points(params.n, bounds, margin)
    finite, empty = _ruled_out(params, grid, PSI2, margin)
    return grid, finite & (empty | phi0_out)


def chi_min_stability(params, config=None):
    """Smallest chi certifying exponential stability at the given delta.

    Scans the log grid for the first feasible point, then bisects against
    the last infeasible one; the returned value is the feasible endpoint.
    The scan decides its "no" answers over the whole grid at once in closed
    form (_stability_ruled_out) and runs the scalar test, which confirms a
    "yes" with its witness, only at the points left, in grid order.
    """
    config = config or SearchConfig()
    if params.delta is None:
        raise CertificateError("delta is required for a stability search")
    lo, hi, _ = bounds = _chi_grid(params)
    grid, out = _stability_ruled_out(params, bounds, config.margin)
    found = prev = None
    for i in np.flatnonzero(~out):
        if _stability_feasible(params, float(grid[i]), config):
            found = float(grid[i])
            prev = float(grid[i - 1]) if i else None
            break
    if found is None:
        raise Infeasible("no chi on (%s, %s) certifies stability at delta=%s"
                         % (fmt_float(lo), fmt_float(hi), fmt_float(params.delta)))
    if prev is None:
        return found
    return _bisect(lambda chi: _stability_feasible(params, chi, config), prev, found)


# ------------------------------------------------------------ time bisection


def _observation_window(params, config, delta):
    """Minimal t_star at one delta, bisected at a fixed probe chi.

    The probe sits a hair above chi_min_stability: the observability matrix
    only gets harder as chi grows, so the smallest stabilizing chi is the
    most favorable admissible point and the probe inherits its feasibility
    threshold in t_star.  Returns (t_star, chi_min).
    """
    # delta is params' own or a grid point, each t_star in (0, T_STAR_MAX]
    p = _point(params, delta=delta, t_star=None, t_total=None)
    cmin = chi_min_stability(p, config)
    probe = min(cmin * (1.0 + 1e-5), 0.5 * (cmin + _chi_cut(p)))

    def observable(t_star):
        return _witness(_point(p, t_star=t_star), probe, PHI_OBS, config.margin) is not None

    def not_observable():
        # the value search on one element, which the delta loops would pay
        # at every failing delta if they did not report only the last
        [(top, _)] = _best_multipliers(_point(p, t_star=T_STAR_MAX), np.array([probe]),
                                       [PHI_OBS])
        return ("not observable within t_star <= %g at delta=%s (lambda_max(Phi)=%s)"
                % (T_STAR_MAX, fmt_float(delta), fmt_float(top[0])))

    if not observable(T_STAR_MAX):
        raise Infeasible(not_observable)
    return _bisect(observable, 0.0, T_STAR_MAX, config.tstar_tol), cmin


def _deltas(params):
    # a set delta pins a search to itself; otherwise the fixed grid
    if params.delta is not None:
        return [params.delta]
    return [float(x) for x in np.geomspace(*DELTA_GRID)]


def minimal_observability_time(params, config=None):
    """(t_star, delta, Certificate) minimizing t_star over the delta grid.

    A set params.delta pins the search to that single delta; otherwise
    DELTA_GRID is swept.  Among deltas whose minimal times agree within
    tstar_tol the largest delta wins (fastest certified contraction).
    """
    config = config or SearchConfig()
    if params.t_star is not None:
        raise CertificateError("t_star must be left unset for a minimal-time search")
    wins = []
    last = None
    for delta in _deltas(params):
        try:
            t, _ = _observation_window(params, config, delta)
            wins.append((t, delta))
        except Infeasible as exc:
            last = exc
    if not wins:
        raise Infeasible("no delta admits an observability certificate; last reason: %s"
                         % last)
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
    grid is evaluated in lockstep (one batched multiplier search for all
    its LMIs: psi2, phi0 and, in observability mode, phi_obs); the first
    point that strictly beats the best so far wins, as in a point-by-point
    scan.  The returned point re-passes its checks at the
    configured margin; a nonpositive best margin raises Infeasible with the
    value seen.
    """
    config = config or SearchConfig()
    if params.delta is None:
        raise CertificateError("delta is required for a feasibility search")
    observability = params.t_star is not None
    bounds = _chi_grid(params)
    margin = config.margin

    lmis = [PSI2, PHI0, PHI_OBS] if observability else [PSI2, PHI0]

    def terms(values):
        # each LMI's term of the worst-case margin: its slack
        return [lmi.slack(x, margin) for lmi, x in zip(lmis, values)]

    def scan(grid):
        # the worst-case margin at each chi of grid (np.where(x < w, x, w)
        # keeps w on ties, as min(w, x) does), then the first point that
        # strictly beats the best so far
        nonlocal best_w, best_i, best_chi, best_lams
        head = PSI1.slack(psi1_value(params, grid), margin)

        def alive(points, worst, best):
            # a point can still win while the best its margin can end at
            # is above best_w and not below the largest worst that any
            # point's can end at: strict, so that ties survive for the
            # first-index rule; a NaN bound compares false and survives
            low = reduce(np.minimum, terms(worst), head[points])
            high = reduce(np.minimum, terms(best), head[points])
            return ~((high <= best_w) | (high < np.fmax.reduce(low)))

        results = _best_multipliers(params, grid, lmis, alive)
        w = head
        for x in terms([values for values, _ in results]):
            w = np.where(x < w, x, w)
        better = np.flatnonzero(w > best_w)
        if better.size:
            best_i = int(better[np.argmax(w[better])])
            best_w, best_chi = float(w[best_i]), float(grid[best_i])
            best_lams = {lmi.multiplier: float(lams[best_i])
                         for lmi, (_, lams) in zip(lmis, results)}

    grid, _ = _chi_points(params.n, bounds, margin)
    best_w, best_i, best_chi, best_lams = -math.inf, 0, float(grid[0]), None
    scan(grid)
    for _ in range(REFINEMENT_ROUNDS):
        a = grid[max(best_i - 1, 0)]
        b = grid[min(best_i + 1, len(grid) - 1)]
        if not b > a:
            break
        grid = np.geomspace(a, b, REFINEMENT_COUNT)
        best_i = int(np.argmin(np.abs(grid - best_chi)))
        scan(grid)
    if not best_w > 0.0:
        raise Infeasible("LMIs infeasible on the chi grid; best worst-case margin %s at chi=%s"
                         % (fmt_float(best_w), fmt_float(best_chi)))
    vars = DecisionVars(chi=best_chi, **best_lams)
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
    best = last = None
    for delta in _deltas(params):
        try:
            t, cmin = _observation_window(params, config, delta)
        except Infeasible as exc:
            last = exc
            continue
        if params.t_total is not None and params.t_total < t:
            last = ("t_total below minimal time %s at delta=%s"
                    % (fmt_float(t), fmt_float(delta)))
            continue
        pt = _point(params, delta=delta, t_star=t)
        # cmin is at most the chi grid's top, below k/(1+k^2) <= 1/2 at n = 1
        rr = compute_regional_radius(pt, DecisionVars(chi=cmin))
        if best is None or rr.d0 > best[0]:
            best = (rr.d0, delta, t, cmin)
    if best is None:
        raise Infeasible("no delta admits a regional certificate; last reason: %s"
                         % last)
    d0, delta, t, cmin = best
    p_final = replace(params, delta=delta, t_star=t)
    # chi_min's last feasible bisection step decided psi2 and phi0 at these
    # very inputs; phi_obs was bisected at the probe, a hair above cmin
    lams = {lmi.multiplier: _witness(p_final, cmin, lmi, config.margin)
            for lmi in (PSI2, PHI0, PHI_OBS)}
    if lams["lambda2"] is None:
        raise Infeasible("phi_obs has no multiplier at chi=%s, t_star=%s, delta=%s"
                         % (fmt_float(cmin), fmt_float(t), fmt_float(delta)))
    vars = DecisionVars(chi=cmin, **lams)
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

    def ok(extra):
        return _witness(_point(params, delta=params.delta + extra), chi, PSI2,
                        config.margin) is not None

    if not ok(0.0):
        raise Infeasible("the supplied point is not stability-feasible at its own delta")
    # every delta tried from here lies in [delta, 2 delta]
    checked_float("delta", params.delta + params.delta, 0.0)
    if ok(params.delta):
        return params.delta
    return max(_bisect(ok, params.delta, 0.0), 1e-12)


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
    except (ValueError, RuntimeError) as exc:
        # the errors the CLI reports for a single problem: a bad row must
        # not take the batch down, but a bug elsewhere must not pass as one
        return SweepRow(params, False, None, "error: %s" % exc)


def sweep(problems, config=None, worker_count=1):
    """Evaluate each problem independently; row order follows input order.

    Rows with t_star search decision variables at that fixed time; rows
    without run the minimal-time search.  worker_count, an integer >= 1,
    only changes wall time, never results; the pool never exceeds the row
    count or the CPU count, because under the fork start method the
    executor starts all its workers up front.
    """
    worker_count = checked_int("worker_count", worker_count, 1)
    problems = list(problems)
    if not problems:
        raise CertificateError("sweep needs at least one problem")
    config = config or SearchConfig()
    items = [(p, config) for p in problems]
    workers = min(worker_count, len(items), os.cpu_count() or 1)
    if workers <= 1:
        rows = [_sweep_one(item) for item in items]
    else:
        # only a pool needs concurrent.futures, a sizeable part of start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, items))
    return SweepResult(tuple(rows))
