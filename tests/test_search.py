"""Tests for the feasibility searches, minimal-time bisection and sweeps.

The searches under test use only the package's own closed-form interval of
multipliers, bisections and Jacobi routines; everything here re-checks
their output against scipy's bounded minimizer and numpy's eigensolver,
against golden sections kept here as oracles of the searches they
replaced, and against hand-frozen reference values computed offline with an
independent implementation.
"""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg, optimize

from wavecert import search
from wavecert.certificates import (
    CertificateError,
    DecisionVars,
    ProblemParams,
    build_phi0,
    build_phi_obs,
    build_psi1,
    build_psi2,
    check_observability,
    check_stability,
    certificate_to_dict,
    compute_regional_radius,
    fmt_float,
    make_certificate,
    phi0_entries,
    phi_obs_entries,
    psi1_value,
    psi2_entries,
)
from wavecert.smallmat import eigenvalues, extremes3
from wavecert.search import (
    CSV_HEADER,
    Infeasible,
    SearchConfig,
    SweepResult,
    chi_min_stability,
    delta_margin,
    find_feasible_vars,
    maximize_regional_radius,
    minimal_observability_time,
    sweep,
)

PI2 = math.pi * math.pi


# ------------------------------------------------------------- scipy oracles


def psi2_np(n, k, g1, delta, chi, lam1):
    rn = math.sqrt(n)
    wq = 4.0 / (PI2 * n)
    return np.array(
        [
            [-chi + delta * (1.0 + chi * k * (n - 1)) + lam1 * wq,
             2.0 * delta * rn * chi, rn * g1 * chi],
            [2.0 * delta * rn * chi, -chi + delta, 0.5 * g1 + delta * (n - 1) * chi],
            [rn * g1 * chi, 0.5 * g1 + delta * (n - 1) * chi,
             -lam1 + g1 * (n - 1) * chi],
        ]
    )


def phi0_np(n, chi, lam0):
    rn = math.sqrt(n)
    wq = 4.0 / (PI2 * n)
    return np.array(
        [
            [0.5 - lam0 * wq, rn * chi, 0.0],
            [rn * chi, 0.5, (n - 1) * chi / 2.0],
            [0.0, (n - 1) * chi / 2.0, lam0],
        ]
    )


def phi_obs_np(n, delta, t_star, chi, lam2):
    es = math.exp(-2.0 * delta * t_star)
    a = 0.5 * (1.0 - es)
    rn = math.sqrt(n)
    wq = 4.0 / (PI2 * n)
    return np.array(
        [
            [-a + lam2 * wq, rn * (1.0 + es) * chi, 0.0],
            [rn * (1.0 + es) * chi, -a, 0.5 * (n - 1) * (1.0 + es) * chi],
            [0.0, 0.5 * (n - 1) * (1.0 + es) * chi, -lam2],
        ]
    )


def _scalar_min(f, lo, hi):
    res = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-13})
    return min(res.fun, f(lo), f(hi))


def stab_feasible_oracle(n, k, g1, delta, chi, margin=1e-9):
    if -k + (1.0 + k * k * n) * chi > margin:
        return False
    lo = max(g1 * (n - 1) * chi, 1e-15)
    hi = chi * PI2 * n / 4.0
    if hi <= lo:
        return False
    top = _scalar_min(
        lambda lam1: np.linalg.eigvalsh(psi2_np(n, k, g1, delta, chi, lam1))[-1],
        lo, hi)
    if top > margin:
        return False
    bottom = -_scalar_min(
        lambda lam0: -np.linalg.eigvalsh(phi0_np(n, chi, lam0))[0],
        1e-12, PI2 * n / 8.0)
    return bottom > margin


def chi_min_oracle(n, k, g1, delta, margin=1e-9):
    cut = k / (1.0 + k * k * n)
    grid = np.geomspace(1e-4, cut * (1.0 - 1e-9), 200)
    prev, found = None, None
    for x in grid:
        if stab_feasible_oracle(n, k, g1, delta, float(x), margin):
            found = float(x)
            break
        prev = float(x)
    assert found is not None
    if prev is None:
        return found
    a, b = prev, found
    for _ in range(45):
        mid = 0.5 * (a + b)
        if stab_feasible_oracle(n, k, g1, delta, mid, margin):
            b = mid
        else:
            a = mid
    return b


def obs_feasible_oracle(n, delta, t_star, chi, margin=1e-9):
    es = math.exp(-2.0 * delta * t_star)
    hi = 0.5 * (1.0 - es) * PI2 * n / 4.0
    if hi <= 1e-14:
        return False
    top = _scalar_min(
        lambda lam2: np.linalg.eigvalsh(phi_obs_np(n, delta, t_star, chi, lam2))[-1],
        1e-14, hi)
    return top < -margin


# --------------------------------------------------------------------- config


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert cfg.chi_grid is None
        assert cfg.delta_grid == (1e-4, 0.5, 30)
        assert cfg.refinement_rounds == 3
        assert cfg.tstar_tol == 1e-3

    def test_dict_round_trip(self):
        doc = {"chi_grid": [1e-3, 0.4, 50], "tstar_tol": 1e-2}
        back = SearchConfig.from_dict(json.loads(json.dumps(doc)))
        assert back == SearchConfig(chi_grid=(1e-3, 0.4, 50), tstar_tol=1e-2)

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(CertificateError, match="unknown"):
            SearchConfig.from_dict({"chi_gird": [1e-3, 0.4, 50]})

    @pytest.mark.parametrize("kw", [
        {"chi_grid": (0.4, 0.1, 10)},
        {"chi_grid": (0.0, 0.1, 10)},
        {"chi_grid": (1e-3, 0.1, 1)},
        {"chi_grid": (1e-3, 0.1, 2.5)},
        {"chi_grid": (1e-3, 0.1, True)},
        {"delta_grid": (1e-4,)},
        {"tstar_tol": 0.0},
        {"tstar_tol": -1e-3},
        {"refinement_rounds": -1},
        {"margin": math.nan},
        {"refinement_rounds": math.inf},
        {"margin": True},
        {"chi_grid": ("a", "b", 3)},
        {"tstar_tol": math.inf},
        {"margin": -1e-9},
        # a scan's arrays grow with the count: bounded before any is built
        {"chi_grid": (1e-3, 0.1, 10 ** 8)},
        {"delta_grid": (1e-4, 0.5, 10 ** 8)},
    ])
    def test_invalid_values_rejected(self, kw):
        with pytest.raises(CertificateError):
            SearchConfig(**kw)

    def test_grid_count_bound(self):
        assert SearchConfig(chi_grid=(1e-3, 0.1, 100000)).chi_grid[2] == 100000
        with pytest.raises(CertificateError, match=r"chi_grid count must be <= 100000"):
            SearchConfig(chi_grid=(1e-3, 0.1, 100001))


# ----------------------------------------------------------- stability search


class TestChiMinStability:
    def test_linear_1d_matches_closed_form(self):
        # for n=1, g1=0 the boundary is chi = delta / (1 - 2 delta)
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.001)
        c = chi_min_stability(p)
        assert c == pytest.approx(0.001 / 0.998, rel=1e-3)

    def test_reference_point(self):
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1)
        assert chi_min_stability(p) == pytest.approx(0.180345, rel=1e-4)

    @pytest.mark.parametrize("n,g1,delta", [
        (1, 0.0, 0.001), (1, 0.1, 0.1), (2, 0.1, 0.01), (3, 0.05, 0.02)])
    def test_agrees_with_scipy_oracle(self, n, g1, delta):
        p = ProblemParams(n=n, k=1.0, g1=g1, delta=delta)
        ours = chi_min_stability(p)
        ref = chi_min_oracle(n, 1.0, g1, delta)
        assert ours == pytest.approx(ref, rel=1e-3)

    def test_boundary_is_sharp(self):
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1)
        c = chi_min_stability(p)
        assert stab_feasible_oracle(1, 1.0, 0.1, 0.1, c * (1.0 + 1e-6))
        assert not stab_feasible_oracle(1, 1.0, 0.1, 0.1, c * (1.0 - 1e-3))

    def test_requires_delta(self):
        with pytest.raises(CertificateError, match="delta"):
            chi_min_stability(ProblemParams(n=1, k=1.0))

    def test_damping_weaker_than_decay_is_infeasible(self):
        # delta >= k/(1+k^2 n) leaves -chi + delta >= 0 on the diagonal
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.6)
        with pytest.raises(Infeasible, match="no chi"):
            chi_min_stability(p)

    def test_empty_range_reported(self):
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.01)
        cfg = SearchConfig(chi_grid=(0.6, 0.9, 10))
        with pytest.raises(Infeasible, match="empty chi range"):
            chi_min_stability(p, cfg)


# ----------------------------------------------------------- minimal-time


class TestMinimalTime:
    def test_two_dimensional_reference(self):
        p = ProblemParams(n=2, k=1.0, g1=0.0, delta=1e-4)
        t, delta, cert = minimal_observability_time(p)
        assert delta == 1e-4
        assert t == pytest.approx(3.28, rel=0.015)
        assert cert.params.t_star == t
        report = check_observability(cert.params, cert.vars)
        assert report["feasible"]

    def test_nonlinear_reference_row(self):
        p = ProblemParams(n=2, k=1.0, g1=0.1, delta=0.01)
        t, delta, cert = minimal_observability_time(p)
        assert t == pytest.approx(12.121, abs=0.05)

    def test_one_dimensional_sharp_limit(self):
        # as delta -> 0 the certified time approaches the analytic value 2
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.001)
        t, delta, cert = minimal_observability_time(p)
        assert 2.00 <= t <= 2.06

    def test_bisection_brackets_the_boundary(self):
        cfg = SearchConfig()
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.001)
        t, delta, cert = minimal_observability_time(p, cfg)
        from dataclasses import replace
        with pytest.raises(Infeasible):
            find_feasible_vars(replace(cert.params, t_star=t - 1.001 * cfg.tstar_tol), cfg)
        # the longer side is feasible by construction (the certificate exists)
        assert check_observability(cert.params, cert.vars)["feasible"]
        # the scipy oracle agrees on both sides at the probe chi
        cmin = chi_min_stability(ProblemParams(n=1, k=1.0, g1=0.0, delta=0.001), cfg)
        probe = cmin * (1.0 + 1e-5)
        assert obs_feasible_oracle(1, 0.001, t, probe)
        assert not obs_feasible_oracle(1, 0.001, t - 2.0 * cfg.tstar_tol, probe)

    def test_equal_times_prefer_larger_delta(self):
        # two tiny deltas give times equal within tolerance; the larger
        # delta must win the tie (faster certified contraction)
        cfg = SearchConfig(delta_grid=(1e-4, 2e-4, 2))
        p = ProblemParams(n=1, k=1.0, g1=0.0)
        t, delta, cert = minimal_observability_time(p, cfg)
        assert delta == pytest.approx(2e-4, rel=1e-12)

    def test_rejects_preset_t_star(self):
        p = ProblemParams(n=1, k=1.0, delta=0.01, t_star=3.0)
        with pytest.raises(CertificateError, match="t_star"):
            minimal_observability_time(p)

    def test_t_total_below_minimum_is_an_error(self):
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.001, t_total=1.5)
        with pytest.raises(CertificateError, match="t_total"):
            minimal_observability_time(p)

    def test_t_total_above_minimum_yields_q(self):
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.001, t_total=3.0)
        t, delta, cert = minimal_observability_time(p)
        assert cert.q == pytest.approx(math.exp(-4.0 * 0.001 * (3.0 - t)), rel=1e-12)

    def test_infeasible_delta_reported(self):
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.6)
        with pytest.raises(Infeasible, match="no delta"):
            minimal_observability_time(p)

    def test_stronger_damping_shortens_the_time(self):
        # sampled antitone property in k on [0.5, 1] for the linear 1-D case
        cfg = SearchConfig()
        times = []
        for k in (0.5, 0.75, 1.0):
            p = ProblemParams(n=1, k=k, g1=0.0, delta=0.01)
            t, _, _ = minimal_observability_time(p, cfg)
            times.append(t)
        assert times[0] + cfg.tstar_tol >= times[1]
        assert times[1] + cfg.tstar_tol >= times[2]


# ------------------------------------------------------------- variable search


class TestFindFeasibleVars:
    def test_stability_mode(self):
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.001)
        v = find_feasible_vars(p)
        assert v.lambda2 is None
        assert check_stability(p, v)["feasible"]
        assert 0.001 / 0.998 < v.chi < 0.5

    def test_observability_mode_margins(self):
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, t_star=3.9)
        v = find_feasible_vars(p)
        assert v.lambda2 is not None
        assert check_observability(p, v)["feasible"]
        # independent eigenvalue check of all three matrices at the optimum
        assert np.linalg.eigvalsh(psi2_np(1, 1.0, 0.1, 0.1, v.chi, v.lambda1))[-1] <= 1e-9
        assert np.linalg.eigvalsh(phi0_np(1, v.chi, v.lambda0))[0] > 1e-9
        assert np.linalg.eigvalsh(
            phi_obs_np(1, 0.1, 3.9, v.chi, v.lambda2))[-1] < -1e-9

    def test_time_too_short_is_infeasible(self):
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, t_star=3.7)
        with pytest.raises(Infeasible, match="margin"):
            find_feasible_vars(p)

    def test_strong_nonlinearity_infeasible(self):
        p = ProblemParams(n=1, k=1.0, g1=10.0, delta=0.1)
        with pytest.raises(Infeasible):
            find_feasible_vars(p)

    def test_requires_delta(self):
        with pytest.raises(CertificateError, match="delta"):
            find_feasible_vars(ProblemParams(n=1, k=1.0))

    def test_empty_grid_after_cut(self):
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.01)
        with pytest.raises(Infeasible, match="empty chi range"):
            find_feasible_vars(p, SearchConfig(chi_grid=(0.51, 0.9, 5)))

    def test_deterministic(self):
        p = ProblemParams(n=2, k=1.0, g1=0.1, delta=0.01)
        assert find_feasible_vars(p) == find_feasible_vars(p)


# ------------------------------------------------------- lockstep chi scan


def _same_bits(x, y):
    return np.array_equal(np.asarray(x, dtype=float).view(np.int64),
                          np.asarray(y, dtype=float).view(np.int64))


def best_one(params, chi, entries, name, top=True):
    """(values, multipliers) of _best_multipliers on the one LMI."""
    [result] = search._best_multipliers(params, chi, [(entries, name, top)])
    return result


def _diagonal(params, chi, lam):
    # M(lam) = diag(lam wq - 5, 0, -5 - lam): lambda_max is the decoupled 0
    # for every lam in the bracket, so the Gershgorin bound is the
    # infeasible end itself and must be widened
    zero = 0.0 * chi
    return (zero + lam * search._wq(params.n) - 5.0, zero, zero, zero, zero,
            zero - 5.0 - lam)


STABILITY = [(psi2_entries, "lambda1", True), (phi0_entries, "lambda0", False)]
OBSERVABILITY = STABILITY + [(phi_obs_entries, "lambda2", True)]


def _not_finite(params, chi, lam):
    return (math.nan * chi,) + (0.0 * chi,) * 5


def _assert_lockstep_bits(params, chi, lmis):
    """_best_multipliers over lmis, checked LMI by LMI against its own call
    and the float bisection; returns the combined result."""
    results = search._best_multipliers(params, chi, lmis)
    assert len(results) == len(lmis)
    for (values, lams), (entries, name, top) in zip(results, lmis):
        alone = best_one(params, chi, entries, name, top)
        assert _same_bits(values, alone[0]) and _same_bits(lams, alone[1])
        oracle = [point_best_multiplier(params, float(c), entries, name, top) for c in chi]
        assert _same_bits(values, [v for v, _ in oracle])
        assert _same_bits(lams, [lam for _, lam in oracle])
    return results


def point_best_multiplier(params, chi, entries, name, top=True):
    """(decisive eigenvalue, multiplier) at the best `name`, one chi at a time.

    The bisection of _best_multipliers written over floats and the float
    path of _span, kept as the oracle: the batched search must return the
    same bits for every element, whatever the other elements are.
    """
    lo, hi = search._bracket(params, chi, name)
    sign = 1.0 if top else -1.0
    if not hi > lo:
        return sign * math.inf, lo
    b00, b01, b02, b11, b12, b22 = (sign * x for x in entries(params, chi, 0.0))
    wq = 4.0 / (PI2 * params.n)

    def span(s):
        a, z = search._span((s - b00, -b01, -b02, s - b11, -b12, s - b22), wq, lo, hi)
        return 0.5 * (a + z) if a < z else None

    mid = 0.5 * (lo + hi)
    bad = b11
    good = max(max(b00 + mid * wq + abs(b01) + abs(b02), b11 + abs(b01) + abs(b12)),
               b22 - mid + abs(b02) + abs(b12))
    for _ in range(60):
        lam = span(good)
        if lam is not None:
            break
        good = good + max(good - bad, math.ulp(abs(good)))
    else:
        return sign * math.inf, lo
    while True:
        s = 0.5 * (bad + good)
        if not bad < s < good:
            break
        at = span(s)
        if at is None:
            bad = s
        else:
            good, lam = s, at
    if not 0.0 < lam < math.inf:
        raise CertificateError("%s must be finite and > 0" % name)
    return sign * good, lam


def point_loop_find_feasible_vars(params, config=None):
    """find_feasible_vars as a loop over single chi points.

    The scan before it ran in lockstep, kept as the oracle: the lockstep
    scan must return the same DecisionVars and raise the same messages.
    """
    config = config or SearchConfig()
    if params.delta is None:
        raise CertificateError("delta is required for a feasibility search")
    observability = params.t_star is not None
    lo, hi, count = search._chi_grid(params, config)
    if hi <= lo:
        raise Infeasible("empty chi range after the psi1 cut chi < k/(1+k^2 n) = %s"
                         % fmt_float(search._chi_cut(params)))
    margin = config.margin
    best = point_best_multiplier

    def worst(chi):
        w = margin - build_psi1(params, DecisionVars(chi=chi))
        top2, lam1 = best(params, chi, psi2_entries, "lambda1")
        w = min(w, margin - top2)
        bottom0, lam0 = best(params, chi, phi0_entries, "lambda0", top=False)
        w = min(w, bottom0 - margin)
        lam2 = None
        if observability:
            topf, lam2 = best(params, chi, phi_obs_entries, "lambda2")
            w = min(w, -margin - topf)
        return w, (lam0, lam1, lam2)

    grid = [float(x) for x in np.geomspace(lo, hi, count)]
    best_w, best_i, best_chi, best_lams = -math.inf, 0, grid[0], None
    for i, chi in enumerate(grid):
        w, lams = worst(chi)
        if w > best_w:
            best_w, best_i, best_chi, best_lams = w, i, chi, lams
    for _ in range(config.refinement_rounds):
        a = grid[max(best_i - 1, 0)]
        b = grid[min(best_i + 1, len(grid) - 1)]
        if not b > a:
            break
        grid = [float(x) for x in np.geomspace(a, b, 40)]
        best_i = min(range(len(grid)), key=lambda j: abs(grid[j] - best_chi))
        for i, chi in enumerate(grid):
            w, lams = worst(chi)
            if w > best_w:
                best_w, best_i, best_chi, best_lams = w, i, chi, lams
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


def _golden_min(f, lo, hi, tol=1e-12, iters=200):
    # the scalar golden section the package once used for every multiplier
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def build_path_best_multiplier(params, chi, tol, build, name, top=True):
    """(decisive eigenvalue, multiplier) at the best `name`, one chi at a time.

    The scalar multiplier search over DecisionVars, build_* and eigenvalues,
    kept as the oracle of the closed-form decisions: they must agree with
    it away from its tolerance.
    """
    lo, hi = search._bracket(params, chi, name)
    if hi <= lo:
        return (math.inf if top else -math.inf), lo

    def decisive(lam):
        eigs = eigenvalues(build(params, DecisionVars(chi=chi, **{name: lam})))
        return eigs[-1] if top else -eigs[0]

    lam = _golden_min(decisive, lo, hi, tol)
    value = decisive(lam)
    return (value if top else -value), lam


def golden_best_multiplier(params, chi, entries, name, top=True, tol=1e-9):
    """(decisive eigenvalue, multiplier) by the golden section the chi scan
    ran before its bisection, over extremes3: the never-worse oracle."""
    lo, hi = search._bracket(params, chi, name)
    if hi <= lo:
        return (math.inf if top else -math.inf), lo

    def decisive(lam):
        low, high = extremes3(*entries(params, chi, lam))
        return high if top else -low

    lam = _golden_min(decisive, lo, hi, tol)
    value = decisive(lam)
    return (value if top else -value), lam


def _ulps_apart(x, s, entries):
    # |x - s| in units of the last place of the matrix scale max(1, |M|_F),
    # the scale of the Jacobi kernel's own rounding
    scale = max(1.0, math.sqrt(sum(e * e for row in _full_rows(entries) for e in row)))
    return abs(x - s) / math.ulp(scale)


def _full_rows(entries):
    """Full 3x3 rows from an upper triangle (a00, a01, a02, a11, a12, a22)."""
    a00, a01, a02, a11, a12, a22 = (float(x) for x in entries)
    return [[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]]


def _outcome(fn, params, config):
    try:
        return fn(params, config)
    except (Infeasible, CertificateError) as exc:
        return type(exc), str(exc)


class TestLockstepScan:
    @pytest.mark.parametrize("params,entries,build,name,top", [
        (ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1), psi2_entries, build_psi2,
         "lambda1", True),
        # g1 (n - 1) >= pi^2 n / 4: every lambda1 interval is the widened one
        (ProblemParams(n=2, k=1.0, g1=5.0, delta=0.01), psi2_entries, build_psi2,
         "lambda1", True),
        (ProblemParams(n=3, k=1.0, g1=0.05, delta=0.02), phi0_entries, build_phi0,
         "lambda0", False),
        (ProblemParams(n=2, k=1.0, g1=0.3, delta=0.01, t_star=38.0), phi_obs_entries,
         build_phi_obs, "lambda2", True),
        # t_star so short that the lambda2 interval is empty
        (ProblemParams(n=1, k=1.0, g1=0.0, delta=1e-4, t_star=1e-12), phi_obs_entries,
         build_phi_obs, "lambda2", True),
    ])
    def test_multipliers_match_scalar_search(self, params, entries, build, name, top):
        # the bits of the float bisection at every element, and the value
        # a certificate check reads through build_* and eigenvalues at the
        # returned multiplier within a few ulps
        chi = np.geomspace(1e-3, 0.45, 25)
        if name == "lambda1" and params.g1 == 5.0:
            lo, hi = search._bracket(params, float(chi[0]), name)
            assert lo >= chi[0] * math.pi ** 2 * params.n / 4.0 and hi > lo
        values, lams = best_one(params, chi, entries, name, top)
        oracle = [point_best_multiplier(params, float(c), entries, name, top) for c in chi]
        assert _same_bits(values, [v for v, _ in oracle])
        assert _same_bits(lams, [lam for _, lam in oracle])
        if params.t_star == 1e-12:
            assert np.all(values == math.inf) and np.all(lams == 1e-14)
            return
        for c, value, lam in zip(chi, values, lams):
            vars = DecisionVars(chi=float(c), **{name: float(lam)})
            eigs = eigenvalues(build(params, vars))
            assert _ulps_apart(eigs[-1] if top else eigs[0], value,
                               entries(params, float(c), float(lam))) <= 8.0

    def test_bad_multiplier_or_entry_raises_as_before(self, monkeypatch):
        # an empty bracket reports an infinitely bad value at its lower end
        short = ProblemParams(n=1, k=1.0, g1=0.0, delta=1e-4, t_star=1e-12)
        values, lams = best_one(short, np.array([0.1, 0.2]), phi_obs_entries, "lambda2")
        assert np.all(values == math.inf) and np.all(lams == 1e-14)
        chi = np.array([0.1, 0.2])
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1)
        monkeypatch.setattr(search, "_bracket", lambda params, chi, name: (1.0, 0.5))
        values, lams = best_one(p, chi, phi0_entries, "lambda0", top=False)
        assert np.all(values == -math.inf) and np.all(lams == 1.0)
        # a multiplier that is not > 0, as DecisionVars would reject it
        monkeypatch.setattr(search, "_bracket", lambda params, chi, name: (-2.0, -1.0))
        with pytest.raises(CertificateError, match="lambda1"):
            best_one(p, chi, psi2_entries, "lambda1")
        monkeypatch.undo()
        # chi k overflows in the (1,1) entry of psi2
        huge = ProblemParams(n=2, k=1.7e308, g1=0.0, delta=0.5)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                best_one(huge, np.array([10.0]), psi2_entries, "lambda1")

    def test_a_tight_gershgorin_bound_is_widened(self, monkeypatch):
        # the Gershgorin bound of _diagonal must be widened; the best strict
        # bound is then the smallest positive float, at every lam of the
        # bracket
        params = ProblemParams(n=1, k=1.0)
        spans = []
        real = search._span
        monkeypatch.setattr(search, "_span",
                            lambda *args: spans.append(real(*args)) or spans[-1])
        values, lams = best_one(params, np.array([0.1, 0.2]), _diagonal, "lambda0")
        monkeypatch.undo()
        first = spans[0]
        assert not np.any(first[0] < first[1])
        lo, hi = search._bracket(params, 0.1, "lambda0")
        assert np.all(values == math.ulp(0.0)) and np.all(lams == 0.5 * (lo + hi))
        assert point_best_multiplier(params, 0.1, _diagonal, "lambda0") == (values[0], lams[0])

    @pytest.mark.parametrize("mode", ["stability", "observability"])
    @pytest.mark.parametrize("g1", [0.0, 0.1, 5.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_bisection_keeps_every_lmis_bits(self, n, g1, mode):
        # the lockstep over all LMIs of a scan returns, for each LMI, the
        # bits of its own call and of the float bisection
        params = ProblemParams(n=n, k=1.0, g1=g1, delta=0.01,
                               t_star=20.0 if mode == "observability" else None)
        chi = np.geomspace(1e-4, search._chi_cut(params) * (1.0 - 1e-9), 30)
        _assert_lockstep_bits(params, chi, STABILITY if mode == "stability"
                              else OBSERVABILITY)

    def test_one_bisection_keeps_empty_and_widened_brackets(self):
        # an empty lambda2 bracket reports inf beside finite psi2 and phi0
        # values; a widened Gershgorin bound keeps widening while the
        # elements of the other LMIs are found at the first try
        short = ProblemParams(n=1, k=1.0, g1=0.0, delta=1e-4, t_star=1e-12)
        chi = np.geomspace(1e-3, 0.45, 20)
        results = _assert_lockstep_bits(short, chi, OBSERVABILITY)
        assert np.all(results[2][0] == math.inf) and np.all(np.isfinite(results[0][0]))
        params = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1)
        lmis = [STABILITY[0], (_diagonal, "lambda0", True), STABILITY[1]]
        results = _assert_lockstep_bits(params, chi, lmis)
        assert np.all(results[1][0] == math.ulp(0.0))

    @pytest.mark.parametrize("overflow,bad,broken,raises,says", [
        # psi2's overflow comes before phi0's bad multiplier
        (True, "lambda0", False, ValueError, "non-finite matrix entry in the batch"),
        (False, "lambda1", False, CertificateError, "lambda1 must be finite and > 0"),
        # phi_obs's non-finite entries wait for psi2's check, which fails
        (False, "lambda1", True, CertificateError, "lambda1 must be finite and > 0"),
        (False, None, True, ValueError, "non-finite matrix entry in the batch"),
    ], ids=["psi2-non-finite", "bad-lambda1", "bad-lambda1-then-non-finite",
            "later-non-finite"])
    def test_errors_keep_the_sequential_order(self, overflow, bad, broken, raises, says,
                                              monkeypatch):
        params = ProblemParams(n=2, k=1.0, g1=0.1, delta=0.01, t_star=20.0)
        chi = np.array([0.1, 0.2])
        if overflow:
            # chi k overflows in the (1,1) entry of psi2 only
            params, chi = replace(params, k=1.7e308, delta=0.5), np.array([10.0])
        lmis = STABILITY + [(_not_finite if broken else phi_obs_entries, "lambda2", True)]
        real = search._bracket
        monkeypatch.setattr(search, "_bracket", lambda p, c, name:
                            (-2.0, -1.0) if name == bad else real(p, c, name))

        def raised(fn):
            with np.errstate(over="ignore"):
                with pytest.raises(raises) as info:
                    fn()
            return type(info.value), str(info.value)

        combined = raised(lambda: search._best_multipliers(params, chi, lmis))
        sequential = raised(lambda: [best_one(params, chi, *lmi) for lmi in lmis])
        assert combined == sequential == (raises, says)

    @pytest.mark.parametrize("params,config", [
        (ProblemParams(n=1, k=1.0, g1=0.0, delta=0.001),
         SearchConfig(chi_grid=(1e-3, 0.45, 60), refinement_rounds=2)),
        (ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, t_star=3.9),
         SearchConfig(refinement_rounds=0)),
        (ProblemParams(n=2, k=1.0, g1=0.3, delta=0.01, t_star=38.0),
         SearchConfig(chi_grid=(1e-3, 0.3, 40), refinement_rounds=1)),
        (ProblemParams(n=3, k=1.0, g1=0.05, delta=0.02),
         SearchConfig(chi_grid=(1e-3, 0.25, 30), refinement_rounds=3)),
        # infeasible: the best worst-case margin is reported
        (ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, t_star=3.7),
         SearchConfig(chi_grid=(1e-2, 0.45, 30), refinement_rounds=1)),
        (ProblemParams(n=2, k=1.0, g1=5.0, delta=0.01),
         SearchConfig(chi_grid=(1e-3, 0.3, 20), refinement_rounds=1)),
        # every lambda2 interval empty: the margin stays -inf
        (ProblemParams(n=1, k=1.0, g1=0.0, delta=1e-4, t_star=1e-12),
         SearchConfig(chi_grid=(1e-3, 0.45, 10), refinement_rounds=2)),
        (ProblemParams(n=1, k=1.0, g1=0.0, delta=0.01),
         SearchConfig(chi_grid=(0.51, 0.9, 5))),
        (ProblemParams(n=1, k=1.0), SearchConfig()),
    ])
    def test_find_feasible_vars_matches_point_loop(self, params, config):
        got = _outcome(find_feasible_vars, params, config)
        want = _outcome(point_loop_find_feasible_vars, params, config)
        assert got == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_scan_is_never_worse_than_the_golden_section(self, n):
        # at every chi of seeded problems: each LMI's value and the scan's
        # worst-case margin are at least the golden section's (less 1e-15),
        # and extremes3 at the returned multiplier reads the returned value
        # within a few ulps of the matrix scale
        rng = np.random.default_rng(40 + n)
        margin = SearchConfig().margin
        lmis = [(psi2_entries, "lambda1", True), (phi0_entries, "lambda0", False),
                (phi_obs_entries, "lambda2", True)]
        checked = 0
        for _ in range(2):
            params, _ = _random_problem(rng, n)
            chi = np.geomspace(1e-4, search._chi_cut(params) * (1.0 - 1e-9), 40)
            w_scan = margin - psi1_value(params, chi)
            w_gold = w_scan.copy()
            for entries, name, top in lmis:
                sign = 1.0 if top else -1.0
                threshold = -margin if name == "lambda2" else margin
                values, lams = best_one(params, chi, entries, name, top)
                golden = np.array([golden_best_multiplier(params, float(c), entries,
                                                          name, top)[0] for c in chi])
                assert np.all(sign * (values - golden) <= 1e-15)
                w_scan = np.minimum(w_scan, sign * (threshold - values))
                w_gold = np.minimum(w_gold, sign * (threshold - golden))
                for c, value, lam in zip(chi, values, lams):
                    if not math.isfinite(value):
                        continue
                    m = entries(params, float(c), float(lam))
                    low, high = extremes3(*m)
                    assert _ulps_apart(high if top else low, value, m) <= 8.0
                    checked += 1
            assert np.all(w_scan >= w_gold - 1e-15)
        assert checked >= 150

    def test_decisive_eigenvalues_agree_with_scipy_at_the_boundary(self):
        # points within +-10 margin (in the multiplier) of where each LMI's
        # decisive eigenvalue crosses its threshold, where verdicts can flip
        margin = 1e-9
        rng = np.random.default_rng(11)
        lmis = [(psi2_entries, "lambda1", lambda lo, hi: hi <= margin, -1, margin),
                (phi0_entries, "lambda0", lambda lo, hi: lo > margin, 0, margin),
                (phi_obs_entries, "lambda2", lambda lo, hi: hi < -margin, -1, -margin)]
        checked = 0
        verdicts = set()
        for entries, name, feasible, pick, threshold in lmis:
            for _ in range(30):
                n = int(rng.integers(1, 4))
                params = ProblemParams(n=n, k=1.0, g1=float(rng.uniform(0.0, 0.3)),
                                       delta=float(rng.uniform(1e-3, 0.1)),
                                       t_star=float(rng.uniform(1.0, 40.0)))
                chi = float(rng.uniform(0.01, 0.9 * search._chi_cut(params)))
                lo, hi = search._bracket(params, chi, name)
                if not hi > lo:
                    continue

                def g(lam):
                    m = np.array(_full_rows(entries(params, chi, lam)))
                    return linalg.eigvalsh(m)[pick] - threshold

                lams = np.linspace(lo, hi, 200)
                vals = np.array([g(lam) for lam in lams])
                for j in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
                    root = optimize.brentq(g, lams[j], lams[j + 1], xtol=1e-15)
                    for lam in root + 10.0 * margin * rng.uniform(-1.0, 1.0, 40):
                        low, high = extremes3(*entries(params, chi, float(lam)))
                        rows = np.array(_full_rows(entries(params, chi, float(lam))))
                        ref = linalg.eigvalsh(rows)
                        scale = max(1.0, np.linalg.norm(rows))
                        assert abs(low - ref[0]) <= 1e-10 * scale
                        assert abs(high - ref[-1]) <= 1e-10 * scale
                        ours = bool(feasible(low, high))
                        assert ours == bool(feasible(ref[0], ref[-1]))
                        verdicts.add(ours)
                        checked += 1
        assert checked >= 1000
        assert verdicts == {True, False}


# ------------------------------------------------------ closed-form decisions
# the searches before the closed form, kept as the oracle: the prefilter,
# the two lambda0 candidates, a golden section for every decision and the
# full 60-step bisections.  The golden section's value lies up to tol / 2
# above the optimum, so the oracle answers no near the boundary where the
# closed form answers yes; the searches must land within O(tol) of it


def head_stability_feasible(params, chi, config, tol):
    margin = config.margin
    slack = margin + 1e-9
    n, k, g1, delta = params.n, params.k, params.g1, params.delta
    if psi1_value(params, chi) > margin:
        return False
    if chi < delta - slack:
        return False
    lam1_floor = max(0.0, g1 * (n - 1) * chi - slack)
    wq = 4.0 / (PI2 * n)
    if -chi + delta * (1.0 + chi * k * (n - 1)) + lam1_floor * wq > slack:
        return False
    if n == 1:
        u = chi - delta + slack
        if u < 0.0 or u * u * PI2 / 4.0 + u * slack < g1 * g1 / 4.0 - 1e-15:
            return False
    top, _ = build_path_best_multiplier(params, chi, tol, build_psi2, "lambda1")
    if not top <= margin:
        return False
    for lam0 in (max(4.0 * margin, 1e-6), 0.3 * PI2 * params.n / 8.0):
        if search.extremes3(*phi0_entries(params, chi, lam0))[0] > margin:
            return True
    bottom, _ = build_path_best_multiplier(params, chi, tol, build_phi0, "lambda0",
                                           top=False)
    return bottom > margin


def head_chi_min_stability(params, config, tol):
    lo, hi, count = search._chi_grid(params, config)
    if hi <= lo:
        raise Infeasible("empty chi range after the psi1 cut chi < k/(1+k^2 n) = %s"
                         % fmt_float(search._chi_cut(params)))
    found = None
    prev = None
    for x in np.geomspace(lo, hi, count):
        chi = float(x)
        if head_stability_feasible(params, chi, config, tol):
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
        if head_stability_feasible(params, mid, config, tol):
            b = mid
        else:
            a = mid
    return b


def head_observation_window(params, config, delta, tol):
    p = replace(params, delta=delta, t_star=None, t_total=None)
    cmin = head_chi_min_stability(p, config, tol)
    probe = min(cmin * (1.0 + 1e-5), 0.5 * (cmin + search._chi_cut(p)))

    def top_at(t):
        return build_path_best_multiplier(replace(p, t_star=t), probe, tol, build_phi_obs,
                                          "lambda2")[0]

    top = top_at(search.T_STAR_MAX)
    if not top < -config.margin:
        raise Infeasible(
            "not observable within t_star <= %g at delta=%s (lambda_max(Phi)=%s)"
            % (search.T_STAR_MAX, fmt_float(delta), fmt_float(top)))
    lo_t, hi_t = 0.0, search.T_STAR_MAX
    while hi_t - lo_t > config.tstar_tol:
        mid = 0.5 * (lo_t + hi_t)
        if top_at(mid) < -config.margin:
            hi_t = mid
        else:
            lo_t = mid
    return hi_t, cmin


def head_delta_margin(params, vars, config, tol):
    chi = vars.chi

    def ok(extra):
        top, _ = build_path_best_multiplier(replace(params, delta=params.delta + extra), chi,
                                            tol, build_psi2, "lambda1")
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


def _repr_outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (Infeasible, CertificateError) as exc:
        return type(exc), str(exc)


_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\d+)(?:e[-+]?\d+)?")


def _numeric_outcome(fn, *args):
    """fn's result as a tuple of floats, or its exception type and text."""
    try:
        out = fn(*args)
    except (Infeasible, CertificateError) as exc:
        return type(exc), str(exc)
    return tuple(map(float, out if isinstance(out, tuple) else (out,)))


def _relative_gap(got, want):
    """Largest relative difference between the numbers of two _numeric_outcome
    results, which must otherwise agree: the same exception type and text
    around its numbers, or results of the same length."""
    if isinstance(want[0], type):
        assert got[0] is want[0] and _NUMBER.sub("#", got[1]) == _NUMBER.sub("#", want[1])
        got, want = (tuple(map(float, _NUMBER.findall(x[1]))) for x in (got, want))
    else:
        assert not isinstance(got[0], type) and len(got) == len(want)
    return max((abs(g - w) / max(abs(w), 1e-300) for g, w in zip(got, want)),
               default=0.0)


def _clears(value, s, top, strict):
    # value is the decisive eigenvalue: the largest (top) or the smallest
    if not top:
        return value > s
    return value < s if strict else value <= s


# entries, builder, multiplier, top, strict: the three decisions the
# searches make
DECISIONS = [(psi2_entries, build_psi2, "lambda1", True, False),
             (phi0_entries, build_phi0, "lambda0", False, True),
             (phi_obs_entries, build_phi_obs, "lambda2", True, True)]


def _random_problem(rng, n):
    g1 = 5.0 if rng.uniform() < 0.1 else float(rng.uniform(0.0, 0.5))
    params = ProblemParams(n=n, k=float(rng.uniform(0.3, 2.0)), g1=g1,
                           delta=float(10.0 ** rng.uniform(-4.0, -0.3)),
                           t_star=float(rng.uniform(0.1, 60.0)))
    chi = float(10.0 ** rng.uniform(-4.0, 0.0) * search._chi_cut(params))
    return params, chi


class TestClosedFormDecisions:
    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
    def test_agrees_with_the_golden_section(self, tol, monkeypatch):
        # s at +-{0.9, 1, 1.1, 1.5, 2, 3} eps from the golden value, which
        # lies at most tol / 2 above the optimum: from 1.5 eps out the two
        # agree; at every s a witness lies in the bracket and clears s, and
        # no decision runs the value search
        rng = np.random.default_rng(int(-math.log10(tol)))
        eps = max(tol, 1e-8)
        value_calls = []
        best = search._best_multipliers

        def counted(*args, **kw):
            value_calls.append(args)
            return best(*args, **kw)

        monkeypatch.setattr(search, "_best_multipliers", counted)
        outside = witnessed = 0
        for n in (1, 2, 3, 4):
            for entries, build, name, top, strict in DECISIONS:
                for _ in range(6):
                    params, chi = _random_problem(rng, n)
                    value = build_path_best_multiplier(params, chi, tol, build, name, top)[0]
                    lo, hi = search._bracket(params, chi, name)
                    for f in (0.9, 1.0, 1.1, 1.5, 2.0, 3.0):
                        for side in (-1.0, 1.0):
                            s = value + side * f * eps
                            lam = search._witness(params, chi, entries, name, s,
                                                  top, strict)
                            if lam is not None:
                                assert lo <= lam <= hi
                                low, high = search.extremes3(*entries(params, chi, lam))
                                assert _clears(high if top else low, s, top, strict)
                                witnessed += 1
                            if f >= 1.5:
                                assert (lam is not None) == _clears(value, s, top, strict), \
                                    (params, chi, name, s)
                                outside += 1
        assert not value_calls
        assert outside == 4 * 3 * 6 * 3 * 2
        assert witnessed >= 0.4 * outside

    def test_rounding_sliver_is_not_feasible(self):
        # n = 1: the determinant has the second leading minor as a factor,
        # so an expanded quadratic's root meets the cap up to rounding and
        # can leave a sliver of a span that is really empty
        params = ProblemParams(n=1, k=0.4607879839559085, g1=0.09510413139896456,
                               delta=0.12104731253124086, t_star=1.9019470945648353)
        chi, tol = 0.08180788182923945, 1e-3
        value = build_path_best_multiplier(params, chi, tol, build_phi_obs, "lambda2")[0]
        s = value - 0.004
        assert search._witness(params, chi, phi_obs_entries, "lambda2", s,
                               strict=True) is None
        assert search._witness(params, chi, phi_obs_entries, "lambda2", value + 0.004,
                               strict=True) is not None

    def test_bad_input_raises_as_the_golden_section_does(self):
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1)
        for chi_bad in (-0.1, math.nan, math.inf):
            with pytest.raises(CertificateError, match="chi"):
                search._witness(p, chi_bad, psi2_entries, "lambda1", 1e-9)
        huge = ProblemParams(n=2, k=1.7e308, g1=0.0, delta=0.5)
        with pytest.raises(ValueError, match="non-finite"):
            search._witness(huge, 10.0, psi2_entries, "lambda1", 1e-9)
        # an empty lambda2 interval: the golden value is inf, never below s
        short = ProblemParams(n=1, k=1.0, g1=0.0, delta=1e-4, t_star=1e-12)
        assert search._witness(short, 0.1, phi_obs_entries, "lambda2", 1e300) is None

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3, 1e-2])
    def test_searches_keep_their_bits(self, tol):
        # within relative 4 tol of the golden-section oracle (an intended
        # output change: the largest gaps seen are in CHANGES.md)
        rng = np.random.default_rng(100 + int(-math.log10(tol)))
        config = SearchConfig(tstar_tol=1e-2)
        bound = 4.0 * tol + 1e-15
        margin = config.margin
        for n in (1, 2, 3):
            problems = [ProblemParams(n=n, k=float(rng.uniform(0.5, 2.0)),
                                      g1=float(rng.uniform(0.0, 0.3)))
                        for _ in range(2)]
            for params in problems:
                cut = search._chi_cut(params)
                # the last delta leaves -chi + delta >= 0: infeasible
                for delta in (float(10.0 ** rng.uniform(-3.0, -1.0)) * cut, 1.01 * cut):
                    p = ProblemParams(n=n, k=params.k, g1=params.g1, delta=delta)
                    cmin = _numeric_outcome(chi_min_stability, p, config)
                    assert _relative_gap(
                        cmin,
                        _numeric_outcome(head_chi_min_stability, p, config, tol)) <= bound
                    assert _relative_gap(
                        _numeric_outcome(search._observation_window, params, config, delta),
                        _numeric_outcome(head_observation_window, params, config, delta,
                                         tol)) <= bound
                    if isinstance(cmin[0], type):
                        continue
                    cmin = cmin[0]
                    assert search._witness(p, cmin, psi2_entries, "lambda1",
                                           margin) is not None
                    assert search._witness(p, cmin, phi0_entries, "lambda0", margin,
                                           top=False) is not None
                    for chi in (cmin, cmin * (1.0 - 1e-3), 0.5 * (cmin + cut)):
                        v = DecisionVars(chi=chi)
                        got = _numeric_outcome(delta_margin, p, v, config)
                        want = _numeric_outcome(head_delta_margin, p, v, config, tol)
                        if chi == cmin:
                            # chi_min is stability-feasible at its own delta;
                            # the oracle can say no on that boundary
                            assert not isinstance(got[0], type)
                            if isinstance(want[0], type):
                                continue
                        assert _relative_gap(got, want) <= bound

    @pytest.mark.parametrize("params", [
        ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1),
        ProblemParams(n=2, k=1.0, g1=0.3, delta=0.01),
        ProblemParams(n=1, k=1.0, g1=5.0, delta=0.4),
    ])
    def test_pinned_minimal_time_keeps_its_bits(self, params, monkeypatch):
        def certified(p):
            t, delta, cert = minimal_observability_time(p)
            return t, delta, certificate_to_dict(cert)

        got = _repr_outcome(certified, params)
        monkeypatch.setattr(search, "_observation_window",
                            lambda p, config, delta:
                            head_observation_window(p, config, delta, 1e-9))
        assert got == _repr_outcome(certified, params)


# ------------------------------------------------------------------- regional


class TestMaximizeRegionalRadius:
    def test_first_reference_case(self):
        cfg = SearchConfig(delta_grid=(0.005, 0.1, 8))
        p = ProblemParams(n=1, k=1.0, g1=0.1, d=1.0)
        d0, cert = maximize_regional_radius(p, cfg)
        assert 0.23 <= d0 <= 0.5
        # the certificate reproduces the radius exactly from its own fields
        assert compute_regional_radius(cert.params, cert.vars).d0 == d0
        assert cert.d0 == d0
        make_certificate(cert.params, cert.vars)  # must not raise

    def test_second_reference_case(self):
        cfg = SearchConfig(delta_grid=(0.01, 0.12, 8))
        p = ProblemParams(n=1, k=1.0, g1=0.2, d=1.0)
        d0, cert = maximize_regional_radius(p, cfg)
        assert 0.18 <= d0 <= 0.5

    def test_pinned_delta_reproduces_reference_radius(self):
        # at delta = 0.1 the corner point lands near the hand-worked value
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, d=1.0)
        d0, cert = maximize_regional_radius(p)
        assert d0 == pytest.approx(0.2348, abs=2e-3)
        assert cert.params.delta == 0.1

    def test_certificate_built_from_witnesses(self):
        # g1 of a perturbed benchmark config: chi_min lands on the exact
        # psi2 boundary, where a golden-section lambda1 up to tol / 2 off
        # the optimum fails psi2 and no certificate could be emitted
        p = ProblemParams(n=1, k=1.0, g1=0.101824137087557, d=1.0)
        d0, cert = maximize_regional_radius(p, SearchConfig(tstar_tol=0.01))
        assert make_certificate(cert.params, cert.vars).d0 == d0 == cert.d0

    def test_unreported_probe_failures_run_no_golden_section(self, monkeypatch):
        # the two lowest deltas fail the T_STAR_MAX probe; only a reported
        # failure pays the bisection behind its lambda_max
        calls = []
        best = search._best_multipliers
        monkeypatch.setattr(search, "_best_multipliers",
                            lambda *a, **kw: calls.append(a) or best(*a, **kw))
        failures = []
        window = search._observation_window

        def counted(*args):
            try:
                return window(*args)
            except Infeasible as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(search, "_observation_window", counted)
        cfg = SearchConfig(delta_grid=(1e-4, 1e-3, 4), tstar_tol=0.01)
        maximize_regional_radius(ProblemParams(n=1, k=1.0, g1=0.1, d=1.0), cfg)
        assert len(failures) == 2 and not calls
        assert "lambda_max(Phi)=" in str(failures[-1]) and len(calls) == 1

    def test_preconditions(self):
        with pytest.raises(CertificateError, match="n = 1"):
            maximize_regional_radius(ProblemParams(n=2, k=1.0, g1=0.1, d=1.0))
        with pytest.raises(CertificateError, match="d "):
            maximize_regional_radius(ProblemParams(n=1, k=1.0, g1=0.1))


# --------------------------------------------------------------- delta margin


class TestDeltaMargin:
    def test_reference_point_two_sided(self):
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1)
        v = DecisionVars(chi=0.18035, lambda1=0.09470606)
        extra = delta_margin(p, v)
        assert 0.0 < extra <= 0.1
        assert stab_feasible_oracle(1, 1.0, 0.1, 0.1 + 0.99 * extra, 0.18035)
        if 1.02 * extra <= 0.1:
            assert not stab_feasible_oracle(1, 1.0, 0.1, 0.1 + 1.02 * extra, 0.18035)

    def test_infeasible_point_raises(self):
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1)
        with pytest.raises(Infeasible):
            delta_margin(p, DecisionVars(chi=0.1803, lambda1=0.09470606))

    def test_robust_point_saturates_at_delta(self):
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.001)
        v = DecisionVars(chi=0.3, lambda1=0.3)
        assert delta_margin(p, v) == 0.001


# ----------------------------------------------------------------------- sweep


def _sweep_problems():
    return [
        ProblemParams(n=1, k=1.0, g1=0.0, delta=0.05),
        ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, t_star=3.9),
        ProblemParams(n=1, k=1.0, g1=10.0, delta=0.1),
    ]


class TestSweep:
    def test_rows_follow_input_order(self):
        problems = _sweep_problems()
        result = sweep(problems)
        assert [r.params for r in result.rows] == problems
        assert [r.feasible for r in result.rows] == [True, True, False]
        assert result.rows[2].certificate is None
        assert result.rows[2].note
        # the fixed-time row certifies at exactly the requested t_star
        assert result.rows[1].certificate.params.t_star == 3.9

    def test_csv_shape(self):
        result = sweep(_sweep_problems())
        text = result.to_csv()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER == ("n,k,g1,delta,t_star,chi,lambda0,lambda1,lambda2,"
                              "alpha,beta,d0,feasible")
        assert len(lines) == 4
        assert text.endswith("\n")
        cells = lines[3].split(",")
        assert cells[0] == "1" and cells[-1] == "false"
        assert cells[5] == "" and cells[9] == ""  # chi, alpha empty
        good = lines[1].split(",")
        cert = result.rows[0].certificate
        assert float(good[4]) == cert.params.t_star
        assert float(good[5]) == cert.vars.chi
        assert float(good[9]) == cert.alpha

    def test_single_row_equals_minimal_time(self):
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.05)
        result = sweep([p])
        _, _, cert = minimal_observability_time(p)
        assert certificate_to_dict(result.rows[0].certificate) == certificate_to_dict(cert)

    def test_worker_count_does_not_change_bytes(self):
        problems = [
            ProblemParams(n=1, k=1.0, g1=0.0, delta=0.05),
            ProblemParams(n=1, k=1.0, g1=10.0, delta=0.1),
        ]
        serial = sweep(problems, worker_count=1).to_csv()
        parallel = sweep(problems, worker_count=2).to_csv()
        assert serial == parallel

    @pytest.mark.parametrize("jobs,cpus,rows,workers", [
        (1000, 64, 3, [3]),   # never more workers than rows
        (1000, 2, 3, [2]),    # nor more than CPUs
        (8, 64, 1, []),       # one row runs in process
        (2, None, 3, []),     # an unknown CPU count counts as one
    ])
    def test_pool_size_is_clamped(self, monkeypatch, jobs, cpus, rows, workers):
        # a stand-in executor records its size and maps in process, so the
        # test starts no worker whatever jobs asks for
        seen = []

        class FakePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(search, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
        # delta above the psi1 cut k/(1+k^2) = 1/2: each row fails fast
        problems = [ProblemParams(n=1, k=1.0, delta=0.6)] * rows
        result = sweep(problems, worker_count=jobs)
        assert seen == workers
        assert len(result.rows) == rows

    def test_row_errors_are_recorded_not_raised(self):
        p = ProblemParams(n=1, k=1.0, t_star=2.0)  # no delta: row-level error
        result = sweep([p])
        assert not result.rows[0].feasible
        assert "error" in result.rows[0].note

    def test_empty_input_rejected(self):
        with pytest.raises(CertificateError):
            sweep([])
        with pytest.raises(CertificateError):
            SweepResult(())
