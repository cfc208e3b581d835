"""Tests for the feasibility searches, minimal-time bisection and sweeps.

The searches under test only ever use the package's own golden-section and
Jacobi routines; everything here re-checks their output against scipy's
bounded minimizer and numpy's eigensolver, plus hand-frozen reference values
computed offline with an independent implementation.
"""

import json
import math

import numpy as np
import pytest
from scipy import linalg, optimize

from wavecert import search
from wavecert.certificates import (
    CertificateError,
    DecisionVars,
    ProblemParams,
    _golden_min,
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
    psi2_entries,
)
from wavecert.smallmat import extreme_eigenvalues
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
        cfg = SearchConfig(chi_grid=(1e-3, 0.4, 50), tstar_tol=1e-2)
        back = SearchConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg

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
        {"lambda_bisection_tol": 0.0},
        {"tstar_tol": -1e-3},
        {"refinement_rounds": -1},
        {"margin": math.nan},
        {"refinement_rounds": math.inf},
        {"margin": True},
        {"chi_grid": ("a", "b", 3)},
    ])
    def test_invalid_values_rejected(self, kw):
        with pytest.raises(CertificateError):
            SearchConfig(**kw)


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
    tol = config.lambda_bisection_tol
    best = search._best_multiplier

    def worst(chi):
        w = margin - build_psi1(params, DecisionVars(chi=chi))
        top2, lam1 = best(params, chi, tol, build_psi2, "lambda1")
        w = min(w, margin - top2)
        bottom0, lam0 = best(params, chi, tol, build_phi0, "lambda0", top=False)
        w = min(w, bottom0 - margin)
        lam2 = None
        if observability:
            topf, lam2 = best(params, chi, tol, build_phi_obs, "lambda2")
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
    def test_golden_lockstep_matches_golden_min(self):
        rng = np.random.default_rng(3)
        size = 200
        lo = rng.uniform(-2.0, 1.0, size)
        hi = lo + 10.0 ** rng.uniform(-7.0, 1.0, size)  # different iteration counts
        lo[:3], hi[:3] = 0.0, 1e-9  # b - a == tol: one step, then stop
        center = rng.uniform(-3.0, 3.0, size)
        power = rng.uniform(0.5, 3.0, size)

        def f(rows, x):
            return np.abs(x - center[rows]) ** power[rows] - 0.1 * x

        for tol, iters in [(1e-9, 200), (1e-300, 200), (1e-9, 7)]:
            got = search._golden_lockstep(f, lo, hi, tol, iters)
            want = [_golden_min(lambda x, i=i: float(f(np.array([i]), np.array([x]))[0]),
                                float(lo[i]), float(hi[i]), tol, iters)
                    for i in range(size)]
            assert _same_bits(got, want)

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
        chi = np.geomspace(1e-3, 0.45, 25)
        if name == "lambda1" and params.g1 == 5.0:
            lo, hi = search._bracket(params, float(chi[0]), name)
            assert lo >= chi[0] * math.pi ** 2 * params.n / 4.0 and hi > lo
        values, lams = search._best_multipliers(params, chi, 1e-9, entries, name, top)
        want = [search._best_multiplier(params, float(c), 1e-9, build, name, top)
                for c in chi]
        assert _same_bits(values, [v for v, _ in want])
        assert _same_bits(lams, [lam for _, lam in want])
        if params.t_star == 1e-12:
            assert np.all(values == math.inf) and np.all(lams == 1e-14)

    def test_bad_multiplier_or_entry_raises_as_before(self, monkeypatch):
        chi = np.array([0.1, 0.2])
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1)
        monkeypatch.setattr(search, "_bracket", lambda params, chi, name: (-1.0, 1.0))
        with pytest.raises(CertificateError, match="lambda1"):
            search._best_multiplier(p, 0.1, 1e-9, build_psi2, "lambda1")
        with pytest.raises(CertificateError, match="lambda1"):
            search._best_multipliers(p, chi, 1e-9, psi2_entries, "lambda1")
        monkeypatch.undo()
        # chi k overflows in the (1,1) entry of psi2
        huge = ProblemParams(n=2, k=1.7e308, g1=0.0, delta=0.5)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                search._best_multiplier(huge, 10.0, 1e-9, build_psi2, "lambda1")
            with pytest.raises(ValueError, match="non-finite"):
                search._best_multipliers(huge, np.array([10.0]), 1e-9, psi2_entries,
                                         "lambda1")

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
                    lam = root + 10.0 * margin * rng.uniform(-1.0, 1.0, 40)
                    low, high = extreme_eigenvalues(*entries(params, chi, lam))
                    for i in range(lam.size):
                        rows = np.array(_full_rows(entries(params, chi, lam[i])))
                        ref = linalg.eigvalsh(rows)
                        scale = max(1.0, np.linalg.norm(rows))
                        assert abs(low[i] - ref[0]) <= 1e-10 * scale
                        assert abs(high[i] - ref[-1]) <= 1e-10 * scale
                        ours = bool(feasible(low[i], high[i]))
                        assert ours == bool(feasible(ref[0], ref[-1]))
                        verdicts.add(ours)
                        checked += 1
        assert checked >= 1000
        assert verdicts == {True, False}


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

    def test_json_export(self):
        result = sweep(_sweep_problems()[:1])
        payload = json.loads(result.to_json())
        assert payload["rows"][0]["feasible"] is True
        assert "certificate" in payload["rows"][0]

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
