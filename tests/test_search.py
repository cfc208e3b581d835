"""Tests for the feasibility searches, minimal-time bisection and sweeps.

The searches under test use only the package's own closed-form interval of
multipliers, bisections and Jacobi routines; everything here re-checks
their output against scipy's bounded minimizer and numpy's eigensolver,
against golden sections kept here as oracles of the searches they
replaced, and against hand-frozen reference values computed offline with an
independent implementation.
"""

import concurrent.futures
import functools
import inspect
import json
import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg, optimize

from wavecert import certificates, cli, search
from wavecert.certificates import (
    LMIS,
    MARGIN,
    PHI0,
    PHI_OBS,
    PSI2,
    CertificateError,
    DecisionVars,
    ProblemParams,
    build_phi0,
    build_phi_obs,
    build_psi1,
    build_psi2,
    certificate_from_dict,
    certificate_to_dict,
    check_observability,
    check_point,
    check_stability,
    compute_regional_radius,
    fmt_float,
    json_dumps,
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
    """The search section of a config (cli.parse_search, which loads no
    search code) and the tstar_tol argument of the searches it feeds."""

    ENTRIES = {
        "min-time": lambda tol: minimal_observability_time(
            ProblemParams(n=1, k=1.0, delta=0.05), tstar_tol=tol),
        "regional": lambda tol: maximize_regional_radius(
            ProblemParams(n=1, k=1.0, g1=0.1, d=1.0), tstar_tol=tol),
        "sweep": lambda tol: sweep([ProblemParams(n=1, k=1.0, delta=0.05)], tstar_tol=tol),
    }

    def test_defaults(self):
        assert search.TSTAR_TOL == 1e-3 and MARGIN == 1e-9
        for entry in (minimal_observability_time, maximize_regional_radius, sweep):
            default = inspect.signature(entry).parameters["tstar_tol"].default
            assert default is search.TSTAR_TOL, entry
        assert (search.CHI_LO, search.CHI_COUNT) == (1e-4, 400)
        assert (search.REFINEMENT_ROUNDS, search.REFINEMENT_COUNT) == (3, 40)
        assert search.DELTA_GRID == (1e-4, 0.5, 30)

    def test_dict_round_trip(self):
        doc = {"search": {"tstar_tol": 1e-2}}
        assert cli.parse_search(json.loads(json.dumps(doc))) == {"tstar_tol": 1e-2}
        # an integral value comes back a float, as the searches take it
        assert repr(cli.parse_search({"search": {"tstar_tol": 1}})) == "{'tstar_tol': 1.0}"

    def test_unknown_keys_rejected(self):
        with pytest.raises(CertificateError, match="^unknown search keys: chi_gird$"):
            cli.parse_search({"search": {"chi_gird": [1e-3, 0.4, 50]}})

    def test_null_and_non_object_sections(self):
        # a missing or null section, or one of retired keys alone, means
        # the searches' defaults
        for doc in ({}, {"search": None}, {"search": {}},
                    {"search": {"delta_grid": [1e-4, 0.5, 30]}}):
            assert cli.parse_search(doc) == {}, doc
        for section in ([], [{"tstar_tol": 0.01}], "x", 1, 0.01, True, False):
            with pytest.raises(CertificateError,
                               match="^expected a JSON object of search keys$"):
                cli.parse_search({"search": section})

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
        {"chi_grid": (1e-3, 0.1, 10 ** 8)},
        {"delta_grid": (1e-4, 0.5, 10 ** 8)},
    ])
    def test_invalid_values_rejected(self, kw, monkeypatch):
        # the grids and the margin are constants: a retired grid key is
        # ignored and the margin key is unknown, whatever the value.  A bad
        # tstar_tol gets the same message from the section and from each
        # search, which checks it before it tries any delta
        [(key, value)] = kw.items()
        if key in cli.RETIRED_SEARCH_KEYS:
            assert cli.parse_search({"search": kw}) == {}
            return
        says = key + " must" if key == "tstar_tol" else "unknown search keys: " + key
        with pytest.raises(CertificateError, match="^" + re.escape(says)) as caught:
            cli.parse_search({"search": kw})
        if key != "tstar_tol":
            return
        monkeypatch.setattr(search, "_observation_window", None)
        for name, entry in self.ENTRIES.items():
            with pytest.raises(CertificateError) as raised:
                entry(value)
            assert str(raised.value) == str(caught.value), name

    def test_grid_count_bound(self, monkeypatch):
        # a scan's size is fixed: CHI_COUNT points, then REFINEMENT_ROUNDS
        # scans of REFINEMENT_COUNT points, for stability and observability
        sizes = []
        best = search._best_multipliers
        monkeypatch.setattr(search, "_best_multipliers",
                            lambda p, chi, lmis, *rule:
                            sizes.append(len(chi)) or best(p, chi, lmis, *rule))
        find_feasible_vars(ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1))
        find_feasible_vars(ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, t_star=3.9))
        assert sizes == 2 * ([400] + [40] * 3)

    def test_refinement_rounds_bound(self):
        # 1e308 rounds once never ended; no config sets the rounds any more,
        # and the retired key is dropped before tstar_tol is read
        assert cli.parse_search({"search": {"refinement_rounds": 1e308,
                                            "tstar_tol": 0.1}}) == {"tstar_tol": 0.1}


# ------------------------------------------------------------------ bisection


class TestBisect:
    def test_ends_at_the_float_spacing_in_either_order(self):
        x0 = 1.0 / 3.0
        for bad, good, ok in ((0.0, 1.0, lambda x: x >= x0), (1.0, 0.0, lambda x: x <= x0)):
            got = search._bisect(ok, bad, good)
            assert ok(got) and not ok(math.nextafter(got, bad))

    def test_tolerance_and_step_cap_end_the_search(self):
        calls = []

        def ok(x):
            calls.append(x)
            return x >= 2.0

        # 200 / 2^18 is the first width <= 1e-3
        got = search._bisect(ok, 0.0, 200.0, 1e-3)
        assert len(calls) == 18 and 2.0 <= got <= 2.0 + 1e-3
        # a tolerance below the float spacing still ends there
        calls.clear()
        got = search._bisect(ok, 0.0, 200.0, 1e-300)
        assert len(calls) < 60
        assert ok(got) and not ok(math.nextafter(got, 0.0))
        # the ends 1e300 apart would need about 2,000 steps to meet
        calls.clear()
        search._bisect(lambda x: calls.append(x) or x >= 1e-300, 0.0, 1e300)
        assert len(calls) == 60


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
        # the psi1 cut k/(1+k^2 n) lies below the grid's start CHI_LO
        p = ProblemParams(n=1, k=1e-5, g1=0.0, delta=1e-6)
        with pytest.raises(Infeasible, match="empty chi range"):
            chi_min_stability(p)


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
        tol = search.TSTAR_TOL
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.001)
        t, delta, cert = minimal_observability_time(p)
        from dataclasses import replace
        with pytest.raises(Infeasible):
            find_feasible_vars(replace(cert.params, t_star=t - 1.001 * tol))
        # the longer side is feasible by construction (the certificate exists)
        assert check_observability(cert.params, cert.vars)["feasible"]
        # the scipy oracle agrees on both sides at the probe chi
        cmin = chi_min_stability(ProblemParams(n=1, k=1.0, g1=0.0, delta=0.001))
        probe = cmin * (1.0 + 1e-5)
        assert obs_feasible_oracle(1, 0.001, t, probe)
        assert not obs_feasible_oracle(1, 0.001, t - 2.0 * tol, probe)

    def test_equal_times_prefer_larger_delta(self, monkeypatch):
        # two tiny deltas give times equal within tolerance; the larger
        # delta must win the tie (faster certified contraction)
        monkeypatch.setattr(search, "DELTA_GRID", (1e-4, 2e-4, 2))
        p = ProblemParams(n=1, k=1.0, g1=0.0)
        t, delta, cert = minimal_observability_time(p)
        assert delta == pytest.approx(2e-4, rel=1e-12)

    def test_assembly_failures_nudge_t_star_then_give_up(self, monkeypatch):
        # the bisected time can sit on the feasibility boundary: each failed
        # assembly moves t_star up by tstar_tol, four tries in all
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.001)
        t0, _, _ = minimal_observability_time(p)
        real = search.find_feasible_vars
        tried = []

        def fails_first(params):
            tried.append(params.t_star)
            if len(tried) == 1:
                raise Infeasible("on the boundary")
            return real(params)

        monkeypatch.setattr(search, "find_feasible_vars", fails_first)
        t, _, cert = minimal_observability_time(p)
        assert tried == [t0, t0 + 1e-3] and t == cert.params.t_star == t0 + 1e-3

        def always_fails(params):
            tried.append(params.t_star)
            raise Infeasible("on the boundary")

        monkeypatch.setattr(search, "find_feasible_vars", always_fails)
        del tried[:]
        with pytest.raises(Infeasible, match="^could not assemble a certificate "
                                             "near the bisected time: on the boundary$"):
            minimal_observability_time(p)
        want = [t0]
        for _ in range(3):
            want.append(want[-1] + 1e-3)
        assert tried == want

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
        tol = search.TSTAR_TOL
        times = []
        for k in (0.5, 0.75, 1.0):
            p = ProblemParams(n=1, k=k, g1=0.0, delta=0.01)
            t, _, _ = minimal_observability_time(p)
            times.append(t)
        assert times[0] + tol >= times[1]
        assert times[1] + tol >= times[2]


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
        p = ProblemParams(n=1, k=1e-5, g1=0.0, delta=1e-6)
        with pytest.raises(Infeasible, match="empty chi range"):
            find_feasible_vars(p)

    def test_deterministic(self):
        p = ProblemParams(n=2, k=1.0, g1=0.1, delta=0.01)
        assert find_feasible_vars(p) == find_feasible_vars(p)


# ------------------------------------------------------- lockstep chi scan


def _same_bits(x, y):
    return np.array_equal(np.asarray(x, dtype=float).view(np.int64),
                          np.asarray(y, dtype=float).view(np.int64))


def best_one(params, chi, lmi):
    """(values, multipliers) of _best_multipliers on the one LMI."""
    [result] = search._best_multipliers(params, chi, [lmi])
    return result


def _diagonal(params, chi, lam):
    # M(lam) = diag(lam wq - 5, 0, -5 - lam): lambda_max is the decoupled 0
    # for every lam in the bracket, so the Gershgorin bound is the
    # infeasible end itself and must be widened
    zero = 0.0 * chi
    return (zero + lam * search._wq(params.n) - 5.0, zero, zero, zero, zero,
            zero - 5.0 - lam)


STABILITY = [PSI2, PHI0]
OBSERVABILITY = STABILITY + [PHI_OBS]


def _not_finite(params, chi, lam):
    return (math.nan * chi,) + (0.0 * chi,) * 5


def _assert_lockstep_bits(params, chi, lmis):
    """_best_multipliers over lmis, checked LMI by LMI against its own call
    and the float bisection; returns the combined result."""
    results = search._best_multipliers(params, chi, lmis)
    assert len(results) == len(lmis)
    for (values, lams), lmi in zip(results, lmis):
        alone = best_one(params, chi, lmi)
        assert _same_bits(values, alone[0]) and _same_bits(lams, alone[1])
        oracle = [point_best_multiplier(params, float(c), lmi.entries, lmi.multiplier, lmi.top)
                  for c in chi]
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


def point_loop_find_feasible_vars(params):
    """find_feasible_vars as a loop over single chi points.

    The scan before it ran in lockstep, kept as the oracle: the lockstep
    scan must return the same DecisionVars and raise the same messages.
    """
    if params.delta is None:
        raise CertificateError("delta is required for a feasibility search")
    observability = params.t_star is not None
    lo, hi, count = search._chi_grid(params)
    margin = MARGIN
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
    for _ in range(search.REFINEMENT_ROUNDS):
        a = grid[max(best_i - 1, 0)]
        b = grid[min(best_i + 1, len(grid) - 1)]
        if not b > a:
            break
        grid = [float(x) for x in np.geomspace(a, b, search.REFINEMENT_COUNT)]
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
    report = (check_observability if observability else check_stability)(params, vars)
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


def _outcome(fn, params):
    try:
        return fn(params)
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
        [lmi] = [lmi for lmi in LMIS if lmi.entries is entries]
        values, lams = best_one(params, chi, lmi)
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
        values, lams = best_one(short, np.array([0.1, 0.2]), PHI_OBS)
        assert np.all(values == math.inf) and np.all(lams == 1e-14)
        chi = np.array([0.1, 0.2])
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1)
        monkeypatch.setattr(search, "_bracket", lambda params, chi, name: (1.0, 0.5))
        values, lams = best_one(p, chi, PHI0)
        assert np.all(values == -math.inf) and np.all(lams == 1.0)
        # a multiplier that is not > 0, as DecisionVars would reject it
        monkeypatch.setattr(search, "_bracket", lambda params, chi, name: (-2.0, -1.0))
        with pytest.raises(CertificateError, match="lambda1"):
            best_one(p, chi, PSI2)
        monkeypatch.undo()
        # chi k overflows in the (1,1) entry of psi2
        huge = ProblemParams(n=2, k=1.7e308, g1=0.0, delta=0.5)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                best_one(huge, np.array([10.0]), PSI2)

    def test_a_tight_gershgorin_bound_is_widened(self, monkeypatch):
        # the Gershgorin bound of _diagonal must be widened; the best strict
        # bound is then the smallest positive float, at every lam of the
        # bracket
        params = ProblemParams(n=1, k=1.0)
        spans = []
        real = search._span
        monkeypatch.setattr(search, "_span",
                            lambda *args: spans.append(real(*args)) or spans[-1])
        values, lams = best_one(params, np.array([0.1, 0.2]),
                                PHI0._replace(entries=_diagonal, top=True))
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
        lmis = [PSI2, PHI0._replace(entries=_diagonal, top=True), PHI0]
        results = _assert_lockstep_bits(params, chi, lmis)
        assert np.all(results[1][0] == math.ulp(0.0))

    @pytest.mark.parametrize("n,g1,delta", [(2, 0.1, 0.01), (1, 0.0, 0.001)],
                             ids=["criterion-1", "criterion-2"])
    def test_the_benchmark_grids_keep_their_bits(self, n, g1, delta, monkeypatch):
        # the 400-point grid and the three 40-point refinements of the
        # certificate that a pinned min-time row builds, at the t_star that
        # minimal_observability_time bisects for it
        calls = []
        real = search._best_multipliers
        monkeypatch.setattr(search, "_best_multipliers", lambda params, chi, lmis, *rule:
                            calls.append((params, chi, lmis)) or real(params, chi, lmis, *rule))
        t_star, _, _ = minimal_observability_time(
            ProblemParams(n=n, k=1.0, g1=g1, delta=delta))
        monkeypatch.undo()
        assert [len(chi) for _, chi, _ in calls] == [search.CHI_COUNT] + [
            search.REFINEMENT_COUNT] * search.REFINEMENT_ROUNDS
        for params, chi, lmis in calls:
            assert params.t_star == t_star and lmis == OBSERVABILITY
            _assert_lockstep_bits(params, chi, lmis)

    def test_entries_whose_squares_overflow(self):
        # finite off-diagonal entries whose products overflow, as in psi2 at
        # g1 = 1e200 (v^2) and in _coupled (r^2, v^2 and r v): the products
        # computed once per call overflow under the call's errstate, with no
        # RuntimeWarning, and every value and multiplier keeps its bits
        params = ProblemParams(n=2, k=1.0, g1=1e200, delta=0.01, t_star=20.0)
        chi = np.geomspace(1e-4, 0.3, 3)
        [(values, lams), *_] = _assert_lockstep_bits(params, chi, OBSERVABILITY)
        assert np.all(values == math.inf)
        assert _same_bits(lams, [1e196, 5.477225575051662e197, 2.9999999999999997e199])

        def _coupled(params, chi, lam):
            zero = 0.0 * chi
            return (zero + lam * search._wq(params.n) - 5.0, zero + 1e200, zero - 3e190,
                    zero, zero + 1e200, zero - 5.0 - lam)

        params, chi = ProblemParams(n=1, k=1.0), np.array([0.1, 0.2])
        for top in (True, False):
            [(values, lams)] = _assert_lockstep_bits(params, chi,
                                                     [PHI0._replace(entries=_coupled, top=top)])
            assert np.all(values == (math.inf if top else -math.inf)) and np.all(lams == 1e-12)

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
        lmis = STABILITY + [PHI_OBS._replace(entries=_not_finite) if broken else PHI_OBS]
        real = search._bracket
        monkeypatch.setattr(search, "_bracket", lambda p, c, name:
                            (-2.0, -1.0) if name == bad else real(p, c, name))

        def raised(fn):
            with np.errstate(over="ignore"):
                with pytest.raises(raises) as info:
                    fn()
            return type(info.value), str(info.value)

        combined = raised(lambda: search._best_multipliers(params, chi, lmis))
        sequential = raised(lambda: [best_one(params, chi, lmi) for lmi in lmis])
        assert combined == sequential == (raises, says)

    # config holds the search constants a case sets
    @pytest.mark.parametrize("params,config", [
        (ProblemParams(n=1, k=1.0, g1=0.0, delta=0.001),
         {"CHI_LO": 1e-3, "CHI_COUNT": 60, "REFINEMENT_ROUNDS": 2}),
        (ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, t_star=3.9),
         {"REFINEMENT_ROUNDS": 0}),
        (ProblemParams(n=2, k=1.0, g1=0.3, delta=0.01, t_star=38.0),
         {"CHI_LO": 1e-3, "CHI_COUNT": 40, "REFINEMENT_ROUNDS": 1}),
        (ProblemParams(n=3, k=1.0, g1=0.05, delta=0.02),
         {"CHI_LO": 1e-3, "CHI_COUNT": 30, "REFINEMENT_COUNT": 20}),
        # infeasible: the best worst-case margin is reported
        (ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, t_star=3.7),
         {"CHI_LO": 1e-2, "CHI_COUNT": 30, "REFINEMENT_ROUNDS": 1}),
        (ProblemParams(n=2, k=1.0, g1=5.0, delta=0.01),
         {"CHI_LO": 1e-3, "CHI_COUNT": 20, "REFINEMENT_ROUNDS": 1}),
        # every lambda2 interval empty: the margin stays -inf
        (ProblemParams(n=1, k=1.0, g1=0.0, delta=1e-4, t_star=1e-12),
         {"CHI_LO": 1e-3, "CHI_COUNT": 10, "REFINEMENT_ROUNDS": 2}),
        # the psi1 cut lies below CHI_LO
        (ProblemParams(n=1, k=1e-5, g1=0.0, delta=1e-6), {}),
        (ProblemParams(n=1, k=1.0), {}),
    ])
    def test_find_feasible_vars_matches_point_loop(self, params, config, monkeypatch):
        for name, value in config.items():
            monkeypatch.setattr(search, name, value)
        got = _outcome(find_feasible_vars, params)
        want = _outcome(point_loop_find_feasible_vars, params)
        assert got == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_scan_is_never_worse_than_the_golden_section(self, n):
        # at every chi of seeded problems: each LMI's value and the scan's
        # worst-case margin are at least the golden section's (less 1e-15),
        # and extremes3 at the returned multiplier reads the returned value
        # within a few ulps of the matrix scale
        rng = np.random.default_rng(40 + n)
        # each LMI's record, and its sense spelled by hand for the oracle
        lmis = [(PSI2, True), (PHI0, False), (PHI_OBS, True)]
        checked = 0
        for _ in range(2):
            params, _ = _random_problem(rng, n)
            chi = np.geomspace(1e-4, search._chi_cut(params) * (1.0 - 1e-9), 40)
            w_scan = MARGIN - psi1_value(params, chi)
            w_gold = w_scan.copy()
            for lmi, top in lmis:
                sign = 1.0 if top else -1.0
                values, lams = best_one(params, chi, lmi)
                golden = np.array([golden_best_multiplier(params, float(c), lmi.entries,
                                                          lmi.multiplier, top)[0] for c in chi])
                assert np.all(sign * (values - golden) <= 1e-15)
                w_scan = np.minimum(w_scan, lmi.slack(values))
                w_gold = np.minimum(w_gold, lmi.slack(golden))
                for c, value, lam in zip(chi, values, lams):
                    if not math.isfinite(value):
                        continue
                    m = lmi.entries(params, float(c), float(lam))
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


# ------------------------------------------------------------ pruned chi scan


def _vars_bits(outcome):
    # a DecisionVars as the bits of its fields; an error as it is
    if isinstance(outcome, DecisionVars):
        return tuple(None if x is None else float(x).hex()
                     for x in (outcome.chi, outcome.lambda0, outcome.lambda1, outcome.lambda2))
    return outcome


def _scan_rounds(params, monkeypatch):
    """find_feasible_vars's outcome and, per scan of a chi grid, the index
    of its best point and whether it beat the best of the earlier scans."""
    margin = MARGIN
    margins = []
    real = search._best_multipliers

    def recorded(p, chi, lmis, *rule):
        results = real(p, chi, lmis, *rule)
        top2, bottom0, *obs = [values for values, _ in results]
        w = margin - psi1_value(p, chi)
        for x in [margin - top2, bottom0 - margin] + [-margin - x for x in obs]:
            w = np.minimum(w, x)
        margins.append(w)
        return results

    monkeypatch.setattr(search, "_best_multipliers", recorded)
    outcome = _outcome(find_feasible_vars, params)
    monkeypatch.undo()
    best, rounds = -math.inf, []
    for w in margins:
        rounds.append((int(np.argmax(w)), bool(np.max(w) > best)))
        best = max(best, float(np.max(w)))
    return outcome, rounds


class TestPrunedScan:
    def test_find_feasible_vars_matches_point_loop_on_seeded_problems(self, monkeypatch):
        # the same DecisionVars bits or the same error text as the scan
        # point by point, over seeded problems in both modes and cases
        # picked for where the winner sits
        rng = np.random.default_rng(26)
        problems = []
        for n in (1, 2, 3):
            for g1 in (0.0, float(rng.uniform(0.0, 0.5))):
                delta = float(10.0 ** rng.uniform(-4.0, -1.0))
                problems += [ProblemParams(n=n, k=1.0, g1=g1, delta=delta),
                             ProblemParams(n=n, k=1.0, g1=g1, delta=delta,
                                           t_star=float(rng.uniform(2.0, 60.0)))]
        problems += [
            # infeasible: the best point the last of the grid, and no
            # refinement beats it
            ProblemParams(n=3, k=1.0, g1=0.139, delta=0.11544, t_star=13.58),
            # infeasible: the best point the first of the grid
            ProblemParams(n=2, k=1.0, g1=0.0, delta=1e-5, t_star=30.0),
            # feasible: the first refinement beats nothing
            ProblemParams(n=3, k=1.0, g1=0.163, delta=0.00053),
        ]
        seen = set()
        for params in problems:
            got, rounds = _scan_rounds(params, monkeypatch)
            want = _outcome(point_loop_find_feasible_vars, params)
            assert _vars_bits(got) == _vars_bits(want)
            seen.add("observability" if params.t_star is not None else "stability")
            seen.add("feasible" if isinstance(got, DecisionVars) else "infeasible")
            first, _ = rounds[0]
            seen.add({0: "first", search.CHI_COUNT - 1: "last"}.get(first, "inside"))
            if not all(beat for _, beat in rounds[1:]):
                seen.add("no refinement gain")
        assert seen == {"observability", "stability", "feasible", "infeasible", "first",
                        "last", "inside", "no refinement gain"}

    @pytest.mark.parametrize("prune_steps", [search.PRUNE_STEPS, ()],
                             ids=["pruned", "unpruned"])
    def test_ties_keep_the_first_index(self, prune_steps, monkeypatch):
        # with psi1 held at 0.9, its term is every point's worst-case margin
        # and both ends of every point's bounds at each pruning step: the
        # ties must all survive and the first point win, in every scan
        monkeypatch.setattr(search, "PRUNE_STEPS", prune_steps)
        monkeypatch.setattr(search, "psi1_value", lambda params, chi: 0.0 * chi + 0.9)
        w = MARGIN - 0.9
        with pytest.raises(Infeasible) as info:
            find_feasible_vars(ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1))
        assert str(info.value) == ("LMIs infeasible on the chi grid; best worst-case margin"
                                   " %s at chi=%s" % (fmt_float(w), fmt_float(search.CHI_LO)))

    def test_the_rule_drops_only_points_that_cannot_win(self, monkeypatch):
        # the scan's rule called on bounds set by hand, where every lambda2
        # interval is empty and best_w stays -inf: exact ties and NaN
        # survive, and a point is out when the best its margin can end at
        # is below another point's worst, or at most best_w
        rules = []
        real = search._best_multipliers
        monkeypatch.setattr(search, "_best_multipliers", lambda p, chi, lmis, *rule:
                            rules.append(rule[0]) or real(p, chi, lmis, *rule))
        with pytest.raises(Infeasible, match="margin -inf at chi"):
            find_feasible_vars(ProblemParams(n=1, k=1.0, g1=0.0, delta=1e-4, t_star=1e-12))
        alive = rules[0]
        # rows: psi2's and phi_obs's values (lower is better), phi0's
        # (higher is better); columns: a tie, the tie again, a wider
        # point, a point below the tie, a point with no psi2 value, NaN
        worst = np.array([[-0.5, -0.5, -0.4, -0.4, math.inf, math.nan],
                          [0.6, 0.6, 0.6, 0.6, 0.6, 0.6],
                          [-0.7, -0.7, -0.7, -0.7, -0.7, -0.7]])
        best = worst.copy()
        best[0, 2:4] = -0.6, -0.49
        assert alive(np.arange(6), worst, best).tolist() == [True, True, True, False, False,
                                                             True]
        # with every worst -inf, only best_w drops a point
        worst[0] = math.inf
        assert alive(np.arange(5), worst[:, :5], best[:, :5]).tolist() == [True] * 4 + [False]

    @pytest.mark.parametrize("mode", ["stability", "observability"])
    @pytest.mark.parametrize("g1", [0.0, 0.3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_point_finishes_on_floats(self, n, g1, mode, monkeypatch):
        # a one-point chi bisects on floats from the first step, through
        # _span's float branch, with the bits of the arrays and the oracle
        params = ProblemParams(n=n, k=1.0, g1=g1, delta=0.01,
                               t_star=20.0 if mode == "observability" else None)
        lmis = STABILITY if mode == "stability" else OBSERVABILITY
        kinds = []
        real = search._span
        monkeypatch.setattr(search, "_span", lambda n0, wq, lo, hi, *products:
                            kinds.append(type(lo) is float) or real(n0, wq, lo, hi, *products))
        for c in np.geomspace(1e-4, search._chi_cut(params) * (1.0 - 1e-9), 5):
            del kinds[:]
            search._best_multipliers(params, np.array([c]), lmis)
            widening = kinds.index(True)
            assert widening >= 1 and all(kinds[widening:]) and len(kinds) > widening + 40
            _assert_lockstep_bits(params, np.array([c]), lmis)

    def test_the_arrays_finish_where_floats_cannot_decide(self, monkeypatch):
        # where _span's float branch answers None (its check on the sum
        # of its inputs overflowed), the arrays go on from where they stood
        params = ProblemParams(n=2, k=1.0, g1=0.1, delta=0.01, t_star=20.0)
        chi = np.array([0.05])
        want = search._best_multipliers(params, chi, OBSERVABILITY)
        real = search._span
        kinds = []

        def undecided(n0, wq, lo, hi, *products):
            kinds.append(type(lo) is float)
            return None if kinds[-1] else real(n0, wq, lo, hi, *products)

        monkeypatch.setattr(search, "_span", undecided)
        got = search._best_multipliers(params, chi, OBSERVABILITY)
        assert kinds.count(True) == 1 and kinds.count(False) > 40
        for (values, lams), (want_values, want_lams) in zip(got, want):
            assert _same_bits(values, want_values) and _same_bits(lams, want_lams)

    def test_kept_points_keep_their_bits(self):
        # a rule that keeps one point: it ends on floats with the bits of
        # the call without a rule, and every point dropped reports the
        # infinitely bad values with NaN multipliers
        params = ProblemParams(n=2, k=1.0, g1=0.1, delta=0.01, t_star=20.0)
        chi = np.geomspace(1e-4, search._chi_cut(params) * (1.0 - 1e-9), 30)
        calls = []

        def keep_one(points, worst, best):
            calls.append(points)
            return points == 17

        pruned = search._best_multipliers(params, chi, OBSERVABILITY, keep_one)
        full = search._best_multipliers(params, chi, OBSERVABILITY)
        assert len(calls) == 1 and calls[0].tolist() == list(range(30))
        for (values, lams), (want, want_lams), lmi in zip(pruned, full, OBSERVABILITY):
            assert _same_bits(values[17:18], want[17:18])
            assert _same_bits(lams[17:18], want_lams[17:18])
            others = np.arange(30) != 17
            assert np.all(values[others] == (math.inf if lmi.top else -math.inf))
            assert np.all(np.isnan(lams[others]))

    def test_a_400_point_scan_prunes_after_its_first_pruning_step(self, monkeypatch):
        # a work counter: the array-wide _span calls on the full batch of
        # the 400-point observability scan (3 LMIs, 1,200 elements) are
        # its widening steps and the steps up to the first pruning step
        params = ProblemParams(n=2, k=1.0, g1=0.1, delta=0.01, t_star=12.2)
        full = 3 * search.CHI_COUNT
        exists = []
        real = search._span

        def counted(n0, wq, lo, hi, *products):
            result = real(n0, wq, lo, hi, *products)
            if type(lo) is not float and lo.size == full:
                exists.append(result[2] | ~(lo < hi))
            return result

        monkeypatch.setattr(search, "_span", counted)
        find_feasible_vars(params)
        found, widening = np.zeros(full, dtype=bool), 0
        while not found.all():
            found |= exists[widening]
            widening += 1
        assert len(exists) <= widening + search.PRUNE_STEPS[0]


# ------------------------------------------------------ closed-form decisions
# the searches before the closed form, kept as the oracle: the prefilter,
# the two lambda0 candidates, a golden section for every decision and the
# full 60-step bisections.  The golden section's value lies up to tol / 2
# above the optimum, so the oracle answers no near the boundary where the
# closed form answers yes; the searches must land within O(tol) of it


def head_stability_feasible(params, chi, tol):
    margin = MARGIN
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


def head_chi_min_stability(params, tol):
    lo, hi, count = search._chi_grid(params)
    found = None
    prev = None
    for x in np.geomspace(lo, hi, count):
        chi = float(x)
        if head_stability_feasible(params, chi, tol):
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
        if head_stability_feasible(params, mid, tol):
            b = mid
        else:
            a = mid
    return b


def head_observation_window(params, delta, tstar_tol, tol):
    p = replace(params, delta=delta, t_star=None, t_total=None)
    cmin = head_chi_min_stability(p, tol)
    probe = min(cmin * (1.0 + 1e-5), 0.5 * (cmin + search._chi_cut(p)))

    def top_at(t):
        return build_path_best_multiplier(replace(p, t_star=t), probe, tol, build_phi_obs,
                                          "lambda2")[0]

    top = top_at(search.T_STAR_MAX)
    if not top < -MARGIN:
        raise Infeasible(
            "not observable within t_star <= %g at delta=%s (lambda_max(Phi)=%s)"
            % (search.T_STAR_MAX, fmt_float(delta), fmt_float(top)))
    lo_t, hi_t = 0.0, search.T_STAR_MAX
    while hi_t - lo_t > tstar_tol:
        mid = 0.5 * (lo_t + hi_t)
        if top_at(mid) < -MARGIN:
            hi_t = mid
        else:
            lo_t = mid
    return hi_t, probe


def head_delta_margin(params, vars, tol):
    chi = vars.chi

    def ok(extra):
        top, _ = build_path_best_multiplier(replace(params, delta=params.delta + extra), chi,
                                            tol, build_psi2, "lambda1")
        return top <= MARGIN

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


# the three decisions the searches make: each LMI's record, its builder, and
# its sense spelled by hand for the build-path oracle
DECISIONS = [(PSI2, build_psi2, True), (PHI0, build_phi0, False),
             (PHI_OBS, build_phi_obs, True)]


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
            for lmi, build, top in DECISIONS:
                for _ in range(6):
                    params, chi = _random_problem(rng, n)
                    value = build_path_best_multiplier(params, chi, tol, build,
                                                       lmi.multiplier, top)[0]
                    lo, hi = search._bracket(params, chi, lmi.multiplier)
                    for f in (0.9, 1.0, 1.1, 1.5, 2.0, 3.0):
                        for side in (-1.0, 1.0):
                            s = value + side * f * eps
                            # the margin whose threshold is s
                            _set_margin(monkeypatch, lmi.side * s)
                            lam = search._witness(params, chi, lmi)
                            if lam is not None:
                                assert lo <= lam <= hi
                                low, high = search.extremes3(*lmi.entries(params, chi, lam))
                                assert lmi.holds(high if lmi.top else low)
                                witnessed += 1
                            if f >= 1.5:
                                assert (lam is not None) == lmi.holds(value), \
                                    (params, chi, lmi.name, s)
                                outside += 1
        assert not value_calls
        assert outside == 4 * 3 * 6 * 3 * 2
        assert witnessed >= 0.4 * outside

    def test_rounding_sliver_is_not_feasible(self, monkeypatch):
        # n = 1: the determinant has the second leading minor as a factor,
        # so an expanded quadratic's root meets the cap up to rounding and
        # can leave a sliver of a span that is really empty
        params = ProblemParams(n=1, k=0.4607879839559085, g1=0.09510413139896456,
                               delta=0.12104731253124086, t_star=1.9019470945648353)
        chi, tol = 0.08180788182923945, 1e-3
        value = build_path_best_multiplier(params, chi, tol, build_phi_obs, "lambda2")[0]
        # phi_obs's threshold is -margin
        _set_margin(monkeypatch, 0.004 - value)
        assert search._witness(params, chi, PHI_OBS) is None
        _set_margin(monkeypatch, -0.004 - value)
        assert search._witness(params, chi, PHI_OBS) is not None

    def test_bad_input_raises_as_the_golden_section_does(self, monkeypatch):
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1)
        for chi_bad in (-0.1, math.nan, math.inf):
            with pytest.raises(CertificateError, match="chi"):
                search._witness(p, chi_bad, PSI2)
        huge = ProblemParams(n=2, k=1.7e308, g1=0.0, delta=0.5)
        with pytest.raises(ValueError, match="non-finite"):
            search._witness(huge, 10.0, PSI2)
        # an empty lambda2 interval: the golden value is inf, never below s
        short = ProblemParams(n=1, k=1.0, g1=0.0, delta=1e-4, t_star=1e-12)
        _set_margin(monkeypatch, -1e300)
        assert search._witness(short, 0.1, PHI_OBS) is None

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3, 1e-2])
    def test_searches_keep_their_bits(self, tol):
        # within relative 4 tol of the golden-section oracle (an intended
        # output change: the largest gaps seen are in CHANGES.md)
        rng = np.random.default_rng(100 + int(-math.log10(tol)))
        bound = 4.0 * tol + 1e-15
        for n in (1, 2, 3):
            problems = [ProblemParams(n=n, k=float(rng.uniform(0.5, 2.0)),
                                      g1=float(rng.uniform(0.0, 0.3)))
                        for _ in range(2)]
            for params in problems:
                cut = search._chi_cut(params)
                # the last delta leaves -chi + delta >= 0: infeasible
                for delta in (float(10.0 ** rng.uniform(-3.0, -1.0)) * cut, 1.01 * cut):
                    p = ProblemParams(n=n, k=params.k, g1=params.g1, delta=delta)
                    cmin = _numeric_outcome(chi_min_stability, p)
                    assert _relative_gap(
                        cmin, _numeric_outcome(head_chi_min_stability, p, tol)) <= bound
                    assert _relative_gap(
                        _numeric_outcome(search._observation_window, params, delta, 1e-2),
                        _numeric_outcome(head_observation_window, params, delta, 1e-2,
                                         tol)) <= bound
                    if isinstance(cmin[0], type):
                        continue
                    cmin = cmin[0]
                    assert search._witness(p, cmin, PSI2) is not None
                    assert search._witness(p, cmin, PHI0) is not None
                    for chi in (cmin, cmin * (1.0 - 1e-3), 0.5 * (cmin + cut)):
                        v = DecisionVars(chi=chi)
                        got = _numeric_outcome(delta_margin, p, v)
                        want = _numeric_outcome(head_delta_margin, p, v, tol)
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
                            lambda p, delta, tstar_tol:
                            head_observation_window(p, delta, tstar_tol, 1e-9))
        assert got == _repr_outcome(certified, params)


# the senses spelled by hand: each LMI's verdict on its decisive value
SENSES = {"phi0": lambda x, m: x > m, "psi1": lambda x, m: x <= m,
          "psi2": lambda x, m: x <= m, "phi_obs": lambda x, m: x < -m}


def _set_margin(monkeypatch, margin):
    # the fixed margin moved, for a test of the threshold logic alone
    monkeypatch.setattr(certificates, "MARGIN", margin)
    monkeypatch.setattr(search, "MARGIN", margin)


def _at_threshold(name, margin, ulps):
    # the value at name's threshold, or one ulp below or above it
    value = -margin if name == "phi_obs" else margin
    return value if not ulps else math.nextafter(value, ulps * math.inf)


class TestThresholdTies:
    # a decisive value at its threshold, one ulp inside and one outside:
    # the certificate checks and the witnesses decide as SENSES does
    @pytest.mark.parametrize("ulps", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize("margin", [0.0, 1e-9])
    @pytest.mark.parametrize("name", ["phi0", "psi1", "psi2", "phi_obs"])
    def test_check_verdicts(self, name, margin, ulps, monkeypatch):
        _set_margin(monkeypatch, margin)
        value = _at_threshold(name, margin, ulps)
        monkeypatch.setattr(certificates, "eigenvalues", lambda entries: (value, value))
        monkeypatch.setattr(certificates, "build_psi1", lambda params, vars: value)
        report = check_observability(ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, t_star=3.9),
                                     DecisionVars(chi=0.1, lambda1=0.1, lambda2=0.1))
        want = {lmi + "_ok": sense(value, margin) for lmi, sense in SENSES.items()}
        assert {key: report[key] for key in want} == want
        assert report["feasible"] == all(want.values())
        assert report["margins"] == dict.fromkeys(SENSES, value)

    @pytest.mark.parametrize("ulps", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize("margin", [0.0, 1e-9])
    @pytest.mark.parametrize("lmi", [PHI0, PSI2, PHI_OBS], ids=lambda lmi: lmi.name)
    def test_witness_verdicts(self, lmi, margin, ulps, monkeypatch):
        params = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, t_star=8.0)
        _set_margin(monkeypatch, margin)
        # a point whose span is non-empty, so extremes3 decides the witness
        assert search._witness(params, 0.2, lmi) is not None
        value = _at_threshold(lmi.name, margin, ulps)
        monkeypatch.setattr(search, "extremes3", lambda *entries: (value, value))
        got = search._witness(params, 0.2, lmi) is not None
        assert got == SENSES[lmi.name](value, margin)


# ------------------------------------------------------------- chi_min scan
# the chi_min scan before its closed-form pass, kept as the oracle: every
# grid point through the scalar test, then the same bisection


def scalar_chi_min_stability(params):
    lo, hi, count = search._chi_grid(params)
    found = prev = None
    for x in np.geomspace(lo, hi, count):
        chi = float(x)
        if search._stability_feasible(params, chi):
            found = chi
            break
        prev = chi
    if found is None:
        raise Infeasible("no chi on (%s, %s) certifies stability at delta=%s"
                         % (fmt_float(lo), fmt_float(hi), fmt_float(params.delta)))
    if prev is None:
        return found
    return search._bisect(lambda chi: search._stability_feasible(params, chi), prev, found)


def both_lmis_ruled_out(params, grid):
    # the closed-form pass before phi0's part was shared: psi2, then phi0,
    # each where the inputs so far are finite and its span is empty
    wq = search._wq(params.n)
    with np.errstate(all="ignore"):
        out = np.zeros(grid.shape, dtype=bool)
        finite = True
        for entries, name, top in ((psi2_entries, "lambda1", True),
                                   (phi0_entries, "lambda0", False)):
            _, n0, lo, hi = search._clearing(params, grid, entries, name, MARGIN, top)
            lo, hi = np.broadcast_arrays(grid, lo, hi)[1:]
            p, r, u, q, v, w = n0
            finite = finite & np.isfinite(p + r + u + q + v + w + lo + hi)
            out |= finite & ~search._span(n0, wq, lo, hi, search._products(r, v))[2]
    return out


def _hex_outcome(fn, *args):
    try:
        return fn(*args).hex()
    except (Infeasible, ValueError) as exc:
        return type(exc), str(exc)


def _scan_problems():
    # seeded problems, then overflow edges: g1 or delta near the float
    # maximum, k whose square overflows
    rng = np.random.default_rng(18)
    for _ in range(240):
        g1 = 0.0 if rng.uniform() < 0.3 else float(10.0 ** rng.uniform(-3.0, math.log10(30.0)))
        params = ProblemParams(n=int(rng.integers(1, 4)),
                               k=float(10.0 ** rng.uniform(-3.0, math.log10(50.0))), g1=g1,
                               delta=float(10.0 ** rng.uniform(-5.0, math.log10(3.0))))
        yield params
    big = 1.7e308
    for n in (1, 2, 3):
        for k, g1, delta in ((1.0, big, 0.01), (1.0, 0.1, big), (1e154, 0.1, 0.01),
                             (1.0, big, big), (0.5, 1e300, 1e-3), (1.0, 0.0, 1e307)):
            yield ProblemParams(n=n, k=k, g1=g1, delta=delta)


class TestChiMinScan:
    def test_matches_the_scalar_scan(self):
        # the same bits, or the same exception type and text
        kinds = set()
        for params in _scan_problems():
            want = _hex_outcome(scalar_chi_min_stability, params)
            assert _hex_outcome(chi_min_stability, params) == want, params
            kinds.add(want[0] if isinstance(want, tuple) else float)
        assert kinds == {float, Infeasible, ValueError}

    def test_ruled_out_points_are_infeasible_without_raising(self):
        ruled = 0
        for params in _scan_problems():
            try:
                grid, out = search._stability_ruled_out(params, search._chi_grid(params))
            except Infeasible:
                continue
            for chi in grid[out]:
                assert search._stability_feasible(params, float(chi)) is False
            ruled += int(out.sum())
        assert ruled > 10000

    def test_ruled_out_matches_the_pass_over_both_lmis(self):
        # psi2's part at each delta with phi0's shared part gives the mask
        # of one pass over both LMIs, which phi0 enlarges on some problems
        enlarged = 0
        for params in _scan_problems():
            try:
                bounds = search._chi_grid(params)
            except Infeasible:
                continue
            grid, out = search._stability_ruled_out(params, bounds)
            want = both_lmis_ruled_out(params, np.geomspace(*bounds))
            assert np.array_equal(out, want), params
            finite, empty = search._ruled_out(params, grid, PSI2)
            enlarged += int(np.sum(want & ~(finite & empty)))
        assert enlarged > 50

    @pytest.mark.parametrize("delta", [1e-4, 0.01, 0.05, 0.2])
    def test_scalar_tests_run_only_where_points_remain(self, delta, monkeypatch):
        # a count, not a time: at most the bisection's 60 steps beyond the
        # points the pass leaves, the feasible ones included (322 to 441
        # scalar tests before the pass, 6 to 125 points left after it)
        params = ProblemParams(n=1, k=1.0, g1=0.1, delta=delta)
        _, out = search._stability_ruled_out(params, search._chi_grid(params))
        left = int(np.sum(~out))
        calls = []
        real = search._stability_feasible
        monkeypatch.setattr(search, "_stability_feasible",
                            lambda *args: calls.append(args) or real(*args))
        chi_min_stability(params)
        assert len(calls) <= 60 + left


# ------------------------------------------------------------------- regional


class TestMaximizeRegionalRadius:
    def test_first_reference_case(self):
        p = ProblemParams(n=1, k=1.0, g1=0.1, d=1.0)
        d0, cert = maximize_regional_radius(p)
        assert 0.23 <= d0 <= 0.5
        # the certificate reproduces the radius exactly from its own fields
        assert compute_regional_radius(cert.params, cert.vars).d0 == d0
        assert cert.d0 == d0
        make_certificate(cert.params, cert.vars)  # must not raise

    def test_second_reference_case(self):
        p = ProblemParams(n=1, k=1.0, g1=0.2, d=1.0)
        d0, cert = maximize_regional_radius(p)
        assert 0.18 <= d0 <= 0.5

    def test_pinned_delta_reproduces_reference_radius(self):
        # at delta = 0.1 the corner point lands near the hand-worked value
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, d=1.0)
        d0, cert = maximize_regional_radius(p)
        assert d0 == pytest.approx(0.2348, abs=2e-3)
        assert cert.params.delta == 0.1

    def test_equal_radii_prefer_larger_delta(self, monkeypatch):
        # at t_total 30000 the radius of every rate with a window
        # underflows to 0.0; as with equal windows, the largest delta wins
        # the tie (the first, 4.34e-4 with t* = 159.5, once won it)
        fits = []
        window = search._observation_window

        def recorded(params, delta, tstar_tol):
            found = window(params, delta, tstar_tol)
            fits.append(delta)
            return found

        monkeypatch.setattr(search, "_observation_window", recorded)
        p = ProblemParams(n=1, k=1.0, g1=0.1, d=1.0, t_total=30000.0)
        d0, cert = maximize_regional_radius(p)
        assert d0 == cert.d0 == 0.0 and len(fits) == 22
        assert cert.params.delta == max(fits) == pytest.approx(0.20717, rel=1e-4)

    def test_certificate_built_from_witnesses(self):
        # g1 of a perturbed benchmark config: chi_min lands on the exact
        # psi2 boundary, where a golden-section lambda1 up to tol / 2 off
        # the optimum fails psi2 and no certificate could be emitted
        p = ProblemParams(n=1, k=1.0, g1=0.101824137087557, d=1.0)
        d0, cert = maximize_regional_radius(p, tstar_tol=0.01)
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
        monkeypatch.setattr(search, "DELTA_GRID", (1e-4, 1e-3, 4))
        maximize_regional_radius(ProblemParams(n=1, k=1.0, g1=0.1, d=1.0), tstar_tol=0.01)
        assert len(failures) == 2 and not calls
        assert "lambda_max(Phi)=" in str(failures[-1]) and len(calls) == 1

    def test_chi_grid_stays_below_one_half_at_n_1(self):
        # chi_min is at most the chi grid's top, the psi1 cut k/(1+k^2) <= 1/2
        # times 1 - 1e-9, so the regional radius, which needs chi < 1/2,
        # never sees a chi_min of 1/2 or more
        near_one = [1.0]
        for direction in (0.0, 2.0):
            k = 1.0
            for _ in range(50):
                k = float(np.nextafter(k, direction))
                near_one.append(k)
        for k in near_one + [float(k) for k in np.geomspace(1e-3, 1e3, 2001)]:
            _, hi, _ = search._chi_grid(ProblemParams(n=1, k=k))
            assert hi <= 0.4999999995, k

    def test_psi1_is_negative_on_every_chi_grid(self):
        # the stability scan does not test psi1 > margin: it holds nowhere
        # on the grid, and the bisection stays between grid points
        grids = 0
        ks = [float(k) for k in np.geomspace(1e-6, 1e6, 241)]
        for n in (1, 2, 3, 4, 8, 100):
            for k in ks + [float(np.nextafter(1.0, d)) for d in (0.0, 2.0)]:
                params = ProblemParams(n=n, k=k)
                try:
                    grid = np.geomspace(*search._chi_grid(params))
                except Infeasible:  # the cut is below CHI_LO: no grid
                    continue
                assert np.all(psi1_value(params, grid) < 0.0), (n, k)
                grids += 1
        assert grids > 800

    def test_preconditions(self):
        with pytest.raises(CertificateError, match="n = 1"):
            maximize_regional_radius(ProblemParams(n=2, k=1.0, g1=0.1, d=1.0))
        with pytest.raises(CertificateError, match="d "):
            maximize_regional_radius(ProblemParams(n=1, k=1.0, g1=0.1))


# ------------------------------------------------- work shared by a delta loop


class TestSharedScanWork:
    def test_a_regional_search_counts_its_work(self, monkeypatch):
        # work counters of criterion 3's first search, from a cleared cache:
        # params checked by ProblemParams (the cache's one and the final
        # point's), LMI entry evaluations and phi0 ruled-out passes over a
        # whole chi grid.  Before the grid and phi0's part were shared and
        # the witnesses shifted: 410 checks, 3,929 evaluations (1,555 of
        # them at a witness's multiplier) and 30 passes, one per delta
        counts = {"checks": 0, "entries": 0, "phi0 passes": 0}
        check = ProblemParams.__post_init__

        def checked(self):
            counts["checks"] += 1
            check(self)

        def counted(entries):
            def evaluate(params, chi, lam):
                counts["entries"] += 1
                if entries is phi0_entries and type(chi) is not float:
                    counts["phi0 passes"] += 1
                return entries(params, chi, lam)
            return evaluate

        params = ProblemParams(n=1, k=1.0, g1=0.1, d=1.0)
        monkeypatch.setattr(ProblemParams, "__post_init__", checked)
        for lmi in ("PSI2", "PHI0", "PHI_OBS"):
            record = getattr(search, lmi)
            monkeypatch.setattr(search, lmi, record._replace(entries=counted(record.entries)))
        search._chi_points.cache_clear()
        try:
            maximize_regional_radius(params, tstar_tol=0.01)
        finally:
            search._chi_points.cache_clear()
        assert counts == {"checks": 2, "entries": 2345, "phi0 passes": 1}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_the_shift_keeps_the_formulas_bits(self, n):
        # _shifted moves the entries at 0 to lam with the bits of the
        # formula at lam, -0.0 included: phi_obs at delta = 0 holds -a =
        # -0.0 and its (3,3) entry -0.0, and lam runs from +0.0 through
        # the subnormals and the smallest normal to the float maximum
        rng = np.random.default_rng(300 + n)
        tiny = sys.float_info.min
        wq = search._wq(n)
        zeros = 0
        for i in range(12):
            g1 = 0.0 if i % 3 == 0 else float(rng.uniform(0.0, 0.5))
            delta = 0.0 if i % 4 == 0 else float(10.0 ** rng.uniform(-4.0, 0.0))
            params = ProblemParams(n=n, k=float(rng.uniform(0.2, 2.0)), g1=g1,
                                   delta=delta, t_star=float(rng.uniform(0.5, 40.0)))
            chis = [0.0, float(rng.uniform(0.0, search._chi_cut(params)))]
            lams = [0.0, 5e-324, tiny / 2.0, math.nextafter(tiny, 0.0), tiny,
                    math.nextafter(tiny, 1.0), 1e-300, float(rng.uniform(0.0, 2.0)),
                    1e300, sys.float_info.max]
            for chi in chis:
                for entries, top in ((psi2_entries, True), (phi0_entries, False),
                                     (phi_obs_entries, True)):
                    a = entries(params, chi, 0.0)
                    zeros += sum(x == 0.0 and math.copysign(1.0, x) < 0.0 for x in a)
                    for lam in lams:
                        got = search._shifted(a, lam if top else -lam, wq)
                        want = entries(params, chi, lam)
                        assert [float(x).hex() for x in got] == [
                            float(x).hex() for x in want], (params, chi, entries, lam)
        assert zeros >= 6

    def test_the_shared_grid_is_read_only(self, monkeypatch):
        # the chi_min scan and find_feasible_vars's first scan take the same
        # read-only grid; a grid of another size is a grid of its own
        search._chi_points.cache_clear()
        params = ProblemParams(n=2, k=1.0, g1=0.1, delta=0.01)
        bounds = search._chi_grid(params)
        grid, out = search._chi_points(params.n, bounds)
        assert not grid.flags.writeable and not out.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 1.0
        assert _same_bits(grid, np.geomspace(*bounds))
        assert search._stability_ruled_out(params, bounds)[0] is grid
        scans = []
        real = search._best_multipliers
        monkeypatch.setattr(search, "_best_multipliers", lambda p, chi, lmis, *rule:
                            scans.append(chi) or real(p, chi, lmis, *rule))
        find_feasible_vars(replace(params, t_star=12.2))
        assert scans[0] is grid
        monkeypatch.setattr(search, "CHI_COUNT", 40)
        small = search._stability_ruled_out(params, search._chi_grid(params))[0]
        assert len(small) == 40 and not small.flags.writeable
        assert _same_bits(small, np.geomspace(*bounds[:2], 40))
        assert _hex_outcome(chi_min_stability, params) == _hex_outcome(
            scalar_chi_min_stability, params)

    def test_an_overflowing_delta_raises_as_replace_does(self, monkeypatch):
        # delta_margin's points skip ProblemParams's checks; 2 delta past
        # the float range raises the text ProblemParams gives for it
        monkeypatch.setattr(search, "_witness", lambda *args: 1.0)
        p = ProblemParams(n=1, k=1.0, delta=1e308)
        with pytest.raises(CertificateError, match="^delta must be finite, got inf$"):
            delta_margin(p, DecisionVars(chi=0.1))
        assert delta_margin(replace(p, delta=8e307), DecisionVars(chi=0.1)) == 8e307


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

    @pytest.mark.parametrize("n, g1", [(1, 0.0), (2, 0.1)])
    def test_a_zero_delta_is_floored(self, n, g1):
        # the floor holds on the saturated return too: a zero margin would
        # divide perturbed_recover's gain by alpha (1 - e^0) = 0
        p = ProblemParams(n=n, k=1.0, g1=g1, delta=0.0)
        assert delta_margin(p, find_feasible_vars(p)) == 1e-12

    def test_requires_delta(self):
        with pytest.raises(CertificateError, match="^delta is required$"):
            delta_margin(ProblemParams(n=1, k=1.0), DecisionVars(chi=0.3, lambda1=0.3))


# ------------------------------------------------ soundness over the space


def assert_holds_outright(cert):
    """Every LMI of cert holds with no margin as slack, each matrix rebuilt
    by the numpy oracles above and decided by numpy's eigvalsh."""
    p, v = cert.params, cert.vars
    phi0 = np.linalg.eigvalsh(phi0_np(p.n, v.chi, v.lambda0))[0]
    psi1 = -p.k + (1.0 + p.k * p.k * p.n) * v.chi
    psi2 = np.linalg.eigvalsh(psi2_np(p.n, p.k, p.g1, p.delta, v.chi, v.lambda1))[-1]
    phi_obs = np.linalg.eigvalsh(phi_obs_np(p.n, p.delta, p.t_star, v.chi, v.lambda2))[-1]
    assert phi0 > 0.0 and psi1 <= 0.0 and psi2 <= 0.0 and phi_obs < 0.0, (
        p, v, phi0, psi1, psi2, phi_obs)


def assert_rechecks(cert):
    """cert's document, read back as certify --vars reads it, passes
    check_point again with the margins cert carries."""
    back = certificate_from_dict(json.loads(json_dumps(certificate_to_dict(cert))))
    _, report = check_point(back.params, back.vars)
    assert report["feasible"] and report["margins"] == cert.margins, (cert, report)


@functools.cache
def _seeded_min_time_problems():
    """40 seeded problems, each as (params, outcome, on_grid): outcome is
    the search's (t_star, delta, cert) or its Infeasible text, and on_grid a
    DELTA_GRID point drawn for each feasible problem without a delta."""
    rng = np.random.default_rng(0)
    grid = np.geomspace(*search.DELTA_GRID)
    problems = []
    for _ in range(40):
        n = int(rng.integers(1, 4))
        k, g1 = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.0, 0.4))
        pinned = float(10.0 ** rng.uniform(-3.0, -1.0)) if rng.random() < 0.4 else None
        params = ProblemParams(n=n, k=k, g1=g1, delta=pinned)
        try:
            outcome = minimal_observability_time(params)
        except Infeasible as exc:
            problems.append((params, str(exc), None))
            continue
        on_grid = float(rng.choice(grid)) if pinned is None else None
        problems.append((params, outcome, on_grid))
    return problems


class TestSoundnessOverTheParameterSpace:
    """Seeded searches across n, k, g1 and delta end in Infeasible or in a
    certificate that holds outright and re-checks, and their windows and
    radii obey relations that need no oracle.  A pinned delta off
    DELTA_GRID can beat the grid: at n = 2, k = 1, g1 = 0.3 the grid gives
    t* = 18.248 and delta = 0.0421 gives 17.979, so the pinned-delta
    relation is asserted on grid points."""

    TOL = search.TSTAR_TOL

    def test_min_time_certificates(self):
        outcomes = []
        for params, outcome, on_grid in _seeded_min_time_problems():
            if isinstance(outcome, str):
                outcomes.append("infeasible")
                continue
            outcomes.append("certificate")
            t_star, delta, cert = outcome
            assert (cert.params.t_star, cert.params.delta) == (t_star, delta)
            assert_holds_outright(cert)
            assert_rechecks(cert)
            if on_grid is not None:
                # delta is a grid point, and pinning it repeats the window
                assert minimal_observability_time(replace(params, delta=delta))[0] == t_star
                try:
                    t_pinned = minimal_observability_time(replace(params, delta=on_grid))[0]
                except Infeasible:
                    continue
                assert t_pinned >= t_star - self.TOL, (params, on_grid, t_pinned, t_star)
        # 37 certificates and 3 Infeasible
        assert outcomes.count("certificate") >= 30, outcomes

    def test_sweep_rows_equal_their_single_searches(self):
        # the first half of the population, two of its problems Infeasible
        problems = _seeded_min_time_problems()[:20]
        rows = sweep([params for params, _, _ in problems]).rows
        for row, (params, outcome, _) in zip(rows, problems):
            if isinstance(outcome, str):
                assert (row.feasible, row.certificate, row.note) == (False, None, outcome)
            else:
                assert row.feasible and json_dumps(certificate_to_dict(row.certificate)) == (
                    json_dumps(certificate_to_dict(outcome[2]))), params

    def test_regional_certificates(self):
        rng = np.random.default_rng(1)
        for _ in range(8):
            params = ProblemParams(n=1, k=float(rng.uniform(0.3, 2.0)),
                                   g1=float(rng.uniform(0.02, 0.3)),
                                   d=float(rng.uniform(0.5, 2.0)))
            _, cert = maximize_regional_radius(params, tstar_tol=0.01)
            assert_holds_outright(cert)
            assert_rechecks(cert)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_the_radius_does_not_grow_with_g1(self, k):
        # d0 falls from 0.4998 at g1 = 0 to 0.0924 at g1 = 0.4 on each line
        radii = [maximize_regional_radius(ProblemParams(n=1, k=k, g1=g1, d=1.0),
                                          tstar_tol=0.01)[0]
                 for g1 in (0.0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4)]
        assert all(b <= a for a, b in zip(radii, radii[1:])), radii

    @pytest.mark.parametrize("n, k", [(1, 1.0), (2, 0.5)])
    def test_the_window_does_not_shrink_as_g1_grows(self, n, k):
        # each t* may sit up to one tstar_tol past its grid minimum
        windows = [minimal_observability_time(ProblemParams(n=n, k=k, g1=g1))[0]
                   for g1 in (0.0, 0.1, 0.2, 0.3)]
        assert all(b >= a - self.TOL for a, b in zip(windows, windows[1:])), windows


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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
        # delta above the psi1 cut k/(1+k^2) = 1/2: each row fails fast
        problems = [ProblemParams(n=1, k=1.0, delta=0.6)] * rows
        result = sweep(problems, worker_count=jobs)
        assert seen == workers
        assert len(result.rows) == rows

    @pytest.mark.parametrize("jobs", [0, -1, True, "2", 2.5, math.inf])
    def test_worker_count_must_be_a_positive_integer(self, jobs):
        # each of these ran serially, or raised a bare TypeError, unchecked
        problems = [ProblemParams(n=1, k=1.0, delta=0.6)] * 3
        with pytest.raises(CertificateError, match="worker_count must be an integer >= 1"):
            sweep(problems, worker_count=jobs)

    def test_row_errors_are_recorded_not_raised(self):
        p = ProblemParams(n=1, k=1.0, t_star=2.0)  # no delta: row-level error
        result = sweep([p])
        assert not result.rows[0].feasible
        assert "error" in result.rows[0].note

    def test_only_reported_errors_become_rows(self, monkeypatch):
        # a RuntimeError is an error row, as the CLI reports one; a TypeError
        # is a bug and reaches the caller
        def fail(exc):
            def window(*args):
                raise exc("planted")
            return window

        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.05)
        monkeypatch.setattr(search, "_observation_window", fail(RuntimeError))
        assert sweep([p], worker_count=1).rows[0].note == "error: planted"
        monkeypatch.setattr(search, "_observation_window", fail(TypeError))
        with pytest.raises(TypeError, match="planted"):
            sweep([p], worker_count=1)

    def test_empty_input_rejected(self):
        with pytest.raises(CertificateError):
            sweep([])
        with pytest.raises(CertificateError):
            SweepResult(())
