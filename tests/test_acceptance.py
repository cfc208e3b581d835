"""Acceptance gate: one test per shipped claim, one printed line each.

Each criterion is exercised at its stated tolerance through the public
surface (command line where the claim names a subcommand, library calls
otherwise).  Run with -s to see the PASS lines; a failure reads as the
criterion's FAIL line in the pytest report.
"""

import json
import math
import time

import numpy as np
import pytest

from test_smallmat import _eig_oracle, _random_sym_rows, upper

from wavecert import cli, observer, pde, search
from wavecert.certificates import (DecisionVars, ProblemParams,
                                   compute_alpha_beta,
                                   compute_regional_radius, make_certificate)
from wavecert.smallmat import eigenvalues

PI = math.pi


def _pass(number, message):
    print("criterion %d PASS: %s" % (number, message))


def _cli_json(argv, capsys, expect_code):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == expect_code, "exit %d != %d for %r" % (code, expect_code,
                                                          argv)
    return json.loads(out)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_criterion_1_table_min_times(tmp_path, capsys):
    """min-time, n=2, k=1: T* within 5% of [3.28, 4.3, 12.2, 38]."""
    rows = [(0.0, 1e-4, 3.28), (0.01, 0.01, 4.3), (0.1, 0.01, 12.2),
            (0.3, 0.01, 38.0)]
    started = time.monotonic()
    got = []
    for g1, delta, want in rows:
        cfg = write_json(tmp_path, "t%g.json" % g1,
                         {"problem": {"n": 2, "k": 1.0, "g1": g1,
                                      "delta": delta}})
        data = _cli_json(["min-time", "--config", cfg], capsys, 0)
        t_star = data["t_star"]
        assert abs(t_star - want) <= 0.05 * want, \
            "criterion 1 FAIL: g1=%g gave t_star=%.4f, not within 5%% of %g" \
            % (g1, t_star, want)
        got.append(t_star)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, "criterion 1 FAIL: took %.0fs" % elapsed
    _pass(1, "t_star = [%s] within 5%% of [3.28, 4.3, 12.2, 38] in %.0fs"
          % (", ".join("%.3f" % t for t in got), elapsed))


def test_criterion_2_one_dimensional_sharpness(tmp_path, capsys):
    """min-time, n=1, k=1, g1=0, delta=0.001: T* in [2.00, 2.06]."""
    cfg = write_json(tmp_path, "c2.json",
                     {"problem": {"n": 1, "k": 1.0, "g1": 0.0,
                                  "delta": 0.001}})
    data = _cli_json(["min-time", "--config", cfg], capsys, 0)
    t_star = data["t_star"]
    assert 2.00 <= t_star <= 2.06, \
        "criterion 2 FAIL: t_star=%.5f outside [2.00, 2.06]" % t_star
    _pass(2, "t_star = %.5f in [2.00, 2.06]" % t_star)


def test_criterion_3_regional_bounds(tmp_path, capsys):
    """Regional radius formula on reference inputs, then the full search."""
    p1 = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, t_star=3.78, d=1.0)
    r1 = compute_regional_radius(p1, DecisionVars(chi=0.1803))
    assert abs(r1.d0 - 0.2348) <= 0.001, \
        "criterion 3 FAIL: d0=%.5f not 0.2348 +- 0.001" % r1.d0
    assert abs(r1.t_max - 23.5) <= 0.3, \
        "criterion 3 FAIL: t_max=%.3f not 23.5 +- 0.3" % r1.t_max

    p2 = ProblemParams(n=1, k=1.0, g1=0.2, delta=0.09, t_star=5.49, d=1.0)
    r2 = compute_regional_radius(p2, DecisionVars(chi=0.2275))
    assert abs(r2.d0 - 0.1867) <= 0.001, \
        "criterion 3 FAIL: d0=%.5f not 0.1867 +- 0.001" % r2.d0
    assert abs(r2.t_max - 15.4) <= 0.3, \
        "criterion 3 FAIL: t_max=%.3f not 15.4 +- 0.3" % r2.t_max

    searched = []
    for g1, floor in ((0.1, 0.23), (0.2, 0.18)):
        cfg = write_json(tmp_path, "r%g.json" % g1,
                         {"problem": {"n": 1, "k": 1.0, "g1": g1, "d": 1.0},
                          "search": {"tstar_tol": 0.01}})
        data = _cli_json(["regional", "--config", cfg], capsys, 0)
        assert data["d0"] >= floor, \
            "criterion 3 FAIL: search d0=%.4f below %.2f at g1=%g" \
            % (data["d0"], floor, g1)
        searched.append(data["d0"])
    _pass(3, "d0 = %.4f/%.4f, t_max = %.2f/%.2f; search attains %.3f/%.3f"
          % (r1.d0, r2.d0, r1.t_max, r2.t_max, searched[0], searched[1]))


def test_criterion_4_recovery_split(tmp_path, capsys):
    """f = 0.1 z^2, k = 1, 10 iterations: converges at T=2.1, not at T=1.8."""
    outcomes = {}
    for horizon, expect_code in ((2.1, 0), (1.8, 2)):
        sim = {"points_per_axis": 201, "horizon": horizon, "k": 1.0,
               "nonlinearity": {"form": "quadratic", "coeff": 0.1,
                                "fz_bound": 0.2, "local_radius": 1.0},
               "initial": {"preset": "paper-example2"}}
        cfg = write_json(tmp_path, "f%g.json" % horizon, {"sim": sim})
        trace = str(tmp_path / ("trace%g.csv" % horizon))
        started = time.monotonic()
        assert cli.main(["simulate", "--config", cfg, "--out", trace]) == 0
        capsys.readouterr()
        report = str(tmp_path / ("run%g.json" % horizon))
        data = _cli_json(["recover", "--config", cfg, "--trace", trace,
                          "--iterations", "10", "--out", report],
                         capsys, expect_code)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, \
            "criterion 4 FAIL: T=%g case took %.0fs" % (horizon, elapsed)
        assert data["converged"] is (expect_code == 0), \
            "criterion 4 FAIL: T=%g converged=%s" % (horizon,
                                                     data["converged"])
        outcomes[horizon] = (data["converged"], len(data["iterations"]),
                             elapsed)
    _pass(4, "T=2.1 converged in %d iterations (%.1fs); T=1.8 not converged "
             "after %d (%.1fs)" % (outcomes[2.1][1], outcomes[2.1][2],
                                   outcomes[1.8][1], outcomes[1.8][2]))


def test_criterion_5_certified_decay():
    """Search certificates hold on simulation: V <= e^{-2 delta t} V(0) x1.05."""
    worst = 0.0
    for g1, delta in ((0.0, 0.1), (0.1, 0.09), (0.2, 0.05)):
        params = ProblemParams(n=1, k=1.0, g1=g1, delta=delta)
        vars = search.find_feasible_vars(params)
        make_certificate(params, vars)
        grid = pde.make_grid(1, 401, 10.0, mode="observer-forward", k=1.0)
        x = grid.axis()
        z0 = 0.2733 * x * (1 - x / 2)
        steps = round(10.0 / grid.dt)
        zero = pde.BoundaryTrace(np.zeros(steps + 1), grid.dt)
        nl = (pde.Nonlinearity(lambda z, x, t, g=g1: g * z, fz_bound=g1)
              if g1 else pde.ZERO_F)
        _, _, (_, V) = pde.run(pde.WaveField(z0, z0.copy()), 10.0, grid, nl,
                               trace_in=zero, chi=vars.chi)
        tt = np.arange(steps + 1) * grid.dt
        slack = float(np.max(V / (V[0] * np.exp(-2.0 * delta * tt))))
        assert slack <= 1.05, \
            "criterion 5 FAIL: slack %.4f > 1.05 at g1=%g" % (slack, g1)
        worst = max(worst, slack)
    _pass(5, "decay bound holds at N=401 over [0, 10]; worst slack %.4f "
             "<= 1.05" % worst)


def test_criterion_6_contraction_ratios():
    """Backward-error Lyapunov ratios below q x1.1 for all m >= 2."""
    params = ProblemParams(n=1, k=0.1, g1=0.0, delta=0.08)
    _, _, cert = search.minimal_observability_time(params)
    horizon = 4.0
    grid = pde.make_grid(1, 201, horizon, k=0.1)
    x = grid.axis()
    z0 = 0.2733 * x * (1 - x / 2)
    truth = pde.WaveField(z0, z0.copy())
    _, trace, _ = pde.run(truth, horizon, grid)
    config = observer.RecoveryConfig(horizon=horizon, m_max=6, grid=grid,
                                     certificate=cert, convergence_threshold=1e-12)
    run = observer.recover(trace, config, truth=truth)
    report = observer.contraction_report(run)
    assert report.slack == 0.1
    assert report.applicable, "criterion 6 FAIL: %s" % report.reason
    late = [row for row in report.rows if row["m"] >= 2]
    assert late, "criterion 6 FAIL: no iterations beyond m=1"
    for row in late:
        assert row["ratio"] <= report.q * 1.1, \
            "criterion 6 FAIL: m=%d ratio %.4f > q*1.1 = %.4f" \
            % (row["m"], row["ratio"], report.q * 1.1)
    _pass(6, "T=%.1f > t_star=%.3f: max V_b ratio %.4f <= q*1.1 = %.4f "
             "over m=2..%d" % (horizon, cert.params.t_star,
                               max(row["ratio"] for row in late),
                               report.q * 1.1, report.rows[-1]["m"]))


def test_criterion_7_property_suites():
    """Six randomized 1000-case suites at their stated tolerances."""
    # Wirtinger, trace and Sobolev residuals on random compliant fields
    rng = np.random.default_rng(20250817)
    mins = {"wirtinger": 0.0, "trace": 0.0, "sobolev": 0.0}
    for _ in range(1000):
        n_pts = int(rng.integers(31, 202))
        grid = pde.Grid(1, n_pts, 0.9 / (n_pts - 1), "plant", 0.0)
        x = grid.axis()
        z = np.zeros(n_pts)
        for j in range(int(rng.integers(1, 9))):
            z += rng.normal() * np.sin((j + 0.5) * PI * x)
        if rng.uniform() < 0.3:
            z = np.sin(PI * x / 2) + 0.01 * z  # crowd the extremal mode
        f = pde.WaveField(z, np.zeros_like(z))
        mins["wirtinger"] = min(mins["wirtinger"], pde.wirtinger_check(f, grid))
        mins["trace"] = min(mins["trace"], pde.trace_check(f, grid))
        mins["sobolev"] = min(mins["sobolev"], pde.sobolev_check(f, grid))
    for name, value in mins.items():
        assert value >= -1e-8, \
            "criterion 7 FAIL: %s residual %.3e < -1e-8" % (name, value)

    # growth bound E(t) <= e^{2 g1 t / pi} E(0) on random short runs
    rng = np.random.default_rng(20250815)
    growth_worst = 0.0
    for _ in range(1000):
        n_pts = int(rng.integers(81, 162))
        grid = pde.make_grid(1, n_pts, 0.4)
        x = grid.axis()
        z = np.zeros(n_pts)
        v = np.zeros(n_pts)
        for j in range(int(rng.integers(1, 4))):
            z += rng.normal() * np.sin((j + 0.5) * PI * x)
            v += rng.normal() * np.sin((j + 0.5) * PI * x)
        g1 = float(rng.uniform(0.0, 0.5))
        kind = int(rng.integers(0, 3))
        if kind == 0 or g1 == 0.0:
            nl, g_used = pde.ZERO_F, 0.0
        elif kind == 1:
            c = g1 * (1.0 if rng.uniform() < 0.5 else -1.0)
            nl = pde.Nonlinearity(lambda z, x, t, c=c: c * z, fz_bound=g1)
            g_used = g1
        else:
            nl = pde.Nonlinearity(lambda z, x, t, g=g1: g * np.sin(z),
                                  fz_bound=g1)
            g_used = g1
        _, _, E = pde.run(pde.WaveField(z, v), 0.4, grid, nl)
        tt = np.arange(E.size) * grid.dt
        over = float(np.max(E / (E[0] * np.exp(2.0 * g_used * tt / PI)))) - 1.0
        growth_worst = max(growth_worst, over)
        assert over <= 1e-3, \
            "criterion 7 FAIL: growth overshoot %.3e > 1e-3" % over

    # alpha E <= V <= beta E on random fields for certified (chi, lambda0)
    rng = np.random.default_rng(20250816)
    sandwich_worst = math.inf
    done_1d = done_2d = 0
    while done_1d < 600:
        chi = float(rng.uniform(0.01, 0.45))
        k = float(rng.uniform(0.2, 2.0))
        alpha, beta = compute_alpha_beta(ProblemParams(n=1, k=k),
                                         DecisionVars(chi=chi, lambda0=1e-6))
        n_pts = int(rng.integers(41, 162))
        grid = pde.Grid(1, n_pts, 0.9 / (n_pts - 1), "observer-forward", k)
        x = grid.axis()
        z = np.zeros(n_pts)
        v = np.zeros(n_pts)
        for j in range(int(rng.integers(1, 7))):
            z += rng.normal() * np.sin((j + 0.5) * PI * x)
            v += rng.normal() * np.sin((j + 0.5) * PI * x)
        f = pde.WaveField(z, v)
        E = pde.energy(f, grid)
        V = pde.lyapunov(f, grid, chi)
        sandwich_worst = min(sandwich_worst,
                             (V - alpha * E) / max(E, 1e-30),
                             (beta * E - V) / max(E, 1e-30))
        done_1d += 1
    while done_2d < 400:
        chi = float(rng.uniform(0.005, 0.12))
        lam0 = float(rng.uniform(0.02, 0.4))
        k = float(rng.uniform(0.2, 2.0))
        try:
            alpha, beta = compute_alpha_beta(
                ProblemParams(n=2, k=k), DecisionVars(chi=chi, lambda0=lam0))
        except Exception:
            continue  # uncertified pair: not in this suite's domain
        n_pts = int(rng.integers(21, 42))
        grid = pde.Grid(2, n_pts, 0.6 / (n_pts - 1), "observer-forward", k)
        x1, x2 = grid.coords()
        z = np.zeros_like(x1)
        v = np.zeros_like(x1)
        for _ in range(int(rng.integers(1, 4))):
            i, j = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            m = np.sin((i - 0.5) * PI * x1) * np.sin((j - 0.5) * PI * x2)
            z += rng.normal() * m
            v += rng.normal() * m
        f = pde.WaveField(z, v)
        E = pde.energy(f, grid)
        V = pde.lyapunov(f, grid, chi)
        sandwich_worst = min(sandwich_worst,
                             (V - alpha * E) / max(E, 1e-30),
                             (beta * E - V) / max(E, 1e-30))
        done_2d += 1
    assert sandwich_worst >= -1e-6, \
        "criterion 7 FAIL: sandwich margin %.3e < -1e-6" % sandwich_worst

    # both extremes of the 3x3 kernel against the characteristic polynomial
    # oracle; every LMI block is 3x3
    rng = np.random.default_rng(20250818)
    eig_worst = 0.0
    for _ in range(1000):
        rows = _random_sym_rows(rng, 3)
        got = eigenvalues(upper(rows))
        want = _eig_oracle(rows)
        for g, w in zip(got, (want[0], want[-1])):
            err = abs(g - w) / (1.0 + abs(w))
            eig_worst = max(eig_worst, err)
            assert err <= 1e-10, \
                "criterion 7 FAIL: eigenvalue error %.3e > 1e-10" % err

    _pass(7, "1000-case suites: min residuals w=%.1e t=%.1e s=%.1e >= -1e-8; "
             "growth overshoot %.1e <= 1e-3; sandwich margin %.1e; "
             "eig error %.1e <= 1e-10"
          % (mins["wirtinger"], mins["trace"], mins["sobolev"], growth_worst,
             sandwich_worst, eig_worst))


def test_criterion_8_sweep_determinism(tmp_path, capsys):
    """sweep --jobs 1 and --jobs 8 write byte-identical CSVs."""
    cfg = write_json(tmp_path, "sweep.json", {
        "problems": [
            {"n": 1, "k": 1.0, "g1": 0.0, "delta": 0.001},
            {"n": 1, "k": 1.0, "g1": 0.1, "delta": 0.05},
            {"n": 1, "k": 1.0, "g1": 5.0, "delta": 0.4},
        ],
        "search": {"tstar_tol": 0.01},
    })
    out1 = str(tmp_path / "jobs1.csv")
    out8 = str(tmp_path / "jobs8.csv")
    assert cli.main(["sweep", "--config", cfg, "--jobs", "1",
                     "--out", out1]) == 0
    assert cli.main(["sweep", "--config", cfg, "--jobs", "8",
                     "--out", out8]) == 0
    capsys.readouterr()
    bytes1 = open(out1, "rb").read()
    bytes8 = open(out8, "rb").read()
    assert bytes1 == bytes8, "criterion 8 FAIL: CSVs differ between job counts"
    assert bytes1.splitlines()[0] == (b"n,k,g1,delta,t_star,chi,lambda0,"
                                      b"lambda1,lambda2,alpha,beta,d0,feasible")
    _pass(8, "--jobs 1 and --jobs 8 CSVs byte-identical (%d bytes)"
          % len(bytes1))
