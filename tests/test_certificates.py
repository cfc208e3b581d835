"""Tests for the LMI builders, feasibility checks and derived constants.

Every matrix assembled by wavecert.certificates is re-derived here with plain
numpy expressions, so a slip in the packed symmetric storage cannot hide
behind the implementation under test.  Scalar outputs (alpha/beta, ISS gain,
regional radius, q) are pinned against hand-worked numbers that were computed
independently and frozen as literals.
"""

import json
import math

import numpy as np
import pytest
from scipy import optimize

from test_smallmat import full_rows, jacobi_eigenvalues

from wavecert import certificates as cert
from wavecert import search, smallmat
from wavecert.certificates import (
    Certificate,
    CertificateError,
    DecisionVars,
    ProblemParams,
    build_phi0,
    build_phi1,
    build_phi_obs,
    build_psi1,
    build_psi2,
    certificate_at,
    certificate_from_dict,
    certificate_to_dict,
    check_observability,
    check_point,
    check_stability,
    compute_alpha_beta,
    compute_iss_gain,
    compute_regional_radius,
    fmt_float,
    json_dumps,
    make_certificate,
)

PI2 = math.pi * math.pi


# ------------------------------------------------------------- numpy oracles
# independent re-derivations of the four matrices; these are the reference
# against which the packed-storage builders are compared entry by entry


def wq(n):
    return 4.0 / (PI2 * n)


def phi0_np(n, chi, lam0):
    rn = math.sqrt(n)
    return np.array(
        [
            [0.5 - lam0 * wq(n), rn * chi, 0.0],
            [rn * chi, 0.5, (n - 1) * chi / 2.0],
            [0.0, (n - 1) * chi / 2.0, lam0],
        ]
    )


def phi1_np(n, chi, lam0):
    m = phi0_np(n, chi, lam0)
    m[0, 0] += lam0 * wq(n)
    return m


def psi1_np(n, k, chi):
    return -k + (1.0 + k * k * n) * chi


def psi2_np(n, k, g1, delta, chi, lam1):
    rn = math.sqrt(n)
    return np.array(
        [
            [
                -chi + delta * (1.0 + chi * k * (n - 1)) + lam1 * wq(n),
                2.0 * delta * rn * chi,
                rn * g1 * chi,
            ],
            [2.0 * delta * rn * chi, -chi + delta, 0.5 * g1 + delta * (n - 1) * chi],
            [rn * g1 * chi, 0.5 * g1 + delta * (n - 1) * chi, -lam1 + g1 * (n - 1) * chi],
        ]
    )


def phi_obs_np(n, delta, t_star, chi, lam2):
    es = math.exp(-2.0 * delta * t_star)
    a = 0.5 * (1.0 - es)
    rn = math.sqrt(n)
    return np.array(
        [
            [-a + lam2 * wq(n), rn * (1.0 + es) * chi, 0.0],
            [rn * (1.0 + es) * chi, -a, 0.5 * (n - 1) * (1.0 + es) * chi],
            [0.0, 0.5 * (n - 1) * (1.0 + es) * chi, -lam2],
        ]
    )


def as_np(m):
    return np.array(full_rows(m))


def phi_feasible_oracle(n, delta, t_star, chi):
    """Does some lambda2 make the observability matrix negative definite?

    Uses scipy's bounded scalar minimizer over lambda2 as an independent
    check of the feasibility predicates under test.
    """
    es = math.exp(-2.0 * delta * t_star)
    hi = 0.5 * (1.0 - es) * PI2 * n / 4.0
    if hi <= 1e-14:
        return False

    def top(lam2):
        return np.linalg.eigvalsh(phi_obs_np(n, delta, t_star, chi, lam2))[-1]

    res = optimize.minimize_scalar(top, bounds=(1e-14, hi), method="bounded",
                                   options={"xatol": 1e-13})
    best = min(res.fun, top(1e-14), top(hi))
    return best < 0.0


# --------------------------------------------------------------- fixed points
# feasibility witnesses computed offline and frozen; the margins quoted in
# comments were produced by an independent numpy/scipy run

STAB_1D = (
    ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1),
    DecisionVars(chi=0.18035, lambda1=0.09470606),
)

# same parameters, chi rounded down by 5e-5: the decay LMI misses by a hair
# (lambda_max ~ +2.6e-5 for every admissible lambda1)
STAB_1D_NEARMISS_CHI = 0.1803

OBS_2D = (
    ProblemParams(n=2, k=1.0, g1=0.0, delta=1e-4, t_star=3.2801),
    DecisionVars(
        chi=1.000380629940e-4,
        lambda0=0.415751,
        lambda1=1.897544e-8,
        lambda2=2.221784e-4,
    ),
)

OBS_1D_WIDE = (
    ProblemParams(n=1, k=1.0, g1=0.2, delta=0.09, t_star=5.49),
    DecisionVars(chi=0.2275, lambda0=0.01, lambda1=0.19095830, lambda2=0.001406),
)


# ------------------------------------------------------------------ validation


class TestProblemParams:
    def test_basic_construction(self):
        p = ProblemParams(n=2, k=1.0, g1=0.5)
        assert p.n == 2 and p.k == 1.0 and p.g1 == 0.5
        assert p.delta is None and p.t_star is None

    def test_integral_float_n_accepted(self):
        p = ProblemParams(n=3.0, k=0.5)
        assert p.n == 3 and isinstance(p.n, int)

    @pytest.mark.parametrize("n", [0, -1, 2.5, True])
    def test_bad_n_rejected(self, n):
        with pytest.raises(CertificateError):
            ProblemParams(n=n, k=1.0)

    @pytest.mark.parametrize("kw", [{"k": 0.0}, {"k": -1.0}, {"k": math.nan},
                                    {"k": 1.0, "g1": -0.1},
                                    {"k": 1.0, "t_star": 0.0},
                                    {"k": 1.0, "d": -2.0},
                                    {"k": 1.0, "delta": -0.01},
                                    {"k": [1.0]}, {"k": "1.5"},
                                    {"k": 1.0, "g1": True}])
    def test_bad_scalars_rejected(self, kw):
        with pytest.raises(CertificateError):
            ProblemParams(n=1, **kw)

    def test_delta_zero_allowed(self):
        # marginal rate: the decay matrix is still well defined at delta = 0
        assert ProblemParams(n=1, k=1.0, delta=0.0).delta == 0.0

    def test_horizon_ordering(self):
        with pytest.raises(CertificateError):
            ProblemParams(n=1, k=1.0, t_star=2.0, t_total=1.9)
        p = ProblemParams(n=1, k=1.0, t_star=2.0, t_total=2.0)
        assert p.t_total == 2.0

    def test_dict_round_trip_omits_unset(self):
        p = ProblemParams(n=2, k=0.5, g1=0.1, delta=0.01)
        d = p.to_dict()
        assert set(d) == {"n", "k", "g1", "delta"}
        assert ProblemParams.from_dict(d) == p

    def test_from_dict_rejects_unknown_and_missing(self):
        with pytest.raises(CertificateError, match="unknown"):
            ProblemParams.from_dict({"n": 1, "k": 1.0, "kk": 2.0})
        with pytest.raises(CertificateError):
            ProblemParams.from_dict({"n": 1})


class TestDecisionVars:
    def test_chi_zero_allowed(self):
        assert DecisionVars(chi=0.0).chi == 0.0

    @pytest.mark.parametrize("kw", [{"chi": -1e-9}, {"chi": math.inf},
                                    {"chi": 0.1, "lambda1": 0.0},
                                    {"chi": 0.1, "lambda2": -1.0},
                                    {"chi": 0.1, "lambda0": 0.0},
                                    {"chi": 0.1, "lambda0": math.nan},
                                    {"chi": True}, {"chi": "0.1"},
                                    {"chi": 0.1, "lambda1": [0.2]}])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(CertificateError):
            DecisionVars(**kw)

    def test_dict_round_trip(self):
        v = DecisionVars(chi=0.1, lambda1=0.2)
        d = v.to_dict()
        assert set(d) == {"chi", "lambda1"}
        assert DecisionVars.from_dict(d) == v
        with pytest.raises(CertificateError, match="unknown"):
            DecisionVars.from_dict({"chi": 0.1, "mu": 1.0})

    def test_iss_gain_is_not_a_variable(self):
        # compute_iss_gain derives (r, gamma); a document cannot supply them
        for extra, says in (({"r": 5}, "r"), ({"gamma": 1e-30}, "gamma"),
                            ({"r": 5, "gamma": 1e30}, "gamma, r")):
            with pytest.raises(CertificateError,
                               match="^unknown variable keys: %s$" % says):
                DecisionVars.from_dict(dict({"chi": 0.1, "lambda1": 0.2}, **extra))


# -------------------------------------------------------------------- builders


class TestBuilders:
    def test_phi0_hand_entries_1d(self):
        p = ProblemParams(n=1, k=1.0)
        v = DecisionVars(chi=0.1, lambda0=0.01)
        rows = as_np(build_phi0(p, v))
        expect = np.array(
            [[0.5 - 0.01 * 4.0 / PI2, 0.1, 0.0], [0.1, 0.5, 0.0], [0.0, 0.0, 0.01]]
        )
        assert np.array_equal(rows, expect)

    def test_phi0_chi_zero_is_diagonal(self):
        p = ProblemParams(n=3, k=1.0)
        v = DecisionVars(chi=0.0, lambda0=0.2)
        m = build_phi0(p, v)
        rows = as_np(m)
        assert np.array_equal(rows, np.diag(np.diag(rows)))
        lam = smallmat.eigenvalues(m)
        diag = sorted(np.diag(rows))
        assert lam == pytest.approx((diag[0], diag[-1]), rel=1e-14)

    def test_phi0_lambda0_defaults_for_1d_only(self):
        p1 = ProblemParams(n=1, k=1.0)
        m = build_phi0(p1, DecisionVars(chi=0.1))
        assert m[5] == cert.DEFAULT_LAMBDA0_1D
        with pytest.raises(CertificateError, match="lambda0"):
            build_phi0(ProblemParams(n=2, k=1.0), DecisionVars(chi=0.1))

    def test_phi1_shifts_only_first_entry(self):
        p = ProblemParams(n=2, k=1.0)
        v = DecisionVars(chi=0.05, lambda0=0.1)
        d = as_np(build_phi1(p, v)) - as_np(build_phi0(p, v))
        assert d[0, 0] == pytest.approx(0.1 * wq(2), rel=1e-15)
        d[0, 0] = 0.0
        assert np.all(d == 0.0)

    def test_psi1_scalar_values(self):
        assert build_psi1(ProblemParams(n=1, k=1.0), DecisionVars(chi=0.4)) == \
            pytest.approx(-0.2, abs=1e-15)
        assert build_psi1(ProblemParams(n=1, k=1.0), DecisionVars(chi=0.5)) == \
            pytest.approx(0.0, abs=1e-15)
        assert build_psi1(ProblemParams(n=2, k=0.5), DecisionVars(chi=0.2)) == \
            pytest.approx(-0.2, abs=1e-15)

    def test_psi2_1d_shape_ignores_k(self):
        # for n = 1 the boundary gain k drops out of the decay matrix entirely
        chi, delta, g1, lam1 = 0.2, 0.1, 0.3, 0.15
        p = ProblemParams(n=1, k=7.0, g1=g1, delta=delta)
        rows = as_np(build_psi2(p, DecisionVars(chi=chi, lambda1=lam1)))
        expect = np.array(
            [
                [-chi + delta + lam1 * 4.0 / PI2, 2.0 * delta * chi, g1 * chi],
                [2.0 * delta * chi, -chi + delta, 0.5 * g1],
                [g1 * chi, 0.5 * g1, -lam1],
            ]
        )
        assert np.array_equal(rows, expect)

    def test_psi2_decoupled_case_is_diagonal(self):
        # delta = 0, g1 = 0 leaves a pure diagonal; feasible iff
        # lambda1 <= chi pi^2 n / 4, so the midpoint multiplier passes
        chi = 0.3
        lam1 = chi * PI2 * 2 / 8.0
        p = ProblemParams(n=2, k=1.0, g1=0.0, delta=0.0)
        m = build_psi2(p, DecisionVars(chi=chi, lambda1=lam1))
        rows = as_np(m)
        assert np.array_equal(rows, np.diag([-chi + lam1 * wq(2), -chi, -lam1]))
        assert smallmat.eigenvalues(m)[-1] <= 0.0
        assert smallmat.eigenvalues(m)[-1] == pytest.approx(-chi / 2.0, rel=1e-14)

    def test_phi_obs_1d_eigs_decouple(self):
        p = ProblemParams(n=1, k=1.0, delta=0.1, t_star=2.0)
        v = DecisionVars(chi=0.15, lambda2=0.02)
        rows = as_np(build_phi_obs(p, v))
        lam = smallmat.eigenvalues(build_phi_obs(p, v))
        block = np.linalg.eigvalsh(rows[:2, :2])
        want = sorted([block[0], block[1], -0.02])
        assert lam == pytest.approx((want[0], want[-1]), rel=1e-12)

    def test_phi_obs_long_horizon_limit(self):
        # exp(-2 delta t_star) ~ 0 wipes the memory of the initial energy
        p = ProblemParams(n=2, k=1.0, delta=5.0, t_star=10.0)
        v = DecisionVars(chi=0.1, lambda2=0.3)
        rows = as_np(build_phi_obs(p, v))
        rn = math.sqrt(2)
        expect = np.array(
            [[-0.5 + 0.3 * wq(2), rn * 0.1, 0.0], [rn * 0.1, -0.5, 0.05], [0.0, 0.05, -0.3]]
        )
        assert rows == pytest.approx(expect, abs=1e-12)

    def test_phi_obs_negative_definite_example(self):
        # frozen reference: lambda_max = -6.8647e-5 at this witness
        p = ProblemParams(n=1, k=1.0, delta=0.1, t_star=3.78)
        v = DecisionVars(chi=0.1803, lambda2=1e-3)
        m = build_phi_obs(p, v)
        assert smallmat.eigenvalues(m)[-1] < -1e-9
        assert smallmat.eigenvalues(m)[-1] == pytest.approx(-6.8647340579625071e-05, rel=1e-9)

    def test_builders_match_numpy_oracle(self):
        rng = np.random.default_rng(20240612)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            k = float(rng.uniform(0.05, 3.0))
            g1 = float(rng.uniform(0.0, 1.0))
            delta = float(rng.uniform(0.0, 0.5))
            t_star = float(rng.uniform(0.1, 30.0))
            chi = float(rng.uniform(0.0, 0.6))
            lam0 = float(rng.uniform(1e-6, 2.0))
            lam1 = float(rng.uniform(1e-6, 2.0))
            lam2 = float(rng.uniform(1e-6, 2.0))
            p = ProblemParams(n=n, k=k, g1=g1, delta=delta, t_star=t_star)
            v = DecisionVars(chi=chi, lambda0=lam0, lambda1=lam1, lambda2=lam2)
            pairs = [
                (build_phi0(p, v), phi0_np(n, chi, lam0)),
                (build_phi1(p, v), phi1_np(n, chi, lam0)),
                (build_psi2(p, v), psi2_np(n, k, g1, delta, chi, lam1)),
                (build_phi_obs(p, v), phi_obs_np(n, delta, t_star, chi, lam2)),
            ]
            for built, oracle in pairs:
                assert as_np(built) == pytest.approx(oracle, rel=1e-14, abs=1e-300)
            assert build_psi1(p, v) == psi1_np(n, k, chi)

    def test_missing_inputs_raise(self):
        v = DecisionVars(chi=0.1, lambda1=0.1, lambda2=0.1)
        with pytest.raises(CertificateError, match="delta"):
            build_psi2(ProblemParams(n=1, k=1.0), v)
        with pytest.raises(CertificateError, match="t_star"):
            build_phi_obs(ProblemParams(n=1, k=1.0, delta=0.1), v)
        p = ProblemParams(n=1, k=1.0, delta=0.1, t_star=1.0)
        with pytest.raises(CertificateError, match="lambda1"):
            build_psi2(p, DecisionVars(chi=0.1))
        with pytest.raises(CertificateError, match="lambda2"):
            build_phi_obs(p, DecisionVars(chi=0.1))


# ---------------------------------------------------------------------- checks


class TestStabilityCheck:
    def test_feasible_witness(self):
        p, v = STAB_1D
        report = check_stability(p, v)
        assert report["feasible"]
        assert report["phi0_ok"] and report["psi1_ok"] and report["psi2_ok"]
        assert report["margins"]["psi1"] == pytest.approx(-0.6393, abs=1e-12)
        # frozen reference: lambda_max(psi2) = -3.0019e-6 at this witness
        assert report["margins"]["psi2"] == pytest.approx(-3.0019412063485462e-06, rel=1e-6)
        # lambda0 defaults to 1e-6 and sits decoupled on the diagonal
        assert report["margins"]["phi0"] == pytest.approx(1e-6, rel=1e-12)

    def test_rounded_chi_fails_for_every_lambda1(self):
        # chi = 0.1803 misses negative semidefiniteness by ~2.6e-5 no matter
        # how lambda1 is tuned; the feasibility boundary is genuinely between
        # 0.1803 and 0.18035 for these parameters
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1)
        for lam1 in np.linspace(1e-4, STAB_1D_NEARMISS_CHI * PI2 / 4.0, 61):
            report = check_stability(p, DecisionVars(chi=STAB_1D_NEARMISS_CHI,
                                                     lambda1=float(lam1)))
            assert not report["psi2_ok"]
        report = check_stability(p, DecisionVars(chi=STAB_1D_NEARMISS_CHI,
                                                 lambda1=0.09470606))
        assert report["margins"]["psi2"] > cert.MARGIN

    def test_chi_beyond_boundary_cap_fails(self):
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.01)
        report = check_stability(p, DecisionVars(chi=0.6, lambda1=0.1))
        assert not report["psi1_ok"]
        assert not report["phi0_ok"]
        assert not report["feasible"]

    def test_strong_nonlinearity_clears_grid(self):
        # g1 = 10 overwhelms every (chi, lambda1) pair on a coarse grid
        p = ProblemParams(n=1, k=1.0, g1=10.0, delta=0.1)
        for chi in np.geomspace(1e-4, 0.499, 25):
            for lam1 in np.geomspace(1e-6, float(chi) * PI2 / 4.0, 25):
                report = check_stability(p, DecisionVars(chi=float(chi),
                                                         lambda1=float(lam1)))
                assert not report["feasible"]



class TestObservabilityCheck:
    def test_two_dimensional_witness(self):
        p, v = OBS_2D
        report = check_observability(p, v)
        assert report["feasible"]
        # psi2 sits inside the slack band: barely positive but tolerated
        assert 0.0 < report["margins"]["psi2"] <= cert.MARGIN
        # the strict inequality must clear the margin with room to spare
        assert report["margins"]["phi_obs"] < -cert.MARGIN
        assert report["margins"]["phi_obs"] == pytest.approx(-2.4205861974520403e-08, rel=1e-6)

    def test_margin_semantics_are_one_sided(self):
        # the margin is slack for the non-strict psi2 only up to its own
        # size: OBS_2D's psi2 inside it passes, this one past it fails
        p, v = OBS_1D_WIDE
        report = check_observability(p, v)
        assert report["margins"]["psi2"] == pytest.approx(1.143902127890061e-05, rel=1e-6)
        assert not report["psi2_ok"]
        assert not report["feasible"]

    def test_tiny_time_is_unobservable(self):
        # frozen oracle scan: no lambda2 certifies t_star = 1e-3 at delta = 0.1
        p = ProblemParams(n=1, k=1.0, delta=0.1, t_star=1e-3)
        es = math.exp(-2.0 * 0.1 * 1e-3)
        hi = 0.5 * (1.0 - es) * PI2 / 4.0
        for lam2 in np.geomspace(1e-12, hi, 60):
            report = check_observability(p, DecisionVars(chi=0.01, lambda1=0.01,
                                                         lambda2=float(lam2)))
            assert not report["phi_obs_ok"]
        assert not phi_feasible_oracle(1, 0.1, 1e-3, 0.01)


class TestAlphaBeta:
    def test_sharp_pair_1d(self):
        p, v = STAB_1D
        alpha, beta = compute_alpha_beta(p, v)
        assert alpha == pytest.approx(1.0 - 2.0 * 0.18035, abs=1e-15)
        assert beta == pytest.approx(1.0 + 2.0 * 0.18035, abs=1e-15)
        assert abs(alpha + beta - 2.0) <= 5e-16

    def test_sharp_pair_collapses_at_chi_zero(self):
        p = ProblemParams(n=1, k=1.0)
        alpha, beta = compute_alpha_beta(p, DecisionVars(chi=0.0))
        assert (alpha, beta) == (1.0, 1.0)

    def test_general_pair_matches_oracle(self):
        p = ProblemParams(n=2, k=1.0)
        v = DecisionVars(chi=0.05, lambda0=0.1)
        alpha, beta = compute_alpha_beta(p, v)
        assert alpha == pytest.approx(0.19678247408749477, rel=1e-10)
        assert beta == pytest.approx(1.3085386096971741, rel=1e-10)

    def test_general_pair_random_against_numpy(self):
        rng = np.random.default_rng(20240613)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            k = float(rng.uniform(0.1, 2.0))
            chi = float(rng.uniform(0.0, 0.2))
            lam0 = float(rng.uniform(0.01, 1.0))
            p = ProblemParams(n=n, k=k)
            v = DecisionVars(chi=chi, lambda0=lam0)
            m0 = phi0_np(n, chi, lam0)
            if np.linalg.eigvalsh(m0)[0] <= 0.0:
                with pytest.raises(CertificateError):
                    compute_alpha_beta(p, v)
                continue
            alpha, beta = compute_alpha_beta(p, v)
            a_ref = 2.0 * np.linalg.eigvalsh(m0)[0]
            b_ref = (2.0 * (1.0 + 2.0 / (PI2 * n)) *
                     np.linalg.eigvalsh(phi1_np(n, chi, lam0))[-1] + chi * k * (n - 1))
            assert alpha == pytest.approx(a_ref, rel=1e-10)
            assert beta == pytest.approx(b_ref, rel=1e-10)
            assert 0.0 < alpha <= beta

    def test_indefinite_phi0_raises(self):
        p = ProblemParams(n=1, k=1.0)
        with pytest.raises(CertificateError, match="positive definite"):
            compute_alpha_beta(p, DecisionVars(chi=0.6))


class TestMarginBits:
    """Every certificate margin has the bits of the general Jacobi on the
    full rows of its matrix, also within a few ulps of an LMI boundary."""

    MATRICES = (cert.PHI0, cert.PSI2, cert.PHI_OBS)

    @staticmethod
    def boundary_multipliers(params, chi, lmi):
        # the ends of the span where the decisive eigenvalue clears 0, each
        # with its two float neighbours on either side, and the witness at
        # MARGIN
        _, n0, lo, hi = search._clearing(params, chi, lmi.entries, lmi.multiplier, 0.0,
                                         lmi.top)
        span = search._span(n0, wq(params.n), lo, hi)
        lams = []
        if span is not None and span[0] < span[1]:
            for end in span:
                below = math.nextafter(end, -math.inf)
                above = math.nextafter(end, math.inf)
                lams += [math.nextafter(below, -math.inf), below, end, above,
                         math.nextafter(above, math.inf)]
        witness = search._witness(params, chi, lmi)
        if witness is not None:
            lams.append(witness)
        return [lam for lam in lams if lam > 0.0]

    def points(self):
        rng = np.random.default_rng(20261019)
        for n in (1, 2, 3):
            for _ in range(12):
                p = ProblemParams(n=n, k=float(rng.uniform(0.2, 2.0)),
                                  g1=float(rng.choice([0.0, rng.uniform(0.0, 0.5)])),
                                  delta=float(10.0 ** rng.uniform(-4, -1)),
                                  t_star=float(rng.uniform(1.0, 40.0)))
                chi = float(rng.uniform(1e-3, 0.45))
                lams = {lmi.multiplier: self.boundary_multipliers(p, chi, lmi)
                        for lmi in self.MATRICES}
                # each LMI in turn at each of its boundary multipliers, the
                # others at their first
                first = {name: (got[0] if got else 0.1) for name, got in lams.items()}
                for name, got in lams.items():
                    for lam in got:
                        yield p, DecisionVars(chi=chi, **dict(first, **{name: lam}))
        # the pinned searches' certificates, whose chi and t_star bisections
        # end on a boundary
        for p in (ProblemParams(n=2, k=1.0, g1=0.1, delta=0.01),
                  ProblemParams(n=1, k=1.0, g1=0.0, delta=0.001)):
            _, _, c = search.minimal_observability_time(p)
            yield c.params, c.vars

    def test_margins_match_general_jacobi_bits(self):
        near = 0
        for p, v in self.points():
            built = {"phi0": build_phi0(p, v), "phi1": build_phi1(p, v),
                     "psi2": build_psi2(p, v), "phi_obs": build_phi_obs(p, v)}
            assert type(build_psi1(p, v)) is float
            for entries in built.values():
                assert len(entries) == 6 and all(type(x) is float for x in entries)
            eig = {name: jacobi_eigenvalues(full_rows(ent)) for name, ent in built.items()}
            margins = check_observability(p, v)["margins"]
            want = {"phi0": eig["phi0"][0], "psi1": build_psi1(p, v),
                    "psi2": eig["psi2"][-1], "phi_obs": eig["phi_obs"][-1]}
            assert {k: x.hex() for k, x in margins.items()} == \
                {k: x.hex() for k, x in want.items()}
            near += min(abs(want[k]) for k in ("phi0", "psi2", "phi_obs")) < 1e-12
            if not eig["phi0"][0] > 0.0:
                with pytest.raises(CertificateError, match="phi0"):
                    compute_alpha_beta(p, v)
                continue
            n, k, chi = p.n, p.k, v.chi
            if n == 1:
                want_ab = (1.0 - 2.0 * chi, 1.0 + 2.0 * chi)
            else:
                want_ab = (2.0 * eig["phi0"][0],
                           2.0 * (1.0 + 2.0 / (PI2 * n)) * eig["phi1"][-1]
                           + chi * k * (n - 1))
            assert [x.hex() for x in compute_alpha_beta(p, v)] == \
                [x.hex() for x in want_ab]
        # the sweep really visits the boundaries, not just their neighbourhood
        assert near > 100


class TestIssGain:
    def test_closed_form_1d(self):
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.01)
        v = DecisionVars(chi=0.2, lambda1=0.24674)
        r, gamma = compute_iss_gain(p, v)
        assert r == 0.0
        b = 0.2 * 1.5
        assert gamma == pytest.approx(0.2 + b * b / 0.6 + 1e-9, rel=1e-12)

    def test_gain_vanishes_with_chi(self):
        # psi2 = diag(-4.95e-9, -9e-9, -1e-8) clears -MARGIN; gamma is
        # MARGIN plus terms of order chi
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=1e-9)
        v = DecisionVars(chi=1e-8, lambda1=1e-8)
        r, gamma = compute_iss_gain(p, v)
        assert r == 0.0
        assert cert.MARGIN < gamma < cert.MARGIN + 1.1e-8

    def test_two_dimensional_gain_blocks(self):
        p = ProblemParams(n=2, k=1.0, g1=0.0, delta=0.001)
        v = DecisionVars(chi=0.002008, lambda1=8.361635e-4)
        r, gamma = compute_iss_gain(p, v)
        assert math.isfinite(r) and r > 0.0
        assert math.isfinite(gamma) and gamma > 0.0
        # re-assemble both blocks with numpy at the returned point
        chi, k, n = 0.002008, 1.0, 2
        psi1 = psi1_np(n, k, chi)
        b = chi * (0.5 + k * k * n)
        top = np.array([[psi1, b],
                        [b, -gamma + chi * k * k * n + chi * (n - 1) * r / 2.0]])
        assert np.linalg.eigvalsh(top)[-1] <= 0.0
        rank1 = psi2_np(n, k, 0.0, 0.001, chi, 8.361635e-4)
        rank1[0, 0] += chi * (n - 1) / (2.0 * r)
        assert np.linalg.eigvalsh(rank1)[-1] <= 0.0

    def test_preconditions(self):
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.01)
        with pytest.raises(CertificateError, match="psi1"):
            compute_iss_gain(p, DecisionVars(chi=0.5, lambda1=0.1))
        with pytest.raises(CertificateError, match="psi2"):
            compute_iss_gain(p, DecisionVars(chi=0.2, lambda1=10.0))

    def test_a_barely_definite_psi2_gets_its_r(self):
        # psi2 = diag(-1e-8, -chi, -lambda1), definite past the margin 1e-9:
        # the smallest r adds chi / 2r = 1e-8 - 1e-9 to its (1,1) entry
        chi = 0.1
        p = ProblemParams(n=2, k=1.0, g1=0.0, delta=0.0)
        v = DecisionVars(chi=chi, lambda1=(chi - 1e-8) * PI2 * 2 / 4.0)
        assert -1.1e-8 < smallmat.eigenvalues(build_psi2(p, v))[-1] < -0.9e-8
        r, gamma = compute_iss_gain(p, v)
        assert r == pytest.approx(chi / (2.0 * 9e-9), rel=1e-7)
        assert absorbs_perturbation(p, v, r)
        assert not absorbs_perturbation(p, v, r * (1.0 - 1e-9))

    @pytest.mark.parametrize("k,g1,chi,lam1,delta", [
        # det A rounds to 0
        (1.6167744947986418, 0.04884492270855239, 0.11600361159399991,
         0.08087694813947376, 0.06737911723726492),
        # det A rounds below 0
        (0.6223606177241319, 0.035978692649261027, 0.2604392878896046,
         0.49544407841703153, 0.10355738230825134),
    ])
    def test_psi2_at_the_rounding_edge_gets_a_finite_r(self, k, g1, chi, lam1, delta):
        # delta is the largest float at which psi2 passes the check at
        # MARGIN, so the closed form's det A has no reliable sign
        p = ProblemParams(n=2, k=k, g1=g1, delta=delta)
        v = DecisionVars(chi=chi, lambda1=lam1)
        assert smallmat.eigenvalues(build_psi2(p, v))[-1] < -cert.MARGIN
        above = ProblemParams(n=2, k=k, g1=g1, delta=math.nextafter(delta, math.inf))
        assert not smallmat.eigenvalues(build_psi2(above, v))[-1] < -cert.MARGIN
        r, gamma = compute_iss_gain(p, v)
        assert 0.0 < r < math.inf and math.isfinite(gamma)
        assert absorbs_perturbation(p, v, r)

    @pytest.mark.parametrize("n,k,g1,delta", [
        (2, 1.0, 0.1, 0.01), (3, 0.5, 0.0, 0.02), (4, 1.0, 0.1, None)])
    def test_min_time_certificate_gets_the_bisected_r(self, n, k, g1, delta):
        # a min-time certificate puts psi2 near its boundary, where the
        # random points of test_r_is_the_smallest_that_absorbs seldom go
        _, _, c = search.minimal_observability_time(
            ProblemParams(n=n, k=k, g1=g1, delta=delta))
        assert -1e-5 < smallmat.eigenvalues(build_psi2(c.params, c.vars))[-1] < -1e-6
        r, gamma = compute_iss_gain(c.params, c.vars)
        assert absorbs_perturbation(c.params, c.vars, r)
        assert not absorbs_perturbation(c.params, c.vars, r * (1.0 - 1e-9))
        assert r == pytest.approx(bisected_r(c.params, c.vars), rel=1e-11, abs=0.0)

    def test_pinned_point_gets_the_smallest_r(self):
        # a golden section on a penalised gamma, then a doubling walk,
        # returned r = 6.0904 and gamma = 0.5525 here: twice the smallest r
        p = ProblemParams(n=4, k=0.42403627334881394, g1=0.022068871599189608,
                          delta=0.00016254692597806786)
        v = DecisionVars(chi=0.05469861999382091, lambda1=0.27200122247155994)
        r, gamma = compute_iss_gain(p, v)
        assert r < 3.05 and gamma < 0.31
        assert absorbs_perturbation(p, v, r)
        assert not absorbs_perturbation(p, v, r * (1.0 - 1e-9))

    def test_r_is_the_smallest_that_absorbs(self):
        rng = np.random.default_rng(2024)
        seen = 0
        while seen < 60:
            n = int(rng.integers(2, 5))
            k, g1 = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.0, 0.1))
            chi = float(rng.uniform(0.01, 0.99)) * k / (1.0 + k * k * n)
            delta = float(10.0 ** rng.uniform(-4.0, -0.5)) * chi
            lam1 = float(rng.uniform(g1 * (n - 1) * chi, chi * PI2 * n / 4.0))
            p = ProblemParams(n=n, k=k, g1=g1, delta=delta)
            v = DecisionVars(chi=chi, lambda1=lam1)
            try:
                r, gamma = compute_iss_gain(p, v)
            except CertificateError:
                continue
            seen += 1
            assert absorbs_perturbation(p, v, r)
            assert not absorbs_perturbation(p, v, r * (1.0 - 1e-9))
            assert r == pytest.approx(bisected_r(p, v), rel=1e-11, abs=0.0)
            b = chi * (0.5 + k * k * n)
            assert gamma == (chi * k * k * n + chi * (n - 1) * r / 2.0
                             + b * b / -psi1_np(n, k, chi) + 1e-9)


def absorbs_perturbation(params, vars, r):
    """The ISS condition on r: psi2 with chi (n-1) / (2 r) added to its (1,1)
    entry keeps its largest eigenvalue at or below -MARGIN."""
    ent = list(build_psi2(params, vars))
    ent[0] += vars.chi * (params.n - 1) / (2.0 * r)
    return smallmat.eigenvalues(ent)[-1] <= -cert.MARGIN


def bisected_r(params, vars):
    """The r that compute_iss_gain bisected for before its closed form: the
    smallest absorbing r in (1e-6, 1e6], bisected in log10 r to the float
    spacing; kept as the oracle of the closed form."""
    def absorbed(u):
        return absorbs_perturbation(params, vars, 10.0 ** u)

    assert absorbed(6.0)
    return 10.0 ** search._bisect(absorbed, -6.0, 6.0)


# -------------------------------------------------------------------- regional


class TestRegionalRadius:
    def test_hand_worked_radii(self):
        p1 = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, t_star=3.78, d=1.0)
        out1 = compute_regional_radius(p1, DecisionVars(chi=0.1803))
        assert out1.d0 == pytest.approx(0.23487012170770424, rel=1e-12)
        assert out1.t_max == pytest.approx(23.737101593079142, rel=1e-12)
        assert out1.binding == "decay"

        p2 = ProblemParams(n=1, k=1.0, g1=0.2, delta=0.09, t_star=5.49, d=1.0)
        out2 = compute_regional_radius(p2, DecisionVars(chi=0.2275))
        assert out2.d0 == pytest.approx(0.18670324028192176, rel=1e-12)
        assert out2.t_max == pytest.approx(15.473721289045814, rel=1e-12)

    def test_long_horizon_switches_binding(self):
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, t_star=3.78,
                          t_total=30.0, d=1.0)
        out = compute_regional_radius(p, DecisionVars(chi=0.1803))
        assert out.binding == "growth"
        assert out.d0 == pytest.approx(0.19241960687435405, rel=1e-12)
        # t_max ignores the horizon: it is where the two terms cross
        assert out.t_max == pytest.approx(23.737101593079142, rel=1e-12)

    def test_linear_case_never_expires(self):
        p = ProblemParams(n=1, k=1.0, g1=0.0, delta=0.05, t_star=2.0, d=0.8)
        out = compute_regional_radius(p, DecisionVars(chi=0.1))
        assert out.t_max == math.inf
        assert out.binding == "decay"
        expect = 0.4 * math.sqrt(0.8 / 1.2) * math.exp(-0.1)
        assert out.d0 == pytest.approx(expect, rel=1e-12)

    def test_tuple_unpacking(self):
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, t_star=3.78, d=1.0)
        out = compute_regional_radius(p, DecisionVars(chi=0.1803))
        assert out.d0 == pytest.approx(0.23487012170770424, rel=1e-12)
        assert out.t_max == pytest.approx(23.737101593079142, rel=1e-12)

    def test_radius_bounds_and_monotonicity(self):
        rng = np.random.default_rng(20240614)
        for _ in range(300):
            chi = float(rng.uniform(0.0, 0.499))
            g1 = float(rng.uniform(0.0, 0.5))
            delta = float(rng.uniform(1e-3, 0.3))
            t_star = float(rng.uniform(0.1, 20.0))
            d = float(rng.uniform(0.1, 5.0))
            p = ProblemParams(n=1, k=1.0, g1=g1, delta=delta, t_star=t_star, d=d)
            out = compute_regional_radius(p, DecisionVars(chi=chi))
            assert 0.0 < out.d0 <= 0.5 * d
            assert out.binding in ("growth", "decay")
            # shrinking chi or t_star can only enlarge the ball
            smaller = compute_regional_radius(p, DecisionVars(chi=chi * 0.5))
            assert smaller.d0 >= out.d0
            p_short = ProblemParams(n=1, k=1.0, g1=g1, delta=delta,
                                    t_star=t_star * 0.5, d=d)
            assert compute_regional_radius(p_short, DecisionVars(chi=chi)).d0 >= out.d0

    def test_errors(self):
        good = dict(k=1.0, g1=0.1, delta=0.1, t_star=3.78, d=1.0)
        with pytest.raises(CertificateError, match="n = 1"):
            compute_regional_radius(ProblemParams(n=2, **good), DecisionVars(chi=0.1))
        for chi in (0.5, 0.55):
            with pytest.raises(CertificateError, match="chi"):
                compute_regional_radius(ProblemParams(n=1, **good), DecisionVars(chi=chi))
        for drop in ("delta", "t_star", "d"):
            kw = {key: val for key, val in good.items() if key != drop}
            with pytest.raises(CertificateError):
                compute_regional_radius(ProblemParams(n=1, **kw), DecisionVars(chi=0.1))


# ----------------------------------------------------------------- certificate


class TestCertificate:
    def test_stability_only(self):
        p, v = STAB_1D
        c = make_certificate(p, v)
        assert c.q is None and c.d0 is None
        assert set(c.margins) == {"phi0", "psi1", "psi2"}
        assert c.alpha == pytest.approx(1.0 - 2.0 * 0.18035, abs=1e-15)
        assert c.vars.lambda0 == cert.DEFAULT_LAMBDA0_1D

    def test_full_point(self):
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, t_star=3.79,
                          t_total=5.0, d=1.0)
        v = DecisionVars(chi=0.18035, lambda1=0.09470606, lambda2=1e-3)
        c = make_certificate(p, v)
        assert set(c.margins) == {"phi0", "psi1", "psi2", "phi_obs"}
        assert c.margins["phi_obs"] == pytest.approx(-0.00063343601181253817, rel=1e-9)
        assert c.q == pytest.approx(0.61631320191228967, rel=1e-15)
        ref = compute_regional_radius(p, v)
        assert c.d0 == ref.d0

    def test_infeasible_raises_and_names_the_matrix(self):
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1)
        with pytest.raises(CertificateError, match="psi2"):
            make_certificate(p, DecisionVars(chi=STAB_1D_NEARMISS_CHI,
                                             lambda1=0.09470606))
        with pytest.raises(CertificateError, match="phi0.*psi1"):
            make_certificate(p, DecisionVars(chi=0.6, lambda1=0.1))

    def test_inspection_mode_keeps_margins(self):
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1)
        v = DecisionVars(chi=STAB_1D_NEARMISS_CHI, lambda1=0.09470606)
        c = certificate_at(p, *check_point(p, v))
        assert c.margins["psi2"] > 0.0
        assert c.alpha == pytest.approx(1.0 - 2.0 * STAB_1D_NEARMISS_CHI, abs=1e-15)

    def test_constant_validation(self):
        p, v = STAB_1D
        with pytest.raises(CertificateError, match="alpha"):
            Certificate(p, v, alpha=2.0, beta=1.0)
        with pytest.raises(CertificateError, match="q"):
            Certificate(p, v, alpha=0.5, beta=1.5, q=1.5)
        with pytest.raises(CertificateError, match="d0"):
            Certificate(p, v, alpha=0.5, beta=1.5, d0=-1e-300)
        # a radius rounded down to 0 is an empty guarantee, not a false one
        assert Certificate(p, v, alpha=0.5, beta=1.5, d0=0.0).d0 == 0.0
        assert Certificate(p, v, alpha=0.5, beta=1.5, q=1.0).q == 1.0

    def test_dict_round_trip(self):
        p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, t_star=3.79,
                          t_total=5.0, d=1.0)
        v = DecisionVars(chi=0.18035, lambda1=0.09470606, lambda2=1e-3)
        c = make_certificate(p, v)
        d = certificate_to_dict(c)
        back = certificate_from_dict(json.loads(json_dumps(d)))
        assert back.params == c.params
        assert back.vars == c.vars
        assert back.alpha == c.alpha and back.beta == c.beta
        assert back.q == c.q and back.d0 == c.d0
        assert back.margins == c.margins

    def test_dict_omits_absent_fields(self):
        p, v = STAB_1D
        d = certificate_to_dict(make_certificate(p, v))
        assert "q" not in d and "d0" not in d
        assert list(d["margins"]) == ["phi0", "psi1", "psi2"]
        assert list(d) == ["params", "vars", "alpha", "beta", "margins"]

    def test_from_dict_strictness(self):
        p, v = STAB_1D
        d = certificate_to_dict(make_certificate(p, v))
        bad = dict(d, extra=1.0)
        with pytest.raises(CertificateError, match="unknown"):
            certificate_from_dict(bad)
        with pytest.raises(CertificateError, match="missing"):
            certificate_from_dict({"params": d["params"], "vars": d["vars"]})
        worse = dict(d, margins=dict(d["margins"], bogus=0.1))
        with pytest.raises(CertificateError, match="margin"):
            certificate_from_dict(worse)
        for margins in ([1.0], {"phi0": [1.0]}, {"phi0": math.nan}):
            with pytest.raises(CertificateError, match="margin"):
                certificate_from_dict(dict(d, margins=margins))
        with pytest.raises(CertificateError, match="problem"):
            certificate_from_dict(dict(d, params=[1]))


# ------------------------------------------------------------- feasible regions
# structural facts the search module relies on, verified with an independent
# scipy optimizer: observability windows only grow with t_star, and the
# phi-feasible chi set at fixed t_star is an interval anchored at zero


class TestFeasibleRegions:
    def test_longer_time_stays_feasible(self):
        rng = np.random.default_rng(20240615)
        checked = 0
        for _ in range(40):
            n = int(rng.integers(1, 4))
            delta = float(10.0 ** rng.uniform(-3.0, -0.7))
            cap = 1.0 / (1.0 + n)
            chi = float(rng.uniform(0.01, 0.6)) * cap
            t1 = float(rng.uniform(0.2, 20.0))
            t2 = t1 * float(rng.uniform(1.05, 3.0))
            if phi_feasible_oracle(n, delta, t1, chi):
                assert phi_feasible_oracle(n, delta, t2, chi)
                checked += 1
        assert checked >= 5

    def test_chi_window_is_an_interval(self):
        n, delta, t_star = 2, 0.05, 8.0

        def feasible(chi):
            return phi_feasible_oracle(n, delta, t_star, chi)

        lo, hi = 0.0, 1.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        chi_bar = lo
        assert feasible(0.9 * chi_bar)
        assert feasible(0.1 * chi_bar)
        assert not feasible(1.1 * chi_bar)
        # the window widens with the observation time
        def chi_bar_at(t):
            lo, hi = 0.0, 1.0
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                if phi_feasible_oracle(n, delta, t, mid):
                    lo = mid
                else:
                    hi = mid
            return lo

        assert chi_bar_at(10.0) >= chi_bar


# --------------------------------------------------------------- text emission


class TestEmission:
    def test_fmt_float_round_trips(self):
        rng = np.random.default_rng(20240616)
        values = [0.0, -0.0, 1.0, 0.1, 1e-300, -1e300, math.pi]
        values += [float(x) for x in rng.standard_normal(500)]
        values += [float(10.0 ** u) for u in rng.uniform(-30, 30, 500)]
        for x in values:
            assert float(fmt_float(x)) == x

    def test_json_dumps_layout(self):
        obj = {"a": True, "b": None, "c": [1, 2.5, "s"], "d": {"x": 0.1}}
        text = json_dumps(obj)
        expect = '{"a": true, "b": null, "c": [1, 2.5, "s"], "d": {"x": 0.10000000000000001}}'
        assert text == expect
        assert json.loads(text) == {"a": True, "b": None, "c": [1, 2.5, "s"],
                                    "d": {"x": 0.1}}

    def test_json_dumps_preserves_insertion_order(self):
        text = json_dumps({"z": 1, "a": 2})
        assert text.index('"z"') < text.index('"a"')

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_json_dumps_rejects_non_finite(self, x):
        # json.loads would refuse the bare nan/inf that %.17g prints
        with pytest.raises(ValueError):
            json_dumps({"a": [1.0, x]})

    def test_json_dumps_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            json_dumps({"x": object()})
