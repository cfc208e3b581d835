"""LMI assembly and certificate constants for the boundary-observed semilinear
wave equation on the unit hypercube.

The matrices built here decide, for one set of problem parameters and decision
variables, whether the damped error dynamics are exponentially stable with rate
delta (stability LMIs), whether the system is exactly observable in time T*
(observability LMI), and what the derived constants alpha, beta, q, gamma and
the regional radius d0 are.  One margin parameter serves as the strictness
threshold for the strict LMIs and as slack for the non-strict ones (LMIS).
"""

import json
import math
import numbers
import sys
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace

from .smallmat import eigenvalues

PI2 = math.pi * math.pi
DEFAULT_MARGIN = 1e-9
# the 1-D reduction has no lambda0; this value reproduces the sharp 1-D
# alpha = 1 - 2 chi to well past four decimals while keeping the 3x3 form
DEFAULT_LAMBDA0_1D = 1e-6


class CertificateError(ValueError):
    """Invalid parameters, missing variables, or a certificate that fails re-checking."""


def _wq(n):
    # Wirtinger constant 4 / (pi^2 n)
    return 4.0 / (PI2 * n)


# ------------------------------------------------------------------ validation
# every scalar the package accepts from a caller or a config file goes
# through checked_float or checked_int, which reject bools, non-numbers,
# non-finite values and integers past the float range; both raise
# CertificateError, a ValueError


def checked_float(name, value, low=None, strict=False):
    """value as a finite float; with low set, also value >= low (> low if strict)."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise CertificateError("%s must be a number, got %r" % (name, value))
        try:
            value = float(value)
        except OverflowError:
            raise CertificateError("%s is an integer too large for a float" % name)
    if not math.isfinite(value):
        raise CertificateError("%s must be finite, got %r" % (name, value))
    if low is not None and not (value > low if strict else value >= low):
        raise CertificateError("%s must be %s %g, got %r"
                               % (name, ">" if strict else ">=", low, value))
    return value


def checked_int(name, value, low):
    """int value >= low within the float range; integral floats such as 3.0 pass."""
    integral = type(value) is int or (
        not isinstance(value, bool) and isinstance(value, numbers.Real)
        and math.isfinite(value) and value == int(value))
    if not integral or value < low:
        raise CertificateError("%s must be an integer >= %d, got %r" % (name, low, value))
    if value > sys.float_info.max:
        raise CertificateError("%s is an integer too large for a float" % name)
    return int(value)


def reject_unknown_keys(what, dct, allowed):
    """Reject a dct that is not a dict or holds a key outside allowed."""
    if not isinstance(dct, dict):
        raise CertificateError("expected a JSON object of %s keys" % what)
    unknown = set(dct) - set(allowed)
    if unknown:
        raise CertificateError("unknown %s keys: %s" % (what, ", ".join(sorted(unknown))))


def _set_fields(obj):
    # the dataclass fields that are set, in declaration order
    return {f.name: getattr(obj, f.name) for f in fields(obj)
            if getattr(obj, f.name) is not None}


@dataclass(frozen=True)
class ProblemParams:
    """Physical and tuning scalars defining one certification problem.

    n: spatial dimension; k: boundary injection gain; g1: Lipschitz bound on
    f_z; delta: decay rate (may be left unset for minimal-time searches, where
    it is the quantity being optimized); t_star: observability time; t_total:
    observation horizon; d: local Lipschitz radius for regional problems.
    """

    n: int
    k: float
    g1: float = 0.0
    delta: float = None
    t_star: float = None
    t_total: float = None
    d: float = None

    def __post_init__(self):
        object.__setattr__(self, "n", checked_int("n", self.n, 1))
        object.__setattr__(self, "k", checked_float("k", self.k, 0.0, strict=True))
        object.__setattr__(self, "g1", checked_float("g1", self.g1, 0.0))
        if self.delta is not None:
            # delta = 0 is the marginal "no decay demanded" case; the decay
            # matrix is still well defined there, so only negatives are out.
            object.__setattr__(self, "delta", checked_float("delta", self.delta, 0.0))
        for name in ("t_star", "t_total", "d"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, checked_float(name, v, 0.0, strict=True))
        if self.t_total is not None and self.t_star is not None and self.t_total < self.t_star:
            raise CertificateError("t_total must be >= t_star")

    def to_dict(self):
        return _set_fields(self)

    @classmethod
    def from_dict(cls, dct):
        reject_unknown_keys("problem", dct, (f.name for f in fields(cls)))
        if "n" not in dct or "k" not in dct:
            raise CertificateError("problem requires at least n and k")
        return cls(**dct)


@dataclass(frozen=True)
class DecisionVars:
    """S-procedure and Lyapunov multipliers witnessing LMI feasibility.

    chi weights the cross term of the Lyapunov function (chi = 0 collapses V
    to the plain energy, which some degenerate checks rely on); the lambdas
    are the multipliers of the three matrix inequalities.  The ISS gain
    (r, gamma) is not a variable: compute_iss_gain derives it from these.
    """

    chi: float
    lambda0: float = None
    lambda1: float = None
    lambda2: float = None

    def __post_init__(self):
        object.__setattr__(self, "chi", checked_float("chi", self.chi, 0.0))
        for name in ("lambda0", "lambda1", "lambda2"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, checked_float(name, v, 0.0, strict=True))

    def to_dict(self):
        return _set_fields(self)

    @classmethod
    def from_dict(cls, dct):
        reject_unknown_keys("variable", dct, (f.name for f in fields(cls)))
        if "chi" not in dct:
            raise CertificateError("variables require chi")
        return cls(**dct)


def _lambda0(params, vars):
    if vars.lambda0 is not None:
        return vars.lambda0
    if params.n == 1:
        return DEFAULT_LAMBDA0_1D
    raise CertificateError("lambda0 is required for n >= 2")


def _require(vars, name):
    if getattr(vars, name) is None:
        raise CertificateError("decision variable %s is required here" % name)


# ------------------------------------------------------------------ builders
# each *_entries function holds the one formula of its matrix: the upper
# triangle, row-major, for chi and the multiplier as floats or as arrays.
# The build_* functions check their variables and return the six floats
# for the certificate checks, which read the extremes through eigenvalues;
# the searches call the formulas directly, the lockstep chi scan with whole
# grids and the sequential searches with single floats.


def phi0_entries(params, chi, lam0):
    n = params.n
    return (0.5 - lam0 * _wq(n), math.sqrt(n) * chi, 0.0,
            0.5, (n - 1) * chi / 2.0,
            lam0)


def psi1_value(params, chi):
    k, n = params.k, params.n
    return -k + (1.0 + k * k * n) * chi


def psi2_entries(params, chi, lam1):
    """Needs params.delta."""
    n, k, g1, delta = params.n, params.k, params.g1, params.delta
    rn = math.sqrt(n)
    return (-chi + delta * (1.0 + chi * k * (n - 1)) + lam1 * _wq(n),
            2.0 * delta * rn * chi, rn * g1 * chi,
            -chi + delta, 0.5 * g1 + delta * (n - 1) * chi,
            -lam1 + g1 * (n - 1) * chi)


def phi_obs_entries(params, chi, lam2):
    """Needs params.delta and params.t_star."""
    n = params.n
    es = math.exp(-2.0 * params.delta * params.t_star)
    a = 0.5 * (1.0 - es)
    rn = math.sqrt(n)
    return (-a + lam2 * _wq(n), rn * (1.0 + es) * chi, 0.0,
            -a, 0.5 * (n - 1) * (1.0 + es) * chi,
            -lam2)


def build_phi0(params, vars):
    """3x3 matrix whose positive definiteness bounds V between alpha E and beta E."""
    return phi0_entries(params, vars.chi, _lambda0(params, vars))


def build_phi1(params, vars):
    """Phi0 shifted by diag(lambda0 4/(pi^2 n), 0, 0); its largest eigenvalue enters beta."""
    ent = list(build_phi0(params, vars))
    ent[0] += _lambda0(params, vars) * _wq(params.n)
    return tuple(ent)


def build_psi1(params, vars):
    """Scalar boundary condition -k + (1 + k^2 n) chi; must be <= 0."""
    return psi1_value(params, vars.chi)


def build_psi2(params, vars):
    """3x3 decay matrix; negative semidefiniteness certifies rate delta."""
    _require(vars, "lambda1")
    if params.delta is None:
        raise CertificateError("delta is required to build the decay matrix")
    return psi2_entries(params, vars.chi, vars.lambda1)


def build_phi_obs(params, vars):
    """3x3 observability matrix at time t_star; negative definiteness certifies
    recoverability of the initial state."""
    _require(vars, "lambda2")
    if params.delta is None or params.t_star is None:
        raise CertificateError("delta and t_star are required to build the observability matrix")
    return phi_obs_entries(params, vars.chi, vars.lambda2)


# ------------------------------------------------------------------ checks


class Lmi(namedtuple("Lmi", "name entries multiplier top strict side")):
    """An LMI's sense, which every check and search reads here (LMIS, in
    report order): the largest eigenvalue of entries at the multiplier
    decides (top) or the smallest, psi1's scalar itself, and the LMI holds
    where its slack at the threshold side * margin is > 0 (strict) or >= 0."""

    def slack(self, value, margin):
        s = self.side * margin
        return s - value if self.top else value - s

    def holds(self, value, margin):
        slack = self.slack(value, margin)
        return slack > 0.0 if self.strict else slack >= 0.0


PHI0 = Lmi("phi0", phi0_entries, "lambda0", top=False, strict=True, side=1.0)
PSI1 = Lmi("psi1", psi1_value, None, top=True, strict=False, side=1.0)
PSI2 = Lmi("psi2", psi2_entries, "lambda1", top=True, strict=False, side=1.0)
PHI_OBS = Lmi("phi_obs", phi_obs_entries, "lambda2", top=True, strict=True, side=-1.0)
LMIS = (PHI0, PSI1, PSI2, PHI_OBS)
LMI_NAMES = tuple(lmi.name for lmi in LMIS)


def check_stability(params, vars, margin=DEFAULT_MARGIN):
    """Feasibility report for the exponential-stability LMIs phi0, psi1 and psi2."""
    margin = checked_float("margin", margin, 0.0)
    _require(vars, "lambda1")
    return _judged({"phi0": eigenvalues(build_phi0(params, vars))[0],
                    "psi1": build_psi1(params, vars),
                    "psi2": eigenvalues(build_psi2(params, vars))[-1]}, margin)


def check_observability(params, vars, margin=DEFAULT_MARGIN):
    """Stability report extended with the strict observability LMI at t_star."""
    margins = check_stability(params, vars, margin)["margins"]
    margins["phi_obs"] = eigenvalues(build_phi_obs(params, vars))[-1]
    return _judged(margins, checked_float("margin", margin, 0.0))


def _judged(margins, margin):
    report = {lmi.name + "_ok": lmi.holds(margins[lmi.name], margin)
              for lmi in LMIS if lmi.name in margins}
    report["feasible"] = all(report.values())
    report["margins"] = margins
    return report


def compute_alpha_beta(params, vars):
    """Energy envelope constants with alpha E <= V <= beta E.

    General n uses the eigenvalues of phi0/phi1.  For n = 1 the pair is the
    sharp (1 - 2 chi, 1 + 2 chi) of the one-dimensional reduction.
    """
    phi0 = build_phi0(params, vars)
    lam_phi0 = eigenvalues(phi0)
    if not lam_phi0[0] > 0.0:
        raise CertificateError("phi0 is not positive definite; alpha would not be positive")
    if params.n == 1:
        return 1.0 - 2.0 * vars.chi, 1.0 + 2.0 * vars.chi
    n, k, chi = params.n, params.k, vars.chi
    alpha = 2.0 * lam_phi0[0]
    lam_phi1 = eigenvalues(build_phi1(params, vars))
    beta = 2.0 * (1.0 + 2.0 / (PI2 * n)) * lam_phi1[-1] + chi * k * (n - 1)
    return alpha, beta


def compute_iss_gain(params, vars, margin=DEFAULT_MARGIN):
    """Smallest reportable input-to-state gain (r, gamma) for boundary perturbations.

    Requires psi1 < 0 strictly and psi2 negative definite with the margin.
    gamma is the Schur-complement infimum of the 2x2 perturbation block plus
    the margin, which grows with r; so r is the smallest r at which the
    rank-one perturbation chi (n-1) / (2 r) of psi2's (1,1) entry keeps its
    largest eigenvalue at or below -margin, in closed form raised until the
    eigenvalue check passes.  For n = 1 every r-term vanishes (r is 0).
    """
    margin = checked_float("margin", margin, 0.0)
    _require(vars, "lambda1")
    n, k, chi = params.n, params.k, vars.chi
    psi1 = build_psi1(params, vars)
    if not psi1 < 0.0:
        raise CertificateError("psi1 must be strictly negative for the ISS gain")
    psi2 = build_psi2(params, vars)
    if not eigenvalues(psi2)[-1] < -margin:
        raise CertificateError("psi2 must be strictly negative definite for the ISS gain")
    b = chi * (0.5 + k * k * n)
    if n == 1:
        gamma = chi * k * k + b * b / (-psi1) + margin
        return 0.0, gamma

    # adding c to psi2's (1,1) entry keeps it absorbed while c <= det A over
    # the minor d f - v^2: A = -margin I - psi2 has off-diagonals -q, -s, -v
    p, q, s, u, v, w = psi2
    a, d, f = -margin - p, -margin - u, -margin - w
    minor = d * f - v * v
    det = a * minor - q * (q * f + v * s) - s * (q * v + d * s)
    # when psi2 passed the check by no more than rounding, det A over the
    # minor can round to or below psi2's rounding level: start r there
    floor = 2.0 ** -52 * max(map(abs, psi2))
    if not (minor > 0.0 and det > floor * minor):
        minor, det = 1.0, floor
    r = chi * (n - 1) / 2.0 * minor / det
    # r lies on the boundary, where the Jacobi check can fail it by rounding;
    # psi2 alone passed the check, and the added term shrinks as r grows
    step = 2.0 ** -52
    while eigenvalues((p + chi * (n - 1) / (2.0 * r),) + psi2[1:])[-1] > -margin:
        r, step = r * (1.0 + step), 2.0 * step
    gamma = chi * k * k * n + chi * (n - 1) * r / 2.0 + b * b / (-psi1) + margin
    return r, gamma


@dataclass(frozen=True)
class RegionalRadius:
    """Regional observability radius d0 with the horizon t_max up to which the
    decay term (rather than the nonlinear growth term) is the binding one."""

    d0: float
    t_max: float
    binding: str


def compute_regional_radius(params, vars):
    """Radius d0 of the initial-data ball on which recovery is certified (n = 1).

    d0 = (d/2) min{exp(-(g1/pi) T), sqrt((1-2chi)/(1+2chi)) exp(-delta t_star)}
    evaluated at T = t_total when set, else T = t_star.  t_max solves the
    equality of the two terms; it is infinite when g1 = 0.
    """
    if params.n != 1:
        raise CertificateError("the regional radius is only defined for n = 1")
    if params.t_star is None or params.d is None or params.delta is None:
        raise CertificateError("regional radius requires delta, t_star and d")
    chi = vars.chi
    if chi >= 0.5:
        raise CertificateError("chi must be < 1/2 (alpha = 1 - 2 chi must stay positive)")
    decay = math.sqrt((1.0 - 2.0 * chi) / (1.0 + 2.0 * chi)) * math.exp(
        -params.delta * params.t_star
    )
    horizon = params.t_total if params.t_total is not None else params.t_star
    growth = math.exp(-(params.g1 / math.pi) * horizon)
    d0 = 0.5 * params.d * min(growth, decay)
    binding = "growth" if growth < decay else "decay"
    if params.g1 == 0.0:
        t_max = math.inf
    else:
        t_max = -(math.pi / params.g1) * math.log(decay)
    return RegionalRadius(d0, t_max, binding)


# ------------------------------------------------------------------ certificates


@dataclass(frozen=True)
class Certificate:
    """A verified feasibility record plus the derived constants."""

    params: ProblemParams
    vars: DecisionVars
    alpha: float
    beta: float
    q: float = None
    d0: float = None
    margins: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "alpha", checked_float("alpha", self.alpha, 0.0, strict=True))
        object.__setattr__(self, "beta", checked_float("beta", self.beta, 0.0, strict=True))
        if self.alpha > self.beta:
            raise CertificateError("alpha must not exceed beta")
        if self.q is not None:
            q = checked_float("q", self.q, 0.0, strict=True)
            if q > 1.0:
                raise CertificateError("q must lie in (0, 1]")
            object.__setattr__(self, "q", q)
        if self.d0 is not None:
            object.__setattr__(self, "d0", checked_float("d0", self.d0, 0.0, strict=True))
        object.__setattr__(self, "margins", dict(self.margins))


def check_point(params, vars, margin=DEFAULT_MARGIN):
    """(vars, report) for the LMIs that apply at one decision point.

    lambda0 takes its 1-D default when unset.  A point carrying both t_star
    and lambda2 gets the observability report, any other the stability
    report; report["failing"] names the LMIs that fail, in LMI_NAMES order.
    """
    vars = replace(vars, lambda0=_lambda0(params, vars))
    if params.t_star is not None and vars.lambda2 is not None:
        report = check_observability(params, vars, margin)
    else:
        report = check_stability(params, vars, margin)
    report["failing"] = [name for name in LMI_NAMES
                         if not report.get(name + "_ok", True)]
    return vars, report


def _q_at(params, horizon):
    # q = exp(-4 delta (T - t_star)), one recovery sweep's contraction over T
    return math.exp(-4.0 * params.delta * (horizon - params.t_star))


def certificate_at(params, vars, report):
    """Certificate for a point check_point has checked: alpha, beta, q, d0."""
    alpha, beta = compute_alpha_beta(params, vars)
    q = None
    if params.t_total is not None and params.t_star is not None and params.delta is not None:
        q = _q_at(params, params.t_total)
    d0 = None
    if (params.n == 1 and params.d is not None and params.t_star is not None
            and params.delta is not None and vars.chi < 0.5):
        d0 = compute_regional_radius(params, vars).d0
    return Certificate(params, vars, alpha, beta, q, d0, report["margins"])


def make_certificate(params, vars, margin=DEFAULT_MARGIN):
    """Assemble a certificate: run the checks, then derive alpha, beta, q, d0.

    An infeasible point raises; certificate_at(params, *check_point(...))
    still collects margins and constants for a point being inspected.
    """
    vars, report = check_point(params, vars, margin)
    if not report["feasible"]:
        raise CertificateError("LMIs infeasible at this point: %s"
                               % ", ".join(report["failing"]))
    return certificate_at(params, vars, report)


def certificate_to_dict(cert):
    out = {"params": cert.params.to_dict(), "vars": cert.vars.to_dict(),
           "alpha": cert.alpha, "beta": cert.beta}
    if cert.q is not None:
        out["q"] = cert.q
    if cert.d0 is not None:
        out["d0"] = cert.d0
    margins = {}
    for name in LMI_NAMES:
        if name in cert.margins:
            margins[name] = cert.margins[name]
    out["margins"] = margins
    return out


def certificate_from_dict(dct):
    reject_unknown_keys("certificate", dct, (f.name for f in fields(Certificate)))
    for key in ("params", "vars", "alpha", "beta"):
        if key not in dct:
            raise CertificateError("certificate missing %s" % key)
    margins = dct.get("margins", {})
    reject_unknown_keys("margin", margins, LMI_NAMES)
    return Certificate(
        ProblemParams.from_dict(dct["params"]),
        DecisionVars.from_dict(dct["vars"]),
        dct["alpha"],
        dct["beta"],
        dct.get("q"),
        dct.get("d0"),
        {k: checked_float("margin " + k, v) for k, v in margins.items()},
    )


# ------------------------------------------------------------------ searches
# the settings and the negative result of wavecert.search, kept here with
# the other config types so that parsing a config runs no search code


class Infeasible(Exception):
    """A search exhausted its region without finding a certified point.

    This is a result, not a failure: the reason string records the best
    margin seen or the structural cut that emptied the region.  A reason
    may be given as a function that returns it; the function runs when the
    text is first read, so a per-delta failure that is never reported
    costs nothing to explain.
    """

    def __init__(self, reason):
        super().__init__(reason)
        self._reason = reason

    @property
    def reason(self):
        if callable(self._reason):
            self._reason = self._reason()
        return self._reason

    def __str__(self):
        return self.reason


@dataclass(frozen=True)
class SearchConfig:
    """Settings of the searches; the grids are wavecert.search's constants.

    Multiplier decisions and values are closed-form or bisected to the
    float spacing and take no tolerance.  tstar_tol ends the t_star
    bisection, which also stops at the float spacing; margin is the slack
    every LMI check keeps.
    """

    tstar_tol: float = 1e-3
    margin: float = DEFAULT_MARGIN

    def __post_init__(self):
        object.__setattr__(self, "tstar_tol",
                           checked_float("tstar_tol", self.tstar_tol, 0.0, strict=True))
        object.__setattr__(self, "margin", checked_float("margin", self.margin, 0.0))

    @classmethod
    def from_dict(cls, dct):
        reject_unknown_keys("search", dct, (f.name for f in fields(cls)))
        return cls(**dct)


# ------------------------------------------------------------------ text emission

# every float the toolkit writes (JSON and CSV alike) goes through this so
# that outputs are lossless on round-trip and byte-stable across runs


def fmt_float(x):
    return "%.17g" % float(x)


def _emit(obj, pieces):
    if obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite float %r has no JSON form" % obj)
        pieces.append(fmt_float(obj))
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, dict):
        pieces.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                pieces.append(", ")
            pieces.append(json.dumps(str(key)))
            pieces.append(": ")
            _emit(val, pieces)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for i, val in enumerate(obj):
            if i:
                pieces.append(", ")
            _emit(val, pieces)
        pieces.append("]")
    else:
        raise TypeError("cannot serialize %r" % type(obj))
    return pieces


def json_dumps(obj):
    """JSON text with every float printed to 17 significant digits.

    NaN and infinities raise ValueError: JSON has no literal for them.
    """
    return "".join(_emit(obj, []))
