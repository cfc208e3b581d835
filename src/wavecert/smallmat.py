"""Extreme eigenvalues of one symmetric 3x3 matrix.

Every matrix the LMIs build is 3x3 and every caller reads only its
smallest or largest eigenvalue.  The kernel is pure Python on purpose: the
LMI feasibility margins that drive the rest of the toolkit come from these
eigenvalues, and a dependency free cyclic Jacobi is deterministic across
platforms and fast enough at this size.  Callers decide definiteness from
the spectrum, not a Cholesky attempt, so their margins are directly
spectral quantities.
"""

import math

_MAX_SWEEPS = 100
_OFF_TOL = 1e-13  # off-diagonal Frobenius target, relative to matrix scale


def _rotate(app, aqq, apq, arp, arq):
    # one Jacobi rotation on pair (p, q) with remaining row r:
    # the new a_pp, a_qq, a_rp, a_rq (a_pq becomes 0)
    theta = (aqq - app) / (2.0 * apq)
    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
    if theta < 0.0:
        t = -t
    c = 1.0 / math.sqrt(t * t + 1.0)
    s = t * c
    return app - t * apq, aqq + t * apq, c * arp - s * arq, s * arp + c * arq


def extremes3(a00, a01, a02, a11, a12, a22):
    """(lambda_min, lambda_max) of one symmetric 3x3 matrix given as floats.

    Cyclic Jacobi sweeps over the pairs (0, 1), (0, 2), (1, 2) until the
    off-diagonal Frobenius norm is below _OFF_TOL times max(1, |A|_F).
    """
    for x in (a00, a01, a02, a11, a12, a22):
        if not math.isfinite(x):
            raise ValueError("non-finite matrix entry %r" % (x,))
    scale = max(1.0, math.sqrt(0.0 + a00 * a00 + a01 * a01 + a02 * a02 + a01 * a01
                               + a11 * a11 + a12 * a12 + a02 * a02 + a12 * a12
                               + a22 * a22))
    tol = _OFF_TOL * scale
    for _ in range(_MAX_SWEEPS):
        if math.sqrt(2.0 * (0.0 + a01 * a01 + a02 * a02 + a12 * a12)) <= tol:
            break
        if a01 != 0.0:
            a00, a11, a02, a12 = _rotate(a00, a11, a01, a02, a12)
            a01 = 0.0
        if a02 != 0.0:
            a00, a22, a01, a12 = _rotate(a00, a22, a02, a01, a12)
            a02 = 0.0
        if a12 != 0.0:
            a11, a22, a01, a02 = _rotate(a11, a22, a12, a01, a02)
            a12 = 0.0
    d = sorted((a00, a11, a22))
    return d[0], d[2]


# for certificate re-checks; searches call extremes3, so the bench span counts only re-checks
def eigenvalues(entries):
    """(lambda_min, lambda_max) of the upper triangle (a00, a01, a02, a11, a12, a22)."""
    return extremes3(*entries)
