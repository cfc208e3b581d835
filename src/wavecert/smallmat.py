"""Symmetric eigenvalue routines for tiny (dim <= 4) matrices.

The routines are pure Python on purpose: the LMI feasibility margins
that drive the rest of the toolkit come from these eigenvalues, and a
dependency free cyclic Jacobi is deterministic across platforms and fast
enough at this size.  Callers decide definiteness from the spectrum, not a
Cholesky attempt, so their margins are directly spectral quantities.
extremes3 unrolls the same 3x3 Jacobi over six floats and returns the same
bits.
"""

import math

_MAX_SWEEPS = 100
_OFF_TOL = 1e-13  # off-diagonal Frobenius target, relative to matrix scale


class SymMatrix:
    """Symmetric matrix of dimension 1..4, upper triangle stored row-major.

    Only the upper triangle is kept (dim*(dim+1)//2 values), so symmetry
    holds by construction.  Instances are value objects; entries are a tuple.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, dim, entries):
        if not isinstance(dim, int) or isinstance(dim, bool) or not (1 <= dim <= 4):
            raise ValueError("dim must be an integer in 1..4, got %r" % (dim,))
        vals = tuple(map(float, entries))
        want = dim * (dim + 1) // 2
        if len(vals) != want:
            raise ValueError("dim %d stores %d entries, got %d" % (dim, want, len(vals)))
        if not all(map(math.isfinite, vals)):
            bad = next(v for v in vals if not math.isfinite(v))
            raise ValueError("non-finite matrix entry %r" % (bad,))
        self.dim = dim
        self.entries = vals

    @classmethod
    def from_rows(cls, rows):
        """Build from a full square row-of-rows; the lower triangle is ignored."""
        dim = len(rows)
        ent = []
        for i in range(dim):
            if len(rows[i]) != dim:
                raise ValueError("rows must form a square matrix")
            for j in range(i, dim):
                ent.append(rows[i][j])
        return cls(dim, ent)

    def _idx(self, i, j):
        if i > j:
            i, j = j, i
        return i * self.dim - (i * (i - 1)) // 2 + (j - i)

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError("index out of range for dim %d" % self.dim)
        return self.entries[self._idx(i, j)]

    def to_rows(self):
        return [[self[i, j] for j in range(self.dim)] for i in range(self.dim)]

    def frobenius(self):
        s = 0.0
        for i in range(self.dim):
            for j in range(self.dim):
                x = self[i, j]
                s += x * x
        return math.sqrt(s)

    def __repr__(self):
        return "SymMatrix(%d, %r)" % (self.dim, list(self.entries))

    def __eq__(self, other):
        return (
            isinstance(other, SymMatrix)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.dim, self.entries))


def eigenvalues(m):
    """All eigenvalues of m, ascending, by cyclic Jacobi sweeps.

    dim <= 4 converges in a handful of sweeps.
    """
    n = m.dim
    a = m.to_rows()
    scale = max(1.0, m.frobenius())
    for _ in range(_MAX_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += a[p][q] * a[p][q]
        if math.sqrt(2.0 * off) <= _OFF_TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                app, aqq = a[p][p], a[q][q]
                a[p][p] = app - t * apq
                a[q][q] = aqq + t * apq
                a[p][q] = a[q][p] = 0.0
                for r in range(n):
                    if r == p or r == q:
                        continue
                    arp, arq = a[r][p], a[r][q]
                    a[r][p] = a[p][r] = c * arp - s * arq
                    a[r][q] = a[q][r] = s * arp + c * arq
    return sorted(a[i][i] for i in range(n))


def _rotate(app, aqq, apq, arp, arq):
    # one Jacobi rotation of eigenvalues on pair (p, q) with remaining row r:
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

    The 3x3 operations of eigenvalues in the same order, unrolled over six
    locals, so the results equal eigenvalues(m)[0] and eigenvalues(m)[-1]
    bit for bit without building a SymMatrix.
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

