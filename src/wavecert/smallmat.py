"""Symmetric eigenvalue routines for tiny (dim <= 4) matrices.

The scalar routines are pure Python on purpose: the LMI feasibility margins
that drive the rest of the toolkit come from these eigenvalues, and a
dependency free cyclic Jacobi is deterministic across platforms and fast
enough at this size.  Definiteness is decided from the spectrum, not a
Cholesky attempt, so the margin argument is directly a spectral quantity.
extreme_eigenvalues runs the same 3x3 Jacobi over a batch with numpy ufuncs
(no LAPACK) and extremes3 unrolls it over six floats; both return the same
bits.
"""

import math

import numpy as np

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


def _jacobi(m):
    """Cyclic Jacobi sweeps; returns (diagonal values, accumulated rotation V).

    V's columns are the eigenvectors: A = V diag V^T up to the off-diagonal
    tolerance.  dim <= 4 converges in a handful of sweeps.
    """
    n = m.dim
    a = m.to_rows()
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
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
                for r in range(n):
                    vrp, vrq = v[r][p], v[r][q]
                    v[r][p] = c * vrp - s * vrq
                    v[r][q] = s * vrp + c * vrq
    vals = [a[i][i] for i in range(n)]
    order = sorted(range(n), key=lambda i: vals[i])
    vals_sorted = [vals[i] for i in order]
    vecs = [[v[r][i] for i in order] for r in range(n)]
    return vals_sorted, vecs


def eigenvalues(m):
    """All eigenvalues of m, ascending."""
    return _jacobi(m)[0]


def eigh(m):
    """Eigen-decomposition (values ascending, eigenvector matrix by columns)."""
    return _jacobi(m)


# one cyclic Jacobi step per pair (p, q) of a 3x3 matrix stored as its upper
# triangle e = (a00, a01, a02, a11, a12, a22): the indices in e of a_pp,
# a_qq, a_pq and of a_rp, a_rq for the remaining row r
_ROTATIONS_3 = ((0, 3, 1, 2, 4), (0, 5, 2, 1, 4), (3, 5, 4, 1, 2))


def extreme_eigenvalues(a00, a01, a02, a11, a12, a22):
    """(lambda_min, lambda_max) arrays of a batch of symmetric 3x3 matrices.

    The six upper-triangle entries are arrays (or scalars) broadcasting to
    one 1-D shape.  Each matrix goes through the same IEEE operations, in
    the same order, as _jacobi does for it alone, so the results equal
    eigenvalues(m)[0] and eigenvalues(m)[-1] bit for bit: the Frobenius sum
    runs row-major over the full matrix, a converged matrix drops out of
    the batch, and a zero off-diagonal entry keeps its rows through a
    select.  numpy ufuncs only; no LAPACK.
    """
    e = list(np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                   for x in (a00, a01, a02, a11, a12, a22))))
    if e[0].ndim != 1:
        raise ValueError("entries must broadcast to a 1-D batch")
    for x in e:
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite matrix entry in the batch")
    q00, q01, q02, q11, q12, q22 = (x * x for x in e)
    scale = np.maximum(
        1.0, np.sqrt(0.0 + q00 + q01 + q02 + q01 + q11 + q12 + q02 + q12 + q22))

    size = e[0].shape[0]
    lo = np.empty(size)
    hi = np.empty(size)
    live = np.arange(size)

    def finish(rows, d0, d1, d2):
        # sorted() is stable: the first of tied minima, the last of tied maxima
        mn = np.where(d1 < d0, d1, d0)
        lo[rows] = np.where(d2 < mn, d2, mn)
        mx = np.where(d1 >= d0, d1, d0)
        hi[rows] = np.where(d2 >= mx, d2, mx)

    zeros = np.zeros(size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_MAX_SWEEPS):
            off = 0.0 + e[1] * e[1] + e[2] * e[2] + e[4] * e[4]
            done = np.sqrt(2.0 * off) <= _OFF_TOL * scale
            if done.any():
                finish(live[done], e[0][done], e[3][done], e[5][done])
                keep = ~done
                live = live[keep]
                e = [x[keep] for x in e]
                scale = scale[keep]
                zeros = zeros[keep]
            if not live.size:
                return lo, hi
            for pp, qq, pq, rp, rq in _ROTATIONS_3:
                app, aqq, apq, arp, arq = e[pp], e[qq], e[pq], e[rp], e[rq]
                theta = (aqq - app) / (2.0 * apq)
                t = 1.0 / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                np.negative(t, out=t, where=theta < 0.0)
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                tapq = t * apq
                new = [app - tapq, aqq + tapq, zeros,
                       c * arp - s * arq, s * arp + c * arq]
                if np.count_nonzero(apq) < apq.size:
                    nz = apq != 0.0
                    new = [np.where(nz, x, old) for x, old
                           in zip(new, (app, aqq, apq, arp, arq))]
                e[pp], e[qq], e[pq], e[rp], e[rq] = new
    finish(live, e[0], e[3], e[5])
    return lo, hi


def _rotate(app, aqq, apq, arp, arq):
    # one Jacobi rotation of _jacobi on pair (p, q) with remaining row r:
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

    The scalar twin of extreme_eigenvalues: _jacobi's 3x3 operations in the
    same order, unrolled over six locals, so the results equal
    eigenvalues(m)[0] and eigenvalues(m)[-1] bit for bit without building a
    SymMatrix or accumulating eigenvectors.
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


def is_positive_definite(m, margin=0.0):
    """True iff lambda_min(m) > margin.  margin must be >= 0."""
    if not (margin >= 0.0) or not math.isfinite(margin):
        raise ValueError("margin must be a finite scalar >= 0")
    return eigenvalues(m)[0] > margin


def is_negative_semidefinite(m, slack=0.0):
    """True iff lambda_max(m) <= slack.  slack must be >= 0."""
    if not (slack >= 0.0) or not math.isfinite(slack):
        raise ValueError("slack must be a finite scalar >= 0")
    return eigenvalues(m)[-1] <= slack


def is_negative_definite(m, margin=0.0):
    """True iff lambda_max(m) < -margin (strict form used for Phi < 0)."""
    if not (margin >= 0.0) or not math.isfinite(margin):
        raise ValueError("margin must be a finite scalar >= 0")
    return eigenvalues(m)[-1] < -margin
