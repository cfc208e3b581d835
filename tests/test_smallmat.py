"""Tests for the 3x3 symmetric eigenvalue kernel.

The value oracle used here is fully independent of the implementation:
characteristic polynomial coefficients via Faddeev-LeVerrier, roots isolated
recursively through the derivative and pinned down by bisection.  The bit
oracle is the general nested-loop cyclic Jacobi that extremes3 unrolls.
"""

import math

import numpy as np
import pytest

from wavecert.smallmat import eigenvalues, extremes3

PI2 = math.pi * math.pi


# ---------------------------------------------------------------- oracles


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _charpoly(rows):
    """Coefficients of det(xI - A) = x^n + c1 x^(n-1) + ... + cn (Faddeev-LeVerrier)."""
    n = len(rows)
    m = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    coeffs = [1.0]
    for k in range(1, n + 1):
        m = _matmul(rows, m)
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(c)
        for i in range(n):
            m[i][i] += c
    return coeffs


def _polyval(coeffs, x):
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _derivative(coeffs):
    n = len(coeffs) - 1
    return [coeffs[i] * (n - i) for i in range(n)]


def _bisect_root(coeffs, lo, hi):
    flo = _polyval(coeffs, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = _polyval(coeffs, mid)
        if fm == 0.0 or hi - lo < 1e-15 * max(1.0, abs(mid)):
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _real_roots(coeffs, lo, hi):
    """All real roots in [lo, hi] of a polynomial whose roots are all real."""
    n = len(coeffs) - 1
    if n == 0:
        return []
    if n == 1:
        return [-coeffs[1] / coeffs[0]]
    crit = _real_roots(_derivative(coeffs), lo, hi)
    pts = [lo] + sorted(crit) + [hi]
    roots = []
    for a, b in zip(pts[:-1], pts[1:]):
        fa, fb = _polyval(coeffs, a), _polyval(coeffs, b)
        if fa == 0.0:
            fa = _polyval(coeffs, a + 1e-14 * (1 + abs(a)))
        if (fa < 0) != (fb < 0):
            roots.append(_bisect_root(coeffs, a, b))
        elif abs(fb) <= 1e-13 * max(1.0, abs(_polyval(coeffs, 0.5 * (a + b)))):
            roots.append(b)  # repeated root sitting on a critical point
    return roots


def _eig_oracle(rows):
    n = len(rows)
    bound = max(
        abs(rows[i][i]) + sum(abs(rows[i][j]) for j in range(n) if j != i) for i in range(n)
    )
    roots = _real_roots(_charpoly(rows), -bound - 1.0, bound + 1.0)
    assert len(roots) == n, "oracle failed to isolate all roots"
    return sorted(roots)


def jacobi_eigenvalues(rows):
    """All eigenvalues of full symmetric rows, ascending, by cyclic Jacobi.

    The general nested loop that extremes3 unrolls for 3x3, with the same
    convergence scale max(1, |A|_F) squared by multiplication: the bit
    oracle of extremes3 and of every certificate margin.
    """
    n = len(rows)
    a = [[float(x) for x in row] for row in rows]
    fro = 0.0
    for i in range(n):
        for j in range(n):
            fro += a[i][j] * a[i][j]
    scale = max(1.0, math.sqrt(fro))
    for _ in range(100):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += a[p][q] * a[p][q]
        if math.sqrt(2.0 * off) <= 1e-13 * scale:
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


def full_rows(entries):
    """Full 3x3 rows from an upper triangle (a00, a01, a02, a11, a12, a22)."""
    a00, a01, a02, a11, a12, a22 = (float(x) for x in entries)
    return [[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]]


def upper(rows):
    """The upper triangle (a00, a01, a02, a11, a12, a22) of 3x3 rows."""
    return (rows[0][0], rows[0][1], rows[0][2], rows[1][1], rows[1][2], rows[2][2])


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = 0.0
    for j in range(n):
        minor = [[rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
        acc += ((-1) ** j) * rows[0][j] * _det(minor)
    return acc


def _sylvester_pd(rows):
    n = len(rows)
    return all(_det([r[: k + 1] for r in rows[: k + 1]]) > 0 for k in range(n))


def _random_sym_rows(rng, dim):
    a = rng.uniform(-1.0, 1.0, size=(dim, dim))
    a = (a + a.T) / 2
    return a.tolist()


# ---------------------------------------------------------------- entry point


def test_invalid_inputs():
    # the first non-finite entry in storage order is the one reported
    with pytest.raises(ValueError, match="^non-finite matrix entry inf$"):
        eigenvalues((1.0, math.inf, 2.0, math.nan, 0.0, 3.0))
    with pytest.raises(ValueError, match="^non-finite matrix entry nan$"):
        eigenvalues([1.0, 0.5, 2.0, math.nan, 0.0, -math.inf])
    for size in (1, 3, 5, 7, 10):
        with pytest.raises(TypeError):
            eigenvalues([1.0] * size)


# ---------------------------------------------------------------- examples


def test_diagonal():
    assert eigenvalues((2.0, 0.0, 0.0, 3.0, 0.0, 5.0)) == (2.0, 5.0)
    assert eigenvalues((3.0, 0.0, 0.0, -1.0, 0.0, 2.0)) == (-1.0, 3.0)


def test_symmetric_pair():
    vals = eigenvalues((0.0, 1.0, 0.0, 0.0, 0.0, 0.0))
    assert vals == pytest.approx((-1.0, 1.0), abs=1e-14)


def test_assembled_lmi_matrices():
    # the 3x3 stability matrix at n=1, chi=0.1, lam0=0.01 is positive definite
    phi0 = (0.5 - 0.04 / PI2, 0.1, 0.0, 0.5, 0.0, 0.01)
    assert eigenvalues(phi0)[0] > 1e-9
    # n=1, k=1, g1=0, delta=0.05, chi=0.2, lam1=1e-6: feasible since (chi-delta)^2 >= 4 delta^2 chi^2
    lam1 = 1e-6
    psi2 = (-0.2 + 0.05 + lam1 * 4 / PI2, 2 * 0.05 * 0.2, 0.0, -0.2 + 0.05, 0.0, -lam1)
    assert eigenvalues(psi2)[-1] <= 1e-9


# ---------------------------------------------------------------- property sweeps


def test_eigenvalues_match_charpoly_oracle():
    rng = np.random.default_rng(20240601)
    for _ in range(1000):
        rows = _random_sym_rows(rng, 3)
        got = eigenvalues(upper(rows))
        want = _eig_oracle(rows)
        for g, w in zip(got, (want[0], want[-1])):
            assert abs(g - w) <= 1e-10 * (1.0 + abs(w))


def test_eigenvalue_product_is_determinant():
    # the middle eigenvalue is what the trace leaves of the two extremes
    rng = np.random.default_rng(12)
    for _ in range(1000):
        rows = _random_sym_rows(rng, 3)
        low, high = eigenvalues(upper(rows))
        mid = rows[0][0] + rows[1][1] + rows[2][2] - low - high
        assert low <= mid + 1e-12 and mid <= high + 1e-12
        prod = low * mid * high
        det = _det(rows)
        assert abs(prod - det) <= 1e-9 * max(1.0, abs(det), abs(prod))


def test_positive_definite_agrees_with_sylvester():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        rows = _random_sym_rows(rng, 3)
        # random continuous entries keep lambda_min safely away from 0
        assert (eigenvalues(upper(rows))[0] > 0.0) == _sylvester_pd(rows)


def test_permutation_invariance():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        rows = np.array(_random_sym_rows(rng, 3))
        perm = rng.permutation(3)
        permuted = rows[np.ix_(perm, perm)]
        a = eigenvalues(upper(rows.tolist()))
        b = eigenvalues(upper(permuted.tolist()))
        for x, y in zip(a, b):
            assert abs(x - y) <= 1e-12 * (1.0 + abs(x))


# ---------------------------------------------------------------- bit oracle


def _same_bits(x, y):
    return np.array_equal(np.asarray(x, dtype=float).view(np.int64),
                          np.asarray(y, dtype=float).view(np.int64))


def _scalar_extremes(entries):
    lows, highs = [], []
    for row in entries.tolist():
        vals = jacobi_eigenvalues(full_rows(row))
        lows.append(vals[0])
        highs.append(vals[-1])
    return np.array(lows), np.array(highs)


def _scalar_kernel_extremes(entries):
    pairs = [extremes3(*row) for row in entries.tolist()]
    return np.array([lo for lo, _ in pairs]), np.array([hi for _, hi in pairs])


def _random_batch(rng, size):
    # scales 1e-8 .. 1e4, some off-diagonal entries zeroed, some diagonal
    entries = rng.uniform(-1.0, 1.0, (size, 6)) * 10.0 ** rng.uniform(-8, 4, (size, 1))
    off = entries[:, [1, 2, 4]]
    off[rng.random(off.shape) < 0.2] = 0.0
    off[rng.random(size) < 0.05] = 0.0
    entries[:, [1, 2, 4]] = off
    return entries


def test_extremes3_bit_identical_to_scalar_jacobi():
    rng = np.random.default_rng(21)
    entries = _random_batch(rng, 6000)
    assert np.count_nonzero(np.all(entries[:, [1, 2, 4]] == 0.0, axis=1)) > 100
    want_lo, want_hi = _scalar_extremes(entries)
    # bit patterns, so the sign of a zero counts too
    one_lo, one_hi = _scalar_kernel_extremes(entries)
    assert _same_bits(one_lo, want_lo)
    assert _same_bits(one_hi, want_hi)


def test_extremes3_mixed_sweep_counts():
    # diagonal (no sweep), nearly diagonal (one), ill-separated and
    # clustered matrices (several)
    rows = [
        [2.0, 0.0, 0.0, -1.0, 0.0, 3.0],
        [-0.0, 0.0, -0.0, 0.0, 0.0, -0.0],
        # tied zeros: the minimum is the first of them, the maximum the last
        [0.0, 0.0, 0.0, -0.0, 0.0, -0.0],
        [-0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -0.0, 0.0, -1.0],
        [1.0, 0.0, 0.0, -0.0, 0.0, 0.0],
        [1.0, 1e-12, 0.0, 2.0, 0.0, 3.0],
        [1.0, 1e-3, 1e-3, 1.0 + 1e-12, 1e-3, 1.0],
        [0.5, 0.25, 0.125, 0.5, 0.25, 0.5],
        [1e4, -3e3, 7e2, -2e4, 5e3, 1e-8],
        [1.0, 0.0, 1.0, 1.0, 0.0, 1.0],
    ]
    entries = np.array(rows)
    want_lo, want_hi = _scalar_extremes(entries)
    one_lo, one_hi = _scalar_kernel_extremes(entries)
    assert _same_bits(one_lo, want_lo) and _same_bits(one_hi, want_hi)


def test_extremes3_rejects_non_finite_entries():
    for bad in (math.nan, math.inf, -math.inf):
        for i in range(6):
            row = [1.0, 0.5, 0.0, 2.0, 0.25, 3.0]
            row[i] = bad
            with pytest.raises(ValueError, match="non-finite matrix entry"):
                extremes3(*row)
            with pytest.raises(ValueError, match="non-finite matrix entry"):
                eigenvalues(row)
