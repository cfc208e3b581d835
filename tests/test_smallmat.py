"""Tests for the tiny symmetric eigensolver.

The eigenvalue oracle used here is fully independent of the implementation:
characteristic polynomial coefficients via Faddeev-LeVerrier, roots isolated
recursively through the derivative and pinned down by bisection.
"""

import math

import numpy as np
import pytest

from wavecert.smallmat import (
    SymMatrix,
    eigenvalues,
    eigh,
    extreme_eigenvalues,
    extremes3,
    is_negative_definite,
    is_negative_semidefinite,
    is_positive_definite,
)

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


# ---------------------------------------------------------------- construction


def test_storage_and_indexing():
    m = SymMatrix(3, [1, 2, 3, 4, 5, 6])
    assert m[0, 0] == 1 and m[0, 1] == 2 and m[0, 2] == 3
    assert m[1, 1] == 4 and m[1, 2] == 5 and m[2, 2] == 6
    assert m[2, 0] == m[0, 2]
    assert m.to_rows() == [[1, 2, 3], [2, 4, 5], [3, 5, 6]]
    assert SymMatrix.from_rows(m.to_rows()) == m


def test_invalid_inputs():
    with pytest.raises(ValueError):
        SymMatrix(5, list(range(15)))
    with pytest.raises(ValueError):
        SymMatrix(0, [])
    with pytest.raises(ValueError):
        SymMatrix(2, [1.0, 2.0])
    with pytest.raises(ValueError):
        SymMatrix(2, [1.0, float("nan"), 2.0])
    with pytest.raises(ValueError):
        SymMatrix(2, [1.0, float("inf"), 2.0])
    m = SymMatrix(2, [1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        is_positive_definite(m, -1e-9)
    with pytest.raises(ValueError):
        is_negative_semidefinite(m, -1e-9)
    with pytest.raises(ValueError):
        is_negative_definite(m, -1.0)


# ---------------------------------------------------------------- examples


def test_diagonal():
    assert eigenvalues(SymMatrix.from_rows([[2.0, 0.0], [0.0, 3.0]])) == pytest.approx([2, 3])


def test_symmetric_pair():
    vals = eigenvalues(SymMatrix.from_rows([[0.0, 1.0], [1.0, 0.0]]))
    assert vals == pytest.approx([-1.0, 1.0], abs=1e-14)


def test_definiteness_examples():
    eye3 = SymMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert is_positive_definite(eye3, 0.0)
    assert is_positive_definite(eye3, 0.5)
    assert not is_positive_definite(eye3, 1.0)  # strict comparison at the eigenvalue

    m = SymMatrix.from_rows([[1.0, 2.0], [2.0, 1.0]])
    assert not is_positive_definite(m, 0.0)  # lambda_min = -1

    assert is_negative_semidefinite(SymMatrix(3, [0] * 6), 0.0)
    assert is_negative_semidefinite(SymMatrix.from_rows(np.diag([-1, -2, 1e-12]).tolist()), 1e-9)
    assert not is_negative_semidefinite(SymMatrix.from_rows(np.diag([-1, -2, 1e-6]).tolist()), 1e-9)

    assert is_negative_definite(SymMatrix.from_rows(np.diag([-1.0, -2.0]).tolist()), 1e-9)
    assert not is_negative_definite(SymMatrix.from_rows(np.diag([-1.0, 0.0]).tolist()), 1e-9)


def test_assembled_lmi_matrices():
    # the 3x3 stability matrix at n=1, chi=0.1, lam0=0.01 is positive definite
    phi0 = SymMatrix.from_rows(
        [[0.5 - 0.04 / PI2, 0.1, 0.0], [0.1, 0.5, 0.0], [0.0, 0.0, 0.01]]
    )
    assert is_positive_definite(phi0, 1e-9)
    # n=1, k=1, g1=0, delta=0.05, chi=0.2, lam1=1e-6: feasible since (chi-delta)^2 >= 4 delta^2 chi^2
    lam1 = 1e-6
    psi2 = SymMatrix.from_rows(
        [
            [-0.2 + 0.05 + lam1 * 4 / PI2, 2 * 0.05 * 0.2, 0.0],
            [2 * 0.05 * 0.2, -0.2 + 0.05, 0.0],
            [0.0, 0.0, -lam1],
        ]
    )
    assert is_negative_semidefinite(psi2, 1e-9)


def test_dim1_and_dim4():
    assert eigenvalues(SymMatrix(1, [7.5])) == [7.5]
    rows = [[4, 1, 0, 0], [1, 3, 1, 0], [0, 1, 2, 1], [0, 0, 1, 1]]
    vals = eigenvalues(SymMatrix.from_rows(rows))
    assert vals == pytest.approx(_eig_oracle([[float(v) for v in r] for r in rows]), abs=1e-10)


# ---------------------------------------------------------------- property sweeps


def test_eigenvalues_match_charpoly_oracle():
    rng = np.random.default_rng(20240601)
    for _ in range(1000):
        dim = int(rng.integers(1, 5))
        rows = _random_sym_rows(rng, dim)
        got = eigenvalues(SymMatrix.from_rows(rows))
        want = _eig_oracle(rows)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-10 * (1.0 + abs(w))


def test_eigenvalue_sum_is_trace():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        dim = int(rng.integers(1, 5))
        rows = _random_sym_rows(rng, dim)
        vals = eigenvalues(SymMatrix.from_rows(rows))
        tr = sum(rows[i][i] for i in range(dim))
        assert abs(sum(vals) - tr) <= 1e-10 * (1.0 + abs(tr))


def test_eigenvalue_product_is_determinant():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        dim = int(rng.integers(1, 5))
        rows = _random_sym_rows(rng, dim)
        vals = eigenvalues(SymMatrix.from_rows(rows))
        prod = 1.0
        for v in vals:
            prod *= v
        det = _det(rows)
        assert abs(prod - det) <= 1e-9 * max(1.0, abs(det), abs(prod))


def test_positive_definite_agrees_with_sylvester():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        dim = int(rng.integers(1, 5))
        rows = _random_sym_rows(rng, dim)
        m = SymMatrix.from_rows(rows)
        # random continuous entries keep lambda_min safely away from 0
        assert is_positive_definite(m, 0.0) == _sylvester_pd(rows)


def test_permutation_invariance():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        rows = np.array(_random_sym_rows(rng, dim))
        perm = rng.permutation(dim)
        permuted = rows[np.ix_(perm, perm)]
        a = eigenvalues(SymMatrix.from_rows(rows.tolist()))
        b = eigenvalues(SymMatrix.from_rows(permuted.tolist()))
        for x, y in zip(a, b):
            assert abs(x - y) <= 1e-12 * (1.0 + abs(x))


def test_reconstruction_residual():
    rng = np.random.default_rng(15)
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        rows = np.array(_random_sym_rows(rng, dim))
        m = SymMatrix.from_rows(rows.tolist())
        vals, vecs = eigh(m)
        q = np.array(vecs)
        rebuilt = q @ np.diag(vals) @ q.T
        fro = np.linalg.norm(rows)
        assert np.linalg.norm(rows - rebuilt) <= 1e-10 * (1.0 + fro)
        # columns orthonormal
        assert np.linalg.norm(q.T @ q - np.eye(dim)) <= 1e-12


# ---------------------------------------------------------------- batched kernel


def _same_bits(x, y):
    return np.array_equal(np.asarray(x, dtype=float).view(np.int64),
                          np.asarray(y, dtype=float).view(np.int64))


def _scalar_extremes(entries):
    lows, highs = [], []
    for row in entries:
        vals = eigenvalues(SymMatrix(3, row.tolist()))
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


def test_extreme_eigenvalues_bit_identical_to_scalar_jacobi():
    rng = np.random.default_rng(21)
    entries = _random_batch(rng, 6000)
    assert np.count_nonzero(np.all(entries[:, [1, 2, 4]] == 0.0, axis=1)) > 100
    lo, hi = extreme_eigenvalues(*entries.T)
    want_lo, want_hi = _scalar_extremes(entries)
    # bit patterns, so the sign of a zero counts too
    assert _same_bits(lo, want_lo)
    assert _same_bits(hi, want_hi)
    one_lo, one_hi = _scalar_kernel_extremes(entries)
    assert _same_bits(one_lo, want_lo)
    assert _same_bits(one_hi, want_hi)


def test_frobenius_squares_by_multiplication():
    # x * x is correctly rounded; libm pow(x, 2) is not everywhere, so the
    # three kernels share their convergence scale only if all square this way
    rng = np.random.default_rng(5)
    for row in _random_batch(rng, 2000):
        m = SymMatrix(3, row.tolist())
        s = 0.0
        for x in (row[0], row[1], row[2], row[1], row[3], row[4],
                  row[2], row[4], row[5]):
            s += float(x) * float(x)
        assert m.frobenius() == math.sqrt(s)


def test_extreme_eigenvalues_mixed_sweep_counts():
    # diagonal (no sweep), nearly diagonal (one), ill-separated and
    # clustered matrices (several) converge at different sweeps in one batch
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
    lo, hi = extreme_eigenvalues(*entries.T)
    want_lo, want_hi = _scalar_extremes(entries)
    assert _same_bits(lo, want_lo) and _same_bits(hi, want_hi)
    one_lo, one_hi = _scalar_kernel_extremes(entries)
    assert _same_bits(one_lo, want_lo) and _same_bits(one_hi, want_hi)
    # one element at a time gives the same bits as the batch
    for i, row in enumerate(entries):
        one_lo, one_hi = extreme_eigenvalues(*row[:, None])
        assert _same_bits(one_lo, lo[i:i + 1]) and _same_bits(one_hi, hi[i:i + 1])


def test_extreme_eigenvalues_broadcasts_scalars():
    chi = np.array([0.1, 0.2, 0.3])
    lo, hi = extreme_eigenvalues(0.5, chi, 0.0, 0.5, chi / 2.0, 1.0)
    want_lo, want_hi = _scalar_extremes(
        np.array([[0.5, c, 0.0, 0.5, c / 2.0, 1.0] for c in chi]))
    assert _same_bits(lo, want_lo) and _same_bits(hi, want_hi)


def test_extreme_eigenvalues_rejects_bad_batches():
    with pytest.raises(ValueError, match="non-finite"):
        extreme_eigenvalues(np.array([1.0, math.nan]), 0.0, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        extreme_eigenvalues(np.array([1.0]), math.inf, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="1-D"):
        extreme_eigenvalues(np.ones((2, 2)), 0.0, 0.0, 1.0, 0.0, 1.0)
    # the scalar kernel rejects what SymMatrix rejects, with its message
    for bad in (math.nan, math.inf, -math.inf):
        for i in range(6):
            row = [1.0, 0.5, 0.0, 2.0, 0.25, 3.0]
            row[i] = bad
            with pytest.raises(ValueError, match="non-finite matrix entry"):
                extremes3(*row)
            with pytest.raises(ValueError, match="non-finite matrix entry"):
                SymMatrix(3, row)
