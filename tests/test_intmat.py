"""Exact integer matrix algebra: HNF, kernels, integer solves."""

from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from dgsum.intmat import (
    IntMatrix,
    dot,
    fraction_rank,
    hnf_column,
    hnf_pivots,
    independent_rows,
    is_surjective,
    kernel_columns,
    norm_sq,
    solve_integer,
)


def random_matrix(rng, n, m, lo=-5, hi=6):
    return IntMatrix.from_rows(rng.integers(lo, hi, size=(n, m)).tolist())


def test_construction_and_transpose():
    X = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert X.shape == (2, 3)
    assert X.T.rows == ((1, 4), (2, 5), (3, 6))
    assert X.column(1) == (2, 5)
    assert IntMatrix.from_columns(X.columns()).rows == X.rows


def test_matmul_matrix_and_vector():
    A = IntMatrix.from_rows([[1, 2], [3, 4]])
    B = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (A @ B).rows == ((2, 1), (4, 3))
    assert A @ (1, 1) == (3, 7)
    with pytest.raises(ValueError):
        A @ (1, 1, 1)


def test_from_rows_converts_to_python_ints():
    X = IntMatrix.from_rows([[np.int64(3), True, 2.0], [np.int8(-1), False, -0.0]])
    assert X.rows == ((3, 1, 2), (-1, 0, 0))
    assert all(type(x) is int for r in X.rows for x in r)
    assert all(type(x) is int for x in X @ (np.int64(1), True, 2.0))
    for bad in (2.5, float("nan")):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, bad]])
        with pytest.raises(ValueError):
            X @ (1, 1, bad)


def test_cached_columns():
    rng = np.random.default_rng(3)
    for n, m in ((1, 1), (2, 5), (4, 3)):
        X = random_matrix(rng, n, m)
        assert X.cols == tuple(zip(*X.rows))
        assert X.columns() == list(zip(*X.rows))
        assert [X.column(j) for j in range(m)] == list(zip(*X.rows))
        assert X.cols is X.cols  # built once per object
    assert IntMatrix(()).cols == () and IntMatrix(()).columns() == []


def test_cache_does_not_touch_equality_or_hash():
    A = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    B = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    h = hash(B)
    _ = A.cols, A.hermite  # fill A's caches only
    assert A == B and hash(A) == hash(B) == h
    assert {A: 1}[B] == 1
    assert A != IntMatrix.from_rows([[1, 2, 3], [4, 5, 7]])


def test_text_round_trip():
    X = IntMatrix.from_rows([[1, -2, 30], [0, 7, -100]])
    assert IntMatrix.from_text(X.to_text()).rows == X.rows


def test_dot_and_norms():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert norm_sq((3, 4)) == 25


def test_hnf_identity_on_unimodular():
    X = IntMatrix.from_rows([[1, 1], [0, 1]])
    H, U = hnf_column(X)
    assert (X @ U).rows == H.rows
    assert len(hnf_pivots(H)) == 2


def test_hnf_random_consistency():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n, 6))
        X = random_matrix(rng, n, m)
        H, U = hnf_column(X)
        assert (X @ U).rows == H.rows
        # unimodular U: |det| = 1, checked via exact rank + numpy determinant
        assert abs(round(np.linalg.det(U.to_numpy()))) == 1
        assert len(hnf_pivots(H)) == fraction_rank(X.rows)


def test_kernel_columns_exact():
    X = IntMatrix.from_rows([[1, 1, 1]])
    ker = kernel_columns(X)
    assert len(ker) == 2
    for v in ker:
        assert all(x == 0 for x in X @ v)
    # (1,-1,0) and (0,1,-1) must be integer combinations of the kernel basis
    for target in [(1, -1, 0), (0, 1, -1)]:
        K = IntMatrix.from_columns(ker)
        sol = solve_integer(K, target)
        assert sol is not None


def test_solve_integer_basic():
    X = IntMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    u = solve_integer(X, (1, 0))
    assert u is not None and X @ u == (1, 0)
    assert solve_integer(IntMatrix.from_rows([[2]]), (1,)) is None


def test_solve_integer_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n, 6))
        X = random_matrix(rng, n, m)
        # a matrix whose decomposition is held answers as a fresh equal one
        ker, onto = kernel_columns(X), is_surjective(X)
        fresh = IntMatrix(X.rows)
        assert "hermite" in X.__dict__ and "hermite" not in fresh.__dict__
        assert kernel_columns(fresh) == ker and is_surjective(fresh) == onto
        if fraction_rank(X.rows) < n:
            continue
        w = rng.integers(-3, 4, size=m).tolist()
        t = X @ w
        u = solve_integer(X, t)
        assert u is not None and X @ u == tuple(t)
        assert solve_integer(IntMatrix(X.rows), t) == u


def test_is_surjective():
    assert is_surjective(IntMatrix.from_rows([[1, 0, 1], [0, 1, 1]]))
    assert not is_surjective(IntMatrix.from_rows([[2, 0], [0, 2]]))
    assert not is_surjective(IntMatrix.from_rows([[1, 1], [1, 1]]))


def test_fraction_rank():
    assert fraction_rank([[1, 2], [2, 4]]) == 1
    assert fraction_rank([[1, 0], [0, 1]]) == 2
    assert fraction_rank([]) == 0


def _oracle_fraction_rank(rows):
    """Rank by Gauss-Jordan elimination over Fraction: the reference for Bareiss."""
    M = [[Fraction(x) for x in row] for row in rows]
    if not M:
        return 0
    nr, nc = len(M), len(M[0])
    rank = 0
    for col in range(nc):
        piv = next((i for i in range(rank, nr) if M[i][col] != 0), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for i in range(nr):
            if i != rank and M[i][col] != 0:
                f = M[i][col] / M[rank][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
        if rank == nr:
            break
    return rank


def test_fraction_rank_matches_rational_oracle():
    rng = np.random.default_rng(17)
    deficient = 0
    for _ in range(300):
        nr, nc = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        rows = rng.integers(-6, 7, size=(nr, nc))
        if rng.random() < 0.5 and nr > 1:
            # dependent rows: a random integer combination of the others
            k = int(rng.integers(0, nr))
            rows[k] = rng.integers(-3, 4, size=nr - 1) @ np.delete(rows, k, axis=0)
        if rng.random() < 0.3:
            rows[:, int(rng.integers(0, nc))] = 0  # a column with no pivot
        rows = rows.tolist()
        got = fraction_rank(rows)
        assert got == _oracle_fraction_rank(rows) == np.linalg.matrix_rank(np.array(rows, dtype=float))
        deficient += got < min(nr, nc)
    assert deficient > 50


def _per_candidate_subset(rows, limit):
    """The greedy subset by one full rank per candidate: the reference for independent_rows."""
    subset, chosen = [], []
    for k, row in enumerate(rows):
        if len(subset) == limit:
            break
        if _oracle_fraction_rank(chosen + [row]) > len(chosen):
            subset.append(k)
            chosen.append(row)
    return subset


def test_independent_rows_matches_per_candidate_loop():
    rng = np.random.default_rng(23)
    dependent = 0
    for _ in range(300):
        nr, nc = int(rng.integers(1, 10)), int(rng.integers(1, 8))
        rank = int(rng.integers(0, min(nr, nc) + 1))
        # rows in a rank-`rank` space, so later rows are often dependent
        rows = rng.integers(-4, 5, size=(nr, rank)) @ rng.integers(-4, 5, size=(rank, nc))
        if rng.random() < 0.3:
            rows[:, int(rng.integers(0, nc))] = 0
        if rng.random() < 0.3:
            rows[int(rng.integers(0, nr))] = 0
        rows = rows.tolist()
        want = _per_candidate_subset(rows, nr)
        assert list(independent_rows(rows)) == want
        assert fraction_rank(rows) == len(want) == np.linalg.matrix_rank(np.array(rows, dtype=float))
        # stopping early gives a prefix of the same subset
        for limit in range(len(want) + 1):
            assert list(islice(independent_rows(rows), limit)) == _per_candidate_subset(rows, limit)
        dependent += len(want) < nr
    assert dependent > 100
    big = 10 ** 30
    rows = [[big, big + 1, 0], [2 * big, 2 * big + 2, 0], [0, 0, big], [big + 1, big + 2, 1]]
    assert list(independent_rows(rows)) == _per_candidate_subset(rows, 4) == [0, 2, 3]


def test_fraction_rank_big_integers():
    big = 10 ** 30
    assert fraction_rank([[big, big + 1], [2 * big, 2 * big + 2]]) == 1
    assert fraction_rank([[big, big + 1], [big + 1, big + 2]]) == 2


def test_big_integer_exactness():
    big = 10 ** 30
    X = IntMatrix.from_rows([[big, big + 1]])
    ker = kernel_columns(X)
    assert len(ker) == 1
    v = ker[0]
    assert big * v[0] + (big + 1) * v[1] == 0
    assert v in ((big + 1, -big), (-(big + 1), big))
