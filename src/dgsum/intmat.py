"""Exact integer matrices and the column-style Hermite normal form.

Everything here runs on Python big integers, so there is no overflow and no
rounding.  The HNF is the workhorse: it yields integer kernels,
integer solvability tests and particular solutions of ``X u = t``.  Each
matrix object is decomposed at most once (``IntMatrix.hermite``) and its
kernel lattice LLL-reduced at most once (``IntMatrix.reduced_kernel``);
equal matrices built separately are decomposed and reduced separately, so
nothing is shared beyond the life of the object.  Ranks and determinants
come from fraction-free (Bareiss) elimination, adjugates from the Smith form.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .lattice import LatticeBasis

IntVector = tuple[int, ...]


class InvariantViolation(AssertionError):
    """An internal consistency check failed; raised explicitly, so it survives ``python -O``."""


class SurjectivityError(ValueError):
    """X does not map Z^m onto Z^n (``require_surjective``)."""


def _as_int(x) -> int:
    """``x`` as a Python int: an int is returned as it is; anything else (bool,
    numpy integer, float) is converted and must equal its conversion, so
    ``2.0`` becomes 2 and ``2.5`` raises ``ValueError``."""
    if type(x) is int:
        return x
    v = int(x)
    if v != x:
        raise ValueError(f"non-integer entry {x!r}")
    return v


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with exact arithmetic.

    Equality and hashing read ``rows`` only.  Derived data (``cols``,
    ``hermite``, ``reduced_kernel``) is computed on first use and kept with the
    matrix object.
    """

    rows: tuple[IntVector, ...]

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMatrix":
        r = tuple(tuple(map(_as_int, row)) for row in rows)
        if r and any(len(row) != len(r[0]) for row in r):
            raise ValueError("ragged rows")
        return IntMatrix(r)

    @staticmethod
    def from_columns(cols: Iterable[Iterable[int]]) -> "IntMatrix":
        cols = [list(c) for c in cols]
        return IntMatrix.from_rows(zip(*cols)) if cols else IntMatrix(())

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @cached_property
    def cols(self) -> tuple[IntVector, ...]:
        """The columns, built once per matrix object."""
        return tuple(zip(*self.rows))

    @property
    def T(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows))) if self.rows else self

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            ocols = other.cols
            if self.rows and ocols and self.n_cols != other.n_rows:
                raise ValueError("dimension mismatch")
            return IntMatrix(
                tuple([tuple([sum(map(operator.mul, r, c)) for c in ocols]) for r in self.rows])
            )
        # vector
        v = tuple(map(_as_int, other))
        if len(v) != self.n_cols:
            raise ValueError("dimension mismatch")
        return tuple(dot(r, v) for r in self.rows)

    @cached_property
    def hermite(self) -> "Hermite":
        """This matrix's column HNF, computed by ``hnf_column`` on first use
        and kept with the matrix object (not with its contents), so that every
        solve, kernel and surjectivity test of one matrix shares one
        decomposition.  The kernel columns are checked once, here."""
        H, U, pivots = hnf_column(self)
        kernel = U.cols[len(pivots):]
        if any(any(self @ v) for v in kernel):
            raise InvariantViolation("HNF kernel column not in the kernel of X")
        return Hermite(H, U, pivots, kernel)

    @cached_property
    def reduced_kernel(self) -> "LatticeBasis":
        """The LLL-reduced basis of ``hermite.kernel``, computed on first use and
        kept with the matrix object like ``hermite``, so that the kernel report
        and the certificate fallback of one matrix share one reduction.  No rank requirement: the kernel of a rank-deficient matrix is
        reduced as it is (its columns are independent, being columns of U)."""
        from .lattice import LatticeBasis, lll_reduce

        return lll_reduce(LatticeBasis(IntMatrix.from_columns(self.hermite.kernel)))

    def to_numpy(self, dtype=float) -> np.ndarray:
        return np.array([list(r) for r in self.rows], dtype=dtype)

    def to_text(self) -> str:
        return "\n".join(" ".join(str(x) for x in r) for r in self.rows)

    @staticmethod
    def from_text(text: str) -> "IntMatrix":
        rows = [line.split() for line in text.strip().splitlines() if line.strip()]
        return IntMatrix.from_rows([[int(tok) for tok in row] for row in rows])


class Hermite(NamedTuple):
    """X U = H and H's (row, column) pivots from hnf_column(X), and the
    integer kernel of X (the columns of U over the zero columns of H)."""

    H: IntMatrix
    U: IntMatrix
    pivots: tuple[tuple[int, int], ...]
    kernel: tuple[IntVector, ...]


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return sum(map(operator.mul, a, b))


def norm_sq(a: Sequence[int]) -> int:
    return sum(map(operator.mul, a, a))


def hnf_column(X: IntMatrix) -> tuple[IntMatrix, IntMatrix, tuple[tuple[int, int], ...]]:
    """Column-style Hermite normal form: returns (H, U, pivots) with X @ U = H.

    U is unimodular; H is lower column-echelon with positive pivots and the
    entries to the right of each pivot reduced.  ``pivots`` holds the
    (row, column) of each pivot as the elimination fixes it, the first
    nonzero of each nonzero column of H; the columns past the last pivot are
    H's zero columns, and the columns of U over them generate the integer
    kernel of X.  The column operations run on the columns of [X; I], whose
    first n entries end as H's and last m entries as U's.
    """
    n, m = X.shape
    cols = [[*col, *[0] * j, 1, *[0] * (m - j - 1)] for j, col in enumerate(X.cols)]
    pivots = []
    p = 0  # the pivot column
    for row in range(n):
        # eliminate within row using gcd column operations
        nz = [j for j in range(p, m) if cols[j][row]]
        if not nz:
            continue
        cols[p], cols[nz[0]] = cols[nz[0]], cols[p]
        while nz := [j for j in range(p + 1, m) if cols[j][row]]:
            for j in nz:
                q = cols[j][row] // cols[p][row]
                if q:
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[p])]
                if cols[j][row] and abs(cols[j][row]) < abs(cols[p][row]):
                    cols[p], cols[j] = cols[j], cols[p]
        if cols[p][row] < 0:
            cols[p] = [-a for a in cols[p]]
        # reduce earlier columns against the new pivot column
        for j in range(p):
            q = cols[j][row] // cols[p][row]
            if q:
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[p])]
        pivots.append((row, p))
        p += 1
        if p == m:
            break
    rows = tuple(zip(*cols)) or ((),) * n  # m = 0: n empty rows
    return IntMatrix(rows[:n]), IntMatrix(rows[n:]), tuple(pivots)


def solve_integer(X: IntMatrix, target: Sequence[int]) -> IntVector | None:
    """One integer solution of X u = target, or None if none exists."""
    n, m = X.shape
    t = [_as_int(x) for x in target]
    if len(t) != n:
        raise ValueError("dimension mismatch")
    H, U, pivots, _ = X.hermite
    y = [0] * m
    resid = list(t)
    for (row, col) in pivots:
        # rows above the pivot row in this column are zero by echelon shape
        if resid[row] % H.rows[row][col] != 0:
            return None
        y[col] = resid[row] // H.rows[row][col]
        for i in range(n):
            resid[i] -= y[col] * H.rows[i][col]
    if any(r != 0 for r in resid):
        return None
    u = U @ y
    if tuple(X @ u) != tuple(t):
        raise InvariantViolation("HNF particular solution does not solve X u = t")
    return tuple(u)


def is_surjective(X: IntMatrix) -> bool:
    """True iff X maps Z^m onto Z^n."""
    H, _, pivots, _ = X.hermite
    if len(pivots) != X.n_rows:
        return False
    return all(H.rows[r][c] == 1 for (r, c) in pivots)


def require_surjective(X: IntMatrix) -> None:
    """SurjectivityError unless X maps Z^m onto Z^n (so X has full row rank
    and every label has a fiber): the one onto check before a certificate
    search or a TVD."""
    if not is_surjective(X):
        raise SurjectivityError("X does not map Z^m onto Z^n: some labels have no fiber")


def independent_rows(rows: Sequence[Sequence[int]]) -> Iterator[int]:
    """Yield, in index order, each row index whose row is independent over the
    rationals of the rows before it: the greedy basis of the row space.

    One incremental fraction-free (Bareiss) elimination: each row is reduced
    against the pivot rows kept so far, in the order they were kept, and kept
    itself if anything is left.  Every entry is then a minor of the input, so
    each division by the previous pivot is exact.  The elimination stops when
    the caller stops asking or the rank reaches the row length.
    """
    pivots: list[tuple[int, list[int]]] = []  # (pivot column, reduced row)
    for k, row in enumerate(rows):
        v = [_as_int(x) for x in row]
        if len(pivots) == len(v):
            return
        before = 1
        for col, top in pivots:
            p, f = top[col], v[col]
            if f:
                v = [(p * a - f * b) // before for a, b in zip(v, top)]
            elif p != before:
                v = [p * a // before for a in v]
            before = p
        col = next((j for j, x in enumerate(v) if x), None)
        if col is None:
            continue
        pivots.append((col, v))
        yield k


def fraction_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals: the size of the greedy basis of ``independent_rows``."""
    return sum(1 for _ in independent_rows(rows))


def _int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination; every division is exact."""
    M = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(len(M)):
        piv = next((i for i in range(k, len(M)) if M[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        top = M[k]
        for i in range(k + 1, len(M)):
            row = M[i]
            M[i] = [(top[k] * a - row[k] * b) // prev for a, b in zip(row, top)]
        prev = top[k]
    return sign * prev


def smith(G: IntMatrix) -> tuple[IntMatrix, IntMatrix, list[int]]:
    """(U, V, D) with U G V = diag(D), U and V unimodular, D_i > 0 and
    D_i | D_{i+1}, for a nonsingular square G: the Smith normal form.

    The column HNFs of the matrix and of its transpose alternate until it is
    diagonal; while some D_i does not divide a later D_j, column j is added
    to column i and the alternation resumes, which lowers D_i to a proper
    divisor.  Raises InvariantViolation unless U G V = diag(D), D is a
    divisor chain of positive entries and prod D = |det G|, which makes U and
    V unimodular: det U det V = prod D / det G = +-1, both integers.
    """
    n = G.n_rows

    def diagonal(A):
        return not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(A.rows))

    U = None  # the identity until the first row operation
    A, V, _ = hnf_column(G)
    while True:
        while not diagonal(A):
            H, W, _ = hnf_column(A.T)
            A, U = H.T, W.T if U is None else W.T @ U
            if not diagonal(A):
                A, W, _ = hnf_column(A)
                V = V @ W
        D = [A.rows[i][i] for i in range(n)]
        pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if D[j] % D[i]), None)
        if pair is None:
            break
        E = IntMatrix.from_rows([[int(a == b or (a, b) == pair[::-1]) for b in range(n)] for a in range(n)])
        A, V = A @ E, V @ E
    if U is None:
        U = IntMatrix.identity(n)
    UG = [[sum(map(operator.mul, row, col)) for col in G.cols] for row in U.rows]
    if (any(sum(map(operator.mul, ug, col)) != (D[i] if i == j else 0)
            for i, ug in enumerate(UG) for j, col in enumerate(V.cols))
            or min(D, default=1) <= 0 or any(D[i + 1] % D[i] for i in range(n - 1))
            or math.prod(D) != abs(_int_det(G.rows))):
        raise InvariantViolation(f"U G V = diag({D}) is not a Smith form of G with unimodular U, V")
    return U, V, D


def smith_adjugate(U: IntMatrix, V: IntMatrix, D: Sequence[int]) -> IntMatrix:
    """V diag(prod D / D_i) U, the adjugate of a G with U G V = diag(D) and
    det G > 0: G^-1 = V diag(D)^-1 U and det G = prod D."""
    scaled = [math.prod(D) // Di for Di in D]
    return IntMatrix(tuple([tuple([sum(map(operator.mul, map(operator.mul, row, scaled), col)) for col in U.cols])
                            for row in V.rows]))


def adjugate(G: IntMatrix) -> tuple[list[list[int]], int]:
    """(adj G, det G) of a nonsingular square integer matrix, so that
    adj(G) G = det(G) I, from its Smith form U G V = diag(D): adj G =
    det(G) G^-1 = det(G) V diag(D)^-1 U is the sign det G / prod D times
    ``smith_adjugate``."""
    U, V, D = smith(G)
    det = _int_det(G.rows)
    sign = det // math.prod(D)
    return [[sign * x for x in row] for row in smith_adjugate(U, V, D).rows], det
