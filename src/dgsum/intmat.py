"""Exact integer matrices and the column-style Hermite normal form.

Everything here runs on Python big integers, so there is no overflow and no
rounding.  The HNF is the workhorse: it yields integer kernels,
integer solvability tests and particular solutions of ``X u = t``.  Each
matrix object is decomposed at most once (``IntMatrix.hermite``) and its
kernel lattice LLL-reduced at most once (``IntMatrix.reduced_kernel``);
equal matrices built separately are decomposed and reduced separately, so
nothing is shared beyond the life of the object.  Ranks come from
fraction-free (Bareiss) elimination.
"""

from __future__ import annotations

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

    def row(self, i: int) -> IntVector:
        return self.rows[i]

    @cached_property
    def cols(self) -> tuple[IntVector, ...]:
        """The columns, built once per matrix object."""
        return tuple(zip(*self.rows))

    def column(self, j: int) -> IntVector:
        return self.cols[j]

    def columns(self) -> list[IntVector]:
        return list(self.cols)

    @property
    def T(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows))) if self.rows else self

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            ocols = other.cols
            return IntMatrix(
                tuple(tuple(dot(r, c) for c in ocols) for r in self.rows)
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
        H, U = hnf_column(self)
        pivots = hnf_pivots(H)
        kernel = tuple(U.column(j) for j in range(len(pivots), self.n_cols))
        if any(any(self @ v) for v in kernel):
            raise InvariantViolation("HNF kernel column not in the kernel of X")
        return Hermite(H, U, pivots, kernel)

    @cached_property
    def reduced_kernel(self) -> "LatticeBasis":
        """The LLL-reduced basis of ``hermite.kernel``, computed on first use and
        kept with the matrix object like ``hermite``, so that the kernel report,
        the certificate fallback and the fiber workspace of one matrix share one
        reduction.  No rank requirement: the kernel of a rank-deficient matrix is
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
    """X U = H from hnf_column(X), H's pivots and the integer kernel of X
    (the columns of U over the zero columns of H)."""

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


def hnf_column(X: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite normal form: returns (H, U) with X @ U = H.

    U is unimodular; H is lower column-echelon with positive pivots and the
    entries to the right of each pivot reduced.  Columns of U over the zero
    columns of H generate the integer kernel of X.
    """
    n, m = X.shape
    H = [list(r) for r in X.rows]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def swap_cols(a, b):
        for r in H:
            r[a], r[b] = r[b], r[a]
        for r in U:
            r[a], r[b] = r[b], r[a]

    def addmul_col(dst, src, k):
        # col_dst += k * col_src
        for r in H:
            r[dst] += k * r[src]
        for r in U:
            r[dst] += k * r[src]

    def scale_col(j, k):
        for r in H:
            r[j] *= k
        for r in U:
            r[j] *= k

    pivot_col = 0
    for row in range(n):
        # eliminate within row using gcd column operations
        nz = [c for c in range(pivot_col, m) if H[row][c] != 0]
        if not nz:
            continue
        if nz[0] != pivot_col:
            swap_cols(pivot_col, nz[0])
        while True:
            nz = [c for c in range(pivot_col + 1, m) if H[row][c] != 0]
            if not nz:
                break
            for c in nz:
                q = H[row][c] // H[row][pivot_col]
                addmul_col(c, pivot_col, -q)
                if H[row][c] != 0 and abs(H[row][c]) < abs(H[row][pivot_col]):
                    swap_cols(pivot_col, c)
        if H[row][pivot_col] < 0:
            scale_col(pivot_col, -1)
        # reduce earlier columns against the new pivot column
        for c in range(pivot_col):
            q = H[row][c] // H[row][pivot_col]
            if q:
                addmul_col(c, pivot_col, -q)
        pivot_col += 1
        if pivot_col == m:
            break
    return IntMatrix.from_rows(H), IntMatrix.from_rows(U)


def hnf_pivots(H: IntMatrix) -> tuple[tuple[int, int], ...]:
    """(row, col) of each pivot of a column HNF: the first nonzero of each nonzero column."""
    pivots = []
    for j in range(H.n_cols):
        col = H.column(j)
        nz = [i for i, x in enumerate(col) if x != 0]
        if nz:
            pivots.append((nz[0], j))
    return tuple(pivots)


def kernel_columns(X: IntMatrix) -> list[IntVector]:
    """Basis of the integer kernel {v in Z^m : X v = 0} as column vectors."""
    return list(X.hermite.kernel)


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
