"""Exact integer lattice linear algebra.

Integer kernels via the Hermite normal form, integral LLL reduction and
Babai nearest-plane (integer Gram-Schmidt data only, computed once per
basis, with the decisions of exact-rational arithmetic), rational dual
bases, smoothing-parameter bounds and a numeric smoothing check over the
dual lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .gaussian import poisson_sum
from .intmat import IntMatrix, InvariantViolation, adjugate, dot, norm_sq


LOVASZ = Fraction(99, 100)  # the Lovasz parameter delta of lll_reduce


class RankError(ValueError):
    pass


@dataclass(frozen=True)
class LatticeBasis:
    """Columns of ``matrix`` generate the lattice; rank = number of columns.

    The integral Gram-Schmidt data of the columns (``gso``) is computed once
    per basis, at construction, and kept with it: it is the independence
    check (every Gram determinant d[1..r] non-zero), the starting point of
    ``lll_reduce`` and the basis part of every ``nearest_plane`` call.
    """

    matrix: IntMatrix
    provenance: str = "raw"

    def __post_init__(self):
        try:
            independent = all(self.gso[0][1:])
        except ZeroDivisionError:  # a dependent column before the last divides by d = 0
            independent = False
        if not independent:
            raise RankError("basis columns are linearly dependent")

    @cached_property
    def gso(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """``_integral_gso`` of the columns, as tuples (d, lam)."""
        d, lam = _integral_gso([list(c) for c in self.matrix.cols])
        return tuple(d), tuple(map(tuple, lam))

    @property
    def rank(self) -> int:
        return self.matrix.n_cols

    @property
    def dim(self) -> int:
        return self.matrix.n_rows

    def vectors(self) -> list[tuple[int, ...]]:
        return list(self.matrix.cols)


@dataclass(frozen=True)
class SmoothingBound:
    """Upper bound on the smoothing parameter from the n-th minimum."""

    n: int
    eps: float
    lambda_n: float
    value: float


def require_full_row_rank(X: IntMatrix) -> None:
    """RankError unless X (n x m) has full row rank n: its kernel rank is m - n.
    The one rank check on X, before a kernel or a TVD."""
    n, m = X.shape
    k = len(X.hermite.kernel)  # rank(X) + k = m
    if k != m - n:
        raise RankError(f"X must have full row rank: kernel rank {k} != m - n = {m - n}")


def integer_kernel(X: IntMatrix) -> LatticeBasis:
    """Basis of the orthogonal lattice {v in Z^m : X v = 0}.

    Requires X of full row rank n with m >= n; the returned rank m - n basis
    (the raw HNF kernel columns) generates all integer solutions.
    """
    require_full_row_rank(X)
    return LatticeBasis(IntMatrix.from_columns(X.hermite.kernel), provenance="raw")


def reduced_integer_kernel(X: IntMatrix) -> LatticeBasis:
    """``X.reduced_kernel``, the LLL-reduced basis of ``integer_kernel(X)``'s
    lattice, under the same full-row-rank requirement.  The requirement is
    read off the kernel's length, so no second raw basis is built for it."""
    require_full_row_rank(X)
    return X.reduced_kernel


def _round_half_even(num: int, den: int) -> int:
    """round(num / den) with ties to even, as ``round`` does on a Fraction; den > 0."""
    q, r = divmod(2 * num + den, 2 * den)
    if r == 0 and q % 2:
        q -= 1  # num / den = q - 1/2 exactly
    return q


def _gso_row(
    b: Sequence[Sequence[int]], d: Sequence[int], lam: Sequence[Sequence[int]], v: Sequence[int]
) -> tuple[list[int], int]:
    """One row of integral Gram-Schmidt data: v placed after b[:k], k = len(lam).

    ``d[:k + 1]`` and ``lam[:k]`` are the data of b[:k] (see ``_integral_gso``).
    Returns (row, dv) with row[j] = d[j + 1] * mu_vj for j < k and dv the Gram
    determinant of b[:k] + [v].  Divides by d[1..k-1] only.
    """
    k = len(lam)
    row = [0] * k
    for j in range(k + 1):
        bj, lj = (b[j], lam[j]) if j < k else (v, row)
        u = dot(v, bj)
        for i in range(j):
            u = (d[i + 1] * u - row[i] * lj[i]) // d[i]
        if j < k:
            row[j] = u
    return row, u


def _integral_gso(b: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Integral Gram-Schmidt data of integer vectors.

    Returns ``d`` with d[0] = 1 and d[i] the Gram determinant of b[:i], and
    ``lam`` with lam[i][j] = d[j + 1] * mu_ij for j < i (zero for j >= i),
    both exact integers (Cohen, GTM 138, Alg. 2.6.7); B*_i^2 = d[i + 1] / d[i].
    Only d[1..r-1] are divisors, so b[:-1] must be linearly independent but
    b[-1] may lie in their span (then d[r] = 0); a dependent earlier vector
    raises ZeroDivisionError or leaves a zero d[i].
    """
    r = len(b)
    d = [1]
    lam: list[list[int]] = []
    for v in b:
        row, dv = _gso_row(b, d, lam, v)
        lam.append(row + [0] * (r - len(row)))
        d.append(dv)
    return d, lam


def lll_reduce(basis: LatticeBasis) -> LatticeBasis:
    """Integral LLL reduction of the basis (same lattice), with the Lovasz
    parameter ``LOVASZ``.

    Starts from a copy of the input's ``gso`` and updates those integers in
    place on each size reduction and swap, so every rounding and Lovasz
    decision is the exact-rational one.  The tracked data is checked once,
    against the reduced basis's own ``gso``; the input basis is not changed.
    """
    num, den = LOVASZ.numerator, LOVASZ.denominator
    b = [list(c) for c in basis.matrix.cols]
    r = len(b)
    if r <= 1:
        return LatticeBasis(basis.matrix, provenance="reduced")
    d = list(basis.gso[0])
    lam = [list(row) for row in basis.gso[1]]
    k = 1
    while k < r:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            q = _round_half_even(lk[j], d[j + 1])
            if q:
                b[k] = [a - q * c for a, c in zip(b[k], b[j])]
                lk[j] -= q * d[j + 1]
                lj = lam[j]
                for i in range(j):
                    lk[i] -= q * lj[i]
        lm = lk[k - 1]
        if den * (d[k + 1] * d[k - 1] + lm * lm) >= num * d[k] * d[k]:
            k += 1
            continue
        # swap b[k-1], b[k] (Cohen's SWAPI): swapping the rows of lam swaps
        # lam[k][j] and lam[k-1][j] for j < k - 1; lam[k][k-1] stays lm
        b[k], b[k - 1] = b[k - 1], b[k]
        lam[k], lam[k - 1] = lam[k - 1], lam[k]
        lam[k][k - 1], lam[k - 1][k - 1] = lm, 0
        bnew = (d[k - 1] * d[k + 1] + lm * lm) // d[k]
        for i in range(k + 1, r):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lm * t) // d[k]
            li[k - 1] = (bnew * t + lm * li[k]) // d[k + 1]
        d[k] = bnew
        k = max(k - 1, 1)
    try:
        out = LatticeBasis(IntMatrix.from_columns(b), provenance="reduced")
    except RankError:
        raise InvariantViolation("LLL output columns are linearly dependent") from None
    # d[r], the Gram determinant, is never updated, so a match also shows
    # that the reduced basis spans a lattice of the input's volume
    if out.gso != (tuple(d), tuple(map(tuple, lam))):
        raise InvariantViolation("incremental LLL Gram data differs from the reduced basis's")
    return out


def successive_minima_upper(basis: LatticeBasis) -> list[float]:
    """Sorted lengths of an LLL-reduced basis: upper bounds on the minima."""
    red = basis if basis.provenance == "reduced" else lll_reduce(basis)
    lens = sorted(math.sqrt(norm_sq(v)) for v in red.vectors())
    return lens


def nearest_plane(basis: LatticeBasis, target: Sequence[Fraction]) -> tuple[int, ...]:
    """Babai nearest-plane: a lattice vector close to ``target``.

    The target (integers or rationals) is scaled by the lcm L of its
    denominators and size-reduced against the integral Gram-Schmidt data,
    with the same ties-to-even rounding as an exact-rational computation.
    The basis part of that data is ``basis.gso``; only the target's row is
    computed here.  Expects a reduced basis for good quality; correctness
    (membership) holds for any basis.
    """
    cols = basis.matrix.cols
    ratios = [Fraction(x).as_integer_ratio() for x in target]
    L = math.lcm(*(q for _, q in ratios))
    d, lam = basis.gso
    # with the scaled target L t after the basis, lt[j] = L * d[j + 1] * mu_j(t)
    lt, _ = _gso_row(cols, d, lam, [p * (L // q) for p, q in ratios])
    v = [0] * basis.dim
    for i in range(len(cols) - 1, -1, -1):
        c = _round_half_even(lt[i], L * d[i + 1])
        if c:
            v = [a + c * x for a, x in zip(v, cols[i])]
            lt[i] -= c * L * d[i + 1]
            for j in range(i):
                lt[j] -= c * L * lam[i][j]
    return tuple(v)


def dual_basis(basis: LatticeBasis) -> list[tuple[Fraction, ...]]:
    """Exact rational dual basis B (B^T B)^-1 = B adj(B^T B) / det(B^T B),
    one column per basis vector; pairing with the primal is the identity.
    For a full-rank lattice this is the inverse transpose; for a lower rank
    it is the dual within the span."""
    B = basis.matrix
    adj, det = adjugate(B.T @ B)
    return [tuple(Fraction(dot(row, a), det) for row in B.rows) for a in zip(*adj)]


def smoothing_bound(n: int, eps: float, lambda_n: float) -> SmoothingBound:
    """lambda_n * sqrt(ln(2n(1 + 1/eps)) / pi), an upper bound on eta_eps."""
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if not (lambda_n > 0 and n >= 1):
        raise ValueError("need lambda_n > 0 and n >= 1")
    value = lambda_n * math.sqrt(math.log(2 * n * (1 + 1 / eps)) / math.pi)
    return SmoothingBound(n=n, eps=eps, lambda_n=lambda_n, value=value)


def smoothing_check(basis: LatticeBasis, s: float, eps: float) -> tuple[bool, float, float]:
    """Numeric check that s is above the smoothing parameter of the lattice.

    Evaluates rho_{1/s}(L* minus 0), the Gaussian weight exp(-pi s^2 ||y||^2)
    of the nonzero dual points, as the mass of the ``PoissonSum`` of the
    Gram matrix s^2 (B^T B)^-1 = s^2 adj(B^T B) / det(B^T B) (that of the
    dual basis s B (B^T B)^-1), truncated where Banaszczyk's bound is 2^-100;
    ``tail`` is that sum's bound on the omitted weight,
    beta (1 + lhs) / (1 - beta).  Returns (holds, lhs, tail) with
    holds = (lhs + tail <= eps).
    """
    if not s > 0:
        raise ValueError("s must be positive")
    B = basis.matrix
    adj, det = adjugate(B.T @ B)
    ps = poisson_sum(s * s * np.array(adj, dtype=float) / det)
    lhs, tail = ps.mass, ps.tail
    return (lhs + tail <= eps), lhs, tail
