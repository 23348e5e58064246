"""Primal-side oracle for the fiber and section sums of ``dgsum.tvd``.

Each fiber {v : X v = z + X c} = P z + c + A is summed directly: the kernel
lattice A's coordinates are enumerated over a fixed integer box in the
whitened kernel basis, recentred per fiber, and the points inside a section
radius are added; the radius is the package's primal rule,
``gaussian.coset_radius``, at the largest shift a section can have.  This is
the enumeration the package used before its section sums moved to the dual
side; the tests compare the dual sums with it.  It is exponential in the
kernel rank and in r, so it runs on small instances only.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from dgsum.gaussian import EnumerationBudgetExceeded, coset_radius
from dgsum.intmat import InvariantViolation, adjugate
from dgsum.tvd import FiberWorkspace, exact_tvd, target_pmf

CHUNK = 2 ** 18  # max (label, box point) pairs summed at once


def integer_box(lo: np.ndarray, hi: np.ndarray, budget: int) -> np.ndarray:
    """Every integer point t with lo <= t <= hi, as rows in lexicographic order."""
    total = int(np.prod((hi - lo + 1).astype(object)))
    if total > budget:
        raise EnumerationBudgetExceeded(f"integer box of size {total} exceeds budget {budget}")
    grids = np.meshgrid(*[np.arange(l, h + 1) for l, h in zip(lo, hi)], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _stacked(A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """A v for each row v of V.  The stacked product makes the matrix-vector
    BLAS call of A @ v once per row, so a row's result has the same bits in
    any batch."""
    return np.matmul(A, V[:, :, None])[:, :, 0]


def check_kernel_basis(ws: FiberWorkspace) -> None:
    """det(K^T K) = det(X X^T) for the workspace's kernel basis K: for an onto
    X the kernel lattice ker X ∩ Z^m has covolume sqrt(det X X^T), so a basis
    of a proper sublattice fails this."""
    if ws.kernel is None:
        return
    K = ws.kernel.matrix
    dK, d = adjugate(K.T @ K)[1], adjugate(ws.X @ ws.X.T)[1]
    if dK != d:
        raise InvariantViolation(f"det(K^T K) = {dK} differs from det(X X^T) = {d}")


class PrimalSections:
    """Fiber and kernel weights of one (X, R, c) by primal enumeration.

    Each section is the whitened kernel lattice W A shifted by W K f, f in
    the unit cell [-1/2, 1/2]^rank, so one radius serves them all:
    ``coset_radius`` at the largest ||W K f||, taken at a vertex of the cell.
    """

    def __init__(self, X, R, c, budget: int = 5_000_000):
        ws = FiberWorkspace(X, R, c)  # the reduced c, P, the reduced kernel basis, the target
        check_kernel_basis(ws)
        self.ws = ws
        self.rank = X.n_cols - X.n_rows
        self.P = ws.P.to_numpy(dtype=np.int64)
        self._weights = {}  # fiber weight by label: the tests ask for each one twice
        if ws.kernel is not None:
            self.WK = ws.W @ ws.K
            vertices = 0.5 * np.array(list(product((-1.0, 1.0), repeat=self.rank)))
            self.radius = coset_radius(self.rank, float(np.max(np.linalg.norm(vertices @ self.WK.T, axis=1))))[0]
            self.Ginv = np.linalg.inv(self.WK.T @ self.WK)
            half = self.radius * np.sqrt(np.maximum(np.diag(self.Ginv), 0.0)) + 0.5
            self.box = integer_box(np.floor(-half).astype(np.int64), np.ceil(half).astype(np.int64), budget)
            self.box_w = self.box @ self.WK.T

    def particular(self, T) -> np.ndarray:
        """P z for each label row z of T, as int64 rows."""
        return np.asarray(T, dtype=np.int64) @ self.P.T

    def sections(self, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Box masks and truncated weights of the kernel lattice shifted by
        each row f of F, each weight one sorted sum."""
        fw = np.matmul(F[:, None, :], self.WK.T)[:, 0]  # f @ (W K)^T, one BLAS call per row
        shift = self.box_w - fw[:, None, :]
        nrm = np.einsum("bij,bij->bi", shift, shift)
        mask = nrm <= self.radius ** 2 * (1 + 1e-12)
        return mask, np.array([np.sum(np.sort(np.exp(-math.pi * x[k]))) for x, k in zip(nrm, mask)])

    def _fibers(self, T) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
        """(w0, weights, base, mask) of the fibers over the label rows of T:
        the particular points w0 = ``particular`` + c, the fiber weights, and
        each section's kernel offset round(-coef) and box mask."""
        w0 = self.particular(T).astype(float) + self.ws.c
        Ww0 = _stacked(self.ws.W, w0)
        if self.ws.kernel is None:
            return w0, np.array([float(np.exp(-math.pi * v @ v)) for v in Ww0]), None, None
        # split W w0 into components along and orthogonal to span(W K)
        coef = _stacked(self.Ginv, _stacked(self.WK.T, Ww0))
        perp = Ww0 - _stacked(self.WK, coef)
        base = np.round(-coef)
        mask, sums = self.sections(-coef - base)  # shifts in [-1/2, 1/2]^rank
        perp_sq = np.matmul(perp[:, None, :], perp[:, :, None])[:, 0, 0]
        return w0, np.array([math.exp(-math.pi * float(x)) for x in perp_sq]) * sums, base, mask

    def fiber(self, z) -> tuple[float, np.ndarray]:
        """(weight, enumerated points) of the fiber over the label z."""
        w0, weight, base, mask = self._fibers([[int(v) for v in z]])
        if self.ws.kernel is None:
            return float(weight[0]), w0
        return float(weight[0]), (self.box[mask[0]] + base[0]) @ self.ws.K.T + w0[0]

    def fiber_weights(self, T) -> np.ndarray:
        """Fiber weights of the label rows of T, memoized by label; the labels
        not seen yet are summed in chunks of at most CHUNK box points."""
        labels = [tuple(z) for z in np.asarray(T, dtype=np.int64).tolist()]
        new = list(dict.fromkeys(z for z in labels if z not in self._weights))
        step = max(1, CHUNK // (len(self.box) if self.ws.kernel is not None else 1))
        for lo in range(0, len(new), step):
            chunk = new[lo:lo + step]
            self._weights.update(zip(chunk, self._fibers(chunk)[1].tolist()))
        return np.array([self._weights[z] for z in labels])

    def fiber_weight(self, z) -> float:
        return float(self.fiber_weights([z])[0])

    def kernel_weight(self) -> float:
        if self.ws.kernel is None:
            return 1.0
        return float(self.sections(np.zeros((1, self.rank)))[1][0])

    def output_masses(self, T: np.ndarray) -> np.ndarray:
        """Normalized fiber weights of the label rows of T."""
        masses = self.fiber_weights(T)
        return masses / float(np.sum(np.sort(masses)))


def primal_tvd(oracle: PrimalSections) -> float:
    """TVD of the oracle's per-label primal image pmf from the target pmf on one region."""
    q = target_pmf(oracle.ws)
    p = type(q)(q.points, oracle.output_masses(q.points), 0.0)
    return exact_tvd(p, q).tvd
