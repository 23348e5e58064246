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


def integer_box(lo: np.ndarray, hi: np.ndarray, budget: int) -> np.ndarray:
    """Every integer point t with lo <= t <= hi, as rows in lexicographic order."""
    total = int(np.prod((hi - lo + 1).astype(object)))
    if total > budget:
        raise EnumerationBudgetExceeded(f"integer box of size {total} exceeds budget {budget}")
    grids = np.meshgrid(*[np.arange(l, h + 1) for l, h in zip(lo, hi)], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


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
        ws = FiberWorkspace(X, R, c)  # P, the reduced kernel basis, the target
        check_kernel_basis(ws)
        self.ws = ws
        self.rank = X.n_cols - X.n_rows
        self._weights = {}  # fiber weight by label: the tests ask for each one twice
        if ws.kernel is not None:
            self.WK = ws.W @ ws.K
            vertices = 0.5 * np.array(list(product((-1.0, 1.0), repeat=self.rank)))
            self.radius = coset_radius(self.rank, float(np.max(np.linalg.norm(vertices @ self.WK.T, axis=1))))[0]
            self.Ginv = np.linalg.inv(self.WK.T @ self.WK)
            half = self.radius * np.sqrt(np.maximum(np.diag(self.Ginv), 0.0)) + 0.5
            self.box = integer_box(np.floor(-half).astype(np.int64), np.ceil(half).astype(np.int64), budget)
            self.box_w = self.box @ self.WK.T

    def section(self, f: np.ndarray) -> tuple[np.ndarray, float]:
        """Box mask and truncated weight of the kernel lattice shifted by f."""
        shift = self.box_w - f @ self.WK.T
        nrm = np.einsum("ij,ij->i", shift, shift)
        mask = nrm <= self.radius ** 2 * (1 + 1e-12)
        return mask, float(np.sum(np.sort(np.exp(-math.pi * nrm[mask]))))

    def fiber(self, z) -> tuple[float, np.ndarray]:
        """(weight, enumerated points) of the fiber over the label z."""
        w0 = self.ws.particular([int(v) for v in z])
        Ww0 = self.ws.W @ w0
        if self.ws.kernel is None:
            return float(np.exp(-math.pi * Ww0 @ Ww0)), w0[None, :]
        # split W w0 into components along and orthogonal to span(W K)
        coef = self.Ginv @ (self.WK.T @ Ww0)
        perp = Ww0 - self.WK @ coef
        base = np.round(-coef)
        mask, section_sum = self.section(-coef - base)  # shift in [-1/2, 1/2]^rank
        points = (self.box[mask] + base) @ self.ws.K.T + w0
        return math.exp(-math.pi * float(perp @ perp)) * section_sum, points

    def fiber_weight(self, z) -> float:
        z = tuple(int(v) for v in z)
        if z not in self._weights:
            self._weights[z] = self.fiber(z)[0]
        return self._weights[z]

    def kernel_weight(self) -> float:
        if self.ws.kernel is None:
            return 1.0
        return self.section(np.zeros(self.rank))[1]

    def output_masses(self, T: np.ndarray) -> np.ndarray:
        """Normalized fiber weights of the label rows of T, one section sum each."""
        masses = np.array([self.fiber_weight(z) for z in T])
        return masses / float(np.sum(np.sort(masses)))


def primal_tvd(oracle: PrimalSections) -> float:
    """TVD of the oracle's per-label primal image pmf from the target pmf on one region."""
    q = target_pmf(oracle.ws.X, oracle.ws.R, workspace=oracle.ws)
    p = type(q)(q.points, oracle.output_masses(q.points), 0.0)
    return exact_tvd(p, q).tvd
