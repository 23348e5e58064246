"""Per-label oracles for the fiber weights of ``dgsum.tvd``.

Each fiber {v : X v = z + X c} is a translate P z + c + A of the kernel
lattice A = ker X ∩ Z^m.  The oracles build their own frame from X, c and an
m x m shape R of full rank, v weighing e^{-pi v^T (R^T R)^-1 v} (R = r I for
the package's D_{Z^m + c, r}): c reduced mod Z^m, the particular map P from
X's HNF transform (``particular_map``), the kernel basis K from
``X.reduced_kernel`` (``check_kernel_basis``), R's whitening
W = chol(R^T R)^-1, and the target D_{Z^n + X c, R X^T}: its whitening Wt of
X R^T R X^T, its weights and its label region (``gaussian.truncate_coset``
under the Gram matrix Wt^T Wt).  They are the reference for the ellipsoidal statement, which the
package's spherical ``FiberWorkspace`` does not take.  Each sums a fiber one of two ways:

- ``PrimalSections`` enumerates A's coordinates over a fixed integer box in
  the whitened kernel basis, recentred per fiber, and adds the points inside
  a section radius, the package's primal rule ``gaussian.coset_radius`` at
  the largest shift a section can have.  It is exponential in the kernel
  rank and in r, so it runs on small instances only.
- ``DualSections`` sums the section by Poisson summation (Micciancio-Regev
  2007, Lemma 2.8) over the dual of the whitened kernel, one batched dual sum
  per chunk of labels: the per-label path the package had before its image
  pmf moved to the class pmfs.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import product

import numpy as np

from dgsum.gaussian import DiscretePMF, EnumerationBudgetExceeded, coset_radius, poisson_sum, truncate_coset
from dgsum.intmat import IntMatrix, InvariantViolation, adjugate
from dgsum.tvd import exact_tvd

CHUNK = 2 ** 18  # max (label, box point) pairs summed at once
DUAL_BLOCK = 2 ** 20  # max (dual point, label) terms of one batched dual sum


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


def particular_map(X: IntMatrix) -> IntMatrix:
    """The first n columns P of X's HNF transform U: X is onto, so H = [I | 0]
    and X P = I (checked)."""
    n = X.n_rows
    P = IntMatrix.from_columns(X.hermite.U.cols[:n])
    if (X @ P).rows != IntMatrix.identity(n).rows:
        raise InvariantViolation("HNF particular map P does not solve X P = I")
    return P


def check_kernel_basis(X: IntMatrix) -> None:
    """det(K^T K) = det(X X^T) for K = ``X.reduced_kernel``: for an onto X the
    kernel lattice ker X ∩ Z^m has covolume sqrt(det X X^T), so a basis of a
    proper sublattice fails this."""
    if X.n_cols == X.n_rows:
        return
    K = X.reduced_kernel.matrix
    dK, d = adjugate(K.T @ K)[1], adjugate(X @ X.T)[1]
    if dK != d:
        raise InvariantViolation(f"det(K^T K) = {dK} differs from det(X X^T) = {d}")


class _Sections:
    """The frame of one (X, R, c) and the memoized fiber weights; a subclass
    sums the fibers (``_fibers``)."""

    box = np.zeros((1, 0))  # the points summed per label, unless a primal box is set

    def __init__(self, X, R, c):
        check_kernel_basis(X)
        n, m = X.shape
        self.X, self.R = X, np.asarray(R, dtype=float)
        if self.R.shape != (m, m):
            raise ValueError(f"R must be {m} x {m}")
        self.c = np.asarray(c, dtype=float) - np.round(c)  # Z^m + c depends on c mod Z^m
        Xf = X.to_numpy()
        self.Xc = Xf @ self.c
        gram = self.R.T @ self.R
        self.Wt = np.linalg.inv(np.linalg.cholesky(Xf @ gram @ Xf.T))  # the target shape R X^T
        self.rank = m - n
        self.P = particular_map(X).to_numpy(dtype=np.int64)
        self.K = X.reduced_kernel.matrix.to_numpy() if self.rank else np.zeros((m, 0))
        self.W = np.linalg.inv(np.linalg.cholesky(gram))
        self.WK = self.W @ self.K
        self._weights = {}  # fiber weight by label: the tests ask for each one twice

    def target_weight(self, z) -> float:
        """e^{-pi ||Wt (z + X c)||^2}, the target weight of the label z."""
        y = self.Wt @ (np.asarray(z, dtype=float) + self.Xc)
        return float(np.exp(-math.pi * (y @ y)))

    @cached_property
    def target_region(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(labels z, weights, tail) of the target coset Z^n + X c under the
        Gram matrix Wt^T Wt."""
        return truncate_coset(self.Wt.T @ self.Wt, self.Xc)

    def target_pmf(self) -> DiscretePMF:
        """The target pmf over ``target_region``."""
        T, w, tail = self.target_region
        return DiscretePMF(T, w / float(np.sum(np.sort(w))), tail)

    def particular(self, T) -> np.ndarray:
        """P z for each label row z of T, as int64 rows."""
        return np.asarray(T, dtype=np.int64) @ self.P.T

    def fiber_weights(self, T) -> np.ndarray:
        """Fiber weights of the label rows of T, memoized by label; the labels
        not seen yet are summed in chunks of at most CHUNK box points."""
        labels = [tuple(z) for z in np.asarray(T, dtype=np.int64).tolist()]
        new = list(dict.fromkeys(z for z in labels if z not in self._weights))
        step = max(1, CHUNK // len(self.box))
        for lo in range(0, len(new), step):
            chunk = new[lo:lo + step]
            self._weights.update(zip(chunk, self._fibers(chunk)[1].tolist()))
        return np.array([self._weights[z] for z in labels])

    def fiber_weight(self, z) -> float:
        return float(self.fiber_weights([z])[0])

    def output_masses(self, T: np.ndarray) -> np.ndarray:
        """Normalized fiber weights of the label rows of T."""
        masses = self.fiber_weights(T)
        return masses / float(np.sum(np.sort(masses)))


class PrimalSections(_Sections):
    """Fiber and kernel weights of one (X, R, c) by primal enumeration.

    Each section is the whitened kernel lattice W A shifted by W K f, f in
    the unit cell [-1/2, 1/2]^rank, so one radius serves them all:
    ``coset_radius`` at the largest ||W K f||, taken at a vertex of the cell.
    """

    def __init__(self, X, R, c, budget: int = 5_000_000):
        super().__init__(X, R, c)
        if self.rank:
            vertices = 0.5 * np.array(list(product((-1.0, 1.0), repeat=self.rank)))
            self.radius = coset_radius(self.rank, float(np.max(np.linalg.norm(vertices @ self.WK.T, axis=1))))[0]
            self.Ginv = np.linalg.inv(self.WK.T @ self.WK)
            half = self.radius * np.sqrt(np.maximum(np.diag(self.Ginv), 0.0)) + 0.5
            self.box = integer_box(np.floor(-half).astype(np.int64), np.ceil(half).astype(np.int64), budget)
            self.box_w = self.box @ self.WK.T

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
        w0 = self.particular(T).astype(float) + self.c
        Ww0 = _stacked(self.W, w0)
        if not self.rank:
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
        if not self.rank:
            return float(weight[0]), w0
        return float(weight[0]), (self.box[mask[0]] + base[0]) @ self.K.T + w0[0]

    def kernel_weight(self) -> float:
        if not self.rank:
            return 1.0
        return float(self.sections(np.zeros((1, self.rank)))[1][0])


class DualSections(_Sections):
    """Fiber and kernel weights of one (X, R, c) by dual sums.

    The fiber over z weighs target_weight(z) * section_scale * (1 + delta(z)):
    the fiber's component orthogonal to the whitened kernel gives the target
    weight, and the section sum over the shifted lattice W A is, by Poisson
    summation, det(W A)^-1 = section_scale times 1 plus the sum over the
    nonzero points y of the dual lattice (Gram matrix Gw^-1, Gw = (W K)^T W K)
    of e^{-pi ||y||^2} cos(2 pi <y, coef>), coef = Gw^-1 (W K)^T W f the phase
    coordinates of a fiber point f = P z + c (``to_coef``).
    """

    def __init__(self, X, R, c):
        super().__init__(X, R, c)
        Gw_inv = np.linalg.inv(self.WK.T @ self.WK)
        self.section_scale = math.sqrt(np.linalg.det(Gw_inv))
        self.to_coef = self.W.T @ self.WK @ Gw_inv
        self.dual = poisson_sum(Gw_inv)

    def deltas(self, T) -> np.ndarray:
        """delta(z) for each label row z of T, in blocks of at most DUAL_BLOCK
        terms; the phase depends on coef mod 1."""
        coef = (self.particular(T).astype(float) + self.c) @ self.to_coef
        coef -= np.round(coef)
        out = np.zeros(len(coef))
        if not len(self.dual.points):
            return out
        step = max(1, DUAL_BLOCK // len(self.dual.points))
        for lo in range(0, len(coef), step):
            phases = self.dual.points @ coef[lo:lo + step].T
            out[lo:lo + step] = 2.0 * (self.dual.weights @ np.cos(2 * math.pi * phases))
        return out

    def _fibers(self, T) -> tuple[None, np.ndarray]:
        """(None, the fiber weights over the label rows of T)."""
        tw = np.array([self.target_weight(z) for z in T])
        return None, tw * self.section_scale * (1.0 + self.deltas(T))

    def kernel_weight(self) -> float:
        return self.section_scale * (1.0 + self.dual.mass)


def primal_tvd(oracle: _Sections) -> float:
    """TVD of the oracle's per-label image pmf from its target pmf on one region."""
    q = oracle.target_pmf()
    p = DiscretePMF(q.points, oracle.output_masses(q.points), 0.0)
    return exact_tvd(p, q).tvd
