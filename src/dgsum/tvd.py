"""Statistical distance between X-image distributions and discrete Gaussians.

The image distribution pushes v ~ D_{Z^m + c, R} through v -> X v.  Its mass
at an output point z + X c is the weight of the fiber {v : X v = z + X c}, a
translate P z + c + A of the kernel lattice A = ker X ∩ Z^m.  For spherical R
that weight factors as rho_target(z) * rho(A + f(z)): the fiber's component
along span X^T is the same for all its points and gives the target weight,
and the section sum rho(A + f(z)) depends only on the class of z modulo
G Z^n, G = X X^T.  Two labels z and z + G w have fibers that differ by the
vector X^T w (P G w - X^T w lies in A), which is orthogonal to ker X, so
their section sums are equal for any c.  exact_output_pmf keys each label by
the exact integer vector adj(G) z mod det G, takes one section sum per class
(at most det G of them) and carries it to the other labels of the class by
their target weights.

Also hosts numeric evaluators for the tail, ratio and shift bounds used by
the threshold analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gaussian import (
    DiscretePMF,
    GaussianShape,
    LatticeCoset,
    SampleStream,
    ball_tail_bound,
    coset_mass,
    enumerate_affine,
    integer_box,
)
from .intmat import IntMatrix, InvariantViolation

SECTION_TAIL_BUDGET = 1e-10  # certified relative tail per fiber section


class NotInSupport(ValueError):
    pass


@dataclass(frozen=True)
class FiberEnumeration:
    """Enumerated fiber {v in Z^m + c : X v = z + X c} with truncated weight."""

    z: tuple[int, ...]
    points: np.ndarray
    mass: float
    tail_bound: float


@dataclass(frozen=True)
class ExactTVDReport:
    tvd: float
    truncation_error: float
    support_size: int
    radius: float

    def to_json_dict(self) -> dict:
        return {
            "tvd": self.tvd,
            "truncation_error": self.truncation_error,
            "support_size": self.support_size,
            "radius": self.radius,
        }


@dataclass(frozen=True)
class MCTVDReport:
    estimate: float
    ci_lo: float
    ci_hi: float
    confidence: float
    N: int
    bias_bound: float
    stream: dict

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "ci": [self.ci_lo, self.ci_hi],
            "confidence": self.confidence,
            "N": self.N,
            "bias_bound": self.bias_bound,
            "stream": self.stream,
        }


class FiberWorkspace:
    """Per-(X, R, c) precomputation for repeated fiber enumerations.

    All fibers of one instance are translates g(z) + ker X of the same kernel
    lattice, so X's Hermite decomposition X U = H (``X.hermite``, shared with
    the certificate search on the same matrix object) gives the linear
    particular solution g(z) = P z, and the whitened integer search box is
    built once and only recentered per fiber.  The kernel basis is
    ``X.reduced_kernel``, the LLL-reduced one that the certificate fallback
    on the same matrix object also reads: the raw HNF columns can be long
    and skewed enough that the box covering the section ball has millions of
    points.  X must map Z^m
    onto Z^n, so that every label has a fiber.  The labels of a region are
    enumerated once per workspace and radius (``labels``), as one int64
    array that the image and target pmfs built on one workspace share as
    their points.
    """

    def __init__(self, X: IntMatrix, R: GaussianShape, c: Sequence[float]):
        n, m = X.shape
        H, U, pivots, _ = X.hermite
        if len(pivots) < n:
            raise ValueError("X must have full row rank")
        if any(H.rows[r][j] != 1 for r, j in pivots):
            raise NotInSupport("X does not map Z^m onto Z^n: some labels have no fiber")
        # onto, so H = [I | 0] and the first n columns P of U solve X P = I
        self.P = IntMatrix.from_columns(U.column(j) for j in range(n))
        if (X @ self.P).rows != IntMatrix.identity(n).rows:
            raise InvariantViolation("HNF particular map P does not solve X P = I")
        self.X = X
        self.R = R
        self.c = np.asarray(list(c), dtype=float)
        if self.c.shape != (m,):
            raise ValueError("shift dimension mismatch")
        self.W = R.whitening(m)
        self.rank = m - n
        self.section_radius = region_radius_for_tail(max(self.rank, 1), SECTION_TAIL_BUDGET)
        self.kernel = X.reduced_kernel if m > n else None
        if self.kernel is not None:
            self.K = self.kernel.matrix.to_numpy()
            self.WK = self.W @ self.K
            G = self.WK.T @ self.WK
            self.Ginv = np.linalg.inv(G)
            # fixed integer displacement box covering any fractional recentering
            half = self.section_radius * np.sqrt(np.maximum(np.diag(self.Ginv), 0.0)) + 0.5
            self.box = integer_box(np.floor(-half).astype(np.int64), np.ceil(half).astype(np.int64))
            self.box_w = self.box @ self.WK.T
        # target shape R X^T: Gram = X R^T R X^T
        Xf = X.to_numpy()
        Gt = Xf @ R.gram(m) @ Xf.T
        self.target_gram = Gt
        self.Wt = np.linalg.inv(np.linalg.cholesky(Gt))
        self.Xc = Xf @ self.c
        self._regions: dict[float, np.ndarray] = {}

    def particular(self, z: Sequence[int]) -> np.ndarray:
        return np.array(self.P @ z, dtype=float) + self.c

    def _section(self, f: np.ndarray) -> tuple[np.ndarray, float]:
        """Box mask and truncated weight of the kernel lattice shifted by f."""
        shift = self.box_w - f @ self.WK.T
        nrm = np.einsum("ij,ij->i", shift, shift)
        mask = nrm <= self.section_radius ** 2 * (1 + 1e-12)
        return mask, float(np.sum(np.sort(np.exp(-math.pi * nrm[mask]))))

    def _mass(self, w0: np.ndarray):
        """(mass, base, mask) of the fiber w0 + ker X; its kept kernel
        coordinates are box[mask] + base (both None when ker X = 0)."""
        Ww0 = self.W @ w0
        if self.kernel is None:
            return float(np.exp(-math.pi * Ww0 @ Ww0)), None, None
        # split W w0 into components along and orthogonal to span(W K)
        coef = self.Ginv @ (self.WK.T @ Ww0)
        perp = Ww0 - self.WK @ coef
        base = np.round(-coef)
        mask, section_sum = self._section(-coef - base)  # shift in [-1/2, 1/2]^rank
        return math.exp(-math.pi * float(perp @ perp)) * section_sum, base, mask

    def fiber_weight(self, z: Sequence[int]) -> float:
        """Truncated Gaussian weight of the fiber over z (no point table)."""
        return self._mass(self.particular(z))[0]

    def fiber(self, z: Sequence[int]) -> FiberEnumeration:
        z = tuple(int(v) for v in z)
        w0 = self.particular(z)
        mass, base, mask = self._mass(w0)
        if self.kernel is None:
            return FiberEnumeration(z=z, points=w0[None, :], mass=mass, tail_bound=0.0)
        points = (self.box[mask] + base) @ self.K.T + w0
        return FiberEnumeration(
            z=z, points=points, mass=mass,
            tail_bound=ball_tail_bound(self.rank, self.section_radius),
        )

    def kernel_weight(self) -> float:
        """Truncated Gaussian weight of the orthogonal lattice itself."""
        if self.kernel is None:
            return 1.0
        return self._section(np.zeros(self.rank))[1]

    def region(self, region_radius: float) -> np.ndarray:
        """Integer labels z with whitened target norm of z + X c within
        radius, as the rows of an int64 array in lexicographic order."""
        return enumerate_affine(self.Wt, self.Wt @ self.Xc, region_radius)

    def labels(self, region_radius: float) -> np.ndarray:
        """The int64 label array of ``region``, enumerated on the first call
        for a radius and kept with the workspace."""
        if region_radius not in self._regions:
            self._regions[region_radius] = self.region(region_radius)
        return self._regions[region_radius]

    def target_norms(self, T: np.ndarray) -> np.ndarray:
        """||Wt (z + X c)||^2 for each label row z of T."""
        Y = (T + self.Xc) @ self.Wt.T
        return np.einsum("ij,ij->i", Y, Y)

    def target_weight(self, z: Sequence[int]) -> float:
        return float(np.exp(-math.pi * self.target_norms(np.asarray([z], dtype=float))[0]))


def region_radius_for_tail(n: int, tail: float = 1e-12, cap: float = 12.0) -> float:
    """Smallest whitened radius whose certified ball tail is below ``tail``."""
    r = 1.0
    while r < cap and ball_tail_bound(n, r) > tail:
        r += 0.25
    return r


def fiber_mass(X: IntMatrix, R: GaussianShape, c: Sequence[float], z: Sequence[int]) -> FiberEnumeration:
    """Truncated Gaussian weight of one fiber; see FiberWorkspace.fiber."""
    return FiberWorkspace(X, R, c).fiber(z)


def _labels(X, R, c, region_radius, workspace):
    """(workspace, region radius, int64 label array) shared by the image and
    target pmfs; labels are in lexicographic order."""
    ws = workspace or FiberWorkspace(X, R, c if c is not None else [0.0] * X.n_cols)
    if region_radius is None:
        region_radius = region_radius_for_tail(X.n_rows)
    return ws, region_radius, ws.labels(region_radius)


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


def _adjugate(G: IntMatrix) -> tuple[list[list[int]], int]:
    """(adj G, det G) of a square integer matrix, so that adj(G) G = det(G) I."""
    n = G.n_rows

    def minor(i, j):
        return [[x for b, x in enumerate(row) if b != j] for a, row in enumerate(G.rows) if a != i]

    adj = [[(-1) ** (i + j) * _int_det(minor(j, i)) for j in range(n)] for i in range(n)]
    return adj, _int_det(G.rows)


def _row_groups(keys: np.ndarray, *tiebreak: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): order sorts the rows of keys lexicographically, ties
    by the tiebreak arrays and then by index; starts[k] marks order[k] as the
    first row of a run of equal rows.  np.unique(axis=0) sorts the rows as
    opaque bytes and takes several times as long."""
    order = np.lexsort(tiebreak[::-1] + tuple(keys.T[::-1]))
    sk = keys[order]
    starts = np.ones(len(sk), dtype=bool)
    starts[1:] = np.any(sk[1:] != sk[:-1], axis=1)
    return order, starts


def exact_output_pmf(
    X: IntMatrix,
    R: GaussianShape,
    c: Sequence[float] | None = None,
    region_radius: float | None = None,
    workspace: FiberWorkspace | None = None,
) -> DiscretePMF:
    """Truncated pmf of {X v : v ~ D_{Z^m + c, R}} over integer labels z.

    The support label z stands for the output point z + X c.  For spherical R
    the labels are grouped by the exact key adj(G) z mod d, G = X X^T and
    d = det G: labels with one key differ by some G w, and their fibers by
    X^T w, orthogonal to ker X (see the module docstring).  Each class gets
    one section sum, fiber_weight at its representative r, and a label z of
    the class weighs fiber_weight(r) exp(-pi (|y_z|^2 - |y_r|^2)) with
    y = Wt (z + X c).  r is the class's label of least |y| (the first in
    lexicographic order among ties), so that factor is at most 1 and a
    far-out representative cannot underflow a whole class to zero.  A
    non-spherical R takes one fiber_weight per label, and so does a d too
    large for the keys to stay exact in int64.
    Truncation is certified: region tail via the Gaussian ball bound on the
    target shape (safety factor 3 covering the image-vs-target band), fiber
    tails via the section ball bound.
    """
    ws, region_radius, T = _labels(X, R, c, region_radius, workspace)
    adj, d = _adjugate(X @ X.T)
    if R.is_spherical and X.n_rows * (d - 1) ** 2 < 2 ** 63:  # int64 keys stay exact
        adj_d = np.array([[a % d for a in row] for row in adj], dtype=np.int64)
        keys = (T % d) @ adj_d.T % d
        q = ws.target_norms(T)
        order, starts = _row_groups(keys, q)
        cls = np.empty(len(T), dtype=np.intp)
        cls[order] = np.cumsum(starts) - 1
        rep = order[starts]
        class_weights = np.array([ws.fiber_weight(T[i]) for i in rep])
        masses = class_weights[cls] * np.exp(-math.pi * (q - q[rep][cls]))
    else:
        masses = np.array([ws.fiber_weight(z) for z in T])
    total = float(np.sum(np.sort(masses)))
    if total <= 0:
        raise ValueError("empty region")
    section_tail = 0.0 if ws.kernel is None else ball_tail_bound(ws.rank, ws.section_radius)
    tail = min(1.0, 3.0 * ball_tail_bound(X.n_rows, region_radius) + section_tail)
    return DiscretePMF(T, masses / total, tail)


def target_pmf(
    X: IntMatrix,
    R: GaussianShape,
    c: Sequence[float] | None = None,
    region_radius: float | None = None,
    workspace: FiberWorkspace | None = None,
) -> DiscretePMF:
    """Truncated pmf of the discrete Gaussian on Z^n + X c with shape R X^T."""
    ws, region_radius, T = _labels(X, R, c, region_radius, workspace)
    vals = np.exp(-math.pi * ws.target_norms(T))
    total = float(np.sum(np.sort(vals)))
    return DiscretePMF(T, vals / total, ball_tail_bound(X.n_rows, region_radius))


def exact_tvd(p: DiscretePMF, q: DiscretePMF, radius: float = 0.0) -> ExactTVDReport:
    """Half the l1 difference over the union support, with truncation slack.

    The points of both pmfs are grouped by value, so an integer label and an
    equal float point are one support point; each group's masses are summed
    as p - q, and the absolute differences are added one at a time in
    lexicographic order of the points.  The points of both pmfs must have
    one dimension; a pmf with no points fits any.
    """
    # two pmfs with no points: no rows, and one key column to sort them by
    Y = np.concatenate([x.points for x in (p, q) if len(x.points)] or [np.zeros((0, 1))])
    order, starts = _row_groups(Y)
    signed = np.concatenate([p.masses, -q.masses])[order]  # a + (-b) == a - b exactly
    diffs = np.abs(np.add.reduceat(signed, np.flatnonzero(starts)))
    tvd = 0.5 * np.cumsum(np.r_[0.0, diffs])[-1]  # cumsum adds in order
    trunc = 0.5 * (p.tail_bound + q.tail_bound)
    return ExactTVDReport(
        tvd=float(tvd), truncation_error=float(trunc),
        support_size=len(diffs), radius=radius,
    )


def mc_tvd(
    sampler: Callable[[int, SampleStream], np.ndarray],
    target: DiscretePMF,
    N: int,
    stream: SampleStream,
    confidence: float = 0.99,
) -> MCTVDReport:
    """Plug-in TVD estimate from N samples against a target pmf.

    A draw's coordinate within 1e-9 of an integer counts as that integer; the
    draws are grouped once into an empirical pmf, and the estimate and the
    support size are those of its exact_tvd against the target.  The
    confidence interval is a conservative union-Hoeffding band over the
    support (distribution-free); the plug-in estimate is upward biased by at
    most about sqrt(support/N), reported separately.
    """
    if N < 10_000:
        raise ValueError("N must be at least 10^4")
    draws = np.asarray(sampler(N, stream))
    if draws.ndim == 1:
        draws = draws[:, None]
    nearest = np.round(draws)
    keys = np.where(np.abs(draws - nearest) < 1e-9, nearest, draws)
    order, starts = _row_groups(keys)
    first = np.flatnonzero(starts)
    freq = np.diff(np.r_[first, len(keys)])
    rep = exact_tvd(DiscretePMF(keys[order[first]], freq / N, 0.0), target)
    est, k = rep.tvd, rep.support_size
    alpha = 1.0 - confidence
    h = math.sqrt(math.log(2 * (k + 1) / alpha) / (2 * N))
    half = 0.5 * (k + 1) * h
    return MCTVDReport(
        estimate=est,
        ci_lo=max(0.0, est - half),
        ci_hi=min(1.0, est + half),
        confidence=confidence,
        N=N,
        bias_bound=math.sqrt(k / N),
        stream=stream.identity(),
    )


def tail_bound_eval(n: int, eps: float, c: float) -> float:
    """Tail-probability bound (1+eps)/(1-eps) (c sqrt(2 pi e) e^{-pi c^2})^n."""
    if c < 1.0 / math.sqrt(2 * math.pi):
        raise ValueError("c below validity range")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    base = c * math.sqrt(2 * math.pi * math.e) * math.exp(-math.pi * c * c)
    return (1 + eps) / (1 - eps) * base ** n


def shift_bound_eval(norm_v: float, sigma_n: float, eps: float, c: float) -> float:
    """Bound on D(T) - D(T - v) shifts: erf(q/2 + 2q/c)/erf(2q) (1+eps)/(1-eps)."""
    if not c > 2:
        raise ValueError("need c > 2")
    if not sigma_n > 0:
        raise ValueError("need sigma_n > 0")
    q = norm_v * math.sqrt(math.pi) / sigma_n
    return math.erf(q / 2 + 2 * q / c) / math.erf(2 * q) * (1 + eps) / (1 - eps)


def ratio_band_check(
    basis_dim: int,
    shape: GaussianShape,
    eps: float,
    shifts: Sequence[Sequence[float]],
    lambda_n: float | None = None,
    radius: float = 12.0,
) -> dict:
    """Coset-to-lattice Gaussian weight ratios over a grid of shifts.

    For shapes above the smoothing bound the ratio must lie in
    [(1-eps)/(1+eps), 1]; below it the check still runs as a diagnostic.
    Currently supports the integer lattice Z^dim.
    """
    from .lattice import smoothing_bound

    base, _ = coset_mass(LatticeCoset.integers(basis_dim), shape, radius)
    lo = (1 - eps) / (1 + eps)
    precondition_ok = None
    if lambda_n is not None:
        precondition_ok = shape.sigma_min(basis_dim) >= smoothing_bound(basis_dim, eps, lambda_n).value
    ratios = []
    for cvec in shifts:
        m, _ = coset_mass(LatticeCoset.integers(basis_dim, tuple(cvec)), shape, radius)
        ratios.append(m / base)
    return {
        "min_ratio": min(ratios),
        "max_ratio": max(ratios),
        "band": [lo, 1.0],
        "in_band": all(lo <= r <= 1.0 + 1e-12 for r in ratios),
        "precondition_ok": precondition_ok,
        "ratios": ratios,
    }
