"""Statistical distance between X-image distributions and discrete Gaussians.

The image distribution pushes v ~ D_{Z^m + c, R} through v -> X v.  Its mass
at an output point z + X c is the weight of the fiber {v : X v = z + X c}, a
translate P z + c + A of the kernel lattice A = ker X ∩ Z^m.  That weight
factors as rho_target(z) * rho(section): the fiber's component orthogonal to
the (whitened) kernel is the same for all its points and gives the target
weight, and the section sum over the shifted kernel lattice is, by Poisson
summation (Micciancio-Regev 2007, Lemma 2.8), det(A)^-1 times a sum over the
dual lattice A*: (1 + delta(z)) with delta(z) = sum over y in A* minus 0 of
e^{-pi ||y||^2} cos(2 pi <y, P z + c>) (whitened).  So the image pmf is the
target pmf reweighted by (1 + delta(z)) / (1 + mean delta).  Every section sum
of the module is one ``gaussian.PoissonSum`` over the dual of the whitened
kernel, built once per workspace from its Gram matrix and evaluated for a
batch of shifts.

For spherical R, delta(z) depends only on the class of z modulo G Z^n,
G = X X^T: two labels z and z + G w have fibers that differ by X^T w, which is
orthogonal to ker X.  There are d = det G classes, and the class masses Q_k of
the target are a second Poisson sum, over Z^n with phases u^T adj(G) z_k / d.
Then TVD = 1/2 sum_k Q_k |delta_k - mean delta| / (1 + mean delta) exactly,
with no label region (``class_tvd``).

For R = r I both dual sums are built from integers the instance already
holds.  With K the integer kernel basis, d = det G = det(K^T K) (X is onto),
the dual of the kernel has Gram matrix r^2 (K^T K)^-1 = r^2 adj(K^T K) / d and
the dual of the target lattice r^2 G^-1 = r^2 adj(G) / d, and the phases of
the shift c are adj(K^T K) K^T c / d and adj(G) X c / d.  So the class TVD
takes one Cholesky factor per sum and none of the workspace's float data.

Also hosts numeric evaluators for the tail, ratio and shift bounds used by
the threshold analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .gaussian import (
    ENUM_BUDGET,
    DiscretePMF,
    EnumerationBudgetExceeded,
    GaussianShape,
    LatticeCoset,
    PoissonSum,
    SampleStream,
    ball_tail_bound,
    banaszczyk_radius,
    coset_mass,
    enumerate_affine,
    exact_in_int64,
    poisson_sum,
)
from .intmat import IntMatrix, InvariantViolation, adjugate


class NotInSupport(ValueError):
    pass


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


@dataclass(frozen=True)
class CosetClasses:
    """The d = det(X X^T) classes of Z^n / G Z^n with their dual-side data.

    Class k is represented by z_k, the k-th of the integer points
    0 <= z_i < h_ii in lexicographic order, h the diagonal of the
    lower-triangular HNF ``hnf`` of G.  ``delta[k]`` is the nonzero part of
    the kernel's dual sum at P z_k + c, and ``Q[k]`` the target mass of class
    k.  ``delta_slack`` bounds |computed delta_k - delta_k| for every k, and
    ``Q_slack`` the l1 distance of the computed Q from the true one (see
    ``class_tvd``).
    """

    hnf: np.ndarray
    delta: np.ndarray
    Q: np.ndarray
    delta_slack: float
    Q_slack: float

    @property
    def mean_delta(self) -> float:
        return float(self.Q @ self.delta)

    @property
    def mass_slack(self) -> float:
        """Bound on the l1 error of the computed x_k = Q_k (1 + delta_k):
        sum_k Q'_k |delta'_k - delta_k| + sum_k |1 + delta_k| |Q'_k - Q_k|, the
        primes marking computed values."""
        top = float(np.max(np.abs(1.0 + self.delta))) + self.delta_slack
        return self.delta_slack + top * self.Q_slack

    def index(self, T: np.ndarray) -> np.ndarray:
        """Class index k of each label row of T: the z_k it reduces to modulo
        the columns of ``hnf``."""
        Z = np.array(T, dtype=np.int64)
        for i in range(len(self.hnf)):
            Z -= (Z[:, i] // self.hnf[i, i])[:, None] * self.hnf[:, i]
        return np.ravel_multi_index(tuple(Z.T), tuple(np.diag(self.hnf)))


class FiberWorkspace:
    """Per-(X, R, c) precomputation for the image and target pmfs.

    All fibers of one instance are translates P z + c + ker X of the same
    kernel lattice, so X's Hermite decomposition X U = H (``X.hermite``,
    shared with the certificate search on the same matrix object) gives the
    linear particular solution P z.  The kernel basis K is
    ``X.reduced_kernel``, the LLL-reduced one that the certificate fallback on
    the same matrix object also reads, so that the dual basis
    W K (K^T W^T W K)^-1 of the whitened kernel is short too.  Its
    ``PoissonSum`` (``dual``) is enumerated once, on first use, and every
    section sum of the workspace evaluates it.  X must map Z^m onto Z^n, so
    that every label has a fiber.  The labels of a region are enumerated once
    per workspace and radius (``labels``), as one int64 array that the image
    and target pmfs built on one workspace share as their points.

    For spherical R = r I both dual Gram matrices are integer data over an
    integer determinant: the kernel's dual has r^2 (K^T K)^-1 =
    r^2 adj(K^T K) / det(K^T K) (``kernel_adjugate``) and the target's
    r^2 G^-1 = r^2 adj(G) / d, G = X X^T (``gram_adjugate``).  The float
    data of the whitened kernel and target (``W``, ``K``, ``Gw_inv``,
    ``section_scale``, ``to_coef``, ``target_gram``, ``Wt``, ``Xc``) is
    computed on first use, so the class TVD of a spherical R reads none of it.
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
        self.rank = m - n
        self.kernel = X.reduced_kernel if m > n else None
        self._regions: dict[float, np.ndarray] = {}

    @cached_property
    def W(self) -> np.ndarray:
        """The whitening of R: rho_R(x) = exp(-pi ||W x||^2)."""
        return self.R.whitening(self.X.n_cols)

    @cached_property
    def K(self) -> np.ndarray:
        """The kernel basis as an (m, m - n) float array."""
        if self.kernel is None:
            return np.zeros((self.X.n_cols, 0))
        return self.kernel.matrix.to_numpy()

    @cached_property
    def Gw_inv(self) -> np.ndarray:
        """Gw^-1, Gw = (W K)^T W K: the Gram matrix of the dual basis
        W K Gw^-1 of the whitened kernel."""
        WK = self.W @ self.K
        return np.linalg.inv(WK.T @ WK)

    @cached_property
    def section_scale(self) -> float:
        """A section sum is section_scale * (1 + the dual sum at coef),
        coef = f @ ``to_coef`` for a fiber point f; 1 when ker X = 0."""
        return math.sqrt(np.linalg.det(self.Gw_inv))

    @cached_property
    def to_coef(self) -> np.ndarray:
        """W^T W K Gw^-1, the map from a fiber point f to its phase coordinates
        coef = Gw^-1 (W K)^T W f in the dual basis."""
        return self.W.T @ (self.W @ self.K) @ self.Gw_inv

    @cached_property
    def target_gram(self) -> np.ndarray:
        """X R^T R X^T, the Gram matrix of the target shape R X^T."""
        Xf = self.X.to_numpy()
        return Xf @ self.R.gram(self.X.n_cols) @ Xf.T

    @cached_property
    def Wt(self) -> np.ndarray:
        """The whitening of the target shape."""
        return np.linalg.inv(np.linalg.cholesky(self.target_gram))

    @cached_property
    def Xc(self) -> np.ndarray:
        """X c, the shift of the target coset Z^n + X c."""
        return self.X.to_numpy() @ self.c

    @cached_property
    def kernel_adjugate(self) -> tuple[list[list[int]], int]:
        """(adj(K^T K), det(K^T K)) of the integer kernel basis K."""
        K = self.kernel.matrix
        return adjugate(K.T @ K)

    @cached_property
    def gram_adjugate(self) -> tuple[list[list[int]], int]:
        """(adj(G), d) of G = X X^T, d = det G the number of its classes."""
        return adjugate(self.X @ self.X.T)

    def particular(self, z: Sequence[int]) -> np.ndarray:
        return np.array(self.P @ z, dtype=float) + self.c

    @cached_property
    def dual(self) -> PoissonSum:
        """The PoissonSum of the dual of the whitened kernel lattice W A, with
        Gram matrix Gw^-1: r^2 adj(K^T K) / det(K^T K) for spherical R = r I.
        No points when ker X = 0."""
        if self.kernel is None or not self.R.is_spherical:
            return poisson_sum(self.Gw_inv)
        adj, det = self.kernel_adjugate
        return poisson_sum(self.R.s ** 2 * np.array(adj, dtype=float) / det)

    def section_deltas(self, T: np.ndarray) -> np.ndarray:
        """delta(z) for each label row z of T, one batched dual sum."""
        F = np.asarray(T, dtype=float) @ self.P.to_numpy().T + self.c
        return self.dual.sums(F @ self.to_coef)

    def fiber_weight(self, z: Sequence[int]) -> float:
        """Gaussian weight of the fiber over z, the target weight times the
        section sum."""
        delta = self.section_deltas(np.asarray([z]))[0]
        return float(self.target_weight(z) * self.section_scale * (1.0 + delta))

    def kernel_weight(self) -> float:
        """Gaussian weight of the orthogonal lattice itself."""
        return self.section_scale * (1.0 + self.dual.mass)

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

    @cached_property
    def classes(self) -> CosetClasses:
        """The coset classes of a spherical R = r I, computed once per workspace.

        delta_k takes its phase <y, P z_k + c> exactly: with y = K (K^T K)^-1 t,
        it is t^T adj(K^T K) K^T (P z_k + c) / det(K^T K) and det(K^T K) = d
        since X is onto (checked), so it is an int64 residue mod d plus the
        float term of c.  Q_k is proportional to sum over u in Z^n of
        e^{-pi r^2 u^T adj(G) u / d} cos(2 pi (u^T adj(G) z_k / d + u^T adj(G) X c / d)),
        normalized over the classes.  The two dual sums are built from their
        Gram matrices, r^2 adj(K^T K) / d (``dual``) and r^2 adj(G) / d, so
        the integer adjugates, the HNF of G and the class residues are the
        only data the sums need, and none of them depends on r.  A single
        class (d = 1) needs no sum.  Raises EnumerationBudgetExceeded when d,
        or d times the dual points of either sum, exceeds ENUM_BUDGET.
        """
        if not self.R.is_spherical:
            raise ValueError("coset classes need a spherical R")
        n = self.X.n_rows
        adjG, d = self.gram_adjugate
        H = (self.X @ self.X.T).hermite.H
        hnf = H.to_numpy(dtype=np.int64)
        diag = [H.rows[i][i] for i in range(n)]
        if math.prod(diag) != d:
            raise InvariantViolation("the HNF diagonal of X X^T does not multiply to its determinant")
        if d > ENUM_BUDGET:
            raise EnumerationBudgetExceeded(f"{d} coset classes exceed budget {ENUM_BUDGET}")
        if d == 1:
            return CosetClasses(hnf, np.zeros(1), np.ones(1), 0.0, 0.0)
        # the int64 phases of both sums are exact: PoissonSum.sums checks
        # rank * (d - 1)^2 < 2^63, which d <= ENUM_BUDGET leaves to ranks above 23,000
        adjK, dK = self.kernel_adjugate
        if dK != d:
            raise InvariantViolation(f"det(K^T K) = {dK} differs from det(X X^T) = {d}")
        M = IntMatrix.from_rows(adjK) @ self.kernel.matrix.T @ self.P
        reps = np.stack(np.unravel_index(np.arange(d), diag), axis=1)  # lexicographic
        adjGf = np.array(adjG, dtype=float)
        kernel_shift = target_shift = None  # c = 0 adds no float phase
        if np.any(self.c):
            kernel_shift = np.array(adjK, dtype=float) @ (self.c @ self.K) / d
            target_shift = adjGf @ self.Xc / d
        delta = self.dual.sums(kernel_shift, reps @ _mod(M.rows, d).T % d, d)
        target = poisson_sum(self.R.s ** 2 * adjGf / d)
        q = 1.0 + target.sums(target_shift, reps @ _mod(adjG, d).T % d, d)
        if np.any(q < 0):
            raise InvariantViolation("a class mass of the target is negative")
        total = float(np.sum(q))
        Q_slack = 2.0 * d * target.tail / total
        return CosetClasses(hnf, delta, q / total, self.dual.tail, Q_slack)


def _mod(rows: Sequence[Sequence[int]], d: int) -> np.ndarray:
    """An integer matrix reduced mod d, as int64."""
    return np.array([[x % d for x in row] for row in rows], dtype=np.int64)


def class_tvd(ws: FiberWorkspace) -> ExactTVDReport:
    """Exact TVD between the image and target pmfs of a spherical workspace,
    from its coset classes: TVD = 1/2 sum_k Q_k |delta_k - dbar| / (1 + dbar),
    dbar = sum_k Q_k delta_k.

    The image pmf is the target pmf times (1 + delta_k) / (1 + dbar) on class
    k, so the TVD is that of the class distributions P_k = x_k / sum x,
    x_k = Q_k (1 + delta_k), and Q_k.  Truncation: both dual sums stop where
    Banaszczyk's bound is 2^-100, so each computed delta_k is within
    e_A = ``PoissonSum.tail`` of its full sum, and each unnormalized class
    mass within e_Q.  For x >= 0 and a computed x' with positive sum,
    ||x'/sum x' - x/sum x||_1 <= 2 ||x' - x||_1 / sum x'; so
    ||Q' - Q||_1 <= 2 d e_Q / sum q' (``Q_slack``), ||x' - x||_1 <= E =
    e_A + (max_k |1 + delta'_k| + e_A) ||Q' - Q||_1 (``mass_slack``), and
    ``truncation_error`` = 1/2 (2 E / (1 + dbar') + ||Q' - Q||_1) bounds
    |TVD' - TVD|.  ``support_size`` is d and ``radius`` the whitened radius
    of the kernel's dual sum.
    """
    cl = ws.classes
    dbar = cl.mean_delta
    tvd = 0.5 * float(cl.Q @ np.abs(cl.delta - dbar)) / (1.0 + dbar)
    if not (math.isfinite(tvd) and 0.0 <= tvd <= 1.0):
        raise InvariantViolation(f"class TVD {tvd} is not in [0, 1]")
    trunc = cl.mass_slack / (1.0 + dbar) + 0.5 * cl.Q_slack
    return ExactTVDReport(
        tvd=tvd, truncation_error=trunc,
        support_size=len(cl.Q), radius=banaszczyk_radius(ws.rank),
    )


def region_radius_for_tail(n: int, tail: float = 1e-12, cap: float = 12.0) -> float:
    """Smallest whitened radius whose certified ball tail is below ``tail``."""
    r = 1.0
    while r < cap and ball_tail_bound(n, r) > tail:
        r += 0.25
    return r


def _labels(X, R, c, region_radius, workspace):
    """(workspace, region radius, int64 label array) shared by the image and
    target pmfs; labels are in lexicographic order."""
    ws = workspace or FiberWorkspace(X, R, c if c is not None else [0.0] * X.n_cols)
    if region_radius is None:
        region_radius = region_radius_for_tail(X.n_rows)
    return ws, region_radius, ws.labels(region_radius)


def _row_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): order sorts the rows of keys lexicographically, ties
    by index; starts[k] marks order[k] as the first row of a run of equal
    rows.  np.unique(axis=0) sorts the rows as opaque bytes and takes several
    times as long."""
    order = np.lexsort(tuple(keys.T[::-1]))
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

    The support label z stands for the output point z + X c, and its mass is
    the target weight of z times 1 + delta(z), normalized over the region.
    For spherical R with at most as many classes of Z^n / G Z^n as labels,
    delta is the workspace's class table (one dual sum per class, none for
    d = 1), each label reduced onto its class representative.  Otherwise
    every label takes the delta of its class in one batched dual sum: for
    spherical R one label per class, the classes told apart by the exact key
    adj(G) z mod d while n (d - 1)^2 < 2^63 (labels with one key differ by
    some G w, and their fibers by X^T w, orthogonal to ker X), and for an
    ellipsoidal R every label.

    Truncation is certified.  The image mass outside the region is at most
    the target's ball tail tt times max (1 + delta) / (1 + mean delta), the
    mean over all labels under the target.  From the class table that is
    max_k (1 + delta_k) + e_A over 1 + dbar - E (see ``class_tvd``).
    Otherwise the maximum is at most 1 + mu, mu = ``dual.mass`` + e_A, since
    |delta(z)| <= mu, and the mean is at least the region's part of it: the
    target weight outside the region is at most tt / (1 - tt) of the weight
    S inside, so 1 + mean delta >= (1 - tt) (sum of the masses / S - e_A).
    The dual truncation adds e_A over the same denominator.  A fiber weight
    is >= 0 and 1 + delta is computed to within e_A plus rounding, so a
    negative value stands for a weight of 0.
    """
    ws, region_radius, T = _labels(X, R, c, region_radius, workspace)
    weights = np.exp(-math.pi * ws.target_norms(T))
    n = X.n_rows
    tt = ball_tail_bound(n, region_radius)
    adj, d = ws.gram_adjugate if R.is_spherical else (None, None)
    if R.is_spherical and d <= len(T):
        cl = ws.classes
        e_A = cl.delta_slack
        masses = weights * np.maximum(1.0 + cl.delta[cl.index(T)], 0.0)
        hi = 1.0 + float(np.max(cl.delta)) + e_A
        lo = 1.0 + cl.mean_delta - cl.mass_slack
    else:
        rows, inverse = T, slice(None)
        if R.is_spherical and exact_in_int64(n, d):
            keys = (T % d) @ _mod(adj, d).T % d
            order, starts = _row_groups(keys)
            inverse = np.empty(len(T), dtype=np.intp)
            inverse[order] = np.cumsum(starts) - 1
            rows = T[order[starts]]
        e_A = ws.dual.tail
        masses = weights * np.maximum(1.0 + ws.section_deltas(rows)[inverse], 0.0)
        hi = 1.0 + ws.dual.mass + e_A
        lo = (1.0 - tt) * (float(np.sum(np.sort(masses))) / float(np.sum(np.sort(weights))) - e_A)
    total = float(np.sum(np.sort(masses)))
    if total <= 0:
        raise ValueError("empty region")
    tail = (tt * hi + e_A) / lo if lo > 0 else 1.0
    return DiscretePMF(T, masses / total, min(1.0, tail))


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
