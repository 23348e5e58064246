"""Statistical distance between X-image distributions and discrete Gaussians.

The image distribution pushes v ~ D_{Z^m + c, R} through v -> X v.  Its mass
at an output point factors over the fiber {v : X v = z'}, a translate of the
orthogonal lattice A(X); each fiber weight splits as
rho(u_z) * (Gaussian weight of a translated copy of A), which is what makes
exact desk-scale computation and the ratio-band diagnostics feasible.

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
from .intmat import IntMatrix, InvariantViolation, _hnf_kernel, hnf_column, hnf_pivots
from .lattice import LatticeBasis, lll_reduce

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
    lattice, so one Hermite decomposition X U = H gives the kernel basis and
    the linear particular solution g(z) = P z, and the whitened integer search
    box is built once and only recentered per fiber.  The kernel basis is
    LLL-reduced: the raw HNF columns can be long and skewed enough that the
    box covering the section ball has millions of points.  X must map Z^m
    onto Z^n, so that every label has a fiber.
    """

    def __init__(self, X: IntMatrix, R: GaussianShape, c: Sequence[float]):
        n, m = X.shape
        H, U = hnf_column(X)
        pivots = hnf_pivots(H)
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
        self.kernel = lll_reduce(LatticeBasis(IntMatrix.from_columns(_hnf_kernel(X, U, n)))) if m > n else None
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

    def region(self, region_radius: float) -> list[tuple[int, ...]]:
        """Integer labels z with whitened target norm of z + X c within radius."""
        T = enumerate_affine(self.Wt, self.Wt @ self.Xc, region_radius)
        return [tuple(int(v) for v in t) for t in T]

    def target_weight(self, z: Sequence[int]) -> float:
        y = self.Wt @ (np.asarray(z, dtype=float) + self.Xc)
        return float(np.exp(-math.pi * y @ y))


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
    """(workspace, region radius, labels) shared by the image and target pmfs."""
    ws = workspace or FiberWorkspace(X, R, c if c is not None else [0.0] * X.n_cols)
    if region_radius is None:
        region_radius = region_radius_for_tail(X.n_rows)
    return ws, region_radius, ws.region(region_radius)


def exact_output_pmf(
    X: IntMatrix,
    R: GaussianShape,
    c: Sequence[float] | None = None,
    region_radius: float | None = None,
    workspace: FiberWorkspace | None = None,
) -> DiscretePMF:
    """Truncated pmf of {X v : v ~ D_{Z^m + c, R}} over integer labels z.

    The support label z stands for the output point z + X c.  Truncation is
    certified: region tail via the Gaussian ball bound on the target shape
    (safety factor 3 covering the image-vs-target band), fiber tails via the
    section ball bound.
    """
    ws, region_radius, labels = _labels(X, R, c, region_radius, workspace)
    masses = np.array([ws.fiber_weight(z) for z in labels])
    total = float(np.sum(np.sort(masses)))
    if total <= 0:
        raise ValueError("empty region")
    section_tail = 0.0 if ws.kernel is None else ball_tail_bound(ws.rank, ws.section_radius)
    tail = min(1.0, 3.0 * ball_tail_bound(X.n_rows, region_radius) + section_tail)
    return DiscretePMF(tuple(labels), masses / total, tail)


def target_pmf(
    X: IntMatrix,
    R: GaussianShape,
    c: Sequence[float] | None = None,
    region_radius: float | None = None,
    workspace: FiberWorkspace | None = None,
) -> DiscretePMF:
    """Truncated pmf of the discrete Gaussian on Z^n + X c with shape R X^T."""
    ws, region_radius, labels = _labels(X, R, c, region_radius, workspace)
    vals = np.array([ws.target_weight(z) for z in labels])
    total = float(np.sum(np.sort(vals)))
    return DiscretePMF(tuple(labels), vals / total, ball_tail_bound(X.n_rows, region_radius))


def exact_tvd(p: DiscretePMF, q: DiscretePMF, radius: float = 0.0) -> ExactTVDReport:
    """Half the l1 difference over the union support, with truncation slack."""
    pd, qd = p.as_dict(), q.as_dict()
    keys = set(pd) | set(qd)
    tvd = 0.5 * sum(abs(pd.get(k, 0.0) - qd.get(k, 0.0)) for k in sorted(keys))
    trunc = 0.5 * (p.tail_bound + q.tail_bound)
    return ExactTVDReport(
        tvd=float(tvd), truncation_error=float(trunc),
        support_size=len(keys), radius=radius,
    )


def mc_tvd(
    sampler: Callable[[int, SampleStream], np.ndarray],
    target: DiscretePMF,
    N: int,
    stream: SampleStream,
    confidence: float = 0.99,
) -> MCTVDReport:
    """Plug-in TVD estimate from N samples against a target pmf.

    The confidence interval is a conservative union-Hoeffding band over the
    support (distribution-free); the plug-in estimate is upward biased by at
    most about sqrt(support/N), reported separately.
    """
    if N < 10_000:
        raise ValueError("N must be at least 10^4")
    draws = np.asarray(sampler(N, stream))
    if draws.ndim == 1:
        draws = draws[:, None]
    counts: dict[tuple, int] = {}
    for row in draws:
        key = tuple(int(round(v)) if abs(v - round(v)) < 1e-9 else float(v) for v in row)
        counts[key] = counts.get(key, 0) + 1
    td = target.as_dict()
    keys = set(td) | set(counts)
    est = 0.5 * sum(abs(counts.get(k, 0) / N - td.get(k, 0.0)) for k in sorted(keys))
    k = len(keys)
    alpha = 1.0 - confidence
    h = math.sqrt(math.log(2 * (k + 1) / alpha) / (2 * N))
    half = 0.5 * (k + 1) * h
    return MCTVDReport(
        estimate=float(est),
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
