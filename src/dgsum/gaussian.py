"""Gaussian weights, discrete Gaussian pmfs over lattice cosets, and samplers.

The Gaussian weight of a point x under a shape S is exp(-pi * x^T (S^T S)^-1 x);
the spherical case S = s*I gives exp(-pi ||x||^2 / s^2).  Discrete Gaussians on
a coset L + c weight each coset point by this function and normalize by the
total weight of the coset.  All pmf tables are truncated with a certified
relative tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .intmat import IntMatrix

DEFAULT_RADIUS = 12.0  # whitened truncation radius, tail < 2^-100 per direction
ENUM_BUDGET = 20_000_000  # max integer box size in a single enumeration


class EnumerationBudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class GaussianShape:
    """Shape parameter of a (possibly ellipsoidal) Gaussian weight function.

    Either spherical with parameter ``s > 0`` or ellipsoidal with a matrix
    ``S`` of full column rank; the covariance-like Gram matrix is S^T S.
    """

    s: float | None = None
    S: np.ndarray | None = None

    def __post_init__(self):
        if (self.s is None) == (self.S is None):
            raise ValueError("exactly one of s, S must be given")
        if self.s is not None and not self.s > 0:
            raise ValueError("s must be positive")
        if self.S is not None:
            S = np.asarray(self.S, dtype=float)
            object.__setattr__(self, "S", S)
            if np.linalg.matrix_rank(S) < S.shape[1]:
                raise ValueError("S must have full column rank")

    @staticmethod
    def spherical(s: float) -> "GaussianShape":
        return GaussianShape(s=s)

    @staticmethod
    def ellipsoidal(S) -> "GaussianShape":
        return GaussianShape(S=np.asarray(S, dtype=float))

    @staticmethod
    def from_gram(G) -> "GaussianShape":
        """Shape with prescribed Gram matrix G = S^T S (G must be SPD)."""
        G = np.asarray(G, dtype=float)
        L = np.linalg.cholesky(G)
        return GaussianShape(S=L.T)

    @property
    def is_spherical(self) -> bool:
        return self.s is not None

    def rank(self, ambient_dim: int) -> int:
        return ambient_dim if self.is_spherical else self.S.shape[1]

    def gram(self, dim: int) -> np.ndarray:
        if self.is_spherical:
            return (self.s ** 2) * np.eye(dim)
        if self.S.shape[1] != dim:
            raise ValueError("dimension mismatch")
        return self.S.T @ self.S

    def whitening(self, dim: int) -> np.ndarray:
        """Matrix W with rho(x) = exp(-pi ||W x||^2)."""
        if self.is_spherical:
            return np.eye(dim) / self.s
        G = self.gram(dim)
        L = np.linalg.cholesky(G)
        return np.linalg.inv(L)

    def singular_values(self, dim: int | None = None) -> np.ndarray:
        if self.is_spherical:
            if dim is None:
                raise ValueError("dim needed for a spherical shape")
            return np.full(dim, float(self.s))
        return np.linalg.svd(self.S, compute_uv=False)

    def sigma_max(self, dim: int | None = None) -> float:
        return float(self.singular_values(dim)[0])

    def sigma_min(self, dim: int | None = None) -> float:
        return float(self.singular_values(dim)[-1])

    def diagonal(self, dim: int) -> np.ndarray | None:
        """Per-axis parameters if the shape is (numerically) diagonal."""
        if self.is_spherical:
            return np.full(dim, float(self.s))
        S = self.S
        if S.shape[0] != S.shape[1] or S.shape[0] != dim:
            return None
        off = S - np.diag(np.diag(S))
        if np.max(np.abs(off)) > 1e-12 * max(1.0, np.max(np.abs(S))):
            return None
        d = np.diag(S)
        return np.abs(d)


@dataclass(frozen=True)
class LatticeCoset:
    """Coset L + c, with L generated by the integer columns of ``basis``."""

    basis: IntMatrix
    shift: tuple[float, ...]

    @staticmethod
    def integers(dim: int, shift: Sequence[float] | None = None) -> "LatticeCoset":
        c = tuple(float(x) for x in shift) if shift is not None else (0.0,) * dim
        if len(c) != dim:
            raise ValueError("shift dimension mismatch")
        return LatticeCoset(IntMatrix.identity(dim), c)

    @staticmethod
    def of(basis_rows: Sequence[Sequence[int]], shift: Sequence[float] | None = None) -> "LatticeCoset":
        B = IntMatrix.from_rows(basis_rows)
        c = tuple(float(x) for x in shift) if shift is not None else (0.0,) * B.n_rows
        return LatticeCoset(B, c)

    @property
    def dim(self) -> int:
        return self.basis.n_rows

    @property
    def rank(self) -> int:
        return self.basis.n_cols


@dataclass(frozen=True)
class DiscretePMF:
    """Finite truncated pmf over lattice points.

    ``points`` is a (k, d) array holding one support point per row, int64 for
    integer points; a sequence of point tuples is converted to that array,
    and a 2-D array is kept as the same object.  ``masses`` are the
    normalized probabilities; ``tail_bound`` certifies the relative mass
    that the truncation may have discarded.
    """

    points: np.ndarray
    masses: np.ndarray
    tail_bound: float

    def __post_init__(self):
        if not (isinstance(self.points, np.ndarray) and self.points.ndim == 2):
            pts = np.array(self.points)  # int64 for tuples of ints
            # an empty sequence gives shape (0,): no points, of no known dimension
            object.__setattr__(self, "points", pts if pts.ndim == 2 else pts.reshape(len(pts), 0))
        m = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", m)
        if len(self.points) != len(m):
            raise ValueError("points/masses length mismatch")
        if np.any(m < 0):
            raise ValueError("negative mass")

    def as_dict(self) -> dict:
        return dict(zip(map(tuple, self.points.tolist()), self.masses))

    def mass_at(self, point) -> float:
        """Mass of the first support point equal to ``point``; 0.0 off the
        support, and for a point of another dimension."""
        point = np.asarray(point)
        if point.shape != self.points.shape[1:]:
            return 0.0
        hit = np.flatnonzero(np.all(self.points == point, axis=1))
        return float(self.masses[hit[0]]) if len(hit) else 0.0

    def support_size(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class SampleStream:
    """Seeded, splittable source of randomness (Philox counter-based).

    Identical (seed, stream_id, counter) reproduce identical outputs;
    distinct stream_ids give independent-quality streams.
    """

    seed: int
    stream_id: int = 0
    counter: int = 0

    def generator(self) -> np.random.Generator:
        """A fresh Philox generator keyed by ``(seed, stream_id)`` and started
        at ``counter``, each taken mod 2**64, so seed -1 and seed 2**64 - 1
        are one stream.  Key and counter are passed as uint64 arrays: a
        Python list holding a value of 2**63 or more would be cast through
        float and key the stream with 0."""
        bg = np.random.Philox(
            key=np.array([self.seed % 2 ** 64, self.stream_id % 2 ** 64], dtype=np.uint64),
            counter=np.array([self.counter % 2 ** 64, 0, 0, 0], dtype=np.uint64),
        )
        return np.random.Generator(bg)

    def substream(self, k: int) -> "SampleStream":
        return replace(self, stream_id=self.stream_id * 1_000_003 + 1 + k)

    def identity(self) -> dict:
        return {
            "generator": "numpy.random.Philox",
            "seed": self.seed,
            "stream_id": self.stream_id,
            "counter": self.counter,
        }


def rho(shape: GaussianShape, x) -> float:
    """Gaussian weight of a single point; 1 at the origin."""
    x = np.asarray(x, dtype=float)
    W = shape.whitening(x.shape[-1])
    return float(np.exp(-math.pi * np.sum((W @ x) ** 2)))


def ball_tail_bound(rank: int, whitened_radius: float) -> float:
    """Certified relative Gaussian mass outside a whitened ball.

    Uses the standard discrete-Gaussian tail estimate
    (c sqrt(2 pi e) e^{-pi c^2})^rank at c = radius/sqrt(rank), with a
    conservative prefactor 6 absorbing the smoothing correction and a
    safety factor 2.  Vacuous (returns 1) for small radii.
    """
    if rank == 0:
        return 0.0
    c = whitened_radius / math.sqrt(rank)
    if c < 1.0:
        return 1.0
    base = c * math.sqrt(2 * math.pi * math.e) * math.exp(-math.pi * c * c)
    return float(min(1.0, 6.0 * base ** rank))


def integer_box(lo: np.ndarray, hi: np.ndarray, budget: int = ENUM_BUDGET) -> np.ndarray:
    """Every integer point t with lo <= t <= hi, as rows in lexicographic order."""
    total = int(np.prod((hi - lo + 1).astype(object)))
    if total > budget:
        raise EnumerationBudgetExceeded(
            f"integer box of size {total} exceeds budget {budget}"
        )
    grids = np.meshgrid(*[np.arange(l, h + 1) for l, h in zip(lo, hi)], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def enumerate_affine(
    A: np.ndarray,
    b: np.ndarray,
    radius: float,
    budget: int = ENUM_BUDGET,
) -> np.ndarray:
    """Integer t with ||A t + b|| <= radius, as rows of the returned array.

    A must have full column rank.  Enumerates the axis-aligned bounding box
    of the ellipsoid, then filters; rows are in lexicographic order so
    downstream sums are deterministic.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    G = A.T @ A
    Ginv = np.linalg.inv(G)
    t0 = -Ginv @ (A.T @ b)
    half = radius * np.sqrt(np.maximum(np.diag(Ginv), 0.0))
    lo = np.floor(t0 - half - 1e-9).astype(np.int64)
    hi = np.ceil(t0 + half + 1e-9).astype(np.int64)
    T = integer_box(lo, hi, budget)
    w = T @ A.T + b
    keep = np.einsum("ij,ij->i", w, w) <= radius * radius * (1 + 1e-12) + 1e-12
    return T[keep]


def enumerate_coset(
    coset: LatticeCoset,
    W: np.ndarray,
    radius: float,
    budget: int = ENUM_BUDGET,
) -> tuple[np.ndarray, np.ndarray]:
    """All coset points y = B t + c with ||W y|| <= radius.

    Returns (T, Y): integer coefficient matrix and the float points.
    """
    B = coset.basis.to_numpy()
    c = np.asarray(coset.shift, dtype=float)
    T = enumerate_affine(W @ B, W @ c, radius, budget)
    Y = T @ B.T + c
    return T, Y


def coset_mass(
    coset: LatticeCoset,
    shape: GaussianShape,
    radius: float = DEFAULT_RADIUS,
) -> tuple[float, float]:
    """Truncated total Gaussian weight of the coset, with certified tail.

    The truncation keeps points with whitened norm <= radius; the returned
    tail bound is relative to the full coset weight.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    W = shape.whitening(coset.dim)
    _, Y = enumerate_coset(coset, W, radius)
    if len(Y) == 0:
        return 0.0, 1.0
    w = Y @ W.T
    vals = np.exp(-math.pi * np.einsum("ij,ij->i", w, w))
    mass = float(np.sum(np.sort(vals)))
    return mass, ball_tail_bound(coset.rank, radius)


def exact_pmf(
    coset: LatticeCoset,
    shape: GaussianShape,
    radius: float = DEFAULT_RADIUS,
) -> DiscretePMF:
    """Truncated pmf of the discrete Gaussian on the coset."""
    W = shape.whitening(coset.dim)
    T, Y = enumerate_coset(coset, W, radius)
    if len(Y) == 0:
        return DiscretePMF(Y, np.zeros(0), 1.0)
    w = Y @ W.T
    vals = np.exp(-math.pi * np.einsum("ij,ij->i", w, w))
    total = float(np.sum(np.sort(vals)))
    if np.allclose(Y, np.round(Y), atol=1e-9):
        Y = np.round(Y).astype(np.int64)
    return DiscretePMF(Y, vals / total, ball_tail_bound(coset.rank, radius))


def _sample_dg_ints_batch(s: float, size: int, gen: np.random.Generator) -> np.ndarray:
    """Vectorized rejection sampler for D_{Z,s} (centered).

    Proposal: two-sided geometric p(k) ~ exp(-|k|/s); accept with probability
    exp(-pi k^2/s^2 + |k|/s) / envelope; hard tail cut at 12 s.
    """
    out = np.empty(size, dtype=np.int64)
    filled = 0
    cut = 12.0 * s
    while filled < size:
        batch = max(1024, int(2.5 * (size - filled)))
        u = gen.random(batch)
        g = np.floor(-s * np.log1p(-u)).astype(np.int64)
        sign = np.where(gen.random(batch) < 0.5, -1, 1)
        ok = ~((g == 0) & (sign < 0))
        k = sign * g
        accept = gen.random(batch) < np.exp(
            -math.pi * (g / s) ** 2 + g / s - 1.0 / (4 * math.pi)
        )
        keep = ok & accept & (g <= cut)
        vals = k[keep]
        take = min(len(vals), size - filled)
        out[filled : filled + take] = vals[:take]
        filled += take
    return out


def sample_dg_ints(s: float, size: int, stream: SampleStream) -> np.ndarray:
    """``size`` i.i.d. draws from D_{Z,s}, deterministic given the stream."""
    if not s > 0:
        raise ValueError("s must be positive")
    return _sample_dg_ints_batch(float(s), int(size), stream.generator())


def sample_dg_int(s: float, stream: SampleStream) -> int:
    return int(sample_dg_ints(s, 1, stream)[0])


def _table_sample(pmf: DiscretePMF, size: int, gen: np.random.Generator) -> np.ndarray:
    """``size`` rows of ``pmf.points`` drawn by the pmf's masses."""
    idx = gen.choice(pmf.support_size(), size=size, p=pmf.masses / pmf.masses.sum())
    return pmf.points[idx]


def _table_sample_1d(s: float, shift: float, size: int, gen: np.random.Generator) -> np.ndarray:
    pmf = exact_pmf(LatticeCoset.integers(1, (shift,)), GaussianShape.spherical(s))
    return _table_sample(pmf, size, gen)[:, 0]


def sample_dg_coset(
    coset: LatticeCoset,
    shape: GaussianShape,
    stream: SampleStream,
    size: int = 1,
) -> np.ndarray:
    """Draws from the discrete Gaussian on the coset; shape (size, dim).

    Fast path: Z^m coset with diagonal (or spherical) shape, sampled per
    coordinate.  Otherwise falls back to the table path (exact pmf plus
    inverse CDF), subject to the enumeration budget.
    """
    dim = coset.dim
    diag = shape.diagonal(dim)
    axis_aligned = coset.basis.rows == IntMatrix.identity(dim).rows
    if axis_aligned and diag is not None:
        gen = stream.generator()
        cols = []
        for i in range(dim):
            c = coset.shift[i]
            if abs(c - round(c)) < 1e-12:
                cols.append(_sample_dg_ints_batch(float(diag[i]), size, gen) + round(c))
            else:
                cols.append(_table_sample_1d(float(diag[i]), c, size, gen))
        return np.stack(cols, axis=1).astype(float)
    pmf = exact_pmf(coset, shape)
    if pmf.support_size() == 0:
        raise RuntimeError("empty truncated support")
    return _table_sample(pmf, size, stream.generator()).astype(float)


def push_to_lattice(B: IntMatrix, x: Sequence[int]) -> tuple[int, ...]:
    """Map integer coefficients x to the lattice point B x (injective on Z^n)."""
    from .intmat import fraction_rank

    if len(x) != B.n_cols:
        raise ValueError("dimension mismatch")
    if fraction_rank(B.rows) < B.n_cols:
        raise ValueError("B must have full column rank")
    return tuple(B @ [int(v) for v in x])
