"""Gaussian weights, discrete Gaussian pmfs over lattice cosets, and samplers.

The Gaussian weight of a point x under a shape S is exp(-pi * x^T (S^T S)^-1 x);
the spherical case S = s*I gives exp(-pi ||x||^2 / s^2).  Discrete Gaussians on
a coset L + c weight each coset point by this function and normalize by the
total weight of the coset.  All pmf tables are truncated with a certified
relative tail bound.

Every lattice-point enumeration is one Fincke-Pohst level loop
(``fincke_pohst``) on an upper-triangular factor U of the lattice, under one
of two factorizations.  ``enumerate_affine`` takes a basis A with a centre b
and factors A = Q U (QR).  ``poisson_sum`` takes a Gram matrix, which is all a
Gaussian sum over a lattice needs (rho(A t) = exp(-pi t^T A^T A t)), and
factors it as U^T U (Cholesky).  The dual basis B (B^T B)^-1 of an integer
basis B has Gram matrix (B^T B)^-1 = adj(B^T B) / det(B^T B), so a dual sum
at scale s over an integer lattice is ``poisson_sum(s^2 adj(B^T B) /
det(B^T B))``, with no float basis to factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .intmat import IntMatrix

DEFAULT_RADIUS = 12.0  # whitened truncation radius, tail < 2^-100 per direction
ENUM_BUDGET = 20_000_000  # max entries of one enumeration, max terms of one dual sum
DUAL_TAIL = 2.0 ** -100  # Banaszczyk bound at the truncation radius of a dual sum
DUAL_BLOCK = 2 ** 20  # max (point, shift) entries evaluated at once by PoissonSum.sums


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


def banaszczyk_bound(rank: int, radius: float) -> float:
    """(c sqrt(2 pi e) e^{-pi c^2})^rank at c = radius / sqrt(rank), or 1 for
    c <= 1/sqrt(2 pi).  For any lattice L of this rank, the Gaussian weight
    rho(x) = exp(-pi ||x||^2) of the points of L outside the ball of this
    radius is at most this fraction of rho(L) (Banaszczyk 1993; Micciancio-
    Regev 2007, Lemma 2.10)."""
    if rank == 0:
        return 0.0
    c = radius / math.sqrt(rank)
    if c <= 1.0 / math.sqrt(2 * math.pi):
        return 1.0
    return math.exp(rank * (math.log(c) + 0.5 * math.log(2 * math.pi * math.e) - math.pi * c * c))


@lru_cache(maxsize=None)
def banaszczyk_radius(rank: int) -> float:
    """Least radius, to a relative 1e-12, at which ``banaszczyk_bound(rank,
    radius) <= DUAL_TAIL``; 0 for rank 0.  The bound decreases in the radius
    above sqrt(rank / (2 pi)), so a bisection finds it, once per rank."""
    if rank == 0:
        return 0.0
    lo, hi = math.sqrt(rank / (2 * math.pi)), math.sqrt(rank)
    while banaszczyk_bound(rank, hi) > DUAL_TAIL:
        lo, hi = hi, 2 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if banaszczyk_bound(rank, mid) <= DUAL_TAIL else (mid, hi)
    return hi


@dataclass(frozen=True)
class PoissonSum:
    """Gaussian sums over the nonzero points of a lattice A Z^k, with phases.

    ``points`` holds one of each pair +-t of nonzero integer vectors with
    ||A t|| <= ``radius`` (the first nonzero entry positive), and ``weights``
    their e^{-pi ||A t||^2}.  The radius is ``banaszczyk_radius`` of the rank,
    so the weight of the omitted points is at most DUAL_TAIL * rho(A Z^k).
    Built by ``poisson_sum``.

    Through Poisson summation this is the one section sum of the package:
    a Gaussian sum over a shifted lattice is the sum over its dual lattice of
    the dual weights times cos(2 pi <y, shift>) (Micciancio-Regev 2007,
    Lemma 2.8), and ``sums`` evaluates the nonzero part of that dual sum for a
    batch of shifts.
    """

    points: np.ndarray
    weights: np.ndarray
    radius: float
    rank: int

    @property
    def mass(self) -> float:
        """sum of e^{-pi ||A t||^2} over the kept nonzero points, both of each pair."""
        return 2.0 * float(np.sum(np.sort(self.weights)))

    @property
    def tail(self) -> float:
        """Bound on the omitted part of any phase sum: the omitted weight is at
        most beta rho(L), beta = banaszczyk_bound(rank, radius), and the kept
        weight 1 + mass is at least (1 - beta) rho(L), so rho(L) <= (1 + mass) /
        (1 - beta) and the omitted part is at most beta (1 + mass) / (1 - beta)."""
        beta = banaszczyk_bound(self.rank, self.radius)
        return beta * (1.0 + self.mass) / (1.0 - beta)

    def sums(self, shifts: np.ndarray) -> np.ndarray:
        """For each row b of the (B, k) array ``shifts``, the sum over the kept
        nonzero points t of e^{-pi ||A t||^2} cos(2 pi t . shifts_b).

        The (point, row) terms are charged against ENUM_BUDGET
        (EnumerationBudgetExceeded above it) and evaluated in blocks of at
        most DUAL_BLOCK entries.  The y = 0 term, 1, is not included.
        """
        shifts = np.asarray(shifts, dtype=float)
        shifts = shifts - np.round(shifts)  # the phase depends on the shift mod 1
        rows = len(shifts)
        terms = rows * len(self.points)
        if terms > ENUM_BUDGET:
            raise EnumerationBudgetExceeded(
                f"dual sum of {rows} shifts over {len(self.points)} points "
                f"({terms} terms) exceeds budget {ENUM_BUDGET}"
            )
        out = np.zeros(rows)
        if not len(self.points):
            return out
        T = self.points
        step = max(1, DUAL_BLOCK // len(T))
        for lo in range(0, rows, step):
            hi = min(rows, lo + step)
            out[lo:hi] = 2.0 * (self.weights @ np.cos(2 * math.pi * (T @ shifts[lo:hi].T)))
        return out


def poisson_sum(gram: np.ndarray) -> PoissonSum:
    """The PoissonSum of the lattice with Gram matrix ``gram`` (k x k,
    positive definite), truncated at ``banaszczyk_radius(k)``.

    A Gaussian sum over a lattice needs its Gram matrix and nothing else:
    with gram = U^T U (Cholesky), ||A t||^2 = t^T gram t = ||U t||^2 for any
    basis A of the lattice, so ``fincke_pohst`` runs its levels on U, and the
    points are kept by t^T gram t <= radius^2 (1 + 1e-12) + 1e-12, the test
    ``enumerate_affine`` applies to ||A t||^2, with the same radius margin.
    The squared norms carry the relative rounding of gram's entries times
    |t|^T |gram| |t|, which for an ill-conditioned gram far exceeds
    t^T gram t; the package's Grams are those of duals of LLL-reduced or
    small integer bases.
    """
    gram = np.asarray(gram, dtype=float)
    k = len(gram)
    radius = banaszczyk_radius(k)
    if k == 0:
        return PoissonSum(np.zeros((0, 0), dtype=np.int64), np.zeros(0), radius, 0)
    bound = radius * radius * (1 + 1e-12) + 1e-12
    T = fincke_pohst(np.linalg.cholesky(gram).T, np.zeros(k), bound * (1 + 1e-9) + 1e-9, radius)
    lead = T[np.arange(len(T)), np.argmax(T != 0, axis=1)]
    T = T[lead > 0]  # one of each pair +-t; drops t = 0
    norms = np.einsum("ij,ij->i", T @ gram, T)
    keep = norms <= bound
    T, norms = T[keep], norms[keep]
    order = np.lexsort(T.T[::-1])
    return PoissonSum(T[order], np.exp(-math.pi * norms[order]), radius, k)


def fincke_pohst(U: np.ndarray, y: np.ndarray, level_bound: float, radius: float) -> np.ndarray:
    """Integer t with sum_i U_ii^2 (t_i - c_i)^2 <= level_bound, as int64 rows,
    c_i = -(y_i + sum_{j>i} U_ij t_j) / U_ii, U upper triangular (k x k) with
    a nonzero diagonal of either sign.

    Fincke-Pohst enumeration, one level at a time for all partial vectors at
    once: the coordinates are fixed from the last to the first, each within
    the interval that the bound left over by the later ones allows, so every
    partial vector kept extends to a point of the ellipsoid's projection,
    where the axis-aligned bounding box of a ball holds about 400 times its
    points at rank 10.  The int64 entries of each level's partial vectors are
    charged against ENUM_BUDGET (EnumerationBudgetExceeded above it);
    ``radius`` only names the ball in that message.  The rows come out in no
    particular order.
    """
    k = len(U)
    T = np.zeros((1 if level_bound >= 0 else 0, 0), dtype=np.int64)
    used = np.zeros(len(T))  # the bounded sum restricted to the fixed coordinates
    for i in range(k - 1, -1, -1):
        center = -(y[i] + T @ U[i, i + 1:]) / U[i, i]
        half = np.sqrt(np.maximum(level_bound - used, 0.0)) / abs(U[i, i])
        lo = np.ceil(center - half).astype(np.int64)
        count = np.maximum(np.floor(center + half).astype(np.int64) - lo + 1, 0)
        total = int(count.sum())
        if total * (k - i) > ENUM_BUDGET:
            raise EnumerationBudgetExceeded(
                f"{total} partial points of rank {k - i} in a ball of radius {radius:g} "
                f"exceed budget {ENUM_BUDGET}"
            )
        parent = np.repeat(np.arange(len(T)), count)
        first = np.cumsum(count) - count
        ti = np.arange(total) - first[parent] + lo[parent]
        used = used[parent] + (U[i, i] * (ti - center[parent])) ** 2
        T = np.concatenate([ti[:, None], T[parent]], axis=1)
    return T


def enumerate_affine(A: np.ndarray, b: np.ndarray, radius: float) -> np.ndarray:
    """Integer t with ||A t + b|| <= radius, as int64 rows in lexicographic order.

    A must have full column rank k.  With A = Q U (QR, U upper triangular)
    and y = Q^T b, ||A t + b||^2 = sum_i U_ii^2 (t_i - c_i)^2 + ||b - Q y||^2,
    c_i = -(y_i + sum_{j>i} U_ij t_j) / U_ii, which ``fincke_pohst``
    enumerates.  Its levels run at a radius larger by a relative 1e-9, and
    the points are then kept by ||A t + b||^2 <= radius^2 (1 + 1e-12) + 1e-12
    computed directly, so that rounding in U cannot drop a point on the
    boundary.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    Q, U = np.linalg.qr(A)
    y = Q.T @ b
    perp = b - Q @ y
    bound = radius * radius * (1 + 1e-12) + 1e-12
    T = fincke_pohst(U, y, bound * (1 + 1e-9) + 1e-9 - float(perp @ perp), radius)
    w = T @ A.T + b
    T = T[np.einsum("ij,ij->i", w, w) <= bound]
    return T[np.lexsort(T.T[::-1])]


def enumerate_coset(
    coset: LatticeCoset,
    W: np.ndarray,
    radius: float,
) -> tuple[np.ndarray, np.ndarray]:
    """All coset points y = B t + c with ||W y|| <= radius.

    Returns (T, Y): integer coefficient matrix and the float points.
    """
    B = coset.basis.to_numpy()
    c = np.asarray(coset.shift, dtype=float)
    T = enumerate_affine(W @ B, W @ c, radius)
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
            if abs(c - round(c)) < 1e-12:  # Z + c is Z, weighted about 0
                cols.append(_sample_dg_ints_batch(float(diag[i]), size, gen))
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
