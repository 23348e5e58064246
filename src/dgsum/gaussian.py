"""One discrete Gaussian, certified lattice truncation and enumeration, and one sampler.

The one Gaussian the package builds is D_{Z + c, s}, which weighs the point
y + c of Z + c by rho_s(y + c) = exp(-pi (y + c)^2 / s^2) over the total
weight of the coset: one 1-D table (``exact_pmf``).  D_{Z^m + c, s}, the
paper's v, is the product of the m cosets Z + c_i (``sample_dg_coset``).
Every other Gaussian weight is rho(x) = exp(-pi ||x||^2) of a point x of a
lattice L given by its Gram matrix: the point A (t + x0) of L + A x0, for any
basis A of Gram matrix gram = A^T A, weighs exp(-pi (t + x0)^T gram (t + x0)).

Every truncation keeps the points within the least radius R
(``_least_radius``, one bisection) at which its dropped relative weight is
certified below DUAL_TAIL through beta(k, R) = ``banaszczyk_bound``, L of
rank k (Banaszczyk 1993; Micciancio-Regev 2007, Lemma 2.10).  A dual sum
(``poisson_sum``, R = ``banaszczyk_radius``) drops at most beta rho(L); a
primal region (``truncate_coset``, R = ``coset_radius``) of a coset
L + x, x its shortest point, at most 2 beta e^{pi ||x||^2} of its weight, as
pairing y with -y (L = -L, cosh >= 1) gives rho(L + x) >= e^{-pi ||x||^2}
rho(L) and Banaszczyk's coset lemma rho((L + x) minus R B) < 2 beta rho(L).
So R > ||x||: the region holds x.  The class TVD's 1-D theta tables
(``tvd._theta_table``) take the same rule: ``exact_pmf``'s table of
Z + c for r <= 1, and the dual terms within ``coset_radius(1, 0)`` above.

Every lattice-point enumeration is one enumerator, ``enumerate_affine(gram,
x0, R)``, under one factorization: the Cholesky factor U of gram = U^T U,
on which one Fincke-Pohst level loop (``fincke_pohst``) runs, and one
boundary margin (``_boundary``) on the squared norms formed from gram.
``poisson_sum`` calls it with x0 = 0, ``truncate_coset`` with the coset's
shift, so no float basis is ever factored or whitened.  The dual basis
B (B^T B)^-1 of an integer basis B has Gram matrix (B^T B)^-1 =
adj(B^T B) / det(B^T B), so a dual sum at scale s over an integer lattice is
``poisson_sum(s^2 adj(B^T B) / det(B^T B))``, and the target coset
Z^n + X c under the shape r X^T has Gram matrix (r^2 X X^T)^-1 =
adj(X X^T) / (r^2 det(X X^T)): integers times one scalar.

Every draw of the package, integer shift or not, is one inverse-CDF draw
(``_table_sample``) from a table that ``exact_pmf`` truncated by the rule
above, so no sampler has a radius, a cut or a rejection step of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .intmat import IntMatrix, fraction_rank

ENUM_BUDGET = 20_000_000  # max entries of one enumeration, max terms of one dual sum
DUAL_TAIL = 2.0 ** -100  # certified relative tail of every truncation, primal and dual


class EnumerationBudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class DiscretePMF:
    """Finite truncated pmf over lattice points.

    ``points`` is a (k, d) array holding one support point per row, int64 for
    integer points; a sequence of point tuples is converted to that array,
    and a 2-D array is kept as the same object.  ``masses`` are the
    probabilities.  ``tail_bound`` bounds the total variation distance, half
    the l1 distance, of the masses from the distribution they stand for.  For
    a pmf truncated to a support S and renormalized, that distance is the
    relative mass outside S, the mass the truncation discarded.
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


def _log_banaszczyk_bound(rank: int, radius: float) -> float:
    """log ``banaszczyk_bound(rank, radius)``, finite where the bound underflows."""
    if rank == 0:
        return -math.inf
    c = radius / math.sqrt(rank)
    if c <= 1.0 / math.sqrt(2 * math.pi):
        return 0.0
    return rank * (math.log(c) + 0.5 * math.log(2 * math.pi * math.e) - math.pi * c * c)


def banaszczyk_bound(rank: int, radius: float) -> float:
    """(c sqrt(2 pi e) e^{-pi c^2})^rank at c = radius / sqrt(rank), or 1 for
    c <= 1/sqrt(2 pi).  For any lattice L of this rank, the Gaussian weight
    rho(x) = exp(-pi ||x||^2) of the points of L outside the ball of this
    radius is at most this fraction of rho(L) (Banaszczyk 1993; Micciancio-
    Regev 2007, Lemma 2.10)."""
    return math.exp(_log_banaszczyk_bound(rank, radius))


def _least_radius(rank: int, log_factor: float) -> tuple[float, float]:
    """(R, tail): the least R, to a relative 1e-12, with tail =
    e^log_factor banaszczyk_bound(rank, R) <= DUAL_TAIL, by a bisection on
    logs (a large factor cannot overflow) above sqrt(rank / (2 pi)), where
    the bound decreases; (0, 0) for rank 0."""
    if rank == 0:
        return 0.0, 0.0
    goal = math.log(DUAL_TAIL) - log_factor
    lo, hi = math.sqrt(rank / (2 * math.pi)), math.sqrt(rank)
    while _log_banaszczyk_bound(rank, hi) > goal:
        lo, hi = hi, 2 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _log_banaszczyk_bound(rank, mid) <= goal else (mid, hi)
    return hi, math.exp(log_factor + _log_banaszczyk_bound(rank, hi))


@lru_cache(maxsize=None)
def banaszczyk_radius(rank: int) -> float:
    """The radius of a dual sum over a lattice of this rank: the least at
    which ``banaszczyk_bound(rank, radius) <= DUAL_TAIL``; 0 for rank 0."""
    return _least_radius(rank, 0.0)[0]


@lru_cache(maxsize=1024)
def coset_radius(rank: int, delta: float) -> tuple[float, float]:
    """(R, tail) of a primal region of a coset L + x, ||x|| = delta: the least
    R with tail = 2 banaszczyk_bound(rank, R) e^{pi delta^2} <= DUAL_TAIL.
    The last 1024 are cached: one bisection takes about 24 us, and
    ``coset_radius(rank, 0)`` starts every region search and bounds every
    dual theta table of ``tvd.class_tvd``."""
    return _least_radius(rank, math.log(2.0) + math.pi * delta * delta)


@dataclass(frozen=True)
class PoissonSum:
    """Gaussian weights of the nonzero points of a lattice A Z^k.

    ``points`` holds one of each pair +-t of nonzero integer vectors with
    ||A t|| <= ``radius`` (the first nonzero entry positive), and ``weights``
    their e^{-pi ||A t||^2}.  The radius is ``banaszczyk_radius`` of the rank,
    so the weight of the omitted points is at most DUAL_TAIL * rho(A Z^k).
    Built by ``poisson_sum``.

    Through Poisson summation (Micciancio-Regev 2007, Lemma 2.8) this is the
    one dual sum of the package: the class TVD's target transform bins its
    points with their phases (``tvd.class_tvd``), and
    ``lattice.smoothing_check`` reads its ``mass``.
    """

    points: np.ndarray
    weights: np.ndarray
    radius: float
    rank: int

    @property
    def mass(self) -> float:
        """sum of e^{-pi ||A t||^2} over the kept nonzero points, both of each pair."""
        return 2.0 * float(np.sort(self.weights).sum())

    @property
    def tail(self) -> float:
        """Bound on the omitted part of any phase sum: the omitted weight is at
        most beta rho(L), beta = banaszczyk_bound(rank, radius), and the kept
        weight 1 + mass is at least (1 - beta) rho(L), so rho(L) <= (1 + mass) /
        (1 - beta) and the omitted part is at most beta (1 + mass) / (1 - beta)."""
        beta = banaszczyk_bound(self.rank, self.radius)
        return beta * (1.0 + self.mass) / (1.0 - beta)


def poisson_sum(gram: np.ndarray) -> PoissonSum:
    """The PoissonSum of the lattice with Gram matrix ``gram`` (k x k,
    positive definite), truncated at ``banaszczyk_radius(k)``: the nonzero
    points of ``enumerate_affine(gram, 0, radius)``, one of each pair.

    A Gaussian sum over a lattice needs its Gram matrix and nothing else:
    ||A t||^2 = t^T gram t for any basis A of the lattice.  The squared norms
    carry the relative rounding of gram's entries times |t|^T |gram| |t|,
    which for an ill-conditioned gram far exceeds t^T gram t; the package's
    Grams are those of duals of LLL-reduced or small integer bases.
    """
    gram = np.asarray(gram, dtype=float)
    k = len(gram)
    radius = banaszczyk_radius(k)
    if k == 0:
        return PoissonSum(np.zeros((0, 0), dtype=np.int64), np.zeros(0), radius, 0)
    T, norms = enumerate_affine(gram, np.zeros(k), radius)
    # the rows come sorted, so those after t = 0 are the ones whose first
    # nonzero entry is positive: one of each pair +-t
    h = int(np.flatnonzero(~T.any(axis=1))[0]) + 1
    return PoissonSum(T[h:], np.exp(-math.pi * norms[h:]), radius, k)


def _boundary(radius: float) -> tuple[float, float]:
    """(keep, level): ``enumerate_affine`` keeps the points whose squared
    norm, computed directly from the Gram matrix, is at most
    keep = radius^2 (1 + 1e-12) + 1e-12, and runs ``fincke_pohst``'s levels
    at level = keep (1 + 1e-9) + 1e-9, so that rounding in the triangular
    factor cannot drop a point on the boundary."""
    keep = radius * radius * (1 + 1e-12) + 1e-12
    return keep, keep * (1 + 1e-9) + 1e-9


def fincke_pohst(U: np.ndarray, y: np.ndarray, level_bound: float, radius: float) -> np.ndarray:
    """Integer t with sum_i U_ii^2 (t_i - c_i)^2 <= level_bound, as int64 rows,
    c_i = -(y_i + sum_{j>i} U_ij t_j) / U_ii, U upper triangular (k x k) with
    a nonzero diagonal of either sign.

    Fincke-Pohst enumeration (Fincke-Pohst 1985), one level at a time for all
    partial vectors at once: the coordinates are fixed from the last to the
    first, each within the interval that the bound left over by the later
    ones allows, so every partial vector kept extends to a point of the
    ellipsoid's projection, where the axis-aligned bounding box of a ball
    holds about 400 times its points at rank 10.  The root's interval, that
    of the last coordinate, is one range; every later level is a fixed
    handful of array operations on the partial vectors: their centres and
    half widths, the interval ends, one ``repeat`` of each parent's row,
    centre, offset and bounded sum by its interval's length, and one
    ``arange`` that numbers the new coordinates; nothing is gathered by
    index.  U is k x k with k >= 1.  The entries of each level's partial
    vectors are charged against ENUM_BUDGET (EnumerationBudgetExceeded above
    it); ``radius`` only names the ball in that message.  The rows come out
    in no particular order.  The class TVD
    picks its lattice before this runs: the target's dual sum or its primal
    region, whichever the Gaussian heuristic counts as smaller
    (``tvd._target_counts``), so no side is enumerated only to be dropped.
    """
    k = len(U)
    # the root: the last coordinate's interval is one range of values
    u = float(U[k - 1, k - 1])
    center = float(y[k - 1]) * (-1.0 / u)
    half = math.sqrt(level_bound) * (1.0 / abs(u)) if level_bound >= 0 else -1.0
    lo = math.ceil(center - half)
    ti = np.arange(lo, lo + _charged(max(math.floor(center + half) - lo + 1, 0), 1, radius), dtype=float)
    T = np.zeros((len(ti), k))  # integers, exact in floats
    T[:, k - 1] = ti
    used = (u * (ti - center)) ** 2  # the bounded sum restricted to the fixed coordinates
    for i in range(k - 2, -1, -1):
        u = float(U[i, i])
        center = (T @ U[i] + y[i]) * (-1.0 / u)  # T's columns up to i are still 0
        half = np.sqrt(np.maximum(level_bound - used, 0.0)) * (1.0 / abs(u))
        lo = np.ceil(center - half)
        count = (np.floor(center + half) - lo + 1).astype(np.int64)  # >= 0 as half >= 0
        ends = np.add.accumulate(count)
        total = _charged(int(ends[-1]) if len(ends) else 0, k - i, radius)
        ti = (lo - (ends - count)).repeat(count) + np.arange(total)
        T = T.repeat(count, axis=0)
        T[:, i] = ti
        if i:  # the last level needs no bounded sum
            used = used.repeat(count) + (u * (ti - center.repeat(count))) ** 2
    return T.astype(np.int64)


def _charged(total: int, rank: int, radius: float) -> int:
    """``total`` partial points of this rank, charged against ENUM_BUDGET
    as total * rank int64 entries: EnumerationBudgetExceeded above it."""
    if total * rank > ENUM_BUDGET:
        raise EnumerationBudgetExceeded(
            f"{total} partial points of rank {rank} in a ball of radius {radius:g} exceed budget {ENUM_BUDGET}"
        )
    return total


def enumerate_affine(gram: np.ndarray, x0: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """(T, norms): the integer t with (t + x0)^T gram (t + x0) <= radius^2, as
    int64 rows in lexicographic order, and those squared norms.

    The one enumerator of the package.  With gram = U^T U (Cholesky, U upper
    triangular), (t + x0)^T gram (t + x0) = ||U t + U x0||^2, which
    ``fincke_pohst`` enumerates; the points are kept by their squared norms,
    computed directly from gram, within ``_boundary(radius)``.
    """
    gram = np.asarray(gram, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    U = np.linalg.cholesky(gram).T
    bound, level = _boundary(radius)
    T = fincke_pohst(U, U @ x0, level, radius)
    V = T + x0
    norms = np.einsum("ij,ij->i", V @ gram, V)
    keep = norms <= bound
    T, norms = T[keep], norms[keep]
    order = np.lexsort(T.T[::-1])
    return T[order], norms[order]


def truncate_coset(gram: np.ndarray, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(T, weights, tail) of the coset Z^k + x0 weighed by e^{-pi y^T gram y}:
    the t with (t + x0)^T gram (t + x0) <= R^2, as int64 rows in
    lexicographic order, their weights over the largest, and
    (R, tail) = ``coset_radius(k, delta)``, delta the norm of the coset's
    shortest point.  That point is searched in the balls of radius min(d, R0),
    R0 = ``coset_radius(k, 0)``, doubled up to the norm d of
    x0 - round(x0), which a skew gram can put far out, until one holds a
    point."""
    gram = np.asarray(gram, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    f = x0 - np.round(x0)
    d = math.sqrt(float(f @ gram @ f))
    ball = min(d, coset_radius(len(gram), 0.0)[0])
    while not len(near := enumerate_affine(gram, x0, ball)[1]) and ball < d:
        ball = min(2 * ball, d)
    delta = min([d, *np.sqrt(near)])
    radius, tail = coset_radius(len(gram), delta)
    T, norms = enumerate_affine(gram, x0, radius)
    return T, np.exp(-math.pi * (norms - norms.min())), tail


def exact_pmf(s: float, c: float = 0.0) -> DiscretePMF:
    """The table of D_{Z + c, s}: the int64 labels y of the coset points y + c
    that ``truncate_coset`` keeps of the coset Z + c under the Gram matrix
    1 / s^2, their masses, and its tail, the relative mass discarded
    (``DiscretePMF.tail_bound``).  The one Gaussian the package builds: the
    sampler's tables and the image side's 1-D terms (``tvd._terms_1d``)."""
    if not s > 0:
        raise ValueError(f"s must be positive, not {s!r}")
    T, weights, tail = truncate_coset(np.array([[1.0 / (s * s)]]), [c])
    return DiscretePMF(T, weights / float(np.sum(np.sort(weights))), tail)


def coset_mass(s: float, c: float = 0.0) -> tuple[float, float]:
    """Truncated rho_s(Z + c) and its relative tail, from ``exact_pmf``: the
    weight is rho_s(y + c) / p(y) at its heaviest label y."""
    pmf = exact_pmf(s, c)
    top = int(np.argmax(pmf.masses))
    return math.exp(-math.pi * ((pmf.points[top, 0] + c) / s) ** 2) / float(pmf.masses[top]), pmf.tail_bound


def _table_sample(pmf: DiscretePMF, size: int, gen: np.random.Generator) -> np.ndarray:
    """``size`` rows of ``pmf.points`` drawn by the pmf's masses: every draw
    of the package, from a table truncated and certified by ``exact_pmf``."""
    idx = gen.choice(pmf.support_size(), size=size, p=pmf.masses / pmf.masses.sum())
    return pmf.points[idx]


def draw_ints(table: DiscretePMF, size: int, stream: SampleStream) -> np.ndarray:
    """``size`` i.i.d. labels drawn from an ``exact_pmf`` table, deterministic
    given the stream, as int64.  Build the table once to draw many columns at
    one width."""
    return _table_sample(table, int(size), stream.generator())[:, 0]


def sample_dg_coset(s: float, c: Sequence[float], size: int, stream: SampleStream) -> np.ndarray:
    """The integer parts w, int64 of shape (size, m), of ``size`` draws
    w + c from D_{Z^m + c, s}, deterministic given the stream.

    Z^m + c is a product of m cosets Z + c_i, drawn one coordinate at a time
    from one generator, with one ``exact_pmf`` table per distinct
    c_i - k_i, k_i = floor(c_i + 1/2): Z + c_i is that coset shifted by k_i,
    so a label y gives w = y - k_i, and c and c + 7 draw the same points.
    """
    gen = stream.generator()
    tables = {}
    cols = []
    for ci in c:
        k = math.floor(ci + 0.5)
        if (key := ci - k) not in tables:
            tables[key] = exact_pmf(s, key)
        cols.append(_table_sample(tables[key], size, gen)[:, 0] - k)
    return np.stack(cols, axis=1)


def push_to_lattice(B: IntMatrix, x: Sequence[int]) -> tuple[int, ...]:
    """Map integer coefficients x to the lattice point B x (injective on Z^n)."""
    if len(x) != B.n_cols:
        raise ValueError("dimension mismatch")
    if fraction_rank(B.rows) < B.n_cols:
        raise ValueError("B must have full column rank")
    return tuple(B @ [int(v) for v in x])
