"""Quality certificates for integer matrices and short orthogonal-lattice vectors.

A matrix X (n x m) has quality (q1, q2) when every column has l2 norm at most
q1 and there are pairwise orthogonal integer vectors u_1..u_n with
u_i . x_j = delta_ij and ||u_i|| <= q2 (x_j the rows of X).  From such a
certificate the short kernel vectors v_k = e_k - sum_i x_ik u_i bound the last
successive minimum of the orthogonal lattice by 1 + q1 q2.

One birthday search serves both uses of the source paper's collision tool: it
finds two random small combinations of given vectors whose sums differ by a
fixed offset.  With {0,1} combinations and offset 0 it yields the pigeonhole
relations; with {-1,0,1} combinations of column prefixes and offsets +-e_i it
yields the u_i, with an exact HNF-based solver as deterministic fallback.
Every candidate is verified exactly before being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from .gaussian import SampleStream
from .intmat import (
    IntMatrix,
    InvariantViolation,
    dot,
    independent_rows,
    is_surjective,
    norm_sq,
    solve_integer,
)
from .lattice import nearest_plane


class CollisionNotFound(RuntimeError):
    pass


class SurjectivityError(ValueError):
    pass


PIGEONHOLE_MAX_PROBES = 500_000  # probes before pigeonhole_collision gives up
DUAL_MAX_PROBES = 200_000  # probes per dual vector before a restart
DUAL_RESTARTS = 8  # fresh substreams tried by find_dual_vectors
LLL_RANK_CAP = 12  # largest kernel rank exact_dual_fallback shortens with LLL


@dataclass(frozen=True)
class CollisionSearchParams:
    """Column prefix of the collision search; ``t`` follows 3 n log2(sigma1 n)."""

    t: float
    prefix_budget: int

    @staticmethod
    def for_matrix(X: IntMatrix, sigma1: float | None = None) -> "CollisionSearchParams":
        n, m = X.shape
        if sigma1 is None:
            sigma1 = float(np.linalg.svd(X.to_numpy(), compute_uv=False)[0])
        t = 3.0 * n * math.log2(max(sigma1 * n, 2.0))
        return CollisionSearchParams(t=t, prefix_budget=min(m, int(10 * t)))


@dataclass(frozen=True)
class QualityCertificate:
    q1: float
    q2: float
    u: tuple[tuple[int, ...], ...]
    verified: bool
    failure: str | None = None
    search_stats: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "q1": self.q1,
            "q2": self.q2,
            "u": [list(v) for v in self.u],
            "verified": self.verified,
            "failure": self.failure,
            "search_stats": self.search_stats,
        }


@dataclass(frozen=True)
class ShortKernelBasis:
    v: tuple[tuple[int, ...], ...]
    independent_subset: tuple[int, ...]
    norm_bound: float


def _max_column_norm_sq(X: IntMatrix) -> int:
    return max(norm_sq(c) for c in X.columns())


def column_bound(X: IntMatrix) -> float:
    """Largest column l2 norm of X."""
    return math.sqrt(_max_column_norm_sq(X))


def _birthday(
    gen: np.random.Generator,
    low: int,
    cols: np.ndarray,
    offsets: Sequence,
    max_probes: int,
) -> tuple[int, np.ndarray] | None:
    """First birthday collision among random {low..1} combinations of ``cols``.

    Probe k draws a coefficient row a_k (rows of ``cols`` are the vectors) and
    hits when sum_k - offsets[t] is the sum of an earlier probe j, the first
    one with that sum; offsets are tried in order and a hit with a_k == a_j is
    skipped.  Returns (t, a_k - a_j), whose combination of ``cols`` is
    offsets[t], or None after ``max_probes`` probes.

    Coefficients come in batches of up to 4096 rows, probed in blocks of 64
    rows, then four times the last block, since most hits come early.  Only
    the rows up to the end of the current block are drawn: before each block
    the generator is set back to its state at the start of the batch and the
    first ``stop`` rows are drawn again.  numpy fills the array row by row, so
    these are the first ``stop`` rows of one full-batch draw, and the rows
    probed do not depend on where the search stops.  The last block redraws
    the whole batch, so after each completed batch the generator is where one
    full-batch draw leaves it.  On a hit it is left mid-batch; both callers
    pass a fresh generator and do not read it afterwards.
    """
    ell, d = cols.shape
    width = 8 * d  # bytes of one int64 sum row
    table: dict[bytes, bytes] = {}  # sum -> coefficient row, both as raw bytes
    bits = gen.bit_generator
    probes = 0
    while probes < max_probes:
        batch = min(4096, max_probes - probes)
        state = bits.state
        start, block = 0, 64
        while start < batch:
            stop = min(start + block, batch)
            bits.state = state
            coeffs = gen.integers(low, 2, size=(stop, ell), dtype=np.int8)[start:]
            rows = coeffs.tobytes()
            sums = coeffs.astype(np.int64) @ cols
            keys = sums.tobytes()
            wanted = [(sums - off).tobytes() for off in offsets]
            for k in range(stop - start):
                lo, hi = k * width, (k + 1) * width
                row = rows[k * ell:(k + 1) * ell]
                for t, w in enumerate(wanted):
                    prev = table.get(w[lo:hi])
                    if prev is not None and prev != row:
                        diff = np.frombuffer(row, np.int8).astype(np.int64) - np.frombuffer(prev, np.int8)
                        return t, diff
                table.setdefault(keys[lo:hi], row)
            start, block = stop, 4 * block
        probes += batch
    return None


def pigeonhole_collision(
    xs: Sequence[Sequence[int]],
    B: int,
    stream: SampleStream,
) -> tuple[int, ...]:
    """Nonzero alpha in {-1,0,1}^l with sum_j alpha_j x_j = 0.

    Found as the difference of two colliding 0/1 subset sums (the birthday
    search with offset 0); the relation is verified exactly before returning.
    For ||x_j||_inf <= B and l = floor(2 n log2(B n)) a collision is
    guaranteed to exist.
    """
    xs_int = [tuple(int(v) for v in x) for x in xs]
    if any(abs(v) > B for x in xs_int for v in x):
        raise ValueError("infinity norm bound violated")
    hit = _birthday(
        stream.generator(), 0, np.array(xs_int, dtype=np.int64), [0], PIGEONHOLE_MAX_PROBES
    )
    if hit is None:
        raise CollisionNotFound(f"no 0/1 collision within {PIGEONHOLE_MAX_PROBES} probes")
    alpha = tuple(int(a) for a in hit[1])
    if any(sum(a * x[k] for a, x in zip(alpha, xs_int)) for k in range(len(xs_int[0]))):
        raise InvariantViolation("collision difference is not a relation")
    return alpha


def _collision_dual_vector(
    rows: list[tuple[int, ...]],
    target_index: int,
    prefix: int,
    stream: SampleStream,
) -> tuple[int, ...] | None:
    """e_{target_index} as a {-2..2} combination of the first ``prefix`` columns.

    The birthday search over {-1,0,1} combinations of the prefix columns with
    offsets +e and -e: two combinations whose sums differ by the unit vector
    give the coefficient vector as their (signed) difference.
    """
    m = len(rows[0])
    prefix = min(prefix, m)
    cols = np.array(rows, dtype=np.int64)[:, :prefix].T
    e = np.zeros(len(rows), dtype=np.int64)
    e[target_index] = 1
    max_probes = DUAL_MAX_PROBES
    if prefix < 16:
        # candidate space is tiny; no point probing past exhaustion-scale
        max_probes = min(max_probes, 4 * 3 ** prefix)
    hit = _birthday(stream.generator(), -1, cols, [e, -e], max_probes)
    if hit is None:
        return None
    t, diff = hit
    u = diff if t == 0 else -diff
    return tuple(int(v) for v in u) + (0,) * (m - prefix)


def _augmented_rows(X: IntMatrix, us: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    return list(X.rows) + list(us)


def find_dual_vectors(X: IntMatrix, stream: SampleStream | None = None) -> list[tuple[int, ...]]:
    """Pairwise orthogonal u_i with u_i . x_j = delta_ij, by collision search.

    The i-th vector is found against X augmented with the rows u_1..u_{i-1}
    and target e_i (so orthogonality to earlier u's comes for free); entries
    live in {-2..2} on the searched prefix.  Raises SurjectivityError, before
    any probe, when X does not map Z^m onto Z^n (rank-deficient X included),
    and CollisionNotFound when a budget is exhausted; callers may fall back
    to exact_dual_fallback.
    """
    if stream is None:
        stream = SampleStream(seed=0)
    n, m = X.shape
    # every certificate needs X Z^m = Z^n; no probe can succeed without it
    if not is_surjective(X):
        raise SurjectivityError("X does not map Z^m onto Z^n")
    prefix = CollisionSearchParams.for_matrix(X).prefix_budget
    # an unlucky early u_i can make a later augmented search infeasible, so
    # restart the whole sequence with a fresh substream a few times
    for attempt in range(DUAL_RESTARTS):
        us: list[tuple[int, ...]] = []
        ok = True
        for i in range(n):
            rows = _augmented_rows(X, us)
            u = _collision_dual_vector(rows, i, prefix, stream.substream(attempt * 64 + i))
            if u is None:
                ok = False
                break
            got = [dot(u, r) for r in rows]
            if got != [1 if j == i else 0 for j in range(len(rows))]:
                raise InvariantViolation(f"collision dual vector u_{i + 1} fails its pairings")
            us.append(u)
        if ok:
            return us
    raise CollisionNotFound(f"no collision within {DUAL_RESTARTS} restarts")


def exact_dual_fallback(X: IntMatrix) -> list[tuple[int, ...]]:
    """Deterministic u_i via exact integer solves on augmented systems.

    Solves [X; u_1; ..; u_{i-1}] u = e_i over the integers (HNF), then
    shortens u modulo the kernel lattice with nearest-plane on the system's
    ``reduced_kernel`` when the kernel rank is small enough.  Each augmented
    system is decomposed and reduced once, for both the solution and the
    kernel; for u_1 the system is X itself, so its reduced kernel is the one
    the kernel report and the fiber workspace read.  No a-priori norm bound;
    the achieved q2 is whatever comes out.
    """
    n, m = X.shape
    if not is_surjective(X):  # also false for a rank-deficient X
        raise SurjectivityError("X does not map Z^m onto Z^n")
    us: list[tuple[int, ...]] = []
    for i in range(n):
        # X itself for u_1, so its decomposition is the one already checked
        M = IntMatrix.from_rows(_augmented_rows(X, us)) if us else X
        rows = M.rows
        target = [1 if j == i else 0 for j in range(len(rows))]
        u = solve_integer(M, target)
        if u is None:
            raise CollisionNotFound(f"augmented system for u_{i + 1} has no integer solution")
        if 0 < len(M.hermite.kernel) <= LLL_RANK_CAP:
            near = nearest_plane(M.reduced_kernel, u)
            u = tuple(a - b for a, b in zip(u, near))
        got = [dot(u, r) for r in rows]
        if got != target:
            raise InvariantViolation(f"fallback dual vector u_{i + 1} fails its pairings")
        us.append(u)
    return us


def certify_quality(X: IntMatrix, u: Sequence[Sequence[int]]) -> QualityCertificate:
    """Exact verification of all certificate constraints; achieved (q1, q2)."""
    n, m = X.shape
    uu = tuple(tuple(int(v) for v in vec) for vec in u)
    q1 = column_bound(X)
    q2 = math.sqrt(max(norm_sq(vec) for vec in uu)) if uu else 0.0

    def fail(reason: str) -> QualityCertificate:
        return QualityCertificate(q1=q1, q2=q2, u=uu, verified=False, failure=reason)

    if len(uu) != n or any(len(vec) != m for vec in uu):
        return fail("shape")
    for i, ui in enumerate(uu):
        for j in range(n):
            if dot(ui, X.rows[j]) != (1 if i == j else 0):
                return fail(f"duality({i + 1},{j + 1})")
    for i in range(n):
        for j in range(i + 1, n):
            if dot(uu[i], uu[j]) != 0:
                return fail(f"orthogonality({i + 1},{j + 1})")
    # a verified certificate implies surjectivity, and so full row rank
    if not is_surjective(X):
        raise InvariantViolation("verified certificate but X is not surjective")
    return QualityCertificate(q1=q1, q2=q2, u=uu, verified=True)


def kernel_norm_bound_sq_ceil(X: IntMatrix, u: Sequence[Sequence[int]]) -> int:
    """ceil((1 + q1 q2)^2) with exact integer arithmetic."""
    a = _max_column_norm_sq(X) * max(norm_sq(vec) for vec in u)
    c = math.isqrt(4 * a)
    two_sqrt_a_ceil = c if c * c == 4 * a else c + 1
    return 1 + a + two_sqrt_a_ceil


def short_kernel_vectors(X: IntMatrix, cert: QualityCertificate) -> ShortKernelBasis:
    """Short kernel vectors v_k = e_k - sum_i x_ik u_i from a certificate.

    Each v_k satisfies X v_k = 0 exactly and ||v_k|| <= 1 + q1 q2.  The
    independent subset is the first m - n indices of the greedy basis of
    v_1..v_m by index, from one incremental elimination
    (``intmat.independent_rows``) that stops once it has m - n of them.
    """
    if not cert.verified:
        raise ValueError("certificate not verified")
    n, m = X.shape
    bound_sq = kernel_norm_bound_sq_ceil(X, cert.u)
    vs = []
    for k in range(m):
        v = [1 if j == k else 0 for j in range(m)]
        for i in range(n):
            xik = X.rows[i][k]
            if xik:
                v = [a - xik * b for a, b in zip(v, cert.u[i])]
        if any(X @ v):
            raise InvariantViolation(f"short vector v_{k + 1} not in the kernel")
        if norm_sq(v) > bound_sq:
            raise InvariantViolation(f"short vector v_{k + 1} exceeds (1 + q1 q2)^2")
        vs.append(tuple(v))
    subset = tuple(islice(independent_rows(vs), m - n))
    if len(subset) != m - n:
        raise InvariantViolation(f"short vectors span rank {len(subset)} < m - n = {m - n}")
    return ShortKernelBasis(
        v=tuple(vs),
        independent_subset=subset,
        norm_bound=1.0 + cert.q1 * cert.q2,
    )


def distance_threshold(q1: float, q2: float, m: int, n: int, eps: float) -> float:
    """Least-singular-value threshold guaranteeing statistical distance 2 eps."""
    if not (m > n >= 1):
        raise ValueError("need m > n >= 1")
    if not 0 < eps < 1 / 3:
        raise ValueError("eps must be in (0, 1/3)")
    return (1.0 + q1 * q2) * math.sqrt(math.log(2 * (m - n) * (1 + 1 / eps)) / math.pi)


def parameter_check(n: int, m: int, eps: float, S, R) -> dict:
    """Evaluate the three threshold-parameter inequalities numerically.

    Also reports the applicability gate (n >= 100, eps < 1/1000) under which
    the probabilistic guarantee is stated; at desk scale the inequalities are
    reported as formula evaluations only.
    """
    s1 = S.sigma_max(n)
    sn = S.sigma_min(n)
    sm = R.sigma_min(m)
    m_rhs = 30.0 * n * math.log2(max(s1 * n, 2.0))
    r_rhs = (
        10.0 * n * s1 * math.log2(max(m, 2))
        * math.sqrt(max(math.log2(1 / eps), 0.0) * math.log2(max(n * s1, 2.0)))
    )
    s_rhs = 9.0 * math.sqrt(math.log(2 * n * (1 + 1 / eps)) / math.pi)
    return {
        "m_condition": {"lhs": m, "rhs": m_rhs, "holds": m >= m_rhs},
        "r_condition": {"lhs": sm, "rhs": r_rhs, "holds": sm >= r_rhs},
        "s_condition": {"lhs": sn, "rhs": s_rhs, "holds": sn >= s_rhs},
        "applicability_gate": {"n": n, "eps": eps, "holds": n >= 100 and eps < 1e-3},
    }
