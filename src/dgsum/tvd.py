"""Statistical distance between X-image distributions and discrete Gaussians.

The image distribution pushes v ~ D_{Z^m + c, r} through v -> X v; its mass
at an output point z + X c is the weight of the fiber {v : X v = z + X c}.
Its target is D_{Z^n + X c, r X^T}.  The image pmf is the target pmf times
a factor that is constant on each of the d = det G classes of Z^n / G Z^n,
G = X X^T (the fibers over z and z + G w differ by X^T w, orthogonal to
ker X), so the TVD is that of the two class pmfs.  ``class_tvd(X, r, c)``
forms both in Fourier space, with no workspace and neither ker X nor its
dual.  With U G V = diag(D) (``intmat.smith``), z -> U z mod D maps the
classes onto the product of the Z / D_i (``ClassGroup``), whose characters
are chi_t(g) = e^{2 pi i sum_i t_i g_i / D_i}.  One Smith form per call
(``class_group``) yields everything the later stages read of G: adj(G),
adj(G) X, the column classes a_j and V^T, each formed once, exactly.

- Image.  With v = w + c, w in Z^m, the class of X w is sum_j w_j a_j,
  a_j = U x_j mod D, a sum of m independent 1-D discrete Gaussians.  So
  P^(t) = prod_j theta_j(<t, a_j>_D), theta_j(a) = sum_w rho_r(w + c_j)
  e^{2 pi i w a} / sum_w rho_r(w + c_j), each tabulated once on the int64
  residues mod L = D_n of the phases <t, a_j>_D, its terms and tail from
  ``gaussian``'s one truncation rule (``_theta_table``,
  ``_image_transform``).  The column classes a_j come from the one Smith
  form (``ClassGroup.cols``), and the 1-D terms, for r <= 1 here and always
  for the per-label pmfs, from the package's one Gaussian, the table of
  D_{Z + c_j, r} that the sampler draws from (``gaussian.exact_pmf``,
  through ``_terms_1d``).
- Target.  Poisson summation (Micciancio-Regev 2007, Lemma 2.8) turns
  Q^(t) = sum_z rho(z + X c) chi_t(U z) / sum_z rho(z + X c) into a sum over
  the dual lattice G^-1 Z^n (Gram matrix r^2 adj(G) / d), whose point
  G^-1 w has the phase e^{2 pi i w^T adj(G) X c / d} and falls on the
  character t = -V^T w mod D (G^-1 = U^T D^-1 V^T).  With W(k) the sum of
  the terms with V^T w = k mod D, Q^(t) = W(-t) / W(0) = conj(W(t)) / W(0)
  (``_dual_target``).  Or Q is binned from the target's primal label region
  (``_target_region``) and transformed (``_primal_target``).
- Side rule.  Before any enumeration, the Gaussian heuristic counts both
  sides (``_target_counts``): about V_n R^n sqrt(d) / r^n points in the dual
  sum and V_n R^n sqrt(d) r^n in the primal region, a ratio of r^{2n}.  The
  smaller one is enumerated: the dual sum from r = 1 up, so at every
  threshold, and the primal region below, where the dual sum grows like
  r^-n and its W(0) cancels to its rounding far below smoothing.
- TVD = 1/2 sum_g |P(g) - Q(g)|, P - Q the inverse FFT of P^ - Q^:
  differencing in Fourier space keeps the relative precision of a small
  TVD.

Each stage is a fixed handful of array operations, not one batch per term,
level or column: one broadcast over the terms and entries of a theta table,
one integer product for the residues of all columns with one gather per
distinct c_j, one ``fincke_pohst`` pass whose levels repeat their parents'
rows by count, and one pass each for the phases, the error terms and the
bins of the dual sum, whose points w stand for the pairs +-w.

Both entry points, ``class_tvd(X, r, c)`` and ``FiberWorkspace(X, r, c)``,
take one frame: c reduced mod Z^m once, where the instance is built
(``_reduced_shift``), one class group (``class_group``), one target region
(``_target_region``) and one image side (``ClassGroup.cols``,
``_terms_1d``).  The per-label pmfs
(``target_pmf`` for MC, ``exact_output_pmf`` for tests) read a workspace
alone and run over the labels that ``gaussian.truncate_coset`` keeps of the
target coset Z^n + X c under its Gram matrix Gamma = (r^2 X X^T)^-1 =
adj(X X^T) / (r^2 det X X^T), an integer matrix times one scalar: with
L + x the coset's image under any basis of Gram matrix Gamma, x its
shortest point, the ball of radius R,
2 beta(n, R) e^{pi ||x||^2} <= DUAL_TAIL, beta =
``gaussian.banaszczyk_bound``, drops at most that share of the target weight,
as rho(L + x) >= e^{-pi ||x||^2} rho(L) (pair y with -y) and
rho((L + x) minus R B) < 2 beta rho(L) (Banaszczyk's coset lemma).  The
region's weights read the differences of norms that grow like 1 / r^2, so
they are formed in twice the working precision and their rounding is
bounded (``FiberWorkspace.target_rounding``) and charged by every use.  The
per-label image pmf and the fiber weights are the target's times the class
factor P_k / Q_k, with the region's target mass in class k for Q_k (one
per-class array, ``FiberWorkspace.classes``) and the image's class pmf P
convolved directly on the grid from the same 1-D terms (``_image_pmf``): a
sum of nonnegative terms keeps the relative precision of a small P_k, which
an inverse FFT of P^ does not.

Also hosts numeric evaluators for the tail, ratio and shift bounds used by
the threshold analysis.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .gaussian import (
    ENUM_BUDGET,
    DiscretePMF,
    EnumerationBudgetExceeded,
    SampleStream,
    banaszczyk_radius,
    coset_mass,
    coset_radius,
    exact_pmf,
    poisson_sum,
    truncate_coset,
)
from .intmat import IntMatrix, InvariantViolation, require_surjective, smith, smith_adjugate
from .lattice import require_full_row_rank, smoothing_bound

ULP = 2.0 ** -53  # unit roundoff u of float64
MC_CONFIDENCE = 0.99  # level of the MC confidence interval


@dataclass(frozen=True)
class ExactTVDReport:
    tvd: float
    truncation_error: float
    support_size: int
    radius: float

    def to_json_dict(self) -> dict:
        return asdict(self)


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


def _reduced_shift(X: IntMatrix, c: Sequence[float]) -> np.ndarray:
    """c - round(c): every pmf of X D_{Z^m + c, r} depends on c only mod Z^m.
    RankError unless X (n x m) has full row rank, SurjectivityError unless X
    maps Z^m onto Z^n (every label has a fiber), ValueError unless c has m
    entries."""
    require_full_row_rank(X)
    require_surjective(X)
    c = np.asarray(list(c), dtype=float)
    if c.shape != (X.n_cols,):
        raise ValueError("shift dimension mismatch")
    return c - c.round()


def _exact_shift(X: IntMatrix, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with X c = hi + lo exactly, hi rounded to nearest: the shift
    of the target coset Z^n + X c, formed in rationals (n x m products)."""
    fracs = [Fraction(x) for x in c.tolist()]
    exact = [sum(map(operator.mul, row, fracs)) for row in X.rows]
    hi = [float(x) for x in exact]
    return np.array(hi), np.array([float(x - Fraction(h)) for x, h in zip(exact, hi)])


def _two_sum(a, b):
    """(s, e): s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _split(a):
    """(h, a - h), h the leading 26 bits of a (Veltkamp's split)."""
    t = 134217729.0 * a  # 2^27 + 1
    h = t - (t - a)
    return h, a - h


def _two_product(a, b):
    """(p, e): p = fl(a b) and p + e = a b exactly (Dekker's TwoProduct)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _target_region(X: IntMatrix, r: float, c: np.ndarray, grp: ClassGroup) -> tuple[np.ndarray, tuple, float]:
    """(Gamma, (labels, weights, tail), rounding): the Gram matrix
    Gamma = (r^2 G)^-1 = adj(G) / (r^2 d) of the target coset Z^n + X c,
    G = X X^T, d = det G, weighing the label z by e^{-pi v^T Gamma v},
    v = z + X c; the labels that ``gaussian.truncate_coset`` keeps of the
    coset under it, their weights over the heaviest and the truncation's
    tail; and a bound on each weight's relative error.  The one target
    region of both TVD entry points, from ``class_group``'s exact adj(G).

    The norms grow like 1 / r^2 while the weights read their differences, so
    a float norm's rounding, about u pi |v|^T |Gamma| |v| of each weight
    (u = 2^-53), would grow without bound far below smoothing.  The weights
    are instead e^{-pi (N_t - N_min)}, N_t = (h_t - h_ref) / (r^2 d) with
    h_t - h_ref = (t - t_ref)^T adj(G) (t + t_ref + 2 f + 2 lo) at the label
    t_ref that ``truncate_coset`` weighs heaviest, where v = t + f + lo,
    t integer, f = hi - round(hi) and X c = hi + lo exactly
    (``_exact_shift``).  The integer part is exact in floats below 2^53, and
    the products with f are summed with their rounding errors kept (Dot2,
    Ogita-Rump-Oishi 2005), within u |h_t - h_ref| + g^2 B_t + g (2 |J_t|^T
    |lo| + B_t [B_t >= 2^53]), g = (n + 3) u, J_t = adj(G) (t - t_ref) and
    B_t = |t - t_ref|^T |adj(G)| (|t + t_ref| + 1) >= the sum of the terms'
    magnitudes.  With e_t that error, the weight of t is within
    eps_t = pi ((e_t + e_min) / (r^2 d) + 4 u N_t) + 4 u of itself, relative
    (the scale r^2 d, the division, the shift by N_min and exp), and
    ``rounding`` is the largest eps_t: any ratio of the weights' sums, as a
    normalized mass, is then within 2 rounding / (1 - rounding) of itself.
    """
    hi, lo = _exact_shift(X, c)
    scale = r * r * math.prod(grp.dims)
    gamma = grp.adj / scale
    T, w, tail = truncate_coset(gamma, hi)
    z0 = np.round(hi)
    Tz = T + z0  # t, with v = t + f + lo
    ref = Tz[int(np.argmax(w))]
    Dt = Tz - ref
    J = Dt @ grp.adj  # adj(G) (t - t_ref) per row; adj(G) is symmetric
    h, e = (J * (Tz + ref)).sum(axis=1), 2 * (J @ lo)
    for Ji, fi in zip(2 * J.T, (hi - z0).tolist()):
        p, pe = _two_product(Ji, fi)
        h, he = _two_sum(h, p)
        e = e + (pe + he)
    diff = h + e
    g = (len(grp.adj) + 3) * ULP
    B = ((np.abs(Dt) @ np.abs(grp.adj)) * (np.abs(Tz + ref) + 1)).sum(axis=1)
    err = ULP * np.abs(diff) + g * g * B + g * (2 * (np.abs(J) @ np.abs(lo)) + np.where(B >= 2.0 ** 53, B, 0.0))
    N = diff / scale
    low = int(np.argmin(N))
    N -= N[low]
    eps = math.pi * ((err + err[low]) / scale + 4 * ULP * N) + 4 * ULP
    return gamma, (T, np.exp(-math.pi * N), tail), float(eps.max())


class FiberWorkspace:
    """Per-(X, r, c) label region and class pmfs for the per-label pmfs of
    X D_{Z^m + c, r} and its target D_{Z^n + X c, r X^T}, with c reduced mod
    Z^m once, here (``_reduced_shift``).  The target side (``target_region``,
    ``target_weight``; MC's ``target_pmf``) and the image side (``classes``,
    ``fiber_weight``, ``exact_output_pmf``) share one frame: one class group
    and its Smith form, and the region is ``_target_region``'s, as in
    ``class_tvd``; the image pmf over the target pmf is a function of the
    class.  ``Xc`` is X c, rounded to nearest, the shift of the target coset
    Z^n + X c.  Everything past the checks and ``Xc`` is computed on first
    use."""

    def __init__(self, X: IntMatrix, r: float, c: Sequence[float]):
        self.c = _reduced_shift(X, c)
        self.X, self.r = X, r
        self.Xc = _exact_shift(X, self.c)[0]

    @cached_property
    def _group(self) -> ClassGroup:
        return class_group(self.X)

    @cached_property
    def _target_frame(self) -> tuple[np.ndarray, tuple, float]:
        return _target_region(self.X, self.r, self.c, self._group)

    @property
    def target_region(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(labels z, weights, tail): ``_target_region``'s truncation of the
        target coset Z^n + X c."""
        return self._target_frame[1]

    @property
    def target_rounding(self) -> float:
        """The bound on each ``target_region`` weight's relative error
        (``_target_region``)."""
        return self._target_frame[2]

    @cached_property
    def classes(self) -> tuple[ClassGroup, np.ndarray, np.ndarray, np.ndarray, float, float]:
        """(group, index, Wk, P, e, rho): the class group of X, the class of
        each ``target_region`` label (``ClassGroup.index``), the target
        weight of the region's labels in each class, the image's class pmf
        P on the flat grid with its l1 error e, and rho = rho_r(Z^m + c)
        (``_image_pmf``)."""
        grp = self._group
        T, w, _ = self.target_region
        index = grp.index(T)
        return (grp, index, np.bincount(index, w, math.prod(grp.dims)), *_image_pmf(self.r, self.c, grp))

    def fiber_weight(self, z: Sequence[int]) -> float:
        """Gaussian weight of the fiber over z:
        target_weight(z) rho_r(Z^m + c) P_k / rho_t^reg(k), k the class of z
        and rho_t^reg(k) the target weight of the region's labels in it
        (``classes``).  ValueError when the region holds no label of z's
        class."""
        grp, _, Wk, P, _, rho = self.classes
        T, w, _ = self.target_region
        k = int(grp.index(np.asarray([z]))[0])
        if not Wk[k] > 0:
            raise ValueError(f"the label region holds no label of the class of {[int(v) for v in z]}")
        # the region's weights are over the heaviest label's: one exponent
        # difference, as both weights underflow far below smoothing
        ratio = math.exp(-math.pi * (self._target_norm(z) - self._target_norm(T[int(np.argmax(w))])))
        return float(ratio * rho * P[k] / Wk[k])

    def region(self) -> np.ndarray:
        """The labels of ``target_region``."""
        return self.target_region[0]

    def _target_norm(self, z: Sequence[int]) -> float:
        """v^T Gamma v, v = z + X c, under ``_target_region``'s Gamma."""
        v = np.asarray(z, dtype=float) + self.Xc
        return float(v @ self._target_frame[0] @ v)

    def target_weight(self, z: Sequence[int]) -> float:
        """e^{-pi v^T Gamma v}, v = z + X c, the target weight of the label z
        under ``_target_region``'s Gamma."""
        return math.exp(-math.pi * self._target_norm(z))


def _terms_1d(r: float, c: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(y, a, tail): the labels y of ``gaussian.exact_pmf(r, c)``, the table
    of D_{Z + c, r}, |c| <= 1/2, with its tail, and their exponents
    a = pi y (y + 2c) / r^2 = pi ((y + c)^2 - c^2) / r^2: the weights
    rho_r(y + c) scaled by e^{pi c^2 / r^2}, so that the largest, at y = 0,
    is 1.  The one 1-D table of the image side (``_theta_table`` for r <= 1,
    ``_image_pmf``)."""
    pmf = exact_pmf(r, c)
    y = pmf.points[:, 0]
    return y, math.pi * y * (y + 2 * c) / (r * r), pmf.tail_bound


def _theta_table(r: float, c: float, L: int) -> tuple[np.ndarray, float]:
    """(theta, e): theta[k] = S(k / L) / S(0), k < L, the transform of the
    integer part w of a draw from D_{Z + c, r}, |c| <= 1/2, with
    S(a) = sum_w rho_r(w + c) e^{2 pi i w a}; e bounds every entry's error.

    Both forms truncate by ``gaussian``'s one rule, and either way the
    dropped part of any S(a) is at most t = tail K / (1 - tail), K the kept
    weight at a = 0.  For r <= 1 the sum runs over the terms of
    ``_terms_1d``, the sampler's table for D_{Z + c, r} with its tail; K is
    S(0).  Above, it runs over its Poisson dual
    S(a) = r sum_y e^{-pi r^2 (y - a)^2} e^{2 pi i c (y - a)}, kept where
    |y - a| < R + 1 / L, (R, tail) = ``coset_radius(1, 0)`` in units of
    y - a: by Banaszczyk's coset lemma the rest weigh at most
    tail r rho(r Z), and the kept terms at a = 0 with |y| <= R, K, at least
    (1 - tail / 2) r rho(r Z), as in ``PoissonSum.tail``.  Each form is one broadcast over the terms and the
    L entries, summed term by term.  A term with exponent a and angle phi is
    off by (6 a + 4 |phi| + 10) u of its weight at most, u = 2^-53, and T
    terms add T u of their weights (``bound``); as |S(a)| <= S(0),
    e = 2 (t + max bound) / |S'(0)| + u.
    """
    k = np.arange(L, dtype=np.int64)
    if r <= 1:  # the term of w = y at every a = k / L
        y, a, tail = _terms_1d(r, c)
        y, a = y[:, None], a[:, None]
        angle = 2 * math.pi * ((y * k) % L) / L
        g = np.exp(-a)
        S = (g * np.exp(1j * angle)).sum(axis=0)
        K = S[0].real
    else:  # the term of y at the a = k / L with |y - a| < R + 1 / L
        R, tail = coset_radius(1, 0.0)
        R /= r  # in units of y - a; every y with |y - a| <= R for some a in [0, 1)
        y = np.arange(-math.floor(R), math.floor(R) + 2)[:, None]
        x = (y * L - k) / L
        a = (math.pi * r * r) * (x * x)
        angle = 2 * math.pi * c * x if c else 0.0
        g = (r * np.exp(-a)) * (np.abs(x) < R + 1.0 / L)
        S = (g * np.exp(1j * angle)).sum(axis=0) if c else g.sum(axis=0)
        K = float(g[:-1, 0].sum())  # the y up to floor(R), all kept at k = 0
    bound = ((6 * a + 4 * np.abs(angle) + (10 + len(y))) * g).sum(axis=0)
    err = 2 * (tail * K / (1 - tail) + ULP * float(bound.max())) / abs(S[0]) + ULP
    theta = S / S[0]
    theta[0] = 1.0
    return theta, err


def _masses_ok(F: np.ndarray, err, dims: tuple[int, ...], eta: float) -> bool:
    """True when every mass of the class pmf whose conjugate transform is F
    on the half grid (F[0] = 1), each entry within ``err``, is at least minus
    its error bound.  A pmf f has f(g) >= (1 - sum_{t != 0} |f^(t)|) / d, so
    an l1 norm below 1 needs no transform; otherwise each transformed mass
    is within max err plus the FFT's l2 error eta ||f||_2."""
    err = np.asarray(err)
    l1 = 2 * (float(np.abs(F).sum()) - abs(F.flat[0]) + float(err.sum()) * F.size / err.size)
    if l1 < 1:
        return True
    f = np.fft.irfftn(F, s=dims, axes=tuple(range(len(dims))))
    return float(f.min()) >= -(float(err.max()) + eta * math.sqrt(float(np.vdot(f, f))))


class ClassGroup(NamedTuple):
    """The class group Z^n / G Z^n of G = X X^T through one Smith form
    U G V = diag(D) (``class_group``), and everything that the later stages
    read of it.  z -> U z mod D maps the classes onto the product of the
    Z / D_i, of which the factors D_i > 1 are kept (the last one when
    d = 1), the grid ``dims`` of d cells; ``Uk`` and ``Vk`` hold the kept
    rows of U and of V^T, each reduced mod its D_i.  ``adj`` is adj(G) =
    V diag(d / D) U and ``adjX`` is adj(G) X, and ``cols`` holds the class
    a_j = U x_j mod D of each column x_j of X, one int64 row per column: all
    formed exactly in integers, the first two stored as floats."""

    dims: tuple[int, ...]
    Uk: np.ndarray
    Vk: np.ndarray
    adj: np.ndarray
    adjX: np.ndarray
    cols: np.ndarray

    def index(self, T: np.ndarray) -> np.ndarray:
        """The class U z mod D of each label row z of T, as a flat index into
        the C-ordered grid ``dims``."""
        return np.ravel_multi_index(tuple((np.asarray(T, dtype=np.int64) @ self.Uk.T % self.dims).T), self.dims)


def class_group(X: IntMatrix) -> ClassGroup:
    """The ``ClassGroup`` of X, from one ``intmat.smith(X X^T)``, which checks
    prod D = d = det G; EnumerationBudgetExceeded when d exceeds ENUM_BUDGET."""
    n = X.n_rows
    G = X @ X.T
    U, V, D = smith(G)
    d = math.prod(D)
    if d > ENUM_BUDGET:
        raise EnumerationBudgetExceeded(f"{d} coset classes exceed budget {ENUM_BUDGET}")
    keep = [i for i in range(n) if D[i] > 1] or [n - 1]
    adj = smith_adjugate(U, V, D)
    UX = (U @ X).rows
    return ClassGroup(
        tuple(D[i] for i in keep),
        np.array([[u % D[i] for u in U.rows[i]] for i in keep], dtype=np.int64),
        np.array([[v % D[i] for v in V.cols[i]] for i in keep], dtype=np.int64),
        np.array(adj.rows, dtype=float),
        np.array((adj @ X).rows, dtype=float),
        np.array([[UX[i][j] % D[i] for i in keep] for j in range(X.n_cols)], dtype=np.int64),
    )


def _image_transform(r: float, c: np.ndarray, grp: ClassGroup) -> tuple[np.ndarray, float]:
    """(Ph, E_P): the image's conjugate class transform for ``class_tvd``.

    Ph = conj(P^) on the half t_n <= L / 2 of the grid, L = D_n:
    P^(t) = prod_j theta_j(<t, a_j> / L), a_j = U x_j mod D scaled to L
    (``ClassGroup.cols``).  The residues <t, a_j> mod L of every column at
    every t are one integer product; each distinct c_j has one theta table
    (``_theta_table``), gathered once at the residues of its columns.  Each
    entry is within E_P = prod_j (1 + e_j) (1 + 3u) - 1 of its exact value,
    e_j the error of column j's table, its truncation included.
    """
    dims = grp.dims
    L = dims[-1]
    half = dims[:-1] + (L // 2 + 1,)
    t = np.indices(half).reshape(len(half), -1)  # one column per character t, C order
    res = grp.cols * (L // np.array(dims)) @ t % L
    Ph = np.ones(t.shape[1])
    log_err = 0.0
    for cj in sorted(set(c.tolist())):  # one table per distinct shift
        theta, e = _theta_table(r, cj, L)
        on = c == cj
        Ph = Ph * theta[res[on]].prod(axis=0)
        log_err += int(on.sum()) * (math.log1p(e) + math.log1p(3 * ULP))
    return np.conjugate(Ph).reshape(half), math.expm1(log_err)


def _image_pmf(r: float, c: np.ndarray, grp: ClassGroup) -> tuple[np.ndarray, float, float]:
    """(P, e, rho): the image's class pmf on the flat grid, its l1 error,
    and rho_r(Z^m + c), the product of the m 1-D sums.

    P is the pmf of sum_j w_j a_j, a_j = U x_j mod D
    (``ClassGroup.cols``), w_j the integer part of a draw from
    D_{Z + c_j, r}: m cyclic convolutions with the n_j terms of
    ``_terms_1d``, the sampler's table, each within 2 tail_j of
    D_{Z + c_j, r} in l1.  Sums of nonnegative terms keep a small mass's
    relative precision.  A term with exponent a is off by (6 a + 10) u of
    its weight at most, as in ``_theta_table``; the normalization and the
    convolution add (n_j + 1) u each.
    """
    dims = grp.dims
    axes = tuple(range(len(dims)))
    A = grp.cols
    P = np.zeros(dims)
    P.flat[0] = 1.0
    e, log_rho, tables = 0.0, 0.0, {}
    for j, cj in enumerate(c.tolist()):
        if cj not in tables:
            y, a, tail = _terms_1d(r, cj)
            g = np.exp(-a)
            total = float(np.sum(np.sort(g)))
            err = 2 * tail + ULP * (float(g @ (6 * a + 10)) / total + 2 * len(y) + 2)
            tables[cj] = (y.tolist(), (g / total).tolist(), err, math.log(total) - math.pi * cj * cj / (r * r))
        ys, masses, err, log_sum = tables[cj]
        out = np.zeros(dims)
        for yi, mi in zip(ys, masses):
            out += mi * np.roll(P, tuple(yi * A[j] % dims), axes)
        P = out
        e += err
        log_rho += log_sum
    return P.ravel(), e, math.exp(log_rho)


def _target_counts(n: int, d: int, r: float) -> tuple[float, float]:
    """(dual, primal): the logs of the Gaussian heuristic's point counts of
    the target's two sides, V_n R^n sqrt(d) / r^n for the dual sum (Gram
    matrix r^2 adj(G) / d, determinant r^{2n} / d) and V_n R^n sqrt(d) r^n
    for the primal region (adj(G) / (r^2 d), determinant 1 / (r^{2n} d)),
    V_n the volume of the unit n-ball, both at R = ``banaszczyk_radius(n)``:
    the region's own radius is at least that, so its count is a floor.
    Their ratio is r^{2n}, so the dual side is the smaller from r = 1 up."""
    ball = (0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1)
            + n * math.log(banaszczyk_radius(n)) + 0.5 * math.log(d))
    return ball - n * math.log(r), ball + n * math.log(r)


def _dual_target(r: float, c: np.ndarray, grp: ClassGroup, half: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(conj Q^', e_Q) on the half grid ``half`` from the target's dual sum
    (``class_tvd``).  Each point w of the sum stands for the pair +-w: its
    phase w^T adj(G) X c / d and its error term are formed once, -w gets the
    conjugate term, and both are binned by V^T w mod D on the full grid in
    one pass each for the real parts, the imaginary parts and the error
    terms, of which the half grid is read.  ValueError where W'(0) does not
    exceed e_W(0), which the side rule leaves to the primal region."""
    dims = grp.dims
    d = math.prod(dims)
    n, m = grp.adjX.shape
    gram = grp.adj * (r * r / d)
    target = poisson_sum(gram)
    pts, wts = target.points, target.weights
    mods = np.array(dims)
    steps = np.array([math.prod(dims[i + 1:]) for i in range(len(dims))])
    res = pts @ grp.Vk.T % mods
    idx = np.concatenate([res @ steps, -res % mods @ steps])
    z = wts * np.exp((2j * math.pi / d) * (pts @ (grp.adjX @ c)))
    # eps_w + N + 1 = |w|^T ((n + 2) pi |gram| |w| + (n + m + 2) 2 pi |adj(G) X| |c| / d) + 2 len(pts) + 8
    apts = np.abs(pts)
    lin = (2 * math.pi * (n + m + 2) / d) * (np.abs(grp.adjX) @ np.abs(c))
    err = (((apts @ ((math.pi * (n + 2)) * np.abs(gram)) + lin) * apts).sum(axis=1) + (2 * len(pts) + 8)) * wts
    z = np.concatenate([z, z.conj()])
    W = (np.bincount(idx, z.real, d) + 1j * np.bincount(idx, z.imag, d)).reshape(dims)[..., :half[-1]]
    e_W = (target.tail + ULP * np.bincount(idx, np.concatenate([err, err]), d)).reshape(dims)[..., :half[-1]]
    W0 = 1.0 + W.flat[0].real
    if not W0 > e_W.flat[0]:
        raise ValueError("the target's dual sum cancels below its rounding")
    W.flat[0] = W0
    return W / W0, (e_W + e_W.flat[0]) / W0 + 2 * ULP


def _primal_target(X: IntMatrix, r: float, c: np.ndarray, grp: ClassGroup, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """(conj Q^', e_Q) on the half grid from the target's primal region
    (``class_tvd``): Q' binned from the N labels of ``_target_region``, with
    tail tt and weights within ``rounding`` (``ClassGroup.index``; weights
    as in ``target_pmf``), and transformed by a forward FFT."""
    _, (T, w, tt), rounding = _target_region(X, r, c, grp)
    d = math.prod(grp.dims)
    Q = np.bincount(grp.index(T), w, d) / float(np.sum(np.sort(w)))
    Qh = np.fft.rfftn(Q.reshape(grp.dims))
    e = 2 * tt + 3 * rounding + 2 * (len(T) + 1) * ULP + eta * math.sqrt(d * float(Q @ Q))
    return Qh, np.full(Qh.shape, e)


def class_tvd(X: IntMatrix, r: float, c: Sequence[float]) -> ExactTVDReport:
    """Exact TVD between X D_{Z^m + c, r} and its target D_{Z^n + X c, r X^T},
    over the class group Z^n / G Z^n (see the module docstring).

    X and c are checked, and c reduced mod Z^m, by ``_reduced_shift``; the
    class group and its one Smith form are ``class_group``'s.  The image
    side, conj(P^) on the half t_n <= L / 2 of the grid within E_P of exact,
    is ``_image_transform``'s.  conj(Q^) is formed on the same half, as both
    class pmfs are real, from the side of the target with the fewer points
    by ``_target_counts``: the dual sum (``_dual_target``) from r = 1 up,
    the primal region (``_primal_target``) below.  One inverse real FFT of
    their difference gives P - Q.

    ``truncation_error`` bounds |TVD' - TVD| from computed quantities (primes
    mark computed values, u = 2^-53).  On the dual side W'(t) is within
    e_W(t), ``PoissonSum.tail`` plus u sum_w (eps_w + N) weight_w over the
    terms of its bin, N in all, eps_w covering the exponent
    ((n + 2) pi |w|^T |gram| |w|, from the rounded Gram entries), the angle
    ((n + m + 2) 2 pi |w|^T |adj(G) X| |c| / d) and 7 more roundings; so
    conj(Q^') is within e_Q(t) = (e_W(t) + e_W(0)) / W'(0) + 2u, as
    |W(t)| <= W(0).  On the primal side e_Q = 2 tt + 3 rounding +
    2 (N + 1) u + eta sqrt(d) ||Q'||_2 bounds the region's l1 distance from
    the target (its truncation and its weights' rounding, ``_target_region``),
    the bins' rounding and the FFT's.  By Cauchy-Schwarz and Parseval these errors move
    1/2 sum_g |P - Q| by at most 1/2 (sqrt(d) E_P + ||e_Q||_2), the other
    half of the grid mirroring this one.  The FFT's l2 error eta ||P - Q||_2
    (Higham 2002, Thm 24.2: about 7 u log2 N for a radix-2 FFT of length N,
    charged three times over at length 2d for pocketfft's mixed-radix and
    Bluestein passes) adds 1/2 sqrt(d) eta ||P - Q||_2, and the sum
    (d + 2) u TVD'.  ``support_size`` is d and ``radius``
    ``banaszczyk_radius(n)``, that of the target's dual sum.

    Raises InvariantViolation unless prod D = d, the TVD is in [0, 1] and
    every class mass of both pmfs is at least minus its error bound
    (``_masses_ok``); EnumerationBudgetExceeded when d or the chosen side's
    points exceed ENUM_BUDGET; ValueError where the dual sum's W'(0) does not
    exceed its error bound.
    """
    c = _reduced_shift(X, c)
    grp = class_group(X)
    dims = grp.dims
    d = math.prod(dims)
    Ph, E_P = _image_transform(r, c, grp)
    half = Ph.shape
    eta = 22 * ULP * (math.log2(2 * d) + 1)  # covers eta / (1 - eta) at 21 u
    dual, primal = _target_counts(X.n_rows, d, r)
    if primal < dual:  # below r = 1 the primal region has the fewer points
        Qh, e_Q = _primal_target(X, r, c, grp, eta)
    else:
        Qh, e_Q = _dual_target(r, c, grp, half)

    # both pmfs sum to 1, so the t = 0 entries of P^ and Q^ are 1
    masses_ok = _masses_ok(Ph, E_P, dims, eta) and _masses_ok(Qh, e_Q, dims, eta)
    Dh = Ph - Qh
    Dh.flat[0] = 0.0
    Dm = np.fft.irfftn(Dh, s=dims, axes=tuple(range(len(dims))))
    tvd = 0.5 * float(np.abs(Dm).sum())
    l2_Q = math.sqrt(2.0 * float(np.vdot(e_Q, e_Q)))
    trunc = 0.5 * (math.sqrt(d) * (E_P + eta * math.sqrt(float(np.vdot(Dm, Dm)))) + l2_Q) + (d + 2) * ULP * tvd
    if not (math.isfinite(tvd) and tvd <= 1.0 + trunc):
        raise InvariantViolation(f"class TVD {tvd} is not in [0, 1] within its error bound {trunc:g}")
    if not masses_ok:
        raise InvariantViolation("a class mass of the image or the target is below minus its error bound")
    return ExactTVDReport(tvd=tvd, truncation_error=trunc, support_size=d, radius=banaszczyk_radius(X.n_rows))


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


def exact_output_pmf(ws: FiberWorkspace) -> DiscretePMF:
    """Truncated pmf of {X v : v ~ D_{Z^m + c, r}} over the labels z of the
    workspace's ``target_region``, z standing for the output point z + X c.

    The image pmf is the target pmf times P_k / Q_k at the class k of z
    (module docstring), so the mass of z is q(z) P_k / Q_k^reg: q is the
    target's pmf over the region, Q_k^reg its mass in class k (from the
    workspace's per-class target weights, as in ``fiber_weight``) and P the
    image's class pmf (``classes``).  The masses add up to the image mass of
    the classes that the region holds, and are not renormalized.

    The tail is half a bound on the l1 distance of the masses from the image
    pmf (``DiscretePMF.tail_bound``), from computed quantities (u = 2^-53).
    With P' within e of P in l1
    (``_image_pmf``), a held class k gets P'_k in place of P_k times its
    share inside the region, and a missed class nothing: at most e, plus
    the P'_k of the missed classes, plus twice the image mass outside the
    region in the held ones, at most max_k (P'_k / Q_k^reg) tt / (1 - tt)
    (tt the target's tail) and 2 e.  A mass is rounded by at most
    (N_k + 2) u of itself, N_k the labels of its class.  The target weights
    are ``target_region``'s, as in ``target_pmf``, each within
    ``target_rounding`` = rho of itself, so a label's share of its class's
    weight is within 2 rho / (1 - rho) <= 3 rho of itself: 3 rho more.
    """
    _, index, Wk, P, e, _ = ws.classes
    T, w, tt = ws.target_region
    held = Wk > 0
    masses = w * (P / np.where(held, Wk, 1.0))[index]
    ratio = float(np.max(P[held] / Wk[held])) * float(np.sum(np.sort(w)))
    l1 = (3 * e + float(np.sum(P[~held])) + 2 * ratio * tt / (1 - tt) + 3 * ws.target_rounding
          + (int(np.max(np.bincount(index))) + 2) * ULP)
    return DiscretePMF(T, masses, min(1.0, 0.5 * l1))


def target_pmf(ws: FiberWorkspace) -> DiscretePMF:
    """Truncated pmf of the discrete Gaussian on Z^n + X c with shape r X^T,
    over the labels of the workspace's ``target_region``.  Its tail bound is
    the region's tail, the relative mass it discards, plus twice
    ``target_rounding`` = rho for the weights' rounding: each normalized
    mass is within 2 rho / (1 - rho) of itself, so the masses are within
    rho / (1 - rho) <= 2 rho of the renormalized truncation in total
    variation."""
    _, weights, tail = ws.target_region
    return DiscretePMF(ws.region(), weights / float(np.sum(np.sort(weights))), tail + 2 * ws.target_rounding)


def exact_tvd(p: DiscretePMF, q: DiscretePMF) -> ExactTVDReport:
    """Half the l1 difference over the union support, with truncation slack.

    The points of both pmfs are grouped by value, so an integer label and an
    equal float point are one support point; each group's masses are summed
    as p - q, and the absolute differences are added one at a time in
    lexicographic order of the points.  The points of both pmfs must have
    one dimension; a pmf with no points fits any.

    Each ``tail_bound`` bounds the total variation distance of its pmf from
    the distribution it stands for, so by the triangle inequality the TVD of
    the two distributions is within p.tail_bound + q.tail_bound of ``tvd``.
    """
    # two pmfs with no points: no rows, and one key column to sort them by
    Y = np.concatenate([x.points for x in (p, q) if len(x.points)] or [np.zeros((0, 1))])
    order, starts = _row_groups(Y)
    signed = np.concatenate([p.masses, -q.masses])[order]  # a + (-b) == a - b exactly
    diffs = np.abs(np.add.reduceat(signed, np.flatnonzero(starts)))
    tvd = 0.5 * np.cumsum(np.r_[0.0, diffs])[-1]  # cumsum adds in order
    trunc = p.tail_bound + q.tail_bound
    return ExactTVDReport(
        tvd=float(tvd), truncation_error=float(trunc),
        support_size=len(diffs), radius=0.0,
    )


def mc_tvd(
    sampler: Callable[[int, SampleStream], np.ndarray],
    target: DiscretePMF,
    N: int,
    stream: SampleStream,
) -> MCTVDReport:
    """Plug-in TVD estimate from N samples against a target pmf.

    A draw's coordinate within 1e-9 of an integer counts as that integer; the
    draws are grouped once into an empirical pmf, and the estimate and the
    support size are those of its exact_tvd against the target.  The
    confidence interval, at level MC_CONFIDENCE, is a conservative
    union-Hoeffding band over the support (distribution-free); the plug-in
    estimate is upward biased by at most about sqrt(support/N), reported
    separately.
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
    alpha = 1.0 - MC_CONFIDENCE
    h = math.sqrt(math.log(2 * (k + 1) / alpha) / (2 * N))
    half = 0.5 * (k + 1) * h
    return MCTVDReport(
        estimate=est,
        ci_lo=max(0.0, est - half),
        ci_hi=min(1.0, est + half),
        confidence=MC_CONFIDENCE,
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
    dim: int,
    s: float,
    eps: float,
    shifts: Sequence[Sequence[float]],
    lambda_n: float | None = None,
) -> dict:
    """Coset-to-lattice Gaussian weight ratios rho_s(Z^dim + c) / rho_s(Z^dim)
    over a grid of shifts c, each a product of the 1-D ``coset_mass``es.

    For s above the smoothing bound the ratio must lie in
    [(1-eps)/(1+eps), 1]; below it the check still runs as a diagnostic.
    """
    base = coset_mass(s)[0]
    lo = (1 - eps) / (1 + eps)
    precondition_ok = None
    if lambda_n is not None:
        precondition_ok = s >= smoothing_bound(dim, eps, lambda_n).value
    ratios = []
    for cvec in shifts:
        if len(cvec) != dim:
            raise ValueError("shift dimension mismatch")
        ratios.append(math.prod(coset_mass(s, float(ci))[0] / base for ci in cvec))
    return {
        "min_ratio": min(ratios),
        "max_ratio": max(ratios),
        "band": [lo, 1.0],
        "in_band": all(lo <= r <= 1.0 + 1e-12 for r in ratios),
        "precondition_ok": precondition_ok,
        "ratios": ratios,
    }
