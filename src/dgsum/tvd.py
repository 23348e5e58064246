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
are chi_t(g) = e^{2 pi i sum_i t_i g_i / D_i}.

- Image.  With v = w + c, w in Z^m, the class of X w is sum_j w_j a_j,
  a_j = U x_j mod D, a sum of m independent 1-D discrete Gaussians.  So
  P^(t) = prod_j theta_j(<t, a_j>_D), theta_j(a) = sum_w rho_r(w + c_j)
  e^{2 pi i w a} / sum_w rho_r(w + c_j), each tabulated once on the int64
  residues mod L = D_n of the phases <t, a_j>_D, its terms and tail from
  ``gaussian``'s one truncation rule (``_theta_table``,
  ``_image_transform``).  The column classes a_j come from one map
  (``ClassGroup.columns``), and the 1-D terms, for r <= 1 here and always
  for the per-label pmfs, from the package's one Gaussian, the table of
  D_{Z + c_j, r} that the sampler draws from (``gaussian.exact_pmf``,
  through ``_terms_1d``).
- Target.  Poisson summation (Micciancio-Regev 2007, Lemma 2.8) turns
  Q^(t) = sum_z rho(z + X c) chi_t(U z) / sum_z rho(z + X c) into a sum over
  the dual lattice G^-1 Z^n (Gram matrix r^2 adj(G) / d), whose point
  G^-1 w has the phase e^{2 pi i w^T adj(G) X c / d} and falls on the
  character t = -V^T w mod D (G^-1 = U^T D^-1 V^T).  With W(k) the sum of
  the terms with V^T w = k mod D, Q^(t) = W(-t) / W(0) = conj(W(t)) / W(0).
  Far below smoothing, where W(0) cancels to its rounding or the dual sum
  exceeds ENUM_BUDGET, Q is binned from the target's primal label region
  instead (``_target_region``).
- TVD = 1/2 sum_g |P(g) - Q(g)|, P - Q the inverse FFT of P^ - Q^:
  differencing in Fourier space keeps the relative precision of a small
  TVD.

Both entry points, ``class_tvd(X, r, c)`` and ``FiberWorkspace(X, r, c)``,
take one frame: c reduced mod Z^m once, where the instance is built
(``_reduced_shift``), one target region (``_target_region``) and one image
side (``ClassGroup.columns``, ``_terms_1d``).  The per-label pmfs
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
from dataclasses import asdict, dataclass
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
from .intmat import IntMatrix, InvariantViolation, adjugate, is_surjective, smith, smith_adjugate
from .lattice import smoothing_bound

ULP = 2.0 ** -53  # unit roundoff u of float64
MC_CONFIDENCE = 0.99  # level of the MC confidence interval


class NotInSupport(ValueError):
    pass


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
    ValueError unless X (n x m) has full row rank and c has m entries,
    NotInSupport unless X maps Z^m onto Z^n (every label has a fiber)."""
    if len(X.hermite.pivots) < X.n_rows:
        raise ValueError("X must have full row rank")
    if not is_surjective(X):
        raise NotInSupport("X does not map Z^m onto Z^n: some labels have no fiber")
    c = np.asarray(list(c), dtype=float)
    if c.shape != (X.n_cols,):
        raise ValueError("shift dimension mismatch")
    return c - np.round(c)


def _target_region(X: IntMatrix, r: float, Xc: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(Gamma, region): the Gram matrix Gamma = (r^2 G)^-1 = adj(G) /
    (r^2 det G) of the target coset Z^n + X c, G = X X^T, weighing the label
    z by e^{-pi v^T Gamma v}, v = z + X c, and the labels z, weights and
    tail that ``gaussian.truncate_coset`` keeps of the coset under it.
    adj(G) and det G are exact in integers (``intmat.adjugate``), so Gamma
    is rounded once per entry past one common scale, which moves every norm
    alike.  The one target region of both TVD entry points."""
    adj, det = adjugate(X @ X.T)
    gamma = np.array(adj, dtype=float) / (r * r * det)
    return gamma, truncate_coset(gamma, Xc)


class FiberWorkspace:
    """Per-(X, r, c) label region and class pmfs for the per-label pmfs of
    X D_{Z^m + c, r} and its target D_{Z^n + X c, r X^T}, with c reduced mod
    Z^m once, here (``_reduced_shift``).  The target side (``target_region``,
    ``target_weight``; MC's ``target_pmf``) and the image side (``classes``,
    ``fiber_weight``, ``exact_output_pmf``) share one frame: the region is
    ``_target_region``'s, as in ``class_tvd``, and the image pmf over the
    target pmf is a function of the class.  ``Xc`` is X c, the shift of the
    target coset Z^n + X c.  Everything past the checks and ``Xc`` is
    computed on first use."""

    def __init__(self, X: IntMatrix, r: float, c: Sequence[float]):
        self.c = _reduced_shift(X, c)
        self.X, self.r = X, r
        self.Xc = X.to_numpy() @ self.c

    @cached_property
    def _target_frame(self) -> tuple[np.ndarray, tuple]:
        return _target_region(self.X, self.r, self.Xc)

    @property
    def target_gram(self) -> np.ndarray:
        """r^2 X X^T, the Gram matrix of the target shape r X^T."""
        return self.r * self.r * (self.X @ self.X.T).to_numpy()

    @property
    def target_region(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(labels z, weights, tail): ``_target_region``'s truncation of the
        target coset Z^n + X c."""
        return self._target_frame[1]

    @cached_property
    def classes(self) -> tuple[ClassGroup, np.ndarray, np.ndarray, np.ndarray, float, float]:
        """(group, index, Wk, P, e, rho): the class group of X, the class of
        each ``target_region`` label (``ClassGroup.index``), the target
        weight of the region's labels in each class, the image's class pmf
        P on the flat grid with its l1 error e, and rho = rho_r(Z^m + c)
        (``_image_pmf``)."""
        grp = class_group(self.X)
        T, w, _ = self.target_region
        index = grp.index(T)
        return (grp, index, np.bincount(index, w, math.prod(grp.dims)), *_image_pmf(self.X, self.r, self.c, grp))

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
        top = self.target_weight(T[int(np.argmax(w))])  # the region's weights are over the heaviest label's
        return float(self.target_weight(z) * rho * P[k] / (Wk[k] * top))

    def region(self) -> np.ndarray:
        """The labels of ``target_region``."""
        return self.target_region[0]

    def target_weight(self, z: Sequence[int]) -> float:
        """e^{-pi v^T Gamma v}, v = z + X c, the target weight of the label z
        under ``_target_region``'s Gamma."""
        v = np.asarray(z, dtype=float) + self.Xc
        return float(np.exp(-math.pi * (v @ self._target_frame[0] @ v)))


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
    r |y - a| <= R, (R, tail) = ``coset_radius(1, 0)``: by Banaszczyk's
    coset lemma the rest weigh at most tail r rho(r Z), and the kept terms
    at a = 0, K, at least (1 - tail / 2) r rho(r Z), as in
    ``PoissonSum.tail``.  A term with exponent a and angle phi is off by
    (6 a + 4 |phi| + 10) u of its weight at most, u = 2^-53, and T terms add
    T u of their weights (``bound``); as |S(a)| <= S(0),
    e = 2 (t + max bound) / |S'(0)| + u.
    """
    k = np.arange(L, dtype=np.int64)
    if r <= 1:
        s, scale = r, 1.0
        y, a, tail = _terms_1d(r, c)
        ys, exps = y.tolist(), a.tolist()
    else:
        s, scale = 1.0 / r, r
        R, tail = coset_radius(1, 0.0)
        R *= s  # in units of y - a; every y with |y - a| <= R for some a in [0, 1)
        ys = range(-math.floor(R), math.floor(R) + 2)
    S = np.zeros(L, dtype=complex)
    bound = np.zeros(L)
    for i, y in enumerate(ys):
        if r <= 1:  # the term of w = y at every a = k / L
            lo, hi = 0, L
            a, angle = exps[i], 2 * math.pi * ((y * k) % L) / L
        else:  # the term of y at the a = k / L with |y - a| <= R
            lo, hi = max(0, math.floor(L * (y - R))), min(L, math.ceil(L * (y + R)) + 1)
            x = (y * L - k[lo:hi]) / L
            a, angle = math.pi * x * x / (s * s), 2 * math.pi * c * x if c else 0.0
        g = scale * np.exp(-a)
        S[lo:hi] += g * np.exp(1j * angle) if np.ndim(angle) else g
        bound[lo:hi] += (6 * a + 4 * np.abs(angle) + 10 + len(ys)) * g
    K = S[0].real if r <= 1 else scale * sum(math.exp(-math.pi * y * y / (s * s)) for y in ys if abs(y) <= R)
    err = 2 * (tail * K / (1 - tail) + ULP * float(np.max(bound))) / abs(S[0]) + ULP
    if not S.imag.any():  # c = 0 in the dual form
        S = S.real
    theta = S / S[0]
    theta[0] = 1.0
    return theta, err


def _grid_residues(a: Sequence[int], L: int, out: np.ndarray) -> np.ndarray:
    """sum_i t_i a_i mod L for every t in the grid 0 <= t < out.shape, into
    the int64 array ``out``; exact for a_i, t_i < L < 2^31."""
    lead = np.zeros((), dtype=np.int64)
    for size, ai in zip(out.shape[:-1], a[:-1]):
        lead = (lead[..., None] + np.arange(size, dtype=np.int64) * ai) % L
    np.add(lead[..., None], np.arange(out.shape[-1], dtype=np.int64) * a[-1], out=out)
    return np.remainder(out, L, out=out)


def _masses_ok(F: np.ndarray, err, dims: tuple[int, ...], eta: float) -> bool:
    """True when every mass of the class pmf whose conjugate transform is F
    on the half grid (F[0] = 1), each entry within ``err``, is at least minus
    its error bound.  A pmf f has f(g) >= (1 - sum_{t != 0} |f^(t)|) / d, so
    an l1 norm below 1 needs no transform; otherwise each transformed mass
    is within max err plus the FFT's l2 error eta ||f||_2."""
    l1 = 2 * (float(np.sum(np.abs(F))) - abs(F.flat[0]) + float(np.sum(err)) * F.size / np.size(err))
    if l1 < 1:
        return True
    f = np.fft.irfftn(F, s=dims, axes=tuple(range(len(dims))))
    return float(np.min(f)) >= -(float(np.max(err)) + eta * float(np.linalg.norm(f)))


class ClassGroup(NamedTuple):
    """The class group Z^n / G Z^n of G = X X^T through its Smith form
    U G V = diag(D) (``class_group``): z -> U z mod D maps the classes onto
    the product of the Z / D_i, of which the factors D_i > 1 are kept (the
    last one when d = 1), the grid ``dims``."""

    U: IntMatrix
    V: IntMatrix
    D: list[int]
    keep: list[int]
    dims: tuple[int, ...]

    def index(self, T: np.ndarray) -> np.ndarray:
        """The class U z mod D of each label row z of T, as a flat index into
        the C-ordered grid ``dims``."""
        Uk = np.array([[u % self.D[i] for u in self.U.rows[i]] for i in self.keep], dtype=np.int64)
        return np.ravel_multi_index(tuple((np.asarray(T, dtype=np.int64) @ Uk.T % self.dims).T), self.dims)

    def columns(self, X: IntMatrix) -> np.ndarray:
        """The class a_j = U x_j mod D of each column x_j of X, an int64 row
        on the grid ``dims`` per column, formed exactly in integers."""
        UX = (self.U @ X).rows
        return np.array([[UX[i][j] % self.D[i] for i in self.keep] for j in range(X.n_cols)], dtype=np.int64)


def class_group(X: IntMatrix) -> ClassGroup:
    """The ``ClassGroup`` of X, from ``intmat.smith(X X^T)``, which checks
    prod D = d = det G; EnumerationBudgetExceeded when d exceeds ENUM_BUDGET."""
    n = X.n_rows
    U, V, D = smith(X @ X.T)
    d = math.prod(D)
    if d > ENUM_BUDGET:
        raise EnumerationBudgetExceeded(f"{d} coset classes exceed budget {ENUM_BUDGET}")
    keep = [i for i in range(n) if D[i] > 1] or [n - 1]
    return ClassGroup(U, V, D, keep, tuple(D[i] for i in keep))


def _image_transform(X: IntMatrix, r: float, c: np.ndarray, grp: ClassGroup) -> tuple[np.ndarray, float]:
    """(Ph, E_P): the image's conjugate class transform for ``class_tvd``.

    Ph = conj(P^) on the half t_n <= L / 2 of the grid, L = D_n:
    P^(t) = prod_j theta_j(<t, a_j> / L), a_j = U x_j mod D scaled to L, one
    theta table per distinct c_j (``_theta_table``), a_j from
    ``ClassGroup.columns``.  Each entry is within E_P = prod_j (1 + e_j)
    (1 + 3u) - 1 of its exact value, e_j the error of column j's table, its
    truncation included.
    """
    dims = grp.dims
    L = dims[-1]
    half = dims[:-1] + (L // 2 + 1,)
    A = grp.columns(X) * (L // np.array(dims))
    k = np.empty(half, dtype=np.int64)
    Ph = np.ones(half)  # real while every table is (c_j = 0, r > 1)
    log_err = 0.0
    for cj in sorted(set(c.tolist())):  # one table per distinct shift
        theta, e = _theta_table(r, float(cj), L)
        Ph = Ph.astype(np.result_type(Ph, theta), copy=False)
        for j in np.flatnonzero(c == cj):
            Ph *= theta[_grid_residues(A[j], L, k)]
            log_err += math.log1p(e) + math.log1p(3 * ULP)
    return np.conjugate(Ph, out=Ph), math.expm1(log_err)


def _image_pmf(X: IntMatrix, r: float, c: np.ndarray, grp: ClassGroup) -> tuple[np.ndarray, float, float]:
    """(P, e, rho): the image's class pmf on the flat grid, its l1 error,
    and rho_r(Z^m + c), the product of the m 1-D sums.

    P is the pmf of sum_j w_j a_j, a_j = U x_j mod D
    (``ClassGroup.columns``), w_j the integer part of a draw from
    D_{Z + c_j, r}: m cyclic convolutions with the n_j terms of
    ``_terms_1d``, the sampler's table, each within 2 tail_j of
    D_{Z + c_j, r} in l1.  Sums of nonnegative terms keep a small mass's
    relative precision.  A term with exponent a is off by (6 a + 10) u of
    its weight at most, as in ``_theta_table``; the normalization and the
    convolution add (n_j + 1) u each.
    """
    dims = grp.dims
    axes = tuple(range(len(dims)))
    A = grp.columns(X)
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


def _dual_target(X: IntMatrix, r: float, c: np.ndarray, grp: ClassGroup, half: tuple) -> tuple | None:
    """(conj Q^', e_Q) on the half grid ``half`` from the target's dual sum
    (``class_tvd``), or None far below smoothing: where the sum's points
    exceed ENUM_BUDGET, or where W'(0) does not exceed e_W(0)."""
    U, V, D, keep, dims = grp
    d = math.prod(D)
    adjG = smith_adjugate(U, V, D)
    # the dual sum's points w and -w, binned by V^T w mod D, each with the
    # phase w^T adj(G) X c / d, so that conj(Q^) = W / W(0)
    gram = r * r * adjG.to_numpy() / d
    try:
        target = poisson_sum(gram)
    except EnumerationBudgetExceeded:
        return None
    pts = np.concatenate([target.points, -target.points])
    wts = np.concatenate([target.weights, target.weights])
    M = (adjG @ X).to_numpy()
    Vt = np.array([[x % Di for x in V.cols[i]] for i, Di in zip(keep, dims)], dtype=np.int64)
    res = pts @ Vt.T % np.array(dims)
    terms = wts * np.exp(2j * math.pi * (pts @ (M @ c)) / d)
    apts = np.abs(pts).astype(float)
    eps = (math.pi * (X.n_rows + 2) * np.einsum("ij,jk,ik->i", apts, np.abs(gram), apts)
           + 2 * math.pi * (X.n_rows + X.n_cols + 2) * (apts @ (np.abs(M) @ np.abs(c))) / d + 7)
    inside = res[:, -1] < half[-1]
    idx = np.ravel_multi_index(res[inside].T, half)
    H = math.prod(half)
    W = np.bincount(idx, terms.real[inside], H) + 1j * np.bincount(idx, terms.imag[inside], H)
    W[0] += 1.0
    W0 = W[0].real
    e_W = target.tail + ULP * np.bincount(idx, (eps[inside] + len(pts) + 1) * wts[inside], H)
    if not W0 > e_W[0]:
        return None
    return W.reshape(half) / W0, ((e_W + e_W[0]) / W0 + 2 * ULP).reshape(half)


def class_tvd(X: IntMatrix, r: float, c: Sequence[float]) -> ExactTVDReport:
    """Exact TVD between X D_{Z^m + c, r} and its target D_{Z^n + X c, r X^T},
    over the class group Z^n / G Z^n (see the module docstring).

    X and c are checked, and c reduced mod Z^m, by ``_reduced_shift``; the
    class group is ``class_group``'s.  The image side, conj(P^) on the half
    t_n <= L / 2 of the grid within E_P of exact, is ``_image_transform``'s.
    conj(Q^) is formed on the same half (``_dual_target``), as both class
    pmfs are real, and one inverse real FFT of their difference gives P - Q.

    ``truncation_error`` bounds |TVD' - TVD| from computed quantities (primes
    mark computed values, u = 2^-53).  W'(t) is within e_W(t),
    ``PoissonSum.tail`` plus u sum_w (eps_w + N) weight_w over the terms of
    its bin, N in all, eps_w covering the exponent
    ((n + 2) pi |w|^T |gram| |w|, from the rounded Gram entries), the angle
    ((n + m + 2) 2 pi |w|^T |adj(G) X| |c| / d) and 7 more roundings; so
    conj(Q^') is within e_Q(t) = (e_W(t) + e_W(0)) / W'(0) + 2u, as
    |W(t)| <= W(0).  By Cauchy-Schwarz and Parseval these errors move
    1/2 sum_g |P - Q| by at most 1/2 (sqrt(d) E_P + ||e_Q||_2), the other
    half of the grid mirroring this one.  The FFT's l2 error eta ||P - Q||_2
    (Higham 2002, Thm 24.2: about 7 u log2 N for a radix-2 FFT of length N,
    charged three times over at length 2d for pocketfft's mixed-radix and
    Bluestein passes) adds 1/2 sqrt(d) eta ||P - Q||_2, and the sum
    (d + 2) u TVD'.  ``support_size`` is d and ``radius`` that of the
    target's dual sum, ``banaszczyk_radius(n)``.

    Far below smoothing, where W'(0) does not exceed e_W(0) or the dual sum
    exceeds ENUM_BUDGET, the target's class pmf Q' is binned instead from
    the N labels of ``_target_region``, the workspace's ``target_region``,
    with tail tt (``ClassGroup.index``; weights as in ``target_pmf``), and
    transformed by a forward FFT: e_Q = 2 tt + 2 (N + 1) u +
    eta sqrt(d) ||Q'||_2 bounds the region's l1 distance from the target,
    the bins' rounding and the FFT's.

    Raises InvariantViolation unless prod D = d, the TVD is in [0, 1] and
    every class mass of both pmfs is at least minus its error bound
    (``_masses_ok``); EnumerationBudgetExceeded when d exceeds ENUM_BUDGET.
    """
    c = _reduced_shift(X, c)
    grp = class_group(X)
    dims = grp.dims
    d = math.prod(dims)
    Ph, E_P = _image_transform(X, r, c, grp)
    half = Ph.shape
    eta = 22 * ULP * (math.log2(2 * d) + 1)  # covers eta / (1 - eta) at 21 u
    dual = _dual_target(X, r, c, grp, half)
    if dual is not None:
        Qh, e_Q = dual
    else:  # far below the smoothing parameter of Z^n under r X^T: the primal target
        _, (T, w, tt) = _target_region(X, r, X.to_numpy() @ c)
        Q = np.bincount(grp.index(T), w, d) / float(np.sum(np.sort(w)))
        Qh = np.fft.rfftn(Q.reshape(dims))
        e_Q = np.full(half, 2 * tt + 2 * (len(T) + 1) * ULP + eta * math.sqrt(d) * float(np.linalg.norm(Q)))

    # both pmfs sum to 1, so the t = 0 entries of P^ and Q^ are 1
    masses_ok = _masses_ok(Ph, E_P, dims, eta) and _masses_ok(Qh, e_Q, dims, eta)
    Dh = Ph - Qh
    Dh.flat[0] = 0.0
    Dm = np.fft.irfftn(Dh, s=dims, axes=tuple(range(len(dims))))
    tvd = 0.5 * float(np.sum(np.abs(Dm)))
    l2_Q = math.sqrt(2.0) * float(np.linalg.norm(e_Q))
    trunc = 0.5 * (math.sqrt(d) * (E_P + eta * float(np.linalg.norm(Dm))) + l2_Q) + (d + 2) * ULP * tvd
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

    The tail bounds the l1 distance of the masses from the image pmf, from
    computed quantities (u = 2^-53).  With P' within e of P in l1
    (``_image_pmf``), a held class k gets P'_k in place of P_k times its
    share inside the region, and a missed class nothing: at most e, plus
    the P'_k of the missed classes, plus twice the image mass outside the
    region in the held ones, at most max_k (P'_k / Q_k^reg) tt / (1 - tt)
    (tt the target's tail) and 2 e.  A mass is rounded by at most
    (N_k + 2) u of itself, N_k the labels of its class.  The target weights
    are ``target_region``'s, as in ``target_pmf``.
    """
    _, index, Wk, P, e, _ = ws.classes
    T, w, tt = ws.target_region
    held = Wk > 0
    masses = w * (P / np.where(held, Wk, 1.0))[index]
    ratio = float(np.max(P[held] / Wk[held])) * float(np.sum(np.sort(w)))
    tail = 3 * e + float(np.sum(P[~held])) + 2 * ratio * tt / (1 - tt) + (int(np.max(np.bincount(index))) + 2) * ULP
    return DiscretePMF(T, masses, min(1.0, tail))


def target_pmf(ws: FiberWorkspace) -> DiscretePMF:
    """Truncated pmf of the discrete Gaussian on Z^n + X c with shape r X^T,
    over the labels of the workspace's ``target_region``."""
    _, weights, tail = ws.target_region
    return DiscretePMF(ws.region(), weights / float(np.sum(np.sort(weights))), tail)


def exact_tvd(p: DiscretePMF, q: DiscretePMF) -> ExactTVDReport:
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
