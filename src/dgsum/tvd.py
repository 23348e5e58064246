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

For spherical R = r I the image pmf is the target pmf times a factor that
is constant on each of the d = det G classes of Z^n / G Z^n, G = X X^T (the
fibers over z and z + G w differ by X^T w, orthogonal to ker X), so the TVD
is that of the two class pmfs.  ``class_tvd(X, r, c)`` forms both in
Fourier space, with no workspace and neither ker X nor its dual.  With
U G V = diag(D) (``intmat.smith``), z -> U z mod D maps the classes onto the
product of the Z / D_i, whose characters are
chi_t(g) = e^{2 pi i sum_i t_i g_i / D_i}.

- Image.  With v = w + c, w in Z^m, the class of X w is sum_j w_j a_j,
  a_j = U x_j mod D, a sum of m independent 1-D discrete Gaussians.  So
  P^(t) = prod_j theta_j(<t, a_j>_D), theta_j(a) = sum_w rho_r(w + c_j)
  e^{2 pi i w a} / sum_w rho_r(w + c_j), each tabulated once on the int64
  residues mod L = D_n of the phases <t, a_j>_D, its terms and tail from
  ``gaussian``'s one truncation rule (``_theta_table``).
- Target.  Poisson summation (Micciancio-Regev 2007, Lemma 2.8) turns
  Q^(t) = sum_z rho(z + X c) chi_t(U z) / sum_z rho(z + X c) into a sum over
  the dual lattice G^-1 Z^n (Gram matrix r^2 adj(G) / d), whose point
  G^-1 w has the phase e^{2 pi i w^T adj(G) X c / d} and falls on the
  character t = -V^T w mod D (G^-1 = U^T D^-1 V^T).  With W(k) the sum of
  the terms with V^T w = k mod D, Q^(t) = W(-t) / W(0) = conj(W(t)) / W(0).
- TVD = 1/2 sum_g |P(g) - Q(g)|, P - Q the inverse FFT of P^ - Q^:
  differencing in Fourier space keeps the relative precision of a small
  TVD.

Both ``class_tvd`` and ``FiberWorkspace`` reduce c mod Z^m once, where the
instance is built (``_reduced_shift``).  The per-label pmfs (``target_pmf``
for MC, ``exact_output_pmf`` for tests) read a workspace alone and run over
the labels that ``gaussian.truncate_coset`` keeps of the target coset
Z^n + X c = L + x, L = Wt Z^n under its whitening Wt, x its shortest
point: the ball of radius R, 2 beta(n, R) e^{pi ||x||^2} <= DUAL_TAIL, beta =
``gaussian.banaszczyk_bound``, drops at most that share of the target weight,
as rho(L + x) >= e^{-pi ||x||^2} rho(L) (pair y with -y) and
rho((L + x) minus R B) < 2 beta rho(L) (Banaszczyk's coset lemma).

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
    coset_mass,
    coset_radius,
    poisson_sum,
    truncate_coset,
)
from .intmat import IntMatrix, InvariantViolation, smith, smith_adjugate
from .lattice import LatticeBasis, smoothing_bound

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


def _reduced_shift(X: IntMatrix, c: Sequence[float]) -> np.ndarray:
    """c - round(c): every pmf of X D_{Z^m + c, R} depends on c only mod Z^m.
    ValueError unless X (n x m) has full row rank and c has m entries,
    NotInSupport unless X maps Z^m onto Z^n (every label has a fiber)."""
    H, _, pivots, _ = X.hermite
    if len(pivots) < X.n_rows:
        raise ValueError("X must have full row rank")
    if any(H.rows[r][j] != 1 for r, j in pivots):
        raise NotInSupport("X does not map Z^m onto Z^n: some labels have no fiber")
    c = np.asarray(list(c), dtype=float)
    if c.shape != (X.n_cols,):
        raise ValueError("shift dimension mismatch")
    return c - np.round(c)


class FiberWorkspace:
    """Per-(X, R, c) precomputation for the per-label image and target pmfs,
    with c reduced mod Z^m once, here (``_reduced_shift``).

    All fibers of one instance are translates P z + c + ker X of the same
    kernel lattice, so X's Hermite decomposition X U = H (``X.hermite``,
    shared with the certificate search on the same matrix object) gives the
    linear particular solution P z.  The kernel basis K is
    ``X.reduced_kernel``, which the certificate fallback also reads, so that
    the dual basis W K (K^T W^T W K)^-1 of the whitened kernel is short too;
    its ``PoissonSum`` (``dual``) serves every section sum.  Everything past
    the checks (``P``, ``kernel``, the float data) is computed on first use.
    """

    def __init__(self, X: IntMatrix, R: GaussianShape, c: Sequence[float]):
        self.c = _reduced_shift(X, c)
        self.X = X
        self.R = R

    @cached_property
    def P(self) -> IntMatrix:
        """The first n columns of U: X is onto, so H = [I | 0] and X P = I (checked)."""
        n = self.X.n_rows
        U = self.X.hermite.U
        P = IntMatrix.from_columns(U.column(j) for j in range(n))
        if (self.X @ P).rows != IntMatrix.identity(n).rows:
            raise InvariantViolation("HNF particular map P does not solve X P = I")
        return P

    @cached_property
    def kernel(self) -> LatticeBasis | None:
        """``X.reduced_kernel``; None when ker X = 0 (m = n)."""
        n, m = self.X.shape
        return self.X.reduced_kernel if m > n else None

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
    def dual(self) -> PoissonSum:
        """The PoissonSum of the dual of the whitened kernel lattice W A, with
        Gram matrix Gw^-1.  No points when ker X = 0."""
        return poisson_sum(self.Gw_inv)

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

    @cached_property
    def target_region(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(labels z, weights, tail): ``gaussian.truncate_coset`` of the
        target coset Z^n + X c under Wt."""
        return truncate_coset(self.Wt, self.Wt @ self.Xc)

    def region(self) -> np.ndarray:
        """The labels of ``target_region``."""
        return self.target_region[0]

    def target_weight(self, z: Sequence[int]) -> float:
        """e^{-pi ||Wt (z + X c)||^2}, the target weight of the label z."""
        y = self.Wt @ (np.asarray(z, dtype=float) + self.Xc)
        return float(np.exp(-math.pi * (y @ y)))


def _theta_table(r: float, c: float, L: int) -> tuple[np.ndarray, float]:
    """(theta, e): theta[k] = S(k / L) / S(0), k < L, the transform of the
    integer part w of a draw from D_{Z + c, r}, |c| <= 1/2, with
    S(a) = sum_w rho_r(w + c) e^{2 pi i w a}; e bounds every entry's error.

    Both forms truncate by ``gaussian``'s one rule, and either way the
    dropped part of any S(a) is at most t = tail K / (1 - tail), K the kept
    weight at a = 0.  For r <= 1 the sum runs over the w that
    ``truncate_coset`` keeps of the whitened coset (Z + c) / r, the table
    ``exact_pmf`` gives the sampler for D_{Z + c, r}, with its tail; K is
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
    if r <= 1:  # the terms are scaled by e^{pi c^2 / r^2}, so that the largest is 1
        s, scale = r, 1.0
        W = np.eye(1) / r
        T, _, tail = truncate_coset(W, W @ [c])
        ys = T[:, 0].tolist()
    else:
        s, scale = 1.0 / r, r
        R, tail = coset_radius(1, 0.0)
        R *= s  # in units of y - a; every y with |y - a| <= R for some a in [0, 1)
        ys = range(-math.floor(R), math.floor(R) + 2)
    S = np.zeros(L, dtype=complex)
    bound = np.zeros(L)
    for y in ys:
        if r <= 1:  # the term of w = y at every a = k / L: (y + c)^2 - c^2 = y (y + 2c)
            lo, hi = 0, L
            a, angle = math.pi * y * (y + 2 * c) / (s * s), 2 * math.pi * ((y * k) % L) / L
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


def class_tvd(X: IntMatrix, r: float, c: Sequence[float]) -> ExactTVDReport:
    """Exact TVD between X D_{Z^m + c, r} and its target D_{Z^n + X c, r X^T},
    over the class group Z^n / G Z^n (see the module docstring).

    X and c are checked, and c reduced mod Z^m, by ``_reduced_shift``.  Only
    the factors D_i > 1 of U G V = diag(D) are kept (one factor 1 when
    d = 1), L = D_n the largest.  conj(P^) and conj(Q^) are formed on the
    half t_n <= L / 2 of the grid, as both class pmfs are real, and one
    inverse real FFT of their difference gives P - Q.

    ``truncation_error`` bounds |TVD' - TVD| from computed quantities (primes
    mark computed values, u = 2^-53).  P^'(t) is within E_P =
    prod_j (1 + e_j)(1 + 3u) - 1 of P^(t), e_j the error of column j's theta
    table, its truncation included (``_theta_table``).  W'(t) is within
    e_W(t), ``PoissonSum.tail`` plus u sum_w (eps_w + N) weight_w over the
    terms of its bin, N in all, eps_w
    covering the exponent ((n + 2) pi |w|^T |gram| |w|, from the rounded Gram
    entries), the angle ((n + m + 2) 2 pi |w|^T |adj(G) X| |c| / d) and 7
    more roundings; so conj(Q^') is within e_Q(t) = (e_W(t) + e_W(0)) /
    W'(0) + 2u, as |W(t)| <= W(0).  By Cauchy-Schwarz and Parseval these
    errors move 1/2 sum_g |P - Q| by at most 1/2 (sqrt(d) E_P + ||e_Q||_2),
    the other half of the grid mirroring this one.  The FFT's l2 error
    eta ||P - Q||_2 (Higham 2002, Thm 24.2: about 7 u log2 N for a radix-2
    FFT of length N, charged three times over at length 2d for pocketfft's
    mixed-radix and Bluestein passes) adds 1/2 sqrt(d) eta ||P - Q||_2, and
    the sum (d + 2) u TVD'.  ``support_size`` is d and ``radius`` that of
    the target's dual sum.

    Raises InvariantViolation unless prod D = d, the TVD is in [0, 1] and
    every class mass of both pmfs is at least minus its error bound
    (``_masses_ok``); EnumerationBudgetExceeded when d exceeds ENUM_BUDGET;
    ValueError when W'(0) does not exceed its error (far below smoothing).
    """
    c = _reduced_shift(X, c)
    n, m = X.shape
    U, V, D = smith(X @ X.T)  # checks prod D = d = det G
    d = math.prod(D)
    if d > ENUM_BUDGET:
        raise EnumerationBudgetExceeded(f"{d} coset classes exceed budget {ENUM_BUDGET}")
    adjG = smith_adjugate(U, V, D)
    keep = [i for i in range(n) if D[i] > 1] or [n - 1]  # d = 1: one class
    dims = tuple(D[i] for i in keep)
    L = dims[-1]
    half = dims[:-1] + (L // 2 + 1,)

    # image side: P^(t) = prod_j theta_j(<t, a_j> / L), a_j = U x_j mod D scaled to L
    UX = (U @ X).rows
    k = np.empty(half, dtype=np.int64)
    Ph = np.ones(half)  # real while every table is (c_j = 0, r > 1)
    log_err = 0.0
    for cj in sorted(set(c.tolist())):  # one table per distinct shift
        theta, e = _theta_table(r, float(cj), L)
        Ph = Ph.astype(np.result_type(Ph, theta), copy=False)
        for j in np.flatnonzero(c == cj):
            a = [UX[i][j] % D[i] * (L // D[i]) for i in keep]
            Ph *= theta[_grid_residues(a, L, k)]
            log_err += math.log1p(e) + math.log1p(3 * ULP)
    E_P = math.expm1(log_err)

    # target side: the dual sum's points w and -w, binned by V^T w mod D,
    # each with the phase w^T adj(G) X c / d, so that conj(Q^) = W / W(0)
    gram = r * r * adjG.to_numpy() / d
    target = poisson_sum(gram)
    pts = np.concatenate([target.points, -target.points])
    wts = np.concatenate([target.weights, target.weights])
    M = (adjG @ X).to_numpy()
    Vt = np.array([[x % Di for x in V.cols[i]] for i, Di in zip(keep, dims)], dtype=np.int64)
    res = pts @ Vt.T % np.array(dims)
    terms = wts * np.exp(2j * math.pi * (pts @ (M @ c)) / d)
    apts = np.abs(pts).astype(float)
    eps = (math.pi * (n + 2) * np.einsum("ij,jk,ik->i", apts, np.abs(gram), apts)
           + 2 * math.pi * (n + m + 2) * (apts @ (np.abs(M) @ np.abs(c))) / d + 7)
    inside = res[:, -1] < half[-1]
    idx = np.ravel_multi_index(res[inside].T, half)
    H = math.prod(half)
    W = np.bincount(idx, terms.real[inside], H) + 1j * np.bincount(idx, terms.imag[inside], H)
    W[0] += 1.0
    W0 = W[0].real
    e_W = target.tail + ULP * np.bincount(idx, (eps[inside] + len(pts) + 1) * wts[inside], H)
    if not W0 > e_W[0]:  # far below the smoothing parameter of Z^n under r X^T
        raise ValueError(f"the target's dual sum cancels below its rounding at r = {r:g}: W(0) = {W0:g}")
    e_Q = ((e_W + e_W[0]) / W0 + 2 * ULP).reshape(half)

    # both pmfs sum to 1, so the t = 0 entries of P^ and Q^ are 1
    eta = 22 * ULP * (math.log2(2 * d) + 1)  # covers eta / (1 - eta) at 21 u
    np.conjugate(Ph, out=Ph)
    Qh = W.reshape(half) / W0
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
    return ExactTVDReport(tvd=tvd, truncation_error=trunc, support_size=d, radius=target.radius)


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
    """Truncated pmf of {X v : v ~ D_{Z^m + c, R}} over integer labels z, for
    the workspace's X, R and reduced c.

    The support label z stands for the output point z + X c, and its mass is
    the target weight of z times 1 + delta(z), normalized over the region,
    every label's delta from one batched dual sum.

    The tail covers the truncation and the rounding of the sums from the
    workspace's float ``Gw_inv`` (G, rank k) and ``to_coef``, not those
    matrices' own error.  Each 1 + delta(z) is off by at most e_A + e_R +
    e_F(z), u = 2^-53: e_A = ``dual.tail``; e_R = 2 u sum_t w_t (pi (k + 2)
    (|t|^T |G| |t| + ||t||_1) + N + 6) over the N dual points t of weight w_t;
    e_F(z) = 4 pi sum_t w_t |t| . (m + 2) u (|z| |P|^T + |c|) |to_coef| for
    the shift (z P^T + c) ``to_coef``, whose rounding survives its reduction
    mod 1.  The masses see the errors' means under the target weights: e =
    e_A + e_R + the region's mean of e_F.  The mass outside the region is at
    most tt (1 + mu) / (1 + mean delta), tt the target's tail, mu =
    ``dual.mass`` + e_A + e_R >= |delta|, the mean over all labels at least
    (1 - tt) (sum of the masses / S - e), as the target weight outside is at
    most tt / (1 - tt) of S, the weight inside; the masses' own error adds e
    over it.  Where e swamps the mean, far below the kernel's smoothing
    parameter, the tail is 1.  A fiber weight is >= 0, so a negative
    1 + delta stands for a weight of 0.
    """
    T = ws.region()
    _, weights, tt = ws.target_region
    dual, abs_t = ws.dual, np.abs(ws.dual.points).astype(float)
    terms = np.einsum("ij,jk,ik->i", abs_t, np.abs(ws.Gw_inv), abs_t) + abs_t.sum(axis=1)
    e = dual.tail + 2 * ULP * float(dual.weights @ (math.pi * (dual.rank + 2) * terms + len(abs_t) + 6))
    hi = 1.0 + dual.mass + e
    F_abs = np.abs(T) @ np.abs(ws.P.to_numpy()).T + np.abs(ws.c)
    s = (ws.X.n_cols + 2) * ULP * (weights @ (F_abs @ np.abs(ws.to_coef))) / float(np.sum(np.sort(weights)))
    e += 4 * math.pi * float(dual.weights @ (abs_t @ s))
    masses = weights * np.maximum(1.0 + ws.section_deltas(T), 0.0)
    total = float(np.sum(np.sort(masses)))
    lo = (1.0 - tt) * (total / float(np.sum(np.sort(weights))) - e)
    if total <= 0:
        raise ValueError("empty region")
    tail = (tt * hi + e) / lo if lo > 0 else 1.0
    return DiscretePMF(T, masses / total, min(1.0, tail))


def target_pmf(ws: FiberWorkspace) -> DiscretePMF:
    """Truncated pmf of the discrete Gaussian on Z^n + X c with shape R X^T,
    over the labels of the workspace's ``target_region``."""
    T = ws.region()
    _, weights, tail = ws.target_region
    return DiscretePMF(T, weights / float(np.sum(np.sort(weights))), tail)


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
    basis_dim: int,
    shape: GaussianShape,
    eps: float,
    shifts: Sequence[Sequence[float]],
    lambda_n: float | None = None,
) -> dict:
    """Coset-to-lattice Gaussian weight ratios over a grid of shifts.

    For shapes above the smoothing bound the ratio must lie in
    [(1-eps)/(1+eps), 1]; below it the check still runs as a diagnostic.
    Currently supports the integer lattice Z^dim.
    """
    base, _ = coset_mass(LatticeCoset.integers(basis_dim), shape)
    lo = (1 - eps) / (1 + eps)
    precondition_ok = None
    if lambda_n is not None:
        precondition_ok = shape.sigma_min(basis_dim) >= smoothing_bound(basis_dim, eps, lambda_n).value
    ratios = []
    for cvec in shifts:
        m, _ = coset_mass(LatticeCoset.integers(basis_dim, tuple(cvec)), shape)
        ratios.append(m / base)
    return {
        "min_ratio": min(ratios),
        "max_ratio": max(ratios),
        "band": [lo, 1.0],
        "in_band": all(lo <= r <= 1.0 + 1e-12 for r in ratios),
        "precondition_ok": precondition_ok,
        "ratios": ratios,
    }
