"""Gaussian weights, coset pmfs, and the integer samplers."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from dgsum.gaussian import (
    DiscretePMF,
    EnumerationBudgetExceeded,
    PoissonSum,
    SampleStream,
    banaszczyk_bound,
    banaszczyk_radius,
    coset_mass,
    draw_ints,
    enumerate_affine,
    poisson_sum,
    exact_pmf,
    push_to_lattice,
    sample_dg_coset,
    truncate_coset,
)
from dgsum.intmat import IntMatrix


def tvd_from_counts(counts: dict, pmf: DiscretePMF, N: int) -> float:
    ref = pmf.as_dict()
    keys = set(ref) | set(counts)
    return 0.5 * sum(abs(counts.get(k, 0) / N - ref.get(k, 0.0)) for k in keys)


def _pmf_of(gram, x0):
    """The pmf over the t that ``truncate_coset`` keeps of the coset Z^k + x0
    under the Gram matrix ``gram``."""
    T, w, tail = truncate_coset(np.asarray(gram, dtype=float), np.asarray(x0, dtype=float))
    return DiscretePMF(T, w / float(np.sum(np.sort(w))), tail)


def _square(pmf: DiscretePMF) -> DiscretePMF:
    """The pmf of two independent draws from a 1-D pmf, as points of Z^2."""
    y = pmf.points[:, 0]
    return DiscretePMF(np.stack(np.meshgrid(y, y, indexing="ij"), axis=-1).reshape(-1, 2),
                       np.outer(pmf.masses, pmf.masses).ravel(), 2 * pmf.tail_bound)


# ---------------------------------------------------------------- rho


def test_rho_at_origin_and_symmetry():
    # the table weighs y by rho_s(y) = e^{-pi y^2 / s^2}: heaviest at the origin, and even
    pmf = exact_pmf(1.0)
    assert pmf.points[int(np.argmax(pmf.masses))].tolist() == [0]
    assert pmf.mass_at((2,)) == pytest.approx(pmf.mass_at((-2,)), rel=1e-12)


def test_rho_spherical_value():
    # rho_2((1, 1)) = rho_2(1)^2 = e^{-pi / 2}, read off the table's ratios
    pmf = exact_pmf(2.0)
    assert (pmf.mass_at((1,)) / pmf.mass_at((0,))) ** 2 == pytest.approx(math.exp(-math.pi / 2), rel=1e-12)
    assert math.exp(-math.pi / 2) == pytest.approx(0.207880, abs=1e-6)


def test_shape_validation():
    for s in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError):
            exact_pmf(s)
        with pytest.raises(ValueError):
            sample_dg_coset(s, [0.0], 10, SampleStream(1))


# ---------------------------------------------------------------- coset mass / pmf


def test_coset_mass_integers():
    mass, tail = coset_mass(1.0)
    # 1 + 2 e^{-pi} + 2 e^{-4 pi} + ...
    assert mass == pytest.approx(1.086435, abs=1e-6)
    assert tail < 1e-30


def test_coset_mass_shift_ratio_band():
    s = 1.3  # above the eps=0.01 smoothing bound for Z
    base, _ = coset_mass(s)
    shifted, _ = coset_mass(s, 0.5)
    eps = 0.01
    assert (1 - eps) / (1 + eps) <= shifted / base <= 1.0


def test_coset_mass_monotone_in_s():
    prev = 0.0
    for s in (0.5, 1.0, 2.0, 4.0):
        mass, _ = coset_mass(s)
        assert mass > prev
        prev = mass


def test_coset_mass_empty_region_flagged():
    # no region is empty: far below smoothing Z + 1/2 keeps its two nearest
    # points, whose weight underflows no pmf, with a certified tail
    from dgsum.gaussian import DUAL_TAIL

    mass, tail = coset_mass(0.1, 0.5)
    assert mass == pytest.approx(2 * math.exp(-25 * math.pi), rel=1e-12) and 0 < tail <= DUAL_TAIL
    pmf = exact_pmf(0.03, 0.5)  # the labels of the coset points -1/2 and 1/2
    assert pmf.points.tolist() == [[-1], [0]] and pmf.masses == pytest.approx([0.5, 0.5], rel=1e-12)


def test_exact_pmf_center_mass():
    pmf = exact_pmf(1.0)
    assert pmf.mass_at((0,)) == pytest.approx(1 / 1.086435, abs=1e-5)
    assert pmf.points.dtype == np.int64 and pmf.points.shape == (pmf.support_size(), 1)
    # a non-integral coset holds the int64 labels y of its points y + c
    half = exact_pmf(1.0, 0.5)
    assert half.points.dtype == np.int64 and half.mass_at((0,)) == half.mass_at((-1,)) > 0


def test_exact_pmf_symmetry():
    for s in (0.7, 1.0, 2.5):
        pmf = exact_pmf(s)
        for p in pmf.points:
            assert pmf.mass_at(p) == pytest.approx(pmf.mass_at((-p[0],)), rel=1e-12)


def test_exact_pmf_sums_to_one_within_tail():
    for c in (0.0, 0.25, -0.5):
        pmf = exact_pmf(1.5, c)
        assert 1 - pmf.tail_bound <= float(pmf.masses.sum()) <= 1 + 1e-12


def _log_sum_exp(x: np.ndarray) -> float:
    top = float(np.max(x))
    return top + math.log(float(np.sum(np.exp(x - top))))


def _assert_tail_certified(points, tail_bound, gram, shift):
    """tail_bound is at least the relative weight of the coset Z^k + shift
    (whitened by gram^-1) outside the coset points ``points``, summed in log
    space over an integer box that reaches 6 whitened units past them, so
    each point left out weighs below e^{-36 pi} of the lightest kept one."""
    shift = np.asarray(shift, dtype=float)
    points = np.asarray(points, dtype=float)
    G_inv = np.linalg.inv(gram)

    def norm2(Y):
        return np.einsum("ij,jk,ik->i", Y, G_inv, Y)

    reach = math.sqrt(float(norm2(points).max())) + 6.0
    half = np.ceil(reach * np.sqrt(np.diag(gram))).astype(np.int64) + 1
    centre = -np.round(shift).astype(np.int64)
    grids = np.meshgrid(*[np.arange(c - h, c + h + 1) for c, h in zip(centre, half)], indexing="ij")
    T = np.stack([g.ravel() for g in grids], axis=1)
    kept = set(map(tuple, np.round(points - shift).astype(np.int64).tolist()))
    outside = np.array([t not in kept for t in map(tuple, T.tolist())])
    log_w = -math.pi * norm2(T + shift)
    log_tail = _log_sum_exp(log_w[outside]) - _log_sum_exp(log_w)
    assert len(kept) == len(points) and outside.sum() == len(T) - len(kept)
    assert tail_bound > 0 and math.log(tail_bound) >= log_tail, (tail_bound, math.exp(log_tail))


def test_primal_tail_bound_is_certified():
    # every primal truncation's tail_bound covers the weight it drops,
    # shifted cosets and far below smoothing included (the old fixed radius
    # claimed 1.0e-194 at s = 0.1249, c = 1/2, where the tail is 1.2e-175)
    from dgsum.tvd import FiberWorkspace, target_pmf

    skew = np.array([[1.0, 0.6], [0.0, 0.7]])
    for s in np.geomspace(0.03, 2.0, 15).tolist() + [0.1249]:
        for c in (0.0, 0.25, 0.5):
            pmf = exact_pmf(s, c)
            _assert_tail_certified(pmf.points + c, pmf.tail_bound, [[s * s]], [c])
            gram = (s * skew).T @ (s * skew)  # Z^2 + (c, c) under the shape s skew
            pmf = _pmf_of(np.linalg.inv(gram), [c, c])
            _assert_tail_certified(pmf.points + c, pmf.tail_bound, gram, [c, c])
    X = IntMatrix.from_rows([[1, 0, 1, 1], [0, 1, 1, -1]])
    for r in (0.03, 0.2, 1.0, 3.0):
        for c in ([0.5, 0.0, 0.0, 0.0], [0.5] * 4):
            ws = FiberWorkspace(X, r, c)
            q = target_pmf(ws)
            _assert_tail_certified(q.points + ws.Xc, q.tail_bound, ws.r**2 * (ws.X @ ws.X.T).to_numpy(), ws.Xc)


def test_skew_basis_region_is_sized_by_the_nearest_coset_point():
    # rounding the shift in a skew basis lands 50 / r out (skew 100), but
    # the nearest point of Z^2 + X c is 1/(2r) out, and the region follows it
    from dgsum.tvd import FiberWorkspace, target_pmf

    for skew in (100, 10_000):
        X = IntMatrix.from_rows([[1, 0, 0], [skew, 1, 0]])
        sizes = {}
        for c in ((0.0, 0.0, 0.0), (0.5, 0.0, 0.0)):
            ws = FiberWorkspace(X, 1.0, c)
            q = target_pmf(ws)
            sizes[c[0]] = q.support_size()
            if skew == 100:
                _assert_tail_certified(q.points + ws.Xc, q.tail_bound, ws.r**2 * (ws.X @ ws.X.T).to_numpy(), ws.Xc)
        assert sizes[0.0] < 100 and sizes[0.5] < 1.5 * sizes[0.0], sizes
    # the same for the coset L + (1/2, 0) = B (Z^2 + (1/2, -50)) of the skew
    # lattice L = B Z^2 itself
    B = np.array([[1.0, 0.0], [100.0, 1.0]])
    pmf = _pmf_of(B.T @ B, [0.5, -50.0])
    base = _pmf_of(B.T @ B, [0.0, 0.0])
    assert pmf.support_size() < 1.5 * base.support_size() < 150


def test_coset_radius_is_the_least_radius_for_the_tail():
    from dgsum.gaussian import DUAL_TAIL, coset_radius

    def log_tail(rank, delta, R):  # log 2 beta(rank, R) e^{pi delta^2}, R > sqrt(rank / (2 pi))
        c = R / math.sqrt(rank)
        return math.log(2) + math.pi * delta ** 2 + rank * (math.log(c) + 0.5 * math.log(2 * math.pi * math.e) - math.pi * c * c)

    for rank, delta in ((1, 0.0), (2, 0.0), (2, 0.7), (1, 16.7), (3, 40.0)):
        R, tail = coset_radius(rank, delta)
        assert delta < R and tail == pytest.approx(math.exp(log_tail(rank, delta, R)), rel=1e-9)
        assert log_tail(rank, delta, R) <= math.log(DUAL_TAIL) + 1e-9 < log_tail(rank, delta, R * (1 - 1e-9))
    # at c = 0 the region of Z^2 reaches about 4.9 whitened units
    assert 4.85 < coset_radius(2, 0.0)[0] < 4.95


def test_scaled_lattice_pushforward():
    # pmf on 2Z at s=2 equals pmf on Z at s=1 pushed through k -> 2k
    t2 = _pmf_of([[(2.0 / 2.0) ** 2]], [0.0])  # the Gram matrix of 2Z under s = 2
    p2 = DiscretePMF(2 * t2.points, t2.masses, t2.tail_bound)
    p1 = exact_pmf(1.0)
    for pt in p1.points:
        assert p2.mass_at((2 * pt[0],)) == pytest.approx(p1.mass_at(pt), rel=1e-10)


def test_product_structure_n2():
    one = exact_pmf(1.2)
    two = _pmf_of(np.eye(2) / 1.2 ** 2, [0.0, 0.0])
    for (a,) in one.points:
        for (b,) in one.points:
            got = two.mass_at((a, b))
            if got:
                want = one.mass_at((a,)) * one.mass_at((b,))
                assert got == pytest.approx(want, rel=1e-9)


def test_enumerate_affine_matches_brute_force():
    rng = np.random.default_rng(3)
    grid = np.stack(np.meshgrid(np.arange(-100, 101), np.arange(-100, 101), indexing="ij"), axis=-1).reshape(-1, 2)
    for _ in range(20):
        A = rng.normal(size=(3, 2))
        x0 = np.linalg.lstsq(A, rng.normal(size=3), rcond=None)[0]  # the centre of a random b's coset
        r = 2.0
        T, norms = enumerate_affine(A.T @ A, x0, r)
        brute = np.linalg.norm((grid + x0) @ A.T, axis=1) <= r * (1 + 1e-12)
        assert not np.any(brute & (np.abs(grid).max(axis=1) == 100))  # the grid holds the ellipse
        assert {tuple(t) for t in T.tolist()} == {tuple(t) for t in grid[brute].tolist()}
        want = np.sum(((T + x0) @ A.T) ** 2, axis=1)
        assert norms == pytest.approx(want, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------- samplers


def test_banaszczyk_radius_is_the_least_radius_for_the_tail():
    from dgsum.gaussian import DUAL_TAIL

    for rank in (1, 2, 3, 8, 14):
        R = banaszczyk_radius(rank)
        assert banaszczyk_bound(rank, R) <= DUAL_TAIL < banaszczyk_bound(rank, R * (1 - 1e-9))
    assert banaszczyk_radius(0) == 0.0 and banaszczyk_bound(0, 1.0) == 0.0
    assert banaszczyk_bound(2, 0.5) == 1.0  # c <= 1 / sqrt(2 pi)


def _box(gram, x0, radius):
    """The integer points of the axis-aligned bounding box of the ellipsoid
    (t + x0)^T gram (t + x0) <= radius^2, in lexicographic order."""
    half = radius * np.sqrt(np.diag(np.linalg.inv(gram)))
    lo = np.floor(-x0 - half - 1e-9).astype(np.int64)
    hi = np.ceil(-x0 + half + 1e-9).astype(np.int64)
    grids = np.meshgrid(*[np.arange(l, h + 1) for l, h in zip(lo, hi)], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _box_and_mask(gram, x0, radius):
    """(T, norms): the points of ``_box`` kept where
    (t + x0)^T gram (t + x0) <= radius^2, and those squared norms."""
    T = _box(gram, x0, radius)
    V = T + x0
    norms = np.einsum("ij,ij->i", V @ gram, V)
    keep = norms <= radius * radius * (1 + 1e-12) + 1e-12
    return T[keep], norms[keep]


def _same(got, want):
    """The same points, and their squared norms to rounding."""
    return np.array_equal(got[0], want[0]) and np.allclose(got[1], want[1], rtol=1e-14, atol=0)


def test_enumerate_affine_matches_the_bounding_box(monkeypatch):
    import dgsum.gaussian

    rng = np.random.default_rng(4)
    for trial in range(150):
        k = int(rng.integers(1, 6))
        A = rng.normal(size=(k + int(rng.integers(0, 3)), k))
        b = rng.normal(size=len(A)) * 2 if trial % 2 else np.zeros(len(A))
        x0 = np.linalg.lstsq(A, b, rcond=None)[0]  # the centre of b's coset
        r = float(rng.uniform(0.3, 3.5))
        got = enumerate_affine(A.T @ A, x0, r)
        assert got[0].dtype == np.int64 and _same(got, _box_and_mask(A.T @ A, x0, r))
    # points on the boundary, where rounding in the triangular factor could drop them
    A = np.array([[3.0, 1.0], [0.0, 2.0], [1.0, 1.0]])
    x0 = np.array([0.25, -0.5])
    for r in (2.5, np.linalg.norm(A @ ([1, -1] + x0)), np.linalg.norm(A @ ([2, 3] + x0))):
        assert _same(enumerate_affine(A.T @ A, x0, r), _box_and_mask(A.T @ A, x0, r))
    # the partial points of each level are charged against the budget, read at call time
    monkeypatch.setattr(dgsum.gaussian, "ENUM_BUDGET", 10 ** 5)
    with pytest.raises(EnumerationBudgetExceeded, match="partial points"):
        enumerate_affine(np.eye(3) * 1e-4, np.zeros(3), 5.0)


def _basis_points(A, radius):
    """(T, norms): the t with ||A t|| <= radius, and their ||A t||^2, formed
    from the basis A, of the points that the Gram enumerator finds within a
    radius 1e-9 wider."""
    T = enumerate_affine(A.T @ A, np.zeros(A.shape[1]), radius * (1 + 1e-9))[0]
    w = T @ A.T
    norms = np.einsum("ij,ij->i", w, w)
    keep = norms <= radius * radius * (1 + 1e-12) + 1e-12
    return T[keep], norms[keep]


def _poisson_oracle(A):
    """The weight of every kept nonzero point, both of each pair, summed directly."""
    T, norms = _basis_points(A, banaszczyk_radius(A.shape[1]))
    return float(np.sum(np.exp(-math.pi * norms[np.any(T != 0, axis=1)])))


def test_poisson_sum_matches_a_direct_sum():
    rng = np.random.default_rng(8)
    for k in (1, 2, 3):
        A = rng.normal(size=(k + 1, k)) * 0.7
        ps = poisson_sum(A.T @ A)
        assert len(ps.points) and np.all(ps.points[np.arange(len(ps.points)), np.argmax(ps.points != 0, axis=1)] > 0)
        rng.normal(size=(7, k))  # the shifts of the deleted batched sums: the later matrices stay as drawn
        assert ps.mass == pytest.approx(_poisson_oracle(A), rel=1e-12, abs=0)
        # the tail is beta rho(L) with rho(L) bounded from the kept weight, and
        # covers the weight of the points just outside the radius
        beta = banaszczyk_bound(k, ps.radius)
        assert 0 < beta <= 2.0 ** -100 and ps.mass > 0
        assert ps.tail == pytest.approx(beta * (1 + ps.mass) / (1 - beta), rel=1e-12, abs=0)
        _, nrm = enumerate_affine(A.T @ A, np.zeros(k), 1.5 * ps.radius)
        assert float(np.sum(np.exp(-math.pi * nrm[nrm > ps.radius ** 2]))) <= ps.tail
    empty = poisson_sum(np.zeros((0, 0)))
    assert isinstance(empty, PoissonSum) and empty.mass == 0.0 and empty.tail == 0.0


def _basis_poisson_sum(A):
    """The points and weights of the PoissonSum of the lattice A Z^k as a
    basis gives them: a direct test on ||A t|| (``_basis_points``), one of
    each pair +-t, weights from ||A t||^2."""
    T, norms = _basis_points(A, banaszczyk_radius(A.shape[1]))
    lead = T[np.arange(len(T)), np.argmax(T != 0, axis=1)] > 0
    return T[lead], np.exp(-math.pi * norms[lead])


def test_gram_poisson_sum_matches_the_basis_one():
    # the Gram-built sum keeps the basis-built one's points, in its order.
    # Its weights e^{-pi ||A t||^2} agree to 1e-14 of pi || |A| |t| ||^2, the
    # size of the terms both routes sum for the exponent, relative to the
    # weight: float rounding of ||A t||^2, t^T (A^T A) t and of A^T A itself
    # is a multiple of that size, and at the truncation radius the exponent
    # alone is 57 to 81, so one rounding in it moves the weight by 1.4e-14.
    rng = np.random.default_rng(31)
    bases = [rng.normal(size=(k + int(rng.integers(0, 3)), k)) * rng.uniform(0.4, 1.2)
             for k in (1, 2, 2, 3, 3, 4, 5) for _ in range(3)]
    # a skewed basis of a lattice with an exact Gram matrix, as the package's
    # are (a scale times integers): condition number about 10^3
    B = np.array([[17, 16, 17, 0], [16, 15, 16, 0], [1, 0, 2, 1], [2, 0, 1, 2]])
    skewed = 0.75 * B
    assert 500 < np.linalg.cond(skewed) < 2000
    for A, gram in [(A, A.T @ A) for A in bases] + [(skewed, 0.5625 * (B.T @ B))]:
        T, w = _basis_poisson_sum(A)
        ps = poisson_sum(gram)
        assert len(T) and np.array_equal(ps.points, T)
        size = math.pi * np.sum((np.abs(T) @ np.abs(A).T) ** 2, axis=1)
        assert np.all(np.abs(np.log(ps.weights) - np.log(w)) <= 1e-14 * size)


def test_sampler_tables_and_draws_are_pinned():
    # the labels of the table of D_{Z + c, s} and 2 10^5 seeded draws from it,
    # over widths from far below to far above smoothing, hashed; the masses
    # are left out, as their last bits move with the order of roundings
    h = hashlib.sha256()
    for s in (0.3, 0.5, 1.0, 2.5, 3.0, 17.0, 1000.0):
        for c in (0.0, 0.25, -0.5, 0.3):
            pmf = exact_pmf(s, c)
            h.update(pmf.points.tobytes())
            h.update(draw_ints(pmf, 200_000, SampleStream(5)).tobytes())
    assert h.hexdigest() == "59ae94f8a417c538530577a61436b1cdab6e032c48103eea2b7e205b8ed8b6f9"


def test_sampler_determinism():
    st = SampleStream(seed=42, stream_id=7)
    a = draw_ints(exact_pmf(2.0), 1000, st)
    b = draw_ints(exact_pmf(2.0), 1000, st)
    assert np.array_equal(a, b)


def test_sampler_streams_differ():
    a = draw_ints(exact_pmf(2.0), 1000, SampleStream(1, stream_id=0))
    b = draw_ints(exact_pmf(2.0), 1000, SampleStream(1, stream_id=1))
    assert not np.array_equal(a, b)


def test_substream_derivation():
    st = SampleStream(5)
    assert st.substream(0) != st.substream(1)
    assert st.substream(3) == st.substream(3)
    ident = st.identity()
    assert ident["generator"] == "numpy.random.Philox"


def _digest(stream, k=64):
    return hashlib.sha256(stream.generator().integers(0, 2 ** 32, k, dtype=np.uint64).tobytes()).hexdigest()


def test_generator_keys_large_and_negative_seeds_mod_2_64():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top, last, minus = (_digest(SampleStream(s)) for s in (2 ** 63, 2 ** 64 - 1, -1))
        zero = _digest(SampleStream(0))
    assert len({top, last, zero}) == 3  # no longer all keyed with 0
    assert minus == last  # the key is the seed mod 2**64
    assert _digest(SampleStream(5, stream_id=-1)) == _digest(SampleStream(5, stream_id=2 ** 64 - 1))
    assert _digest(SampleStream(5, counter=2 ** 63)) != _digest(SampleStream(5, counter=0))


def test_generator_small_seed_streams_did_not_move():
    assert _digest(SampleStream(7)) == "6a8f19850349692913732ad6c1c6e5529a0233e6799fa31dc80ccbdec49a9f02"
    assert _digest(SampleStream(7, stream_id=3, counter=5)) == (
        "1ee2f27ea5a59527d381efcc75b2c669d531f8fc07b556564e6058c13ad5968a"
    )


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_sampler_matches_exact_pmf(s):
    N = 200_000
    pmf = exact_pmf(s)
    draws = draw_ints(pmf, N, SampleStream(2024, stream_id=int(10 * s)))
    counts = {}
    for k in draws:
        counts[(int(k),)] = counts.get((int(k),), 0) + 1
    assert tvd_from_counts(counts, pmf, N) < 0.01


def test_small_s_concentrates():
    pmf = exact_pmf(0.5)
    draws = draw_ints(pmf, 50_000, SampleStream(9))
    frac_small = np.mean(np.abs(draws) <= 1)
    assert frac_small > 0.999
    emp0 = np.mean(draws == 0)
    assert abs(emp0 - pmf.mass_at((0,))) < 0.01


def test_sample_dg_ints_is_the_coset_sampler_on_the_integers():
    # draws from the table of D_{Z,s} are those of the coset sampler on Z
    for s in (0.5, 3.0, 30.0):
        st = SampleStream(61, stream_id=int(s))
        ints = draw_ints(exact_pmf(s), 5000, st)
        assert ints.dtype == np.int64
        assert np.array_equal(ints, sample_dg_coset(s, [0.0], 5000, st)[:, 0])


def test_sample_dg_coset_draws_alike_at_c_and_c_plus_7():
    # Z + c is Z + c + 7: the same table, so the same points w + c, and
    # integer parts 7 apart, the half shifts and the integer ones included
    c = np.array([0.25, -0.5, 0.5, 0.0, -3.0, 0.375])
    for s in (0.3, 1.5, 9.0):
        a = sample_dg_coset(s, c, 3000, SampleStream(62))
        b = sample_dg_coset(s, c + 7, 3000, SampleStream(62))
        assert a.dtype == b.dtype == np.int64 and a.shape == (3000, 6)
        assert np.array_equal(a + c, b + (c + 7))
        assert np.array_equal(b, a - 7)


@pytest.mark.parametrize("s", [0.05, 0.5, 3.0, 30.0])
def test_integer_table_matches_a_direct_sum(s):
    # the sampler's table of D_{Z,s} against e^{-pi k^2 / s^2} summed
    # directly over |k| <= 40 s, with no truncation rule
    pmf = exact_pmf(s)
    k = np.arange(-math.ceil(40 * s), math.ceil(40 * s) + 1)
    w = np.exp(-math.pi * (k / s) ** 2)
    direct = w / float(np.sum(np.sort(w)))
    kept = np.isin(k, pmf.points[:, 0])
    assert kept.sum() == len(pmf.points) and pmf.tail_bound <= 2.0 ** -100
    np.testing.assert_allclose(pmf.masses, direct[kept], rtol=1e-13, atol=0)
    assert float(np.sum(direct[~kept])) <= pmf.tail_bound


def test_sample_dg_coset_iid_coordinates():
    st = SampleStream(77)
    vs = sample_dg_coset(2.0, [0.0] * 3, 50_000, st)
    assert vs.shape == (50_000, 3)
    pmf = exact_pmf(2.0)
    for i in range(3):
        counts = {}
        for k in vs[:, i]:
            counts[(int(k),)] = counts.get((int(k),), 0) + 1
        assert tvd_from_counts(counts, pmf, len(vs)) < 0.02


def test_sample_dg_coset_half_shift():
    st = SampleStream(79)
    vs = sample_dg_coset(1.0, [0.5], 50_000, st)
    assert vs.dtype == np.int64 and set(np.unique(vs).tolist()) >= {-1, 0}
    pmf = exact_pmf(1.0, 0.5)  # the labels w of the points w + 1/2
    counts = {}
    for w in vs[:, 0]:
        counts[(int(w),)] = counts.get((int(w),), 0) + 1
    assert tvd_from_counts(counts, pmf, len(vs)) < 0.02


def test_sample_dg_coset_integer_shift_matches_exact_pmf():
    # Z^2 + c is Z^2 for an integer c, weighted about 0: the points w + c
    # must not move with c
    from scipy import stats

    N = 100_000
    pmf = _square(exact_pmf(1.5))
    for c in ((3.0, -2.0), (0.0, 0.0)):
        vs = sample_dg_coset(1.5, c, N, SampleStream(81)) + np.array(c, dtype=np.int64)
        expected = N * pmf.masses
        cells = expected >= 5  # the rest pooled into one cell
        index = {p: i for i, p in enumerate(map(tuple, pmf.points.tolist()))}
        observed = np.zeros(len(expected))
        keys, freq = np.unique(vs, axis=0, return_counts=True)
        for key, f in zip(map(tuple, keys.tolist()), freq):
            observed[index[key]] += f
        obs = np.r_[observed[cells], N - observed[cells].sum()]
        exp = np.r_[expected[cells], N - expected[cells].sum()]
        assert stats.chisquare(obs, exp).pvalue > 1e-3, c


def test_sample_dg_coset_far_below_smoothing():
    # Z + 1/2 at s = 0.03: the sampler's table holds the two nearest points
    vs = sample_dg_coset(0.03, [0.5], 4000, SampleStream(82)) + 0.5
    assert set(vs[:, 0].tolist()) == {-0.5, 0.5}
    assert abs(float(np.mean(vs[:, 0] > 0)) - 0.5) < 0.05


# ---------------------------------------------------------------- pushforward


def test_push_to_lattice_basic():
    assert push_to_lattice(IntMatrix.identity(2), (3, -1)) == (3, -1)
    B = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert push_to_lattice(B, (1, 1)) == (2, 3)
    with pytest.raises(ValueError):
        push_to_lattice(B, (1, 1, 1))
    with pytest.raises(ValueError):
        push_to_lattice(IntMatrix.from_rows([[1, 1], [1, 1]]), (1, 1))


def test_pushforward_pmf_matches():
    # pmf of Z^2 under shape S, pushed through B, equals pmf of L(B) with shape S B^T
    B = IntMatrix.from_rows([[1, 0], [0, 2]])
    s = 1.5
    base = _square(exact_pmf(s))
    Bf = B.to_numpy()
    gram = Bf.T @ np.linalg.inv(s * s * Bf @ Bf.T) @ Bf  # the labels' Gram matrix under the shape s B^T
    t = _pmf_of(gram, [0.0, 0.0])
    target = DiscretePMF(t.points @ B.to_numpy(dtype=np.int64).T, t.masses, t.tail_bound)
    for pt, mass in zip(base.points, base.masses):
        img = push_to_lattice(B, pt)
        assert target.mass_at(img) == pytest.approx(float(mass), rel=1e-9)
