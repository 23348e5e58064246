"""Gaussian weights, coset pmfs, and the integer samplers."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from dgsum.gaussian import (
    DiscretePMF,
    GaussianShape,
    LatticeCoset,
    SampleStream,
    ball_tail_bound,
    coset_mass,
    enumerate_affine,
    exact_pmf,
    push_to_lattice,
    rho,
    sample_dg_coset,
    sample_dg_int,
    sample_dg_ints,
)
from dgsum.intmat import IntMatrix


def tvd_from_counts(counts: dict, pmf: DiscretePMF, N: int) -> float:
    ref = pmf.as_dict()
    keys = set(ref) | set(counts)
    return 0.5 * sum(abs(counts.get(k, 0) / N - ref.get(k, 0.0)) for k in keys)


# ---------------------------------------------------------------- rho


def test_rho_at_origin_and_symmetry():
    s = GaussianShape.spherical(1.0)
    assert rho(s, [0.0, 0.0]) == 1.0
    assert rho(s, [1.0, -2.0]) == pytest.approx(rho(s, [-1.0, 2.0]))


def test_rho_spherical_value():
    assert rho(GaussianShape.spherical(2.0), [1.0, 1.0]) == pytest.approx(
        math.exp(-math.pi / 2), rel=1e-12
    )
    assert math.exp(-math.pi / 2) == pytest.approx(0.207880, abs=1e-6)


def test_rho_ellipsoidal_matches_spherical():
    sph = GaussianShape.spherical(2.0)
    ell = GaussianShape.ellipsoidal(2.0 * np.eye(2))
    assert rho(ell, [1.0, 1.0]) == pytest.approx(rho(sph, [1.0, 1.0]), rel=1e-12)


def test_shape_validation():
    with pytest.raises(ValueError):
        GaussianShape.spherical(-1.0)
    with pytest.raises(ValueError):
        GaussianShape.ellipsoidal([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        GaussianShape(s=1.0, S=np.eye(2))


def test_shape_from_gram():
    G = np.array([[2.0, 1.0], [1.0, 2.0]])
    sh = GaussianShape.from_gram(G)
    assert np.allclose(sh.gram(2), G)


def test_singular_values_of_shapes():
    assert GaussianShape.spherical(3.0).sigma_min(4) == 3.0
    d = GaussianShape.ellipsoidal(np.diag([1.0, 3.0]))
    assert d.sigma_max() == pytest.approx(3.0)
    assert d.sigma_min() == pytest.approx(1.0)


# ---------------------------------------------------------------- coset mass / pmf


def test_coset_mass_integers():
    mass, tail = coset_mass(LatticeCoset.integers(1), GaussianShape.spherical(1.0), radius=10.0)
    # 1 + 2 e^{-pi} + 2 e^{-4 pi} + ...
    assert mass == pytest.approx(1.086435, abs=1e-6)
    assert tail < 1e-30


def test_coset_mass_shift_ratio_band():
    s = 1.3  # above the eps=0.01 smoothing bound for Z
    base, _ = coset_mass(LatticeCoset.integers(1), GaussianShape.spherical(s))
    shifted, _ = coset_mass(LatticeCoset.integers(1, (0.5,)), GaussianShape.spherical(s))
    eps = 0.01
    assert (1 - eps) / (1 + eps) <= shifted / base <= 1.0


def test_coset_mass_monotone_in_s():
    prev = 0.0
    for s in (0.5, 1.0, 2.0, 4.0):
        mass, _ = coset_mass(LatticeCoset.integers(2), GaussianShape.spherical(s), radius=8.0)
        assert mass > prev
        prev = mass


def test_coset_mass_empty_region_flagged():
    mass, tail = coset_mass(
        LatticeCoset.integers(1, (0.5,)), GaussianShape.spherical(1.0), radius=0.1
    )
    assert mass == 0.0 and tail == 1.0


def test_exact_pmf_center_mass():
    pmf = exact_pmf(LatticeCoset.integers(1), GaussianShape.spherical(1.0))
    assert pmf.mass_at((0,)) == pytest.approx(1 / 1.086435, abs=1e-5)
    assert pmf.points.dtype == np.int64 and pmf.points.shape == (pmf.support_size(), 1)
    # a non-integral coset keeps its float points
    half = exact_pmf(LatticeCoset.integers(1, (0.5,)), GaussianShape.spherical(1.0))
    assert half.points.dtype == np.float64 and half.mass_at((0.5,)) == half.mass_at((-0.5,)) > 0


def test_exact_pmf_symmetry():
    for s in (0.7, 1.0, 2.5):
        pmf = exact_pmf(LatticeCoset.integers(1), GaussianShape.spherical(s))
        for p in pmf.points:
            assert pmf.mass_at(p) == pytest.approx(pmf.mass_at((-p[0],)), rel=1e-12)


def test_exact_pmf_sums_to_one_within_tail():
    pmf = exact_pmf(LatticeCoset.integers(2), GaussianShape.spherical(1.5), radius=8.0)
    assert 1 - pmf.tail_bound <= float(pmf.masses.sum()) <= 1 + 1e-12


def test_tail_bound_monotone_in_radius():
    prev = 1.0
    for r in (2.0, 4.0, 8.0, 12.0):
        pmf = exact_pmf(LatticeCoset.integers(1), GaussianShape.spherical(1.0), radius=r)
        assert pmf.tail_bound <= prev
        prev = pmf.tail_bound


def test_scaled_lattice_pushforward():
    # pmf on 2Z at s=2 equals pmf on Z at s=1 pushed through k -> 2k
    p2 = exact_pmf(LatticeCoset.of([[2]]), GaussianShape.spherical(2.0))
    p1 = exact_pmf(LatticeCoset.integers(1), GaussianShape.spherical(1.0))
    for pt in p1.points:
        assert p2.mass_at((2 * pt[0],)) == pytest.approx(p1.mass_at(pt), rel=1e-10)


def test_product_structure_n2():
    one = exact_pmf(LatticeCoset.integers(1), GaussianShape.spherical(1.2))
    two = exact_pmf(LatticeCoset.integers(2), GaussianShape.spherical(1.2))
    for (a,) in one.points:
        for (b,) in one.points:
            got = two.mass_at((a, b))
            if got:
                want = one.mass_at((a,)) * one.mass_at((b,))
                assert got == pytest.approx(want, rel=1e-9)


def test_ball_tail_bound_properties():
    assert ball_tail_bound(0, 1.0) == 0.0
    assert ball_tail_bound(2, 0.5) == 1.0  # vacuous below c = 1
    assert ball_tail_bound(1, 12.0) < 2 ** -100
    assert ball_tail_bound(2, 6.0) < ball_tail_bound(2, 4.0)


def test_enumerate_affine_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = rng.normal(size=(3, 2))
        b = rng.normal(size=3)
        r = 2.0
        T = enumerate_affine(A, b, r)
        got = {tuple(t) for t in T.tolist()}
        brute = set()
        for i in range(-20, 21):
            for j in range(-20, 21):
                if np.linalg.norm(A @ [i, j] + b) <= r * (1 + 1e-12):
                    brute.add((i, j))
        assert got == brute


# ---------------------------------------------------------------- samplers


def test_sampler_determinism():
    st = SampleStream(seed=42, stream_id=7)
    a = sample_dg_ints(2.0, 1000, st)
    b = sample_dg_ints(2.0, 1000, st)
    assert np.array_equal(a, b)
    assert sample_dg_int(2.0, st) == int(a[0])


def test_sampler_streams_differ():
    a = sample_dg_ints(2.0, 1000, SampleStream(1, stream_id=0))
    b = sample_dg_ints(2.0, 1000, SampleStream(1, stream_id=1))
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
    draws = sample_dg_ints(s, N, SampleStream(2024, stream_id=int(10 * s)))
    pmf = exact_pmf(LatticeCoset.integers(1), GaussianShape.spherical(s))
    counts = {}
    for k in draws:
        counts[(int(k),)] = counts.get((int(k),), 0) + 1
    assert tvd_from_counts(counts, pmf, N) < 0.01


def test_small_s_concentrates():
    draws = sample_dg_ints(0.5, 50_000, SampleStream(9))
    frac_small = np.mean(np.abs(draws) <= 1)
    assert frac_small > 0.999
    pmf = exact_pmf(LatticeCoset.integers(1), GaussianShape.spherical(0.5))
    emp0 = np.mean(draws == 0)
    assert abs(emp0 - pmf.mass_at((0,))) < 0.01


def test_sample_dg_coset_iid_coordinates():
    st = SampleStream(77)
    vs = sample_dg_coset(LatticeCoset.integers(3), GaussianShape.spherical(2.0), st, size=50_000)
    assert vs.shape == (50_000, 3)
    pmf = exact_pmf(LatticeCoset.integers(1), GaussianShape.spherical(2.0))
    for i in range(3):
        counts = {}
        for k in vs[:, i]:
            counts[(int(k),)] = counts.get((int(k),), 0) + 1
        assert tvd_from_counts(counts, pmf, len(vs)) < 0.02


def test_sample_dg_coset_diagonal_marginals():
    st = SampleStream(78)
    shape = GaussianShape.ellipsoidal(np.diag([1.0, 3.0]))
    vs = sample_dg_coset(LatticeCoset.integers(2), shape, st, size=50_000)
    for i, s in enumerate((1.0, 3.0)):
        pmf = exact_pmf(LatticeCoset.integers(1), GaussianShape.spherical(s))
        counts = {}
        for k in vs[:, i]:
            counts[(int(k),)] = counts.get((int(k),), 0) + 1
        assert tvd_from_counts(counts, pmf, len(vs)) < 0.02


def test_sample_dg_coset_half_shift():
    st = SampleStream(79)
    coset = LatticeCoset.integers(1, (0.5,))
    vs = sample_dg_coset(coset, GaussianShape.spherical(1.0), st, size=50_000)
    assert np.allclose(vs - np.floor(vs), 0.5)
    pmf = exact_pmf(coset, GaussianShape.spherical(1.0))
    counts = {}
    for v in vs[:, 0]:
        counts[(float(v),)] = counts.get((float(v),), 0) + 1
    assert tvd_from_counts(counts, pmf, len(vs)) < 0.02


def test_sample_dg_coset_table_path():
    # non-diagonal shape forces the table path
    S = np.array([[1.0, 0.6], [0.0, 1.0]])
    st = SampleStream(80)
    vs = sample_dg_coset(LatticeCoset.integers(2), GaussianShape.ellipsoidal(S), st, size=2000)
    assert vs.shape == (2000, 2)
    assert np.allclose(vs, np.round(vs))


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
    base = exact_pmf(LatticeCoset.integers(2), GaussianShape.spherical(s), radius=8.0)
    Bf = B.to_numpy()
    pushed_shape = GaussianShape.ellipsoidal(s * Bf.T)
    target = exact_pmf(LatticeCoset.of(B.rows), pushed_shape, radius=8.0)
    for pt, mass in zip(base.points, base.masses):
        img = push_to_lattice(B, pt)
        assert target.mass_at(img) == pytest.approx(float(mass), rel=1e-9)
