"""Quality certificates, collision searches, and threshold formulas."""

import math

import numpy as np
import pytest

from dgsum.gaussian import SampleStream, draw_ints, exact_pmf
from dgsum.intmat import IntMatrix, dot, fraction_rank, norm_sq
from dgsum.lattice import integer_kernel, lll_reduce, smoothing_bound, successive_minima_upper
from dgsum import quality
from dgsum.quality import (
    CollisionNotFound,
    CollisionSearchParams,
    SurjectivityError,
    certify_quality,
    column_bound,
    exact_dual_fallback,
    find_dual_vectors,
    kernel_norm_bound_sq_ceil,
    short_kernel_vectors,
    pigeonhole_collision,
    distance_threshold,
    parameter_check,
)
from dgsum.quality import _collision_dual_vector

X2 = IntMatrix.from_rows([[1, 0, 1], [0, 1, 1]])


def draw_X(n, m, s, stream):
    for k in range(100):
        cols = draw_ints(exact_pmf(s), n * m, stream.substream(k)).reshape(n, m)
        X = IntMatrix.from_rows(cols.tolist())
        if fraction_rank(X.rows) == n:
            return X
    raise RuntimeError("no full-rank draw")


# ---------------------------------------------------------------- column bound


def test_column_bound_examples():
    X = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
    assert column_bound(X) == 1.0
    assert column_bound(X2) == pytest.approx(math.sqrt(2))


def test_column_bound_random_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(50):
        X = IntMatrix.from_rows(rng.integers(-6, 7, size=(3, 5)).tolist())
        brute = max(sum(row[j] ** 2 for row in X.rows) for j in range(5))
        assert column_bound(X) == pytest.approx(math.sqrt(brute), rel=1e-12)


# ---------------------------------------------------------------- pigeonhole


def test_pigeonhole_duplicate_vectors():
    alpha = pigeonhole_collision([(1,), (1,)], 1, SampleStream(3))
    assert alpha in ((1, -1), (-1, 1))


def test_pigeonhole_visible_relation():
    alpha = pigeonhole_collision([(1, 0), (0, 1), (1, 1)], 1, SampleStream(4))
    assert any(alpha)
    assert all(a in (-1, 0, 1) for a in alpha)
    assert alpha[0] * 1 + alpha[2] * 1 == 0 and alpha[1] * 1 + alpha[2] * 1 == 0


def test_pigeonhole_random_batch():
    rng = np.random.default_rng(6)
    n, B = 3, 4
    ell = int(2 * n * math.log2(B * n))
    for trial in range(50):
        xs = [tuple(int(v) for v in rng.integers(-B, B + 1, size=n)) for _ in range(ell)]
        alpha = pigeonhole_collision(xs, B, SampleStream(100 + trial))
        assert any(alpha) and all(a in (-1, 0, 1) for a in alpha)
        for k in range(n):
            assert sum(a * x[k] for a, x in zip(alpha, xs)) == 0


def test_pigeonhole_bound_violation():
    with pytest.raises(ValueError):
        pigeonhole_collision([(9,)], 2, SampleStream(0))


# ---------------------------------------------------------------- birthday search oracles
#
# The two per-row loops that the shared birthday search replaced, kept as
# references: the search must return exactly what they return.


def oracle_pigeonhole(xs, B, stream, max_probes=500_000, memory_budget=1 << 21):
    xs_int = [tuple(int(v) for v in x) for x in xs]
    ell = len(xs_int)
    if any(abs(v) > B for x in xs_int for v in x):
        raise ValueError("infinity norm bound violated")
    M = np.array(xs_int, dtype=np.int64)
    gen = stream.generator()
    table = {}
    probes = 0
    while probes < max_probes:
        batch = min(4096, max_probes - probes)
        masks = gen.integers(0, 2, size=(batch, ell), dtype=np.int8)
        sums = masks.astype(np.int64) @ M
        for mask, s in zip(masks, sums):
            key = tuple(int(v) for v in s)
            prev = table.get(key)
            if prev is not None:
                alpha = tuple(int(a) - int(b) for a, b in zip(mask, prev))
                if any(alpha):
                    return alpha
            elif len(table) < memory_budget:
                table[key] = mask.copy()
        probes += batch
    raise CollisionNotFound(f"no 0/1 collision within {max_probes} probes")


def oracle_dual_vector(rows, target_index, prefix, stream, max_probes=200_000, memory_budget=1 << 20):
    d = len(rows)
    m = len(rows[0])
    prefix = min(prefix, m)
    cols = np.array([[rows[i][j] for i in range(d)] for j in range(prefix)], dtype=np.int64)
    e = np.zeros(d, dtype=np.int64)
    e[target_index] = 1
    gen = stream.generator()
    if prefix < 16:
        max_probes = min(max_probes, 4 * 3 ** prefix)
    table = {}
    probes = 0
    while probes < max_probes:
        batch = min(4096, max_probes - probes)
        coeffs = gen.integers(-1, 2, size=(batch, prefix), dtype=np.int8)
        sums = coeffs.astype(np.int64) @ cols
        for coeff, s in zip(coeffs, sums):
            hit = table.get(tuple(int(v) for v in (s - e)))
            if hit is not None:
                u = -np.concatenate([hit.astype(np.int64) - coeff.astype(np.int64), np.zeros(m - prefix, dtype=np.int64)])
                return tuple(int(v) for v in u)
            hit = table.get(tuple(int(v) for v in (s + e)))
            if hit is not None:
                u = -np.concatenate([coeff.astype(np.int64) - hit.astype(np.int64), np.zeros(m - prefix, dtype=np.int64)])
                return tuple(int(v) for v in u)
            if tuple(int(v) for v in s) not in table and len(table) < memory_budget:
                table[tuple(int(v) for v in s)] = coeff.copy()
        probes += batch
    return None


def _pigeonhole_or_none(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except CollisionNotFound:
        return None


def test_birthday_search_matches_pigeonhole_oracle(monkeypatch):
    # a smaller probe cap keeps the relation-free inputs cheap; both sides use it
    cap = 20_000
    monkeypatch.setattr(quality, "PIGEONHOLE_MAX_PROBES", cap)
    rng = np.random.default_rng(12)
    outcomes = set()
    for i in range(300):
        n, B = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        if i % 3 == 0:  # a duplicated vector among a few others
            ell = int(rng.integers(2, 6))
            xs = [tuple(int(v) for v in rng.integers(-B, B + 1, size=n)) for _ in range(ell - 1)]
            xs.insert(int(rng.integers(0, ell)), xs[int(rng.integers(0, ell - 1))])
        else:  # the lemma's length; B n = 1 gives a single vector and no relation
            ell = max(int(2 * n * math.log2(B * n)), 1)
            xs = [tuple(int(v) for v in rng.integers(-B, B + 1, size=n)) for _ in range(ell)]
        want = _pigeonhole_or_none(oracle_pigeonhole, xs, B, SampleStream(700 + i), max_probes=cap)
        got = _pigeonhole_or_none(pigeonhole_collision, xs, B, SampleStream(700 + i))
        assert got == want, (i, xs)
        outcomes.add(want is None)
    assert outcomes == {True, False}


def test_birthday_search_matches_dual_vector_oracle():
    rng = np.random.default_rng(11)
    outcomes = set()
    short = 0
    for i in range(300):
        d, m = int(rng.integers(1, 6)), int(rng.integers(2, 24))
        rows = [tuple(int(v) for v in r) for r in rng.integers(-3, 4, size=(d, m))]
        # every other prefix is short, where the probe cap is 4 * 3^prefix
        prefix = m if i % 2 else int(rng.integers(1, min(m, 8) + 1))
        target = int(rng.integers(0, d))
        want = oracle_dual_vector(rows, target, prefix, SampleStream(500 + i))
        got = _collision_dual_vector(rows, target, prefix, SampleStream(500 + i))
        assert got == want, (i, rows, target, prefix)
        outcomes.add(want is None)
        short += prefix < 16
    assert outcomes == {True, False} and short >= 150


class _Replay:
    """A stream whose generator hands out prepared coefficient rows in order,
    in the sizes the search asks for.  ``bit_generator.state`` is the read
    position, so a search that sets it back re-reads the same rows."""

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def generator(self):
        coeffs = self.coeffs

        class Bits:
            state = 0

        class Gen:
            bit_generator = Bits()

            def integers(self, low, high, size, dtype):
                pos = self.bit_generator.state
                rows = coeffs[pos:pos + size[0]]
                assert rows.shape == size and low <= rows.min() and rows.max() < high
                self.bit_generator.state = pos + size[0]
                return rows.astype(dtype)

        return Gen()


def _pigeonhole_rows(count, hit_probe, rng):
    """xs = 1, 2, 4, .., 2^12, 1 and 0/1 rows with no relation (the last
    coefficient 0) except at probe ``hit_probe`` (1-based), which repeats an
    earlier row's sum by moving its first coefficient to the last vector."""
    xs = [(1 << k,) for k in range(13)] + [(1,)]
    rows = rng.integers(0, 2, size=(count, len(xs)), dtype=np.int8)
    rows[:, -1] = 0
    if hit_probe is not None:
        j = int(np.flatnonzero(rows[:hit_probe - 1, 0])[0])
        rows[hit_probe - 1] = rows[j]
        rows[hit_probe - 1, [0, -1]] = (0, 1)
    return xs, rows


def _dual_rows(count, hit_probe, rng):
    """One row (1, 3, 9, .., 3^7) and {-1,0,1} rows whose sums are multiples
    of 3 (first coefficient 0), so no two differ by +-1, except at probe
    ``hit_probe`` (1-based): an earlier row with first coefficient +1 (sum
    + 1, offset +e) at an even probe and -1 (sum - 1, offset -e) at an odd one."""
    rows = rng.integers(-1, 2, size=(count, 8), dtype=np.int8)
    rows[:, 0] = 0
    if hit_probe is not None:
        rows[hit_probe - 1] = rows[int(rng.integers(0, hit_probe - 1))]
        rows[hit_probe - 1, 0] = 1 if hit_probe % 2 == 0 else -1
    return [tuple(3 ** k for k in range(8))], rows


# the search builds sums for blocks of 64, 256, 1024, .. rows of a 4096-row batch
BLOCK_EDGES = (64, 65, 320, 321, 4096 + 64, 4096 + 65)


@pytest.mark.parametrize("hit_probe", BLOCK_EDGES + (None,))
def test_birthday_pigeonhole_hits_at_block_edges(monkeypatch, hit_probe):
    cap = 10_000  # a miss runs through two full batches and part of a third
    monkeypatch.setattr(quality, "PIGEONHOLE_MAX_PROBES", cap)
    xs, rows = _pigeonhole_rows(cap, hit_probe, np.random.default_rng(hit_probe or 0))
    B = 1 << 12
    want = _pigeonhole_or_none(oracle_pigeonhole, xs, B, _Replay(rows), max_probes=cap)
    assert _pigeonhole_or_none(pigeonhole_collision, xs, B, _Replay(rows)) == want
    if hit_probe is None:
        assert want is None
    else:  # the first hit is at hit_probe exactly
        assert want == (-1,) + (0,) * 12 + (1,)
        assert _pigeonhole_or_none(oracle_pigeonhole, xs, B, _Replay(rows), max_probes=hit_probe - 1) is None


@pytest.mark.parametrize("hit_probe", BLOCK_EDGES + (None,))
def test_birthday_dual_vector_hits_at_block_edges(hit_probe):
    cap = 4 * 3 ** 8  # the probe cap at prefix 8: six full batches and part of a seventh
    rows_x, coeffs = _dual_rows(cap, hit_probe, np.random.default_rng(hit_probe or 0))
    want = oracle_dual_vector(rows_x, 0, 8, _Replay(coeffs))
    assert _collision_dual_vector(rows_x, 0, 8, _Replay(coeffs)) == want
    if hit_probe is None:
        assert want is None
    else:
        assert want == (1,) + (0,) * 7
        assert oracle_dual_vector(rows_x, 0, 8, _Replay(coeffs), max_probes=hit_probe - 1) is None


# ---------------------------------------------------------------- prefix redraws
#
# The search draws only the rows up to the end of the block it probes, by
# setting the generator back to the batch's start and drawing a prefix.  That
# rests on numpy filling the array row by row.


def _same_state(a, b):
    """Equality of two bit-generator states (nested dicts holding arrays)."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("low", [-1, 0])
@pytest.mark.parametrize("ell", [1, 3, 8, 15])
def test_numpy_prefix_draw_equals_full_batch_prefix(low, ell):
    for seed in range(3):
        gen = SampleStream(seed, stream_id=ell).generator()
        state = gen.bit_generator.state
        full = gen.integers(low, 2, size=(4096, ell), dtype=np.int8)
        after = gen.bit_generator.state
        for k in (1, 64, 320, 1344):
            gen.bit_generator.state = state
            assert np.array_equal(gen.integers(low, 2, size=(k, ell), dtype=np.int8), full[:k])
        gen.bit_generator.state = state
        gen.integers(low, 2, size=(4096, ell), dtype=np.int8)
        assert _same_state(gen.bit_generator.state, after)


class _Recording:
    """A stream whose generator is a real one that records each draw's row count."""

    def __init__(self, seed):
        self.seed, self.sizes = seed, []

    def generator(self):
        gen, sizes = SampleStream(self.seed).generator(), self.sizes

        class Gen:
            bit_generator = gen.bit_generator

            def integers(self, low, high, size, dtype):
                sizes.append(size[0])
                return gen.integers(low, high, size=size, dtype=dtype)

        self.gen = Gen()
        return self.gen


def test_birthday_early_hit_draws_one_block():
    # two equal vectors: the first probe with exactly one of them set repeats
    # an earlier sum within a few probes
    stream = _Recording(3)
    assert pigeonhole_collision([(1,), (1,)], 1, stream) in ((1, -1), (-1, 1))
    assert stream.sizes == [64]


def test_birthday_miss_leaves_generator_where_full_batches_do():
    # powers of two: every 0/1 row has its own sum, so no probe ever hits
    ell, cap = 13, 2 * 4096 + 100
    cols = np.array([[1 << k] for k in range(ell)], dtype=np.int64)
    stream = _Recording(4)
    assert quality._birthday(stream.generator(), 0, cols, [np.zeros(1, np.int64)], cap) is None
    oracle = SampleStream(4).generator()
    for batch in (4096, 4096, 100):
        oracle.integers(0, 2, size=(batch, ell), dtype=np.int8)
    assert _same_state(stream.gen.bit_generator.state, oracle.bit_generator.state)
    # each batch ends by redrawing the whole batch
    assert stream.sizes == [64, 320, 1344, 4096] * 2 + [64, 100]


# ---------------------------------------------------------------- dual vectors


def test_find_dual_vectors_hand_instance():
    us = find_dual_vectors(X2, stream=SampleStream(1))
    cert = certify_quality(X2, us)
    assert cert.verified


def test_find_dual_vectors_identity_submatrix():
    X = IntMatrix.from_rows([[1, 0, 2, 3], [0, 1, 1, -1]])
    us = find_dual_vectors(X, stream=SampleStream(2))
    assert certify_quality(X, us).verified


def test_exact_dual_fallback_surjectivity_error():
    for rows in ([[2]], [[1, 1, 0], [2, 2, 0]]):  # not onto; rank-deficient
        with pytest.raises(SurjectivityError):
            exact_dual_fallback(IntMatrix.from_rows(rows))


# full row rank, but every entry is even, so X Z^m = 2Z
NOT_ONTO = IntMatrix.from_rows([[-4, -2, 2, 2, 4] * 4])


def test_find_dual_vectors_rejects_not_onto_before_probing(monkeypatch):
    probes = []
    monkeypatch.setattr(quality, "_birthday", lambda *args: probes.append(args))
    for X in (NOT_ONTO, IntMatrix.from_rows([[1, 1, 0], [2, 2, 0]])):
        with pytest.raises(SurjectivityError):
            find_dual_vectors(X, stream=SampleStream(1))
    assert probes == []


def test_exact_dual_fallback_hand_instance():
    us = exact_dual_fallback(X2)
    cert = certify_quality(X2, us)
    assert cert.verified and cert.q2 <= math.sqrt(2) + 1e-12


def test_fallback_and_search_share_verifier():
    for X in (X2, IntMatrix.from_rows([[1, 1, 0], [0, 1, 1]])):
        a = certify_quality(X, find_dual_vectors(X, stream=SampleStream(5)))
        b = certify_quality(X, exact_dual_fallback(X))
        assert a.verified and b.verified
        assert a.q1 == b.q1  # column bound is a property of X alone


def test_search_params_schedule():
    p = CollisionSearchParams.for_matrix(X2)
    s1 = float(np.linalg.svd(X2.to_numpy(), compute_uv=False)[0])
    assert p.sigma1 == s1
    assert p.t == pytest.approx(3 * 2 * math.log2(s1 * 2))
    assert p.prefix_budget == min(3, int(10 * p.t))


# ---------------------------------------------------------------- certification


def test_certify_hand_instance():
    cert = certify_quality(X2, [(1, 0, 0), (0, 1, 0)])
    assert cert.verified
    assert cert.q1 == pytest.approx(math.sqrt(2))
    assert cert.q2 == 1.0


def test_certify_duality_violation():
    cert = certify_quality(X2, [(0, 1, 0), (1, 0, 0)])
    assert not cert.verified and cert.failure.startswith("duality")


def test_certify_orthogonality_violation():
    X = IntMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]])
    cert = certify_quality(X, [(1, 0, 1, 0), (0, 1, 1, 0)])
    assert not cert.verified and cert.failure.startswith("orthogonality")


def test_certify_shape_violation():
    cert = certify_quality(X2, [(1, 0, 0)])
    assert not cert.verified and cert.failure == "shape"


def test_certificate_json_round_trip():
    import json

    cert = certify_quality(X2, [(1, 0, 0), (0, 1, 0)])
    d = json.loads(json.dumps(cert.to_json_dict()))
    assert d["verified"] and d["u"] == [[1, 0, 0], [0, 1, 0]]


# ---------------------------------------------------------------- short kernel vectors


def test_short_kernel_hand_instance():
    cert = certify_quality(X2, [(1, 0, 0), (0, 1, 0)])
    skv = short_kernel_vectors(X2, cert)
    assert skv.v[2] == (-1, -1, 1)
    assert norm_sq(skv.v[2]) == 3
    assert skv.norm_bound == pytest.approx(1 + math.sqrt(2))
    assert len(skv.independent_subset) == 1


def test_short_kernel_unit_column_specialization():
    X = IntMatrix.from_rows([[1, 0, 2], [0, 1, 1]])
    cert = certify_quality(X, [(1, 0, 0), (0, 1, 0)])
    skv = short_kernel_vectors(X, cert)
    # column 0 is e_1, so v_0 = e_0 - u_1
    assert skv.v[0] == tuple(a - b for a, b in zip((1, 0, 0), cert.u[0]))


def test_short_kernel_requires_verified():
    bad = certify_quality(X2, [(0, 1, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        short_kernel_vectors(X2, bad)


def test_kernel_bound_ceil_exact():
    assert kernel_norm_bound_sq_ceil(X2, [(1, 0, 0), (0, 1, 0)]) == math.ceil((1 + math.sqrt(2)) ** 2)


def test_short_kernel_random_chain():
    st = SampleStream(31)
    done = 0
    trial = 0
    while done < 30:
        trial += 1
        n = 1 + done % 3
        m = n + 2 + (done % 4)
        X = draw_X(n, m, 2.0, st.substream(trial))
        try:
            us = exact_dual_fallback(X)
        except (SurjectivityError, CollisionNotFound):
            continue
        cert = certify_quality(X, us)
        if not cert.verified:
            continue
        skv = short_kernel_vectors(X, cert)
        bound_sq = kernel_norm_bound_sq_ceil(X, cert.u)
        for v in skv.v:
            assert all(x == 0 for x in X @ v)
            assert norm_sq(v) <= bound_sq
        assert len(skv.independent_subset) == m - n
        # the subset one full rank per candidate would pick
        subset, chosen = [], []
        for k, v in enumerate(skv.v):
            if len(subset) < m - n and fraction_rank(chosen + [v]) > len(chosen):
                subset.append(k)
                chosen.append(v)
        assert skv.independent_subset == tuple(subset)
        # the certified vectors pin the last reduced kernel length under the bound
        lams = successive_minima_upper(lll_reduce(integer_kernel(X)))
        assert lams[-1] <= skv.norm_bound + 1e-9
        # reduced basis is at least as short as the certified subset's worst vector
        skv_max = max(math.sqrt(norm_sq(skv.v[k])) for k in skv.independent_subset)
        assert lams[-1] <= skv_max + 1e-9
        done += 1


# ---------------------------------------------------------------- thresholds


def test_distance_threshold_value():
    got = distance_threshold(1.0, 1.0, 3, 1, 0.001)
    assert got == pytest.approx(2 * math.sqrt(math.log(4004) / math.pi), rel=1e-12)
    assert got == pytest.approx(3.2499, abs=1e-4)


def test_distance_threshold_scaling_and_monotonicity():
    base = distance_threshold(1.0, 1.0, 4, 2, 0.01)
    assert distance_threshold(1.0, 3.0, 4, 2, 0.01) == pytest.approx(2 * base, rel=1e-12)
    assert distance_threshold(1.0, 1.0, 4, 2, 0.001) > base
    with pytest.raises(ValueError):
        distance_threshold(1.0, 1.0, 2, 2, 0.01)
    with pytest.raises(ValueError):
        distance_threshold(1.0, 1.0, 4, 2, 0.5)


def test_threshold_smoothing_composition():
    # threshold = (1 + q1 q2) * smoothing bound of the rank m-n kernel at lambda = 1
    for (q1, q2, m, n, eps) in [(1.0, 1.0, 3, 1, 0.001), (2.0, 1.5, 6, 2, 0.01)]:
        thr = distance_threshold(q1, q2, m, n, eps)
        want = (1 + q1 * q2) * smoothing_bound(m - n, eps, 1.0).value
        assert thr == pytest.approx(want, rel=1e-12)


def test_parameter_check_report():
    rep = parameter_check(100, 100_000, 1e-4, 3.0, 1e9)
    assert rep["s_condition"]["rhs"] == pytest.approx(
        9 * math.sqrt(math.log(200 * 10001) / math.pi), rel=1e-9
    )
    assert rep["s_condition"]["rhs"] == pytest.approx(19.34, abs=0.01)
    assert rep["m_condition"]["holds"] and rep["r_condition"]["holds"]
    assert rep["applicability_gate"]["holds"]
    small = parameter_check(2, 16, 0.01, 3.0, 1e9)
    assert not small["applicability_gate"]["holds"]
    assert "lhs" in small["m_condition"] and "rhs" in small["m_condition"]
    # no width to test (no certified trial): the r condition fails
    none = parameter_check(2, 16, 0.01, 3.0, None)["r_condition"]
    assert none == {"lhs": None, "rhs": small["r_condition"]["rhs"], "holds": False}
