"""Class pmfs and the per-label pmfs read from them, exact/Monte-Carlo statistical distance, bound evaluators."""

import math

import numpy as np
import pytest

from dgsum.gaussian import (
    DiscretePMF,
    EnumerationBudgetExceeded,
    PoissonSum,
    SampleStream,
    banaszczyk_radius,
    sample_dg_coset,
)
from dgsum.intmat import IntMatrix, InvariantViolation, SurjectivityError, adjugate, is_surjective, solve_integer
from dgsum.lattice import RankError, integer_kernel, smoothing_bound
from dgsum.tvd import (
    ULP,
    FiberWorkspace,
    class_tvd,
    exact_output_pmf,
    exact_tvd,
    mc_tvd,
    ratio_band_check,
    shift_bound_eval,
    tail_bound_eval,
    target_pmf,
    _theta_table,
)
from dgsum.quality import distance_threshold
from primal_oracle import DualSections, PrimalSections, check_kernel_basis, particular_map, primal_tvd

X11 = IntMatrix.from_rows([[1, 1]])
R2 = 2.0 * np.eye(2)  # the oracles' shape of D_{Z^2, 2}


def _at_zero(X, r):
    """The workspace of (X, r) at c = 0."""
    return FiberWorkspace(X, r, [0.0] * X.n_cols)


# ---------------------------------------------------------------- fibers


def test_fiber_zero_mass():
    ws = FiberWorkspace(X11, 2.0, [0.0, 0.0])
    # sum_k exp(-pi * 2 k^2 / 4) over the kernel line k (1,-1)
    assert ws.fiber_weight([0]) == pytest.approx(1.419495, abs=1e-5)
    for v in PrimalSections(X11, R2, [0.0, 0.0]).fiber([0])[1]:
        assert int(round(v[0] + v[1])) == 0


def test_fiber_shifted_smaller():
    ws = FiberWorkspace(X11, 2.0, [0.0, 0.0])
    assert ws.fiber_weight([1]) < ws.fiber_weight([0])


def test_fiber_points_coset_structure():
    _, points = PrimalSections(X11, R2, [0.0, 0.0]).fiber([2])
    K = integer_kernel(X11).matrix
    base = points[0]
    for v in points[1:]:
        diff = [int(round(a - b)) for a, b in zip(v, base)]
        assert solve_integer(K, diff) is not None


def test_fiber_unimodular_single_point():
    X = IntMatrix.from_rows([[1, 1], [0, 1]])
    _, points = PrimalSections(X, R2, [0.0, 0.0]).fiber([3, 1])
    assert len(points) == 1
    v = points[0]
    rho = math.exp(-math.pi * float(v @ v) / 4.0)  # rho_2(v)
    assert FiberWorkspace(X, 2.0, [0.0, 0.0]).fiber_weight([3, 1]) == pytest.approx(rho, rel=1e-12, abs=0)
    assert tuple(int(round(x)) for x in X.to_numpy() @ v) == (3, 1)


def test_fiber_not_in_support():
    X = IntMatrix.from_rows([[2, 2]])
    with pytest.raises(SurjectivityError):
        FiberWorkspace(X, 2.0, [0.0, 0.0])
    # the class TVD, with no workspace, runs the same checks
    with pytest.raises(SurjectivityError, match="no fiber"):
        class_tvd(X, 2.0, [0.0, 0.0])
    # the lattice's one rank check, with the kernel report's message
    with pytest.raises(RankError, match=r"full row rank: kernel rank 1 != m - n = 0"):
        class_tvd(IntMatrix.from_rows([[1, 1], [1, 1]]), 2.0, [0.0, 0.0])
    with pytest.raises(ValueError, match="shift dimension mismatch"):
        class_tvd(X11, 2.0, [0.0])


def test_fiber_weight_matches_fiber():
    ws = FiberWorkspace(X11, 2.0, [0.0, 0.0])
    oracle = PrimalSections(X11, R2, [0.0, 0.0])
    for z in ([-2], [0], [3]):
        assert ws.fiber_weight(z) == pytest.approx(oracle.fiber(z)[0], rel=1e-12)


def test_fiber_weight_far_below_smoothing():
    # X c = (0.4995, 0): the target weights of the region's labels shrink
    # like e^{-pi 0.25 / r^2}, and the fiber weight is rho_r(Z^4 + c) P_k /
    # Q_k^reg times the label's weight over the heaviest one's, which is the
    # region's own weight.  At r = 0.035 target_weight(z) rho underflows
    # though the fiber weight does not; at r = 0.005 both target weights
    # underflow (0/0 for their quotient), and so does rho_r(Z^4 + c) <=
    # e^{-pi (0.4995 / r)^2}: the fiber weight is 0.
    X = IntMatrix.from_rows([[1, 0, 1, 1], [0, 1, 1, -1]])
    for r in (0.035, 0.005):
        ws = FiberWorkspace(X, r, [0.4995, 0.0, 0.0, 0.0])
        _, index, Wk, P, _, rho = ws.classes
        T, w, _ = ws.target_region
        assert len(T) == 2
        for z, wz, k in zip(T, w, index):
            want = wz * rho * P[k] / Wk[k]
            assert ws.fiber_weight(z) == pytest.approx(want, rel=1e-12, abs=0), (r, z)
        assert (rho > 1e-300) == (r == 0.035) and ws.target_weight(T[int(np.argmax(w))]) < 1e-90


def test_workspace_particular_matches_solve_integer():
    rng = np.random.default_rng(5)
    # a non-surjective X first: its image is 2Z x Z
    mats = [IntMatrix.from_rows([[2, 0, 2], [0, 1, 1]])]
    while len(mats) < 40:
        n = int(rng.integers(1, 4))
        X = IntMatrix.from_rows(rng.integers(-3, 4, size=(n, int(rng.integers(n, n + 3)))).tolist())
        if np.linalg.matrix_rank(X.to_numpy()) == n:
            mats.append(X)
    onto = 0
    for X in mats:
        n, m = X.shape
        c = rng.normal(size=m)
        if not is_surjective(X):
            with pytest.raises(SurjectivityError):
                FiberWorkspace(X, 0.5, c)
            continue
        onto += 1
        ws = FiberWorkspace(X, 0.5, c)
        assert np.array_equal(ws.c, c - np.round(c))  # reduced mod Z^m once, at construction
        P = particular_map(X)  # the oracles' particular map, from X's HNF transform
        for z in rng.integers(-4, 5, size=(6, n)).tolist() + [[1] + [0] * (n - 1)]:
            assert P @ z == solve_integer(X, z)
    assert 0 < onto < len(mats)


def _label_oracle(X, R, c, solve_each=False):
    """Oracle: one primal section sum per label; with solve_each, each label
    also gets its particular solution from its own HNF."""
    ref = PrimalSections(X, R, c)
    if solve_each:
        ref.particular = lambda T: np.array([solve_integer(X, z) for z in np.asarray(T, dtype=np.int64).tolist()])
    return ref


def _assert_matches_oracle(p, oracle):
    """The masses of p against the oracle's, to 1e-12 absolute, and relative
    to 1e-12 (1 + mu) / (1 + delta(z)) on every label of oracle mass above
    1e-200.  A dual sum is exact to an absolute error in units of the
    kernel's dual sum 1 + mu, mu = ``dual.mass`` (``DualSections``), so a
    label whose section factor 1 + delta(z), the fiber weight over the
    target weight times the section scale, is small keeps only that much
    relative accuracy: below the kernel's smoothing parameter 1 + delta(z)
    reaches 1e-15."""
    dual = DualSections(oracle.X, oracle.R, oracle.c)
    weights = oracle.fiber_weights(p.points)
    want = oracle.output_masses(p.points)
    np.testing.assert_allclose(p.masses, want, rtol=0, atol=1e-12)
    factor = weights / (dual.section_scale * np.array([oracle.target_weight(z) for z in p.points]))
    keep = want > 1e-200
    rel = np.abs(p.masses - want)[keep] / want[keep]
    assert np.all(rel <= 1e-12 * (1.0 + dual.dual.mass) / factor[keep])


def _det_xxt(X):
    Xf = X.to_numpy(dtype=np.int64)
    return int(round(np.linalg.det(Xf @ Xf.T)))


def test_class_path_matches_per_label_oracle():
    # the hand instances are checked against per-label HNF solves as well
    cases = [
        (IntMatrix.from_rows([[1, 1, 1], [0, 1, 2]]), [0.0, 0.0, 0.0], 3.0, True),
        (IntMatrix.from_rows([[1, 0, 1, 1], [0, 1, 1, -1]]), [0.3, -0.2, 0.0, 0.1], 3.0, True),
        (IntMatrix.from_rows([[1, 2, 3, 3]]), [0.0] * 4, 0.8, False),  # det X X^T = 23
    ]
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            drawn = 0
            while drawn < 2:
                X = IntMatrix.from_rows(rng.integers(-2 if n == 1 else -1, 3 if n == 1 else 2, size=(n, n + k)).tolist())
                if np.linalg.matrix_rank(X.to_numpy()) < n or not is_surjective(X):
                    continue
                c = [0.0] * (n + k) if drawn == 0 else rng.normal(scale=0.5, size=n + k).tolist()
                cases.append((X, c, 0.5 if n == 3 else 0.8, False))
                drawn += 1
    dets = set()
    for X, c, s, solve_each in cases:
        R = s * np.eye(X.n_cols)
        ws = FiberWorkspace(X, s, c)
        p = exact_output_pmf(ws)
        _assert_matches_oracle(p, _label_oracle(X, R, c, solve_each))
        dets.add(_det_xxt(X))
        # both pmfs on one workspace have one label set and equal those built
        # on a fresh workspace of a fresh equal matrix, bit for bit
        shared = (p, target_pmf(ws))
        assert np.array_equal(shared[0].points, shared[1].points)
        other = FiberWorkspace(IntMatrix(X.rows), s, c)
        fresh = (exact_output_pmf(other), target_pmf(other))
        for a, b in zip(shared, fresh):
            assert np.array_equal(a.points, b.points) and a.tail_bound == b.tail_bound
            assert np.array_equal(a.masses, b.masses)
    assert min(dets) == 1 and max(dets) >= 20


def test_hnf_calls_independent_of_label_count(monkeypatch):
    import dgsum.intmat

    calls = []
    hnf = dgsum.intmat.hnf_column

    def counting(X):
        calls.append(X)
        return hnf(X)

    monkeypatch.setattr(dgsum.intmat, "hnf_column", counting)
    per_size = {}
    for r in (1.0, 3.0):
        calls.clear()
        X = IntMatrix.from_rows([[1, 1, 1], [0, 1, 2]])  # a fresh object holds no decomposition
        ws = FiberWorkspace(X, r, [0.0] * 3)
        p = exact_output_pmf(ws)
        target_pmf(ws)
        per_size[p.support_size()] = len(calls)
    assert len(per_size) == 2
    # X's HNF and the Smith form of X X^T, once per workspace at either size
    assert len(set(per_size.values())) == 1


def test_workspace_reduces_skewed_kernel_basis():
    # raw HNF kernel entries reach 1500 here; the oracles read the reduced
    # kernel, whose dual basis K (K^T K)^-1 keeps the dual box small, and the
    # workspace's fiber weight from the class pmfs matches their sections
    X = IntMatrix.from_rows([[-2, -3, 3, 0, 2, 2], [3, -3, -1, 3, 0, -1], [-2, -3, -3, 3, -3, -3]])
    R = 3.0 * np.eye(6)
    ws = FiberWorkspace(X, 3.0, [0.0] * 6)
    kernel = X.reduced_kernel
    assert kernel.provenance == "reduced"
    assert max(abs(x) for v in kernel.vectors() for x in v) <= 10
    dual = DualSections(X, R, [0.0] * 6)
    assert len(dual.dual.points) < 10 ** 4
    raw = integer_kernel(X)
    for v in raw.vectors():  # same lattice as the raw basis
        assert solve_integer(kernel.matrix, v) is not None
    primal = PrimalSections(X, R, [0.0] * 6).fiber_weight([0, 0, 0])
    assert ws.fiber_weight([0, 0, 0]) == pytest.approx(primal, rel=1e-12)
    assert dual.fiber_weight([0, 0, 0]) == pytest.approx(primal, rel=1e-12)


def _random_onto(rng, n, m, lo=-2, hi=3):
    while True:
        X = IntMatrix.from_rows(rng.integers(lo, hi, size=(n, m)).tolist())
        if np.linalg.matrix_rank(X.to_numpy()) == n and is_surjective(X):
            return X


def test_dual_sums_match_primal_oracle():
    # the dual oracle's masses for R = r I as a matrix agree with the
    # workspace's spherical pmf
    for rows, c in (([[1, 1, 1], [0, 1, 2]], [0.0, 0.0, 0.0]), ([[1, 2, 3, 3]], [0.1, -0.4, 0.2, 0.0])):
        X = IntMatrix.from_rows(rows)
        p = exact_output_pmf(FiberWorkspace(X, 1.5, c))
        e = DualSections(X, 1.5 * np.eye(X.n_cols), c).output_masses(p.points)
        np.testing.assert_allclose(e, p.masses, rtol=1e-12, atol=0)
    # random X with n <= 2, m <= n + 3, r in [1.2, 3]; c = 0 and c != 0;
    # the dual oracle for spherical and ellipsoidal R, and the class pmfs
    # for spherical R, against primal section sums
    rng = np.random.default_rng(17)
    dets = set()
    for i in range(24):
        n = 1 + i % 2
        X = _random_onto(rng, n, n + 1 + i % 3)
        m = X.n_cols
        c = [0.0] * m if i % 4 < 2 else rng.normal(scale=0.5, size=m).tolist()
        r = float(rng.uniform(1.2, 3.0))
        dets.add(_det_xxt(X))
        shapes = [r * np.eye(m), np.diag(rng.uniform(0.8 * r, 1.2 * r, size=m))]
        if i % 3 == 0:  # a skew shape, no longer diagonal
            shapes.append(np.triu(rng.uniform(0.0, 0.4 * r, size=(m, m))) + r * np.eye(m))
        for k, R in enumerate(shapes):
            dual = DualSections(X, R, c)
            oracle = PrimalSections(X, R, c)
            assert abs(dual.kernel_weight() - oracle.kernel_weight()) <= 1e-12
            labels = rng.integers(-3, 4, size=(4, n)).tolist()
            for z in labels:
                assert abs(dual.fiber_weight(z) - oracle.fiber_weight(z)) <= 1e-12
            T = oracle.target_region[0]
            _assert_matches_oracle(DiscretePMF(T, dual.output_masses(T), 0.0), oracle)
            for z in T[:: max(1, len(T) // 5)]:  # a chunked sum has the bits of a lone one
                assert oracle.fiber_weight(z) == oracle.fiber(z)[0]
            if k == 0:  # the spherical shape r I
                ws = FiberWorkspace(X, r, c)
                for z in labels:
                    assert abs(ws.fiber_weight(z) - oracle.fiber_weight(z)) <= 1e-12
                _assert_matches_oracle(exact_output_pmf(ws), oracle)
                assert abs(class_tvd(X, r, c).tvd - primal_tvd(oracle)) <= 1e-12
    assert min(dets) == 1 and max(dets) >= 20


def test_class_tvd_matches_tvd_of_the_two_pmfs():
    # the class sum and the label-region pmfs of one workspace agree
    rng = np.random.default_rng(23)
    for i in range(12):
        n = 1 + i % 3
        X = _random_onto(rng, n, n + 1 + i % 3, -1, 2)
        c = [0.0] * X.n_cols if i % 2 else rng.normal(scale=0.3, size=X.n_cols).tolist()
        r = float(rng.uniform(1.0, 2.5))
        ws = FiberWorkspace(X, r, c)
        rep = class_tvd(X, r, c)
        ref = exact_tvd(exact_output_pmf(ws), target_pmf(ws))
        assert abs(rep.tvd - ref.tvd) <= 1e-12
        # the bound is rounding: 1/2 sqrt(d) times m theta tables, each a few tens of u
        assert rep.support_size == _det_xxt(X) and rep.truncation_error <= 1e-12
        assert rep.radius == banaszczyk_radius(X.n_rows)


def _threshold_instances_s3():
    """Certified instances at s = 3 with det X X^T >= 2 and sigma_m at the threshold."""
    from dgsum.cli import best_certificate, draw_matrix

    st = SampleStream(4300)
    out = []
    for i, (n, m) in enumerate([(1, 3), (2, 4), (2, 4), (2, 5), (1, 6), (3, 6), (2, 8), (3, 10), (2, 12), (4, 12)]):
        for j in range(3):
            X = draw_matrix(n, m, 3.0, st.substream(10 * i + j))
            cert = best_certificate(X, st.substream(1000 + 10 * i + j))
            if cert is not None and _det_xxt(X) >= 2:
                out.append((X, 0.01 if j % 2 == 0 else 0.001, distance_threshold(cert.q1, cert.q2, m, n, 0.01 if j % 2 == 0 else 0.001)))
                break
    return out


def test_class_tvd_at_threshold_s3_up_to_m12():
    # acceptance-style: the paper's bound at its threshold, with the primal
    # oracle where its section box and label region stay small
    instances = _threshold_instances_s3()
    shapes = {X.shape for X, _, _ in instances}
    assert (4, 12) in shapes and (2, 12) in shapes and len(instances) >= 9
    compared = 0
    for X, eps, r in instances:
        R = r * np.eye(X.n_cols)
        ws = FiberWorkspace(X, r, [0.0] * X.n_cols)
        rep = class_tvd(X, r, [0.0] * X.n_cols)
        assert rep.support_size == _det_xxt(X) >= 2
        assert rep.tvd <= 2 * eps + rep.truncation_error
        assert rep.truncation_error <= 1e-11  # d <= 5 10^4, m <= 12
        if X.n_cols - X.n_rows <= 3:
            try:  # a section box above the oracle's budget is too large to compare
                oracle = PrimalSections(X, R, [0.0] * X.n_cols, budget=100_000)
            except EnumerationBudgetExceeded:
                continue
            if len(oracle.box) * len(target_pmf(ws).points) <= 50_000_000:
                assert abs(rep.tvd - primal_tvd(oracle)) <= 1e-12
                compared += 1
    assert compared >= 2


def test_class_tvd_budget(monkeypatch):
    import dgsum.tvd

    X = IntMatrix.from_rows([[1, 200]])  # 40001 classes
    # far below the threshold the FFT needs no kernel-dual points; the
    # per-label pmfs over the label region give the same TVD
    rep = class_tvd(X, 1.0, [0.0, 0.0])
    assert rep.support_size == 40001 and abs(rep.tvd - 0.983697586462) <= 1e-11
    rep = class_tvd(X, 2000.0, [0.0, 0.0])
    assert rep.support_size == 40001 and rep.tvd < 1e-20
    # d itself is charged against the budget, read at call time
    monkeypatch.setattr(dgsum.tvd, "ENUM_BUDGET", 40000)
    with pytest.raises(EnumerationBudgetExceeded, match="40001 coset classes"):
        class_tvd(X, 1.0, [0.0, 0.0])


def test_class_tvd_invariants(monkeypatch):
    import dgsum.intmat
    import dgsum.tvd
    from dgsum.lattice import LatticeBasis

    X = IntMatrix.from_rows([[1, 1, 1], [0, 1, 2]])
    # the oracle's kernel check: a sublattice of index 2 has det K^T K = 4 d
    check_kernel_basis(X)
    faked = IntMatrix(X.rows)  # a fresh object, holding its own kernel basis
    doubled = LatticeBasis(IntMatrix.from_columns([[2 * x for x in X.reduced_kernel.vectors()[0]]]))
    monkeypatch.setitem(faked.__dict__, "reduced_kernel", doubled)
    with pytest.raises(InvariantViolation, match="det"):
        check_kernel_basis(faked)
    # the Smith form is checked against det X X^T = 6, here faked as 7
    monkeypatch.setattr(dgsum.intmat, "_int_det", lambda rows: 7)
    with pytest.raises(InvariantViolation, match="Smith form"):
        class_tvd(X, 1.5, [0.0] * 3)
    monkeypatch.undo()
    # a target dual sum with one point of negative weight: no pmf has that transform
    for weight, message in ((-0.9, "below minus its error bound"), (-3.0, r"not in \[0, 1\]")):
        fake = PoissonSum(np.array([[1, 0]]), np.array([weight]), banaszczyk_radius(2), 2)
        monkeypatch.setattr(dgsum.tvd, "poisson_sum", lambda gram: fake)
        with pytest.raises(InvariantViolation, match=message):
            class_tvd(X, 1.5, [0.0] * 3)


def test_class_tvd_far_below_the_smoothing_parameter(monkeypatch):
    # at r = 0.2 and c = 1/2 each v_j is +-1/2 with probability 1/2, and the
    # target sits on the four points of Z^2 + (3/2, 1/2) nearest 0: TVD 1/2,
    # by direct enumeration
    import dgsum.tvd

    X = IntMatrix.from_rows([[1, 0, 1, 1], [0, 1, 1, -1]])
    rep = class_tvd(X, 0.2, [0.5] * 4)
    assert abs(rep.tvd - 0.5) <= rep.truncation_error <= 1e-12
    # below r = 1 the target's primal label region has the fewer points, and
    # the target's class pmf is binned from it
    regions = []
    truncate = dgsum.tvd.truncate_coset

    def recorded(gram, x0):  # the target regions, not the 1-D theta tables
        out = truncate(gram, x0)
        if len(x0) == 2:
            regions.append(out)
        return out

    monkeypatch.setattr(dgsum.tvd, "truncate_coset", recorded)
    for r in (0.1, 0.05):
        rep = class_tvd(X, r, [0.5] * 4)
        assert abs(rep.tvd - 0.5) <= rep.truncation_error <= 1e-12
        assert rep.support_size == 9 and len(regions[-1][0]) == 4  # the four nearest points
    assert len(regions) == 2
    # the side rule does not try the dual sum first: there its W(0) resolves,
    # with a vacuous bound above 0.5, where the region's is below 1e-12
    rep = class_tvd(X, 0.1, [0.5, 0.0, 0.0, 0.0])
    assert len(regions) == 3 and rep.tvd <= rep.truncation_error <= 1e-12


def test_class_tvd_primal_target_is_the_workspace_region(monkeypatch):
    # far below smoothing the class TVD bins the workspace's own target
    # region: the same labels, weights and tail, bit for bit
    import dgsum.tvd

    regions = []
    truncate = dgsum.tvd.truncate_coset

    def recorded(gram, x0):
        out = truncate(gram, x0)
        if len(x0) > 1:  # the target region, not a 1-D term table
            regions.append(out)
        return out

    monkeypatch.setattr(dgsum.tvd, "truncate_coset", recorded)
    # on the last two a Gram matrix formed in floats from X (r^2 I) X^T would
    # round differently from adj(G) / (r^2 det G), and change the region's tail
    X = IntMatrix.from_rows([[1, 0, 1, 1], [0, 1, 1, -1]])
    cases = [(X, r, [0.5] * 4) for r in (0.1, 0.05, 0.002)] + [
        (X, 0.002, [0.0] * 4),
        (IntMatrix.from_rows([[1, -1, 0], [2, -1, -1]]), 0.03, [0.11, 0.31, 0.13]),
        (IntMatrix.from_rows([[2, -1, 0, 2], [1, 0, 1, -2]]), 0.02, [0.5] * 4),
    ]
    for M, r, c in cases:
        regions.clear()
        class_tvd(M, r, c)
        assert len(regions) == 1, (r, c)
        want = FiberWorkspace(M, r, c).target_region
        got = regions[0]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]) and got[2] == want[2], (r, c)


def test_class_tvd_past_the_target_dual_sum_budget():
    # at r = 0.002 the target's dual sum holds more than ENUM_BUDGET partial
    # points; the primal target answers, and agrees with the per-label pair
    X = IntMatrix.from_rows([[1, 0, 1, 1], [0, 1, 1, -1]])
    for c in ([0.0] * 4, [0.5] * 4, [0.5, 0.0, 0.0, 0.0]):
        rep = class_tvd(X, 0.002, c)
        assert rep.radius == banaszczyk_radius(2) and rep.support_size == 9
        ws = FiberWorkspace(X, 0.002, c)
        pair = exact_tvd(exact_output_pmf(ws), target_pmf(ws))
        assert abs(rep.tvd - pair.tvd) <= rep.truncation_error + pair.truncation_error, c
        if c == [0.5] * 4:
            assert abs(rep.tvd - 0.5) <= rep.truncation_error <= 1e-12
        else:
            assert rep.tvd <= rep.truncation_error <= 1e-12


def test_primal_target_weighs_exact_ties_alike():
    # far below smoothing the target region of each X holds two labels whose
    # norms v^T Gamma v tie in exact arithmetic, so both pmfs are uniform on
    # them and the exact TVD is 0.  Norms formed through a float whitening of
    # r^2 X X^T gave the pair weights 1 and 1 - 1.4e-10 (TVD 3.4e-11 and
    # 8.6e-11 against bounds near 1e-14); Gamma = adj(G) / (r^2 det G) keeps
    # the tie within the bound
    for rows in ([[-1, -1, 1, -1], [-1, -1, 2, 0]], [[-1, 0, 1, 2], [0, -1, 0, 1], [-2, 1, 2, 2]]):
        X = IntMatrix.from_rows(rows)
        c = [0.5] + [0.0] * (X.n_cols - 1)
        ws = FiberWorkspace(X, 0.002, c)
        assert len(ws.region()) == 2, rows
        rep = class_tvd(X, 0.002, c)
        pair = exact_tvd(exact_output_pmf(ws), target_pmf(ws))
        assert rep.tvd <= rep.truncation_error and pair.tvd <= pair.truncation_error, rows


# class_tvd's (TVD, truncation_error) as the code computed them before the
# per-stage array form and the side rule: the threshold r of each
# matrix at eps = 0.01 (seed 1's certificate), then r = 0.3, 0.5, 1 and 2,
# each at c = 0, c = 1/2 and c = (1/2, 0, ..., 0)
PARITY_X = {
    "2x4": [[1, 0, 1, 1], [0, 1, 1, -1]],
    "2x5": [[1, 0, 1, 1, 2], [0, 1, 1, -1, 1]],
    "3x6": [[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1]],
}
PARITY = [
    ("2x4", 3.3367800039698445, "zero", 7.67623162632321e-06, 2.170105501255921e-14),
    ("2x4", 3.3367800039698445, "half", 7.676165336797226e-06, 2.170107588081264e-14),
    ("2x4", 3.3367800039698445, "first", 7.676231625464513e-06, 2.1701059648837268e-14),
    ("2x4", 0.3, "zero", 3.538365654958624e-05, 8.281916079614959e-13),
    ("2x4", 0.3, "half", 0.49999999984349003, 7.064584251990972e-11),
    ("2x4", 0.3, "first", 1.7692063029230746e-05, 7.47946494582746e-12),
    ("2x4", 0.5, "zero", 0.05797869918883786, 2.229294051498093e-13),
    ("2x4", 0.5, "half", 0.49954028006658996, 4.97515972840472e-13),
    ("2x4", 0.5, "first", 0.029638982044827865, 3.2103312949985636e-13),
    ("2x4", 1.0, "zero", 0.38490017945975014, 5.22329181749795e-14),
    ("2x4", 1.0, "half", 0.3041155102047689, 5.889072029443014e-14),
    ("2x4", 1.0, "first", 0.2928849914601018, 5.113404853095631e-14),
    ("2x4", 2.0, "zero", 0.013586416930578772, 2.4712765137399464e-14),
    ("2x4", 2.0, "half", 0.013382191173661202, 2.474645620785091e-14),
    ("2x4", 2.0, "first", 0.013581676753513053, 2.4716751300395625e-14),
    ("2x5", 4.621319489438075, "zero", 1.291511281342876e-10, 4.40778037124363e-14),
    ("2x5", 4.621319489438075, "half", 1.291511279841675e-10, 4.4077810862407685e-14),
    ("2x5", 4.621319489438075, "first", 1.2915112808424756e-10, 4.407780514182347e-14),
    ("2x5", 0.3, "zero", 0.006063032134336663, 1.7986449194519335e-12),
    ("2x5", 0.3, "half", 0.8117929438282614, 4.029825573643343e-12),
    ("2x5", 0.3, "first", 0.0007070561717334614, 3.850415518614575e-12),
    ("2x5", 0.5, "zero", 0.25961283220575776, 3.9547042011124234e-13),
    ("2x5", 0.5, "half", 0.7165575562896044, 4.678506434535614e-13),
    ("2x5", 0.5, "first", 0.09591464198486348, 4.0586879575244324e-13),
    ("2x5", 1.0, "zero", 0.46247965128329105, 1.0974804593508996e-13),
    ("2x5", 1.0, "half", 0.24789876058949115, 1.2738715606817248e-13),
    ("2x5", 1.0, "first", 0.3809418749164232, 1.0784687133977349e-13),
    ("2x5", 2.0, "zero", 0.012358505691319058, 5.063708770921915e-14),
    ("2x5", 2.0, "half", 0.011487803709973338, 5.165676195754576e-14),
    ("2x5", 2.0, "first", 0.011968689896544146, 5.0832074651538815e-14),
    ("3x6", 3.447656929654603, "zero", 3.1630079101624313e-07, 4.8208561736833696e-14),
    ("3x6", 3.447656929654603, "half", 3.164386161327714e-07, 4.820856281083672e-14),
    ("3x6", 3.447656929654603, "first", 3.385912166977962e-07, 4.8208561944656886e-14),
    ("3x6", 0.3, "zero", 5.185513283523236e-06, 4.260602650816284e-11),
    ("3x6", 0.3, "half", 0.8722205083223151, 4.001192507498158e-09),
    ("3x6", 0.3, "first", 5.7550616976029914e-05, 6.985045738352004e-10),
    ("3x6", 0.5, "zero", 0.0417748878943454, 6.894442578891233e-12),
    ("3x6", 0.5, "half", 0.6784485508077353, 1.9183709036225138e-11),
    ("3x6", 0.5, "first", 0.05350218068429705, 1.1947385614118223e-11),
    ("3x6", 1.0, "zero", 0.3851118373226322, 2.0024273813692708e-13),
    ("3x6", 1.0, "half", 0.3304314555563315, 2.2535587771413325e-13),
    ("3x6", 1.0, "first", 0.3598299366775897, 2.0080198709251616e-13),
    ("3x6", 2.0, "zero", 0.006276216629076388, 5.4502432573535527e-14),
    ("3x6", 2.0, "half", 0.006608311766063977, 5.453743033922235e-14),
    ("3x6", 2.0, "first", 0.006775434982635345, 5.450765647031303e-14),
]


def test_class_tvd_matches_the_recorded_values():
    # every value within 1e-12 of the recorded one, and within the sum of
    # both bounds; below r = 1 the primal side answers, with a bound below
    # 1e-12 where the dual sum's reached 4e-9
    for name, r, shift, tvd, trunc in PARITY:
        X = IntMatrix.from_rows(PARITY_X[name])
        m = X.n_cols
        c = {"zero": [0.0] * m, "half": [0.5] * m, "first": [0.5] + [0.0] * (m - 1)}[shift]
        rep = class_tvd(X, r, c)
        assert abs(rep.tvd - tvd) <= min(1e-12, rep.truncation_error + trunc), (name, r, shift)
        assert rep.truncation_error <= 1e-12, (name, r, shift)


@pytest.mark.parametrize("r, c", [(0.1, [0.5, 0.0, 0.0, 0.0]), (0.2, [0.5] * 4), (0.5, [0.5, 0.0, 0.0, 0.0]),
                                  (1.0, [0.5, 0.0, 0.0, 0.0])])
def test_class_tvd_sides_agree_within_their_bounds(monkeypatch, r, c):
    # each side forced in turn: the dual sum's bound is vacuous at r = 0.1
    # (above 0.5, where the region's is below 1e-12), and both hold
    import dgsum.tvd

    X = IntMatrix.from_rows([[1, 0, 1, 1], [0, 1, 1, -1]])
    chosen = class_tvd(X, r, c)
    reps = []
    for counts in ((1.0, 0.0), (0.0, 1.0)):  # (dual, primal): the primal side, then the dual
        monkeypatch.setattr(dgsum.tvd, "_target_counts", lambda n, d, r, counts=counts: counts)
        reps.append(class_tvd(X, r, c))
    primal, dual = reps
    assert abs(primal.tvd - dual.tvd) <= primal.truncation_error + dual.truncation_error
    assert chosen == (primal if r < 1 else dual)
    assert chosen.truncation_error <= 1e-12


def test_class_tvd_far_below_smoothing_skips_the_dual_sum(monkeypatch):
    # r = 0.005, c = 1/2: the dual sum holds about 9 10^6 points, the primal
    # region four, and the side rule enumerates the region alone (TVD 1/2,
    # the four target points against the image's classes)
    import dgsum.tvd

    dual = []
    _orig = dgsum.tvd.poisson_sum
    monkeypatch.setattr(dgsum.tvd, "poisson_sum", lambda gram: dual.append(gram) or _orig(gram))
    X = IntMatrix.from_rows([[1, 0, 1, 1], [0, 1, 1, -1]])
    rep = class_tvd(X, 0.005, [0.5] * 4)
    assert not dual and abs(rep.tvd - 0.5) <= rep.truncation_error <= 1e-12
    counts = dgsum.tvd._target_counts(2, 9, 0.005)
    assert math.exp(counts[0]) > 8e6 and math.exp(counts[1]) < 1


def test_target_weights_within_their_rounding_bound():
    # the region's weights against e^{-pi (N_z - N_min)} with the norm
    # differences N_z - N_min formed in rationals (r, c and X c exact); far
    # below smoothing the norms reach 4 10^4, where float norms would carry
    # an error of about 1e-11, and the bound stays near 1e-13
    from fractions import Fraction

    cases = [([[1, 0, 1, 1], [0, 1, 1, -1]], r, c) for r in (0.002, 0.05, 0.7) for c in ([0.5] * 4, [0.5, 0, 0, 0])]
    cases += [([[1, -1, 0], [2, -1, -1]], r, [0.11, 0.31, 0.13]) for r in (0.003, 0.03, 0.9)]
    cases += [([[-1, 0, 1, 2], [0, -1, 0, 1], [-2, 1, 2, 2]], 0.002, [0.5, 0.0, 0.0, 0.0])]
    # near ties off the dyadic grid: Xc = (0.4995, 0), two labels 13.3 and
    # 83 apart in N at norms near 3 10^3 and 2 10^4
    cases += [([[1, 0, 1, 1], [0, 1, 1, -1]], r, [0.4995, 0.0, 0.0, 0.0]) for r in (0.002, 0.005)]
    for rows, r, c in cases:
        X = IntMatrix.from_rows(rows)
        ws = FiberWorkspace(X, r, c)
        T, w, _ = ws.target_region
        n = X.n_rows
        adj, d = adjugate(X @ X.T)
        fc = [Fraction(x) for x in ws.c]
        xc = [sum(a * b for a, b in zip(row, fc)) for row in X.rows]
        s = Fraction(r) ** 2 * d

        def norm(z):
            v = [zi + x for zi, x in zip(z, xc)]
            return sum(v[i] * adj[i][j] * v[j] for i in range(n) for j in range(n)) / s

        N = [norm(z) for z in T.tolist()]
        low = min(N)
        want = np.array([math.exp(-math.pi * float(x - low)) for x in N])
        slack = 8 * ULP * (1 + math.pi * np.array([float(x - low) for x in N]))  # the oracle's own rounding
        assert ws.target_rounding < 1e-12, (rows, r, c)
        assert np.all(np.abs(w - want) <= (ws.target_rounding + slack) * want), (rows, r, c)


def _theta_oracle(r, c, L):
    """S(k / L) / S(0), k < L, of the primal series S(a) = sum_w rho_r(w + c)
    e^{2 pi i w a} over |w| <= 12 r + 2, its real and imaginary parts each
    summed by math.fsum, every phase formed from the integer residue w k mod L."""
    ws = range(-math.ceil(12 * r) - 2, math.ceil(12 * r) + 3)
    rho = [math.exp(-math.pi * ((w + c) / r) ** 2) for w in ws]
    out = np.empty(L, dtype=complex)
    for k in range(L):
        phase = [2 * math.pi * (w * k % L) / L for w in ws]
        re = math.fsum(p * math.cos(f) for p, f in zip(rho, phase))
        im = math.fsum(p * math.sin(f) for p, f in zip(rho, phase))
        out[k] = complex(re, im) / math.fsum(rho)
    return out


@pytest.mark.parametrize("r", [0.3, 0.8, 1.0, 1.25, 3.0, 7.0])
def test_theta_table_within_its_error_bound(r):
    # both forms, primal (r <= 1) and dual, against the primal series summed
    # exactly; 8 u covers the oracle's own rounding, and e < 1e-12 keeps an
    # inflated bound from passing
    for c in (0.0, 0.25, -0.5, 0.5):
        for L in (1, 2, 7, 48, 97):
            theta, e = _theta_table(r, c, L)
            assert e < 1e-12
            assert np.all(np.abs(theta - _theta_oracle(r, c, L)) <= e + 8 * ULP), (c, L)


def test_class_tvd_reduces_c_mod_the_integers():
    # c and c - round(c) give the same pmfs; a float phase of the unreduced c
    # would lose digits (8e-9 relative at c = 1e12), so the agreement is relative
    X = IntMatrix.from_rows([[1, 0, 1, 1], [0, 1, 1, -1]])
    r = 3.33678000397  # the CLI's threshold at --seed 1
    base = class_tvd(X, r, [0.0] * 4).tvd
    assert 7.6762316e-06 < base < 7.6762317e-06
    assert abs(class_tvd(X, r, [1e12, 0.0, 0.0, 0.0]).tvd - base) <= 1e-12 * base
    frac = [0.3, -0.2, 0.45, 0.1]
    shifted = class_tvd(X, r, frac).tvd
    assert abs(shifted - base) > 1e-9  # the shift matters
    for whole in ([5, 0, 0, 0], [-3, 7, 1, -12]):
        c = [f + w for f, w in zip(frac, whole)]
        assert abs(class_tvd(X, r, c).tvd - shifted) <= 1e-12 * shifted


def test_per_label_tvd_is_within_its_bound_of_the_class_tvd():
    # down to far below the kernel's smoothing parameter (r = 0.2, c = 1/2),
    # the per-label pair and the class TVD agree within their bounds
    X = IntMatrix.from_rows([[1, 0, 1, 1], [0, 1, 1, -1]])
    for r in (0.2, 0.5, 1.0, 3.0):
        for c in ([0.5] * 4, [0.5, 0.0, 0.0, 0.0], [0.0] * 4):
            ws = FiberWorkspace(X, r, c)
            rep = exact_tvd(exact_output_pmf(ws), target_pmf(ws))
            ref = class_tvd(X, r, c)
            assert abs(rep.tvd - ref.tvd) <= rep.truncation_error + ref.truncation_error, (r, c)


def test_exact_output_pmf_tail_from_the_class_pmfs():
    # half an l1 bound (the tail bounds the TVD): three times the class
    # pmf's l1 error, the image mass of the classes the region misses, twice
    # the largest class ratio times the target's tail, three times the bound
    # on the target weights' rounding, and the rounding of the largest
    # class's masses
    X = IntMatrix.from_rows([[1, 1, 1], [0, 1, 2]])
    ws = FiberWorkspace(X, 1.5, [0.0] * 3)
    _, index, _, P, e, _ = ws.classes
    T, w, tt = ws.target_region
    assert len(P) == 6 and np.all(np.bincount(index, minlength=6) > 0)  # every class held
    ratio = float(np.max(P / np.bincount(index, w))) * float(np.sum(w))
    l1 = 3 * e + 2 * ratio * tt / (1 - tt) + 3 * ws.target_rounding + (int(np.max(np.bincount(index))) + 2) * ULP
    p = exact_output_pmf(ws)
    assert p.tail_bound == pytest.approx(0.5 * l1, rel=1e-9, abs=0) and l1 < 1e-12
    assert abs(float(np.sum(p.masses)) - 1) <= l1
    # more classes than labels: the region misses the classes of the labels
    # past it, and their image mass is charged
    X = IntMatrix.from_rows([[1, 200]])
    ws = FiberWorkspace(X, 1.0, [0.0, 0.0])
    p = exact_output_pmf(ws)
    _, index, _, P, e, _ = ws.classes
    missed = np.bincount(index, minlength=len(P)) == 0
    assert len(P) == 40001 and len(p.points) < 40001 and np.any(missed)
    assert float(np.sum(P[missed])) <= 2 * p.tail_bound < 2e-10


def test_per_label_pair_far_below_the_smoothing_parameter():
    # c = 1/2: the image puts half its mass on the four target points (TVD
    # 1/2, by direct enumeration); from r = 0.1 down the region holds just
    # those four labels, so the other half, in the classes it misses, goes to
    # the tail.  At c = (1/2, 0, 0, 0) image and target agree to rounding.
    X = IntMatrix.from_rows([[1, 0, 1, 1], [0, 1, 1, -1]])
    for r in (0.2, 0.1, 0.05):
        ws = FiberWorkspace(X, r, [0.5] * 4)
        rep = exact_tvd(exact_output_pmf(ws), target_pmf(ws))
        assert abs(rep.tvd - 0.5) <= rep.truncation_error, r
    assert rep.truncation_error <= 0.25 + 1e-12  # the image tail, half the l1 of the missed half of the image
    with pytest.raises(ValueError, match="no label of the class"):  # z = 0 mod 3: a missed class
        ws.fiber_weight([0, 1])
    ws = FiberWorkspace(X, 0.2, [0.5] * 4)
    assert exact_tvd(exact_output_pmf(ws), target_pmf(ws)).truncation_error <= 1e-6
    ws = FiberWorkspace(X, 0.1, [0.5, 0.0, 0.0, 0.0])
    rep = exact_tvd(exact_output_pmf(ws), target_pmf(ws))
    assert rep.tvd <= rep.truncation_error < 1e-6


def test_per_label_pmf_past_the_old_dual_sum_budget():
    # labels x kernel-dual points exceeded ENUM_BUDGET on the per-label dual
    # sums here (7739 x 14530 and 56143 x 541 terms); the class pmfs need no
    # dual sum per label
    for rows, r in (([[-2, -2, 1, -2, -2, 1], [1, 2, -1, 2, 0, 1], [-2, 1, 1, 0, 0, -2]], 0.8),
                    ([[2, 2, 2, 2, 1], [2, 2, -2, 1, 0], [2, 1, 0, 1, -2]], 1.5)):
        X = IntMatrix.from_rows(rows)
        c = [0.0] * X.n_cols
        ws = FiberWorkspace(X, r, c)
        rep = exact_tvd(exact_output_pmf(ws), target_pmf(ws))
        ref = class_tvd(X, r, c)
        assert abs(rep.tvd - ref.tvd) <= rep.truncation_error + ref.truncation_error < 1e-9


# ---------------------------------------------------------------- output/target pmfs


def test_output_pmf_identity_matches_exact_pmf():
    from dgsum.gaussian import exact_pmf

    X = IntMatrix.from_rows([[1]])
    for r in (1.0, 2.5):
        p = exact_output_pmf(_at_zero(X, r))
        base = exact_pmf(r)
        for pt in base.points:
            assert p.mass_at(pt) == pytest.approx(base.mass_at(pt), abs=1e-12)


def test_output_pmf_symmetry():
    p = exact_output_pmf(_at_zero(X11, 2.0))
    for z in p.points:
        assert p.mass_at(z) == pytest.approx(p.mass_at((-z[0],)), rel=1e-10)


def test_target_pmf_is_1d_gaussian_with_r_sqrt2():
    from dgsum.gaussian import exact_pmf

    q = target_pmf(_at_zero(X11, 2.0))
    base = exact_pmf(2.0 * math.sqrt(2))
    for z in base.points:
        if q.mass_at(z):
            assert q.mass_at(z) == pytest.approx(base.mass_at(z), rel=1e-9)


def test_target_pmf_shifted_support():
    ws = FiberWorkspace(X11, 2.0, [0.25, 0.25])
    assert ws.Xc == pytest.approx(np.array([0.5]))
    q = target_pmf(ws)
    assert float(q.masses.sum()) == pytest.approx(1.0, abs=1e-9)


def test_output_pmf_ratio_band_against_target():
    # the fiber-factorization mechanism: pmf(z)/pmf(0) tracks the target shape
    ws = FiberWorkspace(X11, 2.0, [0.0, 0.0])
    kw = ws.fiber_weight([0])  # at c = 0 the fiber over 0 is the kernel lattice
    eps = 0.01
    lo = (1 - eps) / (1 + eps)
    for z in ws.region():
        ratio = ws.fiber_weight(z) / (ws.target_weight(z) * kw)
        assert lo - 1e-9 <= ratio <= 1.0 + 1e-9


# ---------------------------------------------------------------- exact tvd


def test_exact_tvd_self_is_zero():
    p = exact_output_pmf(_at_zero(X11, 2.0))
    rep = exact_tvd(p, p)
    assert rep.tvd == 0.0


def test_exact_tvd_disjoint_supports():
    from dgsum.gaussian import DiscretePMF

    p = DiscretePMF(((0,),), np.array([1.0]), 0.0)
    q = DiscretePMF(((5,),), np.array([1.0]), 0.0)
    assert exact_tvd(p, q).tvd == pytest.approx(1.0)
    # point tuples become one int64 (k, d) array; a 2-D array is kept as is
    two = DiscretePMF(((0, 1), (2, -3)), np.array([0.5, 0.5]), 0.0)
    assert two.points.dtype == np.int64 and two.points.shape == (2, 2)
    assert DiscretePMF(two.points, two.masses, 0.0).points is two.points
    with pytest.raises(ValueError):
        DiscretePMF(((0,), (1,)), np.array([1.0]), 0.0)
    assert two.mass_at((2, -3)) == 0.5 and two.mass_at((2,)) == 0.0 and two.mass_at((2, -3, 0)) == 0.0
    # no points: tvd 0 on support 0 against itself, and against r half of
    # r's mass on r's support
    empty = DiscretePMF((), np.zeros(0), 0.0)
    assert empty.points.shape == (0, 0)
    assert (exact_tvd(empty, empty).tvd, exact_tvd(empty, empty).support_size) == (0.0, 0)
    r = DiscretePMF(((0,), (1,), (2,)), np.array([0.1, 0.2, 0.7]), 0.0)
    for a, b in ((empty, r), (r, empty)):
        rep = exact_tvd(a, b)
        assert (rep.tvd, rep.support_size) == (0.5 * (0.1 + 0.2 + 0.7), 3)
    # an integer label and an equal float point are one support point
    rep = exact_tvd(DiscretePMF(((3,),), np.array([1.0]), 0.0), DiscretePMF(((3.0,),), np.array([1.0]), 0.0))
    assert (rep.tvd, rep.support_size) == (0.0, 1)


def test_exact_tvd_charges_a_truncation_its_discarded_mass():
    # a pmf truncated to a support and renormalized is its discarded mass
    # tau from the pmf in TVD, and a tail_bound of tau must cover that
    from dgsum.gaussian import DiscretePMF, exact_pmf

    p = DiscretePMF(((0,), (1,), (2,)), np.array([0.5, 0.3, 0.2]), 0.0)
    q = DiscretePMF(((0,), (1,)), np.array([0.5, 0.3]) / 0.8, 0.2)
    rep = exact_tvd(p, q)
    assert rep.tvd == pytest.approx(0.2, rel=1e-15) and rep.truncation_error == 0.2
    # the package's own table, cut to |y| <= 1
    p = exact_pmf(1.5)
    kept = np.abs(p.points[:, 0]) <= 1
    tau = 1 - float(np.sum(p.masses[kept]))
    q = DiscretePMF(p.points[kept], p.masses[kept] / float(np.sum(p.masses[kept])), tau)
    for a, b in ((p, q), (q, p)):
        rep = exact_tvd(a, b)
        assert rep.tvd == pytest.approx(tau, rel=1e-12) and tau <= rep.truncation_error, rep


def _dict_tvd_oracle(p, q):
    # the dict path exact_tvd took for pmfs on different supports
    pd, qd = p.as_dict(), q.as_dict()
    keys = set(pd) | set(qd)
    tvd = 0.5 * sum(abs(pd.get(k, 0.0) - qd.get(k, 0.0)) for k in sorted(keys))
    return tvd, len(keys)


def test_exact_tvd_array_path_matches_dict_path():
    from dgsum.gaussian import DiscretePMF

    def reordered(p, q):
        # a reordered copy of q has different points, but the same tvd
        rev = DiscretePMF(q.points[::-1], q.masses[::-1], q.tail_bound)
        assert not np.array_equal(rev.points, p.points)
        return exact_tvd(p, rev)

    pairs = []
    for rows, c in (([[1, 1, 1], [0, 1, 2]], [0.0, 0.0, 0.0]), ([[1, 0, 1, 1], [0, 1, 1, -1]], [0.3, -0.2, 0.0, 0.1])):
        X = IntMatrix.from_rows(rows)
        ws = FiberWorkspace(X, 3.0, c)
        pairs.append((exact_output_pmf(ws), target_pmf(ws)))
    rng = np.random.default_rng(2)
    for size in (2, 17, 1000, 5000):
        pts = [tuple(t) for t in rng.permutation(np.arange(2 * size).reshape(size, 2)).tolist()]  # unsorted
        a, b = rng.random(size) ** 8, rng.random(size)
        pairs.append((DiscretePMF(tuple(pts), a / a.sum(), 1e-9), DiscretePMF(tuple(pts), b / b.sum(), 0.0)))
    # overlapping supports, one of them of float points
    p, q = pairs[-1]
    pairs.append((p, DiscretePMF(q.points[size // 2:] + 0.5 * (np.arange(size - size // 2) % 2)[:, None], q.masses[size // 2:], 0.0)))
    for p, q in pairs:
        got, ref = exact_tvd(p, q), reordered(p, q)
        assert got.tvd == ref.tvd and got.to_json_dict() == ref.to_json_dict()
        assert (got.tvd, got.support_size) == _dict_tvd_oracle(p, q)


def test_exact_tvd_symmetry_and_triangle():
    ps = [
        exact_output_pmf(_at_zero(X11, r))
        for r in (1.5, 2.0, 3.0)
    ]
    d = lambda a, b: exact_tvd(a, b).tvd
    assert d(ps[0], ps[1]) == pytest.approx(d(ps[1], ps[0]), rel=1e-12)
    assert d(ps[0], ps[2]) <= d(ps[0], ps[1]) + d(ps[1], ps[2]) + 1e-12


def test_threshold_pipeline_small_instance():
    eps = 0.01
    r = distance_threshold(1.0, 1.0, 2, 1, eps)
    ws = FiberWorkspace(X11, r, [0.0, 0.0])
    rep = exact_tvd(exact_output_pmf(ws), target_pmf(ws))
    assert rep.tvd <= 2 * eps + rep.truncation_error


# ---------------------------------------------------------------- monte carlo


def _sampler_for(X, r):
    m = X.n_cols
    Xf = X.to_numpy()

    def sampler(N, st):
        vs = sample_dg_coset(r, [0.0] * m, N, st)
        return vs @ Xf.T

    return sampler


def test_mc_tvd_self_distance_small():
    q = target_pmf(_at_zero(X11, 2.0))
    rep = mc_tvd(_sampler_for(X11, 2.0), q, 100_000, SampleStream(55))
    # E_{X,r} at r=2 is within a few e-3 of the target; the plug-in estimate
    # should sit near the bias floor
    assert rep.estimate <= rep.bias_bound + 0.01
    assert rep.ci_lo <= rep.estimate <= rep.ci_hi


def test_mc_tvd_determinism():
    q = target_pmf(_at_zero(X11, 2.0))
    a = mc_tvd(_sampler_for(X11, 2.0), q, 20_000, SampleStream(7))
    b = mc_tvd(_sampler_for(X11, 2.0), q, 20_000, SampleStream(7))
    assert a.estimate == b.estimate


def test_mc_tvd_ci_shrinks_with_n():
    q = target_pmf(_at_zero(X11, 2.0))
    w = []
    for N in (10_000, 40_000):
        rep = mc_tvd(_sampler_for(X11, 2.0), q, N, SampleStream(8))
        w.append(rep.ci_hi - rep.ci_lo)
    # quadrupling N should halve the band width (same support, +-30% slack)
    assert 0.35 <= w[1] / w[0] <= 0.65


def _mc_counts_oracle(sampler, target, N, stream, confidence=0.99):
    # the per-row counting loop mc_tvd used before it counted integral rows with np.unique
    draws = np.asarray(sampler(N, stream))
    if draws.ndim == 1:
        draws = draws[:, None]
    counts = {}
    for row in draws:
        key = tuple(int(round(v)) if abs(v - round(v)) < 1e-9 else float(v) for v in row)
        counts[key] = counts.get(key, 0) + 1
    td = target.as_dict()
    keys = set(td) | set(counts)
    est = 0.5 * sum(abs(counts.get(k, 0) / N - td.get(k, 0.0)) for k in sorted(keys))
    k = len(keys)
    half = 0.5 * (k + 1) * math.sqrt(math.log(2 * (k + 1) / (1.0 - confidence)) / (2 * N))
    return est, max(0.0, est - half), min(1.0, est + half), math.sqrt(k / N)


def test_mc_tvd_counting_matches_per_row_oracle():
    X = IntMatrix.from_rows([[1, 1, 1], [0, 1, 2]])
    Xf = X.to_numpy()
    c = np.array([0.25, 0.1, -0.5])

    def integral(N, st):  # labels z = X w of the draws w + c, integers as floats
        return sample_dg_coset(1.5, c, N, st) @ Xf.T

    def shifted(N, st):  # output points z + X c: both coordinates off the integers
        return (sample_dg_coset(1.5, c, N, st) + c) @ Xf.T

    def mixed(N, st):  # some rows keep an integral first coordinate only, some miss by 1e-7
        d = integral(N, st)
        d[::4, 1] += 0.5
        d[1::4, 0] += 1e-7
        return d

    def one_dim(N, st):
        return _sampler_for(X11, 2.0)(N, st)[:, 0]

    q = target_pmf(FiberWorkspace(X, 1.5, c))
    for sampler, target in ((integral, q), (shifted, q), (mixed, q), (one_dim, target_pmf(_at_zero(X11, 2.0)))):
        rep = mc_tvd(sampler, target, 20_000, SampleStream(3))
        ref = _mc_counts_oracle(sampler, target, 20_000, SampleStream(3))
        assert (rep.estimate, rep.ci_lo, rep.ci_hi, rep.bias_bound) == ref


def test_mc_tvd_min_samples():
    q = target_pmf(_at_zero(X11, 2.0))
    with pytest.raises(ValueError):
        mc_tvd(_sampler_for(X11, 2.0), q, 100, SampleStream(9))


# ---------------------------------------------------------------- bound evaluators


def test_tail_bound_degenerate_endpoint():
    c = 1 / math.sqrt(2 * math.pi)
    v = tail_bound_eval(3, 0.01, c)
    assert v == pytest.approx((1.01 / 0.99), rel=1e-9)  # base is exactly 1
    with pytest.raises(ValueError):
        tail_bound_eval(1, 0.01, 0.1)


def test_tail_bound_formula_value():
    c = math.sqrt(math.log2(1024))  # sqrt(log 1024) = sqrt(10)
    base = c * math.sqrt(2 * math.pi * math.e) * math.exp(-math.pi * c * c)
    want = (1 + 1e-3) / (1 - 1e-3) * base ** 2
    assert tail_bound_eval(2, 1e-3, c) == pytest.approx(want, rel=1e-12)


def test_shift_bound_claim_constant():
    # sigma_n at 9 times the smoothing bound of Z: the evaluated constant
    # erf(3q/4)/erf(2q) (1+eps)/(1-eps) stays below 0.39
    eps = 1e-5
    sigma = 9 * smoothing_bound(1, eps, 1.0).value
    v = shift_bound_eval(1.0, sigma, eps, 8.0)
    assert v < 0.39


def test_shift_bound_monotone_in_sigma():
    vals = [shift_bound_eval(1.0, s, 0.01, 8.0) for s in (20.0, 10.0, 5.0)]
    assert vals[0] < vals[1] < vals[2]


def test_shift_bound_dominates_interval_shifts():
    # |Pr(x in S) - Pr(x in S+1)| for interval sets S under D_{Z,sigma}
    from dgsum.gaussian import exact_pmf

    eps = 0.01
    sigma = 9 * smoothing_bound(1, eps, 1.0).value
    bound = shift_bound_eval(1.0, sigma, eps, 8.0)
    pmf = exact_pmf(sigma).as_dict()
    ks = sorted(k[0] for k in pmf)
    worst = 0.0
    for a in range(-15, 16):
        for b in range(a, 16):
            pS = sum(v for (k,), v in pmf.items() if a <= k <= b)
            pS1 = sum(v for (k,), v in pmf.items() if a + 1 <= k <= b + 1)
            worst = max(worst, abs(pS - pS1))
    assert worst <= bound


def test_ratio_band_check_zero_shift():
    rep = ratio_band_check(1, 1.3, 0.01, [(0.0,)], lambda_n=1.0)
    assert rep["max_ratio"] == pytest.approx(1.0, rel=1e-12)
    assert rep["precondition_ok"]


def test_ratio_band_check_half_shift():
    rep = ratio_band_check(1, 1.3, 0.01, [(0.5,)], lambda_n=1.0)
    assert rep["in_band"]
    assert rep["min_ratio"] == pytest.approx(0.98041, abs=1e-4)


def test_ratio_band_check_diagnostic_below_smoothing():
    rep = ratio_band_check(1, 0.2, 0.01, [(0.5,)], lambda_n=1.0)
    assert rep["precondition_ok"] is False
    assert not rep["in_band"]
