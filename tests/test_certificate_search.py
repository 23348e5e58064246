"""The certificate search of the CLI, ``cli.best_certificate``: X's floor
certificate where it has one, else the two-search rule.  Every u_i is a
nonzero integer vector, so no certificate has q2 < 1, and where each row i
of X has a column equal to +-e_i the unit vectors u_i = +-e_j reach it.  On
any other X no certificate has q2^2 < 2 (a u_i = +-e_j with
u_i . x_k = delta_ik makes column j equal +-e_i).  ``quality.floor_certificate``
searches every certificate whose u_i have at most two nonzero entries, each
+-1, which are all those of q2^2 <= 2, so where it finds one neither search
could do better and neither runs.  Elsewhere both run and the smaller q2
wins, the collision search's on a tie.  The benchmark's own
``sparse_certificate`` is the independent oracle of the floor.  The rule
lives in one function."""

import importlib.util
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import dgsum.cli
from dgsum.cli import best_certificate
from dgsum.gaussian import SampleStream
from dgsum.intmat import IntMatrix, InvariantViolation, dot, is_surjective, norm_sq
from dgsum.quality import (
    CollisionNotFound,
    QualityCertificate,
    SurjectivityError,
    certify_quality,
    exact_dual_fallback,
    find_dual_vectors,
    floor_certificate,
)
from test_truncation_rule import named_lines, stray_calls

SRC = Path(__file__).resolve().parents[1] / "src" / "dgsum"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# callee -> the functions of the package that may call it
ALLOWED = {"find_dual_vectors": {"best_certificate"}, "exact_dual_fallback": {"best_certificate"},
           "floor_certificate": {"best_certificate"}}
# the unit-column rule that the floor rule replaced
GONE = {"unit_certificate"}


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


SPARSE_CERTIFICATE = load_workloads().sparse_certificate


def floor_oracle(X):
    """The least max ||u_i||^2 over X's certificates whose u_i have at most
    two nonzero entries, each +-1 (the benchmark's ``sparse_certificate``,
    which tries every combination); None when there is none."""
    return SPARSE_CERTIFICATE(X.rows)


def searches(X, stream):
    """(collision, fallback): each search's certificate, None where it
    raises CollisionNotFound or SurjectivityError."""
    certs = []
    for search in (lambda: find_dual_vectors(X, stream=stream), lambda: exact_dual_fallback(X)):
        try:
            certs.append(certify_quality(X, search()))
        except (CollisionNotFound, SurjectivityError):
            certs.append(None)
    return certs


def verified_searches(X, stream):
    """(collision, fallback): each search's certificate where it verifies, else None."""
    return [c if c is not None and c.verified else None for c in searches(X, stream)]


def both_searches(X, stream):
    """The two-search rule, on every X: the collision search, then the
    fallback; the verified certificate of smaller q2 wins, the first on a
    tie."""
    certs = [c for c in verified_searches(X, stream) if c is not None]
    return min(certs, key=lambda c: c.q2, default=None)


def q2_sq(cert):
    return max(map(norm_sq, cert.u))


def kind(X):
    """Which path ``best_certificate`` should take on X: "unit" and "floor"
    (no search; q2^2 = 1 and 2) or "both" (no certificate of q2^2 <= 2)."""
    if min(unit_columns(X)) >= 1:
        return "unit"
    return "floor" if floor_oracle(X) is not None else "both"


def unit_columns(X):
    """The number of columns of X equal to +-e_i, for each row i."""
    return [sum(col == tuple(v * s for v in row) for col in X.cols for s in (1, -1))
            for row in np.eye(X.n_rows, dtype=int).tolist()]


def first_unit_columns(X):
    """u_i = s e_j for the first column j of X equal to s e_i, one per row;
    None when some row has no such column."""
    A = X.to_numpy()
    n, m = A.shape
    us = []
    for i in range(n):
        hits = [(j, s) for j in range(m) for s in (1, -1) if (A[:, j] == s * np.eye(n, dtype=int)[i]).all()]
        if not hits:
            return None
        j, s = hits[0]
        us.append(tuple(s if k == j else 0 for k in range(m)))
    return us


def corpus():
    """Seeded n x m matrices, n <= 3, m <= 10, entries in {-2..2}: as drawn,
    with one unit column planted per row, with a second one planted in a
    row, with a row doubled (full rank, not onto), with a row repeated
    (rank-deficient) and, for m >= 2n, with a pair of columns x_j + x_k = e_i
    planted per row (so u_i = e_j + e_k gives a certificate of q2^2 = 2)."""
    rng = np.random.default_rng(27)
    out = []
    for n in (1, 2, 3):
        for m in range(n, 11):
            for _ in range(2):
                A = rng.integers(-2, 3, size=(n, m))
                out.append(A.copy())
                cols = rng.permutation(m)
                B = A.copy()
                for i in range(n):
                    B[:, cols[i]] = 0
                    B[i, cols[i]] = rng.choice((-1, 1))
                out.append(B)
                if m > n:
                    C = B.copy()
                    i = int(rng.integers(n))
                    C[:, cols[n]] = 0
                    C[i, cols[n]] = rng.choice((-1, 1))
                    out.append(C)
                D = A.copy()
                D[int(rng.integers(n))] *= 2
                out.append(D)
                if n >= 2:
                    E = A.copy()
                    E[1] = E[0]
                    out.append(E)
    for n in (1, 2, 3):
        for m in range(2 * n, 11):
            for _ in range(2):
                F = rng.integers(-2, 3, size=(n, m))
                cols = rng.permutation(m)
                for i in range(n):
                    F[:, cols[2 * i + 1]] = np.eye(n, dtype=int)[i] - F[:, cols[2 * i]]
                out.append(F)
    return [IntMatrix.from_rows(M.tolist()) for M in out]


CORPUS = corpus()


def test_corpus_covers_every_case():
    rows = [k for X in CORPUS for k in unit_columns(X)]
    assert min(rows.count(0), rows.count(1), sum(k >= 2 for k in rows)) >= 30
    assert sum(unit_columns(X) == [1] * X.n_rows for X in CORPUS) >= 30
    assert sum(min(unit_columns(X)) >= 1 and max(unit_columns(X)) >= 2 for X in CORPUS) >= 10
    ranks = [np.linalg.matrix_rank(X.to_numpy()) for X in CORPUS]
    deficient = sum(r < X.n_rows for r, X in zip(ranks, CORPUS))
    not_onto = sum(r == X.n_rows and not is_surjective(X) for r, X in zip(ranks, CORPUS))
    assert deficient >= 10 and not_onto >= 10


def test_floor_certificate_takes_the_first_unit_column_of_each_row():
    for X in CORPUS:
        floor = floor_certificate(X)
        unit = first_unit_columns(X)
        assert (unit is not None) == (min(unit_columns(X)) >= 1), X.rows
        if unit is not None:
            assert floor == unit, X.rows
            cert = certify_quality(X, floor)
            assert cert.verified and cert.q2 == 1.0, X.rows
        else:
            assert floor is None or q2_sq(certify_quality(X, floor)) == 2, X.rows
    X = IntMatrix.from_rows([[0, 1, 0, -1, 0], [-1, 0, 0, 0, 1], [0, 0, 1, 0, 0]])
    assert floor_certificate(X) == [(0, 1, 0, 0, 0), (-1, 0, 0, 0, 0), (0, 0, 1, 0, 0)]
    # row 2 has no unit column, and its one pair, -e_1 + e_3, takes row 1's
    # one candidate, e_1
    assert floor_certificate(IntMatrix.from_rows([[1, 0, 1], [0, 2, 1]])) is None


def random_matrices(count):
    """Seeded n x m matrices, n <= 3, m <= 7, entries in {-2..2}: as drawn,
    with a unit column planted in some rows, with a row doubled (full rank,
    not onto) or with a row repeated (rank-deficient)."""
    rng = np.random.default_rng(31)
    out = []
    for k in range(count):
        n = int(rng.integers(1, 4))
        A = rng.integers(-2, 3, size=(n, int(rng.integers(n, 8))))
        for i in range(n):
            if rng.random() < 0.3:
                j = int(rng.integers(A.shape[1]))
                A[:, j] = 0
                A[i, j] = rng.choice((-1, 1))
        if k % 5 == 3:
            A[int(rng.integers(n))] *= 2
        if k % 5 == 4 and n >= 2:
            A[1] = A[0]
        out.append(IntMatrix.from_rows(A.tolist()))
    return out


def test_floor_certificate_matches_the_sparse_oracle():
    # the rule finds a certificate exactly where the oracle does, of the
    # oracle's max ||u_i||^2, and it verifies
    certify = [IntMatrix.from_rows([list(r) for r in op.X])
               for seed in (1, 2, 3) for op in load_workloads().WORKLOADS["certify"].generate(seed)]
    drawn = random_matrices(300)
    found = Counter()
    for X in certify + drawn:
        floor, want = floor_certificate(X), floor_oracle(X)
        assert (floor is None) == (want is None), X.rows
        if floor is not None:
            cert = certify_quality(X, floor)
            assert cert.verified and q2_sq(cert) == want, X.rows
        found[want] += 1
    assert min(found[1], found[2], found[None]) >= 30, found
    ranks = [np.linalg.matrix_rank(X.to_numpy()) for X in drawn]
    assert sum(r < X.n_rows for r, X in zip(ranks, drawn)) >= 10
    assert sum(r == X.n_rows and not is_surjective(X) for r, X in zip(ranks, drawn)) >= 10


def sparse_candidates(X):
    """For each row i of X, the u with at most two nonzero entries, each
    +-1, and X u = e_i, ordered unit first, then by (j, s) and (j, k, s, t)."""
    n, m = X.shape
    terms = [((j, s),) for j in range(m) for s in (-1, 1)]
    terms += [((j, s), (k, t)) for j in range(m) for k in range(j + 1, m) for s in (-1, 1) for t in (-1, 1)]
    out = [[] for _ in range(n)]
    for ts in terms:
        u = [0] * m
        for j, s in ts:
            u[j] = s
        image = list(X @ u)
        for i in range(n):
            if image == [int(r == i) for r in range(n)]:
                out[i].append(tuple(u))
    return out


def plain_backtracking(X):
    """The first pairwise orthogonal choice of one ``sparse_candidates``
    vector per row, rows in order, with no pruning, and the number of
    partial choices it visits."""
    candidates = sparse_candidates(X)
    visited = 0

    def extend(chosen):
        nonlocal visited
        if len(chosen) == len(candidates):
            return chosen
        for u in candidates[len(chosen)]:
            if all(dot(u, v) == 0 for v in chosen):
                visited += 1
                found = extend([*chosen, u])
                if found is not None:
                    return found
        return None
    return extend([]), visited


def test_floor_search_stays_fast_where_plain_backtracking_does_not():
    # n = 4, m = 16.  A (q2^2 = 2): row 4's one pair takes row 1's one unit
    # column, and row 1's only other candidate is its last pair, so plain
    # backtracking tries every choice of rows 2 and 3 under each of row 1's
    # 17 first candidates.  B: rows 3 and 4 share one column, so no
    # certificate exists, but only a choice for row 3 shows it, under every
    # choice of rows 1 and 2.  Zero columns (8 in A, 12 in B) give rows 1-3
    # their many pairs (a unit column and a zero column)
    def matrix(cols):
        return IntMatrix.from_rows([list(r) for r in zip(*cols)])
    e = np.eye(4, dtype=int).tolist()
    zero = [0, 0, 0, 0]
    A = matrix([e[0]] + [e[1]] * 2 + [e[2]] * 2 + [zero] * 8 + [[1, 0, 0, 1], [2, 1, 1, 1], [1, 1, 1, 1]])
    B = matrix([e[0], e[1], e[2]] + [zero] * 12 + [[0, 0, 1, 1]])
    for X in (A, B):
        want, visited = plain_backtracking(X)
        assert X.shape == (4, 16) and visited >= 10 ** 4
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            got = floor_certificate(X)
            seconds.append(time.perf_counter() - start)
        assert got == want
        assert min(seconds) < 0.01, seconds
    assert certify_quality(A, floor_certificate(A)).verified and floor_certificate(B) is None


def test_best_certificate_is_the_two_search_rule():
    # the floor certificate where X has one, at the oracle's q2; elsewhere
    # the two-search rule's q2 and u
    outcomes = set()
    shorter = 0
    for i, X in enumerate(CORPUS):
        stream = SampleStream(5).substream(i)
        got, want = best_certificate(X, stream), both_searches(X, stream)
        collision, fallback = verified_searches(X, stream)
        floor = floor_oracle(X)
        if floor is not None:
            assert (q2_sq(got), got.verified) == (floor, True), X.rows
            assert got.u == tuple(floor_certificate(X)), X.rows
            assert got.search_stats == {"path": "unit" if floor == 1 else "floor", "searches_run": 0}, X.rows
            assert want is not None and got.q1 == want.q1 and got.q2 <= want.q2, X.rows
            shorter += got.q2 < want.q2
            continue
        # without a floor certificate no certificate has q2^2 <= 2
        assert all(q2_sq(c) > 2 for c in (collision, fallback) if c is not None), X.rows
        if want is None:
            assert got is None, X.rows
            continue
        assert (got.q1, got.q2, got.verified, got.u) == (want.q1, want.q2, want.verified, want.u), X.rows
        q2s = [c.q2 if c is not None else np.inf for c in (collision, fallback)]
        path = "collision" if q2s[0] <= q2s[1] else "fallback"
        assert got.search_stats == {"path": path, "searches_run": 2}, X.rows
        outcomes.add("tie" if q2s[0] == q2s[1] else path)
    # where both searches miss X's floor certificate, the rule reports a smaller q2
    assert shorter >= 1
    # off the floor certificates, the corpus holds both winners and ties
    assert outcomes == {"collision", "fallback", "tie"}


def test_collision_search_runs_only_where_it_can_change_the_answer(monkeypatch):
    calls = []

    def counted(name):
        search = getattr(dgsum.cli, name)

        def run(*args, **kwargs):
            calls.append(name)
            return search(*args, **kwargs)
        return run

    for name in ("find_dual_vectors", "exact_dual_fallback"):
        monkeypatch.setattr(dgsum.cli, name, counted(name))
    expected = {"unit": [], "floor": [], "both": ["exact_dual_fallback", "find_dual_vectors"]}
    kinds = Counter()
    for i, X in enumerate(CORPUS):
        stream = SampleStream(5).substream(i)
        k = kind(X)
        calls.clear()
        cert = best_certificate(X, stream)
        # none where X has a certificate of q2^2 <= 2; the fallback, then
        # the collision search, elsewhere
        assert calls == expected[k], X.rows
        assert cert is None or cert.search_stats["searches_run"] == len(calls), X.rows
        kinds[k] += 1
    assert min(kinds[k] for k in expected) >= 10, kinds
    # two unit certificates (columns 1 and 3 are both e_1): neither search runs
    calls.clear()
    best_certificate(IntMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1]]), SampleStream(1))
    assert calls == []


def test_a_certificate_below_the_floor_is_an_invariant_violation(monkeypatch):
    # X = 1 2 1 / 1 1 2 has no floor certificate (its rows' only sparse u,
    # -e_1 + e_2 and -e_1 + e_3, share column 1), so a verified u of
    # q2^2 = 1 or 2 breaks the rule
    X = IntMatrix.from_rows([[1, 2, 1], [1, 1, 2]])
    assert floor_oracle(X) is None
    for u in (((1, 0, 0), (0, 1, 0)), ((-1, 1, 0), (0, 0, 1))):
        monkeypatch.setattr(dgsum.cli, "exact_dual_fallback", lambda X: u)
        monkeypatch.setattr(dgsum.cli, "certify_quality", lambda X, u: QualityCertificate(
            q1=math.sqrt(5), q2=math.sqrt(max(map(norm_sq, u))), u=u, verified=True))
        with pytest.raises(InvariantViolation, match="q2\\^2 <= 2"):
            best_certificate(X, SampleStream(1))


def test_a_floor_certificate_that_fails_to_verify_is_an_invariant_violation(monkeypatch):
    # u_1 = e_1 and u_2 = -e_1 + e_3 pair correctly with X's rows, but are
    # not orthogonal
    X = IntMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    monkeypatch.setattr(dgsum.cli, "floor_certificate", lambda X: [(1, 0, 0), (-1, 0, 1)])
    with pytest.raises(InvariantViolation, match="orthogonality"):
        best_certificate(X, SampleStream(1))


def test_floor_tie_takes_the_floor_certificate(tmp_path):
    # a certify op (seed 1, op 26) without a unit certificate (row 2 has no
    # +-e_2 column) where both searches reach q2^2 = 2 with different u;
    # the floor rule's u replaces both, and neither runs
    X = IntMatrix.from_rows([[-2, -1, -2, 0, -2, -1], [-1, 0, 0, 0, 0, 2]])
    seed = 1710461397
    collision, fallback = verified_searches(X, SampleStream(seed).substream(1))
    assert q2_sq(collision) == q2_sq(fallback) == floor_oracle(X) == 2 and collision.u != fallback.u
    floor = floor_certificate(X)
    # u_1 = -e_2 on the unit column x_2 = -e_1, u_2 = -e_1 + e_3
    assert floor == [(0, -1, 0, 0, 0, 0), (-1, 0, 1, 0, 0, 0)]
    xfile = tmp_path / "X.txt"
    xfile.write_text(X.to_text() + "\n")
    for command in ("kernel", "quality"):
        assert dgsum.cli.main([command, "--x-file", str(xfile), "--seed", str(seed),
                               "--out-dir", str(tmp_path / command)]) == 0
    cert = json.loads((tmp_path / "quality" / "certificate.json").read_text())
    assert cert["u"] == [list(v) for v in floor]
    assert cert["search_stats"] == {"path": "floor", "searches_run": 0}
    rep = json.loads((tmp_path / "kernel" / "kernel.json").read_text())
    # the collision search's u gave [0, 2, 3, 5], the fallback's [0, 3, 4, 5]
    # as here; the bound is 1 + sqrt(5) sqrt(2) for all three
    assert rep["independent_subset"] == [0, 3, 4, 5]
    assert rep["short_vector_bound"] == 4.16227766017


def test_certify_workload_ops_pass_their_check(tmp_path, monkeypatch):
    # the benchmark's certify ops of seeds 1-3 through cli.main, each report
    # judged by the workload's own check, and each certificate's q2 the
    # oracle's where X has a floor certificate, else the two-search rule's
    # on the same X and stream, never above the two-search rule's
    workload = load_workloads().WORKLOADS["certify"]
    found = []

    def recorded(X, stream):
        cert = best_certificate(X, stream)
        found.append((X, stream, cert))
        return cert
    monkeypatch.setattr(dgsum.cli, "best_certificate", recorded)
    paths = Counter()
    shorter = 0
    for seed in (1, 2, 3):
        ops = workload.generate(seed)
        assert len(ops) == 68
        for k, op in enumerate(ops):
            xfile, out = tmp_path / f"X{seed}-{k}.txt", tmp_path / f"run{seed}-{k}"
            xfile.write_text("\n".join(" ".join(map(str, row)) for row in op.X) + "\n")
            found.clear()
            assert dgsum.cli.main(op.argv(xfile, out)) == 0, op
            assert workload.check(op, out) is None, op
            ((X, stream, cert),) = found
            floor = floor_oracle(X)
            if floor is not None:
                assert q2_sq(cert) == floor, op
            if floor != 1:
                searched = both_searches(X, stream)
                assert floor is not None or cert.q2 == searched.q2, op
                assert cert.q2 <= searched.q2, op
                shorter += cert.q2 < searched.q2
            paths[cert.search_stats["path"], cert.search_stats["searches_run"]] += 1
    # 94 ops have a unit certificate and 110 a floor certificate of q2^2 = 2;
    # on 14 of these both searches miss it
    assert paths == {("unit", 0): 94, ("floor", 0): 110}, paths
    assert shorter == 14
    # a corpus op where both searches miss the unit certificate (columns 5
    # and 3 are e_1 and -e_2): q2 = 1 and the bound is 1 + q1
    X = ((-2, -2, 0, 0, 1, 1, 0, -1, -1, 2, 1), (0, 2, -1, 2, 0, -1, 1, -2, 2, -1, -1))
    (k,) = [k for k, op in enumerate(workload.generate(1)) if op.X == X]
    rep = json.loads((tmp_path / f"run1-{k}" / "kernel.json").read_text())
    assert rep["short_vector_bound"] == pytest.approx(1 + math.sqrt(8), rel=1e-12)
    assert rep["lambda_hat"][-1] <= rep["short_vector_bound"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_best_certificate_runs_the_searches(path):
    source = path.read_text()
    assert stray_calls(source, ALLOWED) == set()
    assert named_lines(source, GONE) == set()


def test_stray_calls_flags_a_second_search_site():
    snippet = """
def best_certificate(X, stream):
    return certify_quality(X, exact_dual_fallback(X))

def cmd_kernel(cfg, stream):
    u = quality.find_dual_vectors(X, stream=stream)
    u = floor_certificate(X) or u
    u = unit_certificate(X) or u
"""
    assert stray_calls(snippet, ALLOWED) == {("find_dual_vectors", "cmd_kernel"), ("floor_certificate", "cmd_kernel")}
    assert named_lines(snippet, GONE) == {8}
