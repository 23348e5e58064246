"""The certificate search of the CLI, ``cli.best_certificate``: X's unit
certificate where it has one, else the exact fallback where it reaches the
floor q2^2 = 2, else the two-search rule.  Every u_i is a nonzero integer
vector, so no certificate has q2 < 1, and where each row i of X has a
column equal to +-e_i the unit vectors u_i = +-e_j reach it
(``quality.unit_certificate``); neither search runs there.  On any other X
no certificate has q2^2 < 2 (a u_i = +-e_j with u_i . x_k = delta_ik makes
column j equal +-e_i), so where the fallback, which runs first, verifies at
q2^2 = 2 the collision search could at best tie and does not run.
Elsewhere both run and the smaller q2 wins, the collision search's on a
tie.  The rule lives in one function."""

import importlib.util
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import dgsum.cli
from dgsum.cli import best_certificate
from dgsum.gaussian import SampleStream
from dgsum.intmat import IntMatrix, InvariantViolation, is_surjective, norm_sq
from dgsum.quality import (
    CollisionNotFound,
    QualityCertificate,
    SurjectivityError,
    certify_quality,
    exact_dual_fallback,
    find_dual_vectors,
    unit_certificate,
)
from test_truncation_rule import stray_calls

SRC = Path(__file__).resolve().parents[1] / "src" / "dgsum"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# callee -> the functions of the package that may call it
ALLOWED = {"find_dual_vectors": {"best_certificate"}, "exact_dual_fallback": {"best_certificate"},
           "unit_certificate": {"best_certificate"}}


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


def kind(X, stream):
    """Which searches ``best_certificate`` should run on X: "unit" (none),
    "floor" (the fallback alone, which verifies at q2^2 = 2) or "both"."""
    if min(unit_columns(X)) >= 1:
        return "unit"
    fallback = verified_searches(X, stream)[1]
    return "floor" if fallback is not None and q2_sq(fallback) == 2 else "both"


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


def test_unit_certificate_takes_the_first_unit_column_of_each_row():
    for X in CORPUS:
        unit = unit_certificate(X)
        assert unit == first_unit_columns(X), X.rows
        assert (unit is not None) == (min(unit_columns(X)) >= 1), X.rows
        if unit is not None:
            cert = certify_quality(X, unit)
            assert cert.verified and cert.q2 == 1.0, X.rows
    X = IntMatrix.from_rows([[0, 1, 0, -1, 0], [-1, 0, 0, 0, 1], [0, 0, 1, 0, 0]])
    assert unit_certificate(X) == [(0, 1, 0, 0, 0), (-1, 0, 0, 0, 0), (0, 0, 1, 0, 0)]
    assert unit_certificate(IntMatrix.from_rows([[1, 0, 1], [0, 2, 1]])) is None


def test_best_certificate_is_the_two_search_rule():
    # the unit certificate where X has one; elsewhere the two-search rule's
    # q2, with the fallback's u where the fallback reaches the floor
    outcomes = set()
    shorter = 0
    for i, X in enumerate(CORPUS):
        stream = SampleStream(5).substream(i)
        got, want = best_certificate(X, stream), both_searches(X, stream)
        unit = unit_certificate(X)
        if unit is not None:
            assert (got.q2, got.u, got.verified) == (1.0, tuple(unit), True), X.rows
            assert got.search_stats == {"path": "unit", "searches_run": 0}, X.rows
            assert want is not None and got.q1 == want.q1 and got.q2 <= want.q2, X.rows
            shorter += want.q2 > 1
            continue
        collision, fallback = verified_searches(X, stream)
        # the floor: no certificate of an X without a unit certificate has q2^2 < 2
        assert all(q2_sq(c) >= 2 for c in (collision, fallback) if c is not None), X.rows
        if want is None:
            assert got is None, X.rows
            continue
        assert (got.q1, got.q2, got.verified) == (want.q1, want.q2, want.verified), X.rows
        q2s = [c.q2 if c is not None else np.inf for c in (collision, fallback)]
        if fallback is not None and q2_sq(fallback) == 2:
            assert got.u == fallback.u, X.rows
            assert got.search_stats == {"path": "fallback", "searches_run": 1}, X.rows
            outcomes.add("floor tie, u moved" if q2s[0] == q2s[1] and collision.u != fallback.u else "floor")
            continue
        assert got.u == want.u, X.rows
        path = "collision" if q2s[0] <= q2s[1] else "fallback"
        assert got.search_stats == {"path": path, "searches_run": 2}, X.rows
        outcomes.add("tie" if q2s[0] == q2s[1] else path)
    # where both searches miss X's unit certificate, the rule reports a smaller q2
    assert shorter >= 1
    # off the unit certificates, the corpus holds both winners, ties, and
    # floor ties where the fallback's u replaces the collision search's
    assert outcomes == {"collision", "fallback", "tie", "floor", "floor tie, u moved"}


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
    expected = {"unit": [], "floor": ["exact_dual_fallback"], "both": ["exact_dual_fallback", "find_dual_vectors"]}
    kinds = Counter()
    for i, X in enumerate(CORPUS):
        stream = SampleStream(5).substream(i)
        k = kind(X, stream)
        calls.clear()
        cert = best_certificate(X, stream)
        # none on a unit X; the fallback alone where it verifies at q2^2 = 2;
        # the fallback, then the collision search, elsewhere
        assert calls == expected[k], X.rows
        assert cert is None or cert.search_stats["searches_run"] == len(calls), X.rows
        kinds[k] += 1
    assert min(kinds[k] for k in expected) >= 10, kinds
    # two unit certificates (columns 1 and 3 are both e_1): neither search runs
    calls.clear()
    best_certificate(IntMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1]]), SampleStream(1))
    assert calls == []


def test_a_certificate_below_the_floor_is_an_invariant_violation(monkeypatch):
    # X = 1 2 1 / 1 1 2 has no unit column, so a verified u_1 = e_1 breaks the lemma
    X = IntMatrix.from_rows([[1, 2, 1], [1, 1, 2]])
    u = ((1, 0, 0), (0, 1, 0))
    monkeypatch.setattr(dgsum.cli, "exact_dual_fallback", lambda X: u)
    monkeypatch.setattr(dgsum.cli, "certify_quality",
                        lambda X, u: QualityCertificate(q1=math.sqrt(5), q2=1.0, u=u, verified=True))
    with pytest.raises(InvariantViolation, match="q2\\^2 < 2"):
        best_certificate(X, SampleStream(1))


def test_floor_tie_takes_the_fallback(tmp_path):
    # a certify op (seed 1, op 26) without a unit certificate (row 2 has no
    # +-e_2 column) where both searches reach q2^2 = 2 with different u
    X = IntMatrix.from_rows([[-2, -1, -2, 0, -2, -1], [-1, 0, 0, 0, 0, 2]])
    seed = 1710461397
    collision, fallback = verified_searches(X, SampleStream(seed).substream(1))
    assert q2_sq(collision) == q2_sq(fallback) == 2 and collision.u != fallback.u
    xfile = tmp_path / "X.txt"
    xfile.write_text(X.to_text() + "\n")
    for command in ("kernel", "quality"):
        assert dgsum.cli.main([command, "--x-file", str(xfile), "--seed", str(seed),
                               "--out-dir", str(tmp_path / command)]) == 0
    cert = json.loads((tmp_path / "quality" / "certificate.json").read_text())
    assert cert["u"] == [list(v) for v in fallback.u]
    assert cert["search_stats"] == {"path": "fallback", "searches_run": 1}
    rep = json.loads((tmp_path / "kernel" / "kernel.json").read_text())
    # the collision search's u gave [0, 2, 3, 5]; the bound is 1 + sqrt(5) sqrt(2) either way
    assert rep["independent_subset"] == [0, 3, 4, 5]
    assert rep["short_vector_bound"] == 4.16227766017


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_certify_workload_ops_pass_their_check(tmp_path, monkeypatch):
    # the benchmark's certify ops of seeds 1-3 through cli.main, each report
    # judged by the workload's own check, and each certificate's q2 that of
    # the unit certificate or else the two-search rule on the same X and stream
    workload = load_workloads().WORKLOADS["certify"]
    found = []

    def recorded(X, stream):
        cert = best_certificate(X, stream)
        found.append((X, stream, cert))
        return cert
    monkeypatch.setattr(dgsum.cli, "best_certificate", recorded)
    paths = Counter()
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
            want = 1.0 if unit_certificate(X) is not None else both_searches(X, stream).q2
            assert cert.q2 == want, op
            paths[cert.search_stats["path"], cert.search_stats["searches_run"]] += 1
    # 94 ops run no search, 94 the fallback alone, at q2^2 = 2
    assert paths[("unit", 0)] == 94 and paths[("fallback", 1)] == 94, paths
    assert sum(paths.values()) == 204
    # a corpus op where both searches miss the unit certificate (columns 5
    # and 3 are e_1 and -e_2): q2 = 1 and the bound is 1 + q1
    X = ((-2, -2, 0, 0, 1, 1, 0, -1, -1, 2, 1), (0, 2, -1, 2, 0, -1, 1, -2, 2, -1, -1))
    (k,) = [k for k, op in enumerate(workload.generate(1)) if op.X == X]
    rep = json.loads((tmp_path / f"run1-{k}" / "kernel.json").read_text())
    assert rep["short_vector_bound"] == pytest.approx(1 + math.sqrt(8), rel=1e-12)
    assert rep["lambda_hat"][-1] <= rep["short_vector_bound"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_best_certificate_runs_the_searches(path):
    assert stray_calls(path.read_text(), ALLOWED) == set()


def test_stray_calls_flags_a_second_search_site():
    snippet = """
def best_certificate(X, stream):
    return certify_quality(X, exact_dual_fallback(X))

def cmd_kernel(cfg, stream):
    u = quality.find_dual_vectors(X, stream=stream)
    u = unit_certificate(X) or u
"""
    assert stray_calls(snippet, ALLOWED) == {("find_dual_vectors", "cmd_kernel"), ("unit_certificate", "cmd_kernel")}
