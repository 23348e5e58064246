"""The certificate search of the CLI, ``cli.best_certificate``: X's unit
certificate where it has one, else the two-search rule.  Every u_i is a
nonzero integer vector, so no certificate has q2 < 1, and where each row i
of X has a column equal to +-e_i the unit vectors u_i = +-e_j reach it
(``quality.unit_certificate``); neither search runs there.  Elsewhere the
collision search and the exact fallback both run and the smaller q2 wins,
the collision search's on a tie.  The rule lives in one function."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import dgsum.cli
from dgsum.cli import best_certificate
from dgsum.gaussian import SampleStream
from dgsum.intmat import IntMatrix, is_surjective
from dgsum.quality import (
    CollisionNotFound,
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


def both_searches(X, stream):
    """The two-search rule, on every X: the collision search, then the
    fallback; the verified certificate of smaller q2 wins, the first on a
    tie."""
    certs = [c for c in searches(X, stream) if c is not None and c.verified]
    return min(certs, key=lambda c: c.q2, default=None)


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
    row, with a row doubled (full rank, not onto) and with a row repeated
    (rank-deficient)."""
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
    # the unit certificate where X has one, the two-search rule elsewhere
    outcomes = set()
    shorter = 0
    for i, X in enumerate(CORPUS):
        stream = SampleStream(5).substream(i)
        got, want = best_certificate(X, stream), both_searches(X, stream)
        unit = unit_certificate(X)
        if unit is not None:
            assert (got.q2, got.u, got.verified) == (1.0, tuple(unit), True), X.rows
            assert want is not None and got.q1 == want.q1 and got.q2 <= want.q2, X.rows
            shorter += want.q2 > 1
            continue
        if want is None:
            assert got is None, X.rows
            continue
        assert (got.q1, got.q2, got.u, got.verified) == (want.q1, want.q2, want.u, want.verified), X.rows
        q2s = [c.q2 if c is not None and c.verified else np.inf for c in searches(X, stream)]
        outcomes.add("tie" if q2s[0] == q2s[1] else ("collision", "fallback")[int(np.argmin(q2s))])
    # where both searches miss X's unit certificate, the rule reports a smaller q2
    assert shorter >= 1
    # off the unit certificates, the corpus holds both winners and ties
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
    skipped = 0
    for i, X in enumerate(CORPUS):
        calls.clear()
        best_certificate(X, SampleStream(5).substream(i))
        # neither search runs where X has a unit certificate, each once elsewhere
        unit = min(unit_columns(X)) >= 1
        assert sorted(calls) == ([] if unit else ["exact_dual_fallback", "find_dual_vectors"]), X.rows
        skipped += unit
    assert skipped >= 30 and len(CORPUS) - skipped >= 30
    # two unit certificates (columns 1 and 3 are both e_1): neither search runs
    calls.clear()
    best_certificate(IntMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1]]), SampleStream(1))
    assert calls == []


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_certify_workload_ops_pass_their_check(tmp_path):
    # the benchmark's seed-1 certify ops through cli.main, each report
    # judged by the workload's own check
    workload = load_workloads().WORKLOADS["certify"]
    ops = workload.generate(1)
    assert len(ops) == 68
    for k, op in enumerate(ops):
        xfile, out = tmp_path / f"X{k}.txt", tmp_path / f"run{k}"
        xfile.write_text("\n".join(" ".join(map(str, row)) for row in op.X) + "\n")
        assert dgsum.cli.main(op.argv(xfile, out)) == 0, op
        assert workload.check(op, out) is None, op
    # a corpus op where both searches miss the unit certificate (columns 5
    # and 3 are e_1 and -e_2): q2 = 1 and the bound is 1 + q1
    X = ((-2, -2, 0, 0, 1, 1, 0, -1, -1, 2, 1), (0, 2, -1, 2, 0, -1, 1, -2, 2, -1, -1))
    (k,) = [k for k, op in enumerate(ops) if op.X == X]
    rep = json.loads((tmp_path / f"run{k}" / "kernel.json").read_text())
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
