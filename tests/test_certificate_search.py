"""The certificate search of the CLI, ``cli.best_certificate``: the exact
fallback first, and the collision search only where it can change the
answer.  No certificate has q2 < 1, and one of q2 = 1 is made of unit
vectors u_i = +-e_j, column j of X being +-e_i; when X has exactly one such
certificate and the fallback finds it, the collision search could at best
tie with the same u.  So the answer is the old two-search rule's on every
X, and the rule's proof lives in one function."""

from pathlib import Path

import numpy as np
import pytest

import dgsum.cli
from dgsum.cli import best_certificate
from dgsum.gaussian import SampleStream
from dgsum.intmat import IntMatrix, is_surjective, norm_sq
from dgsum.quality import (
    CollisionNotFound,
    SurjectivityError,
    certify_quality,
    exact_dual_fallback,
    find_dual_vectors,
)
from test_truncation_rule import stray_calls

SRC = Path(__file__).resolve().parents[1] / "src" / "dgsum"

# callee -> the functions of the package that may call it
ALLOWED = {"find_dual_vectors": {"best_certificate"}, "exact_dual_fallback": {"best_certificate"}}


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
    """The rule before the skip: the collision search, then the fallback;
    the verified certificate of smaller q2 wins, the first on a tie."""
    certs = [c for c in searches(X, stream) if c is not None and c.verified]
    return min(certs, key=lambda c: c.q2, default=None)


def unit_columns(X):
    """The number of columns of X equal to +-e_i, for each row i."""
    return [sum(col == tuple(v * s for v in row) for col in X.cols for s in (1, -1))
            for row in np.eye(X.n_rows, dtype=int).tolist()]


def one_unit_certificate(X):
    """X has exactly one certificate of q2 = 1."""
    return unit_columns(X) == [1] * X.n_rows


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
    assert sum(map(one_unit_certificate, CORPUS)) >= 30
    ranks = [np.linalg.matrix_rank(X.to_numpy()) for X in CORPUS]
    deficient = sum(r < X.n_rows for r, X in zip(ranks, CORPUS))
    not_onto = sum(r == X.n_rows and not is_surjective(X) for r, X in zip(ranks, CORPUS))
    assert deficient >= 10 and not_onto >= 10


def test_best_certificate_is_the_two_search_rule():
    outcomes = set()
    for i, X in enumerate(CORPUS):
        stream = SampleStream(5).substream(i)
        got, want = best_certificate(X, stream), both_searches(X, stream)
        if want is None:
            assert got is None, X.rows
            continue
        assert (got.q1, got.q2, got.u, got.verified) == (want.q1, want.q2, want.u, want.verified), X.rows
        q2s = [c.q2 if c is not None and c.verified else np.inf for c in searches(X, stream)]
        outcomes.add("tie" if q2s[0] == q2s[1] else ("collision", "fallback")[int(np.argmin(q2s))])
    # the corpus holds both winners and ties
    assert outcomes == {"collision", "fallback", "tie"}


def test_collision_search_runs_only_where_it_can_change_the_answer(monkeypatch):
    calls = []

    def counted(X, stream):
        calls.append(X)
        return find_dual_vectors(X, stream=stream)

    monkeypatch.setattr(dgsum.cli, "find_dual_vectors", counted)
    skipped = unique = 0
    for i, X in enumerate(CORPUS):
        calls.clear()
        best_certificate(X, SampleStream(5).substream(i))
        # skipped where X has one unit certificate and the fallback finds it
        skip = one_unit_certificate(X) and max(map(norm_sq, exact_dual_fallback(X))) == 1
        assert len(calls) == (0 if skip else 1), X.rows
        skipped += skip
        unique += one_unit_certificate(X)
    assert skipped >= 30 and unique > skipped  # the fallback misses the unit certificate of some X
    # two unit certificates (columns 1 and 3 are both e_1): the search runs
    calls.clear()
    best_certificate(IntMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1]]), SampleStream(1))
    assert len(calls) == 1


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_best_certificate_runs_the_searches(path):
    assert stray_calls(path.read_text(), ALLOWED) == set()


def test_stray_calls_flags_a_second_search_site():
    snippet = """
def best_certificate(X, stream):
    return certify_quality(X, exact_dual_fallback(X))

def cmd_kernel(cfg, stream):
    u = quality.find_dual_vectors(X, stream=stream)
"""
    assert stray_calls(snippet, ALLOWED) == {("find_dual_vectors", "cmd_kernel")}
