"""One answer per structural question about X: the pivots come from the HNF
elimination that fixes them, "X is not onto" is one error built at one
site, and "X is rank-deficient" is one error built by the rank check (and by
``LatticeBasis``'s own independence check), so a second scan, a second
error class or a second copy of a check cannot come back unnoticed."""

from pathlib import Path

import pytest

from dgsum.intmat import IntMatrix
from test_truncation_rule import named_lines, stray_calls

SRC = Path(__file__).resolve().parents[1] / "src" / "dgsum"

# callee -> the functions of the package that may call it
ALLOWED = {
    # the one not-onto error, raised by the one onto check
    "SurjectivityError": {"require_surjective"},
    # the onto test itself: that check, the certificate's invariant and the
    # draw loop's retry predicate, and no inline copy in a search or a TVD
    "is_surjective": {"require_surjective", "certify_quality", "draw_matrix"},
    # the one rank error, from the rank check and the basis's own check
    "RankError": {"require_full_row_rank", "LatticeBasis.__post_init__"},
}
# the rescan of H for its pivots and the TVD's own not-onto error
GONE = {"hnf_pivots", "NotInSupport"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_check_per_structural_question(path):
    source = path.read_text()
    assert stray_calls(source, ALLOWED) == set()
    assert named_lines(source, GONE) == set()


def test_one_column_accessor():
    assert not hasattr(IntMatrix, "column") and not hasattr(IntMatrix, "columns")


def test_guard_flags_second_checks():
    snippet = """
from .tvd import NotInSupport

def require_surjective(X):
    if not is_surjective(X):
        raise SurjectivityError("X does not map Z^m onto Z^n: some labels have no fiber")

def find_dual_vectors(X, stream):
    if not is_surjective(X):
        raise SurjectivityError("X does not map Z^m onto Z^n")

def _reduced_shift(X, c):
    if len(hnf_pivots(X.hermite.H)) < X.n_rows:
        raise RankError("X must have full row rank")
"""
    assert stray_calls(snippet, ALLOWED) == {
        ("is_surjective", "find_dual_vectors"),
        ("SurjectivityError", "find_dual_vectors"),
        ("RankError", "_reduced_shift"),
    }
    assert named_lines(snippet, GONE) == {2, 13}
