"""Integer kernels, LLL, duals, and smoothing-parameter checks."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dgsum
from dgsum.intmat import IntMatrix, InvariantViolation, dot, fraction_rank, norm_sq, solve_integer
from dgsum.lattice import (
    LatticeBasis,
    RankError,
    _integral_gso,
    _round_half_even,
    dual_basis,
    integer_kernel,
    lll_reduce,
    nearest_plane,
    reduced_integer_kernel,
    smoothing_bound,
    smoothing_check,
    successive_minima_upper,
)


def test_kernel_forced_1d():
    K = integer_kernel(IntMatrix.from_rows([[1, 1]]))
    assert K.rank == 1
    v = K.vectors()[0]
    assert v in ((1, -1), (-1, 1))


def test_kernel_rank2_membership():
    X = IntMatrix.from_rows([[1, 1, 1]])
    K = integer_kernel(X)
    assert K.rank == 2
    for v in K.vectors():
        assert X @ v == (0,)
    for target in [(1, -1, 0), (0, 1, -1)]:
        assert solve_integer(K.matrix, target) is not None


def test_kernel_primitive_generator():
    X = IntMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    K = integer_kernel(X)
    assert K.rank == 1
    v = K.vectors()[0]
    assert v in ((-1, -1, 1), (1, 1, -1))


def test_kernel_rank_failure():
    with pytest.raises(RankError):
        integer_kernel(IntMatrix.from_rows([[1, 1], [2, 2]]))


def test_kernel_random_invariants():
    rng = np.random.default_rng(5)
    done = 0
    while done < 200:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n + 1, 8))
        X = IntMatrix.from_rows(rng.integers(-4, 5, size=(n, m)).tolist())
        try:
            K = integer_kernel(X)
        except RankError:
            continue
        assert K.rank == m - n
        for v in K.vectors():
            assert all(x == 0 for x in X @ v)
        done += 1


def test_reduced_integer_kernel_is_the_shared_reduction():
    X = IntMatrix.from_rows([[1, 0, 1, 1, 2], [0, 1, 1, -1, 1]])
    red = reduced_integer_kernel(X)
    assert red is X.reduced_kernel and red.provenance == "reduced"
    assert red.vectors() == lll_reduce(integer_kernel(X)).vectors()
    # same requirement and message as integer_kernel, before any reduction
    Y = IntMatrix.from_rows([[1, 1, 0], [2, 2, 0]])
    with pytest.raises(RankError, match=r"kernel rank 2 != m - n = 1"):
        reduced_integer_kernel(Y)
    assert "reduced_kernel" not in Y.__dict__
    # the matrix's own reduced kernel carries no rank requirement
    assert Y.reduced_kernel.rank == 2


def _gso_tuples(cols):
    d, lam = _integral_gso([list(c) for c in cols])
    return tuple(d), tuple(map(tuple, lam))


def _builds(cols) -> bool:
    try:
        LatticeBasis(IntMatrix.from_columns(cols))
    except RankError:
        return False
    return True


def test_gso_rank_check_matches_fraction_rank():
    rng = np.random.default_rng(17)
    outcomes = set()
    for i in range(300):
        r = int(rng.integers(1, 7))
        dim = int(rng.integers(max(r - 1, 1), r + 2))  # dim < r forces a dependency
        cols = [[int(x) for x in c] for c in rng.integers(-2, 3, size=(r, dim))]
        if i % 3 == 0 and r > 1:  # one column a combination of the others
            k = int(rng.integers(0, r))
            coef = rng.integers(-3, 4, size=r)
            cols[k] = [sum(int(coef[j]) * cols[j][t] for j in range(r) if j != k) for t in range(dim)]
        if i % 2 == 0:  # big integers: scale, and shift by a multiple of one column
            big = 10 ** int(rng.integers(20, 40)) + int(rng.integers(1, 1000))
            cols = [[big * x for x in c] for c in cols]
            j = int(rng.integers(0, r))
            cols = [c if k == j else [a + big * b for a, b in zip(c, cols[j])] for k, c in enumerate(cols)]
        independent = fraction_rank(cols) == r
        assert _builds(cols) == independent, cols
        outcomes.add(independent)
    assert outcomes == {True, False}


@pytest.mark.parametrize("cols", [
    [(0, 0, 0), (1, 2, 3)],  # zero first column
    [(1, 2, 3), (4, 5, 6), (1, 2, 3)],  # a duplicate
    [(1, 0, 0, 0), (0, 1, 0, 0), (2, -3, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],  # dependency in the middle
    [(1, 0, 2), (0, 1, 1), (1, 1, 3)],  # dependent last column
    [(10 ** 30, 1), (10 ** 60, 10 ** 30)],  # big integers, dependent last column
])
def test_dependent_bases_raise_rank_error(cols):
    assert fraction_rank(cols) < len(cols)
    with pytest.raises(RankError):
        LatticeBasis(IntMatrix.from_columns(cols))


def test_reduction_leaves_the_input_gso_unchanged():
    rng = np.random.default_rng(23)
    for cols in _random_bases(29, 40, 8):
        basis = LatticeBasis(IntMatrix.from_columns(cols))
        first, second = lll_reduce(basis), lll_reduce(basis)
        assert first == second and first.gso == second.gso
        target = [Fraction(int(x), 3) for x in rng.integers(-30, 31, size=basis.dim)]
        assert nearest_plane(first, target) == nearest_plane(first, target)
        assert basis.gso == _gso_tuples(cols)
        assert first.gso == _gso_tuples(first.vectors())


def test_lll_orthogonal_unchanged():
    basis = LatticeBasis(IntMatrix.from_columns([(2, 0), (0, 3)]))
    red = lll_reduce(basis)
    got = {tuple(abs(x) for x in v) for v in red.vectors()}
    assert got == {(2, 0), (0, 3)}


def test_lll_shears_off_large_multiple():
    basis = LatticeBasis(IntMatrix.from_columns([(1, 0), (100, 1)]))
    red = lll_reduce(basis)
    lens = sorted(norm_sq(v) for v in red.vectors())
    assert lens == [1, 1]


def test_lll_preserves_volume_and_membership():
    rng = np.random.default_rng(13)
    for _ in range(30):
        cols = rng.integers(-9, 10, size=(3, 3))
        if abs(round(np.linalg.det(cols.astype(float)))) < 1:
            continue
        basis = LatticeBasis(IntMatrix.from_columns(cols.tolist()))
        red = lll_reduce(basis)
        d0 = round(np.linalg.det(basis.matrix.to_numpy()))
        d1 = round(np.linalg.det(red.matrix.to_numpy()))
        assert abs(d0) == abs(d1)
        # original vectors lie in the reduced lattice
        for v in basis.vectors():
            assert solve_integer(red.matrix, v) is not None


def test_minima_integers():
    basis = LatticeBasis(IntMatrix.identity(3))
    assert successive_minima_upper(basis) == [1.0, 1.0, 1.0]


def test_minima_kernel_sqrt3():
    K = integer_kernel(IntMatrix.from_rows([[1, 0, 1], [0, 1, 1]]))
    lams = successive_minima_upper(K)
    assert lams == [pytest.approx(math.sqrt(3))]


def test_nearest_plane_membership():
    basis = lll_reduce(LatticeBasis(IntMatrix.from_columns([(2, 1), (1, 3)])))
    v = nearest_plane(basis, [Fraction(7), Fraction(5)])
    assert solve_integer(basis.matrix, v) is not None


# ------------------------------------------- exact-rational reference oracles
#
# The Fraction-based Gram-Schmidt, LLL and nearest-plane that the integral
# versions replaced: every decision is taken on the same exact rationals, so
# the outputs must be identical, not merely close.


def _oracle_gso(cols):
    r = len(cols)
    mu = [[Fraction(0)] * r for _ in range(r)]
    bsq, ortho = [], []
    for i in range(r):
        v = [Fraction(x) for x in cols[i]]
        for j in range(i):
            mu[i][j] = sum(Fraction(a) * b for a, b in zip(cols[i], ortho[j])) / bsq[j]
            v = [a - mu[i][j] * b for a, b in zip(v, ortho[j])]
        ortho.append(v)
        bsq.append(sum(a * a for a in v))
    return mu, bsq, ortho


def _oracle_lll(cols, delta):
    d = Fraction(delta).limit_denominator(10 ** 6)
    b = [list(c) for c in cols]
    r = len(b)
    if r <= 1:
        return b
    mu, bsq, _ = _oracle_gso(b)
    k = 1
    while k < r:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [a - q * c for a, c in zip(b[k], b[j])]
                mu, bsq, _ = _oracle_gso(b)
        if bsq[k] >= (d - mu[k][k - 1] ** 2) * bsq[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, bsq, _ = _oracle_gso(b)
            k = max(k - 1, 1)
    return b


def _oracle_nearest_plane(cols, target):
    _, bsq, ortho = _oracle_gso(cols)
    t = [Fraction(x) for x in target]
    v = [0] * len(t)
    for i in range(len(cols) - 1, -1, -1):
        c = round(sum(a * b for a, b in zip(t, ortho[i])) / bsq[i])
        t = [a - c * x for a, x in zip(t, cols[i])]
        v = [a + c * x for a, x in zip(v, cols[i])]
    return tuple(v)


def _random_bases(seed, count, max_rank):
    """Independent integer bases: small dense ones and skewed HNF kernel bases."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        r = int(rng.integers(1, max_rank + 1))
        if rng.random() < 0.5:
            # kernel of a 1 x (r + 1) row: HNF columns with large entries
            X = IntMatrix.from_rows([rng.integers(-9, 10, size=r + 1).tolist()])
            cols = list(X.hermite.kernel) if any(X.rows[0]) else []
        else:
            dim = r + int(rng.integers(0, 3))
            # even entries and half-steps make exact ties in the rounding
            cols = (rng.integers(-4, 5, size=(r, dim)) * int(rng.choice([1, 2]))).tolist()
        if len(cols) == r and fraction_rank(cols) == r:
            out.append([tuple(int(x) for x in c) for c in cols])
    return out


def test_round_half_even_matches_fraction_round():
    for den in range(1, 9):
        for num in range(-40, 41):
            assert _round_half_even(num, den) == round(Fraction(num, den)), (num, den)


def test_integral_gso_matches_rational_gso():
    for cols in _random_bases(21, 60, 7):
        d, lam = _integral_gso([list(c) for c in cols])
        mu, bsq, _ = _oracle_gso(cols)
        for i in range(len(cols)):
            assert Fraction(d[i + 1], d[i]) == bsq[i]
            for j in range(i):
                assert lam[i][j] == d[j + 1] * mu[i][j]


@pytest.mark.parametrize("delta", [0.5, 0.75, 0.99])
def test_lll_matches_rational_oracle(delta, monkeypatch):
    import dgsum.lattice

    # LOVASZ is 99/100; the other values check the integral updates against
    # the oracle at more swap-heavy settings
    monkeypatch.setattr(dgsum.lattice, "LOVASZ", Fraction(delta).limit_denominator(10 ** 6))
    rng = np.random.default_rng(int(delta * 100))
    bases = _random_bases(int(delta * 100), 100, 8)
    # kernels of one row at ranks 12 and 14, as in the large certify instances
    bases += [list(IntMatrix.from_rows([rng.integers(-2, 3, size=r + 1).tolist()]).hermite.kernel) for r in (12, 14)]
    bases.append([(2, 0), (5, 1)])  # mu = 5/2: ties to even give q = 2, not 3
    for cols in bases:
        red = lll_reduce(LatticeBasis(IntMatrix.from_columns(cols)))
        assert red.vectors() == [tuple(c) for c in _oracle_lll(cols, delta)], cols


def test_nearest_plane_matches_rational_oracle():
    rng = np.random.default_rng(8)
    for cols in _random_bases(9, 150, 8):
        basis = lll_reduce(LatticeBasis(IntMatrix.from_columns(cols)))
        red = [list(c) for c in basis.vectors()]
        dim = len(red[0])
        for _ in range(2):
            den = int(rng.choice([1, 2, 3, 6]))
            target = [Fraction(int(x), den) for x in rng.integers(-30, 31, size=dim)]
            assert nearest_plane(basis, target) == _oracle_nearest_plane(red, target)
        # a half-integer combination of the basis: the last coefficient is an exact tie
        coeff = [Fraction(2 * int(a) + 1, 2) for a in rng.integers(-3, 4, size=len(red))]
        target = [sum(c * v[i] for c, v in zip(coeff, red)) for i in range(dim)]
        assert nearest_plane(basis, target) == _oracle_nearest_plane(red, target)


def test_lll_gram_data_check_raises(monkeypatch):
    import dgsum.lattice

    calls = []

    def drifting(b):
        d, lam = _integral_gso(b)
        calls.append(b)
        if len(calls) == 2:  # the reduced basis's own gso, built inside lll_reduce
            d[-1] += 1
        return d, lam

    monkeypatch.setattr(dgsum.lattice, "_integral_gso", drifting)
    with pytest.raises(InvariantViolation):
        lll_reduce(LatticeBasis(IntMatrix.from_columns([(1, 0, 3), (4, 1, 0)])))


def test_dual_integers_self_dual():
    dual = dual_basis(LatticeBasis(IntMatrix.identity(2)))
    assert dual == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]


def test_dual_scaling():
    dual = dual_basis(LatticeBasis(IntMatrix.from_columns([(2,)])))
    assert dual == [(Fraction(1, 2),)]


def test_dual_pairing_identity():
    basis = LatticeBasis(IntMatrix.from_columns([(1, 2, 0), (0, 1, 1)]))
    dual = dual_basis(basis)
    for i, b in enumerate(basis.matrix.cols):
        for j, d in enumerate(dual):
            pair = sum(Fraction(x) * y for x, y in zip(b, d))
            assert pair == (1 if i == j else 0)


def test_smoothing_bound_values():
    assert smoothing_bound(1, 0.01, 1.0).value == pytest.approx(1.2999, abs=1e-4)
    assert smoothing_bound(1, 0.999999, 1.0).value == pytest.approx(
        math.sqrt(math.log(4) / math.pi), abs=1e-3
    )
    assert math.sqrt(math.log(4) / math.pi) == pytest.approx(0.664, abs=1e-3)


def test_smoothing_bound_monotonicity_and_scaling():
    b = smoothing_bound(1, 0.01, 1.0).value
    assert smoothing_bound(1, 0.001, 1.0).value > b
    assert smoothing_bound(2, 0.01, 1.0).value > b
    assert smoothing_bound(1, 0.01, 2.0).value == pytest.approx(2 * b, rel=1e-12)
    with pytest.raises(ValueError):
        smoothing_bound(1, 1.5, 1.0)


def test_smoothing_bound_symbolic_inverse():
    # squaring and exponentiating the formula recovers 2 n (1 + 1/eps)
    for n, eps in [(1, 0.1), (2, 0.01), (3, 0.001)]:
        v = smoothing_bound(n, eps, 1.0).value
        assert math.exp(math.pi * v * v) == pytest.approx(2 * n * (1 + 1 / eps), rel=1e-9)


def test_smoothing_check_at_bound():
    Z = LatticeBasis(IntMatrix.identity(1))
    s = smoothing_bound(1, 0.01, 1.0).value
    holds, lhs, tail = smoothing_check(Z, s, 0.01)
    assert holds and lhs + tail <= 0.01


def test_smoothing_check_fails_below():
    Z = LatticeBasis(IntMatrix.identity(1))
    holds, lhs, _ = smoothing_check(Z, 0.1, 0.01)
    assert not holds
    # the +-1 terms alone already contribute 2 e^{-pi/100} ~ 1.94 >> eps
    assert lhs >= 2 * math.exp(-math.pi / 100) - 1e-9


def test_smoothing_check_lhs_monotone_in_s():
    Z = LatticeBasis(IntMatrix.identity(2))
    prev = math.inf
    for s in (0.8, 1.2, 2.0, 4.0):
        _, lhs, _ = smoothing_check(Z, s, 0.01)
        assert lhs < prev
        prev = lhs


def _smoothing_lhs_radius_12(basis, s):
    """The fixed-radius sum smoothing_check took before: every nonzero dual
    point with ||s y|| <= 12, from the dual basis's bounding box."""
    from dgsum.gaussian import enumerate_affine

    D = np.array([[float(x) for x in col] for col in zip(*dual_basis(basis))], dtype=float)
    T, _ = enumerate_affine(s * s * D.T @ D, np.zeros(D.shape[1]), 12.0)
    w = T @ (s * D).T
    nrm = np.einsum("ij,ij->i", w, w)
    return float(np.sum(np.sort(np.exp(-math.pi * nrm[nrm > 1e-18]))))


def test_smoothing_check_matches_radius_12_oracle():
    from dgsum.gaussian import banaszczyk_bound, banaszczyk_radius

    rng = np.random.default_rng(12)
    bases = [LatticeBasis(IntMatrix.identity(k)) for k in (1, 2, 3)]
    while len(bases) < 12:
        k = int(rng.integers(1, 4))
        M = IntMatrix.from_rows(rng.integers(-2, 3, size=(k + int(rng.integers(0, 2)), k)).tolist())
        if fraction_rank(M.rows) == k:
            bases.append(lll_reduce(LatticeBasis(M)))
    for basis in bases:
        for s in (0.6, 1.0, 1.7, 3.0):
            holds, lhs, tail = smoothing_check(basis, s, 0.01)
            assert abs(lhs - _smoothing_lhs_radius_12(basis, s)) <= 1e-12 * max(1.0, lhs)
            # the tail is the dual sum's Banaszczyk bound at 2^-100, from lhs
            beta = banaszczyk_bound(basis.rank, banaszczyk_radius(basis.rank))
            assert 0 < beta <= 2.0 ** -100
            assert tail == pytest.approx(beta * (1 + lhs) / (1 - beta), rel=1e-12, abs=0)
            assert holds == (lhs + tail <= 0.01)


# ------------------------------------------------- one computation per object
#
# The integral Gram-Schmidt data is computed once per basis (LatticeBasis.gso)
# and a kernel lattice is reduced once per matrix object
# (IntMatrix.reduced_kernel); a direct call elsewhere would compute it again.

SRC = Path(dgsum.__file__).resolve().parent
ALLOWED_CALLERS = {
    "_integral_gso": {"LatticeBasis.gso"},
    "lll_reduce": {"IntMatrix.reduced_kernel", "successive_minima_upper"},
}


def call_sites(source: str, names) -> list[tuple[str, str]]:
    """(callee, qualified name of the enclosing def or class) of every call to
    one of ``names``, as a plain or an attribute call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in names:
                    found.append((name, scope or "<module>"))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_call_sites_finds_every_call():
    source = """
from dgsum import lattice
def f(b):
    lattice.lll_reduce(b)
    return _integral_gso(b)
class LatticeBasis:
    @property
    def gso(self):
        return _integral_gso(self)
    def other(self):
        def inner():
            return lll_reduce(self, 0.5)
        return inner
lll_reduce(x)
integral_gso(x)
"""
    assert call_sites(source, ALLOWED_CALLERS) == [
        ("lll_reduce", "f"),
        ("_integral_gso", "f"),
        ("_integral_gso", "LatticeBasis.gso"),
        ("lll_reduce", "LatticeBasis.other.inner"),
        ("lll_reduce", "<module>"),
    ]


def test_gso_and_lll_are_called_only_by_their_owners():
    found = {name: set() for name in ALLOWED_CALLERS}
    for path in sorted(SRC.glob("*.py")):
        for name, scope in call_sites(path.read_text(), ALLOWED_CALLERS):
            assert scope in ALLOWED_CALLERS[name], f"{path.name}: {scope} calls {name}"
            found[name].add(scope)
    assert found == ALLOWED_CALLERS
