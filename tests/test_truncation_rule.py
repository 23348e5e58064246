"""One truncation rule, one enumerator, one sampler and one image pmf: every
primal region, every Banaszczyk tail and every theta table of the package
goes through the functions that certify it, every lattice enumeration
through one Gram-matrix enumerator on one Cholesky factor, every draw
through the one table sampler, every target region and every 1-D term table
through one helper each, and every image transform through one helper, with
no per-label dual sum, so a second radius, tail formula, factorization,
sampler, region or image path cannot come back unnoticed."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dgsum"

# callee -> the functions of the package that may call it
ALLOWED = {
    # the one enumerator, on the one Cholesky factor of a Gram matrix
    "fincke_pohst": {"enumerate_affine"},
    # its callers: the one primal region, its radius and tail from
    # ``coset_radius``, and the one dual sum
    "enumerate_affine": {"truncate_coset", "poisson_sum"},
    # its callers: the one 1-D table (the sampler's, and the image side's
    # terms), and the one target region of both TVD entry points
    "truncate_coset": {"exact_pmf", "_target_region"},
    # the bisection that both radius rules run, the bound itself, and the
    # dual sums' tail at ``banaszczyk_radius``
    "banaszczyk_bound": {"PoissonSum.tail"},
    "_log_banaszczyk_bound": {"banaszczyk_bound", "_least_radius"},
    "_least_radius": {"banaszczyk_radius", "coset_radius"},
    # the primal region's rule, and the class TVD's dual theta tables
    "coset_radius": {"truncate_coset", "_theta_table"},
    # the one sampler: an inverse-CDF draw from a certified table, and no
    # uniforms drawn for a rejection step or a proposal
    "choice": {"_table_sample"},
    "random": set(),
    # one image side: the theta tables of the class pmf, and no batched
    # dual sum per label
    "_theta_table": {"_image_transform"},
    "sums": set(),
}
# the per-label dual sum's shifts and Gram inverse; the general shape and
# coset layer and the second integer sampler beside the one 1-D table; a
# second factorization of a basis and a float whitening inverse beside the
# one Cholesky factor of a Gram matrix
GONE = {"section_deltas", "Gw_inv", "GaussianShape", "LatticeCoset", "int_table", "sample_dg_ints",
        "qr", "lstsq", "inv"}


def stray_calls(source: str, allowed: dict[str, set[str]] = ALLOWED) -> set[tuple[str, str]]:
    """(callee, caller) for every call of an ``allowed`` callee from
    elsewhere; the caller is the dotted name of the enclosing classes and
    functions, or <module>."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            caller = ".".join(scope) or "<module>"
            if name in allowed and caller not in allowed[name]:
                found.add((name, caller))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def named_lines(source: str, names: set[str]) -> set[int]:
    """The lines whose code names one of ``names``: a name, an attribute, an
    import or a definition; docstrings and comments do not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            named = bool(names & {node.name, node.asname})
        else:
            named = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None))) in names
        if named:
            found.add(node.lineno)
    return found


def tail_names(source: str) -> set[int]:
    """The lines whose code names DUAL_TAIL."""
    return named_lines(source, {"DUAL_TAIL"})


def test_stray_calls_flags_a_second_region_and_tail():
    snippet = """
def truncate_coset(gram, x0):
    return enumerate_affine(gram, x0, coset_radius(len(gram), 0.0)[0])

class Region:
    def points(self):
        return gaussian.enumerate_affine(self.gram, self.x0, 12.0)

def enumerate_affine(gram, x0, radius):
    return fincke_pohst(np.linalg.cholesky(gram).T, x0, radius ** 2, radius)

def poisson_sum(gram):
    return fincke_pohst(np.linalg.cholesky(gram).T, 0 * gram[0], 9.0, 3.0)

def ball_tail_bound(k, r):
    return 6 * banaszczyk_bound(k, r)

RADIUS = _least_radius(2, 0.0)

def theta_radius(r):
    return coset_radius(1, 0.0)[0] / r

def _image_transform(X, r, c):
    return _theta_table(r, 0.0, 7)

class FiberWorkspace:
    def fiber_weight(self, z):
        return self.dual.sums(z) + _theta_table(1.0, 0.0, 3)[0]

def class_tvd(X, r, c):
    return gaussian.truncate_coset(r * X, X @ c)
"""
    assert stray_calls(snippet) == {
        ("enumerate_affine", "Region.points"),
        ("fincke_pohst", "poisson_sum"),
        ("banaszczyk_bound", "ball_tail_bound"),
        ("_least_radius", "<module>"),
        ("coset_radius", "theta_radius"),
        ("sums", "FiberWorkspace.fiber_weight"),
        ("_theta_table", "FiberWorkspace.fiber_weight"),
        ("truncate_coset", "class_tvd"),
    }


def test_tail_names_flags_code_only():
    snippet = """
from .gaussian import DUAL_TAIL as TAIL, ENUM_BUDGET
from . import gaussian

def radius(s):
    \"\"\"Radius at which the tail is below DUAL_TAIL.\"\"\"
    return s * math.sqrt(-math.log(gaussian.DUAL_TAIL) / math.pi)  # DUAL_TAIL

def cut(s):
    return s * DUAL_TAIL
"""
    assert tail_names(snippet) == {2, 7, 10}
    snippet = """
class FiberWorkspace:
    def section_deltas(self, T):
        \"\"\"The dual sums at T @ to_coef, from Gw_inv.\"\"\"
        return self.dual.points @ T  # not Gw_inv

    def scale(self):
        return np.linalg.det(self.Gw_inv)

def whiten(A, b, gram):
    \"\"\"lstsq, qr and inv in a docstring do not count.\"\"\"
    Q, U = np.linalg.qr(A)
    t0 = np.linalg.lstsq(A, b, rcond=None)[0]
    from numpy.linalg import inv
    return inv(np.linalg.cholesky(gram)), t0
"""
    assert named_lines(snippet, GONE) == {3, 8, 12, 13, 14, 15}


def test_stray_calls_flags_a_second_sampler():
    snippet = """
def _table_sample(pmf, size, gen):
    return pmf.points[gen.choice(len(pmf.points), size=size, p=pmf.masses)]

def sample_dg_ints(s, size, gen):
    u = gen.random(size)
    return np.floor(-s * np.log1p(-u))

class Coin:
    def flip(self, gen):
        return gen.choice([-1, 1])
"""
    assert stray_calls(snippet) == {("random", "sample_dg_ints"), ("choice", "Coin.flip")}


def test_package_has_one_truncation_rule():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        assert stray_calls(path.read_text()) == set(), path.name
        # only the rule itself reads the tail it certifies
        if path.name != "gaussian.py":
            assert tail_names(path.read_text()) == set(), path.name
        # the per-label dual sum and the general shape layer are gone from the package
        assert named_lines(path.read_text(), GONE) == set(), path.name
