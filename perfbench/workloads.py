"""Workload definitions: seeded inputs and output checks.

Inputs are drawn with the standard library only and never call ``dgsum``, so
two versions of the program run on identical inputs for the same seed.  Each
workload draws a fixed number of operations per (shape, flag) cell; only the
matrix entries, the CLI seeds and the order depend on the workload seed, and
certify's large-m operations come from a fixed corpus.  This keeps the cost
of one pass over the operation list steady from seed to seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``dgsum <command> --x-file X --seed S <flags>``."""

    command: str
    X: tuple[tuple[int, ...], ...]
    seed: int
    flags: tuple[str, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.X), len(self.X[0])

    def argv(self, x_file: Path, out_dir: Path) -> list[str]:
        return [self.command, "--x-file", str(x_file), "--seed", str(self.seed),
                "--out-dir", str(out_dir), *self.flags]


def matrix_text(X) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in X) + "\n"


def inputs_digest(ops: list[Op]) -> str:
    """SHA-256 over the operation list (command, matrix, seed, flags)."""
    blob = json.dumps([[op.command, op.X, op.seed, op.flags] for op in ops])
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------- exact helpers

def _det(M: list[list[int]]) -> int:
    """Determinant of a small integer matrix by cofactor expansion."""
    if len(M) == 1:
        return M[0][0]
    return sum(
        (-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]])
        for j in range(len(M)) if M[0][j]
    )


def maximal_minor_gcd(X) -> int:
    """gcd of the n x n minors: 1 iff X maps Z^m onto Z^n, 0 iff rank < n."""
    n, m = len(X), len(X[0])
    g = 0
    for cols in itertools.combinations(range(m), n):
        g = math.gcd(g, _det([[row[c] for c in cols] for row in X]))
        if g == 1:
            return 1
    return g


def sparse_certificate(X) -> int | None:
    """Smallest max ||u_i||^2 over certificates whose u_i have <= 2 entries in {-1, 1}.

    A certificate is u_1..u_n with u_i . x_j = delta_ij and the u_i pairwise
    orthogonal.  None when no certificate of this sparse form exists.
    """
    n, m = len(X), len(X[0])
    cands = [((j, s),) for j in range(m) for s in (-1, 1)]
    cands += [((j, s), (k, t)) for j, k in itertools.combinations(range(m), 2)
              for s in (-1, 1) for t in (-1, 1)]
    sols: list[list[dict]] = [[] for _ in range(n)]
    for u in cands:
        img = [sum(s * row[j] for j, s in u) for row in X]
        for i in range(n):
            if all(img[j] == (j == i) for j in range(n)):
                sols[i].append(dict(u))
    best = None
    for us in itertools.product(*sols):
        if all(sum(s * us[b].get(j, 0) for j, s in us[a].items()) == 0
               for a in range(n) for b in range(a + 1, n)):
            q = max(len(u) for u in us)
            best = q if best is None else min(best, q)
    return best


def gram_det(X) -> int:
    """det(X X^T): the squared covolume of X's kernel lattice when X is onto."""
    return _det([[sum(a * b for a, b in zip(r, s)) for s in X] for r in X])


def threshold_class(X) -> int | None:
    """q1^2 * q2^2 for the column bound q1 and the best sparse certificate's q2.

    The benchmark's own certificate caps the distance threshold r without
    calling the program; the program's certificate may be worse and is never
    filtered on.  None when no sparse certificate exists.
    """
    q2sq = sparse_certificate(X)
    q1sq = max(sum(row[j] ** 2 for row in X) for j in range(len(X[0])))
    return None if q2sq is None else q1sq * q2sq


def _draw(rng: random.Random, n: int, m: int, bound: int, accept, seen: set):
    while True:
        X = tuple(tuple(rng.randint(-bound, bound) for _ in range(m)) for _ in range(n))
        if X not in seen and accept(X):
            seen.add(X)
            return X


def _cli_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2 ** 31)


# ------------------------------------------------------------------- workloads

class Workload:
    name: str
    warmup: Op
    report_files: tuple[str, ...]  # the files an op's replay must reproduce

    def generate(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, out_dir: Path) -> str | None:
        """None when the report passes, else the reason it does not."""
        raise NotImplementedError

    def rng(self, seed: int) -> random.Random:
        return random.Random(f"perfbench:{self.name}:{seed}")


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


class ExactTVD(Workload):
    """``tvd --exact --eps e`` at the default threshold; n=2, m in {4, 5}."""

    name = "exact-tvd"
    # ops per pass for each (m, det X X^T, eps) cell.  At a fixed threshold
    # class an op's cost follows det X X^T (the kernel lattice's covolume
    # squared): at m=4 the values 3, 5 and 9 cost about 1 : 1.25 : 1.6.  Fixed
    # counts per det keep a pass's cost steady from seed to seed.  The m=4
    # ops (0.07-0.2 s) hold the median and the tail, the m=5 ops (0.3-0.7 s)
    # a quarter of the time.
    cells = tuple((4, det, eps, count) for eps in (0.01, 0.001) for det, count in ((3, 4), (5, 7), (9, 3)))
    cells += ((5, 7, 0.01, 1), (5, 7, 0.001, 1))
    warmup = Op("tvd", ((1, 0, 1, 1), (0, 1, 1, -1)), 1, ("--exact", "--eps", "0.01"))

    def generate(self, seed: int) -> list[Op]:
        rng = self.rng(seed)
        seen: set = set()
        ops = []
        for m, det, eps, count in self.cells:
            for _ in range(count):
                X = _draw(rng, 2, m, 1, lambda X: gram_det(X) == det and threshold_class(X) == 2, seen)
                ops.append(Op("tvd", X, _cli_seed(rng), ("--exact", "--eps", str(eps))))
        rng.shuffle(ops)
        return ops

    report_files = ("tvd.json", "matrix.txt")

    def check(self, op: Op, out_dir: Path) -> str | None:
        eps = float(op.flags[op.flags.index("--eps") + 1])
        ex = _read_json(out_dir / "tvd.json").get("exact")
        if not ex:
            return "no exact report"
        if ex["support_size"] <= 0:
            return "empty support"
        if not ex["tvd"] <= 2 * eps + ex["truncation_error"]:
            return f"tvd {ex['tvd']} above 2 eps + truncation"
        return None


class Certify(Workload):
    """``kernel``: certificate, LLL-reduced kernel basis and the lambda bound; m <= 15."""

    name = "certify"
    # (n, m) grid, one op each per pass, in four cost bands.  Below: 19 ops
    # at m <= 5 (5-15 ms).  The median: a block of 30 ops at (2, 6), where
    # fixed CLI cost dominates (10-50 ms; the collision search makes one op
    # cost up to 5x another, so the block is large to steady its median).
    # Above: 5 ops at m = 7..9, then 14 LLL-bound ops (0.2-0.6 s) that hold
    # the tail and most of the time; kernel ranks 13 and 14, above
    # exact_dual_fallback's cap of 12, are on purpose.  Larger m (an op at
    # (1, 20) takes 2-3 s) would leave too few passes per run.  n = 3 starts at m = 10: below it
    # the collision search's restarts make op cost swing by 10x, and at
    # m <= 6 the program missed existing certificates (2 matrices in 60
    # seeds), which fails the op.
    cells = tuple(
        [(1, 2)] * 2 + [(1, 3)] * 3 + [(1, 4)] * 3 + [(1, 5)] * 3 + [(2, 3)] * 2 + [(2, 4)] * 3 + [(2, 5)] * 3
        + [(2, 6)] * 30
        + [(1, 7), (1, 8), (1, 9), (2, 7), (2, 8)]
        + [(1, 11)] * 3 + [(1, 12)] * 3 + [(2, 10)] * 4 + [(3, 10), (2, 11), (1, 14), (1, 15)]
    )
    # Up to this m a certificate need not exist, and where only long ones do
    # the collision search and the greedy fallback can both miss them, so a
    # sparse certificate is required.
    certificate_search_max_m = 8
    # From this m on, one matrix can cost 4x another of the same shape (LLL),
    # and nothing read off X (det X X^T, entry counts) predicts which; the
    # CLI seed drives the collision search, whose restarts made one (3, 10)
    # op take 4 s instead of 0.3 s and 53 MB instead of 40.  A fresh draw per
    # seed moved wall_s by a third from seed to seed, so these ops (matrix
    # and CLI seed) come from a corpus drawn once from a fixed seed; the
    # workload seed sets the ops below this m and the order of all.
    corpus_min_m = 7
    warmup = Op("kernel", ((1, 2, -1, 0, 2), (0, 1, 1, -2, 1)), 1, ())

    def feasible(self, X) -> bool:
        if maximal_minor_gcd(X) != 1:
            return False
        if len(X[0]) > self.certificate_search_max_m:
            return True
        return sparse_certificate(X) is not None

    def generate(self, seed: int) -> list[Op]:
        rng = self.rng(seed)
        corpus = random.Random(f"perfbench:{self.name}:corpus")
        seen: set = set()
        ops = []
        for n, m in self.cells:
            src = corpus if m >= self.corpus_min_m else rng
            ops.append(Op("kernel", _draw(src, n, m, 2, self.feasible, seen), _cli_seed(src), ()))
        rng.shuffle(ops)
        return ops

    report_files = ("kernel.json", "matrix.txt")

    def check(self, op: Op, out_dir: Path) -> str | None:
        rep = _read_json(out_dir / "kernel.json")
        n, m = op.shape
        basis = rep.get("kernel_basis", [])
        if len(basis) != m - n:
            return f"{len(basis)} kernel vectors, expected {m - n}"
        for b in basis:
            if len(b) != m or any(sum(a * v for a, v in zip(row, b)) for row in op.X):
                return "kernel vector not in the kernel"
        if rep.get("lambda_last_le_bound") is not True:
            return "lambda_last_le_bound not true"
        return None


WORKLOADS = {w.name: w for w in (ExactTVD(), Certify())}
