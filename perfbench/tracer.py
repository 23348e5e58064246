"""Span tracing of dgsum's public functions from outside the package.

``Tracer.install`` rebinds every ``dgsum`` module attribute that refers to a
traced function (a name imported with ``from .x import y`` is a binding of its
own) and the traced ``FiberWorkspace`` methods; ``uninstall`` restores them.
Each call records a span (name, start, end, parent) in memory.  A span's self
time is its duration minus the durations of its direct children; the root span
of an operation is the ``cli`` call itself, so the self times of one operation
sum to its traced duration.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, function) pairs traced by rebinding module attributes
FUNCTIONS = (
    ("cli", "best_certificate"),
    ("cli", "write_json"),
    ("tvd", "exact_output_pmf"),
    ("tvd", "target_pmf"),
    ("tvd", "exact_tvd"),
    ("intmat", "solve_integer"),
    ("intmat", "hnf_column"),
    ("intmat", "fraction_rank"),
    ("intmat", "is_surjective"),
    ("lattice", "lll_reduce"),
    ("lattice", "nearest_plane"),
    ("lattice", "integer_kernel"),
    ("quality", "find_dual_vectors"),
    ("quality", "exact_dual_fallback"),
    ("quality", "certify_quality"),
    ("quality", "short_kernel_vectors"),
    ("gaussian", "enumerate_affine"),
)
# FiberWorkspace methods, reported as tvd.<method>
METHODS = ("fiber_weight", "region", "target_weight")
ROOT = "cli"
MODULES = ("cli", "tvd", "intmat", "lattice", "quality", "gaussian")


def span_names() -> list[str]:
    return [ROOT] + [f"{m}.{f}" for m, f in FUNCTIONS] + [f"tvd.{f}" for f in METHODS]


class Tracer:
    def __init__(self):
        self.names = span_names()
        self._code = {name: i for i, name in enumerate(self.names)}
        # spans, column-wise: name code, start, end, parent index, op index
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        # stack of [span index, summed child duration]
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op = -1
        self.ops = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.rank_max = 0
        self.op_spans: list[float] = []  # root duration per op
        self.op_self_sums: list[float] = []  # summed self times per op
        self._op_self = 0.0
        self._collision_u: dict[int, tuple] = {}
        self._workspaces: dict[int, object] = {}
        self._written: list[Path] = []

    # ------------------------------------------------------------ install
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in sys.modules.items()
                   if key == "dgsum" or key.startswith("dgsum.")]
        for mod_name, fn_name in FUNCTIONS:
            orig = getattr(sys.modules[f"dgsum.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        ws_cls = sys.modules["dgsum.tvd"].FiberWorkspace
        for meth in METHODS:
            orig = ws_cls.__dict__[meth]
            self._saved.append((ws_cls, meth, orig))
            setattr(ws_cls, meth, self._wrap(f"tvd.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # --------------------------------------------------------------- spans
    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._code[name])
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self._op)
        self._stack.append([idx, 0.0])
        return idx

    def _close(self, name: str, idx: int, t0: float, t1: float) -> None:
        _, child = self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        own = dur - child
        self.calls[name] += 1
        self.self_s[name] += own
        self._op_self += own

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.split(".")[-1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self._close(name, idx, t0, time.perf_counter())
                self.failed[name] += 1
                raise
            self._close(name, idx, t0, time.perf_counter())
            if observe is not None:
                observe(idx, args, out)
            return out

        return wrapper

    def run_op(self, fn, *args):
        """Call ``fn(*args)`` as the root span of one operation."""
        self._op += 1
        self._op_self = 0.0
        idx = self._open(ROOT)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._close(ROOT, idx, t0, t1)
            self.ops += 1
            self.op_spans.append(t1 - t0)
            self.op_self_sums.append(self._op_self)
            self._finish_op()

    # ------------------------------------------- counters from call results
    def _observe_region(self, idx, args, out):
        self.counts["tvd.labels"] += len(out)

    def _observe_fiber_weight(self, idx, args, out):
        ws = args[0]
        if ws.kernel is not None:
            self.counts["tvd.box_points"] += len(ws.box)
            self._workspaces[id(ws)] = ws

    def _observe_lll_reduce(self, idx, args, out):
        self.rank_max = max(self.rank_max, out.rank)

    def _observe_find_dual_vectors(self, idx, args, out):
        self._collision_u[self.parent[idx]] = tuple(tuple(int(v) for v in u) for u in out)

    def _observe_best_certificate(self, idx, args, out):
        u = self._collision_u.pop(idx, None)
        if out is not None:
            self.counts["quality.certificates"] += 1
            self.counts["quality.collision_won"] += u is not None and out.u == u

    def _observe_write_json(self, idx, args, out):
        self._written.append(Path(args[0]))

    def _finish_op(self) -> None:
        """Counters computed from the op's objects, outside its timed spans."""
        for ws in self._workspaces.values():
            nrm = np.einsum("ij,ij->i", ws.box_w, ws.box_w)
            self.counts["tvd.box_kept"] += int(np.count_nonzero(nrm <= ws.section_radius ** 2))
            self.counts["tvd.box_total"] += len(ws.box)
        self._workspaces.clear()
        self.counts["cli.report_bytes"] += sum(p.stat().st_size for p in self._written if p.exists())
        self._written.clear()
        self._collision_u.clear()

    # ------------------------------------------------------------- results
    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-op means of calls and self time, plus derived counters."""
        ops = max(self.ops, 1)
        out: dict[str, tuple[float, str]] = {}
        sources = {"calls": (self.calls, "count/op"), "self_s": (self.self_s, "s/op"),
                   "failed": (self.failed, "count/op")}
        for name, kinds in LAYER_SPANS:
            for kind in kinds:
                totals, unit = sources[kind]
                out[f"{name}.{kind}"] = (totals.get(name, 0) / ops, unit)
        for mod in MODULES[1:]:
            out[f"{mod}.self_s"] = (
                sum(v for k, v in self.self_s.items() if k.startswith(mod + ".")) / ops, "s/op")
        c = self.counts
        out["tvd.labels"] = (c["tvd.labels"] / ops, "count/op")
        out["tvd.box_points"] = (c["tvd.box_points"] / ops, "count/op")
        out["tvd.box_keep_frac"] = (c["tvd.box_kept"] / c["tvd.box_total"] if c["tvd.box_total"] else 0.0, "frac")
        out["lattice.lll_reduce.rank_max"] = (float(self.rank_max), "count")
        out["quality.collision_won_frac"] = (
            c["quality.collision_won"] / c["quality.certificates"] if c["quality.certificates"] else 0.0, "frac")
        out["cli.report_bytes"] = (c["cli.report_bytes"] / ops, "B/op")
        return out

    def self_sum_error(self) -> float:
        """Largest |sum of self times - root duration| over the traced ops."""
        return max((abs(a - b) for a, b in zip(self.op_spans, self.op_self_sums)), default=0.0)

    def write(self, path: Path) -> None:
        """Write every span, column-wise, as gzipped JSON."""
        doc = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op"],
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


# span name -> per-op metrics reported for it
LAYER_SPANS = (
    ("tvd.fiber_weight", ("calls", "self_s")),
    ("tvd.region", ("calls",)),
    ("tvd.target_weight", ("self_s",)),
    ("tvd.exact_output_pmf", ("self_s",)),
    ("tvd.target_pmf", ("self_s",)),
    ("tvd.exact_tvd", ("self_s",)),
    ("intmat.solve_integer", ("calls", "self_s")),
    ("intmat.hnf_column", ("calls", "self_s")),
    ("intmat.fraction_rank", ("calls", "self_s")),
    ("intmat.is_surjective", ("calls",)),
    ("lattice.lll_reduce", ("calls", "self_s")),
    ("lattice.nearest_plane", ("self_s",)),
    ("lattice.integer_kernel", ("self_s",)),
    ("quality.find_dual_vectors", ("calls", "self_s", "failed")),
    ("quality.exact_dual_fallback", ("calls", "self_s", "failed")),
    ("quality.certify_quality", ("self_s",)),
    ("quality.short_kernel_vectors", ("self_s",)),
    ("gaussian.enumerate_affine", ("calls", "self_s")),
    ("cli.best_certificate", ("self_s",)),
    ("cli.write_json", ("self_s",)),
    ("cli", ("self_s",)),
)
