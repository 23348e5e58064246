"""dgsum benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload exact-tvd --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  The process imports ``dgsum`` from ``src/``,
draws the workload's operation list from the seed, runs one untimed warm-up
operation and then drives ``dgsum.cli.main(argv)`` in-process, each
operation starting when the previous one returns.  It runs complete passes
over the list, at least ``MIN_PASSES`` and more while the next one fits in
``--seconds``; an operation's latency is its fastest pass, so a burst of
load from elsewhere on the host slows one pass of it, not its figure.  Every
report is checked; one operation is replayed from its manifest and must
reproduce its reports byte for byte.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced pass (each operation run once
untraced and once traced, whose reports must be identical).  Spans are written
to ``.perfbench_work/``.  Exit code 0 when the run finished; 2 when the
package is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Op, inputs_digest, matrix_text  # noqa: E402

SETUP_PROBES = 5
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120


def tail_percentile(n_ops: int) -> int:
    """Highest whole percentile with at least 10 of ``n_ops`` values beyond it."""
    return max(0, math.floor(100 * (1 - 10 / n_ops)))


def nearest_rank(values: list[float], pct: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


class Bench:
    """One workload run; ``ops`` replaces the generated list (for self-tests)."""

    def __init__(self, workload: str, seed: int, seconds: float, ops: list[Op] | None = None):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        from dgsum import cli

        self.cli = cli
        self.ops = self.wl.generate(seed) if ops is None else ops
        self.digest = inputs_digest(self.ops)
        self.work = ROOT / ".perfbench_work" / f"{workload}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.x_files = []
        for i, op in enumerate(self.ops):
            path = self.work / f"X{i}.txt"
            path.write_text(matrix_text(op.X))
            self.x_files.append(path)
        self.attempted = 0
        self.failures: list[str] = []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def call(self, argv: list[str], runner=None) -> tuple[int | None, float]:
        """One CLI call with its output captured; (exit code or None, seconds)."""
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = runner(self.cli.main, argv) if runner else self.cli.main(argv)
        except Exception as exc:  # a crashing op is a failed op; the run goes on
            rc = None
            sink.write(f"{type(exc).__name__}: {exc}")
        return rc, time.perf_counter() - t0

    def verify(self, i: int, rc: int | None, out_dir: Path) -> None:
        self.attempted += 1
        op = self.ops[i]
        if rc != 0:
            problem = f"exit code {rc}"
        else:
            try:
                problem = self.wl.check(op, out_dir)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable report: {exc}"
        if problem:
            self.failures.append(f"op {i} {op.command} {op.shape}: {problem}")

    def warm_up(self) -> None:
        op = self.wl.warmup
        x_file = self.work / "warmup.txt"
        x_file.write_text(matrix_text(op.X))
        self.call(op.argv(x_file, self.work / "warmup"))

    def reports(self, out_dir: Path) -> list[bytes]:
        return [(out_dir / name).read_bytes() if (out_dir / name).exists() else b""
                for name in self.wl.report_files]

    # ------------------------------------------------------------ passes
    def run_passes(self, one_op, min_passes: int = 1) -> list[list[float]]:
        """Complete passes over the op list: ``min_passes``, then while one more fits."""
        passes = []
        t_start = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            passes.append([one_op(i) for i in range(len(self.ops))])
            if len(passes) == 1:
                self.first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            now = time.perf_counter()
            if len(passes) >= min_passes and now - t_start + (now - t_pass) > self.seconds:
                return passes

    def untraced_op(self, i: int) -> float:
        out_dir = self.work / f"op{i}"
        rc, dt = self.call(self.ops[i].argv(self.x_files[i], out_dir))
        self.verify(i, rc, out_dir)
        return dt

    def replay(self, i: int) -> None:
        """Re-run op i from its manifest; its reports must be byte-identical."""
        self.attempted += 1
        src = self.work / f"op{i}"
        dst = self.work / f"replay{i}"
        rc, _ = self.call([self.ops[i].command, "--config", str(src / "manifest.json"), "--out-dir", str(dst)])
        if rc != 0 or self.reports(src) != self.reports(dst):
            self.failures.append(f"op {i}: manifest replay differs (exit {rc})")

    def setup_probes(self) -> list[float]:
        """Wall time of fresh processes that import, draw inputs and warm up."""
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", self.wl.name,
               "--seed", str(self.seed), "--seconds", str(self.seconds), "--trace", "0",
               "--setup-only"]
        times = []
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=PROBE_TIMEOUT_S)
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                self.failures.append(f"setup probe exit {proc.returncode}: {proc.stderr.decode()[-200:]}")
        return times

    # ------------------------------------------------------------- modes
    def end_to_end(self) -> dict[str, tuple[float, str]]:
        passes = self.run_passes(self.untraced_op, MIN_PASSES)
        lat = [min(col) for col in zip(*passes)]
        self.replay(min(range(len(lat)), key=lat.__getitem__))
        setup = self.setup_probes()
        pct = tail_percentile(len(lat))
        ops_file = ROOT / ".perfbench_work" / f"ops-{self.wl.name}-s{self.seed}.json"
        ops_file.write_text(json.dumps([
            {"command": op.command, "shape": op.shape, "flags": op.flags, "latency_s": [p[i] for p in passes]}
            for i, op in enumerate(self.ops)]) + "\n")
        self.notes = [
            f"passes {len(passes)}, ops per pass {len(lat)}",
            f"op_tail_ms is the p{pct} latency over {len(lat)} ops (per-op fastest of {len(passes)} passes)",
            f"peak RSS after pass 1 {self.first_pass_rss_mb:.2f} MB, after all passes "
            f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.2f} MB",
            f"setup probes (s): {' '.join(f'{t:.3f}' for t in setup)}",
        ]
        return {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (sum(lat), "s"),
            "op_p50_ms": (1000 * statistics.median(lat), "ms"),
            "op_tail_ms": (1000 * nearest_rank(lat, pct), "ms"),
            "peak_rss_mb": (self.first_pass_rss_mb, "MB"),
        }

    def traced(self) -> dict[str, tuple[float, str]]:
        from tracer import Tracer

        tracer = Tracer()
        plain_s = []
        traced_s = []

        def one_op(i: int) -> float:
            out_plain = self.work / f"op{i}"
            rc, dt = self.call(self.ops[i].argv(self.x_files[i], out_plain))
            self.verify(i, rc, out_plain)
            plain_s.append(dt)
            out_traced = self.work / f"traced{i}"
            tracer.install()
            try:
                rc, dt_traced = self.call(self.ops[i].argv(self.x_files[i], out_traced), tracer.run_op)
            finally:
                tracer.uninstall()
            self.verify(i, rc, out_traced)
            self.attempted += 1
            if self.reports(out_plain) != self.reports(out_traced):
                self.failures.append(f"op {i}: traced and untraced reports differ")
            traced_s.append(dt_traced)
            return dt

        passes = self.run_passes(one_op)
        self.replay(min(range(len(self.ops)), key=passes[0].__getitem__))
        err = tracer.self_sum_error()
        if err > 1e-6:
            self.failures.append(f"self times miss the op time by {err:.3g} s")
        span_file = ROOT / ".perfbench_work" / f"spans-{self.wl.name}-s{self.seed}.json.gz"
        tracer.write(span_file)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead"] = (sum(traced_s) / sum(plain_s), "ratio")
        top = max(tracer.self_s, key=tracer.self_s.get)
        self.notes = [
            f"traced ops {tracer.ops}, spans {len(tracer.name)} written to {span_file.relative_to(ROOT)}",
            f"tracing overhead: traced {sum(traced_s):.3f} s vs untraced {sum(plain_s):.3f} s",
            f"largest self time: {top} {tracer.self_s[top] / tracer.ops:.4f} s/op",
        ]
        return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dgsum" / "cli.py").is_file():
        print(f"perfbench: no dgsum package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        bench.warm_up()
        if args.setup_only:
            return 0
        metrics = bench.traced() if args.trace else bench.end_to_end()
    finally:
        bench.close()
    print(f"workload {args.workload} seed {args.seed} inputs_digest {bench.digest}")
    for line in bench.notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {len(bench.failures) / bench.attempted:.6g} ({len(bench.failures)} of {bench.attempted})")
    for line in bench.failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
