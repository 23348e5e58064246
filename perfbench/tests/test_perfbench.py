"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import METHODS, Tracer  # noqa: E402
from workloads import WORKLOADS, inputs_digest, maximal_minor_gcd, sparse_certificate  # noqa: E402


def cheap_ops(name, seed=3, count=2):
    """The ``count`` ops with the fewest columns from a workload's list."""
    return sorted(WORKLOADS[name].generate(seed), key=lambda op: op.shape[1])[:count]


def dgsum_bindings():
    """Every (owner, attribute, value) binding of dgsum modules and FiberWorkspace."""
    mods = [m for k, m in sys.modules.items() if k == "dgsum" or k.startswith("dgsum.")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    ws = sys.modules["dgsum.tvd"].FiberWorkspace
    out.update({("FiberWorkspace", k): v for k, v in vars(ws).items()})
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_each_workload(name):
    count = 3
    bench = run.Bench(name, 3, 0.0, ops=cheap_ops(name, count=count))
    try:
        bench.warm_up()
        metrics = bench.end_to_end()
    finally:
        bench.close()
    assert bench.failures == []
    assert bench.attempted == run.MIN_PASSES * count + 1  # every op of every pass, and the manifest replay
    assert all(value > 0 for value, _ in metrics.values())
    assert not bench.work.exists()


def test_inputs_depend_only_on_seed():
    for wl in WORKLOADS.values():
        assert inputs_digest(wl.generate(5)) == inputs_digest(wl.generate(5))
        assert inputs_digest(wl.generate(5)) != inputs_digest(wl.generate(6))


def test_input_cuts():
    assert maximal_minor_gcd(((1, 1, 1), (0, 1, 2))) == 1
    assert maximal_minor_gcd(((2, 0), (0, 2))) == 4
    assert sparse_certificate(((1, 0, 1), (0, 1, 1))) == 1
    assert sparse_certificate(((2, 4),)) is None


def test_tracer_installs_and_removes_every_wrapper():
    run.Bench("exact-tvd", 3, 0.0, ops=[])  # imports dgsum
    before = dgsum_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = dgsum_bindings()
        changed = {key for key in before if during[key] is not before[key]}
        # every binding of a traced function was replaced, none is left behind
        originals = {id(before[key]) for key in changed}
        assert not any(id(v) in originals for v in during.values())
        assert {("FiberWorkspace", m) for m in METHODS} <= changed
        assert ("dgsum.tvd", "solve_integer") in changed  # a from-import binding
        assert ("dgsum.cli", "exact_tvd") in changed
    finally:
        tracer.uninstall()
    after = dgsum_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", ["exact-tvd", "certify"])
def test_traced_and_untraced_reports_identical(name):
    bench = run.Bench(name, 3, 0.0, ops=cheap_ops(name))
    try:
        bench.warm_up()
        metrics = bench.traced()
    finally:
        bench.close()
    assert bench.failures == []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in metrics.items()}
    assert metrics["trace.overhead"][0] > 0
    assert metrics["cli.self_s"][0] > 0


def test_self_times_sum_to_op_time():
    bench = run.Bench("exact-tvd", 3, 0.0, ops=cheap_ops("exact-tvd", count=1))
    tracer = Tracer()
    try:
        tracer.install()
        try:
            rc, _ = bench.call(bench.ops[0].argv(bench.x_files[0], bench.work / "t"), tracer.run_op)
        finally:
            tracer.uninstall()
    finally:
        bench.close()
    assert rc == 0
    assert tracer.ops == 1
    assert tracer.self_sum_error() < 1e-9
    assert tracer.calls["tvd.fiber_weight"] > 0
    assert tracer.calls["intmat.solve_integer"] >= tracer.calls["tvd.fiber_weight"]


def test_cli_fails_without_package(tmp_path):
    """In a directory holding only the benchmark, run.py exits non-zero."""
    dst = tmp_path / "perfbench"
    dst.mkdir()
    for f in BENCH.glob("*.py"):
        (dst / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_format():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and result["failed"] == 0
