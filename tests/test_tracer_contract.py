"""The benchmark's span tracer rebinds dgsum names; they must all still exist."""

import importlib
import importlib.util
from pathlib import Path

import dgsum.cli
from dgsum.tvd import FiberWorkspace

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracer = load_tracer()
    for module, function in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"dgsum.{module}"), function, None)), (module, function)
    for method in tracer.METHODS:
        assert method in FiberWorkspace.__dict__, method


def _traced_op(tmp_path, argv):
    """One traced CLI op on X = [1 0 1 1; 0 1 1 -1]: its tracer."""
    tracer = load_tracer().Tracer()
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1 1\n0 1 1 -1\n")
    tracer.install()
    try:
        assert tracer.run_op(dgsum.cli.main, [*argv, "--x-file", str(xfile), "--seed", "4",
                                             "--out-dir", str(tmp_path / argv[0])]) == 0
    finally:
        tracer.uninstall()
    assert tracer.ops == 1
    return tracer


def test_tvd_exact_op_spans(tmp_path):
    # the per-layer metrics read these spans: the shared decomposition must
    # still go through the traced names
    tracer = _traced_op(tmp_path, ["tvd", "--exact"])
    # the class TVD needs no label region and no per-label fiber sum
    assert tracer.calls["tvd.region"] == 0
    assert tracer.calls["tvd.fiber_weight"] == 0
    assert tracer.calls["tvd.target_pmf"] == 0
    # X (the unit certificate's check that X is onto) and G = X X^T for the
    # coset classes; columns 1 and 2 are e_1 and e_2, so neither certificate
    # search runs and no augmented [X; u_1] is decomposed
    assert tracer.calls["intmat.hnf_column"] == 2
    # one enumeration: the target's dual sum over Z^n, from its Gram matrix
    assert tracer.calls["gaussian.enumerate_affine"] == 1
    # and no kernel is reduced
    assert tracer.calls["lattice.lll_reduce"] == 0
    assert tracer.calls["intmat.fraction_rank"] == 0


def test_tvd_ops_make_no_fiber_weight_calls(tmp_path):
    # the tracer reads a workspace's section box after any fiber_weight call;
    # no subcommand may call it, and the box counters read 0
    for argv in (["tvd", "--exact"], ["tvd", "--both", "--samples", "10000"],
                 ["main", "-n", "2", "-m", "4", "--trials", "2", "--exact"]):
        tracer = _traced_op(tmp_path, argv)
        assert tracer.calls["tvd.fiber_weight"] == 0, argv
        metrics = tracer.layer_metrics()
        assert metrics["tvd.box_points"][0] == metrics["tvd.box_keep_frac"][0] == 0.0, argv
    # --both builds the target pmf over one label region, for MC only
    tracer = _traced_op(tmp_path, ["tvd", "--both", "--samples", "10000"])
    assert tracer.calls["tvd.region"] == tracer.calls["tvd.target_pmf"] == 1


def test_kernel_op_spans(tmp_path):
    # cli.report_bytes sums the sizes of the paths recorded from write_json
    tracer = load_tracer().Tracer()
    written = []
    observe = tracer._observe_write_json

    def record(idx, args, out):
        written.append(Path(args[0]).name)
        observe(idx, args, out)

    reduced = []
    observe_lll = tracer._observe_lll_reduce

    def record_lll(idx, args, out):
        reduced.append(args[0].matrix)
        observe_lll(idx, args, out)

    tracer._observe_write_json = record
    tracer._observe_lll_reduce = record_lll
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1 1 2 -1\n0 1 1 -1 1 2\n")
    out = tmp_path / "run"
    argv = ["kernel", "--x-file", str(xfile), "--seed", "4", "--out-dir", str(out)]
    tracer.install()
    try:
        assert tracer.run_op(dgsum.cli.main, argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.ops == 1
    assert tracer.calls["cli.write_json"] == 2
    assert written == ["kernel.json", "manifest.json"]
    sizes = sum((out / name).stat().st_size for name in written)
    assert tracer.counts["cli.report_bytes"] == sizes
    # one reduction, of ker X for the report: X has the unit certificate
    # (e_1, e_2), so no search reduces ker [X; u_1]
    assert tracer.calls["intmat.fraction_rank"] == 0
    assert tracer.calls["lattice.lll_reduce"] == len(reduced) == 1
    assert [B.n_cols for B in reduced] == [4]
