"""Command-line front end: configs, reports, exit codes, reproducibility."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dgsum
from dgsum.cli import (
    EXIT_GATE,
    EXIT_INVARIANT,
    EXIT_OK,
    build_parser,
    jround,
    main,
    parse_config,
    resolve,
)


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    return json.loads(Path(path).read_text())


def test_jround_significant_digits():
    assert jround(math.pi) == float(f"{math.pi:.12g}")
    assert jround({"a": [np.float64(1.23456789012345678), np.int64(3)]}) == {
        "a": [1.23456789012, 3]
    }


def test_jround_keeps_exact_values_and_types():
    big = 3 ** 90
    got = jround({"i": big, "s": "x", "b": True, "n": None, "t": (1, np.int64(2), 0.1 + 0.2),
                  "f32": np.float32(0.1), "nb": np.bool_(False)})
    assert got == {"i": big, "s": "x", "b": True, "n": None, "t": [1, 2, 0.3],
                   "f32": float(f"{float(np.float32(0.1)):.12g}"), "nb": False}
    assert type(got["b"]) is bool and type(got["t"][1]) is int and type(got["nb"]) is np.bool_
    assert json.dumps(jround([True, 1, None])) == "[true, 1, null]"


def test_parse_config_key_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nm = 4  # comment\n\ns = 3.0\n")
    assert parse_config(str(cfg)) == {"n": "2", "m": "4", "s": "3.0"}


def test_parse_config_bad_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense\n")
    with pytest.raises(ValueError):
        parse_config(str(cfg))


def test_resolve_validation():
    parser = build_parser()
    args = parser.parse_args(["sample", "-n", "3", "-m", "2"])
    with pytest.raises(ValueError):
        resolve(args)
    args = parser.parse_args(["sample", "--eps", "2.0"])
    with pytest.raises(ValueError):
        resolve(args)


def test_invalid_config_exit_code():
    assert run(["sample", "-n", "3", "-m", "2"]) == EXIT_GATE


def test_cmd_sample(tmp_path):
    out = tmp_path / "run"
    code = run(["sample", "-n", "1", "-m", "2", "-r", "2.0", "--samples", "5000",
                "--seed", "3", "--out-dir", out])
    assert code == EXIT_OK
    lines = (out / "samples.csv").read_text().strip().splitlines()
    assert lines[0] == "z1" and len(lines) == 5001
    assert (out / "matrix.txt").exists()
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "sample"
    assert manifest["rng"]["generator"] == "numpy.random.Philox"


def test_cmd_sample_identity_instance_chi2(tmp_path):
    from scipy import stats

    from dgsum.gaussian import GaussianShape, LatticeCoset, exact_pmf

    xfile = tmp_path / "X.txt"
    xfile.write_text("1\n")
    out = tmp_path / "run"
    code = run(["sample", "--x-file", xfile, "-r", "2.0", "--samples", "100000",
                "--seed", "5", "--out-dir", out])
    assert code == EXIT_OK
    draws = np.loadtxt(out / "samples.csv", skiprows=1, dtype=np.int64)
    pmf = exact_pmf(LatticeCoset.integers(1), GaussianShape.spherical(2.0)).as_dict()
    ks = sorted(k[0] for k in pmf)
    N = len(draws)
    exp, obs, e_other, o_other = [], [], 0.0, 0
    for k in ks:
        e = pmf[(k,)] * N
        o = int(np.sum(draws == k))
        if e >= 5:
            exp.append(e)
            obs.append(o)
        else:
            e_other += e
            o_other += o
    exp.append(e_other + max(0.0, N - sum(exp) - e_other))
    obs.append(o_other + (N - sum(obs) - o_other))
    _, p = stats.chisquare(obs, exp)
    assert p > 0.001


def test_cmd_quality(tmp_path):
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1\n0 1 1\n")
    out = tmp_path / "run"
    assert run(["quality", "--x-file", xfile, "--seed", "2", "--out-dir", out]) == EXIT_OK
    cert = read_json(out / "certificate.json")
    assert cert["verified"]
    assert cert["q2"] <= math.sqrt(2) + 1e-9
    assert set(cert["nominal_bounds"]) == {"q1", "q2", "t", "prefix_budget"}


def test_cmd_quality_rank_failure(tmp_path):
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 1\n1 1\n")
    out = tmp_path / "run"
    assert run(["quality", "--x-file", xfile, "--out-dir", out]) == EXIT_GATE
    assert read_json(out / "certificate.json")["verified"] is False


def test_cmd_quality_not_onto_exits_2_with_one_line(tmp_path, capsys):
    # full row rank but not onto: no certificate exists
    xfile = tmp_path / "X.txt"
    xfile.write_text(" ".join(["-4 -2 2 2 4"] * 4) + "\n")
    out = tmp_path / "run"
    assert run(["quality", "--x-file", xfile, "--out-dir", out]) == EXIT_GATE
    err = capsys.readouterr().err
    assert err.startswith("no certificate: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert read_json(out / "certificate.json")["verified"] is False


def test_cmd_kernel(tmp_path):
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1\n0 1 1\n")
    out = tmp_path / "run"
    assert run(["kernel", "--x-file", xfile, "--seed", "2", "--out-dir", out]) == EXIT_OK
    rep = read_json(out / "kernel.json")
    assert rep["lambda_hat"][-1] == pytest.approx(math.sqrt(3), rel=1e-9)
    assert rep["short_vector_bound"] == pytest.approx(1 + math.sqrt(2), rel=1e-9)
    assert rep["lambda_last_le_bound"]


def test_cmd_kernel_zero_padded_identity(tmp_path):
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 0 0\n0 1 0 0\n")
    out = tmp_path / "run"
    assert run(["kernel", "--x-file", xfile, "--out-dir", out]) == EXIT_OK
    rep = read_json(out / "kernel.json")
    assert rep["lambda_hat"] == [1.0, 1.0]


@pytest.mark.parametrize("x_text", ["1 0\n0 1\n", "1\n", "2 1\n1 1\n"])
def test_cmd_kernel_square_unimodular(tmp_path, capsys, x_text):
    # trivial kernel: the first two have a verified certificate, the last none
    xfile = tmp_path / "X.txt"
    xfile.write_text(x_text)
    out = tmp_path / "run"
    assert run(["kernel", "--x-file", xfile, "--out-dir", out]) == EXIT_OK
    assert capsys.readouterr().err == ""
    rep = read_json(out / "kernel.json")
    assert rep["kernel_basis"] == [] and rep["lambda_hat"] == []
    assert "lambda_last_le_bound" not in rep


def test_cmd_tvd_identity(tmp_path):
    xfile = tmp_path / "X.txt"
    xfile.write_text("1\n")
    out = tmp_path / "run"
    assert run(["tvd", "--x-file", xfile, "-r", "2.0", "--exact",
                "--seed", "4", "--out-dir", out]) == EXIT_OK
    rep = read_json(out / "tvd.json")
    assert rep["exact"]["tvd"] <= 1e-10


def test_cmd_tvd_threshold_pass(tmp_path):
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 1\n")
    out = tmp_path / "run"
    assert run(["tvd", "--x-file", xfile, "--eps", "0.01", "--exact",
                "--seed", "4", "--out-dir", out]) == EXIT_OK
    rep = read_json(out / "tvd.json")
    assert rep["precondition_met"] and rep["verdict"] == "pass"
    assert rep["exact"]["tvd"] <= 0.02 + rep["exact"]["truncation_error"]


def test_cmd_tvd_below_threshold_gate(tmp_path):
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 1\n")
    out = tmp_path / "run"
    code = run(["tvd", "--x-file", xfile, "--eps", "0.01", "--exact",
                "-r", "1.3", "--seed", "4", "--out-dir", out])
    assert code == EXIT_GATE
    assert read_json(out / "tvd.json")["verdict"] == "precondition unmet"


def test_tvd_mc_does_not_build_image_pmf(tmp_path, monkeypatch):
    import dgsum.cli

    def refuse(*args, **kwargs):
        raise RuntimeError("--mc must not build the exact image pmf")

    monkeypatch.setattr(dgsum.cli, "exact_output_pmf", refuse)
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 1\n")
    out = tmp_path / "run"
    assert run(["tvd", "--x-file", xfile, "--mc", "--samples", "10000", "--out-dir", out]) == EXIT_OK
    rep = read_json(out / "tvd.json")
    assert "mc" in rep and "exact" not in rep


@pytest.mark.parametrize("estimate, ci_lo, code, verdict", [
    (0.015, 0.0, EXIT_OK, "pass"),  # the pass rule is unchanged: estimate <= 2 eps
    (0.5, 0.021, EXIT_INVARIANT, "fail"),  # a lower confidence bound above 2 eps
    (0.5, 0.02, EXIT_GATE, "inconclusive"),
    (0.5, 0.0, EXIT_GATE, "inconclusive"),
])
def test_tvd_mc_verdict_rests_on_the_lower_confidence_bound(tmp_path, capsys, monkeypatch,
                                                            estimate, ci_lo, code, verdict):
    import dgsum.cli
    from dgsum.tvd import MCTVDReport

    def fixed(sampler, target, N, stream):
        return MCTVDReport(estimate, ci_lo, 1.0, 0.99, N, 0.1, stream.identity())

    monkeypatch.setattr(dgsum.cli, "mc_tvd", fixed)
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 1\n")
    out = tmp_path / "run"
    assert run(["tvd", "--x-file", xfile, "--eps", "0.01", "--mc", "--samples", "10000",
                "--out-dir", out]) == code
    assert read_json(out / "tvd.json")["verdict"] == verdict
    err = capsys.readouterr().err
    if verdict == "inconclusive":
        assert err.startswith("inconclusive: ") and err.count("\n") == 1
    else:
        assert err == ""


def test_tvd_mc_at_its_bias_is_inconclusive_not_fail(tmp_path, capsys):
    # det XXᵀ = 6: the plug-in estimate 0.018 is far below its bias bound 0.14
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 1 1\n0 1 2\n")
    out = tmp_path / "run"
    code = run(["tvd", "--x-file", xfile, "--eps", "0.001", "--mc", "--samples", "200000", "--out-dir", out])
    err = capsys.readouterr().err
    assert code == EXIT_GATE
    assert err.startswith("inconclusive: ") and err.count("\n") == 1
    rep = read_json(out / "tvd.json")
    assert rep["verdict"] == "inconclusive"
    assert rep["mc"]["estimate"] > 0.002 >= rep["mc"]["ci"][0]


def test_main_counts_inconclusive_trials_as_skipped(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["main", "-n", "2", "-m", "3", "-s", "1.5", "--eps", "0.001", "--trials", "2",
                "--mc", "--samples", "20000", "--seed", "1", "--out-dir", out])
    assert code == EXIT_GATE
    assert capsys.readouterr().err == "no trial passed: 2 of 2 trials skipped: inconclusive (x2)\n"
    rep = read_json(out / "main_report.json")
    assert (rep["n_pass"], rep["n_fail"], rep["n_skipped"]) == (0, 0, 2)


def test_invalid_mode_is_an_invalid_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = exakt\n")
    assert run(["tvd", "--config", cfg, "--out-dir", tmp_path / "run"]) == EXIT_GATE
    err = capsys.readouterr().err
    assert err.startswith("invalid config: mode must be") and err.count("\n") == 1


@pytest.mark.parametrize("args, message", [
    (["main", "--trials", "-1"], "trials must be at least 1, not -1"),
    (["main", "--trials", "0"], "trials must be at least 1, not 0"),
    (["sample", "--samples", "-5"], "samples must be at least 1, not -5"),
    (["tvd", "-r", "0"], "r must be finite and positive, not 0"),
    (["tvd", "-r", "inf"], "r must be finite and positive, not inf"),
    (["tvd", "-r", "nan"], "r must be finite and positive, not nan"),
    (["kernel", "-s", "-2"], "s must be finite and positive, not -2"),
    (["quality", "-s", "inf"], "s must be finite and positive, not inf"),
])
def test_meaningless_numeric_options_are_invalid_config(tmp_path, capsys, args, message):
    out = tmp_path / "run"
    assert run(args + ["-n", "1", "-m", "2", "--out-dir", out]) == EXIT_GATE
    assert capsys.readouterr().err == f"invalid config: {message}\n"
    assert not out.exists()


def test_numeric_options_from_a_config_file_are_checked(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 0\n")
    assert run(["sample", "--config", cfg, "--out-dir", tmp_path / "run"]) == EXIT_GATE
    assert capsys.readouterr().err == "invalid config: samples must be at least 1, not 0\n"


def test_cmd_main_micro(tmp_path):
    out = tmp_path / "run"
    assert run(["main", "-n", "1", "-m", "2", "-s", "2.0", "--eps", "0.01",
                "--trials", "5", "--exact", "--seed", "11", "--out-dir", out]) == EXIT_OK
    rep = read_json(out / "main_report.json")
    assert rep["n_fail"] == 0 and rep["n_pass"] >= 1
    for entry in rep["trials"]:
        if entry["status"] == "pass":
            assert entry["result"]["exact"]["tvd"] <= 2 * 0.01 + entry["result"]["exact"]["truncation_error"]
            assert entry["threshold"] == pytest.approx(entry["result"]["threshold"])
    assert "parameter_checks" in rep


def test_manifest_replay_byte_identical(tmp_path):
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 1\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["tvd", "--x-file", xfile, "--eps", "0.01", "--both",
                "--samples", "20000", "--seed", "4", "--out-dir", out1]) == EXIT_OK
    assert run(["tvd", "--config", out1 / "manifest.json", "--out-dir", out2]) == EXIT_OK
    for name in ("tvd.json", "matrix.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sample_replay_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["sample", "-n", "2", "-m", "4", "-r", "2.5", "--samples", "2000", "--seed", "9"]
    assert run(args + ["--out-dir", out1]) == EXIT_OK
    assert run(["sample", "--config", out1 / "manifest.json", "--out-dir", out2]) == EXIT_OK
    for name in ("samples.csv", "matrix.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_main_invariant_violation_exits_3(tmp_path, monkeypatch):
    import dgsum.cli

    calls = []

    def broken(*args, **kwargs):
        calls.append(args)
        raise AssertionError("injected")

    monkeypatch.setattr(dgsum.cli, "_tvd_instance", broken)
    code = run(["main", "-n", "1", "-m", "2", "-s", "2.0", "--eps", "0.01",
                "--trials", "2", "--exact", "--seed", "11", "--out-dir", tmp_path / "run"])
    assert calls and code == EXIT_INVARIANT


@pytest.mark.parametrize("x_text, flags", [
    ("1 0 x\n0 1 1\n", ["kernel"]),
    ("1 0\n0 1\n1 1\n", ["kernel"]),
    ("1 1\n", ["tvd", "--mc", "--samples", "5000"]),
    (None, ["tvd", "--exact"]),  # the X file does not exist
    ("1 0 1\n0 1 1\n", ["kernel", "--config", "MISSING"]),  # nor does the config
    ("", ["kernel"]),  # an empty X file
    (" \n\t\n", ["tvd", "--exact"]),  # whitespace only
])
def test_invalid_input_exits_2_with_one_line(tmp_path, capsys, x_text, flags):
    xfile = tmp_path / "X.txt"
    if x_text is not None:
        xfile.write_text(x_text)
    flags = [tmp_path / "missing.cfg" if f == "MISSING" else f for f in flags]
    code = run(flags + ["--x-file", xfile, "--seed", "4", "--out-dir", tmp_path / "run"])
    err = capsys.readouterr().err
    assert code == EXIT_GATE
    prefix = "invalid config: " if "--config" in flags else "invalid input: "
    assert err.startswith(prefix) and err.count("\n") == 1
    if x_text is None or "--config" in flags:
        assert "No such file or directory" in err
    elif not x_text.strip():
        assert err == f"invalid input: X file {str(xfile)!r} holds no matrix\n"


@pytest.mark.parametrize("command", ["sample", "quality", "kernel", "tvd"])
def test_undrawable_matrix_exits_2_with_one_line(tmp_path, capsys, command):
    # at s = 0.05 nearly every entry is 0: no draw maps Z^3 onto Z^3
    code = run([command, "-n", "3", "-m", "3", "-s", "0.05", "--out-dir", tmp_path / "run"])
    err = capsys.readouterr().err
    assert code == EXIT_GATE
    assert err == ("invalid input: no onto 3x3 matrix drawn in 200 attempts at s = 0.05; "
                   "raise -s or give the matrix with --x-file\n")


def test_main_records_an_undrawable_matrix_as_a_skipped_trial(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["main", "-n", "3", "-m", "3", "-s", "0.05", "--trials", "1", "--out-dir", out])
    assert code == EXIT_GATE and capsys.readouterr().err.count("\n") == 1
    report = read_json(out / "main_report.json")
    assert report["n_skipped"] == 1
    assert report["trials"][0]["status"].startswith("error: no onto 3x3 matrix drawn in 200 attempts")


def test_main_with_no_passing_trial_says_why(tmp_path, capsys):
    # m = n: no trial has a threshold, so every one is skipped
    out = tmp_path / "run"
    code = run(["main", "-n", "3", "-m", "3", "--trials", "1", "--out-dir", out])
    err = capsys.readouterr().err
    assert code == EXIT_GATE
    assert err.startswith("no trial passed: 1 of 1 trials skipped: ") and err.count("\n") == 1
    status = read_json(out / "main_report.json")["trials"][0]["status"]
    assert f"{status} (x1)" in err


def _count_calls(monkeypatch, owner, name, calls):
    orig = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_tvd_exact_op_decomposes_and_enumerates_once(tmp_path, monkeypatch):
    import dgsum.gaussian
    import dgsum.intmat
    import dgsum.tvd

    hnf, region, enum = [], [], []
    _count_calls(monkeypatch, dgsum.intmat, "hnf_column", hnf)
    _count_calls(monkeypatch, dgsum.tvd.FiberWorkspace, "region", region)
    _count_calls(monkeypatch, dgsum.tvd, "enumerate_affine", enum)
    _count_calls(monkeypatch, dgsum.gaussian, "enumerate_affine", enum)
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1 1\n0 1 1 -1\n")
    assert run(["tvd", "--x-file", xfile, "--exact", "--seed", "4", "--out-dir", tmp_path / "run"]) == EXIT_OK
    # X (certificate search and fiber workspace) and the augmented [X; u_1]
    assert len(hnf) == 2 and hnf[0][0].rows == ((1, 0, 1, 1), (0, 1, 1, -1))
    assert len(hnf[1][0].rows) == 3
    assert len(region) == 1 and len(enum) == 1


def test_kernel_op_decomposes_each_matrix_once(tmp_path, monkeypatch):
    import dgsum.intmat

    hnf = []
    _count_calls(monkeypatch, dgsum.intmat, "hnf_column", hnf)
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1 1 2 -1\n0 1 1 -1 1 2\n")
    assert run(["kernel", "--x-file", xfile, "--seed", "4", "--out-dir", tmp_path / "run"]) == EXIT_OK
    matrices = [args[0] for args in hnf]
    assert len(matrices) == len(set(matrices)) == 2


def test_decompositions_do_not_outlive_an_op(tmp_path, monkeypatch):
    import dgsum.intmat

    hnf = []
    _count_calls(monkeypatch, dgsum.intmat, "hnf_column", hnf)
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1 1\n0 1 1 -1\n")
    args = ["tvd", "--x-file", xfile, "--exact", "--seed", "4"]
    assert run(args + ["--out-dir", tmp_path / "a"]) == EXIT_OK
    first = [a[0] for a in hnf]
    assert run(args + ["--out-dir", tmp_path / "b"]) == EXIT_OK
    second = [a[0] for a in hnf[len(first):]]
    # the same matrices again, as new objects decomposed anew
    assert second == first and all(a is not b for a, b in zip(first, second))
    assert (tmp_path / "a" / "tvd.json").read_bytes() == (tmp_path / "b" / "tvd.json").read_bytes()


def test_replay_manifest_with_removed_keys(tmp_path):
    # manifests written before --radius and --push-basis-file were removed
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1\n0 1 1\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["tvd", "--x-file", xfile, "--eps", "0.01", "--exact",
                "--seed", "4", "--out-dir", out1]) == EXIT_OK
    manifest = read_json(out1 / "manifest.json")
    assert "radius" not in manifest["resolved_config"]
    manifest["resolved_config"].update({"radius": 6.0, "push_basis_file": None})
    (out1 / "manifest.json").write_text(json.dumps(manifest))
    assert run(["tvd", "--config", out1 / "manifest.json", "--out-dir", out2]) == EXIT_OK
    for name in ("tvd.json", "matrix.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_parser_keeps_no_state_between_calls(tmp_path):
    # one parser serves every main call in a process
    xfile = tmp_path / "X.txt"
    xfile.write_text("1\n")
    common = ["sample", "--x-file", xfile, "-r", "2.0", "--samples", "10"]
    assert run(common + ["--seed", "9", "--mc", "--out-dir", tmp_path / "a"]) == EXIT_OK
    assert run(common + ["--out-dir", tmp_path / "b"]) == EXIT_OK
    first = read_json(tmp_path / "a" / "manifest.json")["resolved_config"]
    second = read_json(tmp_path / "b" / "manifest.json")["resolved_config"]
    assert (first["seed"], first["mode"]) == (9, "mc")
    assert (second["seed"], second["mode"]) == (1, "exact")


def test_enumeration_budget_exceeded_exits_2_with_one_line(tmp_path, capsys):
    # r = 1e7 needs a label box of about 4.2e7 points, above the budget
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 1\n")
    code = run(["tvd", "--x-file", xfile, "-r", "1e7", "--exact", "--out-dir", tmp_path / "run"])
    err = capsys.readouterr().err
    assert code == EXIT_GATE
    assert err.startswith("enumeration budget exceeded: ") and err.count("\n") == 1


def test_tvd_skewed_kernel_uses_reduced_fiber_basis(tmp_path, capsys):
    # the raw HNF kernel basis of this X needs a fiber box of 26,650,767 points
    xfile = tmp_path / "X.txt"
    xfile.write_text("-2 -3 3 0 2 2\n3 -3 -1 3 0 -1\n-2 -3 -3 3 -3 -3\n")
    out = tmp_path / "run"
    code = run(["tvd", "--x-file", xfile, "-r", "0.5", "--exact", "--out-dir", out])
    err = capsys.readouterr().err
    assert code == EXIT_GATE
    assert err.startswith("precondition unmet: ") and err.count("\n") == 1
    rep = read_json(out / "tvd.json")
    assert rep["verdict"] == "precondition unmet" and rep["exact"]["support_size"] > 0


def test_invariant_violation_exits_3_under_python_O(tmp_path):
    # the HNF kernel check must fire with asserts stripped
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1\n0 1 1\n")
    script = f"""
import sys
import dgsum.cli
import dgsum.intmat as intmat

if sys.flags.optimize != 1:
    sys.exit(99)
hnf = intmat.hnf_column

def broken(X):
    H, U = hnf(X)
    rows = [list(r) for r in U.rows]
    rows[0][-1] += 1  # the kernel column of U no longer solves X v = 0
    return H, intmat.IntMatrix.from_rows(rows)

intmat.hnf_column = broken
sys.exit(dgsum.cli.main(["kernel", "--x-file", {str(xfile)!r}, "--out-dir", {str(tmp_path / "run")!r}]))
"""
    src = str(Path(dgsum.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == EXIT_INVARIANT, proc.stderr
    assert proc.stderr.startswith("invariant violation: ") and proc.stderr.count("\n") == 1
