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
    OPTIONS,
    jround,
    main,
    parse_config,
    read_argv,
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
    command, raw = read_argv(["sample", "-n", "3", "-m", "2"])
    assert (command, raw) == ("sample", {"n": "3", "m": "2"})
    with pytest.raises(ValueError):
        resolve(raw)
    with pytest.raises(ValueError):
        resolve(read_argv(["sample", "--eps", "2.0"])[1])


def test_invalid_config_exit_code(tmp_path, capsys):
    # bad values, a malformed JSON config among them, are one line and exit 2
    assert run(["sample", "-n", "3", "-m", "2"]) == EXIT_GATE
    assert capsys.readouterr().err == "invalid config: need m >= n >= 1\n"
    for text, why in [
        ('{"n": [1], "m": 3}', "n must be an integer, not [1]"),
        ('{"resolved_config": 5}', "resolved_config must be an object, not 5"),
        ('{"seed": 1.5}', "seed must be an integer, not 1.5"),
        # key = value text that does not parse, worded as for a JSON value
        ("n = abc", "n must be an integer, not 'abc'"),
        ("r = 1.5x", "r must be a number, not '1.5x'"),
        ("c = 0.5,0", "c must be a list of numbers, not '0.5,0'"),
    ]:
        (tmp_path / "cfg.json").write_text(text)
        assert run(["sample", "--config", tmp_path / "cfg.json", "--out-dir", tmp_path / "run"]) == EXIT_GATE, text
        assert capsys.readouterr().err == f"invalid config: {why}\n"
        assert not (tmp_path / "run").exists()


COMMANDS = "sample, quality, kernel, tvd, main"


@pytest.mark.parametrize("argv, why", [
    (["tvd", "--bogus", "1"], "unknown argument '--bogus' (see --help)"),
    # no abbreviation of --samples, no value glued to its flag
    (["sample", "--samp", "10"], "unknown argument '--samp' (see --help)"),
    (["sample", "-n3"], "unknown argument '-n3' (see --help)"),
    (["sample", "--seed=3"], "unknown argument '--seed=3' (see --help)"),
    (["tvd", "--x-file"], "--x-file needs a value"),
    (["tvd", "--x-file", "--exact"], "--x-file needs a value"),
    (["tvd", "--exact", "--mc"], "--exact and --mc exclude each other"),
    ([], f"no command: the first argument must be one of {COMMANDS}"),
    (["foo"], f"unknown command 'foo': the first argument must be one of {COMMANDS}"),
    (["sample", "-n", "abc"], "n must be an integer, not 'abc'"),
    (["sample", "--seed", "1.5"], "seed must be an integer, not '1.5'"),
    (["tvd", "--c", "0.5,0"], "c must be a list of numbers, not '0.5,0'"),
], ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_malformed_command_line_is_one_line(tmp_path, monkeypatch, capsys, argv, why):
    # every malformed command line is bad input: one line, exit 2, no file
    monkeypatch.chdir(tmp_path)
    assert run(argv[:1] + ["--out-dir", "run"] * bool(argv) + argv[1:]) == EXIT_GATE
    assert capsys.readouterr() == ("", f"invalid config: {why}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["tvd", "-h"], ["kernel", "--x-file", "X.txt", "--help"]])
def test_help_prints_usage_from_the_option_table(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: dgsum {sample,quality,kernel,tvd,main} ")
    for flag, kind, default in OPTIONS.values():
        if flag:
            assert f"  {flag} {kind.__name__.upper()} " in out and f"default {default}\n" in out, flag
    assert "--exact | --mc | --both" in out and "--config FILE" in out
    assert list(tmp_path.iterdir()) == []


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


def test_cmd_sample_integer_shift_draws_as_at_zero(tmp_path, capsys):
    # Z^m + c is Z^m for an integer c, weighted about 0, as in tvd --mc and
    # every pmf: the samples do not move with c
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1 1\n0 1 1 -1\n")
    common = ["sample", "--x-file", xfile, "-r", "2.0", "--samples", "2000", "--seed", "3"]
    assert run(common + ["--out-dir", tmp_path / "zero"]) == EXIT_OK
    assert run(common + ["--c", "1 0 0 0", "--out-dir", tmp_path / "one"]) == EXIT_OK
    assert run(common + ["--c", "-7 2 0 5", "--out-dir", tmp_path / "far"]) == EXIT_OK
    zero = (tmp_path / "zero" / "samples.csv").read_bytes()
    assert (tmp_path / "one" / "samples.csv").read_bytes() == zero == (tmp_path / "far" / "samples.csv").read_bytes()
    capsys.readouterr()
    assert run(common + ["--c", "0 0 2.25 0", "--out-dir", tmp_path / "half"]) == EXIT_GATE
    assert capsys.readouterr().err == "invalid input: sample takes integer shifts only, not c_3 = 2.25\n"


def test_sample_beyond_the_budget_exits_2_before_drawing(tmp_path, capsys):
    # the table of D_{Z, 10^7} holds about 9.6 10^7 points, above the
    # enumeration budget: refused in one line before any of it is built
    import tracemalloc

    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1 1\n0 1 1 -1\n")
    tracemalloc.start()
    try:
        code = run(["sample", "--x-file", xfile, "-r", "1e7", "--samples", "1000000", "--out-dir", tmp_path / "run"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == EXIT_GATE
    assert err.startswith("enumeration budget exceeded: ") and err.count("\n") == 1
    assert peak < 2 ** 20 and not (tmp_path / "run" / "samples.csv").exists()


@pytest.mark.parametrize("command, c", [("sample", "0 0"), ("sample", "1 0"), ("tvd", "0 0")])
def test_shift_length_is_checked(tmp_path, capsys, command, c):
    # a --c of the wrong length is bad input, in one line, for sample as for tvd
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1 1\n0 1 1 -1\n")
    assert run([command, "--x-file", xfile, "-r", "2.0", "--samples", "10000", "--mc", "--c", c,
                "--out-dir", tmp_path / "run"]) == EXIT_GATE
    assert capsys.readouterr().err == "invalid input: shift dimension mismatch\n"


def test_one_table_draws_as_one_table_per_column_and_attempt(tmp_path):
    # sample's columns and draw_matrix's attempts share one D_{Z,s} table,
    # and draw_matrix reads the rank off the HNF: the draws and accept
    # decisions are those of one draw from a fresh table, and one Bareiss
    # rank, per column or attempt
    from dgsum.cli import draw_matrix
    from dgsum.gaussian import SampleStream, draw_ints, exact_pmf
    from dgsum.intmat import IntMatrix, fraction_rank, is_surjective

    def reference(n, m, s, stream, onto):
        for attempt in range(200):
            X = IntMatrix.from_rows(draw_ints(exact_pmf(s), n * m, stream.substream(attempt)).reshape(n, m).tolist())
            if fraction_rank(X.rows) == n and (not onto or is_surjective(X)):
                return X, attempt

    late = not_onto = 0
    for seed in range(40):
        for onto in (True, False):
            want, attempt = reference(2, 3, 1.5, SampleStream(seed), onto)
            assert draw_matrix(2, 3, 1.5, SampleStream(seed), require_surjective=onto) == want
            late += attempt > 0
            not_onto += not is_surjective(want)
    assert late >= 10 and not_onto >= 1  # rank-deficient draws were refused
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1 1\n0 1 1 -1\n")
    out = tmp_path / "run"
    assert run(["sample", "--x-file", xfile, "-r", "2.0", "--samples", "500", "--seed", "3", "--out-dir", out]) == EXIT_OK
    vs = np.stack([draw_ints(exact_pmf(2.0), 500, SampleStream(3).substream(100 + i)) for i in range(4)], axis=1)
    got = np.loadtxt(out / "samples.csv", skiprows=1, delimiter=",", dtype=np.int64)
    assert np.array_equal(got, vs @ np.array([[1, 0, 1, 1], [0, 1, 1, -1]]).T)


def test_cmd_sample_identity_instance_chi2(tmp_path):
    from scipy import stats

    from dgsum.gaussian import exact_pmf

    xfile = tmp_path / "X.txt"
    xfile.write_text("1\n")
    out = tmp_path / "run"
    code = run(["sample", "--x-file", xfile, "-r", "2.0", "--samples", "100000",
                "--seed", "5", "--out-dir", out])
    assert code == EXIT_OK
    draws = np.loadtxt(out / "samples.csv", skiprows=1, dtype=np.int64)
    pmf = exact_pmf(2.0).as_dict()
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


def test_cmd_quality_whose_search_raises_writes_no_report(tmp_path, capsys, monkeypatch):
    # each search on an onto X with no unit column, so both searches run
    import dgsum.cli
    from dgsum.intmat import InvariantViolation

    def broken(*args, **kwargs):
        raise InvariantViolation("injected")

    xfile = tmp_path / "X.txt"
    xfile.write_text("1 2 1\n1 1 2\n")
    for search in ("exact_dual_fallback", "find_dual_vectors"):
        out = tmp_path / search
        with monkeypatch.context() as patched:
            patched.setattr(dgsum.cli, search, broken)
            assert run(["quality", "--x-file", xfile, "--out-dir", out]) == EXIT_INVARIANT, search
        assert capsys.readouterr().err == "invariant violation: injected\n", search
        assert list(out.iterdir()) == [], search


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


def test_kernel_lambda_above_its_bound_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    import dgsum.cli

    monkeypatch.setattr(dgsum.cli, "successive_minima_upper", lambda reduced: [100.0])
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1\n0 1 1\n")
    out = tmp_path / "run"
    assert run(["kernel", "--x-file", xfile, "--seed", "2", "--out-dir", out]) == EXIT_INVARIANT
    assert capsys.readouterr().err == (
        "fail: lambda_hat_1 = 100 exceeds the short-vector bound 1 + q1 q2 = 2.41421\n")
    assert read_json(out / "kernel.json")["lambda_last_le_bound"] is False


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


def test_tvd_exact_fail_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    import dataclasses

    import dgsum.cli

    class_tvd = dgsum.cli.class_tvd
    monkeypatch.setattr(dgsum.cli, "class_tvd", lambda X, r, c: dataclasses.replace(class_tvd(X, r, c), tvd=0.5))
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 1\n")
    out = tmp_path / "run"
    assert run(["tvd", "--x-file", xfile, "--eps", "0.01", "--exact", "--out-dir", out]) == EXIT_INVARIANT
    assert capsys.readouterr().err == "fail: exact TVD 0.5 exceeds 2 eps + truncation error = 0.02\n"
    assert read_json(out / "tvd.json")["verdict"] == "fail"


NOT_ONTO = "invalid input: X does not map Z^m onto Z^n: some labels have no fiber\n"
# X -> tvd's stderr line without -r: the threshold is blamed only where X
# itself passes the TVD's rank and onto checks
TVD_WITHOUT_R = {
    "2 1\n1 1\n": "no threshold available: give -r explicitly\n",  # m = n: a certificate, but no threshold
    " ".join(["-4 -2 2 2 4"] * 4) + "\n": NOT_ONTO,  # not onto: no certificate
    "1 1\n1 1\n": "invalid input: X must have full row rank: kernel rank 1 != m - n = 0\n",
    "2 2\n": NOT_ONTO,
    "2 0 2\n0 2 2\n": NOT_ONTO,
}


@pytest.mark.parametrize("x_text", TVD_WITHOUT_R)
def test_tvd_without_a_threshold_exits_2_and_writes_nothing(tmp_path, capsys, x_text):
    xfile = tmp_path / "X.txt"
    xfile.write_text(x_text)
    out = tmp_path / "run"
    assert run(["tvd", "--x-file", xfile, "--exact", "--out-dir", out]) == EXIT_GATE
    assert capsys.readouterr().err == TVD_WITHOUT_R[x_text]
    assert list(out.iterdir()) == []


def test_tvd_mc_does_not_build_image_pmf(tmp_path, monkeypatch):
    import dgsum.cli

    def refuse(*args, **kwargs):
        raise RuntimeError("--mc must not compute the exact class TVD")

    monkeypatch.setattr(dgsum.cli, "class_tvd", refuse)
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 1\n")
    out = tmp_path / "run"
    assert run(["tvd", "--x-file", xfile, "--mc", "--samples", "10000", "--out-dir", out]) == EXIT_OK
    rep = read_json(out / "tvd.json")
    assert "mc" in rep and "exact" not in rep


def test_tvd_mc_far_below_smoothing_with_a_half_shift(tmp_path):
    # Z^4 + (1/2, 0, 0, 0) at r = 0.03: the sampler's table and the target's
    # region each hold the coset's nearest points, so MC answers
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1 1\n0 1 1 -1\n")
    out = tmp_path / "run"
    code = run(["tvd", "--x-file", xfile, "--mc", "-r", "0.03", "--c", "0.5 0 0 0",
                "--samples", "10000", "--out-dir", out])
    rep = read_json(out / "tvd.json")
    assert code == EXIT_GATE and rep["verdict"] == "precondition unmet"
    assert rep["mc"]["N"] == 10000 and rep["mc"]["estimate"] < 0.05


def test_tvd_exact_far_below_smoothing_with_a_half_shift(tmp_path):
    # Z^4 + 1/2 at r = 0.1: the target's dual sum cancels to its rounding, so
    # its class pmf is binned from the target's primal region; half the image
    # lands on the target's four points, TVD 1/2 by direct enumeration
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1 1\n0 1 1 -1\n")
    out = tmp_path / "run"
    code = run(["tvd", "--x-file", xfile, "--exact", "-r", "0.1", "--c", "0.5 0.5 0.5 0.5", "--out-dir", out])
    rep = read_json(out / "tvd.json")
    assert code == EXIT_GATE and rep["verdict"] == "precondition unmet"
    ex = rep["exact"]
    assert ex["support_size"] == 9 and abs(ex["tvd"] - 0.5) <= ex["truncation_error"] <= 1e-12


def test_tvd_exact_builds_no_label_region(tmp_path, monkeypatch):
    # the class TVD reads X, r and c only: no workspace, so no label region
    # and none of a workspace's float data; the report is the same bytes
    import dgsum.cli
    from dgsum.tvd import FiberWorkspace

    xfile = tmp_path / "X.txt"
    xfile.write_text("1 1 1\n0 1 2\n")
    argv = ["tvd", "--x-file", xfile, "--exact", "--c", "0.3 -0.2 0.1"]
    assert run([*argv, "--out-dir", tmp_path / "free"]) == EXIT_OK

    def refuse(*args, **kwargs):
        raise RuntimeError("--exact must not build a FiberWorkspace or the target pmf")

    monkeypatch.setattr(dgsum.cli, "target_pmf", refuse)
    monkeypatch.setattr(FiberWorkspace, "__init__", refuse)
    out = tmp_path / "run"
    assert run([*argv, "--out-dir", out]) == EXIT_OK
    assert (out / "tvd.json").read_bytes() == (tmp_path / "free" / "tvd.json").read_bytes()
    rep = read_json(out / "tvd.json")
    assert rep["exact"]["support_size"] == 6  # det X X^T classes
    assert "mc" not in rep


def test_tvd_reports_depend_on_c_mod_the_integers(tmp_path):
    # 2^51 + 1/2 and 1/2 give one coset Z^4 + c; the MC labels and the
    # target region are formed from the reduced shift, not at the size of c
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1 1\n0 1 1 -1\n")
    reps = []
    for c in ("0.5 0 0 0", "2251799813685248.5 0 0 0"):
        out = tmp_path / c.split()[0]
        code = run(["tvd", "--x-file", xfile, "--both", "-r", "1.5", "--samples", "20000", "--seed", "3",
                    "--c", c, "--out-dir", out])
        assert code == EXIT_GATE  # r = 1.5 is below this X's threshold
        reps.append(read_json(out / "tvd.json"))
    assert reps[0]["exact"] == reps[1]["exact"] and reps[0]["mc"] == reps[1]["mc"]
    assert reps[0]["mc"]["estimate"] == 0.0910597819782


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
    if verdict == "pass":
        assert err == ""
    else:  # fail (exit 3) and inconclusive (exit 2) each say why in one line
        assert err.startswith(f"{verdict}: ") and err.count("\n") == 1


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
    # the shift c: non-finite, or past 2^53, where its integer part leaves the
    # exact integers of float64 and, at 1e20, int64
    (["tvd", "--exact", "--c", "nan 0"], "c entries must be finite with |c_i| < 2^53, not nan"),
    (["tvd", "--mc", "--samples", "10000", "--c", "inf 0"], "c entries must be finite with |c_i| < 2^53, not inf"),
    (["tvd", "--mc", "--samples", "10000", "--c", "1e20 0"], "c entries must be finite with |c_i| < 2^53, not 1e+20"),
    (["sample", "--c", "0 nan"], "c entries must be finite with |c_i| < 2^53, not nan"),
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



def test_main_r_condition_reads_the_least_certified_threshold(tmp_path, monkeypatch):
    # every trial runs at its own threshold, so the r condition is checked
    # at the least of them; with no certified trial there is no width
    import dgsum.cli

    out = tmp_path / "run"
    assert run(["main", "-n", "2", "-m", "6", "--trials", "3", "--seed", "2", "--out-dir", out]) == EXIT_OK
    rep = read_json(out / "main_report.json")
    thresholds = [e["threshold"] for e in rep["trials"] if "threshold" in e]
    assert len(thresholds) == 3 and min(thresholds) > 1.0
    assert rep["parameter_checks"]["r_condition"]["lhs"] == min(thresholds)
    monkeypatch.setattr(dgsum.cli, "best_certificate", lambda X, stream: None)
    assert run(["main", "-n", "2", "-m", "6", "--trials", "2", "--seed", "2", "--out-dir", out]) == EXIT_GATE
    cond = read_json(out / "main_report.json")["parameter_checks"]["r_condition"]
    assert cond["lhs"] is None and cond["holds"] is False


def test_eps_outside_the_threshold_range_is_refused_before_any_file(tmp_path, capsys):
    # the distance threshold takes eps in (0, 1/3): a larger eps is one
    # invalid-config line, before the certificate search or any trial
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1 1\n0 1 1 -1\n")
    for argv in (["tvd", "--x-file", xfile, "-r", "2", "--eps", "0.5"],
                 ["main", "-n", "2", "-m", "4", "--eps", "0.5", "--trials", "2"]):
        out = tmp_path / argv[0]
        assert run([*argv, "--out-dir", out]) == EXIT_GATE
        assert capsys.readouterr().err == "invalid config: eps must be in (0, 1/3), not 0.5\n"
        assert not out.exists()

def test_manifest_replay_byte_identical(tmp_path):
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 1\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["tvd", "--x-file", xfile, "--eps", "0.01", "--both",
                "--samples", "20000", "--seed", "4", "--out-dir", out1]) == EXIT_OK
    assert run(["tvd", "--config", out1 / "manifest.json", "--out-dir", out2]) == EXIT_OK
    for name in ("tvd.json", "matrix.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_replay_with_a_shift(tmp_path):
    # the manifest records c as a list of numbers, which a replay reads back
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1 1\n0 1 1 -1\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["tvd", "--x-file", xfile, "-r", "4", "--c", "0.5 0 0 0.25", "--out-dir", out1]) == EXIT_OK
    assert read_json(out1 / "manifest.json")["resolved_config"]["c"] == [0.5, 0.0, 0.0, 0.25]
    assert run(["tvd", "--config", out1 / "manifest.json", "--out-dir", out2]) == EXIT_OK
    assert (out1 / "tvd.json").read_bytes() == (out2 / "tvd.json").read_bytes()


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


def test_main_with_failed_trials_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    import dgsum.cli

    tvd_instance = dgsum.cli._tvd_instance

    def failing(*args):
        return {**tvd_instance(*args), "verdict": "fail"}

    monkeypatch.setattr(dgsum.cli, "_tvd_instance", failing)
    out = tmp_path / "run"
    code = run(["main", "-n", "1", "-m", "2", "-s", "2.0", "--eps", "0.01",
                "--trials", "3", "--exact", "--seed", "11", "--out-dir", out])
    rep = read_json(out / "main_report.json")
    failed = [e["trial"] for e in rep["trials"] if e["status"] == "fail"]
    assert code == EXIT_INVARIANT and rep["n_fail"] == len(failed) > 0
    assert capsys.readouterr().err == (
        f"fail: {len(failed)} of 3 trials exceed 2 eps = 0.02 (trials {', '.join(map(str, failed))})\n")


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

    hnf, region, enum, dual, smith = [], [], [], [], []
    _count_calls(monkeypatch, dgsum.intmat, "hnf_column", hnf)
    _count_calls(monkeypatch, dgsum.tvd.FiberWorkspace, "region", region)
    _count_calls(monkeypatch, dgsum.tvd, "truncate_coset", enum)
    _count_calls(monkeypatch, dgsum.gaussian, "enumerate_affine", enum)
    _count_calls(monkeypatch, dgsum.tvd, "poisson_sum", dual)
    _count_calls(monkeypatch, dgsum.intmat, "smith", smith)  # intmat.adjugate's
    _count_calls(monkeypatch, dgsum.tvd, "smith", smith)  # class_group's
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1 1\n0 1 1 -1\n")
    assert run(["tvd", "--x-file", xfile, "--exact", "--seed", "4", "--out-dir", tmp_path / "run"]) == EXIT_OK
    # X (the unit certificate's check and the class TVD's) and G = X X^T for
    # the coset classes; X has the unit certificate (e_1, e_2), so no search
    # decomposes an augmented [X; u_1]
    assert len(hnf) == 2 and hnf[0][0].rows == ((1, 0, 1, 1), (0, 1, 1, -1))
    assert hnf[1][0].rows == ((3, 0), (0, 3))
    # no label region and no kernel-dual sum: one dual sum over Z^n for the
    # target, built from its Gram matrix, and its one enumeration
    assert len(region) == 0 and [args[0].shape for args in enum] == [(2, 2)]
    assert [gram.shape for (gram,) in dual] == [(2, 2)]
    # one Smith form of G, whose adj(G), column classes and V^T every later
    # stage of the class TVD reads
    assert [G.rows for (G,) in smith] == [((3, 0), (0, 3))]


def test_kernel_op_decomposes_each_matrix_once(tmp_path, monkeypatch):
    import dgsum.intmat

    hnf = []
    _count_calls(monkeypatch, dgsum.intmat, "hnf_column", hnf)
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 0 1 1 2 -1\n0 1 1 -1 1 2\n")
    assert run(["kernel", "--x-file", xfile, "--seed", "4", "--out-dir", tmp_path / "run"]) == EXIT_OK
    # X alone: it has the unit certificate (e_1, e_2), so no search
    # decomposes an augmented [X; u_1]
    assert [args[0].rows for args in hnf] == [((1, 0, 1, 1, 2, -1), (0, 1, 1, -1, 1, 2))]


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
    # every main call reads its own argv into a fresh dict: no flag of one
    # call (a seed, a mode) carries over into the next
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
    # det X X^T = 25,000,001 classes exceed the budget
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 5000\n")
    code = run(["tvd", "--x-file", xfile, "-r", "1", "--exact", "--out-dir", tmp_path / "run"])
    err = capsys.readouterr().err
    assert code == EXIT_GATE
    assert err.startswith("enumeration budget exceeded: 25000001 coset classes") and err.count("\n") == 1


def test_tvd_exact_sums_all_40001_classes_far_below_the_threshold(tmp_path, capsys):
    # det X X^T = 40001 classes at r = 1, where the kernel's dual sum would
    # keep 959 of each pair of points; the FFT over the classes needs none.
    # The label-region pmfs give the same TVD.
    xfile = tmp_path / "X.txt"
    xfile.write_text("1 200\n")
    out = tmp_path / "run"
    code = run(["tvd", "--x-file", xfile, "-r", "1", "--exact", "--out-dir", out])
    assert code == EXIT_GATE and capsys.readouterr().err.startswith("precondition unmet")
    rep = read_json(out / "tvd.json")["exact"]
    assert rep["support_size"] == 40001
    assert abs(rep["tvd"] - 0.983697586462) < 1e-11 and rep["truncation_error"] < 1e-10


SKEWED = "-2 -3 3 0 2 2\n3 -3 -1 3 0 -1\n-2 -3 -3 3 -3 -3\n"


def test_tvd_skewed_kernel_uses_reduced_fiber_basis(tmp_path, capsys):
    # the raw HNF kernel basis of this X has entries up to 1500; at its default
    # threshold the class TVD over det X X^T = 31,434 classes runs in well under a second
    xfile = tmp_path / "X.txt"
    xfile.write_text(SKEWED)
    out = tmp_path / "run"
    code = run(["tvd", "--x-file", xfile, "--exact", "--out-dir", out])
    assert code == EXIT_OK, capsys.readouterr().err
    rep = read_json(out / "tvd.json")
    assert rep["verdict"] == "pass" and rep["exact"]["support_size"] == 31434
    assert rep["threshold"] > 2000


def test_tvd_skewed_kernel_below_threshold_exits_2_within_budget(tmp_path, capsys):
    # at r = 2 the kernel's dual sum would need 5,603 points for each of the
    # 31,434 classes; the FFT over the classes answers in a few arrays of d
    import tracemalloc

    xfile = tmp_path / "X.txt"
    xfile.write_text(SKEWED)
    tracemalloc.start()
    try:
        code = run(["tvd", "--x-file", xfile, "-r", "2", "--exact", "--out-dir", tmp_path / "run"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == EXIT_GATE
    assert err.startswith("precondition unmet") and err.count("\n") == 1
    assert "Traceback" not in err
    assert read_json(tmp_path / "run" / "tvd.json")["exact"]["support_size"] == 31434
    assert peak < 50 * 2 ** 20


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
    H, U, pivots = hnf(X)
    rows = [list(r) for r in U.rows]
    rows[0][-1] += 1  # the kernel column of U no longer solves X v = 0
    return H, intmat.IntMatrix.from_rows(rows), pivots

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
