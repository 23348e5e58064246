"""Seeded, manifest-driven command-line front end.

Subcommands: sample | quality | kernel | tvd | main.  Every option is one
entry of ``OPTIONS`` (flag, kind, default), which both the parser and
``resolve`` read.  A subcommand's handler takes the resolved config and the
run's ``SampleStream`` and returns a ``Run``: exit status, reports, stage
status and at most one stderr line.  ``main`` is the one run frame: it makes
the output directory, calls the handler, writes each report through
``write_report`` (JSON through ``write_json``), then the manifest (resolved
config, tool version, RNG identity, wall clock, stage status), and prints
the handler's line.  A run without reports writes no manifest, and a run
that raises writes no file.  ``write_report`` overwrites an existing file in
place.  Report files contain no timestamps, so a re-run from the same
manifest is byte-identical.

Exit codes: 0 = all gates passed, 2 = gates unmet, an inconclusive MC
verdict or invalid input (an output path that cannot be written included),
3 = invariant violation, or a failed verdict (one ``fail: ...`` line).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .gaussian import EnumerationBudgetExceeded, SampleStream, draw_ints, exact_pmf, sample_dg_coset
from .intmat import IntMatrix, InvariantViolation, SurjectivityError, is_surjective, norm_sq
from .lattice import reduced_integer_kernel, successive_minima_upper
from .quality import (
    CollisionNotFound,
    CollisionSearchParams,
    certify_quality,
    exact_dual_fallback,
    find_dual_vectors,
    short_kernel_vectors,
    distance_threshold,
    unit_certificate,
    parameter_check,
)
from .tvd import FiberWorkspace, class_tvd, mc_tvd, target_pmf

EXIT_OK = 0
EXIT_GATE = 2
EXIT_INVARIANT = 3
# bound on the entries of the shift c: float64 holds every integer below 2^53,
# so round(c_i) is exact and c - round(c) keeps c's fractional part
C_BOUND = 2.0 ** 53


_AS_IS = (int, str, bool, type(None))


def jround(obj):
    """Round floats (numpy floats too) to 12 significant digits for diffable
    reports, turn numpy integers into ints and tuples into lists, recursing
    into dicts and lists.  Python ints, strings, bools and None are returned
    as they are, after one ``type()`` lookup."""
    kind = type(obj)
    if kind in _AS_IS:
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, dict):
        return {k: jround(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jround(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def write_report(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, overwriting an existing file in place.

    Every file the CLI writes goes through here.  The file is opened without
    ``O_TRUNC`` (mode 0o666, so the umask applies as for ``Path.write_text``),
    written over from its start and then cut to the new length: on ext4 a
    write that truncates an existing file to zero starts its writeback on
    close, which costs tens of times the write itself.

    Not atomic, and not fsync'ed.  A crash mid-write can leave a short file,
    or the new bytes followed by the old ones up to the old length.  An
    ``OSError`` becomes a ``ValueError`` naming the path, so the CLI reports
    it as invalid input.
    """
    data = memoryview(text.encode())
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            rest = data
            while rest:
                rest = rest[os.write(fd, rest):]
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def write_json(path: Path, obj) -> None:
    write_report(path, json.dumps(jround(obj), indent=2, sort_keys=True) + "\n")


def make_out_dir(cfg: dict) -> Path:
    """The run's output directory, created if missing; an unusable one is invalid input."""
    out = Path(cfg["out_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None
    return out


def _read_text(path: str, what: str) -> str:
    """The file's text; an unreadable file is bad input (ValueError), not a crash."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {what} file {path!r}: {exc.strerror or exc}") from None


def parse_config(path: str) -> dict:
    """Key-value config (``key = value`` lines) or a manifest JSON file."""
    text = _read_text(path, "config")
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        data = data.get("resolved_config", data)
        if not isinstance(data, dict):
            raise ValueError(f"resolved_config must be an object, not {data!r}")
        return dict(data)
    cfg = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {line!r}")
        key, val = line.split("=", 1)
        cfg[key.strip()] = val.strip()
    return cfg


# key -> (flag, kind, default) of every option.  A kind of int or float
# parses a number, str keeps text and list reads the shift c; the mode has no
# flag of its own but the --exact/--mc/--both group.  The order is the order
# in which ``resolve`` reads, and so refuses, the values.
OPTIONS = {
    "n": ("-n", int, 1),
    "m": ("-m", int, 2),
    "s": ("-s", float, 3.0),
    "r": ("-r", float, None),
    "eps": ("--eps", float, 0.01),
    "seed": ("--seed", int, 1),
    "samples": ("--samples", int, 100_000),
    "trials": ("--trials", int, 10),
    "out_dir": ("--out-dir", str, "."),
    "x_file": ("--x-file", str, None),
    "c": ("--c", list, None),
    "mode": (None, str, "exact"),
}


def _option(cfg: dict, key: str, kind: type, default):
    """cfg[key], or the default, as its option's kind; None only where the
    default is.  Text (a flag, a ``key = value`` line) is parsed; a JSON value
    must already be of the kind, an int for an int, so that a seed of 1.5 is
    refused, not run as 1.  The shift c is text of numbers or a list of
    numbers, as a manifest records it, and None when empty."""
    v = cfg.get(key, default)
    if v is None and default is None:
        return None
    if kind is list:
        if isinstance(v, str):
            v = v.split()
        elif not (isinstance(v, list) and all(type(x) in (int, float) for x in v)):
            raise ValueError(f"{key} must be a list of numbers, not {v!r}")
        return [float(x) for x in v] or None
    if kind is str:
        if isinstance(v, str):
            return v
        raise ValueError(f"{key} must be text, not {v!r}")
    if isinstance(v, str) or type(v) is int or (kind is float and type(v) is float):
        return kind(v)
    raise ValueError(f"{key} must be {'an integer' if kind is int else 'a number'}, not {v!r}")


def resolve(args: argparse.Namespace) -> dict:
    cfg = parse_config(args.config) if args.config else {}
    cfg.update((key, v) for key in OPTIONS if (v := getattr(args, key, None)) is not None)
    out = {key: _option(cfg, key, kind, default) for key, (_, kind, default) in OPTIONS.items()}
    if not 0 < out["eps"] < 1 / 3:  # the range of the distance threshold
        raise ValueError(f"eps must be in (0, 1/3), not {out['eps']:g}")
    if out["n"] < 1 or out["m"] < out["n"]:
        raise ValueError("need m >= n >= 1")
    if out["mode"] not in ("exact", "mc", "both"):
        raise ValueError(f"mode must be exact, mc or both, not {out['mode']!r}")
    for key in ("trials", "samples"):
        if out[key] < 1:
            raise ValueError(f"{key} must be at least 1, not {out[key]}")
    for key in ("r", "s"):
        if out[key] is not None and not (math.isfinite(out[key]) and out[key] > 0):
            raise ValueError(f"{key} must be finite and positive, not {out[key]:g}")
    for x in out["c"] or ():
        if not (math.isfinite(x) and abs(x) < C_BOUND):
            raise ValueError(f"c entries must be finite with |c_i| < 2^53, not {x:g}")
    return out


def draw_matrix(n: int, m: int, s: float, stream: SampleStream, require_surjective: bool = True) -> IntMatrix:
    """X with columns drawn from D_{Z^n, s}, all attempts from one table;
    retries until full row rank (and onto Z^n if ``require_surjective``),
    both read off X's HNF.  A ValueError after 200 draws: at a small s
    nearly every draw is rank-deficient, which is bad input."""
    attempts = 200
    table = exact_pmf(s)
    for attempt in range(attempts):
        X = IntMatrix.from_rows(draw_ints(table, n * m, stream.substream(attempt)).reshape(n, m).tolist())
        if (is_surjective(X) if require_surjective else len(X.hermite.pivots) == n):
            return X
    kind = "onto" if require_surjective else "full row-rank"
    raise ValueError(f"no {kind} {n}x{m} matrix drawn in {attempts} attempts at s = {s:g}; "
                     "raise -s or give the matrix with --x-file")


def load_or_draw_matrix(cfg: dict, stream: SampleStream) -> IntMatrix:
    if cfg["x_file"]:
        X = IntMatrix.from_text(_read_text(cfg["x_file"], "X"))
        if not X.rows:
            raise ValueError(f"X file {cfg['x_file']!r} holds no matrix")
        return X
    return draw_matrix(cfg["n"], cfg["m"], cfg["s"], stream)


def best_certificate(X: IntMatrix, stream: SampleStream):
    """X's verified certificate of least q2 found, or None.

    X's ``unit_certificate`` when it has one: no certificate has q2 < 1, so
    neither search runs.  Otherwise no certificate has q2^2 < 2: a u_i with
    ||u_i||^2 = 1 is some +-e_j, and u_i . x_k = delta_ik would make column
    j equal +-e_i.  So the exact fallback runs first and is returned where
    it verifies at q2^2 = 2, the least there is.  Elsewhere the collision
    search runs too, and the verified certificate of smaller q2 wins, the
    collision search's on a tie.  ``search_stats`` names the path that gave
    the certificate (unit, fallback or collision) and the searches run.
    """
    unit = unit_certificate(X)
    if unit is not None:
        return replace(certify_quality(X, unit), search_stats={"path": "unit", "searches_run": 0})

    def verified(search):
        try:
            cert = certify_quality(X, search())
        except (CollisionNotFound, SurjectivityError):
            return None
        if not cert.verified:
            return None
        if max(map(norm_sq, cert.u)) < 2:
            raise InvariantViolation("a certificate of q2^2 < 2 verified on X without a unit certificate")
        return cert

    fallback = verified(lambda: exact_dual_fallback(X))
    if fallback is not None and max(map(norm_sq, fallback.u)) == 2:
        return replace(fallback, search_stats={"path": "fallback", "searches_run": 1})
    collision = verified(lambda: find_dual_vectors(X, stream=stream))
    best = min((c for c in (collision, fallback) if c is not None), key=lambda c: c.q2, default=None)
    if best is None:
        return None
    return replace(best, search_stats={"path": "fallback" if best is fallback else "collision", "searches_run": 2})


class Run(NamedTuple):
    """What a subcommand hands back to ``main``, which writes it: the exit
    status, the reports (file name -> text, or an object written as JSON),
    the manifest's stage status and at most one line for stderr."""

    status: int
    files: dict
    stage: str = "ok"
    message: str | None = None


def cmd_sample(cfg: dict, stream: SampleStream) -> Run:
    X = load_or_draw_matrix(cfg, stream.substream(0))
    n, m = X.shape
    r = cfg["r"] if cfg["r"] is not None else 3.0
    c = cfg["c"] or [0.0] * m
    if len(c) != m:
        raise ValueError("shift dimension mismatch")
    # samples.csv holds the integer X v, so c must be integer: Z^m + c is
    # then Z^m, drawn about 0
    for i, x in enumerate(c):
        if abs(x - round(x)) > 1e-12:
            raise ValueError(f"sample takes integer shifts only, not c_{i + 1} = {x!r}")
    N = cfg["samples"]
    table = exact_pmf(r)
    vs = np.stack([draw_ints(table, N, stream.substream(100 + i)) for i in range(m)], axis=1)
    Xf = X.to_numpy(dtype=np.int64)
    zs = vs @ Xf.T
    lines = [",".join(f"z{i + 1}" for i in range(n))]
    lines += [",".join(str(int(v)) for v in row) for row in zs]
    return Run(EXIT_OK, {"samples.csv": "\n".join(lines) + "\n", "matrix.txt": X.to_text() + "\n"})


def cmd_quality(cfg: dict, stream: SampleStream) -> Run:
    X = load_or_draw_matrix(cfg, stream.substream(0))
    n, m = X.shape
    cert = best_certificate(X, stream.substream(1))
    params = CollisionSearchParams.for_matrix(X)
    report = cert.to_json_dict() if cert is not None else {"verified": False}
    report["nominal_bounds"] = {
        "q1": params.sigma1 * math.sqrt(max(n * math.log2(max(m, 2)), 1e-12)),
        "q2": 2.0 * math.sqrt(max(30.0 * n * math.log2(max(params.sigma1 * n, 2.0)), 0.0)),
        "t": params.t,
        "prefix_budget": params.prefix_budget,
    }
    files = {"matrix.txt": X.to_text() + "\n", "certificate.json": report}
    if cert is None:
        return Run(EXIT_GATE, files, "failed",
                   "no certificate: neither the collision search nor the exact fallback verified one")
    return Run(EXIT_OK, files)


def cmd_kernel(cfg: dict, stream: SampleStream) -> Run:
    X = load_or_draw_matrix(cfg, stream.substream(0))
    reduced = reduced_integer_kernel(X)
    lams = successive_minima_upper(reduced)
    cert = best_certificate(X, stream.substream(1))
    report = {
        "kernel_basis": [list(v) for v in reduced.vectors()],
        "lambda_hat": lams,
        "short_vector_bound": None,
    }
    files = {"matrix.txt": X.to_text() + "\n", "kernel.json": report}
    if cert is None:
        return Run(EXIT_OK, files)
    skv = short_kernel_vectors(X, cert)
    report["short_vector_bound"] = skv.norm_bound
    report["independent_subset"] = list(skv.independent_subset)
    if lams:  # a trivial kernel (m = n, X unimodular) has no last minimum
        report["lambda_last_le_bound"] = lams[-1] <= skv.norm_bound + 1e-9
        if not report["lambda_last_le_bound"]:
            return Run(EXIT_INVARIANT, files, message=f"fail: lambda_hat_{len(lams)} = {lams[-1]:g} exceeds "
                       f"the short-vector bound 1 + q1 q2 = {skv.norm_bound:g}")
    return Run(EXIT_OK, files)


def _tvd_instance(X: IntMatrix, r: float, eps: float, c, mode: str, stream: SampleStream, samples: int, threshold):
    """The exact and/or MC TVD of X·D_{Z^m+c, r} from its target and, given
    a threshold (a verified certificate's, for m > n), the verdict against
    2 eps.

    The exact TVD is ``class_tvd``'s, one FFT over the d = det X X^T
    classes of Z^n / X X^T Z^n, at any r; it raises EnumerationBudgetExceeded
    when d exceeds the budget.  A ``FiberWorkspace`` and its target pmf over
    a label region are built only for MC.  Both reduce c mod Z^m first, so c
    and c plus an integer vector give one report.  Below the threshold the
    verdict is ``precondition unmet``.  Otherwise an exact TVD (``--exact``, ``--both``)
    passes when it is at most 2 eps plus its truncation error and fails
    above.  An MC estimate alone (``--mc``) passes when it is at most 2 eps;
    it fails only when the lower end of its confidence interval exceeds
    2 eps, since the plug-in estimate is biased upward, and is
    ``inconclusive`` in between.
    """
    c = c if c is not None else [0.0] * X.n_cols
    result = {}
    if mode in ("exact", "both"):
        result["exact"] = class_tvd(X, r, c).to_json_dict()
    if mode in ("mc", "both"):
        ws = FiberWorkspace(X, r, c)
        Xt = X.to_numpy(dtype=np.int64).T

        def sampler(N, st):
            return sample_dg_coset(r, ws.c, N, st) @ Xt
        result["mc"] = mc_tvd(sampler, target_pmf(ws), samples, stream).to_json_dict()
    if threshold is not None:
        result["threshold"] = threshold
        result["sigma_m"] = r
        result["precondition_met"] = r >= threshold - 1e-12
        if not result["precondition_met"]:
            result["verdict"] = "precondition unmet"
        elif "exact" in result:
            ex = result["exact"]
            result["verdict"] = "pass" if ex["tvd"] <= 2 * eps + ex["truncation_error"] else "fail"
        elif result["mc"]["estimate"] <= 2 * eps:
            result["verdict"] = "pass"
        else:
            result["verdict"] = "fail" if result["mc"]["ci"][0] > 2 * eps else "inconclusive"
    return result


def cmd_tvd(cfg: dict, stream: SampleStream) -> Run:
    X = load_or_draw_matrix(cfg, stream.substream(0))
    cert = best_certificate(X, stream.substream(1))
    eps = cfg["eps"]
    threshold = None
    if cert is not None and X.n_cols > X.n_rows:
        threshold = distance_threshold(cert.q1, cert.q2, X.n_cols, X.n_rows, eps)
    r = cfg["r"] if cfg["r"] is not None else threshold
    if r is None:
        return Run(EXIT_GATE, {}, message="no threshold available: give -r explicitly")
    result = _tvd_instance(X, r, eps, cfg["c"], cfg["mode"], stream.substream(2), cfg["samples"], threshold)
    files = {"matrix.txt": X.to_text() + "\n", "tvd.json": result}
    verdict, ex, mc = result.get("verdict"), result.get("exact"), result.get("mc")
    if verdict == "fail" and ex:
        return Run(EXIT_INVARIANT, files, message=f"fail: exact TVD {ex['tvd']:g} exceeds 2 eps + truncation "
                   f"error = {2 * eps + ex['truncation_error']:g}")
    if verdict == "fail":
        return Run(EXIT_INVARIANT, files, message=f"fail: the lower end of the MC estimate's {mc['confidence']:g} "
                   f"confidence interval, {mc['ci'][0]:g}, exceeds 2 eps = {2 * eps:g}")
    if verdict == "precondition unmet":
        return Run(EXIT_GATE, files, message=f"precondition unmet: sigma_m = {r:g} is below the threshold "
                   f"{threshold:g}")
    if verdict == "inconclusive":
        return Run(EXIT_GATE, files, message=f"inconclusive: the MC estimate {mc['estimate']:g} exceeds "
                   f"2 eps = {2 * eps:g}, but the lower end of its {mc['confidence']:g} confidence interval, "
                   f"{mc['ci'][0]:g}, does not")
    return Run(EXIT_OK, files)


def cmd_main_experiment(cfg: dict, stream: SampleStream) -> Run:
    n, m, s, eps = cfg["n"], cfg["m"], cfg["s"], cfg["eps"]
    trials = cfg["trials"]
    per_trial, thresholds = [], []
    for trial in range(trials):
        st = stream.substream(trial)
        entry = {"trial": trial}
        try:
            X = draw_matrix(n, m, s, st.substream(0))
            cert = best_certificate(X, st.substream(1))
            if cert is None:
                entry["status"] = "no-certificate"
            else:
                threshold = distance_threshold(cert.q1, cert.q2, m, n, eps)
                thresholds.append(threshold)
                result = _tvd_instance(X, threshold, eps, None, cfg["mode"], st.substream(2), cfg["samples"],
                                       threshold)
                entry.update(q1=cert.q1, q2=cert.q2, threshold=threshold, result=result, status=result["verdict"])
        except AssertionError:
            raise
        except Exception as exc:  # per-trial failures recorded, run continues
            entry["status"] = f"error: {exc}"
        per_trial.append(entry)
    statuses = Counter(e["status"] for e in per_trial)
    # at r = threshold every verdict is pass, fail or inconclusive
    n_pass, n_fail = statuses["pass"], statuses["fail"]
    n_skip = trials - n_pass - n_fail
    report = {
        "config": {"n": n, "m": m, "s": s, "eps": eps, "trials": trials},
        # the r condition at the least width a certified trial ran at
        "parameter_checks": parameter_check(n, m, eps, s, min(thresholds, default=None)),
        "trials": per_trial,
        "n_pass": n_pass,
        "n_fail": n_fail,
        "n_skipped": n_skip,
        "pass_rate_over_certified": (n_pass / max(n_pass + n_fail, 1)),
    }
    files = {"main_report.json": report}
    if n_fail > 0:
        failed = ", ".join(str(e["trial"]) for e in per_trial if e["status"] == "fail")
        return Run(EXIT_INVARIANT, files, message=f"fail: {n_fail} of {trials} trials exceed 2 eps = {2 * eps:g} "
                   f"(trials {failed})")
    if n_pass == 0:  # every trial was skipped
        why = "; ".join(f"{k} (x{v})" for k, v in sorted(statuses.items())) or "no trials"
        return Run(EXIT_GATE, files, message=f"no trial passed: {n_skip} of {trials} trials skipped: {why}")
    return Run(EXIT_OK, files)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=None)
    for key, (flag, kind, _) in OPTIONS.items():
        if flag:
            shared.add_argument(flag, dest=key, type=kind if kind in (int, float) else None, default=None)
    g = shared.add_mutually_exclusive_group()
    g.add_argument("--exact", dest="mode", action="store_const", const="exact")
    g.add_argument("--mc", dest="mode", action="store_const", const="mc")
    g.add_argument("--both", dest="mode", action="store_const", const="both")
    p = argparse.ArgumentParser(prog="dgsum", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("sample", "quality", "kernel", "tvd", "main"):
        sub.add_parser(name, parents=[shared])
    return p


# built once per process: parse_args does not change it, and building it
# costs more than parsing
_PARSER = build_parser()


def main(argv=None) -> int:
    """Run one subcommand: make the out dir, call its handler, then write its
    reports and, if there are any, the manifest, and print its message.  A
    handler that raises writes nothing; the error becomes one stderr line."""
    args = _PARSER.parse_args(argv)
    try:
        cfg = resolve(args)
    except (ValueError, KeyError, OverflowError) as exc:  # OverflowError: an integer too large for a float
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_GATE
    command = args.command
    handler = {
        "sample": cmd_sample,
        "quality": cmd_quality,
        "kernel": cmd_kernel,
        "tvd": cmd_tvd,
        "main": cmd_main_experiment,
    }[command]
    try:
        t0 = time.time()
        out = make_out_dir(cfg)
        stream = SampleStream(cfg["seed"])
        run = handler(cfg, stream)
        for name, body in run.files.items():
            if isinstance(body, str):
                write_report(out / name, body)
            else:
                write_json(out / name, body)
        if run.files:
            write_json(out / "manifest.json", {
                "tool": "dgsum",
                "version": __version__,
                "command": command,
                "resolved_config": cfg,
                "rng": stream.identity(),
                "wall_clock_s": time.time() - t0,
                "stages": {command: run.stage},
            })
        if run.message:
            print(run.message, file=sys.stderr)
        return run.status
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:  # includes RankError, SurjectivityError, LinAlgError
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_GATE
    except EnumerationBudgetExceeded as exc:
        print(f"enumeration budget exceeded: {exc}", file=sys.stderr)
        return EXIT_GATE


if __name__ == "__main__":
    sys.exit(main())
