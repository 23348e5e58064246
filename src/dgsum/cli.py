"""Seeded, manifest-driven command-line front end.

Subcommands: sample | quality | kernel | tvd | main.  Each run writes a
manifest (resolved config, tool version, RNG identity, wall clock, stage
status) plus machine-readable JSON/CSV reports, all through ``write_report``,
which overwrites an existing file in place.  Report files contain no
timestamps, so a re-run from the same manifest is byte-identical.

Exit codes: 0 = all gates passed, 2 = gates unmet, an inconclusive MC
verdict or invalid input (an output path that cannot be written included),
3 = invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .gaussian import EnumerationBudgetExceeded, GaussianShape, SampleStream, sample_dg_ints
from .intmat import IntMatrix, InvariantViolation
from .lattice import reduced_integer_kernel, successive_minima_upper
from .quality import (
    CollisionNotFound,
    CollisionSearchParams,
    SurjectivityError,
    certify_quality,
    exact_dual_fallback,
    find_dual_vectors,
    short_kernel_vectors,
    distance_threshold,
    parameter_check,
)
from .tvd import (
    FiberWorkspace,
    exact_output_pmf,
    exact_tvd,
    mc_tvd,
    target_pmf,
)

EXIT_OK = 0
EXIT_GATE = 2
EXIT_INVARIANT = 3


_AS_IS = (int, str, bool, type(None))


def jround(obj, sig: int = 12):
    """Round floats (numpy floats too) to 12 significant digits for diffable
    reports, turn numpy integers into ints and tuples into lists, recursing
    into dicts and lists.  Python ints, strings, bools and None are returned
    as they are, after one ``type()`` lookup."""
    kind = type(obj)
    if kind in _AS_IS:
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.{sig}g}")
    if isinstance(obj, dict):
        return {k: jround(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jround(v, sig) for v in obj]
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
        return dict(data.get("resolved_config", data))
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


def resolve(args: argparse.Namespace) -> dict:
    cfg = parse_config(args.config) if args.config else {}
    for key in ("seed", "eps", "samples", "trials", "n", "m", "s", "r", "out_dir", "x_file", "c", "mode"):
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    out = {
        "n": int(cfg.get("n", 1)),
        "m": int(cfg.get("m", 2)),
        "s": float(cfg.get("s", 3.0)),
        "r": float(cfg["r"]) if "r" in cfg and cfg["r"] is not None else None,
        "eps": float(cfg.get("eps", 0.01)),
        "seed": int(cfg.get("seed", 1)),
        "samples": int(cfg.get("samples", 100_000)),
        "trials": int(cfg.get("trials", 10)),
        "out_dir": str(cfg.get("out_dir", ".")),
        "x_file": cfg.get("x_file"),
        "c": [float(t) for t in str(cfg.get("c", "")).split()] if cfg.get("c") else None,
        "mode": str(cfg.get("mode", "exact")),
    }
    if not 0 < out["eps"] < 1:
        raise ValueError("eps out of range")
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
    return out


def draw_matrix(n: int, m: int, s: float, stream: SampleStream, require_surjective: bool = True) -> IntMatrix:
    """X with columns drawn from D_{Z^n, s}; retries until full row rank (and
    onto Z^n if ``require_surjective``).  A ValueError after 200 draws: at a
    small s nearly every draw is rank-deficient, which is bad input."""
    from .intmat import fraction_rank, is_surjective

    attempts = 200
    for attempt in range(attempts):
        sub = stream.substream(attempt)
        cols = sample_dg_ints(s, n * m, sub).reshape(n, m)
        X = IntMatrix.from_rows(cols.tolist())
        if fraction_rank(X.rows) == n and (not require_surjective or is_surjective(X)):
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
    """Collision search first, exact fallback second; best (smaller) q2 wins."""
    candidates = []
    try:
        candidates.append(find_dual_vectors(X, stream=stream))
    except (CollisionNotFound, SurjectivityError):
        pass
    try:
        candidates.append(exact_dual_fallback(X))
    except (CollisionNotFound, SurjectivityError):
        pass
    certs = [certify_quality(X, u) for u in candidates]
    certs = [c for c in certs if c.verified]
    if not certs:
        return None
    return min(certs, key=lambda c: c.q2)


def write_manifest(out_dir: Path, command: str, cfg: dict, stages: dict, t0: float) -> None:
    manifest = {
        "tool": "dgsum",
        "version": __version__,
        "command": command,
        "resolved_config": {k: v for k, v in cfg.items()},
        "rng": SampleStream(cfg["seed"]).identity(),
        "wall_clock_s": time.time() - t0,
        "stages": stages,
    }
    write_json(out_dir / "manifest.json", manifest)


def cmd_sample(cfg: dict) -> int:
    t0 = time.time()
    out = make_out_dir(cfg)
    stream = SampleStream(cfg["seed"])
    X = load_or_draw_matrix(cfg, stream.substream(0))
    n, m = X.shape
    r = cfg["r"] if cfg["r"] is not None else 3.0
    c = cfg["c"] or [0.0] * m
    N = cfg["samples"]
    vs = np.stack(
        [sample_dg_ints(r, N, stream.substream(100 + i)) for i in range(m)], axis=1
    )
    if any(abs(x) > 1e-12 for x in c):
        # integer shifts only on the sampling fast path
        if any(abs(x - round(x)) > 1e-12 for x in c):
            raise ValueError("cmd_sample supports integer shifts only")
        vs = vs + np.array([round(x) for x in c], dtype=np.int64)
    Xf = X.to_numpy(dtype=np.int64)
    zs = vs @ Xf.T
    lines = [",".join(f"z{i + 1}" for i in range(n))]
    lines += [",".join(str(int(v)) for v in row) for row in zs]
    write_report(out / "samples.csv", "\n".join(lines) + "\n")
    write_report(out / "matrix.txt", X.to_text() + "\n")
    write_manifest(out, "sample", cfg, {"sample": "ok"}, t0)
    return EXIT_OK


def cmd_quality(cfg: dict) -> int:
    t0 = time.time()
    out = make_out_dir(cfg)
    stream = SampleStream(cfg["seed"])
    X = load_or_draw_matrix(cfg, stream.substream(0))
    n, m = X.shape
    write_report(out / "matrix.txt", X.to_text() + "\n")
    cert = best_certificate(X, stream.substream(1))
    sigma1 = float(np.linalg.svd(X.to_numpy(), compute_uv=False)[0])
    params = CollisionSearchParams.for_matrix(X, sigma1)
    nominal = {
        "q1": sigma1 * math.sqrt(max(n * math.log2(max(m, 2)), 1e-12)),
        "q2": 2.0 * math.sqrt(max(30.0 * n * math.log2(max(sigma1 * n, 2.0)), 0.0)),
        "t": params.t,
        "prefix_budget": params.prefix_budget,
    }
    if cert is None:
        write_json(out / "certificate.json", {"verified": False, "nominal_bounds": nominal})
        write_manifest(out, "quality", cfg, {"quality": "failed"}, t0)
        print("no certificate: neither the collision search nor the exact fallback verified one", file=sys.stderr)
        return EXIT_GATE
    report = cert.to_json_dict()
    report["nominal_bounds"] = nominal
    write_json(out / "certificate.json", report)
    write_manifest(out, "quality", cfg, {"quality": "ok"}, t0)
    return EXIT_OK


def cmd_kernel(cfg: dict) -> int:
    t0 = time.time()
    out = make_out_dir(cfg)
    stream = SampleStream(cfg["seed"])
    X = load_or_draw_matrix(cfg, stream.substream(0))
    n, m = X.shape
    reduced = reduced_integer_kernel(X)
    lams = successive_minima_upper(reduced)
    cert = best_certificate(X, stream.substream(1))
    report = {
        "kernel_basis": [list(v) for v in reduced.vectors()],
        "lambda_hat": lams,
    }
    status = EXIT_OK
    if cert is not None:
        skv = short_kernel_vectors(X, cert)
        report["short_vector_bound"] = skv.norm_bound
        report["independent_subset"] = list(skv.independent_subset)
        if lams:  # a trivial kernel (m = n, X unimodular) has no last minimum
            report["lambda_last_le_bound"] = lams[-1] <= skv.norm_bound + 1e-9
            if not report["lambda_last_le_bound"]:
                status = EXIT_INVARIANT
    else:
        report["short_vector_bound"] = None
    write_report(out / "matrix.txt", X.to_text() + "\n")
    write_json(out / "kernel.json", report)
    write_manifest(out, "kernel", cfg, {"kernel": "ok"}, t0)
    return status


def _tvd_instance(X: IntMatrix, r: float, eps: float, c, mode: str, stream: SampleStream, samples: int, cert=None):
    """The exact and/or MC TVD of X·D_{Z^m+c, r} from its target and, given
    a verified certificate and m > n, the verdict against 2 eps.

    Below the certificate's threshold the verdict is ``precondition unmet``.
    Otherwise an exact TVD (``--exact``, ``--both``) passes when it is at most
    2 eps plus its truncation error and fails above.  An MC estimate alone
    (``--mc``) passes when it is at most 2 eps; it fails only when the lower
    end of its confidence interval exceeds 2 eps, since the plug-in estimate
    is biased upward, and is ``inconclusive`` in between.
    """
    m = X.n_cols
    R = GaussianShape.spherical(r)
    ws = FiberWorkspace(X, R, c if c is not None else [0.0] * m)
    result = {}
    q = target_pmf(X, R, workspace=ws)
    if mode in ("exact", "both"):
        rep = exact_tvd(exact_output_pmf(X, R, workspace=ws), q)
        result["exact"] = rep.to_json_dict()
    if mode in ("mc", "both"):
        def sampler(N, st):
            from .gaussian import LatticeCoset, sample_dg_coset

            coset = LatticeCoset.integers(m, tuple(ws.c))
            vs = sample_dg_coset(coset, R, st, size=N)
            return vs @ X.to_numpy().T - ws.Xc
        result["mc"] = mc_tvd(sampler, q, samples, stream).to_json_dict()
    if cert is not None and cert.verified and X.n_cols > X.n_rows:
        threshold = distance_threshold(cert.q1, cert.q2, X.n_cols, X.n_rows, eps)
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


def cmd_tvd(cfg: dict) -> int:
    t0 = time.time()
    out = make_out_dir(cfg)
    stream = SampleStream(cfg["seed"])
    X = load_or_draw_matrix(cfg, stream.substream(0))
    cert = best_certificate(X, stream.substream(1))
    eps = cfg["eps"]
    r = cfg["r"]
    if r is None:
        if cert is None or X.n_cols == X.n_rows:
            print("no threshold available: give -r explicitly", file=sys.stderr)
            return EXIT_GATE
        r = distance_threshold(cert.q1, cert.q2, X.n_cols, X.n_rows, eps)
    result = _tvd_instance(X, r, eps, cfg["c"], cfg["mode"], stream.substream(2), cfg["samples"], cert)
    write_report(out / "matrix.txt", X.to_text() + "\n")
    write_json(out / "tvd.json", result)
    write_manifest(out, "tvd", cfg, {"tvd": "ok"}, t0)
    if result.get("verdict") == "fail":
        return EXIT_INVARIANT
    if result.get("verdict") == "precondition unmet":
        print(f"precondition unmet: sigma_m = {r:g} is below the threshold {result['threshold']:g}", file=sys.stderr)
        return EXIT_GATE
    if result.get("verdict") == "inconclusive":
        mc = result["mc"]
        print(f"inconclusive: the MC estimate {mc['estimate']:g} exceeds 2 eps = {2 * eps:g}, "
              f"but the lower end of its {mc['confidence']:g} confidence interval, {mc['ci'][0]:g}, does not",
              file=sys.stderr)
        return EXIT_GATE
    return EXIT_OK


def cmd_main_experiment(cfg: dict) -> int:
    t0 = time.time()
    out = make_out_dir(cfg)
    stream = SampleStream(cfg["seed"])
    n, m, s, eps = cfg["n"], cfg["m"], cfg["s"], cfg["eps"]
    trials = cfg["trials"]
    per_trial = []
    n_pass = n_fail = n_skip = 0
    for trial in range(trials):
        st = stream.substream(trial)
        entry = {"trial": trial}
        try:
            X = draw_matrix(n, m, s, st.substream(0))
            cert = best_certificate(X, st.substream(1))
            if cert is None:
                entry["status"] = "no-certificate"
                n_skip += 1
                per_trial.append(entry)
                continue
            threshold = distance_threshold(cert.q1, cert.q2, m, n, eps)
            result = _tvd_instance(X, threshold, eps, None, cfg["mode"], st.substream(2), cfg["samples"], cert)
            if not abs(result["threshold"] - threshold) < 1e-12:
                raise InvariantViolation("trial threshold differs from its report")
            entry.update({
                "q1": cert.q1, "q2": cert.q2, "threshold": threshold,
                "result": result, "status": result["verdict"],
            })
            if result["verdict"] == "pass":
                n_pass += 1
            elif result["verdict"] == "inconclusive":
                n_skip += 1
            else:
                n_fail += 1
        except AssertionError:
            raise
        except Exception as exc:  # per-trial failures recorded, run continues
            entry["status"] = f"error: {exc}"
            n_skip += 1
        per_trial.append(entry)
    S = GaussianShape.spherical(s)
    R = GaussianShape.spherical(1.0)
    report = {
        "config": {"n": n, "m": m, "s": s, "eps": eps, "trials": trials},
        "parameter_checks": parameter_check(n, m, eps, S, R),
        "trials": sorted(per_trial, key=lambda e: e["trial"]),
        "n_pass": n_pass,
        "n_fail": n_fail,
        "n_skipped": n_skip,
        "pass_rate_over_certified": (n_pass / max(n_pass + n_fail, 1)),
    }
    write_json(out / "main_report.json", report)
    write_manifest(out, "main", cfg, {"main": "ok"}, t0)
    if n_fail > 0:
        return EXIT_INVARIANT
    if n_pass == 0:
        reasons = Counter(e["status"] for e in per_trial)  # every trial was skipped
        why = "; ".join(f"{k} (x{v})" for k, v in sorted(reasons.items())) or "no trials"
        print(f"no trial passed: {n_skip} of {trials} trials skipped: {why}", file=sys.stderr)
        return EXIT_GATE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=None)
    shared.add_argument("--seed", type=int, default=None)
    shared.add_argument("--eps", type=float, default=None)
    shared.add_argument("--samples", type=int, default=None)
    shared.add_argument("--out-dir", dest="out_dir", default=None)
    shared.add_argument("--trials", type=int, default=None)
    shared.add_argument("-n", type=int, default=None)
    shared.add_argument("-m", type=int, default=None)
    shared.add_argument("-s", type=float, default=None)
    shared.add_argument("-r", type=float, default=None)
    shared.add_argument("--x-file", dest="x_file", default=None)
    shared.add_argument("--c", dest="c", default=None)
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
    args = _PARSER.parse_args(argv)
    try:
        cfg = resolve(args)
    except (ValueError, KeyError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_GATE
    handler = {
        "sample": cmd_sample,
        "quality": cmd_quality,
        "kernel": cmd_kernel,
        "tvd": cmd_tvd,
        "main": cmd_main_experiment,
    }[args.command]
    try:
        return handler(cfg)
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:  # includes RankError, NotInSupport, LinAlgError
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_GATE
    except EnumerationBudgetExceeded as exc:
        print(f"enumeration budget exceeded: {exc}", file=sys.stderr)
        return EXIT_GATE


if __name__ == "__main__":
    sys.exit(main())
