"""Exact statistical distance between X-image samples and the matched Gaussian.

Pushing v ~ D_{Z^m, r} through v -> X v gives a distribution on Z^n that, for
r above a threshold driven by the quality (q1, q2) of X, is within 2 eps of
the discrete Gaussian with shape r X^T.  The mass at z is the Gaussian weight
of the solution coset {v : X v = z}, a translate of the kernel lattice; it is
the target weight times a factor that depends only on the class of z modulo
X X^T, the ratio of the image's and the target's class masses.  So the exact
TVD is a sum over det(X X^T) classes, with no enumeration of output labels.
"""

import numpy as np

from dgsum import (
    IntMatrix,
    SampleStream,
    certify_quality,
    class_tvd,
    exact_dual_fallback,
    exact_output_pmf,
    exact_tvd,
    mc_tvd,
    target_pmf,
    distance_threshold,
)
from dgsum.gaussian import sample_dg_coset
from dgsum.tvd import FiberWorkspace


def main():
    X = IntMatrix.from_rows([[1, 1]])
    eps = 0.01
    cert = certify_quality(X, exact_dual_fallback(X))
    r = distance_threshold(cert.q1, cert.q2, 2, 1, eps)
    print(f"X = [1 1], eps = {eps}, measured (q1, q2) = ({cert.q1:.3f}, {cert.q2:.3f})")
    print(f"threshold: r = {r:.4f}")

    ws = FiberWorkspace(X, r, [0.0, 0.0])

    print("\nfiber masses (Gaussian weight of {v : v1 + v2 = z}) against target weight x kernel weight:")
    kw = ws.fiber_weight([0])  # at c = 0 the fiber over 0 is the kernel lattice
    for z in (0, 1, 2, 3):
        print(f"  z={z}: mass {ws.fiber_weight([z]):.6f}  ratio {ws.fiber_weight([z]) / (ws.target_weight([z]) * kw):.9f}")

    rep = class_tvd(X, r, [0.0, 0.0])
    print(f"\nexact TVD = {rep.tvd:.3e}  (truncation error {rep.truncation_error:.1e},"
          f" {rep.support_size} coset classes)")
    print(f"guarantee 2 eps = {2 * eps}: {'met' if rep.tvd <= 2 * eps else 'violated'}")
    p = exact_output_pmf(ws)
    q = target_pmf(ws)
    print(f"the same from the two pmfs over {q.support_size()} labels: {exact_tvd(p, q).tvd:.3e}")

    def sampler(N, st):
        return sample_dg_coset(r, [0.0, 0.0], N, st) @ X.to_numpy(dtype=np.int64).T

    mc = mc_tvd(sampler, q, 100_000, SampleStream(99))
    print(f"\nMonte-Carlo cross-check: estimate {mc.estimate:.4f}"
          f" (bias bound {mc.bias_bound:.4f}, 99% band +-{(mc.ci_hi - mc.ci_lo) / 2:.3f})")

    print("\nbelow the threshold the match degrades:")
    for frac in (1.0, 0.5, 0.25):
        d = class_tvd(X, frac * r, [0.0, 0.0])
        print(f"  r = {frac:.2f} * threshold: exact TVD {d.tvd:.3e}")


if __name__ == "__main__":
    main()
