"""Discrete Gaussian sampling on Z and on integer cosets.

Draws from D_{Z,s} with the table sampler (inverse CDF over the certified
truncated pmf), compares empirical frequencies against that pmf, and shows
draws from D_{Z^2,s} at one width s and from the half-integer coset Z + 1/2.
"""

import numpy as np

from dgsum import (
    SampleStream,
    draw_ints,
    exact_pmf,
    sample_dg_coset,
)


def main():
    stream = SampleStream(seed=12345)
    N = 200_000

    print("== D_{Z,s} table sampler vs exact pmf ==")
    for s in (0.7, 1.5, 3.0):
        pmf = exact_pmf(s)
        draws = draw_ints(pmf, N, stream.substream(int(10 * s)))
        ref = pmf.as_dict()
        vals, counts = np.unique(draws, return_counts=True)
        emp = {(int(v),): c / N for v, c in zip(vals, counts)}
        keys = set(ref) | set(emp)
        tvd = 0.5 * sum(abs(emp.get(k, 0.0) - ref.get(k, 0.0)) for k in keys)
        print(f"  s={s:<4} support {pmf.support_size():3d}  empirical TVD {tvd:.2e}")
        show = sorted(k for k in ref if abs(k[0]) <= 2)
        for k in show:
            print(f"    p({k[0]:+d}) exact {ref[k]:.5f}  empirical {emp.get(k, 0.0):.5f}")

    print("\n== D_{Z^2,s} at one width: independent coordinates ==")
    s = 3.0
    vs = sample_dg_coset(s, [0.0, 0.0], N, stream.substream(99))
    corr = np.corrcoef(vs.T)[0, 1]
    print(f"  sample std per axis: {vs.std(axis=0).round(3)}"
          f"  (expect about s/sqrt(2 pi) = {s / np.sqrt(2 * np.pi):.3f}); correlation {corr:+.4f}")

    print("\n== half-integer coset Z + 1/2 ==")
    ws = sample_dg_coset(1.0, [0.5], N, stream.substream(7))[:, 0]  # the draws are ws + 1/2
    pmf = exact_pmf(1.0, 0.5)  # the labels y of the points y + 1/2
    for (y,) in sorted(pmf.points.tolist(), key=lambda p: abs(p[0] + 0.5))[:6]:
        emp = float(np.mean(ws == y))
        print(f"    p({y + 0.5:+.1f}) exact {pmf.mass_at((y,)):.5f}  empirical {emp:.5f}")

    table = exact_pmf(2.0)
    print("\nreplaying the same stream gives identical draws:",
          np.array_equal(draw_ints(table, 10, stream), draw_ints(table, 10, stream)))


if __name__ == "__main__":
    main()
