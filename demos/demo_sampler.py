"""Discrete Gaussian sampling on Z and on integer cosets.

Draws from D_{Z,s} with the table sampler (inverse CDF over the certified
truncated pmf), compares empirical frequencies against that pmf, and shows
the per-coordinate draws for diagonal shapes and half-integer shifts.
"""

import numpy as np

from dgsum import (
    GaussianShape,
    LatticeCoset,
    SampleStream,
    exact_pmf,
    sample_dg_coset,
    sample_dg_ints,
)


def main():
    stream = SampleStream(seed=12345)
    N = 200_000

    print("== D_{Z,s} table sampler vs exact pmf ==")
    for s in (0.7, 1.5, 3.0):
        draws = sample_dg_ints(s, N, stream.substream(int(10 * s)))
        pmf = exact_pmf(LatticeCoset.integers(1), GaussianShape.spherical(s))
        ref = pmf.as_dict()
        vals, counts = np.unique(draws, return_counts=True)
        emp = {(int(v),): c / N for v, c in zip(vals, counts)}
        keys = set(ref) | set(emp)
        tvd = 0.5 * sum(abs(emp.get(k, 0.0) - ref.get(k, 0.0)) for k in keys)
        print(f"  s={s:<4} support {pmf.support_size():3d}  empirical TVD {tvd:.2e}")
        show = sorted(k for k in ref if abs(k[0]) <= 2)
        for k in show:
            print(f"    p({k[0]:+d}) exact {ref[k]:.5f}  empirical {emp.get(k, 0.0):.5f}")

    print("\n== diagonal shape on Z^2: independent marginals ==")
    shape = GaussianShape.ellipsoidal(np.diag([1.0, 3.0]))
    vs = sample_dg_coset(LatticeCoset.integers(2), shape, stream.substream(99), size=N)
    print(f"  sample std per axis: {vs.std(axis=0).round(3)}"
          f"  (expect about s/sqrt(2 pi) = {np.array([1.0, 3.0]) / np.sqrt(2 * np.pi)})")

    print("\n== half-integer coset Z + 1/2 ==")
    coset = LatticeCoset.integers(1, (0.5,))
    vs = sample_dg_coset(coset, GaussianShape.spherical(1.0), stream.substream(7), size=N)
    pmf = exact_pmf(coset, GaussianShape.spherical(1.0))
    for pt in sorted(pmf.points, key=lambda p: abs(p[0]))[:6]:
        emp = float(np.mean(vs[:, 0] == pt[0]))
        print(f"    p({pt[0]:+.1f}) exact {pmf.mass_at(pt):.5f}  empirical {emp:.5f}")

    print("\nreplaying the same stream gives identical draws:",
          np.array_equal(sample_dg_ints(2.0, 10, stream), sample_dg_ints(2.0, 10, stream)))


if __name__ == "__main__":
    main()
