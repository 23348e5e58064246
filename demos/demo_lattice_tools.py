"""Exact lattice toolbox: kernels, LLL, duals, smoothing parameter.

All of it runs on exact big integers / rationals, so kernels really multiply
to zero and dual pairings really are the identity.
"""

from fractions import Fraction

from dgsum import (
    IntMatrix,
    integer_kernel,
    lll_reduce,
    dual_basis,
    smoothing_bound,
    smoothing_check,
    successive_minima_upper,
)
from dgsum.lattice import LatticeBasis


def main():
    print("== integer kernel via column HNF ==")
    X = IntMatrix.from_rows([[2, 3, 5], [1, 1, 2]])
    K = integer_kernel(X)
    print(f"  X = {X.rows}")
    print(f"  kernel basis columns: {K.vectors()}")
    for v in K.vectors():
        print(f"    X @ {v} = {X @ v}")

    print("\n== LLL on a sheared basis ==")
    basis = LatticeBasis(IntMatrix.from_columns([(1, 0), (1000, 1)]))
    red = lll_reduce(basis)
    print(f"  before: {basis.vectors()}")
    print(f"  after:  {red.vectors()}")
    print(f"  length upper bounds on the minima: {successive_minima_upper(red)}")

    print("\n== exact rational dual ==")
    basis = LatticeBasis(IntMatrix.from_columns([(2, 1), (0, 3)]))
    dual = dual_basis(basis)
    print(f"  primal columns {basis.vectors()}")
    print(f"  dual columns   {dual}")
    for i, b in enumerate(basis.matrix.cols):
        row = [sum(Fraction(x) * y for x, y in zip(b, d)) for d in dual]
        print(f"  pairing row {i}: {row}")

    print("\n== smoothing parameter of Z ==")
    for eps in (0.1, 0.01, 0.001):
        s = smoothing_bound(1, eps, 1.0).value
        holds, lhs, tail = smoothing_check(LatticeBasis(IntMatrix.identity(1)), s, eps)
        print(f"  eps={eps:<6} bound s={s:.4f}  dual weight {lhs:.2e} (+tail {tail:.1e})"
              f"  holds={holds}")


if __name__ == "__main__":
    main()
