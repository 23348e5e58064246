"""Discrete-Gaussian integer combinations of lattice vectors.

Samplers and exact pmfs for discrete Gaussians on lattice cosets, exact
integer lattice algebra (kernels, LLL, duals, smoothing bounds), quality
certificates with short orthogonal dual vectors, and exact / Monte-Carlo
total-variation verification that X v with Gaussian v is close to a discrete
Gaussian with shape R X^T.
"""

from .gaussian import (
    DiscretePMF,
    SampleStream,
    coset_mass,
    draw_ints,
    exact_pmf,
    push_to_lattice,
    sample_dg_coset,
)
from .intmat import IntMatrix, InvariantViolation
from .lattice import (
    LatticeBasis,
    SmoothingBound,
    dual_basis,
    integer_kernel,
    lll_reduce,
    smoothing_bound,
    smoothing_check,
    successive_minima_upper,
)
from .quality import (
    CollisionNotFound,
    CollisionSearchParams,
    ShortKernelBasis,
    QualityCertificate,
    certify_quality,
    column_bound,
    exact_dual_fallback,
    find_dual_vectors,
    short_kernel_vectors,
    pigeonhole_collision,
    distance_threshold,
    parameter_check,
)
from .tvd import (
    ExactTVDReport,
    FiberWorkspace,
    MCTVDReport,
    class_tvd,
    exact_output_pmf,
    exact_tvd,
    mc_tvd,
    ratio_band_check,
    shift_bound_eval,
    tail_bound_eval,
    target_pmf,
)

__version__ = "0.1.0"
