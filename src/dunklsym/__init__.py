"""Dunkl intertwining operator for symmetric groups.

Exact rational Dunkl operators and intertwining images, Gauss-Jacobi
quadrature on the simplex and the sphere, spherical h-harmonic bases and
reproducing kernels, generalized Bessel functions along independent routes,
and Cesaro summability experiments at the coordinate vectors.

Importing the package loads numpy's OpenBLAS on one thread, unless numpy is
already imported or one of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
OMP_NUM_THREADS is set, in which case the caller's setting holds. Every BLAS
product here is small, and a second OpenBLAS thread mostly spins: on a 2-core
x86-64 host it doubled the CPU time of every benchmark workload and moved
wall times by a few percent either way. OpenBLAS reads its thread count once,
when it loads, so a process that imported numpy first keeps the BLAS it
loaded. The variable is set only around that import: os.environ and child
processes see the caller's environment unchanged.
"""

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _load_blas_on_one_thread() -> None:
    import os
    import sys

    if "numpy" in sys.modules or any(v in os.environ for v in _BLAS_THREAD_VARIABLES):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401  (OpenBLAS reads its thread count as it loads)
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_load_blas_on_one_thread()

__version__ = "0.1.0"

from .bessel import (
    bessel_k,
    bessel_k2_closed,
    bessel_k2_direct,
    bessel_recursive,
    classical_bessel_j,
    dunkl_exp_axis,
)
from .harmonics import (
    HarmonicBasis,
    SphereRule,
    build_sphere_rule,
    harmonic_dim,
    hharmonic_basis,
    hweight,
    norm_const_a,
    repro_kernel_axis,
    repro_kernel_basis,
    surface_area,
)
from .intertwine import (
    verify_intertwining,
    vk_axis,
    vk_d2_generic,
    vk_d2_poly_exact,
    vk_monomial_exact,
    vk_sphere_average,
)
from .orthopoly import (
    CesaroOrder,
    JacobiParams,
    cesaro_kernel_endpoint,
    cesaro_weights,
    gegenbauer_eval,
    jacobi_all,
    jacobi_eval,
    jacobi_h_norm,
    kernel_normalizer,
    szego_bound_fit,
    zn_eval,
)
from .polycore import (
    KappaParams,
    Polynomial,
    divided_difference,
    dunkl_apply,
    dunkl_laplacian,
    partial_derivative,
    transposition_action,
)
from .simplexquad import (
    MomentValidationError,
    SelfCheckError,
    SimplexRule,
    build_rule,
    dirichlet_moment,
    gauss_jacobi01,
    integrate,
)
from .summability import (
    SweepRecord,
    cesaro_kernel_axis,
    cesaro_mean_at_axis,
    classify_growth,
    critical_sweep,
    default_sample_points,
    estimate_check,
    kernel_bound_check,
    knd_positivity_check,
    lebesgue_constant,
    lebesgue_sweep,
)

__all__ = [
    "__version__",
    "CesaroOrder",
    "HarmonicBasis",
    "JacobiParams",
    "KappaParams",
    "MomentValidationError",
    "Polynomial",
    "SelfCheckError",
    "SimplexRule",
    "SphereRule",
    "SweepRecord",
    "bessel_k",
    "bessel_k2_closed",
    "bessel_k2_direct",
    "bessel_recursive",
    "build_rule",
    "build_sphere_rule",
    "cesaro_kernel_axis",
    "cesaro_kernel_endpoint",
    "cesaro_mean_at_axis",
    "cesaro_weights",
    "classical_bessel_j",
    "classify_growth",
    "critical_sweep",
    "default_sample_points",
    "dirichlet_moment",
    "divided_difference",
    "dunkl_apply",
    "dunkl_exp_axis",
    "dunkl_laplacian",
    "estimate_check",
    "gauss_jacobi01",
    "gegenbauer_eval",
    "harmonic_dim",
    "hharmonic_basis",
    "hweight",
    "integrate",
    "jacobi_all",
    "jacobi_eval",
    "jacobi_h_norm",
    "kernel_bound_check",
    "kernel_normalizer",
    "knd_positivity_check",
    "lebesgue_constant",
    "lebesgue_sweep",
    "norm_const_a",
    "partial_derivative",
    "repro_kernel_axis",
    "repro_kernel_basis",
    "surface_area",
    "szego_bound_fit",
    "transposition_action",
    "verify_intertwining",
    "vk_axis",
    "vk_d2_generic",
    "vk_d2_poly_exact",
    "vk_monomial_exact",
    "vk_sphere_average",
]
