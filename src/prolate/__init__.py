"""Prolate matrices, their spectra, and clustering certificates.

Construct time- and band-limiting operator matrices (periodic and
sinc-kernel prolate matrices, DFT submatrices), compute their full
spectra with self-contained symmetric eigensolvers, and certify
non-asymptotic eigenvalue/singular-value clustering bounds, including
the constructive low-rank split behind them.
"""
from .bounds import (
    SubmatrixSpec,
    TransitionReport,
    certify_dft_submatrix,
    certify_spectrum_clustering,
    transition_bound,
    transition_width,
)
from .commuting import (
    DegenerateFitError,
    TridiagonalFit,
    eigenvectors_via_tridiagonal,
    fit_commuting_tridiagonal,
)
from .eigensolve import (
    EigensolveError,
    Spectrum,
    eigh_householder_ql,
    eigh_jacobi,
    hermitian_embedding,
    singular_values_via_gram,
)
from .kernels import (
    ParameterError,
    ProlateParams,
    SymbolMatrix,
    dft_submatrix,
    periodic_prolate,
    sinc_prolate,
)
from .lowrank import (
    LowRankParts,
    SplitCertificate,
    certified_order,
    certify_lowrank_split,
    eta_even,
    lowrank_tail_split,
    projector_gap_rank,
    tail_bound_at,
    truncation_order,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateFitError",
    "EigensolveError",
    "LowRankParts",
    "ParameterError",
    "ProlateParams",
    "Spectrum",
    "SplitCertificate",
    "SubmatrixSpec",
    "SymbolMatrix",
    "TransitionReport",
    "TridiagonalFit",
    "certified_order",
    "certify_dft_submatrix",
    "certify_lowrank_split",
    "certify_spectrum_clustering",
    "dft_submatrix",
    "eigenvectors_via_tridiagonal",
    "eigh_householder_ql",
    "eigh_jacobi",
    "eta_even",
    "fit_commuting_tridiagonal",
    "hermitian_embedding",
    "lowrank_tail_split",
    "periodic_prolate",
    "projector_gap_rank",
    "sinc_prolate",
    "singular_values_via_gram",
    "tail_bound_at",
    "transition_bound",
    "transition_width",
    "truncation_order",
]
