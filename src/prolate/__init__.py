"""Prolate matrices, their spectra, and clustering certificates.

Construct time- and band-limiting operator matrices (periodic and
sinc-kernel prolate matrices, DFT submatrices), compute their full
spectra with self-contained symmetric eigensolvers, and certify
non-asymptotic eigenvalue/singular-value clustering bounds, including
the constructive low-rank split behind them.

``import prolate`` loads numpy, ``kernels``, ``eigensolve`` and
``bounds``. The names from ``lowrank`` and ``commuting`` (and those two
submodules themselves) are imported on first access, so a process that
never uses them, such as the CLI's ``certify``, does not pay for loading
them; ``dir(prolate)`` and ``from prolate import *`` list them as usual.
"""
from .bounds import (
    TransitionReport,
    certify_dft_submatrix,
    certify_spectrum_clustering,
    transition_bound,
    transition_width,
)
from .eigensolve import (
    EigensolveError,
    Spectrum,
    eigh_householder_ql,
    eigh_jacobi,
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

# Each lazily bound name and the submodule that defines it.
_LAZY = {
    **dict.fromkeys(
        ("commuting", "TridiagonalFit", "eigenvectors_via_tridiagonal",
         "fit_commuting_tridiagonal"),
        "commuting",
    ),
    **dict.fromkeys(
        ("lowrank", "LowRankParts", "SplitCertificate", "certified_order",
         "certify_lowrank_split", "eta_even", "lowrank_tail_split",
         "projector_gap_rank", "tail_bound_at", "truncation_order"),
        "lowrank",
    ),
}


def __getattr__(name: str):
    from importlib import import_module

    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{module_name}", __name__)  # also binds the submodule
    if name == module_name:
        return module
    globals()[name] = value = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


__version__ = "0.1.0"

__all__ = [
    "EigensolveError",
    "LowRankParts",
    "ParameterError",
    "ProlateParams",
    "Spectrum",
    "SplitCertificate",
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
