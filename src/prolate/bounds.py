"""Transition-width bound and clustering certificates for computed spectra.

The bound below caps the number of eigenvalues of the time- and
band-limited operator that can fall strictly between eps and 1 - eps; the
same quantity, evaluated at the submatrix size, caps the analogous count
of singular values of a cyclic DFT submatrix between sqrt(eps) and
sqrt(1 - eps).  Certification recomputes a spectrum, measures the width,
and checks the two index inequalities, recording explicitly whenever an
index leaves the valid range and the corresponding check holds vacuously.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigensolve import (
    GRAM_NOISE_FLOOR,
    Spectrum,
    eigh_householder_ql,
    singular_values_via_gram,
)
from .kernels import ParameterError, ProlateParams, dft_submatrix, periodic_prolate

# A spectrum must sum to the block's trace N(2K+1)/M.  Its sum is the trace
# of A + E, E the solver's backward error with ||E||_2 ~ n u ||A||_2, and
# ||A||_2 <= 1 here, so |trace E| <= n ||E||_2 ~ N^2 u (measured <= 5.7e-14
# up to N = 2048).  K +/- 1 shifts the trace by 2N/M, outside for M < 1/(2Nu).
TRACE_ROUNDING = 4.0 * 2.0**-52


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 0.5:
        raise ParameterError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    return epsilon


def transition_bound(n: int, m: int, epsilon: float) -> float:
    """Half-width cap: (4/pi^2 log(8n) + 6) log(16/eps) plus a ratio term.

    The ratio term is 2*max(-log(8*pi*((m/n)^2 - 1)*eps) / log(m/n), 0).
    All logarithms are natural.  Twice this value bounds the transition
    width of the n x n spectrum at level eps.
    """
    epsilon = _check_epsilon(epsilon)
    if not (isinstance(n, (int, np.integer)) and isinstance(m, (int, np.integer))):
        raise ParameterError(f"sizes must be integers, got n={n!r}, m={m!r}")
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    if n >= m:
        raise ParameterError(f"need n < m, got n={n}, m={m}")
    first = (4.0 / math.pi**2 * math.log(8.0 * n) + 6.0) * math.log(16.0 / epsilon)
    ratio = m / n
    arg = 8.0 * math.pi * (ratio**2 - 1.0) * epsilon
    second = 2.0 * max(-math.log(arg) / math.log(ratio), 0.0)
    return first + second


def transition_width(values: np.ndarray | Spectrum, epsilon: float) -> int:
    """Exact count of spectrum values strictly between eps and 1 - eps."""
    epsilon = _check_epsilon(epsilon)
    if isinstance(values, Spectrum):
        values = values.values
    values = np.asarray(values, dtype=np.float64)
    return int(((values > epsilon) & (values < 1.0 - epsilon)).sum())


@dataclass(frozen=True)
class SubmatrixSpec:
    """Location of a cyclic DFT submatrix: size m, divisor p, offsets."""

    m: int
    p: int
    row_offset: int
    col_offset: int


@dataclass
class TransitionReport:
    """Outcome of one clustering certification.

    ``width`` counts values strictly inside the transition band, ``bound``
    is twice the half-width cap, and the three booleans record the two
    index inequalities plus the width comparison.  Vacuous flags mark
    index checks that fell outside the valid range and therefore hold
    trivially; ``cluster_point`` is where the near-unit plateau ends.

    The margins say how close each check came to failing; each verdict
    holds exactly when its margin is >= 0.  ``width_margin`` is
    ``bound - width``; ``lower_margin`` is ``values[lower_index]`` minus
    the upper level 1 - eps (or sqrt(1 - eps) for singular values);
    ``upper_margin`` is the lower level eps (or sqrt(eps)) minus
    ``values[upper_index]``.  A vacuous index check has margin None.
    """

    epsilon: float
    width: int
    bound: float
    lower_index: int
    upper_index: int
    lower_index_ok: bool
    upper_index_ok: bool
    width_ok: bool
    lower_vacuous: bool
    upper_vacuous: bool
    cluster_point: float
    width_margin: float
    lower_margin: float | None
    upper_margin: float | None
    params: ProlateParams | None = None
    submatrix: SubmatrixSpec | None = None
    spectrum: Spectrum | None = field(default=None, repr=False)
    singular_values: np.ndarray | None = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return self.lower_index_ok and self.upper_index_ok and self.width_ok


def _clustering_report(
    values, epsilon, half, nw2, low_level, high_level, **where
) -> TransitionReport:
    """Width count and the two index checks around nw2, as one report.

    An index outside the valid range leaves its check vacuously true.
    """
    n = values.size
    half_int = math.ceil(half)
    lower_index = nw2 - half_int
    upper_index = nw2 + half_int + 1
    lower_vacuous = lower_index < 0 or lower_index >= n
    upper_vacuous = upper_index < 0 or upper_index >= n
    width = int(((values > low_level) & (values < high_level)).sum())
    bound = 2.0 * half
    # IEEE subtraction is exact in sign, so each margin is >= 0 exactly
    # when the comparison it stands for holds
    lower_margin = None if lower_vacuous else float(values[lower_index] - high_level)
    upper_margin = None if upper_vacuous else float(low_level - values[upper_index])
    return TransitionReport(
        epsilon=epsilon,
        width=width,
        bound=bound,
        lower_index=lower_index,
        upper_index=upper_index,
        lower_index_ok=lower_vacuous or bool(values[lower_index] >= high_level),
        upper_index_ok=upper_vacuous or bool(values[upper_index] <= low_level),
        width_ok=width <= bound,
        lower_vacuous=lower_vacuous,
        upper_vacuous=upper_vacuous,
        width_margin=bound - width,
        lower_margin=lower_margin,
        upper_margin=upper_margin,
        **where,
    )


def certify_spectrum_clustering(
    params: ProlateParams, epsilon: float, spectrum: Spectrum | None = None
) -> TransitionReport:
    """Certify eigenvalue clustering of the time- and band-limited operator.

    Computes the spectrum of the N x N periodic prolate block (or reuses a
    precomputed one, which must have N values summing to the block's trace
    N(2K+1)/M), then checks the eigenvalue at index 2*floor(NW) -
    ceil(R) is >= 1-eps, the one at 2*floor(NW) + ceil(R) + 1 is <= eps,
    and that the number of eigenvalues strictly inside (eps, 1-eps) is at
    most 2R.
    """
    epsilon = _check_epsilon(epsilon)
    if params.N >= params.M:
        raise ParameterError(f"need N < M, got N={params.N}, M={params.M}")
    if spectrum is None:
        spectrum = eigh_householder_ql(periodic_prolate(params).dense())
    lam = spectrum.values
    if lam.size != params.N:
        raise ParameterError(
            f"spectrum has {lam.size} values, expected N={params.N}"
        )
    total = math.fsum(lam)
    if abs(total - params.cluster_point) > TRACE_ROUNDING * params.N**2:
        raise ParameterError(
            f"spectrum sums to {total!r}, not to the trace {params.cluster_point!r}"
        )
    # floor(N*W) in exact integer arithmetic: N(2K+1) // 2M
    nw2 = 2 * ((params.N * (2 * params.K + 1)) // (2 * params.M))
    return _clustering_report(
        lam,
        epsilon,
        transition_bound(params.N, params.M, epsilon),
        nw2,
        epsilon,
        1.0 - epsilon,
        cluster_point=params.cluster_point,
        params=params,
        spectrum=spectrum,
    )


def certify_dft_submatrix(
    m: int,
    p: int,
    row_offset: int = 0,
    col_offset: int = 0,
    epsilon: float = 1e-6,
    singular_values: np.ndarray | None = None,
) -> TransitionReport:
    """Certify singular-value clustering of an L x L cyclic DFT submatrix.

    L = m/p.  The checks mirror the eigenvalue case at levels sqrt(eps)
    and sqrt(1-eps) around index 2*floor(L/(2p)), with the cap evaluated
    at (L, m).  p = 1 is the unitary case: every singular value is 1 and
    the cap is taken as zero.  Supplied singular values must number L
    and their squares must sum to L/p.
    """
    epsilon = _check_epsilon(epsilon)
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise ParameterError(f"divisor must be a positive integer, got {p!r}")
    if m % p != 0:
        raise ParameterError(f"p={p} does not divide m={m}")
    length = m // p
    if singular_values is None:
        singular_values = singular_values_via_gram(
            dft_submatrix(m, p, row_offset, col_offset)
        )
    sigma = np.asarray(singular_values, dtype=np.float64)
    if sigma.size != length:
        raise ParameterError(
            f"got {sigma.size} singular values, expected L={length}"
        )
    # The squares sum to the block's squared Frobenius norm L/p, up to the
    # Gram noise floor (at most L values below GRAM_NOISE_FLOOR times the
    # top one, which is <= 1, snap to zero) and rounding as for the trace.
    total = math.fsum(sigma * sigma)
    slack = length * (GRAM_NOISE_FLOOR + TRACE_ROUNDING * length)
    if abs(total - length / p) > slack:
        raise ParameterError(
            f"singular values square-sum to {total!r}, not to L/p = {length / p!r}"
        )
    return _clustering_report(
        sigma,
        epsilon,
        0.0 if p == 1 else transition_bound(length, m, epsilon),
        2 * (length // (2 * p)),
        math.sqrt(epsilon),
        math.sqrt(1.0 - epsilon),
        cluster_point=length / p,
        submatrix=SubmatrixSpec(int(m), int(p), int(row_offset), int(col_offset)),
        singular_values=sigma,
    )
