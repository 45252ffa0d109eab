"""Transition-width bound and clustering certificates for computed spectra.

The bound below caps the number of eigenvalues of the time- and
band-limited operator that can fall strictly between eps and 1 - eps; the
same quantity, evaluated at the submatrix size, caps the analogous count
of singular values of a cyclic DFT submatrix between sqrt(eps) and
sqrt(1 - eps).  Each certificate computes its spectrum once, checks it
against the block's trace, and then, per eps, measures the width and
checks the two index inequalities; an index outside the valid range is
recorded as a None margin, its check holding vacuously.
The analytic bound takes any eps in (0, 1/2); a certificate takes eps
only down to SPECTRUM_EPS_FLOOR, the smallest level its solver resolves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigensolve import (
    GRAM_NOISE_FLOOR,
    EigensolveError,
    Spectrum,
    eigh_householder_ql,
    singular_values_via_gram,
)
from .kernels import (
    ParameterError, ProlateParams, _check_integer, dft_submatrix, periodic_prolate
)

# A spectrum must sum to the block's trace N(2K+1)/M.  Its sum is the trace
# of A + E, E the solver's backward error with ||E||_2 ~ n u ||A||_2, and
# ||A||_2 <= 1 here, so |trace E| <= n ||E||_2 ~ N^2 u (measured <= 5.7e-14
# up to N = 2048).  K +/- 1 shifts the trace by 2N/M, outside for M < 1/(2Nu).
TRACE_ROUNDING = 4.0 * 2.0**-52
# Smallest eps a certificate of a computed spectrum accepts.  QL eigenvalues
# carry an absolute error of a few u ||B||, so values truly below about
# 1e-15, or that close to 1, come out as noise: at (256,64,31) and eps=1e-16
# the QL width is 35 where 40-digit mpmath gives 27, and at N=2048 the noise
# fails verdicts.  Against LAPACK on the blocks (4N, N, N/2) and (2N, N, N/4),
# N = 16..4096, QL widths agree at every eps >= 1e-13 but one, where an
# eigenvalue lies within 1e-15 of the level and no double-precision solver
# places it reliably: at (16384,4096,2048), eps=1e-13, lambda - eps is
# +5.7e-16 by QL and -5.5e-16 by LAPACK.  Below 1e-13 such values appear
# more often: at (256,64,32), eps=3e-14, 40-digit mpmath has lambda - eps =
# +2.5e-16 and QL -5.7e-17, a width of 23 against 24.
SPECTRUM_EPS_FLOOR = 1e-13


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 0.5:
        raise ParameterError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    return epsilon


def _check_spectrum_epsilon(epsilon: float) -> float:
    """An eps in [SPECTRUM_EPS_FLOOR, 1/2), the levels a computed spectrum resolves."""
    epsilon = _check_epsilon(epsilon)
    if epsilon < SPECTRUM_EPS_FLOOR:
        raise ParameterError(
            f"certificates need eps >= {SPECTRUM_EPS_FLOOR:g}, the smallest level"
            f" a computed spectrum resolves, got {epsilon:g}"
        )
    return epsilon


def _series_order(ratio: float, scale: float, epsilon: float) -> float:
    """max(-log(scale ((M/N)^2 - 1) eps) / (2 log(M/N)), 0), ratio = M/N > 1.

    ParameterError when the logarithm's argument underflows to 0.
    """
    arg = scale * (ratio**2 - 1.0) * epsilon
    if arg == 0.0:
        raise ParameterError(
            f"epsilon {epsilon!r} is too small for M/N = {ratio!r}:"
            " the series order is infinite"
        )
    return max(-math.log(arg) / (2.0 * math.log(ratio)), 0.0)


def transition_bound(n: int, m: int, epsilon: float) -> float:
    """Half-width cap: (4/pi^2 log(8n) + 6) log(16/eps) plus a ratio term.

    The ratio term is 2*max(-log(8*pi*((m/n)^2 - 1)*eps) / log(m/n), 0).
    All logarithms are natural.  Twice this value bounds the transition
    width of the n x n spectrum at level eps.  ParameterError when the
    ratio term's log argument underflows to 0.
    """
    epsilon = _check_epsilon(epsilon)
    n = _check_integer(n, "n", positive=True)
    m = _check_integer(m, "m")
    if n >= m:
        raise ParameterError(f"need n < m, got n={n}, m={m}")
    first = (4.0 / math.pi**2 * math.log(8.0 * n) + 6.0) * math.log(16.0 / epsilon)
    return first + 4.0 * _series_order(m / n, 8.0 * math.pi, epsilon)


def transition_width(values: np.ndarray, epsilon: float) -> int:
    """Exact count of the array's values strictly between eps and 1 - eps."""
    epsilon = _check_epsilon(epsilon)
    values = np.asarray(values, dtype=np.float64)
    return int(((values > epsilon) & (values < 1.0 - epsilon)).sum())


@dataclass
class TransitionReport:
    """Outcome of one clustering certification.

    ``width`` counts values strictly inside the transition band and
    ``bound`` is twice the half-width cap.  The margins say how close each
    check came to failing, and every verdict is derived from them:
    ``width_margin`` is ``bound - width``; ``lower_margin`` is
    ``values[lower_index]`` minus the upper level 1 - eps (or sqrt(1 - eps)
    for singular values); ``upper_margin`` is the lower level eps (or
    sqrt(eps)) minus ``values[upper_index]``.  An index outside the valid
    range is recorded as a None margin: its check is vacuous and holds
    trivially.  Every other check holds exactly when its margin is >= 0.
    The report holds what was measured, the ``spectrum`` (of singular
    values for a DFT block), and not the inputs its caller already has.
    """

    epsilon: float
    width: int
    bound: float
    lower_index: int
    upper_index: int
    lower_margin: float | None
    upper_margin: float | None
    spectrum: Spectrum = field(repr=False)

    @property
    def lower_index_ok(self) -> bool:
        return self.lower_margin is None or self.lower_margin >= 0.0

    @property
    def upper_index_ok(self) -> bool:
        return self.upper_margin is None or self.upper_margin >= 0.0

    @property
    def width_margin(self) -> float:
        return self.bound - self.width

    @property
    def width_ok(self) -> bool:
        return self.width_margin >= 0.0

    @property
    def passed(self) -> bool:
        return self.lower_index_ok and self.upper_index_ok and self.width_ok


def _clustering_report(
    spectrum, epsilon, half, nw2, low_level, high_level
) -> TransitionReport:
    """Width count and the two index margins around nw2, as one report."""
    values = spectrum.values
    n = values.size
    half_int = math.ceil(half)
    lower_index = nw2 - half_int
    upper_index = nw2 + half_int + 1
    # IEEE subtraction is exact in sign, so each margin is >= 0 exactly
    # when the comparison it stands for holds
    return TransitionReport(
        epsilon=epsilon,
        width=int(((values > low_level) & (values < high_level)).sum()),
        bound=2.0 * half,
        lower_index=lower_index,
        upper_index=upper_index,
        lower_margin=(
            float(values[lower_index] - high_level) if 0 <= lower_index < n else None
        ),
        upper_margin=(
            float(low_level - values[upper_index]) if 0 <= upper_index < n else None
        ),
        spectrum=spectrum,
    )


def certify_spectrum_clustering(
    params: ProlateParams, epsilons
) -> list[TransitionReport]:
    """Certify eigenvalue clustering of the time- and band-limited operator.

    Computes the spectrum of the N x N periodic prolate block once and
    checks, at each eps, that the eigenvalue at index 2*floor(NW) - ceil(R)
    is >= 1-eps, the one at 2*floor(NW) + ceil(R) + 1 is <= eps, and that
    the number of eigenvalues strictly inside (eps, 1-eps) is at most 2R.
    Returns one report per eps.  Raises ParameterError, before solving,
    for an eps below SPECTRUM_EPS_FLOOR, and EigensolveError when the
    computed spectrum does not sum to the block's trace N(2K+1)/M.
    """
    epsilons = [_check_spectrum_epsilon(epsilon) for epsilon in epsilons]
    params._check_n_below_m()
    spectrum = eigh_householder_ql(periodic_prolate(params))
    total = math.fsum(spectrum.values)
    if abs(total - params.cluster_point) > TRACE_ROUNDING * params.N**2:
        raise EigensolveError(
            f"spectrum sums to {total!r}, not to the trace {params.cluster_point!r}"
        )
    # floor(N*W) in exact integer arithmetic: N(2K+1) // 2M
    nw2 = 2 * ((params.N * (2 * params.K + 1)) // (2 * params.M))
    return [
        _clustering_report(
            spectrum,
            epsilon,
            transition_bound(params.N, params.M, epsilon),
            nw2,
            epsilon,
            1.0 - epsilon,
        )
        for epsilon in epsilons
    ]


def certify_dft_submatrix(
    m: int, p: int, epsilons, row_offset: int = 0, col_offset: int = 0
) -> list[TransitionReport]:
    """Certify singular-value clustering of an L x L cyclic DFT submatrix.

    L = m/p.  The singular values are computed once; at each eps the
    checks mirror the eigenvalue case at levels sqrt(eps) and sqrt(1-eps)
    around index 2*floor(L/(2p)), with the cap evaluated at (L, m).  p = 1
    is the unitary case: every singular value is 1 and the cap is taken as
    zero.  Returns one report per eps.  Raises ParameterError, before
    solving, for an eps below SPECTRUM_EPS_FLOOR, and EigensolveError when
    the squares of the singular values do not sum to L/p.
    """
    epsilons = [_check_spectrum_epsilon(epsilon) for epsilon in epsilons]
    sigma = singular_values_via_gram(dft_submatrix(m, p, row_offset, col_offset))
    length = m // p
    # The squares sum to the block's squared Frobenius norm L/p, up to the
    # Gram noise floor (at most L values below GRAM_NOISE_FLOOR times the
    # top one, which is <= 1, snap to zero) and rounding as for the trace.
    total = math.fsum(sigma * sigma)
    slack = length * (GRAM_NOISE_FLOOR + TRACE_ROUNDING * length)
    if abs(total - length / p) > slack:
        raise EigensolveError(
            f"singular values square-sum to {total!r}, not to L/p = {length / p!r}"
        )
    spectrum = Spectrum(sigma)
    return [
        _clustering_report(
            spectrum,
            epsilon,
            0.0 if p == 1 else transition_bound(length, m, epsilon),
            2 * (length // (2 * p)),
            math.sqrt(epsilon),
            math.sqrt(1.0 - epsilon),
        )
        for epsilon in epsilons
    ]
