"""Constructive low-rank-plus-tail split of the two prolate kernels.

The difference between the periodic (Dirichlet-kernel) prolate block and
the sinc-kernel prolate matrix expands, offset by offset, into the
oscillatory power series

    t(r; k) = 2/(M*pi) * eta(2r) * (k/M)^(2r-1) * sin(2*pi*W*k),

where eta is the Dirichlet eta function eta(s) = (1 - 2^(1-s)) zeta(s),
evaluated exactly from its Bernoulli-number closed form at even s.
Truncating the series after R terms leaves a matrix of rank at most 4R
(it factors through monomial-times-oscillation columns) plus a tail whose
maximum absolute row sum is certified by a geometric-series bound.  Each
term is even in k, so the truncated part is a symmetric Toeplitz matrix
kept, like the two kernels, as its symbol at offsets 0..N-1.  This
module builds that symbol, certifies the tail, and runs the numeric
effective-rank check of the sinc-kernel matrix against its partial
Fourier projector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bounds import _check_epsilon
from .eigensolve import eigh_householder_ql, singular_values_via_gram
from .kernels import (
    ParameterError,
    ProlateParams,
    SymbolMatrix,
    _check_integer,
    periodic_prolate,
    sinc_prolate,
)

# A split is certified when its tail takes at most eps/TAIL_SHARE in max
# row sum (eps/(TAIL_SHARE*N) per entry) and its low-rank part has at most
# 4R singular values above RANK_CUT times the largest.
TAIL_SHARE = 16.0
RANK_CUT = 1e-10

# pi to 62 decimals: its relative error (< 1e-62), raised to a power
# s <= 200, stays far below half an ulp, so eta_even rounds only once.
_PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494459")


def eta_even(s: int) -> float:
    """Dirichlet eta at an even integer s in [2, 200], from its closed form.

    eta(s) = (1 - 2^(1-s)) |B_s| (2 pi)^s / (2 s!), with the Bernoulli
    number B_s from the recurrence sum_{i=0..j} C(j+1, i) B_i = 0.  It is
    evaluated in rationals, pi taken to 62 decimals, and rounded once.
    """
    s = _check_integer(s, "s")
    if s % 2 != 0 or not 2 <= s <= 200:
        raise ParameterError(f"s must be an even integer in [2, 200], got {s}")
    bern = [Fraction(1)]
    for j in range(1, s + 1):
        total = sum(math.comb(j + 1, i) * b for i, b in enumerate(bern) if b)
        bern.append(-total / (j + 1))
    exact = (1 - Fraction(1, 2 ** (s - 1))) * abs(bern[s]) * (2 * _PI) ** s
    return float(exact / (2 * math.factorial(s)))


def truncation_order(params: ProlateParams, epsilon: float) -> int:
    """Ceiling of max(-log(8*pi*((M/N)^2-1)*eps) / (2 log(M/N)), 0)."""
    epsilon = _check_epsilon(epsilon)
    params._check_n_below_m()
    ratio = params.M / params.N
    arg = 8.0 * math.pi * (ratio**2 - 1.0) * epsilon
    return math.ceil(max(-math.log(arg) / (2.0 * math.log(ratio)), 0.0))


def tail_bound_at(params: ProlateParams, order: int) -> float:
    """Certified max-row-sum bound on the tail dropped after ``order`` terms.

    Geometric bound N * sum_{r>order} 2/(pi*M) (N/M)^(2r-1)
    = (2/pi) (N/M)^(2*order) / ((M/N)^2 - 1).
    """
    if order < 0:
        raise ParameterError(f"order must be non-negative, got {order}")
    params._check_n_below_m()
    ratio = params.N / params.M
    return 2.0 / math.pi * ratio ** (2 * order) / (ratio**-2 - 1.0)


def certified_order(params: ProlateParams, epsilon: float) -> int:
    """Smallest truncation order whose certified tail bound is <= eps/16.

    Closed form: ceiling of max(-log(pi/32*((M/N)^2-1)*eps)/(2 log(M/N)), 0);
    note this is always at least the value of :func:`truncation_order`.
    """
    epsilon = _check_epsilon(epsilon)
    params._check_n_below_m()
    ratio = params.M / params.N
    arg = math.pi / 32.0 * (ratio**2 - 1.0) * epsilon
    order = math.ceil(max(-math.log(arg) / (2.0 * math.log(ratio)), 0.0))
    while tail_bound_at(params, order) > epsilon / TAIL_SHARE:  # float-boundary guard
        order += 1
    return order


@dataclass
class LowRankParts:
    """Truncated-series split of (periodic - sinc) prolate difference.

    The low-rank part is the Toeplitz matrix ``SymbolMatrix(symbol)`` of
    the first ``order`` series terms at offsets 0..N-1; it equals
    sin_factor @ coeff @ cos_factor.T - cos_factor @ coeff @ sin_factor.T
    exactly, so its rank is at most 4*order.  ``tail_bound`` certifies the
    maximum absolute row sum of what was dropped, and ``entry_bound`` is
    the per-entry version (tail_bound / N).
    """

    order: int
    coeff: np.ndarray = field(repr=False)
    sin_factor: np.ndarray = field(repr=False)
    cos_factor: np.ndarray = field(repr=False)
    symbol: np.ndarray = field(repr=False)
    tail_bound: float
    entry_bound: float
    epsilon: float

    def reconstruct(self) -> np.ndarray:
        """The factored form; equal to SymbolMatrix(symbol) to ~1e-13."""
        u, v, d = self.sin_factor, self.cos_factor, self.coeff
        return u @ d @ v.T - v @ d @ u.T


def _split_plan(params: ProlateParams, epsilon: float, order) -> tuple[int, float]:
    """The order (``order``, or the certified one) and its tail bound,
    validated, with eps, before any eta is evaluated."""
    _check_epsilon(epsilon)
    if order is None:
        order = certified_order(params, epsilon)
    order = _check_integer(order, "order")
    bound = tail_bound_at(params, order)  # refuses N >= M and a negative order
    if order > 100:  # eta_even stops at s = 200
        raise ParameterError(
            f"truncation order {order} at M/N = {params.M / params.N:.6g} exceeds"
            " 100, the most series terms eta_even supplies"
        )
    return order, bound


def lowrank_tail_split(
    params: ProlateParams, epsilon: float, order: int | None = None
) -> LowRankParts:
    """Split the kernel difference into a rank-certified part plus a tail.

    By default the truncation order is the smallest one whose certified
    tail bound is at most eps/16 (the per-entry bound is then
    eps/(16 N)); pass ``order`` to inspect other truncations.  The
    low-rank part is kept as its symbol, summed from the truncated series:
    mathematically the factored form, without the cancellation of
    high-power monomials, and no N x N matrix.  The factors themselves are
    still returned for the algebraic identity check.
    """
    order, bound = _split_plan(params, epsilon, order)
    m, n = params.M, params.N
    rows = np.arange(n, dtype=np.float64)
    oscillation = np.sin(2.0 * math.pi * params.W * rows)
    coeff = np.zeros((2 * order, 2 * order))
    symbol = np.zeros(n)
    for r in range(1, order + 1):
        scale = 2.0 / (m * math.pi) * eta_even(2 * r)
        for p in range(2 * r):
            coeff[2 * r - 1 - p, p] = scale * (-1) ** p * math.comb(2 * r - 1, p)
        symbol += scale * (rows / m) ** (2 * r - 1) * oscillation
    powers = (rows[:, None] / m) ** np.arange(2 * order)[None, :]
    sin_factor = powers * oscillation[:, None]
    cos_factor = powers * np.cos(2.0 * math.pi * params.W * rows)[:, None]
    return LowRankParts(
        order=order,
        coeff=coeff,
        sin_factor=sin_factor,
        cos_factor=cos_factor,
        symbol=symbol,
        tail_bound=bound,
        entry_bound=bound / n,
        epsilon=float(epsilon),
    )


@dataclass(frozen=True)
class SplitCertificate:
    """Verdict on one split, measured against the kernel difference itself.

    ``row_sum`` and ``entry`` are the maximum absolute row sum and entry of
    (periodic - sinc) minus the low-rank part; ``rank`` counts singular
    values of the low-rank part above RANK_CUT times the largest.
    """

    epsilon: float
    n: int
    order: int
    rank: int
    tail_bound: float
    row_sum: float
    entry: float

    @property
    def passed(self) -> bool:
        return (
            self.row_sum <= self.epsilon / TAIL_SHARE
            and self.entry <= self.epsilon / (TAIL_SHARE * self.n)
            and self.rank <= 4 * self.order
        )


def certify_lowrank_split(
    params: ProlateParams, epsilons, order: int | None = None
) -> list[SplitCertificate]:
    """Split (periodic - sinc) at each eps and certify the split numerically.

    Every eps and order is checked before any work.  Each eps then gets
    :func:`lowrank_tail_split` (at ``order`` if given) and the residual and
    rank measurements that :class:`SplitCertificate` judges.
    """
    epsilons = [_check_epsilon(epsilon) for epsilon in epsilons]
    orders = [_split_plan(params, epsilon, order)[0] for epsilon in epsilons]
    diff = periodic_prolate(params).symbol - sinc_prolate(params.N, params.W).symbol
    certificates = []
    for epsilon, split_order in zip(epsilons, orders):
        parts = lowrank_tail_split(params, epsilon, order=split_order)
        residual = np.abs(diff - parts.symbol)
        sigma = singular_values_via_gram(SymbolMatrix(parts.symbol).view())
        top = sigma[0] if sigma.size else 0.0
        certificates.append(
            SplitCertificate(
                epsilon=parts.epsilon,
                n=params.N,
                order=parts.order,
                rank=int((sigma > RANK_CUT * top).sum()) if top > 0.0 else 0,
                tail_bound=parts.tail_bound,
                row_sum=float(SymbolMatrix(residual).view().sum(axis=1).max()),
                entry=float(residual.max()),
            )
        )
    return certificates


def projector_gap_rank(n: int, w: float, epsilon: float) -> tuple[int, float]:
    """Effective rank of (sinc prolate) minus (partial Fourier projector).

    Returns the count of eigenvalues of the difference whose magnitude
    exceeds eps, together with the analytic cap
    (4/pi^2 log(8n) + 6) * log(15/eps); the count is expected to stay at
    or below the cap.
    """
    epsilon = _check_epsilon(epsilon)
    sinc = sinc_prolate(n, w).symbol
    # F F* over the 2k+1 lowest DFT frequencies, k = floor(nw), is the periodic
    # prolate block with M = N = n, or the identity once 2k+1 = n
    k = math.floor(n * float(w))
    projector = np.eye(1, n)[0]
    if 2 * k + 1 < n:
        projector = periodic_prolate(ProlateParams(n, n, k)).symbol
    values = eigh_householder_ql(SymbolMatrix(sinc - projector)).values
    count = int((np.abs(values) > epsilon).sum())
    cap = (4.0 / math.pi**2 * math.log(8.0 * n) + 6.0) * math.log(15.0 / epsilon)
    return count, cap
