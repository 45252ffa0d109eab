"""The symmetric tridiagonal matrix that commutes with the prolate block.

The periodic prolate block B commutes exactly with a symmetric tridiagonal
matrix T whose entries are known in closed form (Grunbaum, Lin. Alg. Appl.
40, 1981; Xu & Chamzas, SIAM J. Appl. Math. 44, 1984).  T's off-diagonal
is positive, so T is unreduced and its eigenvalues are distinct: its
eigenvectors are those of B and give a second route to them, checked here
against the direct eigendecomposition of B.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigensolve import (
    EigensolveError,
    Spectrum,
    _as_dense_symmetric,
    _finish,
    eigh_householder_ql,
)
from .kernels import ParameterError, ProlateParams

COMMUTATOR_TOL = 1e-8
VALUE_DEV_TOL = 1e-8
EIGENVALUE_GAP = 1e-6


@dataclass
class TridiagonalFit:
    """Symmetric tridiagonal commutant of a symmetric matrix.

    ``diag`` and ``offdiag`` are T's diagonals, ``dense()`` is T itself,
    and ``commutator_norm`` is ||BT - TB||_F for the unit-Frobenius-norm T.
    ``degenerate`` flags an off-diagonal entry <= 0, where T may split and
    its eigenvalues need not be distinct; a fit of a prolate block never
    is, so only a fit built by hand can be.

    A non-degenerate fit within COMMUTATOR_TOL is checked against the
    direct eigendecomposition of B: ``alignment[j]`` is |<v_B, v_T>| for
    eigenvector pairs whose direct eigenvalue is separated from its
    neighbours by more than EIGENVALUE_GAP (NaN for closer pairs), over
    which ``compared``, ``max_value_dev`` (Rayleigh quotient against
    direct eigenvalue) and ``min_alignment`` are taken, and ``tridiagonal``
    keeps the compared spectrum.  Otherwise both are None and nothing is
    compared.  ``compared`` may be 0 even then (at N = M, B is a
    projector and no eigenvalue is that well separated); ``passed`` then
    rests on the commutator alone.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    commutator_norm: float
    alignment: np.ndarray | None = field(repr=False, default=None)
    tridiagonal: Spectrum | None = field(repr=False, default=None)
    compared: int = 0
    max_value_dev: float = 0.0
    min_alignment: float = 1.0

    @property
    def degenerate(self) -> bool:
        return bool((self.offdiag <= 0.0).any())

    @property
    def passed(self) -> bool:
        """Unique, commuting, and matching the direct eigenvalues."""
        return (
            not self.degenerate
            and self.commutator_norm <= COMMUTATOR_TOL
            and self.max_value_dev <= VALUE_DEV_TOL
        )

    def dense(self) -> np.ndarray:
        t = np.diag(self.diag)
        idx = np.arange(self.diag.size - 1)
        t[idx, idx + 1] = self.offdiag
        t[idx + 1, idx] = self.offdiag
        return t


def _compare_with_direct(fit: TridiagonalFit, b: np.ndarray) -> None:
    """Fill the fit's comparison fields from one direct eigendecomposition."""
    direct = eigh_householder_ql(b, want_vectors=True)
    via_tri = fit.tridiagonal = eigenvectors_via_tridiagonal(fit, b)
    lam = direct.values
    n = lam.size
    gaps = np.full(n, np.inf)
    if n > 1:
        step = np.abs(np.diff(lam))
        gaps[:-1] = np.minimum(gaps[:-1], step)
        gaps[1:] = np.minimum(gaps[1:], step)
    separated = gaps > EIGENVALUE_GAP
    inner = np.abs(np.einsum("ij,ij->j", direct.vectors, via_tri.vectors))
    fit.alignment = np.full(n, np.nan)
    fit.alignment[separated] = inner[separated]
    fit.compared = int(separated.sum())
    if fit.compared:
        fit.max_value_dev = float(np.abs(via_tri.values - lam)[separated].max())
        fit.min_alignment = float(fit.alignment[separated].min())


def fit_commuting_tridiagonal(b, params: ProlateParams) -> TridiagonalFit:
    """Closed-form symmetric tridiagonal commuting with the prolate block B.

    For n = 0..N-1 (Grunbaum 1981; Xu & Chamzas 1984)

        diag_n = -cos(pi(2K+1)/M) cos(pi(2n-N+1)/M)
        off_n  =  sin(pi(n+1)/M) sin(pi(N-1-n)/M),

    scaled to unit Frobenius norm.  ``b`` is the N x N periodic prolate
    block of ``params``; ||BT - TB||_F is measured on it in O(N^2).  A fit
    within COMMUTATOR_TOL is then compared with the direct
    eigendecomposition of B (see :class:`TridiagonalFit`).
    """
    b, exponent = _as_dense_symmetric(b)
    if exponent:  # back to its own scale: COMMUTATOR_TOL is absolute
        b = np.ldexp(b, exponent)
    n = params.N
    if n < 2:
        raise ParameterError("commuting fit needs a matrix of size >= 2")
    if b.shape != (n, n):
        raise ParameterError(f"matrix shape {b.shape} does not match N={n}")
    m = params.M
    idx = np.arange(n, dtype=np.float64)
    diag = -math.cos(math.pi * (2 * params.K + 1) / m) * np.cos(
        np.pi * (2.0 * idx - n + 1) / m
    )
    offdiag = np.sin(np.pi * (idx[:-1] + 1) / m) * np.sin(np.pi * (n - 1 - idx[:-1]) / m)
    norm = math.sqrt(float(diag @ diag) + 2.0 * float(offdiag @ offdiag))
    diag /= norm
    offdiag /= norm
    # BT column by column from the three diagonals; TB = (BT)^T
    bt = b * diag
    bt[:, 1:] += b[:, :-1] * offdiag
    bt[:, :-1] += b[:, 1:] * offdiag
    commutator = bt - bt.T
    fit = TridiagonalFit(
        diag=diag,
        offdiag=offdiag,
        commutator_norm=math.sqrt(float((commutator * commutator).sum())),
    )
    if fit.commutator_norm <= COMMUTATOR_TOL:
        _compare_with_direct(fit, b)
    return fit


def eigenvectors_via_tridiagonal(fit: TridiagonalFit, b) -> Spectrum:
    """Spectrum of B through the eigenvectors of its commuting tridiagonal.

    T's eigenvalues are distinct, so each eigenvector is determined, with
    an error of about u * ||T||_2 / min-gap(T) (u the machine epsilon).
    That gap shrinks with N: the residual max |BV - V diag(values)| was
    6.3e-15, 4.3e-14 and 2.1e-13 at N = 64, 256 and 512, against about
    1e-15 for the direct route.  The vectors are reordered by Rayleigh
    quotient v^T B v descending, and those quotients become the values.
    """
    if fit.degenerate:
        raise EigensolveError(
            "tridiagonal has an off-diagonal <= 0; eigenvectors are not determined"
        )
    if fit.commutator_norm > COMMUTATOR_TOL:
        raise EigensolveError(
            f"commutator norm {fit.commutator_norm:.3e} exceeds {COMMUTATOR_TOL}"
        )
    b, exponent = _as_dense_symmetric(b)
    if b.shape[0] != fit.diag.size:
        raise ParameterError(
            f"matrix size {b.shape[0]} does not match the fit size {fit.diag.size}"
        )
    tri = eigh_householder_ql(fit.dense(), want_vectors=True)
    rayleigh = np.einsum("ij,ij->j", tri.vectors, b @ tri.vectors)
    return _finish(b, rayleigh, tri.vectors, tri.iterations, exponent)
