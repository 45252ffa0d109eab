"""Least-squares recovery of a tridiagonal matrix commuting with a given one.

The periodic prolate block commutes exactly with a symmetric tridiagonal
matrix, which is what makes its eigenvectors computable stably; the
tridiagonal entries are recovered here numerically instead of transcribed
from a formula.  The fit minimizes ||BT - TB||_F over symmetric
tridiagonal T with unit Frobenius norm and zero trace (excluding the
trivial commuting family T = c*I), via the smallest eigenvector of the
normal-equations Gram of the vectorized commutation operator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigensolve import (
    EigensolveError,
    Spectrum,
    _as_dense_symmetric,
    eigh_householder_ql,
    sqrt_clamped,
)
from .kernels import ParameterError

COMMUTATOR_TOL = 1e-8
VALUE_DEV_TOL = 1e-8
DEGENERACY_GAP = 1e-12
EIGENVALUE_GAP = 1e-6


class DegenerateFitError(EigensolveError):
    """The commuting-tridiagonal family is not unique; no single fit exists."""


def _tridiagonal(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    t = np.diag(diag)
    idx = np.arange(diag.size - 1)
    t[idx, idx + 1] = offdiag
    t[idx + 1, idx] = offdiag
    return t


@dataclass
class TridiagonalFit:
    """Recovered symmetric tridiagonal commutant of a symmetric matrix.

    ``commutator_norm`` is ||BT - TB||_F for the unit-Frobenius-norm fit;
    ``degenerate`` flags (near-)equal smallest singular values of the
    commutation operator, i.e. multiple commuting tridiagonals.

    A non-degenerate fit within COMMUTATOR_TOL is checked against the
    direct eigendecomposition of B: ``alignment[j]`` is |<v_B, v_T>| for
    eigenvector pairs whose direct eigenvalue is separated from its
    neighbours by more than EIGENVALUE_GAP (NaN for closer pairs), over
    which ``compared``, ``max_value_dev`` (Rayleigh quotient against
    direct eigenvalue) and ``min_alignment`` are taken.  Otherwise
    ``alignment`` is None and nothing is compared.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    commutator_norm: float
    degenerate: bool
    smallest_fit_values: np.ndarray = field(repr=False)
    alignment: np.ndarray | None = field(repr=False, default=None)
    compared: int = 0
    max_value_dev: float = 0.0
    min_alignment: float = 1.0

    @property
    def n(self) -> int:
        return self.diag.size

    @property
    def passed(self) -> bool:
        """Unique, commuting, and matching the direct eigenvalues."""
        return (
            not self.degenerate
            and self.commutator_norm <= COMMUTATOR_TOL
            and self.max_value_dev <= VALUE_DEV_TOL
        )

    def dense(self) -> np.ndarray:
        return _tridiagonal(self.diag, self.offdiag)


def _commutation_columns(b: np.ndarray) -> np.ndarray:
    """Vectorized map T -> BT - TB over an orthonormal tridiagonal basis.

    Basis: the N diagonal units E_kk, then the N-1 scaled off-diagonal
    pairs (E_{k,k+1} + E_{k+1,k}) / sqrt(2), so parameter 2-norm equals
    the Frobenius norm of T.
    """
    n = b.shape[0]
    op = np.zeros((n * n, 2 * n - 1))
    eye = np.eye(n)
    for k in range(n):
        comm = np.outer(b[:, k], eye[k]) - np.outer(eye[k], b[k, :])
        op[:, k] = comm.ravel()
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for k in range(n - 1):
        comm = (
            np.outer(b[:, k], eye[k + 1])
            + np.outer(b[:, k + 1], eye[k])
            - np.outer(eye[k], b[k + 1, :])
            - np.outer(eye[k + 1], b[k, :])
        ) * inv_sqrt2
        op[:, n + k] = comm.ravel()
    return op


def _traceless_basis(n_params: int, n_diag: int) -> np.ndarray:
    """Orthonormal basis of the zero-trace slice of parameter space.

    trace(T) = sum of the diagonal parameters; the basis spans the
    orthogonal complement of that direction via a Householder reflection.
    """
    c = np.zeros(n_params)
    c[:n_diag] = 1.0 / math.sqrt(n_diag)
    w = c.copy()
    w[0] -= 1.0  # reflect e_0 onto c
    h = np.eye(n_params) - 2.0 * np.outer(w, w) / float(w @ w)
    return h[:, 1:]


def _compare_with_direct(fit: TridiagonalFit, b: np.ndarray) -> None:
    """Fill the fit's comparison fields from one direct eigendecomposition."""
    direct = eigh_householder_ql(b, want_vectors=True)
    via_tri = eigenvectors_via_tridiagonal(fit, b)
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


def fit_commuting_tridiagonal(b) -> TridiagonalFit:
    """Best-commuting symmetric tridiagonal for a symmetric matrix.

    Returns the unit-Frobenius, zero-trace tridiagonal minimizing
    ||BT - TB||_F, found as the smallest eigenvector of the (2N-2) x
    (2N-2) normal-equations Gram.  When the two smallest singular values
    of the commutation operator coincide to 1e-12 the fit is flagged
    degenerate: several tridiagonals commute equally well.  A
    non-degenerate fit within COMMUTATOR_TOL is then compared with the
    direct eigendecomposition of B (see :class:`TridiagonalFit`).
    """
    b = _as_dense_symmetric(b)
    n = b.shape[0]
    if n < 2:
        raise ParameterError("commuting fit needs a matrix of size >= 2")
    op = _commutation_columns(b)
    basis = _traceless_basis(2 * n - 1, n)
    reduced = op @ basis
    gram = reduced.T @ reduced
    spec = eigh_householder_ql(gram, want_vectors=True)
    # descending order: the fit direction is the last eigenvector
    fit_values = sqrt_clamped(spec.values[::-1][:3].copy(), noise_floor=0.0)
    x = basis @ spec.vectors[:, -1]
    diag = x[:n].copy()
    offdiag = x[n:] / math.sqrt(2.0)
    t = _tridiagonal(diag, offdiag)
    norm = math.sqrt(float((t * t).sum()))
    if norm > 0.0:
        t /= norm
        diag = diag / norm
        offdiag = offdiag / norm
    commutator = b @ t - t @ b
    commutator_norm = math.sqrt(float((commutator * commutator).sum()))
    fit = TridiagonalFit(
        diag=diag,
        offdiag=offdiag,
        commutator_norm=commutator_norm,
        degenerate=bool(fit_values[1] - fit_values[0] <= DEGENERACY_GAP),
        smallest_fit_values=fit_values,
    )
    if not fit.degenerate and commutator_norm <= COMMUTATOR_TOL:
        _compare_with_direct(fit, b)
    return fit


def eigenvectors_via_tridiagonal(fit: TridiagonalFit, b) -> Spectrum:
    """Spectrum of B through the eigenvectors of its commuting tridiagonal.

    The tridiagonal's spectrum is well separated, so its eigenvectors are
    computed stably; they are reordered by Rayleigh quotient v^T B v
    descending, and those quotients become the reported values.
    """
    if fit.degenerate:
        raise DegenerateFitError(
            "commuting family is degenerate; eigenvectors are not determined"
        )
    if fit.commutator_norm > COMMUTATOR_TOL:
        raise EigensolveError(
            f"commutator norm {fit.commutator_norm:.3e} exceeds {COMMUTATOR_TOL}"
        )
    b = _as_dense_symmetric(b)
    if b.shape[0] != fit.n:
        raise ParameterError(
            f"matrix size {b.shape[0]} does not match the fit size {fit.n}"
        )
    tri = eigh_householder_ql(fit.dense(), want_vectors=True)
    rayleigh = np.einsum("ij,ij->j", tri.vectors, b @ tri.vectors)
    order = np.argsort(-rayleigh, kind="stable")
    values = rayleigh[order]
    vectors = np.ascontiguousarray(tri.vectors[:, order])
    residual = float(np.abs(b @ vectors - vectors * values[None, :]).max(initial=0.0))
    return Spectrum(
        values=values,
        vectors=vectors,
        method="householder_ql",
        residual=residual,
        iterations=tri.iterations,
    )
