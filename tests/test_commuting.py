"""Commuting-tridiagonal tests: the closed form against an independent
least-squares oracle, the prolate commutation certificate, and the
eigenvector cross-path.
"""
import math

import numpy as np
import pytest

import prolate as pr


def _prolate(m, n, k):
    params = pr.ProlateParams(M=m, N=n, K=k)
    return params, pr.periodic_prolate(params).dense()


def _fit(m, n, k):
    params, dense = _prolate(m, n, k)
    return pr.fit_commuting_tridiagonal(dense, params), dense


def _commutation_operator(b):
    """Vectorised T -> BT - TB over an orthonormal symmetric-tridiagonal basis.

    Basis: the N diagonal units E_kk, then the N-1 pairs
    (E_{k,k+1} + E_{k+1,k}) / sqrt(2), so coordinate 2-norm is Frobenius norm.
    """
    n = b.shape[0]
    columns = []
    for k in range(n):
        e = np.zeros((n, n))
        e[k, k] = 1.0
        columns.append((b @ e - e @ b).ravel())
    for k in range(n - 1):
        e = np.zeros((n, n))
        e[k, k + 1] = e[k + 1, k] = 1.0 / math.sqrt(2.0)
        columns.append((b @ e - e @ b).ravel())
    return np.column_stack(columns)


@pytest.mark.parametrize("m,n,k", [(64, 16, 7), (96, 24, 11), (128, 32, 15), (256, 64, 31)])
def test_closed_form_spans_the_least_squares_null_space(m, n, k):
    fit, dense = _fit(m, n, k)
    _, sigma, vt = np.linalg.svd(_commutation_operator(dense), full_matrices=False)
    # the commuting tridiagonals are exactly span{I, T}
    assert (sigma < 1e-12).sum() == 2
    assert sigma[-3] > 1e-4
    null = vt[-2:]
    x = np.concatenate([fit.diag, math.sqrt(2.0) * fit.offdiag])
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
    assert np.linalg.norm(x - null.T @ (null @ x)) <= 1e-12


def test_commutator_norm_matches_dense_products():
    fit, dense = _fit(128, 32, 15)
    t = fit.dense()
    assert fit.commutator_norm <= 1e-15
    assert np.linalg.norm(dense @ t - t @ dense) <= 1e-15
    # away from the prolate block the O(N^2) form is the dense commutator
    a = np.random.default_rng(3).standard_normal((32, 32))
    noisy = dense + 1e-3 * (a + a.T)
    fit = pr.fit_commuting_tridiagonal(noisy, pr.ProlateParams(M=128, N=32, K=15))
    dense_norm = np.linalg.norm(noisy @ t - t @ noisy)
    assert dense_norm > 1e-4
    assert abs(fit.commutator_norm - dense_norm) <= 1e-12 * dense_norm


def test_fit_rejects_tiny_or_asymmetric_input():
    with pytest.raises(pr.ParameterError):
        pr.fit_commuting_tridiagonal(np.ones((1, 1)), pr.ProlateParams(M=4, N=1, K=0))
    with pytest.raises(pr.ParameterError):
        pr.fit_commuting_tridiagonal(
            np.array([[0.0, 1.0], [0.2, 0.0]]), pr.ProlateParams(M=4, N=2, K=0)
        )
    params, dense = _prolate(64, 16, 7)
    with pytest.raises(pr.ParameterError):
        pr.fit_commuting_tridiagonal(dense[:8, :8], params)
    # a complex block is refused, not cast to its real part
    with pytest.raises(pr.ParameterError, match="expected a real"):
        pr.fit_commuting_tridiagonal(dense + 0j, params)
    fit = pr.fit_commuting_tridiagonal(dense, params)
    with pytest.raises(pr.ParameterError, match="expected a real"):
        pr.eigenvectors_via_tridiagonal(fit, dense + 0j)


def test_prolate_fit_certificate():
    fit, _ = _fit(64, 16, 7)
    assert not fit.degenerate
    assert fit.commutator_norm <= 1e-15
    t = fit.dense()
    assert abs(np.sqrt((t * t).sum()) - 1.0) <= 1e-12
    # strictly tridiagonal by construction, and unreduced
    off = np.abs(t - np.diag(np.diag(t)) - np.diag(fit.offdiag, 1) - np.diag(fit.offdiag, -1))
    assert off.max() == 0.0
    assert fit.offdiag.min() > 0.0


def test_prolate_fit_alignment():
    fit, _ = _fit(64, 16, 7)
    finite = fit.alignment[np.isfinite(fit.alignment)]
    assert finite.size > 0
    assert finite.min() >= 0.999


def test_prolate_fit_verdict_fields():
    fit, dense = _fit(64, 16, 7)
    assert fit.passed
    assert fit.compared == int(np.isfinite(fit.alignment).sum()) > 0
    assert fit.min_alignment == fit.alignment[np.isfinite(fit.alignment)].min()
    assert 0.999 <= fit.min_alignment <= 1.0 + 1e-12
    # the deviation is taken against a values-only direct solve, bit for bit
    direct = pr.eigh_householder_ql(dense)
    mask = np.isfinite(fit.alignment)
    assert fit.max_value_dev == np.abs(fit.tridiagonal.values - direct.values)[mask].max()
    assert fit.max_value_dev <= 1e-8


def test_failed_fits_compare_nothing():
    a = np.random.default_rng(4).standard_normal((8, 8))
    fit = pr.fit_commuting_tridiagonal(a + a.T, pr.ProlateParams(M=32, N=8, K=3))
    assert not fit.degenerate
    assert fit.commutator_norm > 1e-8
    assert not fit.passed
    assert fit.alignment is None and fit.tridiagonal is None
    assert (fit.compared, fit.max_value_dev, fit.min_alignment) == (0, 0.0, 1.0)


@pytest.mark.parametrize(
    "m,n,k",
    [(64, 16, 7), (96, 48, 11), (128, 32, 15), (2, 2, 0), (9, 9, 3), (2**53, 3, 1)],
)
def test_fit_succeeds_on_admissible_parameters(m, n, k):
    # off_n = sin(pi(n+1)/M) sin(pi(N-1-n)/M) has both angles in (0, pi)
    # whenever N <= M, so no fit of a prolate block is degenerate: at
    # N = M and at M = 2^53 the smallest entry is 0.038 and 1.4e-31
    fit, _ = _fit(m, n, k)
    assert fit.commutator_norm <= 1e-15
    assert fit.offdiag.min() > 0.0
    assert not fit.degenerate


def test_tridiagonal_path_matches_direct_path():
    fit, dense = _fit(64, 32, 15)
    via_tri = pr.eigenvectors_via_tridiagonal(fit, dense)
    direct = pr.eigh_householder_ql(dense, want_vectors=True)
    lam = direct.values
    gaps = np.full(lam.size, np.inf)
    step = np.abs(np.diff(lam))
    gaps[:-1] = np.minimum(gaps[:-1], step)
    gaps[1:] = np.minimum(gaps[1:], step)
    separated = gaps > 1e-6
    assert separated.sum() > 0
    assert np.abs(via_tri.values - lam)[separated].max() <= 1e-8
    inner = np.abs(np.einsum("ij,ij->j", direct.vectors, via_tri.vectors))
    assert inner[separated].min() >= 0.999
    gram = via_tri.vectors.T @ via_tri.vectors
    assert np.abs(gram - np.eye(lam.size)).max() <= 1e-10


@pytest.mark.parametrize("m,n,k", [(256, 64, 31), (1024, 256, 128), (2048, 512, 255)])
def test_tridiagonal_residual_within_gap_bound(m, n, k):
    # T's eigenvectors carry an error of about u * ||T||_2 / min-gap(T).
    # The spectrum is the one the fit compared: at N=512 a second solve
    # would cost seconds.
    fit, _ = _fit(m, n, k)
    theta = np.linalg.eigvalsh(fit.dense())
    bound = np.finfo(float).eps * np.abs(theta).max() / np.diff(theta).min()
    assert fit.tridiagonal.residual <= bound


def test_eigenvectors_require_nondegenerate_fit():
    # a zero off-diagonal splits T into two blocks
    fit = pr.TridiagonalFit(
        diag=np.arange(6.0), offdiag=np.array([1.0, 1.0, 0.0, 1.0, 1.0]), commutator_norm=0.0
    )
    assert fit.degenerate
    assert not fit.passed
    with pytest.raises(pr.EigensolveError, match="off-diagonal <= 0"):
        pr.eigenvectors_via_tridiagonal(fit, np.eye(6))


def test_eigenvectors_require_a_commuting_fit():
    # T's eigenvectors are B's only when the two commute
    fit = pr.TridiagonalFit(diag=np.arange(6.0), offdiag=np.ones(5), commutator_norm=1.0)
    assert not fit.degenerate
    assert not fit.passed
    with pytest.raises(pr.EigensolveError, match="commutator norm 1.000e\\+00 exceeds"):
        pr.eigenvectors_via_tridiagonal(fit, np.eye(6))


def test_eigenvectors_require_matching_size():
    fit, _ = _fit(64, 16, 7)
    with pytest.raises(pr.ParameterError):
        pr.eigenvectors_via_tridiagonal(fit, _prolate(64, 18, 7)[1])


def test_out_of_range_block_keeps_its_scale():
    # the solvers rescale a block outside their magnitude range; the fit
    # still measures the commutator at the block's own scale, and the
    # Rayleigh quotients come back exactly 2^k times those of the block
    params, dense = _prolate(64, 16, 7)
    fit = pr.fit_commuting_tridiagonal(dense, params)
    want = pr.eigenvectors_via_tridiagonal(fit, dense)
    for k in (-450, 450):
        scaled = np.ldexp(dense, k)
        norm = pr.fit_commuting_tridiagonal(scaled, params).commutator_norm
        assert norm == pytest.approx(math.ldexp(fit.commutator_norm, k), rel=1e-12)
        got = pr.eigenvectors_via_tridiagonal(fit, scaled)
        assert np.array_equal(got.values, np.ldexp(want.values, k))
        assert np.array_equal(got.vectors, want.vectors)
