"""Commuting-tridiagonal fit tests: degenerate families, the prolate
commutation certificate, and the eigenvector cross-path.
"""
import numpy as np
import pytest

import prolate as pr


def _prolate_dense(m, n, k):
    return pr.periodic_prolate(pr.ProlateParams(M=m, N=n, K=k)).dense()


def test_identity_is_degenerate():
    fit = pr.fit_commuting_tridiagonal(np.eye(8))
    assert fit.degenerate
    assert fit.commutator_norm <= 1e-12


def test_distinct_diagonal_is_degenerate_but_commutes():
    fit = pr.fit_commuting_tridiagonal(np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    assert fit.commutator_norm <= 1e-12
    assert fit.degenerate  # every traceless diagonal commutes


def test_fit_rejects_tiny_or_asymmetric_input():
    with pytest.raises(pr.ParameterError):
        pr.fit_commuting_tridiagonal(np.ones((1, 1)))
    with pytest.raises(pr.ParameterError):
        pr.fit_commuting_tridiagonal(np.array([[0.0, 1.0], [0.2, 0.0]]))


def test_prolate_fit_certificate():
    fit = pr.fit_commuting_tridiagonal(_prolate_dense(64, 16, 7))
    assert not fit.degenerate
    assert fit.commutator_norm <= 1e-8
    t = fit.dense()
    assert abs(np.sqrt((t * t).sum()) - 1.0) <= 1e-12
    # strictly tridiagonal by construction
    off = np.abs(t - np.diag(np.diag(t)) - np.diag(fit.offdiag, 1) - np.diag(fit.offdiag, -1))
    assert off.max() == 0.0
    # the two smallest fit values are well separated
    assert fit.smallest_fit_values[1] - fit.smallest_fit_values[0] > 1e-12


def test_prolate_fit_alignment():
    fit = pr.fit_commuting_tridiagonal(_prolate_dense(64, 16, 7))
    finite = fit.alignment[np.isfinite(fit.alignment)]
    assert finite.size > 0
    assert finite.min() >= 0.999


def test_prolate_fit_verdict_fields():
    dense = _prolate_dense(64, 16, 7)
    fit = pr.fit_commuting_tridiagonal(dense)
    assert fit.passed
    assert fit.compared == int(np.isfinite(fit.alignment).sum()) > 0
    assert fit.min_alignment == fit.alignment[np.isfinite(fit.alignment)].min()
    assert 0.999 <= fit.min_alignment <= 1.0 + 1e-12
    # the deviation is taken against a values-only direct solve, bit for bit
    direct = pr.eigh_householder_ql(dense)
    via_tri = pr.eigenvectors_via_tridiagonal(fit, dense)
    mask = np.isfinite(fit.alignment)
    assert fit.max_value_dev == np.abs(via_tri.values - direct.values)[mask].max()
    assert fit.max_value_dev <= 1e-8


def test_failed_fits_compare_nothing():
    degenerate = pr.fit_commuting_tridiagonal(np.eye(6))
    rng = np.random.default_rng(4)
    a = rng.standard_normal((8, 8))
    noncommuting = pr.fit_commuting_tridiagonal(a + a.T)
    assert not noncommuting.degenerate
    assert noncommuting.commutator_norm > 1e-8
    for fit in (degenerate, noncommuting):
        assert not fit.passed
        assert fit.alignment is None
        assert (fit.compared, fit.max_value_dev, fit.min_alignment) == (0, 0.0, 1.0)


@pytest.mark.parametrize("m,n,k", [(64, 16, 7), (96, 48, 11), (128, 32, 15)])
def test_fit_succeeds_on_admissible_parameters(m, n, k):
    fit = pr.fit_commuting_tridiagonal(_prolate_dense(m, n, k))
    assert fit.commutator_norm <= 1e-8
    assert not fit.degenerate


def test_tridiagonal_path_matches_direct_path():
    dense = _prolate_dense(64, 32, 15)
    fit = pr.fit_commuting_tridiagonal(dense)
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


def test_eigenvectors_require_nondegenerate_fit():
    fit = pr.fit_commuting_tridiagonal(np.eye(6))
    with pytest.raises(pr.DegenerateFitError):
        pr.eigenvectors_via_tridiagonal(fit, np.eye(6))


def test_eigenvectors_require_matching_size():
    dense = _prolate_dense(64, 16, 7)
    fit = pr.fit_commuting_tridiagonal(dense)
    with pytest.raises(pr.ParameterError):
        pr.eigenvectors_via_tridiagonal(fit, _prolate_dense(64, 18, 7))
