"""Eigensolver tests: trivial spectra, cross-solver oracle agreement,
structural invariants of the prolate spectra, and the Gram-based
singular-value path.
"""
import math

import numpy as np
import pytest

import prolate as pr
import prolate.eigensolve as es
from prolate.eigensolve import sqrt_clamped


def _random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("solver", [pr.eigh_householder_ql, pr.eigh_jacobi])
def test_trivial_spectra(solver):
    spec = solver(np.eye(5))
    assert np.abs(spec.values - 1.0).max() <= 1e-14

    spec = solver(np.diag([3.0, 1.0, 2.0]))
    assert np.abs(spec.values - [3.0, 2.0, 1.0]).max() <= 1e-14

    spec = solver(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(spec.values - [1.0, -1.0]).max() <= 1e-14


@pytest.mark.parametrize("solver", [pr.eigh_householder_ql, pr.eigh_jacobi])
def test_trivial_vectors(solver):
    spec = solver(np.diag([3.0, 1.0, 2.0]), want_vectors=True)
    expected = np.eye(3)[:, [0, 2, 1]]
    assert np.abs(spec.vectors - expected).max() <= 1e-14

    spec = solver(np.array([[0.0, 1.0], [1.0, 0.0]]), want_vectors=True)
    root = 1.0 / math.sqrt(2.0)
    assert np.abs(spec.vectors[:, 0] - [root, root]).max() <= 1e-14
    assert np.abs(spec.vectors[:, 1] - [root, -root]).max() <= 1e-14


def test_cross_solver_agreement_random():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = _random_symmetric(rng, 64)
        ql = pr.eigh_householder_ql(a)
        ja = pr.eigh_jacobi(a)
        scale = 1.0 + np.abs(ql.values).max()
        assert np.abs(ql.values - ja.values).max() <= 1e-10 * scale


def test_jacobi_trace_preservation():
    rng = np.random.default_rng(3)
    a = _random_symmetric(rng, 48)
    spec = pr.eigh_jacobi(a)
    assert spec.values.sum() == pytest.approx(np.trace(a), abs=1e-10 * 48)


@pytest.mark.parametrize("solver", [pr.eigh_householder_ql, pr.eigh_jacobi])
def test_vectors_orthonormal_and_residual(solver):
    rng = np.random.default_rng(11)
    a = _random_symmetric(rng, 40)
    spec = solver(a, want_vectors=True)
    gram = spec.vectors.T @ spec.vectors
    assert np.abs(gram - np.eye(40)).max() <= 1e-10
    assert spec.residual <= 1e-9 * (1.0 + np.abs(spec.values).max())
    recon = np.abs(a @ spec.vectors - spec.vectors * spec.values[None, :]).max()
    assert recon == spec.residual


def test_sign_convention_first_component_positive():
    rng = np.random.default_rng(5)
    a = _random_symmetric(rng, 12)
    for solver in (pr.eigh_householder_ql, pr.eigh_jacobi):
        spec = solver(a, want_vectors=True)
        for j in range(12):
            col = spec.vectors[:, j]
            lead = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
            assert col[lead] > 0.0


def test_exhausted_iteration_budget_raises(monkeypatch):
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    monkeypatch.setattr(es, "QL_BUDGET_PER_ROW", 0)
    with pytest.raises(pr.EigensolveError):
        es.eigh_householder_ql(flip)
    monkeypatch.setattr(es, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(pr.EigensolveError):
        es.eigh_jacobi(flip)
    # a diagonal matrix needs no sweeps at all: still fine with zero budget
    assert es.eigh_jacobi(np.diag([2.0, 1.0])).values[0] == 2.0


def test_singular_values_reject_non_matrix():
    with pytest.raises(pr.ParameterError):
        pr.singular_values_via_gram(np.ones(4))


def test_rejects_bad_input():
    with pytest.raises(pr.ParameterError):
        pr.eigh_householder_ql(np.arange(6.0).reshape(2, 3))
    with pytest.raises(pr.ParameterError):
        pr.eigh_householder_ql(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(pr.EigensolveError):
        pr.eigh_householder_ql(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_nearly_symmetric_is_averaged():
    a = np.array([[1.0, 0.5], [0.5 + 5e-13, 2.0]])
    spec = pr.eigh_householder_ql(a)
    sym = np.array([[1.0, 0.5 + 2.5e-13], [0.5 + 2.5e-13, 2.0]])
    expect = pr.eigh_jacobi(sym)
    assert np.abs(spec.values - expect.values).max() <= 1e-12


def test_symbol_matrix_input_accepted():
    p = pr.ProlateParams(M=32, N=12, K=5)
    from_symbol = pr.eigh_householder_ql(pr.periodic_prolate(p))
    from_dense = pr.eigh_householder_ql(pr.periodic_prolate(p).dense())
    assert np.array_equal(from_symbol.values, from_dense.values)


PARAM_GRID = [
    (16, 8, 3),
    (64, 16, 7),
    (64, 32, 31),
    (128, 96, 40),
    (256, 200, 100),
]


@pytest.mark.parametrize("m,n,k", PARAM_GRID)
def test_prolate_eigenvalue_range_and_trace(m, n, k):
    p = pr.ProlateParams(M=m, N=n, K=k)
    spec = pr.eigh_householder_ql(pr.periodic_prolate(p).dense())
    assert spec.values.min() >= -1e-12
    assert spec.values.max() <= 1.0 + 1e-12
    expected = n * (2 * k + 1) / m
    assert spec.values.sum() == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("m,n,k", [(64, 16, 7), (128, 48, 20)])
def test_leading_block_interlacing(m, n, k):
    p_full = pr.ProlateParams(M=m, N=n, K=k)
    p_small = pr.ProlateParams(M=m, N=n - 1, K=k)
    lam = pr.eigh_householder_ql(pr.periodic_prolate(p_full).dense()).values
    mu = pr.eigh_householder_ql(pr.periodic_prolate(p_small).dense()).values
    for i in range(n - 1):
        assert lam[i + 1] <= mu[i] + 1e-10
        assert mu[i] <= lam[i] + 1e-10


def test_sqrt_clamped_paths():
    values = np.array([1.0, 1e-30, -5e-13])
    out = sqrt_clamped(values, noise_floor=0.0)
    assert out[0] == 1.0 and out[2] == 0.0
    out = sqrt_clamped(values, noise_floor=1e-9)
    assert out[1] == 0.0  # snapped: far below the top of the spectrum
    with pytest.raises(pr.EigensolveError):
        sqrt_clamped(np.array([1.0, -1e-11]))


def test_hermitian_embedding_doubles_spectrum():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    g = g @ g.conj().T
    emb = pr.hermitian_embedding(g)
    values = pr.eigh_householder_ql(emb).values
    assert np.abs(values[0::2] - values[1::2]).max() <= 1e-10 * (1 + values[0])


def test_singular_values_unitary_and_single_column():
    sigma = pr.singular_values_via_gram(pr.dft_matrix(16))
    assert np.abs(sigma - 1.0).max() <= 1e-12
    col = pr.sampled_exponential(9, 0.2)[:, None] / 3.0
    sigma = pr.singular_values_via_gram(col)
    assert sigma.shape == (1,)
    assert sigma[0] == pytest.approx(1.0, abs=1e-13)


def test_singular_values_dual_solver_route():
    # same Gram embedding through both in-house solvers
    rng = np.random.default_rng(17)
    f = rng.standard_normal((10, 6)) + 1j * rng.standard_normal((10, 6))
    emb = pr.hermitian_embedding(f.conj().T @ f)
    ql = pr.eigh_householder_ql(emb).values
    ja = pr.eigh_jacobi(emb).values
    assert np.abs(ql - ja).max() <= 1e-10 * (1.0 + np.abs(ql).max())


def _dirichlet_block(m, p, length):
    # periodic prolate symbol at bandwidth ratio 1/(2p), which has no
    # integer half-bandwidth when m/p is even
    sym = np.empty(length)
    sym[0] = 1.0 / p
    k = np.arange(1, length)
    sym[1:] = np.sin(np.pi * k / p) / (m * np.sin(np.pi * k / m))
    i = np.arange(length)
    return sym[np.abs(i[:, None] - i[None, :])]


@pytest.mark.parametrize("m,p", [(64, 4), (1024, 4)])
def test_dft_submatrix_singular_values_match_prolate_block(m, p):
    length = m // p
    sigma = pr.singular_values_via_gram(pr.dft_submatrix(m, p))
    lam = pr.eigh_householder_ql(_dirichlet_block(m, p, length)).values
    expected = sqrt_clamped(lam)
    assert np.abs(sigma - expected).max() <= 1e-10


def test_dft_submatrix_singular_values_offset_invariant():
    m, p = 64, 4
    base = pr.singular_values_via_gram(pr.dft_submatrix(m, p, 0, 0))
    for ro, co in ((3, 7), (63, 16), (40, 40)):
        sigma = pr.singular_values_via_gram(pr.dft_submatrix(m, p, ro, co))
        assert np.abs(sigma - base).max() <= 1e-10


def test_cross_solver_agreement_assorted_sizes():
    rng = np.random.default_rng(23)
    for n in (2, 3, 5, 17, 33):
        a = _random_symmetric(rng, n, scale=rng.uniform(0.1, 10.0))
        ql = pr.eigh_householder_ql(a, want_vectors=True)
        ja = pr.eigh_jacobi(a, want_vectors=True)
        scale = 1.0 + np.abs(ql.values).max()
        assert np.abs(ql.values - ja.values).max() <= 1e-10 * scale
        assert np.abs(ql.vectors.T @ ql.vectors - np.eye(n)).max() <= 1e-10
        assert len(ql) == n


def test_ql_on_tridiagonal_input():
    # already-tridiagonal matrices skip the reduction but share the path
    n = 30
    t = np.diag(np.linspace(-2.0, 2.0, n)) + np.diag(0.3 * np.ones(n - 1), 1) + np.diag(
        0.3 * np.ones(n - 1), -1
    )
    spec = pr.eigh_householder_ql(t, want_vectors=True)
    assert spec.residual <= 1e-9 * (1.0 + np.abs(spec.values).max())
    assert np.abs(spec.values - pr.eigh_jacobi(t).values).max() <= 1e-12


def test_singular_values_of_one_by_one_block():
    sigma = pr.singular_values_via_gram(pr.dft_submatrix(8, 8))
    assert sigma.shape == (1,)
    assert sigma[0] == pytest.approx(1.0 / math.sqrt(8), abs=1e-14)


# Element-by-element references for the two rotation kernels, kept to pin
# the slice-vectorised kernels to bitwise-identical output.  The Jacobi
# reference carries the same large-theta guard as the kernel.


def _ql_implicit_scalar(d, e, z, want_z, budget):
    n = d.shape[0]
    for l in range(n):
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) + dd == dd:
                    break
                m += 1
            if m == l:
                break
            budget -= 1
            if budget < 0:
                return -1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            if g >= 0.0:
                g = d[m] - d[l] + e[l] / (g + r)
            else:
                g = d[m] - d[l] + e[l] / (g - r)
            s = 1.0
            c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if want_z:
                    for row in range(n):
                        f2 = z[row, i + 1]
                        z[row, i + 1] = s * z[row, i] + c * f2
                        z[row, i] = c * z[row, i] - s * f2
            if not underflow:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return budget


def _jacobi_cyclic_scalar(a, v, want_v, max_sweeps):
    n = a.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += a[i, j] * a[i, j]
    thresh = es.JACOBI_OFF_TOL * math.sqrt(total)
    for sweep in range(max_sweeps + 1):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off += 2.0 * a[i, j] * a[i, j]
        if math.sqrt(off) <= thresh:
            return sweep
        if sweep == max_sweeps:
            return -1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > es.JACOBI_LARGE_THETA:
                    t = 0.5 / theta
                elif theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(1.0 + theta * theta))
                else:
                    t = -1.0 / (-theta + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for i in range(n):
                    if i != p and i != q:
                        aip = a[i, p]
                        aiq = a[i, q]
                        a[i, p] = aip * c - aiq * s
                        a[p, i] = a[i, p]
                        a[i, q] = aiq * c + aip * s
                        a[q, i] = a[i, q]
                a[p, p] -= t * apq
                a[q, q] += t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                if want_v:
                    for i in range(n):
                        vip = v[i, p]
                        viq = v[i, q]
                        v[i, p] = vip * c - viq * s
                        v[i, q] = viq * c + vip * s
    return -1


def _reference_ql(a):
    sym = es._as_dense_symmetric(a)
    n = sym.shape[0]
    d, e, q = es._householder_tridiag(sym.copy(), True)
    budget = es.QL_BUDGET_PER_ROW * n
    left = _ql_implicit_scalar(d, e, q, True, budget)
    assert left >= 0
    return es._finish(sym, d, q, "householder_ql", budget - left)


def _reference_jacobi(a):
    sym = es._as_dense_symmetric(a)
    work = sym.copy()
    v = np.eye(sym.shape[0])
    sweeps = _jacobi_cyclic_scalar(work, v, True, es.JACOBI_MAX_SWEEPS)
    assert sweeps >= 0
    return es._finish(sym, np.ascontiguousarray(np.diag(work)), v, "jacobi", sweeps)


def _reference_inputs():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 12, 64):
        yield f"random-{n}", _random_symmetric(rng, n)
    yield "prolate-256-64-31", pr.periodic_prolate(
        pr.ProlateParams(M=256, N=64, K=31)
    ).dense()


@pytest.mark.parametrize(
    "solver,reference",
    [(pr.eigh_householder_ql, _reference_ql), (pr.eigh_jacobi, _reference_jacobi)],
    ids=["householder_ql", "jacobi"],
)
def test_vectorised_kernels_match_scalar_reference_bitwise(solver, reference):
    for label, a in _reference_inputs():
        got = solver(a, want_vectors=True)
        want = reference(a)
        assert np.array_equal(got.values, want.values), label
        assert np.array_equal(got.vectors, want.vectors), label
        assert got.residual == want.residual, label
        assert got.iterations == want.iterations, label


def test_iteration_counts_recorded_within_budget():
    rng = np.random.default_rng(13)
    a = _random_symmetric(rng, 24)
    ql = pr.eigh_householder_ql(a)
    assert 0 < ql.iterations <= es.QL_BUDGET_PER_ROW * 24
    ja = pr.eigh_jacobi(a, want_vectors=True)
    assert 0 < ja.iterations <= es.JACOBI_MAX_SWEEPS
    assert pr.eigh_jacobi(np.diag([2.0, 1.0])).iterations == 0


def test_jacobi_large_theta_rotation_is_finite():
    # the (0, 1) rotation has theta = 1/(2e-160), whose square overflows;
    # the (1, 2) entry keeps the sweep from stopping before it
    a = np.array([[0.0, 1e-160, 0.0], [1e-160, 1.0, 0.5], [0.0, 0.5, 2.0]])
    spec = pr.eigh_jacobi(a, want_vectors=True)
    assert spec.iterations > 0
    expect = pr.eigh_householder_ql(a).values
    assert np.abs(spec.values - expect).max() <= 1e-15
    assert np.abs(spec.vectors.T @ spec.vectors - np.eye(3)).max() <= 1e-15
