"""Eigensolver tests: trivial spectra, cross-solver oracle agreement,
structural invariants of the prolate spectra, the Gram-based
singular-value path, and the parity split of centrosymmetric matrices.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prolate as pr
import prolate.eigensolve as es
from prolate.eigensolve import GRAM_NOISE_FLOOR, sqrt_clamped


def _random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


def _hermitian_embedding(g):
    # real symmetric 2n x 2n [[Re, -Im], [Im, Re]] of a Hermitian g: each
    # eigenvalue of g appears twice
    return np.block([[g.real, -g.imag], [g.imag, g.real]])


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


def _fix_vector_signs_loop(vectors):
    mags = np.abs(vectors)
    tops = mags.max(axis=0)
    for j in range(vectors.shape[1]):
        if tops[j] == 0.0:
            continue
        lead = np.flatnonzero(mags[:, j] > 1e-12 * tops[j])
        if lead.size and vectors[lead[0], j] < 0.0:
            vectors[:, j] = -vectors[:, j]


def test_vector_signs_match_column_loop_bitwise():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((9, 12))
    a[:, 3] = 0.0  # zero column: left alone
    a[:, 4] = -0.0
    a[:2, 5] = [-1e-13, 1e-13]  # negligible leading entries are skipped
    a[2, 5] = -1.0
    a[0, 6] = -1e-11  # a small leading entry still counts
    a[:, 7] = -a[:, 7] * 1e-300  # scale-free
    a[:4, 8] = 0.0
    for got in (a.copy(), np.asfortranarray(a)):
        want = a.copy()
        _fix_vector_signs_loop(want)
        es._fix_vector_signs(got)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_exhausted_iteration_budget_raises(monkeypatch):
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    monkeypatch.setattr(es, "QL_BUDGET_PER_ROW", 0)
    # flip is centrosymmetric: its 1x1 parity blocks need no QL step, so
    # the QL budget is exercised on a 2x2 that is not, and on a 4x4 whose
    # 2x2 parity blocks [[0, 1], [1, 0]] each need a step
    ql_message = "implicit QL did not converge within 0 sweeps"
    with pytest.raises(pr.EigensolveError, match=ql_message):
        es.eigh_householder_ql(np.array([[0.0, 1.0], [1.0, 0.5]]))
    pair = np.kron(np.eye(2), flip)
    assert es._parity_blocks(pair) is not None
    with pytest.raises(pr.EigensolveError, match=ql_message):
        es.eigh_householder_ql(pair)
    monkeypatch.setattr(es, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(pr.EigensolveError, match="Jacobi iteration did not converge within 0"):
        es.eigh_jacobi(flip)
    # a diagonal matrix needs no sweeps at all: still fine with zero budget
    assert es.eigh_jacobi(np.diag([2.0, 1.0])).values[0] == 2.0


def test_singular_values_reject_non_matrix():
    for f in (np.ones(4), np.ones((3, 0)), np.ones((3, 0), dtype=complex)):
        with pytest.raises(pr.ParameterError):
            pr.singular_values_via_gram(f)


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


def test_banded_symmetrization_matches_average_bitwise():
    # the average is formed a band of rows at a time; sizes straddle the band
    rng = np.random.default_rng(19)
    rows = es.HOUSEHOLDER_CHUNK_ROWS
    for n in (1, 5, rows, rows + 1, 2 * rows + 44):
        a = _random_symmetric(rng, n)
        a += 1e-14 * rng.standard_normal((n, n))
        before = a.copy()
        sym, exponent = es._as_dense_symmetric(a)
        assert np.array_equal(sym, 0.5 * (a + a.T)) and exponent == 0
        assert np.array_equal(a, before)
    # an asymmetric pair in the last band is found and reported exactly
    a = _random_symmetric(rng, 2 * rows + 44)
    a[-1, -3] += 1e-3
    with pytest.raises(pr.ParameterError, match="1.000e-03"):
        es._as_dense_symmetric(a)
    a[-1, -3] = np.inf
    with pytest.raises(pr.EigensolveError):
        es._as_dense_symmetric(a)


@pytest.mark.parametrize("solver", [pr.eigh_householder_ql, pr.eigh_jacobi])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_symbol_matrix_non_finite_rejected(solver, bad):
    # the same error as for a dense matrix, not a spectrum of infs or a
    # misleading non-convergence
    with pytest.raises(pr.EigensolveError, match="non-finite"):
        solver(pr.SymbolMatrix([bad, 1.0, 0.5, 0.1]))
    with pytest.raises(pr.EigensolveError, match="non-finite"):
        solver(pr.SymbolMatrix([1.0, 0.5, bad, 0.1]))


def test_symbol_matrix_input_accepted():
    # a SymbolMatrix is solved and fitted bit for bit like its dense
    # realization; the odd size has a middle row and half-blocks wider
    # than one panel
    for m, n, k in ((32, 12, 5), (256, 75, 31)):
        params = pr.ProlateParams(M=m, N=n, K=k)
        block = pr.periodic_prolate(params)
        for solver in (pr.eigh_householder_ql, pr.eigh_jacobi):
            from_symbol = solver(block, want_vectors=True)
            from_dense = solver(block.dense(), want_vectors=True)
            assert np.array_equal(from_symbol.values, from_dense.values)
            assert np.array_equal(from_symbol.vectors, from_dense.vectors)
            assert from_symbol.residual == from_dense.residual
            assert from_symbol.iterations == from_dense.iterations
        from_symbol = pr.fit_commuting_tridiagonal(block, params)
        from_dense = pr.fit_commuting_tridiagonal(block.dense(), params)
        for name in ("diag", "offdiag", "alignment"):
            assert np.array_equal(
                getattr(from_symbol, name), getattr(from_dense, name), equal_nan=True
            )
        for name in ("commutator_norm", "compared", "max_value_dev", "min_alignment"):
            assert getattr(from_symbol, name) == getattr(from_dense, name)
        tri_symbol, tri_dense = from_symbol.tridiagonal, from_dense.tridiagonal
        assert np.array_equal(tri_symbol.values, tri_dense.values)
        assert np.array_equal(tri_symbol.vectors, tri_dense.vectors)
        assert tri_symbol.residual == tri_dense.residual
        assert tri_symbol.iterations == tri_dense.iterations



@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 257])
def test_symbol_values_match_dense_bitwise(n, monkeypatch):
    # values-only, the parity blocks come from the symbol's strided view,
    # with the same bits as from the dense matrix, which is never built
    blocks = (
        pr.periodic_prolate(pr.ProlateParams(M=4 * n + 4, N=n, K=n)),
        pr.sinc_prolate(n, 0.3),
    )
    want = [pr.eigh_householder_ql(block.dense()) for block in blocks]

    def unused(self):
        raise AssertionError("values-only solve built the dense matrix")

    monkeypatch.setattr(pr.SymbolMatrix, "dense", unused)
    for block, dense in zip(blocks, want):
        got = pr.eigh_householder_ql(block)
        assert np.array_equal(got.values, dense.values)
        assert got.iterations == dense.iterations


def test_solvers_never_write_caller_input():
    rng = np.random.default_rng(53)
    centro = _random_centrosymmetric(rng, 65)
    plain = _random_symmetric(rng, 64)
    near = _random_symmetric(rng, 64)
    near[3, 5] += 0.5 * es.SYMMETRY_TOL  # asymmetric within the tolerance
    assert es._parity_blocks(centro) is not None and es._parity_blocks(plain) is None
    for a in (centro, plain, near):
        a.flags.writeable = False
        before = a.tobytes()
        for call in (
            lambda: pr.eigh_householder_ql(a),
            lambda: pr.eigh_householder_ql(a, want_vectors=True),
            lambda: pr.singular_values_via_gram(a),
            lambda: pr.eigh_jacobi(a),
        ):
            assert call() is not None
            assert a.tobytes() == before
    with pytest.raises(pr.EigensolveError, match="non-finite"):
        pr.eigh_householder_ql(pr.SymbolMatrix([1.0, np.nan, 0.5]))


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_values_only_symbol_solve_allocates_less_than_the_matrix():
    # the two parity blocks together hold half of it
    n = 512
    block = pr.periodic_prolate(pr.ProlateParams(M=2048, N=n, K=256))
    assert _peak_bytes(lambda: pr.eigh_householder_ql(block)) < 8 * n * n


def test_vectors_solve_frees_its_blocks_before_the_residual():
    # the dense matrix, the unsorted and the sorted vectors and the misfit
    # A V - V diag(values), formed a band of rows at a time: four N x N
    # arrays, three for a dense input the caller holds; the parity blocks
    # and their vector rows are gone by then
    n = 512
    block = pr.periodic_prolate(pr.ProlateParams(M=2048, N=n, K=256))
    peak = _peak_bytes(lambda: pr.eigh_householder_ql(block, want_vectors=True))
    assert peak <= 4.5 * 8 * n * n
    dense = block.dense()
    peak = _peak_bytes(lambda: pr.eigh_householder_ql(dense, want_vectors=True))
    assert peak <= 3.5 * 8 * n * n


def test_complex_gram_is_reduced_at_its_own_size():
    # two L x L complex arrays at the Gram product (the Gram and the
    # conjugate of F), and the Gram plus band buffers while it is reduced;
    # a 2L x 2L real embedding alone would be two more
    f = pr.dft_submatrix(1024, 4)
    size = 16 * f.shape[1] ** 2
    assert _peak_bytes(lambda: pr.singular_values_via_gram(f)) < 2.5 * size


def test_any_layout_is_solved_where_it_lies_with_the_same_bits():
    # a Fortran-ordered copy and the strided symbol view are read in place,
    # and both parity blocks are C-ordered, so the bits match the C block
    block = pr.periodic_prolate(pr.ProlateParams(M=2048, N=513, K=256))
    dense = block.dense()
    want = pr.eigh_householder_ql(dense)
    fortran = np.asfortranarray(dense)
    for a in (fortran, block.view()):
        got = pr.eigh_householder_ql(a)
        assert np.array_equal(got.values, want.values)
        assert got.iterations == want.iterations
    n = 512
    fortran = np.asfortranarray(pr.periodic_prolate(pr.ProlateParams(2048, n, 256)).dense())
    assert _peak_bytes(lambda: pr.eigh_householder_ql(fortran)) < 1.25 * 8 * n * n


def _lapack_values(a):
    return np.linalg.eigvalsh(0.5 * a + 0.5 * a.T)[::-1]


# Largest |entry| far outside the solvers' range: each broke at least one
# solver (an average, a sum of squares or QL's deflation bound overflowed
# or underflowed) before the solvers rescaled their input.
OUT_OF_RANGE = [
    np.array([[1.5e308, 1.0], [1.0 + 1e-9, 2.0]]),
    np.full((2, 2), 1e200),
    np.array([[8e307, 8e307], [8e307, -8e307]]),
    1e-200 * np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]),
    1e-160 * np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]),
]


@pytest.mark.parametrize("solver", [pr.eigh_householder_ql, pr.eigh_jacobi])
@pytest.mark.parametrize("a", OUT_OF_RANGE, ids=lambda a: f"{a[0, 0]:.1e}")
def test_extreme_magnitudes_match_lapack(solver, a):
    want = _lapack_values(a)
    for want_vectors in (False, True):
        got = solver(a, want_vectors=want_vectors)
        assert np.abs(got.values - want).max() <= 4e-16 * np.abs(want).max()
    assert got.residual <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("solver", [pr.eigh_householder_ql, pr.eigh_jacobi])
def test_overflowing_eigenvalue_raises(solver):
    with pytest.raises(pr.EigensolveError, match="largest double"):
        solver(np.full((2, 2), 1e308))
    with pytest.raises(pr.EigensolveError, match="largest double"):
        solver(pr.SymbolMatrix([1e308, 1e308]))


def test_out_of_range_input_is_an_exact_power_of_two_rescale():
    # outside the range the solvers see the matrix scaled by 2^-e, so the
    # values are exactly 2^k times those of the in-range matrix; an input
    # in range, edges included, is neither copied nor scaled
    rng = np.random.default_rng(61)
    plain = _random_symmetric(rng, 40)
    block = pr.sinc_prolate(33, 0.2)
    for a in (plain, block.dense(), block):
        for solver in (pr.eigh_householder_ql, pr.eigh_jacobi):
            want = solver(a, want_vectors=True)
            for k in (-900, -450, 450, 1000):  # no entry or value subnormal
                scaled = (
                    pr.SymbolMatrix(np.ldexp(a.symbol, k))
                    if isinstance(a, pr.SymbolMatrix)
                    else np.ldexp(a, k)
                )
                got = solver(scaled, want_vectors=True)
                assert np.array_equal(got.values, np.ldexp(want.values, k))
                assert np.array_equal(got.vectors, want.vectors)
                assert got.residual == math.ldexp(want.residual, k)
    for top in (1.0 / es.MAGNITUDE_RANGE, es.MAGNITUDE_RANGE):
        a = top * np.array([[1.0, 0.5], [0.5, -1.0]])
        sym, exponent = es._as_dense_symmetric(a)
        assert exponent == 0 and np.shares_memory(sym, a)
        sym, exponent = es._as_dense_symmetric(2.0 * a if top > 1.0 else 0.5 * a)
        assert exponent != 0 and 0.5 <= np.abs(sym).max() < 1.0

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
    out = sqrt_clamped(values)
    assert out[0] == 1.0 and out[2] == 0.0  # -5e-13 clamped
    assert out[1] == 0.0  # snapped: far below the top of the spectrum
    # the floor is relative to the top value and keeps values at it
    top = 4.0
    out = sqrt_clamped(np.array([top, top * GRAM_NOISE_FLOOR, 0.5 * top * GRAM_NOISE_FLOOR]))
    assert out[1] == math.sqrt(top * GRAM_NOISE_FLOOR) and out[2] == 0.0
    with pytest.raises(pr.EigensolveError):
        sqrt_clamped(np.array([1.0, -1e-11]))


def test_gram_psd_clamp_scales_with_the_largest_value():
    # rank-3 products: with sigma_1^2 near 4e3 a zero Gram eigenvalue rounds
    # to about -1e-12, which is rounding, not a solver failure
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = rng.standard_normal((50, 3)) @ rng.standard_normal((3, 40))
        reference = np.linalg.svd(f, compute_uv=False)
        assert np.abs(pr.singular_values_via_gram(f) - reference).max() <= 1e-10 * reference[0]
    with pytest.raises(pr.EigensolveError, match="below the -4e-09 PSD clamp"):
        sqrt_clamped(np.array([4e3, -4.1e-9]))
    assert sqrt_clamped(np.array([4e3, -3.9e-9]))[1] == 0.0


def test_hermitian_embedding_doubles_spectrum():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    g = g @ g.conj().T
    emb = _hermitian_embedding(g)
    values = pr.eigh_householder_ql(emb).values
    assert np.abs(values[0::2] - values[1::2]).max() <= 1e-10 * (1 + values[0])


def test_singular_values_unitary_and_single_column():
    sigma = pr.singular_values_via_gram(pr.dft_submatrix(16, 1))
    assert np.abs(sigma - 1.0).max() <= 1e-12
    col = np.exp(2j * np.pi * 0.2 * np.arange(9))[:, None] / 3.0
    sigma = pr.singular_values_via_gram(col)
    assert sigma.shape == (1,)
    assert sigma[0] == pytest.approx(1.0, abs=1e-13)


def test_singular_values_dual_solver_route():
    # the complex Gram reduced at its own size by Householder and QL,
    # against Jacobi on its 2L real embedding, which carries every Gram
    # eigenvalue twice; the wide F has four exact zeros
    rng = np.random.default_rng(17)
    for shape in ((10, 6), (6, 10)):
        f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ql = pr.singular_values_via_gram(f)
        ja = pr.eigh_jacobi(_hermitian_embedding(f.conj().T @ f)).values
        assert np.abs(ja[0::2] - ja[1::2]).max() <= 1e-12 * ja[0]
        assert np.abs(ql**2 - ja[0::2]).max() <= 1e-12 * ja[0], shape


def _complex_inputs():
    rng = np.random.default_rng(43)
    for shape in ((40, 25), (25, 40), (30, 30)):
        yield f"random-{shape}", rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # DFT blocks of even and odd L, the whole DFT and a non-power-of-two m
    for args in ((64, 4, 3, 7), (45, 5), (16, 1), (999, 3), (1024, 4, 3, 7)):
        yield f"dft-{args}", pr.dft_submatrix(*args)


@pytest.mark.parametrize(
    "f", [pytest.param(f, id=label) for label, f in _complex_inputs()]
)
def test_complex_singular_values_match_lapack(f):
    # sigma^2 is snapped to zero below GRAM_NOISE_FLOOR times the largest;
    # every other sigma agrees with LAPACK's
    got = pr.singular_values_via_gram(f)
    want = np.linalg.svd(f, compute_uv=False)
    want = np.concatenate((want, np.zeros(f.shape[1] - want.size)))
    kept = got > 0.0
    assert np.abs(got[kept] - want[kept]).max() <= 1e-11 * want[0]
    level = GRAM_NOISE_FLOOR * want[0] ** 2
    assert (want[~kept] ** 2 <= level + 1e-13 * want[0] ** 2).all()
    assert (want[kept] ** 2 >= level - 1e-13 * want[0] ** 2).all()


def _gram_route_inputs():
    rng = np.random.default_rng(47)
    yield "symmetric", _random_symmetric(rng, 7)
    yield "general", rng.standard_normal((9, 6))
    yield "complex", rng.standard_normal((9, 6)) + 1j * rng.standard_normal((9, 6))
    yield "flat", np.ones((2, 2))  # singular values 2 and 0


@pytest.mark.parametrize("scale", [1e200, 1e-200])
@pytest.mark.parametrize(
    "f", [pytest.param(f, id=label) for label, f in _gram_route_inputs()]
)
def test_gram_routes_scale_extreme_input(f, scale):
    # each route would square 1e200 past the largest double, or 1e-200
    # below the smallest, if F were not scaled by a power of two first;
    # warnings are errors here
    want = np.linalg.svd(scale * f, compute_uv=False)
    got = pr.singular_values_via_gram(scale * f)
    assert np.abs(got - want).max() <= 1e-13 * want[0]


def test_gram_routes_rescale_by_an_exact_power_of_two():
    # F with largest |entry| in [1/2, 1) is solved as it is, and F 2^k out
    # of range is scaled back to it exactly, so sigma is exactly 2^k times
    for _, f in _gram_route_inputs():
        f = f / (2.0 * np.abs(f).max())
        want = pr.singular_values_via_gram(f)
        for k in (-900, -300, 300, 900):
            # 2^k times each real and imaginary part
            got = pr.singular_values_via_gram(np.ldexp(f.view(np.float64), k).view(f.dtype))
            assert np.array_equal(got, np.ldexp(want, k)), k
    with pytest.raises(pr.EigensolveError, match="singular value exceeds"):
        pr.singular_values_via_gram(np.full((3, 2), 1.5e308))
    with pytest.raises(pr.EigensolveError, match="non-finite"):
        pr.singular_values_via_gram(np.array([[1.0, 1j * np.inf]]))


@pytest.mark.parametrize("solver", [pr.eigh_householder_ql, pr.eigh_jacobi])
def test_overflowing_asymmetry_is_refused_without_a_warning(solver):
    # A - A^T overflows to inf, which is refused like any other asymmetry
    with pytest.raises(pr.ParameterError, match="not symmetric: .* = inf"):
        solver(np.array([[0.0, 1e308], [-1e308, 0.0]]))


def _rank(sigma):
    return int((sigma > 1e-10 * sigma[0]).sum())


def test_singular_values_real_gram_matches_complex_embedding():
    # a real matrix takes the n x n real Gram; its complex cast, the complex
    # Householder route.  Both diagonalize the same Gram, so the squared
    # values agree to rounding on the Gram scale sigma_0^2 (sigma itself
    # inherits u sigma_0^2 / sigma_i), and the rank counts match.
    parts = pr.lowrank_tail_split(pr.ProlateParams(M=1024, N=256, K=128), 1e-6)
    rng = np.random.default_rng(29)
    for f in (pr.SymbolMatrix(parts.symbol).dense(), rng.standard_normal((40, 25))):
        real = pr.singular_values_via_gram(f)
        cast = pr.singular_values_via_gram(f.astype(np.complex128))
        assert real.shape == cast.shape == (f.shape[1],)
        assert np.abs(real**2 - cast**2).max() <= 1e-14 * cast[0] ** 2
        assert _rank(real) == _rank(cast)


def test_symmetric_input_takes_absolute_eigenvalues(monkeypatch):
    # a real symmetric F is solved itself, not squared: sigma = |lambda|,
    # with lambda^2 snapped at the Gram route's noise floor so that rank
    # counts stay those of F^T F; a Toeplitz F splits by parity
    parts = pr.lowrank_tail_split(pr.ProlateParams(M=1024, N=256, K=128), 1e-12)
    rng = np.random.default_rng(37)
    solved, reduced = [], []

    def spy(record, original):
        def call(a, *args):
            record.append(np.array(a, copy=True))
            return original(a, *args)
        return call

    # a symmetric F goes to eigh_householder_ql, a Gram to _tridiagonal_ql in place
    monkeypatch.setattr(es, "eigh_householder_ql", spy(solved, es.eigh_householder_ql))
    monkeypatch.setattr(es, "_tridiagonal_ql", spy(reduced, es._tridiagonal_ql))
    for f in (pr.SymbolMatrix(parts.symbol).dense(), _random_symmetric(rng, 30)):
        sigma = pr.singular_values_via_gram(f)
        assert np.array_equal(solved.pop(), f) and not solved
        lam = es.eigh_householder_ql(f).values
        assert np.array_equal(sigma, sqrt_clamped(np.sort(lam * lam)[::-1]))
        assert np.array_equal(sigma[sigma > 0.0], np.sort(np.abs(lam))[::-1][: _rank(sigma)])
        gram = sqrt_clamped(es.eigh_householder_ql(f.T @ f).values)
        assert _rank(sigma) == _rank(gram)
        solved.clear()
        reduced.clear()
        lapack = np.linalg.svd(f, compute_uv=False)
        kept = sigma > 0.0
        assert np.abs(sigma - lapack)[kept].max() <= 1e-13 * sigma[0]
        assert lapack[~kept].max(initial=0.0) <= 1.01 * math.sqrt(GRAM_NOISE_FLOOR) * sigma[0]
    assert es._parity_blocks(pr.SymbolMatrix(parts.symbol).dense()) is not None
    # square but not symmetric, and symmetric only to rounding: the Gram
    f = rng.standard_normal((7, 7))
    for g in (f, f + f.T + np.triu(np.full((7, 7), 1e-15), 1)):
        sigma = pr.singular_values_via_gram(g)
        assert np.array_equal(reduced.pop(), g.T @ g) and not reduced and not solved
        assert np.abs(sigma - np.linalg.svd(g, compute_uv=False)).max() <= 1e-12


def test_no_gram_passes_the_symmetric_input_gate(monkeypatch):
    # _as_dense_symmetric validates caller input only: a Gram, real or
    # complex, is Hermitian by construction and goes straight to the solve
    gated = []
    original = es._as_dense_symmetric

    def spy(a):
        gated.append(a)
        return original(a)

    monkeypatch.setattr(es, "_as_dense_symmetric", spy)
    rng = np.random.default_rng(41)
    f = rng.standard_normal((12, 9))
    for g in (f, f + 1j * rng.standard_normal((12, 9)), f[:9], pr.dft_submatrix(64, 4)):
        assert pr.singular_values_via_gram(g).shape == (g.shape[1],)
    assert not gated
    sym = _random_symmetric(rng, 9)
    pr.singular_values_via_gram(sym)
    assert len(gated) == 1 and gated[0] is sym


def test_complex_input_is_refused_by_the_symmetric_solvers():
    # the Hermitian [[1, i], [-i, 1]] has spectrum {0, 2}; cast to real it
    # would be the identity, and Toeplitz [2, i] would read as diag(2, 2)
    hermitian = np.array([[1.0, 1j], [-1j, 1.0]])
    for solver in (pr.eigh_householder_ql, pr.eigh_jacobi):
        with pytest.raises(pr.ParameterError, match="expected a real"):
            solver(hermitian)
        with pytest.raises(pr.ParameterError, match="expected a real"):
            solver(hermitian.tolist())
    with pytest.raises(pr.ParameterError, match="expected a real"):
        pr.SymbolMatrix(np.array([2.0, 1j]))
    with pytest.raises(pr.ParameterError, match="expected a real"):
        pr.SymbolMatrix([2.0, 1j])
    # the Gram route still takes complex F: sigma of the Hermitian block
    sigma = pr.singular_values_via_gram(hermitian)
    assert np.abs(sigma - [2.0, 0.0]).max() <= 1e-15


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
        assert ql.values.size == n


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
# the vectorised kernels to bitwise-identical output.  The Jacobi reference
# follows the kernel's round-robin ordering and rotation rule one element
# at a time; the older row-cyclic routine stays as a second, independently
# ordered Jacobi, compared within a tolerance.  The unblocked Householder
# reduction is the reference for the blocked one; blocking reorders the
# sums, so that comparison has a tolerance.


def _householder_tridiag_unblocked(a, want_q):
    n = a.shape[0]
    q = np.eye(n) if want_q else None
    e = np.zeros(n)
    for k in range(n - 2):
        x = a[k + 1 :, k]
        scale = float(np.abs(x).max())
        if scale == 0.0 or float(np.abs(x[1:]).max(initial=0.0)) == 0.0:
            e[k] = x[0]
            continue
        v = x / scale
        alpha = math.copysign(math.sqrt(float(v @ v)), v[0])
        u = v.copy()
        u[0] += alpha
        beta = alpha * u[0]  # = u.u / 2
        e[k] = -alpha * scale
        a[k + 1, k] = e[k]
        a[k, k + 1] = e[k]
        block = a[k + 1 :, k + 1 :]
        w = block @ u / beta
        w -= (float(u @ w) / (2.0 * beta)) * u
        block -= np.outer(u, w)
        block -= np.outer(w, u)
        if want_q:
            qb = q[:, k + 1 :]
            qb -= np.outer(qb @ u, u) / beta
    if n >= 2:
        e[n - 2] = a[n - 1, n - 2]
    d = np.diag(a).copy()
    return d, e, q


def _ql_implicit_scalar(d, e, z, want_z, budget):
    # the kernel's deflation level, from the same arrays in the same order
    n = d.shape[0]
    tol = es.UNIT_ROUNDOFF * (
        float(np.abs(d).max(initial=0.0))
        + 2.0 * float(np.abs(e[: n - 1]).max(initial=0.0))
    )
    for l in range(n):
        while True:
            m = l
            while m < n - 1:
                if abs(e[m]) <= tol:
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


def _jacobi_cyclic_scalar(a_array, v_array, want_v, max_sweeps):
    # row-cyclic ordering on nested lists of Python floats, the same IEEE
    # doubles as the numpy scalars, written back on return
    a = a_array.tolist()
    v = v_array.tolist()
    n = len(a)
    sweeps = _jacobi_sweeps_scalar(a, v, n, want_v, max_sweeps)
    a_array[:] = a
    if want_v:
        v_array[:] = v
    return sweeps


def _jacobi_sweeps_scalar(a, v, n, want_v, max_sweeps):
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += a[i][j] * a[i][j]
    thresh = es.JACOBI_OFF_TOL * math.sqrt(total)
    for sweep in range(max_sweeps + 1):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off += 2.0 * a[i][j] * a[i][j]
        if math.sqrt(off) <= thresh:
            return sweep
        if sweep == max_sweeps:
            return -1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                if abs(theta) > es.JACOBI_LARGE_THETA:
                    t = 0.5 / theta
                elif theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(1.0 + theta * theta))
                else:
                    t = -1.0 / (-theta + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                row_p = a[p]
                row_q = a[q]
                for i in range(n):
                    if i != p and i != q:
                        row_i = a[i]
                        aip = row_i[p]
                        aiq = row_i[q]
                        row_i[p] = row_p[i] = aip * c - aiq * s
                        row_i[q] = row_q[i] = aiq * c + aip * s
                row_p[p] -= t * apq
                row_q[q] += t * apq
                row_p[q] = 0.0
                row_q[p] = 0.0
                if want_v:
                    for row_i in v:
                        vip = row_i[p]
                        viq = row_i[q]
                        row_i[p] = vip * c - viq * s
                        row_i[q] = viq * c + vip * s
    return -1


def _reference_ql(a, want_vectors=True):
    # the same parity split as the kernel, with the scalar QL on each block
    sym, exponent = es._as_dense_symmetric(a)
    blocks = es._parity_blocks(sym)
    values, rows, steps = [], [], 0
    for block in [sym.copy()] if blocks is None else blocks:
        n = block.shape[0]
        d, e, q = es._householder_tridiag(block, want_vectors)
        z = q if want_vectors else np.empty((0, 0))
        budget = es.QL_BUDGET_PER_ROW * n
        left = _ql_implicit_scalar(d, e, z, want_vectors, budget)
        assert left >= 0
        values.append(d)
        rows.append(z.T)
        steps += budget - left
    vectors = None
    if want_vectors:
        vectors = rows[0].T if blocks is None else es._parity_vectors(*rows).T
    return es._finish(sym, np.concatenate(values), vectors, steps, exponent)


def _rotation_scalar(app, aqq, apq):
    g = 100.0 * abs(apq)
    if abs(app) + g == abs(app) and abs(aqq) + g == abs(aqq):
        return 0.0
    theta = (aqq - app) / (2.0 * apq)
    mag = abs(theta)
    if mag > es.JACOBI_LARGE_THETA:
        t = 0.5 / mag
    else:
        t = 1.0 / (mag + math.sqrt(1.0 + mag * mag))
    return -t if theta < 0.0 else t


def _off_and_norm(a, layout):
    # the kernel's stopping sums, on the same padded array in the same order
    sq = np.square(np.array(a)[np.ix_(layout, layout)])
    total = float(sq.sum())
    sq.reshape(-1)[:: len(layout) + 1] = 0.0
    return math.sqrt(float(sq.sum())), math.sqrt(total)


def _jacobi_rounds_scalar(a_array, max_sweeps):
    # Round-robin Jacobi on lists, in the input's own indices (odd n gets a
    # zero row and column): a round pairs circle[k] with circle[m-1-k],
    # then circle[1:] turns one place right.  The kernel stores the round
    # at positions (k, h + k) of layout = circle[:h] + reversed(circle[h:])
    # and keeps the upper triangle of that layout, so the mirror copy made
    # here runs the same way.
    n = a_array.shape[0]
    m = n + n % 2
    h = m // 2
    a = [row + [0.0] * (m - n) for row in a_array.tolist()]
    a += [[0.0] * m for _ in range(m - n)]
    vt = [[float(i == j) for j in range(n)] for i in range(m)]
    circle = list(range(m))
    start = circle[:h] + circle[h:][::-1]
    _, norm = _off_and_norm(a, start)
    thresh = es.JACOBI_OFF_TOL * norm
    for sweep in range(max_sweeps + 1):
        if _off_and_norm(a, start)[0] <= thresh:
            return sweep, a, vt
        if sweep == max_sweeps:
            return -1, a, vt
        for _ in range(m - 1):
            layout = circle[:h] + circle[h:][::-1]
            pairs = list(zip(layout[:h], layout[h:]))
            rot = []
            for p, q in pairs:
                app, aqq, apq = a[p][p], a[q][q], a[p][q]
                t = _rotation_scalar(app, aqq, apq)
                c = 1.0 / math.sqrt(1.0 + t * t)
                rot.append((p, q, c, t * c, app - t * apq, aqq + t * apq))
            for row in a:  # columns
                for p, q, c, s, _, _ in rot:
                    x, y = row[p], row[q]
                    row[p] = x * c - y * s
                    row[q] = y * c + x * s
            for rows in (a, vt):  # rows
                for p, q, c, s, _, _ in rot:
                    rp, rq = rows[p], rows[q]
                    rows[p] = [x * c - y * s for x, y in zip(rp, rq)]
                    rows[q] = [y * c + x * s for x, y in zip(rp, rq)]
            for p, q, _, _, new_pp, new_qq in rot:
                a[p][p] = new_pp
                a[q][q] = new_qq
                a[p][q] = 0.0
            for i, x in enumerate(layout):  # mirror the layout's upper triangle
                for y in layout[i + 1 :]:
                    a[y][x] = a[x][y]
            circle = [circle[0], circle[-1]] + circle[1:-1]
    return -1, a, vt


def _reference_jacobi(a):
    sym, exponent = es._as_dense_symmetric(a)
    n = sym.shape[0]
    sweeps, work, vt = _jacobi_rounds_scalar(sym, es.JACOBI_MAX_SWEEPS)
    assert sweeps >= 0
    values = np.array([work[i][i] for i in range(n)])
    return es._finish(sym, values, np.array(vt[:n]).T, sweeps, exponent)


def _reference_inputs():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 5, 12, 64):
        yield f"random-{n}", _random_symmetric(rng, n)
    params = pr.ProlateParams(M=256, N=64, K=31)
    yield "prolate-256-64-31", pr.periodic_prolate(params).dense()
    # the commute route's solve: every Householder column is skipped, so Q
    # starts as I and QL does all the rotating (125 steps)
    yield "tridiagonal-256-64-31", pr.fit_commuting_tridiagonal(
        pr.periodic_prolate(params), params
    ).dense()
    # odd N: the even parity block is bordered
    yield "prolate-99-33-10", pr.periodic_prolate(
        pr.ProlateParams(M=99, N=33, K=10)
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


def test_jacobi_orderings_agree_within_backward_error():
    # round-robin kernel against the row-cyclic scalar routine (n <= 64):
    # both are backward stable, so values differ by at most the sum of two
    # backward errors (Weyl), and the vector of a value separated by gap
    # moves by at most that sum over the gap (Davis-Kahan)
    for label, a in _reference_inputs():
        got = pr.eigh_jacobi(a, want_vectors=True)
        sym, exponent = es._as_dense_symmetric(a)
        work = sym.copy()
        v = np.eye(sym.shape[0])
        sweeps = _jacobi_cyclic_scalar(work, v, True, es.JACOBI_MAX_SWEEPS)
        assert 0 <= sweeps
        want = es._finish(sym, np.ascontiguousarray(np.diag(work)), v, sweeps, exponent)
        allowed = 2 * REDUCTION_RATIO * _unit(a)
        assert np.abs(got.values - want.values).max() <= allowed, label
        gaps = np.full(got.values.size, np.inf)
        step = -np.diff(want.values)
        gaps[:-1] = np.minimum(gaps[:-1], step)
        gaps[1:] = np.minimum(gaps[1:], step)
        bound = np.full(gaps.size, np.inf)  # no bound within a repeated value
        np.divide(2.0 * allowed, gaps, out=bound, where=gaps > 0.0)
        moved = np.abs(got.vectors - want.vectors).max(axis=0)
        assert (moved <= bound).all(), label


def _values_only_inputs():
    yield from _reference_inputs()
    yield "prolate-1024-256-128", pr.periodic_prolate(
        pr.ProlateParams(M=1024, N=256, K=128)
    ).dense()
    # the 2L embedding carries every Gram eigenvalue as an exact pair
    f = pr.dft_submatrix(64, 4, 3, 7)
    yield "dft-64-4-3-7-embedding", _hermitian_embedding(f.conj().T @ f)


def test_values_only_ql_matches_scalar_reference_bitwise():
    for label, a in _values_only_inputs():
        got = pr.eigh_householder_ql(a)
        want = _reference_ql(a, want_vectors=False)
        assert np.array_equal(got.values, want.values), label
        assert got.iterations == want.iterations, label
        with_vectors = pr.eigh_householder_ql(a, want_vectors=True)
        assert np.array_equal(got.values, with_vectors.values), label


def _clustered_inputs():
    yield "prolate-3072-768-384", pr.periodic_prolate(
        pr.ProlateParams(M=3072, N=768, K=384)
    ).dense()
    yield "sinc-512-0.25", pr.sinc_prolate(512, 0.25).dense()
    f = pr.dft_submatrix(1024, 4)
    yield "dft-1024-4-embedding", _hermitian_embedding(f.conj().T @ f)


def test_ql_values_match_lapack_on_clustered_spectra():
    # QL deflates at u (max |d| + 2 max |e|), which moves no value by more
    # than that level (Weyl); most of these spectra sit at 0 and 1
    for label, a in _clustered_inputs():
        got = pr.eigh_householder_ql(a).values
        want = np.linalg.eigvalsh(a)[::-1]
        assert np.abs(got - want).max() <= 1e-14, label


def test_ql_step_counts_on_prolate_blocks():
    # values-only step counts are deterministic: 465 and 134 with the
    # deflation level u (max |d| + 2 max |e|), 1831 and 632 with the
    # relative test |e_m| + |d_m| + |d_m+1| == |d_m| + |d_m+1|
    for (m, n, k), most in (((3072, 768, 384), 700), ((1024, 256, 128), 250)):
        block = pr.periodic_prolate(pr.ProlateParams(M=m, N=n, K=k))
        assert pr.eigh_householder_ql(block).iterations <= most, (m, n, k)


def test_iteration_counts_recorded_within_budget():
    rng = np.random.default_rng(13)
    a = _random_symmetric(rng, 24)
    ql = pr.eigh_householder_ql(a)
    assert 0 < ql.iterations <= es.QL_BUDGET_PER_ROW * 24
    ja = pr.eigh_jacobi(a, want_vectors=True)
    assert 0 < ja.iterations <= es.JACOBI_MAX_SWEEPS
    assert pr.eigh_jacobi(np.diag([2.0, 1.0])).iterations == 0


def test_jacobi_sweeps_on_clustered_spectra():
    # half of each spectrum clusters at 1 and half at 0; without the skip
    # of negligible rotations the round-robin ordering converged only
    # linearly here, and the sinc block used up all 60 sweeps (the
    # row-cyclic routine took 19 and 21)
    for a in (
        pr.sinc_prolate(64, 0.25),
        pr.periodic_prolate(pr.ProlateParams(M=256, N=128, K=63)),
    ):
        spec = pr.eigh_jacobi(a)
        assert spec.iterations <= 25
        expect = pr.eigh_householder_ql(a).values
        assert np.abs(spec.values - expect).max() <= 1e-13


def test_jacobi_large_theta_rotation_is_finite():
    # the (0, 1) rotation has theta = 1/(2 tiny): its square overflows at
    # 1e-160, and theta itself at the subnormal 1e-310; the (1, 2) entry
    # keeps the sweep from stopping before it
    for tiny in (1e-160, 1e-310):
        a = np.array([[0.0, tiny, 0.0], [tiny, 1.0, 0.5], [0.0, 0.5, 2.0]])
        spec = pr.eigh_jacobi(a, want_vectors=True)
        assert spec.iterations > 0
        expect = pr.eigh_householder_ql(a).values
        assert np.abs(spec.values - expect).max() <= 1e-15
        assert np.abs(spec.vectors.T @ spec.vectors - np.eye(3)).max() <= 1e-15


# Blocked against unblocked Householder.  Both are backward stable, so
# Q T Q^T = A + E with ||E|| = O(n u ||A||); the checks below scale every
# error by n u ||A||_F and allow REDUCTION_RATIO of it, as LAPACK's own
# tridiagonal tests do with their threshold ratio.  By Weyl's inequality
# two such reductions give eigenvalues that differ by at most the sum of
# their backward errors.
NB = es.HOUSEHOLDER_BLOCK
UNIT_ROUNDOFF = 2.0**-53
REDUCTION_RATIO = 4.0


def _unit(a):
    n = a.shape[0]
    return n * UNIT_ROUNDOFF * max(float(np.linalg.norm(a)), np.finfo(float).tiny)


def _tridiagonal(d, e):
    n = d.size
    off = e[: n - 1]
    return np.diag(d) + np.diag(off, 1) + np.diag(off, -1)


def _reduction_ratios(a, reduce):
    d, e, q = reduce(a.copy(), True)
    t = _tridiagonal(d, e)
    unit = _unit(a)
    recon = float(np.abs(q @ t @ q.T - a).max()) / unit
    orth = float(np.abs(q.T @ q - np.eye(a.shape[0])).max()) / (
        a.shape[0] * UNIT_ROUNDOFF
    )
    return d, e, q, recon, orth


def _values(d, e):
    d, e = d.copy(), e.copy()
    es._ql_implicit(d, e, None)
    return np.sort(d)[::-1]


def _block_diagonal(rng, sizes):
    n = sum(sizes)
    a = np.zeros((n, n))
    start = 0
    for size in sizes:
        a[start : start + size, start : start + size] = _random_symmetric(rng, size)
        start += size
    return a


def _blocked_inputs():
    rng = np.random.default_rng(37)
    for n in (1, 2, 3, NB - 1, NB, NB + 1, 2 * NB + 3):
        yield f"random-{n}", _random_symmetric(rng, n, scale=rng.uniform(0.1, 10.0))
    n = 2 * NB + 3
    yield "diagonal", np.diag(rng.standard_normal(n))
    yield "tridiagonal", _tridiagonal(rng.standard_normal(n), rng.standard_normal(n))
    # zero sub-columns in mid-panel: the last two columns of every block
    sizes = (NB // 2 + 1, NB - 3, 5, 2 * NB + 3 - (NB // 2 + 1) - (NB - 3) - 5)
    yield "block-diagonal", _block_diagonal(rng, sizes)


@pytest.mark.parametrize(
    "a", [pytest.param(a, id=label) for label, a in _blocked_inputs()]
)
def test_blocked_reduction_matches_unblocked_and_jacobi(a):
    n = a.shape[0]
    d, e, q, recon, orth = _reduction_ratios(a, es._householder_tridiag)
    d0, e0, q0, recon0, orth0 = _reduction_ratios(a, _householder_tridiag_unblocked)
    assert recon <= REDUCTION_RATIO and orth <= REDUCTION_RATIO, (recon, orth)
    assert recon0 <= REDUCTION_RATIO and orth0 <= REDUCTION_RATIO, (recon0, orth0)
    # d and e do not depend on whether Q is wanted
    d_only, e_only, q_none = es._householder_tridiag(a.copy(), False)
    assert q_none is None
    assert np.array_equal(d_only, d) and np.array_equal(e_only, e)
    unit = _unit(a)
    values = _values(d, e)
    assert np.abs(values - _values(d0, e0)).max() <= 2 * REDUCTION_RATIO * unit
    jacobi = pr.eigh_jacobi(a).values
    assert np.abs(values - jacobi).max() <= 2 * REDUCTION_RATIO * unit


@pytest.mark.parametrize("label", ["diagonal", "tridiagonal"])
def test_reduction_skips_already_tridiagonal_columns(label):
    # every sub-column is zero below its first entry: no reflector is formed,
    # so both reductions return the input's diagonals and Q = I exactly
    a = dict(_blocked_inputs())[label]
    n = a.shape[0]
    for reduce in (es._householder_tridiag, _householder_tridiag_unblocked):
        d, e, q = reduce(a.copy(), True)
        assert np.array_equal(d, np.diag(a))
        assert np.array_equal(e[: n - 1], np.diag(a, -1))
        assert np.array_equal(q, np.eye(n))


def test_block_diagonal_reduction_keeps_blocks_apart():
    # reflectors of one block are exactly zero on every other block, so the
    # subdiagonal entry at each block boundary comes out exactly zero
    a = dict(_blocked_inputs())["block-diagonal"]
    boundaries = np.flatnonzero(np.diag(a, -1) == 0.0)
    assert boundaries.size == 3
    for reduce in (es._householder_tridiag, _householder_tridiag_unblocked):
        _, e, _ = reduce(a.copy(), False)
        assert np.array_equal(e[boundaries], np.zeros(boundaries.size))


def _random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def test_complex_reduction_matches_lapack():
    # Hermitian input, values only: the real tridiagonal (d, |e|) keeps the
    # eigenvalues; already tridiagonal columns get no reflector
    rng = np.random.default_rng(53)
    inputs = [_random_hermitian(rng, n) for n in (1, 2, 3, NB + 1, 2 * NB + 3)]
    n = 2 * NB + 3
    off = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    tridiagonal = np.diag(rng.standard_normal(n)) + np.diag(off, -1) + np.diag(off.conj(), 1)
    blocks = np.zeros((n, n), dtype=complex)
    blocks[:NB, :NB] = _random_hermitian(rng, NB)
    blocks[NB:, NB:] = _random_hermitian(rng, n - NB)
    for a in inputs + [tridiagonal, blocks]:
        d, e, q = es._householder_tridiag(a.copy(), False)
        assert q is None and d.dtype == e.dtype == np.float64
        want = np.linalg.eigvalsh(a)[::-1]
        assert np.abs(_values(d, e) - want).max() <= 2 * REDUCTION_RATIO * _unit(a)
    d, e, _ = es._householder_tridiag(tridiagonal.copy(), False)
    assert np.array_equal(d, np.diag(tridiagonal).real)
    assert np.array_equal(e[: n - 1], np.abs(off))
    _, e, _ = es._householder_tridiag(blocks.copy(), False)
    assert e[NB - 1] == 0.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 3 * NB + 3),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    zero_fraction=st.sampled_from([0.0, 0.5, 0.95]),
)
def test_solver_properties_on_random_symmetric(n, seed, scale, zero_fraction):
    rng = np.random.default_rng(seed)
    a = _random_symmetric(rng, n, scale)
    zero = rng.random((n, n)) < zero_fraction
    a[zero | zero.T] = 0.0
    unit = _unit(a)
    spec = pr.eigh_householder_ql(a, want_vectors=True)
    # the values sum to the trace of A + E, |trace E| <= n ||E||_2
    assert abs(math.fsum(spec.values) - math.fsum(np.diag(a))) <= (
        n * REDUCTION_RATIO * unit
    )
    q = spec.vectors
    assert np.abs(q.T @ q - np.eye(n)).max() <= REDUCTION_RATIO * n * UNIT_ROUNDOFF
    jacobi = pr.eigh_jacobi(a).values
    assert np.abs(spec.values - jacobi).max() <= 2 * REDUCTION_RATIO * unit


# Parity split.  A centrosymmetric matrix is solved as two half-size blocks;
# each block is reduced and iterated by the same core as a whole matrix, so
# the split agrees with the unsplit core, and with Jacobi, within the
# backward-error scale above.  Every eigenvector is even or odd.


def _random_centrosymmetric(rng, n, scale=1.0):
    a = _random_symmetric(rng, n, scale)
    return 0.5 * (a + a[::-1, ::-1])


def _centrosymmetric_inputs():
    rng = np.random.default_rng(41)
    for n in (2, 3, 64, 65):
        yield f"random-{n}", _random_centrosymmetric(rng, n, rng.uniform(0.1, 10.0))
    yield "prolate-256-64-31", pr.periodic_prolate(pr.ProlateParams(256, 64, 31)).dense()
    yield "prolate-128-33-15", pr.periodic_prolate(pr.ProlateParams(128, 33, 15)).dense()
    yield "sinc-65", pr.sinc_prolate(65, 0.2).dense()
    params = pr.ProlateParams(M=256, N=65, K=31)
    fit = pr.fit_commuting_tridiagonal(pr.periodic_prolate(params).dense(), params)
    yield "commuting-tridiagonal-65", fit.dense()


def _assert_parity(vectors):
    # J v = +v or -v exactly: each vector is assembled from one block
    n = vectors.shape[0]
    mirrored = vectors[::-1]
    even = np.all(mirrored == vectors, axis=0)
    odd = np.all(mirrored == -vectors, axis=0)
    assert np.all(even | odd)
    # a zero vector would be both; the even block has n - n//2 rows
    assert not np.any(even & odd)
    assert int(even.sum()) == n - n // 2 and int(odd.sum()) == n // 2
    return even


@pytest.mark.parametrize(
    "a", [pytest.param(a, id=label) for label, a in _centrosymmetric_inputs()]
)
def test_parity_split_matches_unsplit_core_and_jacobi(a):
    n = a.shape[0]
    assert es._parity_blocks(es._as_dense_symmetric(a)[0]) is not None
    unit = _unit(a)
    split = pr.eigh_householder_ql(a, want_vectors=True)
    whole, _, _ = es._tridiagonal_ql(es._as_dense_symmetric(a)[0].copy(), False)
    assert np.abs(split.values - np.sort(whole)[::-1]).max() <= 2 * REDUCTION_RATIO * unit
    jacobi = pr.eigh_jacobi(a).values
    assert np.abs(split.values - jacobi).max() <= 2 * REDUCTION_RATIO * unit
    q = split.vectors
    assert np.abs(q.T @ q - np.eye(n)).max() <= REDUCTION_RATIO * n * UNIT_ROUNDOFF
    assert split.residual <= REDUCTION_RATIO * unit
    _assert_parity(q)
    values_only = pr.eigh_householder_ql(a)
    assert np.array_equal(values_only.values, split.values)
    assert values_only.iterations == split.iterations


def test_parity_matches_lapack_eigenvectors():
    # on well-separated values each LAPACK eigenvector is determined up to
    # sign, so its own parity v . Jv = +-1 must match the split's
    rng = np.random.default_rng(43)
    for n in (64, 65):
        a = _random_centrosymmetric(rng, n)
        even = _assert_parity(pr.eigh_householder_ql(a, want_vectors=True).vectors)
        values, vectors = np.linalg.eigh(a)
        assert np.diff(values).min() > 1e-6
        lapack = np.einsum("ij,ij->j", vectors, vectors[::-1])[::-1]
        assert np.abs(np.abs(lapack) - 1.0).max() <= 1e-10
        assert np.array_equal(lapack > 0.0, even)


def test_non_centrosymmetric_input_is_not_split():
    rng = np.random.default_rng(47)
    a = _random_centrosymmetric(rng, 12)
    assert es._parity_blocks(a) is not None
    a[0, 1] = a[1, 0] = np.nextafter(a[0, 1], np.inf)  # one ulp breaks it
    assert es._parity_blocks(a) is None
    assert es._parity_blocks(np.ones((1, 1))) is not None


@pytest.mark.parametrize("want_vectors", [False, True])
def test_one_by_one_is_split_like_any_size(want_vectors):
    # an even 1 x 1 block and an empty odd one
    for a in (np.array([[-2.5]]), pr.SymbolMatrix([-2.5])):
        spec = pr.eigh_householder_ql(a, want_vectors=want_vectors)
        assert spec.values.tolist() == [-2.5]
        assert spec.iterations == 0
        if want_vectors:
            assert spec.vectors.tolist() == [[1.0]]
            assert spec.residual == 0.0


@pytest.mark.parametrize("want_vectors", [False, True])
def test_symbol_is_split_without_a_bitwise_check(want_vectors, monkeypatch):
    block = pr.periodic_prolate(pr.ProlateParams(M=256, N=65, K=20))
    want = pr.eigh_householder_ql(block.dense(), want_vectors=want_vectors)

    def checked(sym):
        raise AssertionError("a symbol was tested for centrosymmetry")

    monkeypatch.setattr(es, "_parity_blocks", checked)
    got = pr.eigh_householder_ql(block, want_vectors=want_vectors)
    assert np.array_equal(got.values, want.values)
    assert got.iterations == want.iterations
    if want_vectors:
        assert np.array_equal(got.vectors, want.vectors)
        assert got.residual == want.residual


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 3 * NB + 3),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    zero_fraction=st.sampled_from([0.0, 0.5, 0.95]),
)
def test_split_properties_on_random_centrosymmetric(n, seed, scale, zero_fraction):
    rng = np.random.default_rng(seed)
    a = _random_centrosymmetric(rng, n, scale)
    zero = rng.random((n, n)) < zero_fraction
    a[zero | zero.T | zero[::-1, ::-1] | zero.T[::-1, ::-1]] = 0.0
    unit = _unit(a)
    spec = pr.eigh_householder_ql(a, want_vectors=True)
    assert abs(math.fsum(spec.values) - math.fsum(np.diag(a))) <= (
        n * REDUCTION_RATIO * unit
    )
    q = spec.vectors
    assert np.abs(q.T @ q - np.eye(n)).max() <= REDUCTION_RATIO * n * UNIT_ROUNDOFF
    assert spec.residual <= REDUCTION_RATIO * unit
    _assert_parity(q)
    jacobi = pr.eigh_jacobi(a).values
    assert np.abs(spec.values - jacobi).max() <= 2 * REDUCTION_RATIO * unit


def _lapack_width_blocks():
    yield pr.ProlateParams(M=1024, N=256, K=128)
    yield pr.ProlateParams(M=3072, N=768, K=384)
    m = 64
    while m <= 2048:  # the ratio sweep: N = M/4, K = M/8
        yield pr.ProlateParams(M=m, N=m // 4, K=m // 8)
        m *= 2


def test_split_widths_match_lapack():
    # LAPACK is an oracle for the tests only
    for params in _lapack_width_blocks():
        b = pr.periodic_prolate(params).dense()
        values = pr.eigh_householder_ql(b).values
        lapack = np.linalg.eigvalsh(b)[::-1]
        assert np.abs(values - lapack).max() <= 2 * REDUCTION_RATIO * _unit(b), params
        for eps in (1e-3, 1e-6, 1e-9, 1e-12):
            assert pr.transition_width(values, eps) == pr.transition_width(
                lapack, eps
            ), (params, eps)
