"""Matrix builder tests: frozen oracle values plus structural invariants."""
import math
import tracemalloc

import numpy as np
import pytest

import prolate as pr

# Extended-precision (50-digit) evaluations of the entry formula, frozen.
DIRICHLET_M1024_K128_K1 = 0.22576890682761106
PERIODIC_M8_K1_OFF3 = -0.05177669529663688


def test_params_validation():
    with pytest.raises(pr.ParameterError):
        pr.ProlateParams(M=8, N=9, K=1)  # N > M
    with pytest.raises(pr.ParameterError):
        pr.ProlateParams(M=8, N=4, K=4)  # 2K+1 >= M
    with pytest.raises(pr.ParameterError):
        pr.ProlateParams(M=8, N=4, K=-1)
    with pytest.raises(pr.ParameterError):
        pr.ProlateParams(M=0, N=1, K=0)
    with pytest.raises(pr.ParameterError):
        pr.ProlateParams(M=8.0, N=4, K=1)
    with pytest.raises(pr.ParameterError, match="M must be <= 2\\*\\*53"):
        pr.ProlateParams(M=2**53 + 1, N=4, K=1)  # no longer an exact double
    assert pr.periodic_prolate(pr.ProlateParams(M=2**53, N=4, K=1)).symbol[0] == 3 / 2**53
    p = pr.ProlateParams(M=1024, N=256, K=128)
    assert p.W == 257 / 2048
    assert p.cluster_point == 64.25


def _dirichlet(params, k):
    """Scalar Dirichlet-kernel entry at offset k: the oracle for the symbol."""
    if k == 0:
        return (2 * params.K + 1) / params.M
    return math.sin(2.0 * math.pi * params.W * k) / (
        params.M * math.sin(math.pi * k / params.M)
    )


# Every block the benchmark, the ratio sweep, commute and the projector build.
SYMBOL_BLOCKS = (
    [(1024, 256, 128), (3072, 768, 384), (512, 128, 64), (192, 48, 23),
     (256, 64, 31), (128, 32, 15), (64, 16, 7), (96, 24, 11)]
    + [(m, m // 4, m // 8) for m in (64, 128, 256, 512, 1024, 2048, 4096, 8192)]
    + [(256, 128, 63), (3008, 752, 375)]
    + [(n, n, math.floor(n * w)) for n, w in
       ((128, 257 / 2048), (256, 257 / 2048), (1024, 0.2), (8, 0.1))]
)


@pytest.mark.parametrize("m,n,k", SYMBOL_BLOCKS)
def test_periodic_symbol_matches_scalar_formula_bitwise(m, n, k):
    p = pr.ProlateParams(M=m, N=n, K=k)
    oracle = np.array([_dirichlet(p, d) for d in range(n)])
    assert np.array_equal(pr.periodic_prolate(p).symbol, oracle)


def test_dirichlet_diagonal_limit():
    p = pr.ProlateParams(M=1024, N=256, K=128)
    assert pr.periodic_prolate(p).symbol[0] == 257 / 1024


def test_dirichlet_quarter_period():
    p = pr.ProlateParams(M=4, N=3, K=1)
    assert pr.periodic_prolate(p).symbol[2] == pytest.approx(-0.25, abs=1e-15)


# The full period: offsets 0..1023 of the (1024, 256, 128) kernel.
FULL_PERIOD = pr.ProlateParams(M=1024, N=1024, K=128)


def test_dirichlet_extended_precision_value():
    assert pr.periodic_prolate(FULL_PERIOD).symbol[1] == pytest.approx(
        DIRICHLET_M1024_K128_K1, abs=1e-15
    )


def test_dirichlet_against_mpmath_sweep():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    symbol = pr.periodic_prolate(FULL_PERIOD).symbol
    w = mp.mpf(257) / 2048
    for k in (2, 3, 7, 100, 511, 1023, -5, -1023):
        exact = mp.sin(2 * mp.pi * w * k) / (1024 * mp.sin(mp.pi * mp.mpf(k) / 1024))
        assert symbol[abs(k)] == pytest.approx(float(exact), rel=1e-13)


def test_periodic_prolate_single_entry():
    p = pr.ProlateParams(M=1024, N=1, K=128)
    mat = pr.periodic_prolate(p).dense()
    assert mat.shape == (1, 1)
    assert mat[0, 0] == 257 / 1024


def test_periodic_prolate_full_trace():
    p = pr.ProlateParams(M=16, N=16, K=7)
    mat = pr.periodic_prolate(p).dense()
    assert np.trace(mat) == pytest.approx(15.0, abs=1e-12)


def test_periodic_prolate_frozen_entry():
    p = pr.ProlateParams(M=8, N=4, K=1)
    mat = pr.periodic_prolate(p).dense()
    assert mat[0, 3] == pytest.approx(PERIODIC_M8_K1_OFF3, abs=1e-16)
    # closed form at offset 3: 2*pi*W*3 = 9*pi/8 with W = 3/16
    assert mat[0, 3] == pytest.approx(
        math.sin(9 * math.pi / 8) / (8 * math.sin(3 * math.pi / 8)), abs=1e-16
    )


def test_periodic_prolate_symmetry_and_formula():
    p = pr.ProlateParams(M=64, N=24, K=9)
    mat = pr.periodic_prolate(p).dense()
    assert np.array_equal(mat, mat.T)
    m, n = np.meshgrid(np.arange(24), np.arange(24), indexing="ij")
    off = m - n
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = np.sin(2 * np.pi * p.W * off) / (64 * np.sin(np.pi * off / 64))
    direct[off == 0] = 19 / 64
    assert np.abs(mat - direct).max() <= 1e-14


def test_periodic_prolate_entries_peak_on_diagonal():
    for m, n, k in ((64, 24, 9), (33, 33, 5), (16, 8, 7)):
        sym = pr.periodic_prolate(pr.ProlateParams(M=m, N=n, K=k)).symbol
        assert np.all(np.abs(sym) <= sym[0] + 1e-15)


def test_quadratic_form_range():
    p = pr.ProlateParams(M=64, N=32, K=15)
    mat = pr.periodic_prolate(p).dense()
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.standard_normal(32)
        x /= np.linalg.norm(x)
        q = x @ mat @ x
        assert 0.0 <= q <= 1.0 + 1e-12


@pytest.mark.parametrize("m,k", [(24, 5), (33, 7)])
def test_bandlimit_projection_identity(m, k):
    # full-size block equals conjugating the band projector by the DFT
    p = pr.ProlateParams(M=m, N=m, K=k)
    dense = pr.periodic_prolate(p).dense()
    f = _dft(m)
    proj = np.zeros((m, m))
    keep = np.r_[0 : k + 1, m - k : m]  # bins 0..k and m-k..m-1
    proj[keep, keep] = 1.0
    via_dft = f.conj().T @ proj @ f
    assert np.abs(via_dft.imag).max() <= 1e-12
    assert np.abs(via_dft.real - dense).max() <= 1e-12


def test_builders_finite_at_extreme_bandwidth():
    p = pr.ProlateParams(M=16, N=16, K=7)  # 2K+1 = 15, widest admissible band
    assert np.isfinite(pr.periodic_prolate(p).dense()).all()
    assert np.isfinite(pr.sinc_prolate(16, p.W).dense()).all()


def _dense_by_index(symbol):
    idx = np.abs(np.subtract.outer(np.arange(symbol.size), np.arange(symbol.size)))
    return symbol[idx]


@pytest.mark.parametrize("n", [1, 2, 3, 257])
def test_dense_matches_index_construction_bitwise(n):
    symbol = np.random.default_rng(n).standard_normal(n)
    dense = pr.SymbolMatrix(symbol).dense()
    assert dense.flags.c_contiguous and dense.flags.writeable
    assert np.array_equal(dense, _dense_by_index(symbol))


def test_dense_allocates_only_the_result():
    symbol = pr.sinc_prolate(2048, 0.25)
    tracemalloc.start()
    try:
        dense = symbol.dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * dense.nbytes


def test_sinc_prolate_values():
    s = pr.sinc_prolate(4, 0.25)
    assert s.symbol[0] == 0.5  # analytic limit 2W
    assert s.symbol[1] == pytest.approx(1.0 / math.pi, abs=1e-16)
    dense = s.dense()
    assert np.array_equal(dense, dense.T)
    k = np.arange(1, 12)
    sym = pr.sinc_prolate(12, 0.37).symbol
    assert np.all(np.abs(sym[1:]) <= 1.0 / (np.pi * k) + 1e-15)


def test_sinc_prolate_rejects_bad_bandwidth():
    for w in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(pr.ParameterError):
            pr.sinc_prolate(8, w)
    with pytest.raises(pr.ParameterError):
        pr.sinc_prolate(0, 0.25)


def _dft(m):
    """Unitary DFT matrix from numpy's FFT, independent of the builders."""
    return np.fft.fft(np.eye(m), axis=0) / math.sqrt(m)


def test_dft_small_cases():
    assert np.array_equal(pr.dft_submatrix(1, 1), np.ones((1, 1), dtype=complex))
    f2 = pr.dft_submatrix(2, 1)
    assert np.abs(f2 - np.array([[1, 1], [1, -1]]) / math.sqrt(2)).max() <= 1e-15
    f4 = pr.dft_submatrix(4, 1)
    expected = 0.5 * np.array([1, -1j, -1, 1j])
    assert np.abs(f4[:, 1] - expected).max() <= 1e-15
    for m, f in ((2, f2), (4, f4)):
        assert np.abs(f - _dft(m)).max() <= 1e-15


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 64])
def test_dft_unitary(m):
    f = pr.dft_submatrix(m, 1)
    assert np.abs(f - _dft(m)).max() <= 1e-15
    assert np.abs(f @ f.conj().T - np.eye(m)).max() <= 1e-12


def test_dft_submatrix_leading_block():
    sub = pr.dft_submatrix(4, 2)
    assert np.abs(sub - 0.5 * np.array([[1, 1], [1, -1j]])).max() <= 1e-15
    f = _dft(8)
    assert np.abs(pr.dft_submatrix(8, 2) - f[:4, :4]).max() <= 1e-15


def test_dft_submatrix_wraps_cyclically():
    f = _dft(8)
    sub = pr.dft_submatrix(8, 2, row_offset=6, col_offset=5)
    rows = [6, 7, 0, 1]
    cols = [5, 6, 7, 0]
    assert np.abs(sub - f[np.ix_(rows, cols)]).max() <= 1e-15
    # offsets are cyclic, so a full-period shift changes nothing
    assert np.array_equal(sub, pr.dft_submatrix(8, 2, 14, -3))


def test_dft_submatrix_rejects_non_divisor():
    with pytest.raises(pr.ParameterError):
        pr.dft_submatrix(8, 3)
    with pytest.raises(pr.ParameterError):
        pr.dft_submatrix(8, 0)


def test_dft_submatrix_refuses_non_integer_offsets():
    # int() would read 1.7 and True both as offset 1
    for offsets in ((1.7, 0), (0, 2.0), (True, 0), (0, True)):
        with pytest.raises(pr.ParameterError, match="offset must be an integer"):
            pr.dft_submatrix(8, 2, *offsets)
    i = np.int64
    assert np.array_equal(pr.dft_submatrix(8, 2, i(-3), i(9)), pr.dft_submatrix(8, 2, 5, 1))


def test_dft_submatrix_indices_stay_exact_past_int64():
    # offsets near and past 2**63 are reduced mod m before numpy sees them
    big = 2**63 - 5
    for row, col in ((big, 0), (0, big), (big, big), (10**23, -(10**23))):
        expected = pr.dft_submatrix(60, 4, row % 60, col % 60)
        assert np.array_equal(pr.dft_submatrix(60, 4, row, col), expected)
    # the largest m whose phases j*k fit in int64, and the sizes past it;
    # at the top, row = col = m - 1 has phase (m - 1)^2 = 1 mod m
    top = math.isqrt(2**63 - 1)
    (entry,) = pr.dft_submatrix(top, top, top - 1, top - 1).ravel()
    assert entry == np.exp(-2j * np.pi * 1 / top) / math.sqrt(top)
    for m, p in ((top + 1, top + 1), (3 * 2**31, 3 * 2**21)):
        message = f"dimension must be <= {top}, got {m}"
        with pytest.raises(pr.ParameterError, match=message):
            pr.dft_submatrix(m, p)


def test_partial_fourier_single_column():
    # floor(8*0.1) = 0: the frame is the one constant column, its projector
    # the constant block 1/8, which is the square Dirichlet block at K = 0
    column = np.full((8, 1), 1 / math.sqrt(8))
    block = pr.periodic_prolate(pr.ProlateParams(M=8, N=8, K=0)).dense()
    assert np.abs(column @ column.T - block).max() <= 1e-15


def test_builders_refuse_bool_and_accept_numpy_integers():
    for call in (
        lambda: pr.sinc_prolate(True, 0.25),
        lambda: pr.dft_submatrix(True, True),
        lambda: pr.dft_submatrix(8, True),
        lambda: pr.ProlateParams(M=8, N=True, K=1),
    ):
        with pytest.raises(pr.ParameterError, match="integer, got True"):
            call()
    i = np.int64
    assert np.array_equal(pr.sinc_prolate(i(6), 0.25).symbol, pr.sinc_prolate(6, 0.25).symbol)
    assert np.array_equal(pr.dft_submatrix(i(8), i(2), 3, 5), pr.dft_submatrix(8, 2, 3, 5))
    assert pr.ProlateParams(M=i(8), N=i(4), K=i(1)) == pr.ProlateParams(M=8, N=4, K=1)


def test_public_surface():
    for name in pr.__all__:
        assert getattr(pr, name) is not None, name
    removed = {"EtaZetaTable", "bandlimit_index_set", "dft_matrix",
               "dirichlet_entry", "partial_fourier", "sampled_exponential",
               "tail_term"}
    assert not removed & set(pr.__all__)
    assert not any(hasattr(pr, name) for name in removed)
