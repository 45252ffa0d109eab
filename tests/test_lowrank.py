"""Series split tests: eta evaluation, tail terms, truncation orders,
the rank-certified split with its Gershgorin tail certificate, and the
projector effective-rank check.
"""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import prolate as pr

PARAMS = pr.ProlateParams(M=1024, N=256, K=128)


def test_eta_closed_forms():
    assert pr.eta_even(2) == pytest.approx(math.pi**2 / 12, abs=1e-14)
    assert pr.eta_even(4) == pytest.approx(7 * math.pi**4 / 720, abs=1e-14)
    assert pr.eta_even(6) == pytest.approx(31 * math.pi**6 / 30240, abs=1e-14)
    assert pr.eta_even(40) == pytest.approx(1.0 - 2.0**-40, abs=1e-14)


def test_eta_matches_mpmath_to_the_last_bit():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(256):
        for s in range(2, 201, 2):
            assert pr.eta_even(s) == float(mpmath.altzeta(s)), s


def test_eta_monotone_and_bounded():
    values = [pr.eta_even(s) for s in range(2, 42, 2)]
    assert all(0.0 < v < 1.0 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_eta_from_the_shared_bernoulli_sequence_matches_a_fresh_recurrence():
    # reference: the closed form over B_0..B_200 from a recurrence of this test's own
    bern = [Fraction(1)]
    for j in range(1, 201):
        bern.append(-sum(math.comb(j + 1, i) * b for i, b in enumerate(bern) if b) / (j + 1))
    two_pi = 2 * pr.lowrank._PI
    expected = {
        s: float((1 - Fraction(1, 2 ** (s - 1))) * abs(bern[s]) * two_pi**s
                 / (2 * math.factorial(s)))
        for s in range(2, 201, 2)
    }
    # grown from B_0 one call at a time, then read back in descending order
    pr.lowrank._bernoulli.cache_clear()
    pr.lowrank._eta_float.cache_clear()
    for order in (range(2, 201, 2), range(200, 1, -2)):
        for s in order:
            assert pr.eta_even(s) == expected[s], s
    assert [pr.lowrank._bernoulli(j) for j in range(201)] == bern


def test_eta_rejects_bad_arguments():
    for s in (3, 1, 0, -2, 202, 2.0, True):
        with pytest.raises(pr.ParameterError):
            pr.eta_even(s)


def test_cached_eta_still_rejects_a_float_or_bool_equal_to_a_cached_s():
    assert pr.eta_even(2) == pr.eta_even(np.int64(2))
    for s in (2.0, True, np.float64(2.0)):
        with pytest.raises(pr.ParameterError, match="s must be an integer"):
            pr.eta_even(s)


def _tail_symbol(params, r, offsets):
    """Series term t(r; k) at each offset k, in the library's operation order."""
    m = params.M
    scale = 2.0 / (m * math.pi) * pr.eta_even(2 * r)
    return scale * (offsets / m) ** (2 * r - 1) * np.sin(2.0 * math.pi * params.W * offsets)


def _tail_term(params, r, k):
    """Series term t(r; k) at one offset."""
    return float(_tail_symbol(params, r, np.array([float(k)]))[0])


def _factors(params, order):
    """The series' factored form L = U D V^T - V D U^T, from expanding
    (i - j)^(2r-1) sin(2 pi W (i - j)): D and the monomial-times-oscillation
    columns U = (k/M)^p sin(2 pi W k), V = (k/M)^p cos(2 pi W k), p < 2R."""
    m = params.M
    rows = np.arange(params.N, dtype=np.float64)
    coeff = np.zeros((2 * order, 2 * order))
    for r in range(1, order + 1):
        scale = 2.0 / (m * math.pi) * pr.eta_even(2 * r)
        for p in range(2 * r):
            coeff[2 * r - 1 - p, p] = scale * (-1) ** p * math.comb(2 * r - 1, p)
    powers = (rows[:, None] / m) ** np.arange(2 * order)[None, :]
    phase = 2.0 * math.pi * params.W * rows
    return coeff, powers * np.sin(phase)[:, None], powers * np.cos(phase)[:, None]


def _fourier_frame(n, w):
    """n x (2 floor(nw) + 1) frame of unit sampled exponentials at k/n, |k| <= nw."""
    ks = np.arange(-math.floor(n * w), math.floor(n * w) + 1)
    return np.exp(2j * np.pi * np.outer(np.arange(n), ks) / n) / math.sqrt(n)


def test_tail_term_zero_offset():
    for r in (1, 2, 5):
        assert _tail_term(PARAMS, r, 0) == 0.0


def test_tail_term_envelope():
    m, n = PARAMS.M, PARAMS.N
    for r in (1, 2, 3, 6):
        cap = 2.0 / (math.pi * m) * (n / m) ** (2 * r - 1)
        for k in (-n + 1, -37, 1, 100, n - 1):
            assert abs(_tail_term(PARAMS, r, k)) <= cap + 1e-18


def test_series_sums_to_kernel_difference():
    # the full series reproduces (periodic - sinc) entries offset by offset
    m = PARAMS.M
    w = PARAMS.W
    for k in (1, 37, 100, 255):
        total = sum(_tail_term(PARAMS, r, k) for r in range(1, 41))
        direct = math.sin(2 * math.pi * w * k) / (m * math.sin(math.pi * k / m)) - (
            math.sin(2 * math.pi * w * k) / (math.pi * k)
        )
        assert total == pytest.approx(direct, abs=1e-13)


def test_truncation_order_frozen_values():
    assert pr.truncation_order(PARAMS, 1e-3) == 1  # formula value 0.3518...
    assert pr.truncation_order(PARAMS, 1e-6) == 3  # formula value 2.8433...
    wide = pr.ProlateParams(M=1024, N=64, K=128)
    assert pr.truncation_order(wide, 1e-3) == 0  # log argument above 1


def test_truncation_order_monotone_in_epsilon():
    grid = [1e-12, 1e-9, 1e-6, 1e-3, 1e-1]
    orders = [pr.truncation_order(PARAMS, e) for e in grid]
    assert all(a >= b for a, b in zip(orders, orders[1:]))


def test_certified_order_dominates_and_certifies():
    for eps in (1e-2, 1e-3, 1e-6, 1e-9, 1e-12):
        certified = pr.certified_order(PARAMS, eps)
        assert certified >= pr.truncation_order(PARAMS, eps)
        assert pr.tail_bound_at(PARAMS, certified) <= eps / 16.0
    assert pr.certified_order(PARAMS, 1e-3) == 3
    assert pr.certified_order(PARAMS, 1e-6) == 5


def test_certified_order_is_minimal():
    # the closed form must agree with a brute-force search for the
    # smallest order whose certified tail bound clears eps/16
    for m, n in ((1024, 256), (1024, 64), (512, 384), (64, 63)):
        params = pr.ProlateParams(M=m, N=n, K=1)
        for eps in (0.4, 1e-2, 1e-4, 1e-8, 1e-12):
            brute = 0
            while pr.tail_bound_at(params, brute) > eps / 16.0:
                brute += 1
            assert pr.certified_order(params, eps) == brute


def test_zero_order_split_is_pure_tail():
    # wide ratio and large epsilon: certified order 0, everything is tail
    wide = pr.ProlateParams(M=1024, N=64, K=128)
    eps = 0.4
    parts = pr.lowrank_tail_split(wide, eps)
    assert parts.order == 0
    assert pr.lowrank._range_basis(wide, 2 * parts.order).shape == (0, 64)
    assert np.all(pr.SymbolMatrix(parts.symbol).dense() == 0.0)
    assert parts.tail_bound <= eps / 16.0
    dense = pr.periodic_prolate(wide).dense() - pr.sinc_prolate(64, wide.W).dense()
    assert np.abs(dense).sum(axis=1).max() <= eps / 16.0


@pytest.mark.parametrize("eps,order", [(1e-3, 3), (1e-6, 5)])
def test_split_certificates(eps, order):
    parts = pr.lowrank_tail_split(PARAMS, eps)
    assert parts.order == order
    diff = (
        pr.periodic_prolate(PARAMS).dense()
        - pr.sinc_prolate(PARAMS.N, PARAMS.W).dense()
    )
    residual = diff - pr.SymbolMatrix(parts.symbol).dense()
    row_sum = np.abs(residual).sum(axis=1).max()
    assert row_sum <= parts.tail_bound
    assert parts.tail_bound <= eps / 16.0
    assert np.abs(residual).max() <= parts.tail_bound / PARAMS.N
    assert parts.tail_bound / PARAMS.N <= eps / (16.0 * PARAMS.N)


def test_split_factored_form_matches():
    # the symbol against the factored form, whose columns the grown basis spans
    for eps in (1e-3, 1e-6, 1e-12):  # orders 3, 5, 10: all moderate
        parts = pr.lowrank_tail_split(PARAMS, eps)
        assert parts.order <= 10
        lowrank = pr.SymbolMatrix(parts.symbol).dense()
        d, u, v = _factors(PARAMS, parts.order)
        assert np.abs(u @ d @ v.T - v @ d @ u.T - lowrank).max() <= 1e-13
        basis = pr.lowrank._range_basis(PARAMS, 2 * parts.order)
        columns = np.hstack((u, v))
        assert np.abs(columns - basis.T @ (basis @ columns)).max() <= 1e-14


def test_split_structure():
    # even series terms make the truncated part exactly symmetric, while
    # the coefficient matrix is antisymmetric (swap-antisymmetric form)
    parts = pr.lowrank_tail_split(PARAMS, 1e-6)
    lowrank = pr.SymbolMatrix(parts.symbol).dense()
    assert np.array_equal(lowrank, lowrank.T)
    coeff = _factors(PARAMS, parts.order)[0]
    assert np.array_equal(coeff, -coeff.T)
    anti = np.add.outer(np.arange(10), np.arange(10))
    assert np.all(coeff[anti % 2 == 0] == 0.0)


def test_split_lowrank_matches_index_construction_bitwise():
    for params in (PARAMS, pr.ProlateParams(M=9, N=1, K=2), pr.ProlateParams(M=65, N=33, K=8)):
        parts = pr.lowrank_tail_split(params, 1e-6)
        n = params.N
        offsets = np.arange(-(n - 1), n, dtype=np.float64)
        symbol = np.zeros(offsets.size)
        for r in range(1, parts.order + 1):
            symbol += _tail_symbol(params, r, offsets)
        i = np.arange(n)
        lowrank = pr.SymbolMatrix(parts.symbol).dense()
        assert np.array_equal(lowrank, symbol[(i[:, None] - i[None, :]) + (n - 1)])


def test_split_evaluates_each_eta_once(monkeypatch):
    calls = []
    eta_even = pr.lowrank.eta_even
    monkeypatch.setattr(pr.lowrank, "eta_even", lambda s: calls.append(s) or eta_even(s))
    parts = pr.lowrank_tail_split(PARAMS, 1e-6)
    assert parts.order == 5
    assert calls == [2, 4, 6, 8, 10]


def test_split_with_undersized_order_violates_certificate():
    # the printed-formula order is too small to certify the eps/16 tail
    eps = 1e-3
    parts = pr.lowrank_tail_split(PARAMS, eps, order=pr.truncation_order(PARAMS, eps))
    diff = (
        pr.periodic_prolate(PARAMS).dense()
        - pr.sinc_prolate(PARAMS.N, PARAMS.W).dense()
    )
    row_sum = np.abs(diff - pr.SymbolMatrix(parts.symbol).dense()).sum(axis=1).max()
    assert row_sum > eps / 16.0
    assert parts.tail_bound > eps / 16.0


def test_split_certificate_verdicts():
    eps = 1e-3
    (good,) = pr.certify_lowrank_split(PARAMS, [eps])
    assert good.order == pr.certified_order(PARAMS, eps) == 3
    assert good.passed
    assert good.row_sum <= eps / 16.0 and good.entry <= eps / (16.0 * PARAMS.N)
    assert 0 < good.rank <= 4 * good.order
    (short,) = pr.certify_lowrank_split(PARAMS, [eps], order=1)
    assert short.order == 1
    assert short.row_sum > eps / 16.0
    assert not short.passed


def test_split_certificate_one_per_epsilon():
    certs = pr.certify_lowrank_split(PARAMS, (1e-3, 1e-6))
    assert [c.epsilon for c in certs] == [1e-3, 1e-6]
    assert [c.order for c in certs] == [3, 5]
    assert all(c.passed for c in certs)
    with pytest.raises(pr.ParameterError):
        pr.certify_lowrank_split(PARAMS, [0.6])
    with pytest.raises(pr.ParameterError):
        pr.certify_lowrank_split(pr.ProlateParams(M=64, N=64, K=5), [1e-3])


def test_split_checks_every_eps_and_order_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(pr.lowrank, "eta_even", lambda s: calls.append(s))
    monkeypatch.setattr(pr.lowrank, "periodic_prolate", lambda p: calls.append(p))
    near = pr.ProlateParams(M=1000, N=999, K=100)
    with pytest.raises(pr.ParameterError, match="order 7718 at M/N = 1.001"):
        pr.lowrank_tail_split(near, 1e-3)
    with pytest.raises(pr.ParameterError, match="order 7718"):
        pr.certify_lowrank_split(near, [1e-3])
    with pytest.raises(pr.ParameterError, match="order 101 at M/N = 4 "):
        pr.certify_lowrank_split(PARAMS, [1e-3], order=101)
    with pytest.raises(pr.ParameterError, match="epsilon"):
        pr.certify_lowrank_split(PARAMS, [1e-3, 0.6])
    with pytest.raises(pr.ParameterError, match="need N < M"):
        pr.lowrank_tail_split(pr.ProlateParams(M=64, N=64, K=5), 1e-3, order=2)
    for order in (-1, 3.0, True):
        with pytest.raises(pr.ParameterError, match="order must be"):
            pr.lowrank_tail_split(PARAMS, 1e-3, order=order)
    assert calls == []


def test_split_with_explicit_order_checks_eps():
    # eps is checked even when the order is given, not only when certified
    small = pr.ProlateParams(M=64, N=16, K=7)
    for eps in (5.0, 0.5, 0.0, -1e-3):
        with pytest.raises(pr.ParameterError, match="epsilon must lie in"):
            pr.lowrank_tail_split(small, eps, order=2)
    assert pr.lowrank_tail_split(small, 1e-3, order=2).order == 2


@pytest.mark.parametrize("params", [PARAMS, pr.ProlateParams(M=512, N=128, K=64)])
def test_split_residual_from_symbols_matches_dense_bitwise(params):
    difference = (
        pr.periodic_prolate(params).symbol - pr.sinc_prolate(params.N, params.W).symbol
    )
    # the certificate reads |residual| through the symbol's view
    certs = pr.certify_lowrank_split(params, (1e-3, 1e-6, 1e-9, 1e-12))
    for cert in certs:
        parts = pr.lowrank_tail_split(params, cert.epsilon)
        lowrank = pr.SymbolMatrix(parts.symbol).dense()
        dense = np.abs(pr.SymbolMatrix(difference).dense() - lowrank)
        from_symbol = pr.SymbolMatrix(np.abs(difference - parts.symbol)).dense()
        assert np.array_equal(from_symbol, dense)
        assert cert.row_sum == float(dense.sum(axis=1).max())
        assert cert.entry == float(dense.max())


def test_split_certificate_never_builds_the_lowrank_matrix():
    # the parts keep only the symbol, and the rank is measured in the span
    # of the factors: L Q and (I - Q Q^T) L go a band of rows at a time
    n = 1024
    params, certify = pr.ProlateParams(4 * n, n, n // 2), pr.certify_lowrank_split
    tracemalloc.start()
    try:
        certify(params, [1e-6])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * n * n


DEFAULT_EPS = (1e-3, 1e-6, 1e-9, 1e-12)


# 4R >= N at (64, 16, 7), (8, 2, 1) and (10, 4, 1); M/N near 1.2 at
# (318, 256, 96) and (1200, 1000, 100), where a basis grown from monomial
# columns missed L (R reaches 85 at the second)
@pytest.mark.parametrize("mnk", [
    (1024, 256, 128), (512, 128, 64), (64, 16, 7), (8, 2, 1), (10, 4, 1),
    (1000, 333, 77), (999, 100, 20), (2048, 256, 128), (318, 256, 96),
    (1200, 1000, 100),
], ids=lambda mnk: "-".join(map(str, mnk)))
def test_split_rank_in_the_factor_span_matches_lapack(mnk):
    # the certificate's rank against an independent count: LAPACK's SVD of
    # the dense low-rank part with the same noise snap
    params = pr.ProlateParams(*mnk)
    for cert in pr.certify_lowrank_split(params, DEFAULT_EPS):
        parts = pr.lowrank_tail_split(params, cert.epsilon)
        assert cert.order == parts.order
        lowrank = pr.SymbolMatrix(parts.symbol).dense()
        sigma = np.linalg.svd(lowrank, compute_uv=False)
        squares = sigma**2
        assert squares[0] > 0.0
        squares[squares < pr.eigensolve.GRAM_NOISE_FLOOR * squares[0]] = 0.0
        snapped = np.sqrt(squares)
        assert 0 < cert.rank <= 4 * cert.order
        assert cert.rank == int((snapped > pr.lowrank.RANK_CUT * snapped[0]).sum())
        basis = pr.lowrank._range_basis(params, 2 * cert.order)
        assert 0 < len(basis) <= min(params.N, 4 * cert.order)
        assert np.abs(basis @ basis.T - np.eye(len(basis))).max() <= 1e-14
        # Weyl: ||L - Q L_p Q^T||_2 <= 2 rho, so each sigma of L lies within
        # 2 rho of the one of L_p, padded with zeros, at its index; the
        # slack covers the rounding of the two LAPACK SVDs
        projected = np.zeros(sigma.size)
        projected[: len(basis)] = np.linalg.svd(basis @ lowrank @ basis.T, compute_uv=False)
        slack = 4 * params.N * np.finfo(float).eps * sigma[0]
        assert np.abs(sigma - projected).max() <= 2.0 * cert.range_residual + slack
        assert 2.0 * cert.range_residual <= pr.lowrank.RANK_CUT * sigma[0]


def test_split_rank_never_solves_an_n_by_n_matrix(monkeypatch):
    shapes = []
    solve = pr.lowrank.singular_values_via_gram
    monkeypatch.setattr(
        pr.lowrank, "singular_values_via_gram", lambda f: shapes.append(f.shape) or solve(f)
    )
    certs = pr.certify_lowrank_split(PARAMS, DEFAULT_EPS)
    assert all(4 * cert.order < PARAMS.N for cert in certs)
    assert shapes == [(4 * cert.order, 4 * cert.order) for cert in certs]


@pytest.mark.parametrize("params,eps,order", [
    (pr.ProlateParams(M=64, N=16, K=7), 1e-3, 0),
    (pr.ProlateParams(M=1024, N=64, K=128), 0.4, None),  # certified order 0
])
def test_split_without_factor_columns_has_rank_zero_and_no_solve(monkeypatch, params, eps, order):
    calls = []
    monkeypatch.setattr(pr.lowrank, "singular_values_via_gram", calls.append)
    (cert,) = pr.certify_lowrank_split(params, [eps], order=order)
    assert (cert.order, cert.rank, cert.range_residual) == (0, 0, 0.0)
    assert cert.passed == (cert.row_sum <= eps / 16.0)
    assert calls == []


@pytest.mark.parametrize("keep", [slice(1, None), slice(0, 0)])
def test_split_rank_refuses_a_basis_that_misses_the_lowrank_part(monkeypatch, keep):
    # without the sin(2 pi W k) direction, or with no direction at all, the
    # projected count would not be L's: an error, never a verdict
    basis = pr.lowrank._range_basis
    monkeypatch.setattr(pr.lowrank, "_range_basis", lambda *args: basis(*args)[keep])
    with pytest.raises(pr.EigensolveError, match="outside the span of its factors"):
        pr.certify_lowrank_split(PARAMS, [1e-6])


def test_range_basis_ends_a_chain_at_a_dependent_or_zero_column(monkeypatch):
    basis = pr.lowrank._range_basis
    # N = 1: sin(0) = 0 ends the sin chain at once, and k/M = 0 the cos chain
    one = pr.ProlateParams(M=9, N=1, K=2)
    assert np.array_equal(basis(one, 4), [[1.0]])
    assert basis(one, 0).shape == (0, 1)
    # a cos chain started inside the sin chain's span is dropped and ends:
    # only the sin chain's 5 rows remain
    with monkeypatch.context() as patch:
        patch.setattr(np, "cos", lambda x: 3.0 * np.sin(x))
        dependent = basis(PARAMS, 5)
    assert dependent.shape == (5, PARAMS.N)
    assert np.abs(dependent @ dependent.T - np.eye(5)).max() <= 1e-14
    # W = 1/4: to rounding the sin chain lives on odd k and the cos chain on
    # even k; the chains alternate until the sin chain's 4 odd directions
    # are spent, and the cos chain fills the last row
    quarter = basis(pr.ProlateParams(M=10, N=9, K=2), 5)
    assert quarter.shape == (9, 9)
    assert np.abs(quarter @ quarter.T - np.eye(9)).max() <= 1e-14
    odd = np.arange(9) % 2 == 1
    for row, on_odd in zip(quarter, [True, False] * 4 + [False]):
        assert np.abs(row[odd != on_odd]).max() <= 1e-15
    # at most min(N, 2 count) rows: the cap binds before the span is full
    assert basis(pr.ProlateParams(M=64, N=16, K=7), 20).shape == (16, 16)
    assert basis(pr.ProlateParams(M=64, N=16, K=7), 3).shape == (6, 16)


@pytest.mark.xfail(
    strict=True,
    reason="the Kahan-Parlett drop is a rounding test, not a dependence test; "
    "ROADMAP loose ends",
)
def test_range_basis_drops_columns_inside_the_span(monkeypatch):
    # cos patched to 3 sin starts the cos chain inside the sin chain's span,
    # so 3 rows span the count-3 space; the first pass leaves rounding that is
    # not aligned with the span, and 6 rows are kept
    monkeypatch.setattr(np, "cos", lambda x: 3.0 * np.sin(x))
    basis = pr.lowrank._range_basis(pr.ProlateParams(M=64, N=16, K=7), 3)
    assert basis.shape[0] == 3


@pytest.mark.parametrize("params", [PARAMS, pr.ProlateParams(M=2048, N=256, K=128)])
def test_split_rank_from_view_matches_dense_bitwise(params):
    # (2048, 256, 128) is the case whose rank count sits closest to the cut
    for eps in (1e-3, 1e-6, 1e-9, 1e-12):
        lowrank = pr.SymbolMatrix(pr.lowrank_tail_split(params, eps).symbol)
        view = pr.singular_values_via_gram(lowrank.view())
        assert np.array_equal(view, pr.singular_values_via_gram(lowrank.dense()))


@pytest.mark.xfail(
    strict=True,
    reason="the entry check eps/(16N) is below the rounding of the measured "
    "residual; ROADMAP item 7",
)
def test_split_verdict_follows_the_tail_bound_at_tiny_eps():
    # at eps=1e-14 the tail bound and the row sum pass, but the largest
    # residual entry, 1.3e-17, exceeds eps/(16N) = 2.4e-18
    eps = 1e-14
    try:
        (cert,) = pr.certify_lowrank_split(PARAMS, [eps])
    except pr.ParameterError:  # refusing an eps below a measured floor also mends it
        return
    assert cert.tail_bound <= eps / 16.0 and cert.row_sum <= eps / 16.0
    assert cert.passed


@pytest.mark.parametrize("eps", [1e-3, 1e-6])
def test_combined_split_effective_rank(eps):
    # periodic block minus the partial Fourier projector: the number of
    # eigenvalues escaping +-eps stays under the transition half-width cap
    frame = _fourier_frame(PARAMS.N, PARAMS.W)
    projector = (frame @ frame.conj().T).real
    delta = pr.periodic_prolate(PARAMS).dense() - projector
    values = pr.eigh_householder_ql(delta).values
    count = int((np.abs(values) > eps).sum())
    assert count <= pr.transition_bound(PARAMS.N, PARAMS.M, eps)


@pytest.mark.parametrize("n,w", [(5, 0.45), (128, 257 / 2048), (1024, 0.2)])
def test_partial_fourier_projector_is_the_square_dirichlet_block(n, w):
    # P = F F* has the Dirichlet symbol of M = N = n, K = floor(nw); at
    # 2K+1 = n (the first case) the frame spans C^n and P = I
    frame = _fourier_frame(n, w)
    k = (frame.shape[1] - 1) // 2
    if frame.shape[1] < n:
        block = pr.periodic_prolate(pr.ProlateParams(M=n, N=n, K=k)).dense()
    else:
        block = np.eye(n)
    assert np.abs(frame.conj().T @ frame - np.eye(2 * k + 1)).max() <= 1e-12
    assert np.abs(frame @ frame.conj().T - block).max() <= 1e-13


def test_projector_gap_rank_within_cap():
    count, cap = pr.projector_gap_rank(256, 257 / 2048, 1e-6)
    assert cap == pytest.approx(
        (4 / math.pi**2 * math.log(8 * 256) + 6) * math.log(15 / 1e-6), rel=1e-12
    )
    assert 0 < count <= cap


def test_projector_gap_rank_monotone_in_epsilon():
    loose, _ = pr.projector_gap_rank(128, 257 / 2048, 1e-3)
    tight, _ = pr.projector_gap_rank(128, 257 / 2048, 1e-6)
    assert loose <= tight


def test_projector_gap_rank_square_frame_edge():
    # frame spans all of C^n: the projector is the identity
    n, w = 5, 0.45
    assert 2 * math.floor(n * w) + 1 == n
    count, cap = pr.projector_gap_rank(n, w, 1e-3)
    lam = pr.eigh_householder_ql(pr.sinc_prolate(n, w).dense()).values
    assert count == int((np.abs(lam - 1.0) > 1e-3).sum())
    assert count <= cap
