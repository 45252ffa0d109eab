"""Transition bound evaluation and clustering certification tests."""
import math

import numpy as np
import pytest

import prolate as pr
import prolate.bounds as bounds
from prolate.cli import main

# 50-digit evaluation of the bound formula, frozen.
BOUND_256_1024_1E3 = 89.40309606116836


def test_bound_frozen_value():
    assert pr.transition_bound(256, 1024, 1e-3) == pytest.approx(
        BOUND_256_1024_1E3, rel=1e-12
    )


def test_bound_ratio_term_clamps_to_zero():
    # 8*pi*((m/n)^2 - 1)*eps >= 1 kills the second term exactly
    n, m, eps = 64, 1024, 1e-3
    first = (4 / math.pi**2 * math.log(8 * n) + 6) * math.log(16 / eps)
    assert pr.transition_bound(n, m, eps) == first


def test_bound_monotone_in_epsilon():
    grid = [1e-12, 1e-9, 1e-6, 1e-3, 1e-2, 0.4]
    values = [pr.transition_bound(256, 1024, e) for e in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bound_rejects_bad_arguments():
    for eps in (0.0, 0.5, -1e-3, 0.7):
        with pytest.raises(pr.ParameterError):
            pr.transition_bound(256, 1024, eps)
    with pytest.raises(pr.ParameterError):
        pr.transition_bound(1024, 1024, 1e-3)
    with pytest.raises(pr.ParameterError):
        pr.transition_bound(2048, 1024, 1e-3)
    for n, m in ((True, 2), (0, 2), (2, 8.0)):
        with pytest.raises(pr.ParameterError):
            pr.transition_bound(n, m, 1e-3)
    assert pr.transition_bound(np.int64(256), np.int64(1024), 1e-3) == pr.transition_bound(
        256, 1024, 1e-3
    )


def _orders_as_written_before(n, m, eps):
    # transition_bound's ratio term and the unrounded orders of
    # truncation_order and certified_order, each as it wrote its formula
    ratio = m / n
    arg = 8.0 * math.pi * (ratio**2 - 1.0) * eps
    ratio_term = 2.0 * max(-math.log(arg) / math.log(ratio), 0.0)
    truncation = max(-math.log(arg) / (2.0 * math.log(ratio)), 0.0)
    arg = math.pi / 32.0 * (ratio**2 - 1.0) * eps
    certified = max(-math.log(arg) / (2.0 * math.log(ratio)), 0.0)
    return ratio_term, truncation, certified


def test_series_order_matches_each_formula_it_replaced_bitwise():
    eps_grid = [0.49, 0.1, 1e-3, 1e-6, 1e-9, 1e-12, 1e-13, 1e-17, 1e-100, 1e-300]
    for n in (1, 2, 3, 7, 64, 255, 256, 1000, 1023, 4096):
        for m in sorted({n + 1, n + 2, 2 * n - 1, 2 * n, 4 * n + 1, 1024, 8192}):
            if m <= n:
                continue
            for eps in eps_grid:
                ratio_term, trunc, cert = _orders_as_written_before(n, m, eps)
                assert 4.0 * bounds._series_order(m / n, 8.0 * math.pi, eps) == ratio_term
                assert bounds._series_order(m / n, 8.0 * math.pi, eps) == trunc
                assert bounds._series_order(m / n, math.pi / 32.0, eps) == cert


def test_bound_refuses_an_eps_whose_ratio_term_underflows():
    # 8 pi ((m/n)^2 - 1) eps rounds to 0: no finite order, a ParameterError
    with pytest.raises(pr.ParameterError, match="too small"):
        pr.transition_bound(10**6, 10**6 + 1, 5e-324)
    assert math.isfinite(pr.transition_bound(10**6, 10**6 + 1, 1e-300))


def test_transition_width_counting():
    assert pr.transition_width(np.array([1.0, 1.0, 0.0, 0.0]), 1e-3) == 0
    assert pr.transition_width(np.array([0.9, 0.5, 0.1]), 0.2) == 1
    # strict inequalities: both boundary values are excluded here
    assert pr.transition_width(np.array([0.8, 0.3, 0.2]), 0.2) == 1


def test_certify_clustering_small_case():
    params = pr.ProlateParams(M=64, N=16, K=8)
    (report,) = pr.certify_spectrum_clustering(params, [1e-3])
    assert report.passed
    assert report.width <= report.bound


def test_certify_clustering_single_row():
    p = pr.ProlateParams(M=4, N=1, K=1)
    (report,) = pr.certify_spectrum_clustering(p, [0.2])
    assert report.spectrum.values.shape == (1,)
    assert report.spectrum.values[0] == pytest.approx(0.75, abs=1e-15)
    assert report.width in (0, 1)
    assert report.passed
    assert report.lower_margin is None and report.upper_margin is None


def test_certify_clustering_records_vacuous_indices():
    # huge cap at tiny epsilon pushes both indices out of [0, N)
    params = pr.ProlateParams(M=64, N=16, K=3)
    (report,) = pr.certify_spectrum_clustering(params, [1e-6])
    assert report.lower_index < 0
    assert report.lower_margin is None
    assert report.passed


def _spy(monkeypatch, name):
    """Record the first argument of every call of bounds.<name>."""
    original = getattr(bounds, name)
    calls = []

    def spy(a, *args, **kwargs):
        calls.append(a)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(bounds, name, spy)
    return calls


def test_certify_clustering_reuses_spectrum(monkeypatch):
    # one solve of the symbol-stored block serves every eps
    calls = _spy(monkeypatch, "eigh_householder_ql")
    p = pr.ProlateParams(M=64, N=16, K=5)
    reports = pr.certify_spectrum_clustering(p, (1e-3, 1e-6, 1e-9))
    assert [a.n for a in calls] == [16]
    assert [r.epsilon for r in reports] == [1e-3, 1e-6, 1e-9]
    assert all(r.spectrum is reports[0].spectrum for r in reports)


def test_certify_clustering_rejects_off_trace_spectrum(monkeypatch, capsys):
    # a solver answer for K +/- 1 has the right length, but its trace is off
    # by 2N/M: a numerical failure, exit 3 from the CLI
    for k in (4, 6):
        wrong = pr.eigh_householder_ql(
            pr.periodic_prolate(pr.ProlateParams(M=64, N=16, K=k))
        )
        monkeypatch.setattr(bounds, "eigh_householder_ql", lambda a: wrong)
        with pytest.raises(pr.EigensolveError, match="trace"):
            pr.certify_spectrum_clustering(pr.ProlateParams(M=64, N=16, K=5), [1e-4])
        assert main(["certify", "M=64", "N=16", "K=5"]) == 3
        assert main(["transition", "M=64", "N=16", "K=5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count('"failure": "numerical"') == 2


def test_certify_clustering_rejects_bad_arguments():
    p = pr.ProlateParams(M=64, N=64, K=5)
    with pytest.raises(pr.ParameterError):
        pr.certify_spectrum_clustering(p, [1e-4])  # needs N < M
    with pytest.raises(pr.ParameterError):
        pr.certify_spectrum_clustering(pr.ProlateParams(M=64, N=16, K=5), [1e-3, 0.6])


def test_certificates_refuse_eps_below_the_floor(monkeypatch):
    solves = _spy(monkeypatch, "eigh_householder_ql")
    grams = _spy(monkeypatch, "singular_values_via_gram")
    with pytest.raises(pr.ParameterError, match="1e-13"):
        pr.certify_spectrum_clustering(pr.ProlateParams(M=64, N=16, K=5), [1e-3, 1e-16])
    with pytest.raises(pr.ParameterError, match="1e-13"):
        pr.certify_dft_submatrix(64, 4, [1e-16])
    assert solves == [] and grams == []
    # the analytic bound and the width count keep the domain (0, 1/2)
    assert pr.transition_bound(16, 64, 1e-16) > 0.0
    assert pr.transition_width(np.array([1.0, 0.5, 0.0]), 1e-16) == 1


def test_widths_at_the_floor_match_mpmath():
    # 40-digit eigenvalues of the (256, 64, 31) block; below the floor QL
    # noise shows (width 45 against 27 at eps = 1e-16)
    mpmath = pytest.importorskip("mpmath")
    params = pr.ProlateParams(M=256, N=64, K=31)
    levels = [bounds.SPECTRUM_EPS_FLOOR, 1e-12]
    with mpmath.workdps(40):
        m, n, k = params.M, params.N, params.K
        symbol = [mpmath.mpf(2 * k + 1) / m] + [
            mpmath.sin(mpmath.pi * (2 * k + 1) * d / m) / (m * mpmath.sin(mpmath.pi * d / m))
            for d in range(1, n)
        ]
        block = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                block[i, j] = symbol[abs(i - j)]
        exact = mpmath.eigsy(block, eigvals_only=True)
        widths = [sum(1 for lam in exact if eps < lam < 1 - eps) for eps in levels]
    reports = pr.certify_spectrum_clustering(params, levels)
    assert [r.width for r in reports] == widths


def test_sweep_widths_match_lapack():
    # the ratio-sweep blocks N = M/4, K = M/8: QL widths equal LAPACK's at
    # the floor and at every default level
    levels = [bounds.SPECTRUM_EPS_FLOOR, 1e-12, 1e-9, 1e-6, 1e-3]
    for m in (64, 128, 256, 512, 1024, 2048, 4096):
        params = pr.ProlateParams(M=m, N=m // 4, K=m // 8)
        reports = pr.certify_spectrum_clustering(params, levels)
        lam = np.linalg.eigvalsh(pr.periodic_prolate(params).dense())
        assert [r.width for r in reports] == [
            pr.transition_width(lam, eps) for eps in levels
        ], m


def test_every_small_block_matches_lapack():
    # ROADMAP item 15(b): every prolate block with M <= 24 (2,234 blocks),
    # against the report that LAPACK's descending spectrum gives at the same
    # bound and centre
    levels = [1e-3, 1e-6, 1e-9, 1e-12, bounds.SPECTRUM_EPS_FLOOR]
    blocks = 0
    for m in range(2, 25):
        for n in range(1, m):
            for k in range((m - 2) // 2 + 1):
                params = pr.ProlateParams(M=m, N=n, K=k)
                lapack = pr.Spectrum(
                    np.linalg.eigvalsh(pr.periodic_prolate(params).dense())[::-1]
                )
                nw2 = 2 * ((n * (2 * k + 1)) // (2 * m))
                for report in pr.certify_spectrum_clustering(params, levels):
                    eps = report.epsilon
                    ref = bounds._clustering_report(
                        lapack, eps, pr.transition_bound(n, m, eps), nw2, eps, 1.0 - eps
                    )
                    assert (
                        report.width, report.lower_index_ok, report.upper_index_ok,
                        report.width_ok,
                    ) == (
                        ref.width, ref.lower_index_ok, ref.upper_index_ok, ref.width_ok,
                    ), (m, n, k, eps)
                blocks += 1
    assert blocks == 2234


_QL_LOW = pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="an eigenvalue within 5.3e-16 of a level: QL counts one too few; "
    "ROADMAP items 5 and 12",
)


@pytest.mark.parametrize(
    "mnk",
    [
        (48, 20, 10),
        pytest.param((48, 28, 13), marks=_QL_LOW),
        (63, 39, 13),
        pytest.param((64, 25, 13), marks=_QL_LOW),
        (64, 30, 12),
        pytest.param((64, 30, 19), marks=_QL_LOW),
        pytest.param((64, 37, 19), marks=_QL_LOW),
        pytest.param((64, 39, 13), marks=_QL_LOW),
        pytest.param((64, 39, 18), marks=_QL_LOW),
    ],
    ids=lambda mnk: "-".join(map(str, mnk)),
)
def test_near_level_widths_match_mpmath(mnk):
    # ROADMAP item 15: the nine blocks with M <= 64 whose widths at the floor
    # differ between QL and LAPACK; 40-digit eigenvalues of the float64 block
    # (each entry converted exactly) settle them
    mpmath = pytest.importorskip("mpmath")
    params = pr.ProlateParams(*mnk)
    eps = bounds.SPECTRUM_EPS_FLOOR
    dense = pr.periodic_prolate(params).dense()
    with mpmath.workdps(40):
        exact = mpmath.eigsy(mpmath.matrix(dense.tolist()), eigvals_only=True)
        width = sum(1 for lam in exact if eps < lam < 1 - eps)
    (report,) = pr.certify_spectrum_clustering(params, [eps])
    assert report.width == width


def test_certify_dft_unitary_case():
    (report,) = pr.certify_dft_submatrix(8, 1, [1e-3])
    assert report.width == 0
    assert report.bound == 0.0
    assert report.passed
    assert np.abs(report.spectrum.values - 1.0).max() <= 1e-12


def test_certify_dft_offsets_share_verdicts():
    reports = [
        pr.certify_dft_submatrix(64, 4, [1e-3], ro, co)[0]
        for ro, co in ((0, 0), (3, 7), (63, 16))
    ]
    baseline = reports[0]
    for report in reports[1:]:
        assert report.width == baseline.width
        assert report.passed == baseline.passed
        assert (
            report.lower_index_ok,
            report.upper_index_ok,
            report.width_ok,
        ) == (
            baseline.lower_index_ok,
            baseline.upper_index_ok,
            baseline.width_ok,
        )


def test_certify_dft_rejects_bad_divisor():
    with pytest.raises(pr.ParameterError):
        pr.certify_dft_submatrix(64, 5, [1e-3])
    with pytest.raises(pr.ParameterError):
        pr.certify_dft_submatrix(64, 4, [0.9])


def test_certify_dft_refuses_non_integer_offsets(monkeypatch):
    grams = _spy(monkeypatch, "singular_values_via_gram")
    for offsets in ((1.7, 0), (0, True)):
        with pytest.raises(pr.ParameterError, match="offset must be an integer"):
            pr.certify_dft_submatrix(8, 2, [1e-3], *offsets)
    assert grams == []
    i = np.int64
    (report,) = pr.certify_dft_submatrix(i(8), i(2), [1e-3], i(-3), i(1))
    (plain,) = pr.certify_dft_submatrix(8, 2, [1e-3], -3, 1)
    assert np.array_equal(report.spectrum.values, plain.spectrum.values)


def test_certify_dft_reuses_singular_values(monkeypatch):
    # one Gram solve serves every eps
    calls = _spy(monkeypatch, "singular_values_via_gram")
    reports = pr.certify_dft_submatrix(32, 4, (1e-3, 1e-6), 3, 7)
    assert [a.shape for a in calls] == [(8, 8)]
    assert [r.epsilon for r in reports] == [1e-3, 1e-6]
    assert all(r.spectrum is reports[0].spectrum for r in reports)
    assert all(r.passed for r in reports)


def test_certify_dft_rejects_mismatched_singular_values(monkeypatch, capsys):
    # sigma scaled by 1.001 square-sums 0.2% above L/p: a numerical failure,
    # exit 3 from the CLI
    sigma = pr.singular_values_via_gram(pr.dft_submatrix(1024, 4, 3, 7))
    monkeypatch.setattr(bounds, "singular_values_via_gram", lambda f: sigma * 1.001)
    with pytest.raises(pr.EigensolveError, match="L/p"):
        pr.certify_dft_submatrix(1024, 4, [1e-3], 3, 7)
    assert main(["certify", "M=1024", "p=4", "row=3", "col=7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert '"failure": "numerical"' in captured.err
    monkeypatch.setattr(bounds, "singular_values_via_gram", lambda f: sigma)
    (report,) = pr.certify_dft_submatrix(1024, 4, [1e-3], 3, 7)
    assert report.passed


@pytest.mark.xfail(
    strict=True,
    reason="GRAM_NOISE_FLOOR snaps sigma below ~3.2e-5 to zero, under the "
    "level sqrt(eps) = 1e-6; ROADMAP item 3",
)
def test_certify_dft_width_matches_lapack_at_tiny_eps(capsys):
    # the printed width is 27; LAPACK's singular values give 30
    assert main(["certify", "M=1024", "p=4", "row=3", "col=7", "eps=1e-12"]) == 0
    width = int(capsys.readouterr().out.splitlines()[-1].split(",")[5])
    sigma = np.linalg.svd(pr.dft_submatrix(1024, 4, 3, 7), compute_uv=False)
    inside = (sigma > math.sqrt(1e-12)) & (sigma < math.sqrt(1.0 - 1e-12))
    assert width == int(inside.sum())


@pytest.mark.parametrize("m", [32, 64, 128])
@pytest.mark.parametrize("eps", [1e-3, 1e-6])
def test_certification_grid_mini(m, eps):
    p = pr.ProlateParams(M=m, N=m // 4, K=m // 8)
    (report,) = pr.certify_spectrum_clustering(p, [eps])
    assert report.passed


@pytest.mark.parametrize("m,n,k", [(1024, 256, 128), (256, 64, 15)])
def test_near_one_count_between_index_bounds(m, n, k):
    # consequence of the two index inequalities: the plateau size sits
    # within ceil(half-width) of twice floor(NW)
    params = pr.ProlateParams(M=m, N=n, K=k)
    lam = pr.eigh_householder_ql(pr.periodic_prolate(params).dense()).values
    for eps in (1e-3, 1e-6):
        count = int((lam >= 1.0 - eps).sum())
        half = math.ceil(pr.transition_bound(n, m, eps))
        nw2 = 2 * ((n * (2 * k + 1)) // (2 * m))
        assert max(nw2 + 1 - half, 0) <= count <= min(nw2 + half + 1, n)


def test_certify_clustering_non_vacuous_upper_index():
    # narrow band and loose epsilon keep the upper index inside [0, N)
    params = pr.ProlateParams(M=1024, N=256, K=4)
    (report,) = pr.certify_spectrum_clustering(params, [0.4])
    assert report.upper_margin is not None
    assert report.lower_margin is None
    assert report.passed


def test_width_growth_is_logarithmic_under_doubling():
    eps = 1e-12
    widths = {}
    for m in (64, 128, 256, 512, 1024, 2048, 4096):
        p = pr.ProlateParams(M=m, N=m // 4, K=m // 8)
        spectrum = pr.eigh_householder_ql(pr.periodic_prolate(p).dense())
        widths[m] = pr.transition_width(spectrum.values, eps)
        assert widths[m] <= 2.0 * pr.transition_bound(m // 4, m, eps)
    sizes = sorted(widths)
    for small, large in zip(sizes, sizes[1:]):
        assert widths[large] >= widths[small]
        if small >= 256:
            assert widths[large] / widths[small] <= 1.5


def _assert_margins_match_verdicts(report):
    assert report.width_ok == (report.width_margin >= 0.0)
    assert report.width_margin == report.bound - report.width
    for ok, margin in (
        (report.lower_index_ok, report.lower_margin),
        (report.upper_index_ok, report.upper_margin),
    ):
        assert ok == (margin is None or margin >= 0.0)


def test_margins_match_verdicts():
    params = pr.ProlateParams(M=1024, N=256, K=128)
    for report in pr.certify_spectrum_clustering(params, (1e-3, 1e-12)):
        _assert_margins_match_verdicts(report)
        if report.upper_margin is not None:
            lam = report.spectrum.values
            assert report.upper_margin == report.epsilon - lam[report.upper_index]
    (report,) = pr.certify_dft_submatrix(1024, 4, [1e-6], 3, 7)
    _assert_margins_match_verdicts(report)
    assert report.upper_margin == math.sqrt(1e-6) - report.spectrum.values[
        report.upper_index
    ]


def test_margins_sign_on_failing_and_boundary_checks():
    from prolate.bounds import _clustering_report

    # indices 1 and 4 around nw2 = 2 with half-width 0.4 (bound 0.8)
    levels = dict(epsilon=0.1, half=0.4, nw2=2, low_level=0.1, high_level=0.9)
    failing = _clustering_report(
        pr.Spectrum(np.array([0.99, 0.5, 0.5, 0.5, 0.2])), **levels
    )
    assert not (failing.lower_index_ok or failing.upper_index_ok or failing.width_ok)
    assert failing.lower_margin == 0.5 - 0.9
    assert failing.upper_margin == 0.1 - 0.2
    assert failing.width_margin == 0.8 - 4
    _assert_margins_match_verdicts(failing)
    # a value exactly on its level passes with margin zero
    boundary = _clustering_report(
        pr.Spectrum(np.array([1.0, 0.9, 1.0, 1.0, 0.1])), **levels
    )
    assert (boundary.lower_margin, boundary.upper_margin) == (0.0, 0.0)
    assert boundary.lower_index_ok and boundary.upper_index_ok
    _assert_margins_match_verdicts(boundary)
