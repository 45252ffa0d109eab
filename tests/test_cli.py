"""CLI tests: parsing, schemas, exit codes, and byte determinism."""
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prolate
from prolate.cli import (
    _KEYS,
    COMMUTE_MAX_N,
    MAX_DENSE_DIM,
    MAX_DFT_DIM,
    SPECTRUM_EPS_FLOOR,
    SWEEP_MAX_M,
    USAGE,
    UsageError,
    main,
    parse_args,
)


def test_parse_rejects_garbage():
    for argv in (
        [],
        ["frobnicate"],
        ["eigs", "M=8"],
        ["eigs", "M=8", "N=4", "K=1", "bogus=3"],
        ["eigs", "M=8", "N=4", "K=1", "M=8"],
        ["eigs", "M=1e3", "N=4", "K=1"],
        ["eigs", "M=8", "N=4", "K=1", "format=yaml"],
        ["transition", "M=64", "N=16", "K=8", "eps=0.9"],
        ["transition", "ratio-sweep", "M=100..400"],
        ["transition", "ratio-sweep", "M=512..64"],
        ["certify", "M=64", "N=16", "K=8", "p=4"],
        ["certify", "M=64", "N=16", "K=7", "row=3", "col=5"],
        ["decompose", "M=64", "N=16", "K=8", "order=-1"],
        ["eigs", "ratio-sweep", "M=64..128"],
        # integers are ASCII decimal digits with an optional leading minus
        ["eigs", "M=6_4", "N=16", "K=7"],
        ["eigs", "M=64", "N=+16", "K=7"],
        ["eigs", "M=64", "N=16", "K= 7"],
        ["eigs", "M=64", "N=16 ", "K=7"],
        ["eigs", "M=\u0666\u0664", "N=16", "K=7"],
        ["transition", "ratio-sweep", "M=64..\uff14\uff10\uff19\uff16"],
        ["eigs", "M=" + "1" * 5000, "N=16", "K=7"],
    ):
        assert main(argv) == 2, argv


@pytest.mark.parametrize("key, argv", [
    ("M", ["eigs", "M={}", "N=4", "K=1"]),
    ("row", ["dft-sub", "M=8", "p=2", "row={}"]),
])
def test_integer_past_the_digit_limit_is_too_large(key, argv, capsys):
    # a valid decimal integer longer than int() converts: named, not echoed
    assert main([arg.format("1" + "0" * 5000) for arg in argv]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"error: {key} is too large: 5001 decimal digits"


@pytest.mark.parametrize("argv, message", [
    (["transition", "M=64", "N=16", "K=7", "eps=1e-3,abc"], "bad epsilon value 'abc'"),
    (["transition", "ratio-sweep", "M=64"], "ratio-sweep needs M=LO..HI"),
    (["transition", "ratio-sweep", "M=64..128", "N=16"],
     "unexpected keys for ratio-sweep: ['N']"),
])
def test_parse_errors_name_their_cause(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == USAGE + f"error: {message}\n"


@pytest.mark.parametrize("flag", ["help", "-h", "--help"])
def test_help_prints_the_usage_with_no_error_line(flag, capsys):
    assert main([flag]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", USAGE)


def test_ratio_sweep_end_is_capped():
    # parsed only: the sweeps are never run
    top = parse_args(["transition", "ratio-sweep", f"M=64..{SWEEP_MAX_M}"])
    assert top.sweep == (64, SWEEP_MAX_M)
    for hi in (2048, 4096):
        assert parse_args(["transition", "ratio-sweep", f"M=64..{hi}"]).sweep == (64, hi)
    with pytest.raises(UsageError, match=str(SWEEP_MAX_M)):
        parse_args(["transition", "ratio-sweep", f"M=64..{SWEEP_MAX_M + 8}"])


def test_dense_size_limits():
    # parsed only: nothing is built or solved
    assert SWEEP_MAX_M // 4 <= MAX_DENSE_DIM  # the sweep's last N stays reachable
    top = MAX_DENSE_DIM
    for command in ("eigs", "transition", "certify", "decompose"):
        argv = [command, f"M={4 * top}", f"K={top}"]
        assert parse_args(argv + [f"N={top}"]).n == top
        with pytest.raises(UsageError, match=str(top)):
            parse_args(argv + [f"N={top + 1}"])
    with pytest.raises(UsageError, match=str(top)):
        parse_args(["eigs", "M=400000", "N=200000", "K=1"])
    top = MAX_DFT_DIM
    for command in ("certify", "dft-sub"):
        # the solver sees the L x L complex Gram, L = M/p
        assert parse_args([command, f"M={top * 4}", "p=4"]).p == 4
        with pytest.raises(UsageError, match=f"M/p must be <= {top}, got {top + 1}"):
            parse_args([command, f"M={(top + 1) * 4}", "p=4"])
    assert parse_args(["certify", "M=64", "p=0"]).p == 0  # left to the library


def test_commute_size_limit():
    # parsed only: nothing is built or solved
    top = COMMUTE_MAX_N
    assert top < MAX_DENSE_DIM
    assert parse_args(["commute", f"M={4 * top}", f"N={top}", "K=63"]).n == top
    with pytest.raises(UsageError, match=str(top)):
        parse_args(["commute", f"M={4 * top}", f"N={top + 1}", "K=63"])
    # other commands take the same N
    assert parse_args(["eigs", f"M={4 * top}", f"N={top + 1}", "K=63"]).n == top + 1


def test_parse_round_trip():
    config = parse_args(["certify", "M=1024", "p=4", "row=3", "col=7", "eps=1e-3,1e-6"])
    assert config.command == "certify"
    assert (config.m, config.p) == (1024, 4)
    assert (config.row_offset, config.col_offset) == (3, 7)
    assert config.epsilons == (1e-3, 1e-6)


_INT_FIELDS = {
    "M": "m", "N": "n", "K": "k", "p": "p", "row": "row_offset",
    "col": "col_offset", "order": "order",
}
_VALUES = st.one_of(
    st.integers(-3, 5000).map(str),
    st.sampled_from(["", "1e3", "0x10", "7.0", "1e-3", "csv", "json", "a..b"]),
    st.text(max_size=6),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(sorted(_KEYS)),
    pairs=st.lists(
        st.tuples(st.sampled_from(sorted(_INT_FIELDS) + ["eps", "format", "bogus"]),
                  _VALUES),
        max_size=7,
    ),
)
def test_parse_args_rejects_or_round_trips(command, pairs):
    argv = [command] + [f"{key}={value}" for key, value in pairs]
    try:
        config = parse_args(argv)
    except UsageError:
        return
    assert config.command == command
    for key, value in pairs:
        if key in _INT_FIELDS:
            assert getattr(config, _INT_FIELDS[key]) == int(value, 10)


def _spy(monkeypatch, name, record=lambda *args: args):
    """``record`` of every call to prolate.<name> made through any prolate module."""
    original = getattr(prolate, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(record(*args))
        return original(*args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if modname.startswith("prolate") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, spy)
    return calls


def _count_solves(monkeypatch):
    """Sizes of every eigh_householder_ql call made through any prolate module."""
    return _spy(
        monkeypatch,
        "eigh_householder_ql",
        lambda a, *rest: a.n if isinstance(a, prolate.SymbolMatrix) else len(a),
    )


def test_commute_eigendecomposes_each_matrix_once(monkeypatch, capsys):
    sizes = _count_solves(monkeypatch)
    # B and its tridiagonal T: two solves
    assert main(["commute", "M=64", "N=16", "K=7"]) == 0
    assert sorted(sizes) == [16, 16]
    # one solve serves all four default eps
    sizes.clear()
    assert main(["certify", "M=128", "N=32", "K=15"]) == 0
    assert sizes == [32]
    # one solve per M of the sweep, N = M/4
    sizes.clear()
    assert main(["transition", "ratio-sweep", "M=64..256"]) == 0
    assert sizes == [16, 32, 64]
    capsys.readouterr()


def test_eps_below_the_spectrum_floor_exits_2(monkeypatch, capsys):
    sizes = _count_solves(monkeypatch)
    for argv in (
        ["transition", "M=256", "N=64", "K=31", "eps=1e-16"],
        ["transition", "ratio-sweep", "M=64..256", "eps=1e-3,1e-16"],
        ["certify", "M=8192", "N=2048", "K=1024", "eps=1e-16"],
        ["certify", "M=1024", "p=4", "row=3", "col=7", "eps=1e-16"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"eps >= {SPECTRUM_EPS_FLOOR:g}" in captured.err
    assert sizes == []
    # the floor itself is accepted, and decompose keeps the domain (0, 1/2)
    at_floor = f"eps={SPECTRUM_EPS_FLOOR!r}"
    assert parse_args(["certify", "M=64", "p=4", at_floor]).epsilons == (
        SPECTRUM_EPS_FLOOR,
    )
    config = parse_args(["decompose", "M=1024", "N=256", "K=128", "eps=1e-16"])
    assert config.epsilons == (1e-16,)


_RANGE = "epsilon must lie in (0, 1/2), got {}"
_FLOOR = (
    f"certificates need eps >= {SPECTRUM_EPS_FLOOR:g}, the smallest level"
    " a computed spectrum resolves, got {}"
)
_EPS_FORMS = (
    ["transition", "M=256", "N=64", "K=31"],
    ["transition", "ratio-sweep", "M=64..256"],
    ["certify", "M=256", "N=64", "K=31"],
    ["certify", "M=256", "p=4", "row=3", "col=7"],
)


def test_rules_left_to_the_library_exit_2_before_any_work(monkeypatch, capsys):
    # the parser reads eps and order as numbers; the library judges them
    solves = _count_solves(monkeypatch)
    etas = _spy(monkeypatch, "eta_even")
    blocks = _spy(monkeypatch, "dft_submatrix")
    decompose = ["decompose", "M=256", "N=64", "K=31"]
    cases = [
        (form + [f"eps=1e-3,{eps}"], _RANGE.format(eps))
        for form in _EPS_FORMS + (decompose,)
        for eps in ("0.9", "nan")
    ]
    cases += [
        (form + ["eps=1e-3,1e-16"], _FLOOR.format("1e-16")) for form in _EPS_FORMS
    ]
    cases.append((decompose + ["order=-1"], "order must be non-negative, got -1"))
    for argv, message in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n"), argv
    assert (solves, etas, blocks) == ([], [], [])
    # decompose keeps the whole domain (0, 1/2): eps=1e-16 parses and runs
    # (its per-entry check fails on rounding there, ROADMAP item 7)
    assert main(["decompose", "M=64", "N=16", "K=7", "eps=1e-16"]) != 2
    rows = [line for line in capsys.readouterr().out.splitlines() if line[0] != "#"]
    assert len(rows) == 2 and rows[1].startswith("14,")
    assert etas and solves


def test_dft_blocks_past_int64(monkeypatch, capsys):
    # an offset past int64 names the same block as its residue mod M
    columns = []
    for row in (10**23, 10**23 % 64):
        assert main(["dft-sub", "M=64", "p=4", f"row={row}", "col=-5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"row={row} col=-5" in lines[1]
        columns.append([line.split(",")[1] for line in lines[3:]])
    assert len(columns[0]) == 16 and columns[0] == columns[1]
    # M past isqrt(2**63 - 1) would wrap the phases j*k: refused before any Gram
    grams = _spy(monkeypatch, "singular_values_via_gram")
    m, p = 3 * 2**31, 3 * 2**22
    for argv in (["dft-sub", f"M={m}", f"p={p}"], ["certify", f"M={m}", f"p={p}"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: dimension must be <= 3037000499, got {m}\n"
    assert grams == []


def test_unwritable_output_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.csv"
    taken = tmp_path / "taken.csv"
    (tmp_path / "taken.csv.gp").mkdir()
    for out, failing, reason in (
        (missing, missing, errno.ENOENT),
        (tmp_path, tmp_path, errno.EISDIR),
        (taken, tmp_path / "taken.csv.gp", errno.EISDIR),  # the sidecar fails
    ):
        assert main(["eigs", "M=64", "N=16", "K=7", f"out={out}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {failing}: {os.strerror(reason)}\n"


def test_invalid_model_parameters_exit_2(capsys):
    for argv, message in (
        (["eigs", "M=8", "N=4", "K=4"], "need 2K+1 < M, got 2K+1=9 >= M=8"),
        (["eigs", "M=8", "N=9", "K=1"], "need N <= M, got N=9 > M=8"),
        (["eigs", "M=64", "N=-1", "K=4"], "N must be positive, got -1"),
        (["decompose", "M=64", "N=64", "K=5"], "need N < M, got N=64, M=64"),
        (["certify", "M=64", "p=5"], "p=5 does not divide m=64"),
        (["certify", "M=64", "p=0"], "divisor must be a positive integer, got 0"),
        *(
            ([command, f"M={m}", "N=4", "K=1"], f"M must be <= 2**53, got {m}")
            for command in ("certify", "transition", "decompose", "eigs", "commute")
            for m in (10**160, 10**400)
        ),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
    # past 2**53 M or an offset may not be an exact double; 2**53 itself runs
    for command in ("certify", "transition", "decompose", "eigs", "commute"):
        assert main([command, f"M={2**53}", "N=4", "K=1"]) == 0, command
        assert capsys.readouterr().err == ""


def test_decompose_refuses_an_order_past_eta_before_any_work(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(prolate.lowrank, "eta_even", lambda s: calls.append(s))
    # M/N = 1.001 certifies order 7718 at eps=1e-3; eta_even stops at 100 terms
    assert main(["decompose", "M=1000", "N=999", "K=100", "eps=1e-3"]) == 2
    assert main(["decompose", "M=1024", "N=256", "K=128", "order=101"]) == 2
    err = capsys.readouterr().err
    assert "error: truncation order 7718 at M/N = 1.001 exceeds 100" in err
    assert "error: truncation order 101 at M/N = 4 exceeds 100" in err
    assert calls == []


def test_eigs_single_row(capsys):
    assert main(["eigs", "M=2", "N=1", "K=0"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[-2] == "index,eigenvalue"
    assert lines[-1] == "0,5.0000000000000000e-01"


def test_eigs_descending_and_annotated(capsys):
    assert main(["eigs", "M=64", "N=16", "K=3"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert any("cluster_point" in line for line in lines if line.startswith("#"))
    rows = [line for line in lines if not line.startswith("#")][1:]
    values = [float(row.split(",")[1]) for row in rows]
    assert len(values) == 16
    assert values == sorted(values, reverse=True)


def test_eigs_json_document(capsys):
    assert main(["eigs", "M=16", "N=4", "K=2", "format=json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "eigs"
    assert doc["columns"] == ["index", "eigenvalue"]
    assert len(doc["rows"]) == 4


def test_output_file_and_gnuplot_sidecar(tmp_path):
    out = tmp_path / "eigs.csv"
    assert main(["eigs", "M=32", "N=8", "K=3", f"out={out}"]) == 0
    first = out.read_bytes()
    assert (tmp_path / "eigs.csv.gp").exists()
    assert main(["eigs", "M=32", "N=8", "K=3", f"out={out}"]) == 0
    assert out.read_bytes() == first


def test_transition_single_point(capsys):
    assert main(["transition", "M=64", "N=16", "K=7", "eps=1e-3,1e-6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == "M,N,K,epsilon,width,bound_2R,pass"
    rows = [line for line in lines if not line.startswith("#")][1:]
    assert len(rows) == 2
    assert all(row.endswith(",true") for row in rows)


def test_transition_ratio_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["transition", "ratio-sweep", "M=64..256", f"out={out}"]) == 0
    rows = [
        line
        for line in out.read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("M,")
    ]
    assert len(rows) == 3 * 4  # sizes 64,128,256 x default epsilon grid
    sizes = [int(row.split(",")[0]) for row in rows]
    assert sizes == sorted(sizes)
    # the sweep is serial: a worker-count key is a usage error
    assert main(["transition", "ratio-sweep", "M=64..256", "jobs=3"]) == 2


def test_certify_eigenvalue_mode(capsys):
    assert main(["certify", "M=64", "N=16", "K=7", "eps=1e-3,1e-6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == (
        "M,N,K,epsilon,width,bound_2R,lower_index_ok,upper_index_ok,width_ok,pass"
    )


def test_certify_dft_mode(capsys):
    assert main(["certify", "M=64", "p=4", "row=3", "col=7", "eps=1e-3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [line for line in lines if not line.startswith("#")][1:]
    assert len(rows) == 1
    assert rows[0].endswith(",true")


def test_dft_sub_listing(capsys):
    assert main(["dft-sub", "M=64", "p=4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [line for line in lines if not line.startswith("#")][1:]
    assert len(rows) == 16
    values = [float(row.split(",")[1]) for row in rows]
    assert values == sorted(values, reverse=True)
    assert 0.99 < values[0] <= 1.0 + 1e-12


def test_decompose_pass_and_forced_failure(capsys):
    assert main(["decompose", "M=1024", "N=256", "K=128", "eps=1e-3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [line for line in lines if not line.startswith("#")][1:]
    assert rows[0].split(",")[0] == "3"
    assert rows[0].endswith(",true")
    # an undersized truncation order cannot certify the tail: exit code 1
    assert main(["decompose", "M=1024", "N=256", "K=128", "eps=1e-3", "order=1"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [line for line in lines if not line.startswith("#")][1:]
    assert rows[0].endswith(",false")


_SPLIT_HEAD = "# low-rank + certified-tail split of (periodic - sinc) prolate kernels\n"
_FOUR_EPS = (
    "# epsilon per row: 1.0000000000000000e-03,9.9999999999999995e-07,"
    "1.0000000000000001e-09,9.9999999999999998e-13\n"
)
_SPLIT_COLUMNS = "R,rank_L2_certified,tail_bound,row_sum_residual,pass\n"


def _split_report(mnk, eps_line, rows):
    return _SPLIT_HEAD + mnk + "\n" + eps_line + _SPLIT_COLUMNS + "".join(r + "\n" for r in rows)


# stdout and exit code of decompose when the rank of the low-rank part came
# from a solve of its N x N matrix; no column depends on BLAS rounding
@pytest.mark.parametrize("argv, code, text", [
    ("M=1024 N=256 K=128", 0, _split_report("# M=1024 N=256 K=128", _FOUR_EPS, [
        "3,8,1.0361649940878604e-05,7.6674346387954092e-07,true",
        "5,8,4.0475195081557047e-08,1.9647641070367136e-09,true",
        "8,8,9.8816394242082633e-12,3.1125455458958468e-13,true",
        "10,8,3.8600154000813529e-14,1.0578697677312179e-15,true",
    ])),
    ("M=512 N=128 K=64 eps=1e-3,1e-6", 0, _split_report(
        "# M=512 N=128 K=64",
        "# epsilon per row: 1.0000000000000000e-03,9.9999999999999995e-07\n",
        [
            "3,8,1.0361649940878604e-05,7.4283466312362950e-07,true",
            "5,8,4.0475195081557047e-08,1.8717753336066357e-09,true",
        ],
    )),
    ("M=8192 N=2048 K=1024", 0, _split_report("# M=8192 N=2048 K=1024", _FOUR_EPS, [
        "3,8,1.0361649940878604e-05,7.8790549796863759e-07,true",
        "5,8,4.0475195081557047e-08,2.0474992794648314e-09,true",
        "8,8,9.8816394242082633e-12,3.3143554517173092e-13,true",
        "10,8,3.8600154000813529e-14,1.1873443886026174e-15,true",
    ])),
    # the size limit; eps=1e-12 fails its per-entry check (ROADMAP item 7)
    ("M=16384 N=4096 K=2048", 1, _split_report("# M=16384 N=4096 K=2048", _FOUR_EPS, [
        "3,8,1.0361649940878604e-05,7.8942524390342310e-07,true",
        "5,8,4.0475195081557047e-08,2.0534535532450528e-09,true",
        "8,8,9.8816394242082633e-12,3.3289924014290738e-13,true",
        "10,8,3.8600154000813529e-14,1.1981280235319038e-15,false",
    ])),
    # M/N = 1.24: a basis grown from monomial columns missed L here (exit 3)
    ("M=318 N=256 K=96", 0, _split_report("# M=318 N=256 K=96", _FOUR_EPS, [
        "23,12,5.4506382147721903e-05,6.1210324858232579e-07,true",
        "39,12,5.2778665776905410e-08,3.4082696081815902e-10,true",
        "55,12,5.1105713705981326e-11,2.2305493269550556e-13,true",
        "71,12,4.9485790043229565e-14,2.7979234665351412e-16,true",
    ])),
    # no factor columns: rank 0 without a solve
    ("M=64 N=16 K=7 order=0 eps=1e-3", 1, _split_report(
        "# M=64 N=16 K=7",
        "# epsilon per row: 1.0000000000000000e-03\n",
        ["0,0,4.2441318157838762e-02,1.0660294842907101e-02,false"],
    )),
    # 4R = 4 columns for N = 16 rows
    ("M=64 N=16 K=7 order=1", 1, _split_report(
        "# M=64 N=16 K=7", _FOUR_EPS,
        ["1,4,2.6525823848649226e-03,3.7579187832990316e-04,false"] * 4,
    )),
])
def test_decompose_report_bytes_are_pinned(argv, code, text, capsys):
    assert main(["decompose", *argv.split()]) == code
    assert capsys.readouterr() == (text, "")


_DFT_HEAD = (
    "# singular-value clustering certificates for a DFT submatrix\n"
    "M,p,row,col,epsilon,width,bound_2R,lower_index_ok,upper_index_ok,width_ok,pass\n"
)


# stdout and exit code of certify on DFT blocks, reduced through the L x L
# Hermitian Gram; widths are counts and bound_2R is analytic, so no column
# depends on BLAS rounding.  eps=1e-12 is left out: its width is
# undercounted by GRAM_NOISE_FLOOR (see
# test_certify_dft_width_matches_lapack_at_tiny_eps).
@pytest.mark.parametrize("argv, rows", [
    ("M=1024 p=4 row=3 col=7", [
        "1024,4,3,7,1.0000000000000000e-03,10,1.7880619212233674e+02,true,true,true,true",
        "1024,4,3,7,9.9999999999999995e-07,16,3.2432270907269600e+02,true,true,true,true",
        "1024,4,3,7,1.0000000000000001e-09,24,4.6983922602305529e+02,true,true,true,true",
    ]),
    ("M=1024 p=2", [
        "1024,2,0,0,1.0000000000000000e-03,10,1.9634754225636789e+02,true,true,true,true",
        "1024,2,0,0,9.9999999999999995e-07,18,3.6567670823361954e+02,true,true,true,true",
        "1024,2,0,0,1.0000000000000001e-09,26,5.3500587421087118e+02,true,true,true,true",
    ]),
    ("M=1024 p=8", [
        "1024,8,0,0,1.0000000000000000e-03,8,1.7055255436785504e+02,true,true,true,true",
        "1024,8,0,0,9.9999999999999995e-07,14,3.0466014564645798e+02,true,true,true,true",
        "1024,8,0,0,1.0000000000000001e-09,18,4.3965172594947444e+02,true,true,true,true",
    ]),
    ("M=2048 p=8", [
        "2048,8,0,0,1.0000000000000000e-03,8,1.7599139700317423e+02,true,true,true,true",
        "2048,8,0,0,9.9999999999999995e-07,16,3.1398006873934526e+02,true,true,true,true",
        "2048,8,0,0,1.0000000000000001e-09,22,4.5285272949992986e+02,true,true,true,true",
    ]),
    ("M=4096 p=16", [
        "4096,16,0,0,1.0000000000000000e-03,8,1.7599139700317423e+02,true,true,true,true",
        "4096,16,0,0,9.9999999999999995e-07,14,3.0886206438720234e+02,true,true,true,true",
        "4096,16,0,0,1.0000000000000001e-09,18,4.4441279705289958e+02,true,true,true,true",
    ]),
    ("M=999 p=3", [
        "999,3,0,0,1.0000000000000000e-03,10,1.8389538926270808e+02,true,true,true,true",
        "999,3,0,0,9.9999999999999995e-07,18,3.3610357490168025e+02,true,true,true,true",
        "999,3,0,0,1.0000000000000001e-09,26,4.8831176054065236e+02,true,true,true,true",
    ]),
])
def test_certify_dft_report_bytes_are_pinned(argv, rows, capsys):
    assert main(["certify", *argv.split(), "eps=1e-3,1e-6,1e-9"]) == 0
    assert capsys.readouterr() == (_DFT_HEAD + "".join(r + "\n" for r in rows), "")


_CERTIFY_HEAD = (
    "# eigenvalue clustering certificates\n# cluster_point = {}\n"
    "M,N,K,epsilon,width,bound_2R,lower_index_ok,upper_index_ok,width_ok,pass\n"
)


# stdout of certify on the prolate block at the default eps, the same under
# one and two BLAS threads; odd N included
@pytest.mark.parametrize("mnk, cluster_point, rows", [
    ("M=1024 N=256 K=128", "6.4250000000000000e+01", [
        "1024,256,128,1.0000000000000000e-03,9,1.7880619212233674e+02,true,true,true,true",
        "1024,256,128,9.9999999999999995e-07,17,3.2432270907269600e+02,true,true,true,true",
        "1024,256,128,1.0000000000000001e-09,23,4.6983922602305529e+02,true,true,true,true",
        "1024,256,128,9.9999999999999998e-13,30,6.1535574297341464e+02,true,true,true,true",
    ]),
    ("M=99 N=33 K=10", "7.0000000000000000e+00", [
        "99,33,10,1.0000000000000000e-03,6,1.6575693474812974e+02,true,true,true,true",
        "99,33,10,9.9999999999999995e-07,10,3.0502177819700609e+02,true,true,true,true",
        "99,33,10,1.0000000000000001e-09,14,4.4428662164588252e+02,true,true,true,true",
        "99,33,10,9.9999999999999998e-13,16,5.8355146509475890e+02,true,true,true,true",
    ]),
])
def test_certify_report_bytes_are_pinned(mnk, cluster_point, rows, capsys):
    assert main(["certify", *mnk.split()]) == 0
    text = _CERTIFY_HEAD.format(cluster_point) + "".join(r + "\n" for r in rows)
    assert capsys.readouterr() == (text, "")


_TRANSITION_COLUMNS = "M,N,K,epsilon,width,bound_2R,pass"
_TRANSITION_SINGLE = [
    "256,64,31,1.0000000000000000e-03,7,1.6792850685169833e+02,true",
    "256,64,31,9.9999999999999995e-07,13,3.0568286288692133e+02,true",
    "256,64,31,1.0000000000000001e-09,18,4.4343721892214438e+02,true",
    "256,64,31,9.9999999999999998e-13,22,5.8119157495736738e+02,true",
]


# stdout of transition at the default eps, the same under one and two BLAS
# threads: the single form and the doubling sweep with N = M/4, K = M/8
@pytest.mark.parametrize("argv, notes, rows", [
    ("M=256 N=64 K=31", ["transition width against twice the analytic half-width cap"],
     _TRANSITION_SINGLE),
    ("ratio-sweep M=64..512", ["doubling sweep with N = M/4, K = M/8", "M from 64 to 512"], [
        "64,16,8,1.0000000000000000e-03,5,1.5705082158105992e+02,true",
        "64,16,8,9.9999999999999995e-07,9,2.8704301670114666e+02,true",
        "64,16,8,1.0000000000000001e-09,11,4.1703521182123342e+02,true",
        "64,16,8,9.9999999999999998e-13,12,5.4702740694132012e+02,true",
        "128,32,16,1.0000000000000000e-03,6,1.6248966421637914e+02,true",
        "128,32,16,9.9999999999999995e-07,11,2.9636293979403405e+02,true",
        "128,32,16,1.0000000000000001e-09,15,4.3023621537168890e+02,true",
        "128,32,16,9.9999999999999998e-13,18,5.6410949094934381e+02,true",
        "256,64,32,1.0000000000000000e-03,7,1.6792850685169833e+02,true",
        "256,64,32,9.9999999999999995e-07,13,3.0568286288692133e+02,true",
        "256,64,32,1.0000000000000001e-09,17,4.4343721892214438e+02,true",
        "256,64,32,9.9999999999999998e-13,21,5.8119157495736738e+02,true",
        "512,128,64,1.0000000000000000e-03,8,1.7336734948701755e+02,true",
        "512,128,64,9.9999999999999995e-07,15,3.1500278597980872e+02,true",
        "512,128,64,1.0000000000000001e-09,21,4.5663822247259986e+02,true",
        "512,128,64,9.9999999999999998e-13,26,5.9827365896539106e+02,true",
    ]),
])
def test_transition_report_bytes_are_pinned(argv, notes, rows, capsys):
    assert main(["transition", *argv.split()]) == 0
    lines = [f"# {note}" for note in notes] + [_TRANSITION_COLUMNS, *rows]
    assert capsys.readouterr() == ("".join(line + "\n" for line in lines), "")


def test_transition_json_bytes_are_pinned(capsys):
    # the pinned single-point rows as format=json: keys sorted, two-space indent
    assert main(["transition", "M=256", "N=64", "K=31", "format=json"]) == 0
    columns = _TRANSITION_COLUMNS.split(",")
    doc = {
        "columns": columns,
        "command": "transition",
        "notes": ["transition width against twice the analytic half-width cap"],
        "rows": [dict(zip(columns, row.split(","))) for row in _TRANSITION_SINGLE],
    }
    assert capsys.readouterr() == (json.dumps(doc, indent=2, sort_keys=True) + "\n", "")


def test_decompose_exits_3_when_the_basis_misses_the_lowrank_part(monkeypatch, capsys):
    basis = prolate.lowrank._range_basis
    monkeypatch.setattr(prolate.lowrank, "_range_basis", lambda *args: basis(*args)[1:])
    assert main(["decompose", "M=1024", "N=256", "K=128", "eps=1e-3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "outside the span of its factors" in err


_COMMUTE_HEAD = (
    "# commuting symmetric tridiagonal from its closed form\n# M={} N={} K={}\n"
    "N,commutator_norm,degenerate,compared,max_value_dev,min_alignment,pass\n"
)


# stdout of commute, the same under one and two BLAS threads; odd N included
@pytest.mark.parametrize("mnk, row", [
    ((64, 16, 7), "16,3.6672327126714532e-17,false,8,6.6613381477509392e-16,"
                  "9.9999999999999967e-01,true"),
    ((99, 33, 10), "33,5.0002287245095135e-17,false,10,6.6613381477509392e-16,"
                   "9.9999999999999978e-01,true"),
    ((192, 48, 23), "48,7.1087399356481219e-17,false,12,1.6653345369377348e-15,"
                    "9.9999999999999922e-01,true"),
    ((256, 64, 31), "64,7.5853110852361432e-17,false,13,1.8873791418627661e-15,"
                    "9.9999999999999900e-01,true"),
])
def test_commute_report_bytes_are_pinned(mnk, row, capsys):
    assert main(["commute", *(f"{k}={v}" for k, v in zip("MNK", mnk))]) == 0
    assert capsys.readouterr() == (_COMMUTE_HEAD.format(*mnk) + row + "\n", "")


def test_decompose_eps_too_small_for_a_finite_order_exits_2(capsys):
    # pi/32 ((M/N)^2 - 1) eps underflows to 0: a parameter error, not a traceback
    assert main(["decompose", "M=1024", "N=1023", "K=1", "eps=1e-320"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: epsilon 1e-320 is too small") and err.count("\n") == 1


def test_commute_report(capsys):
    assert main(["commute", "M=64", "N=16", "K=7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == (
        "N,commutator_norm,degenerate,compared,max_value_dev,min_alignment,pass"
    )
    row = [line for line in lines if not line.startswith("#")][1]
    assert row.endswith(",true")


def test_eigs_plateau_reproduction(tmp_path):
    # the headline configuration: 256 rows, plateau at the top, decay to 0
    out = tmp_path / "plateau.csv"
    assert main(["eigs", "M=1024", "N=256", "K=128", f"out={out}"]) == 0
    lines = out.read_text().splitlines()
    assert any("cluster_point = 6.4250000000000000e+01" in line for line in lines)
    rows = [line for line in lines if line and not line.startswith("#")][1:]
    assert len(rows) == 256
    values = [float(row.split(",")[1]) for row in rows]
    assert values[0] >= 1.0 - 1e-12
    assert values[255] <= 1e-12


def test_certify_json_mode(capsys):
    assert main(["certify", "M=64", "N=16", "K=7", "eps=1e-3", "format=json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["columns"][-1] == "pass"
    assert doc["rows"][0]["pass"] == "true"


def test_decompose_rank_column_consistent(capsys):
    assert main(["decompose", "M=256", "N=64", "K=31", "eps=1e-6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    row = [line for line in lines if not line.startswith("#")][1].split(",")
    order, rank = int(row[0]), int(row[1])
    assert 0 < rank <= 4 * order


def test_subprocess_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        proc = subprocess.run(
            [sys.executable, "-m", "prolate.cli", "certify", "M=64", "N=16", "K=7",
             "eps=1e-3,1e-6", f"out={out}"],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
    assert out1.read_bytes() == out2.read_bytes()


def _rows_under_threads(argv, threads):
    """Data rows of one command run in a fresh process on ``threads`` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-m", "prolate", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [line.split(",") for line in proc.stdout.splitlines()
            if not line.startswith("#")][1:]


# Kahan's bound on the eigenvalue errors of one solve with vectors V and
# values Lambda of B: sqrt(||R||_1 ||R||_inf) / sqrt(1 - sqrt(||X||_1 ||X||_inf)),
# R = B V - V Lambda, X = V^T V - I.  Prints [delta, values] as JSON; the
# values equal those of the values-only solve that certify reads, bit for bit
# (test_values_only_ql_matches_scalar_reference_bitwise).
_KAHAN = """
import json, sys
import numpy as np
import prolate as pr
b = pr.periodic_prolate(pr.ProlateParams(*map(int, sys.argv[1:])))
s = pr.eigh_householder_ql(b, want_vectors=True)
r = b.dense() @ s.vectors - s.vectors * s.values
x = s.vectors.T @ s.vectors - np.eye(s.values.size)
norm = lambda a: np.sqrt(np.abs(a).sum(axis=0).max() * np.abs(a).sum(axis=1).max())
print(json.dumps([norm(r) / np.sqrt(1.0 - norm(x)), s.values.tolist()]))
"""


def _kahan_under_threads(mnk, threads):
    """(delta, eigenvalues) of the block, solved in a fresh process on ``threads``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-c", _KAHAN, *map(str, mnk)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    delta, values = json.loads(proc.stdout)
    return delta, np.array(values)


def test_verdicts_agree_across_blas_thread_classes():
    # One BLAS thread and two sum the reduction's matrix products in different
    # orders (two and more agree).  Here an eigenvalue lies within 2e-15 of
    # 1 - eps at eps=1e-13, and the width reads 37 on one thread, 38 on two.
    # Verdicts must agree; a width may differ only on a row where an
    # eigenvalue of each run lies within that run's Kahan bound delta of eps
    # or 1 - eps.  delta (about 5e-14) stays below the 7.1e-14 between eps
    # and its nearest eigenvalue, so only the 1 - eps side can qualify.
    mnk = (1511, 661, 258)
    argv = [f"{key}={value}" for key, value in zip("MNK", mnk)]
    rows = [_rows_under_threads(["certify", *argv, "eps=1e-12,1e-13"], t) for t in (1, 2)]
    runs = [_kahan_under_threads(mnk, t) for t in (1, 2)]
    assert len(rows[0]) == len(rows[1]) == 2
    for delta, lam in runs:
        assert np.abs(lam - 1e-13).min() > delta
    for one, two in zip(*rows):
        assert one[:4] + one[5:] == two[:4] + two[5:]  # all but the width
        if one[4] != two[4]:
            eps = float(one[3])
            for delta, lam in runs:
                assert min(np.abs(lam - eps).min(), np.abs(lam - (1.0 - eps)).min()) <= delta


def _capture(argv, tmp_path, launch, capsys):
    """(exit code, stdout, stderr, written files) of one command, run by ``launch``.

    ``{dir}`` in an argument becomes a folder of its own under ``tmp_path``,
    so two launches write files of the same names to different places.
    """
    folder = tmp_path / launch
    folder.mkdir()
    args = [arg.format(dir=folder) for arg in argv]
    if launch == "main":
        got = (main(args), *capsys.readouterr())
    else:
        proc = subprocess.run([sys.executable, "-m", "prolate", *args],
                              capture_output=True, text=True, timeout=120)
        got = (proc.returncode, proc.stdout, proc.stderr)
    return got, {path.name: path.read_bytes() for path in folder.iterdir()}


@pytest.mark.parametrize("argv, code", [
    (["certify", "M=64", "N=16", "K=7"], 0),
    (["decompose", "M=1024", "N=256", "K=128", "eps=1e-16"], 1),
    (["eigs", "M=64", "N=16"], 2),
    (["eigs", "M=64", "N=16", "K=7", "out={dir}/eigs.csv"], 0),
])
def test_module_entry_point_matches_main(argv, code, tmp_path, capsys):
    # `python -m prolate` is how the benchmark runs every operation
    in_process = _capture(argv, tmp_path, "main", capsys)
    assert _capture(argv, tmp_path, "module", capsys) == in_process
    (got_code, out, _), files = in_process
    assert got_code == code
    if "out=" in argv[-1]:
        assert out == "" and sorted(files) == ["eigs.csv", "eigs.csv.gp"]


def test_every_entry_point_ends_through_exit_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"prolate": "prolate.cli:exit_main"}
    import prolate.__main__

    assert prolate.__main__.exit_main is prolate.cli.exit_main
    # os._exit skips atexit handlers, so the marker shows a normal teardown
    launches = (
        "runpy.run_module('prolate', run_name='__main__')",
        "runpy.run_module('prolate.cli', run_name='__main__')",
        "from prolate.cli import exit_main; sys.exit(exit_main())",  # console script
    )
    for launch in launches:
        script = (
            "import atexit, runpy, sys\n"
            "atexit.register(sys.stderr.write, 'teardown\\n')\n" + launch
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "certify", "M=64", "N=16", "K=7", "eps=1e-3"],
            capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), launch
        assert proc.stdout.endswith(",true\n"), launch


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_2_with_one_line(unbuffered):
    # buffered, the write fails only at the flush; unbuffered, at the write
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for launch in (["-c", "import sys; from prolate.cli import main; sys.exit(main())"],
                   ["-m", "prolate"]):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, *launch, "certify", "M=64", "N=16", "K=7"],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write)
        assert proc.returncode == 2, launch
        assert proc.stderr == b"error: cannot write stdout: Broken pipe\n", launch


def test_closed_stdout_still_writes_out_path(tmp_path):
    # descriptor 1 closed at start leaves sys.stdout None, which out=PATH never uses
    out = tmp_path / "eigs.csv"
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "prolate",
         "eigs", "M=64", "N=16", "K=7", f"out={out}"],
        capture_output=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert out.read_text().startswith("# eigenvalues")


def _modules_loaded_by(argv):
    """Modules a fresh interpreter loads for one command, beyond its own start-up."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from prolate.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))\n"
        "sys.exit(code)"
    )
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_commands_load_only_the_layers_they_run():
    unused = {"prolate.lowrank", "prolate.commuting", "fractions", "json"}
    loaded = _modules_loaded_by(["certify", "M=64", "N=16", "K=7"])
    assert "prolate.bounds" in loaded
    assert not loaded & unused
    assert "prolate.lowrank" in _modules_loaded_by(["decompose", "M=64", "N=16", "K=7"])
