"""CLI tests: parsing, schemas, exit codes, and byte determinism."""
import errno
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prolate
from prolate.cli import (
    _KEYS,
    COMMUTE_MAX_N,
    MAX_DENSE_DIM,
    SPECTRUM_EPS_FLOOR,
    SWEEP_MAX_M,
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
    for command in ("certify", "dft-sub"):
        # the solver sees the 2L x 2L embedding, L = M/p
        assert parse_args([command, f"M={top // 2 * 4}", "p=4"]).p == 4
        with pytest.raises(UsageError, match=str(top)):
            parse_args([command, f"M={(top // 2 + 1) * 4}", "p=4"])
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
