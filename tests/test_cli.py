"""CLI tests: parsing, schemas, exit codes, and byte determinism."""
import json
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


def test_commute_eigendecomposes_each_matrix_once(monkeypatch, capsys):
    # B and its tridiagonal T: two solves
    original = prolate.eigh_householder_ql
    sizes = []

    def counting(a, want_vectors=False):
        sizes.append(len(a))
        return original(a, want_vectors=want_vectors)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "eigh_householder_ql", None)
        if name.startswith("prolate") and bound is original:
            monkeypatch.setattr(module, "eigh_householder_ql", counting)
    assert main(["commute", "M=64", "N=16", "K=7"]) == 0
    capsys.readouterr()
    assert sorted(sizes) == [16, 16]


def test_invalid_model_parameters_exit_2(capsys):
    assert main(["eigs", "M=8", "N=4", "K=4"]) == 2  # 2K+1 >= M
    assert main(["eigs", "M=8", "N=9", "K=1"]) == 2
    assert main(["certify", "M=64", "p=5"]) == 2
    capsys.readouterr()


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
