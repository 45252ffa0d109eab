"""CLI tests: parsing, schemas, exit codes, and byte determinism."""
import json
import subprocess
import sys

import pytest

from prolate.cli import main, parse_args


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
        ["decompose", "M=64", "N=16", "K=8", "order=-1"],
        ["eigs", "ratio-sweep", "M=64..128"],
    ):
        assert main(argv) == 2, argv


def test_parse_round_trip():
    config = parse_args(["certify", "M=1024", "p=4", "row=3", "col=7", "eps=1e-3,1e-6"])
    assert config.command == "certify"
    assert (config.m, config.p) == (1024, 4)
    assert (config.row_offset, config.col_offset) == (3, 7)
    assert config.epsilons == (1e-3, 1e-6)


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
