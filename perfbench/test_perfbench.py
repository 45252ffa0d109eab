"""Tests of the benchmark itself, at toy sizes.

Run with ``PYTHONPATH=src python -m pytest perfbench``.  Every workload's
operation list runs through the same code as the real benchmark and must
pass its oracle; the trace must report every layer, with zero calls where
a workload bypasses one; and a tampered output, a drifting digest or a
wrong exit code must count as a failure.
"""
import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 5

# Layers each workload must never call, and layers it must call.
BYPASSED = {
    "certify": ("lowrank.", "commuting."),
    "decompose": (
        "commuting.",
        "eigensolve.eigh_jacobi.",
        "eigensolve.eigh_householder_ql.vectors.",
    ),
    "eigenvectors": ("lowrank.", "eigensolve.singular_values_via_gram."),
}
EXERCISED = {
    "certify": (
        "eigensolve.eigh_householder_ql.values",
        "eigensolve.singular_values_via_gram",
        "kernels.dft_submatrix",
        "bounds.certify_spectrum_clustering",
        "bounds.certify_dft_submatrix",
    ),
    "decompose": (
        "lowrank.eta_even",
        "lowrank.lowrank_tail_split",
        "eigensolve.singular_values_via_gram",
        "kernels.sinc_prolate",
    ),
    "eigenvectors": (
        "eigensolve.eigh_jacobi",
        "eigensolve.eigh_householder_ql.vectors",
        "commuting.fit_commuting_tridiagonal",
        "commuting.eigenvectors_via_tridiagonal",
    ),
}

# One field per CLI operation that the oracle must catch when changed:
# (data row, column, replacement).
CSV_TAMPER = {
    "ratio_sweep": (0, 4, lambda v: str(int(v) + 1)),  # width
    "certify_eig": (0, 9, lambda v: "false"),  # pass
    "eigs": (0, 1, lambda v: repr(float(v) + 1e-8)),  # eigenvalue
    "certify_dft": (0, 5, lambda v: str(int(v) + 1)),  # width
    "dft_sub": (0, 1, lambda v: repr(float(v) - 1e-8)),  # singular value
    "decompose_4eps": (0, 1, lambda v: str(int(v) + 1)),  # rank
    "decompose_2eps": (1, 0, lambda v: str(int(v) + 1)),  # R
    "commute_a": (0, 3, lambda v: str(int(v) - 1)),  # compared
    "commute_b": (0, 1, lambda v: "1e-7"),  # commutator norm above the cap
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Each toy workload run with the trace on: two passes plus a traced one."""
    out = {}
    for workload in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(workload)
        _, result = run.benchmark(workload, SEED, 0, True, workdir, "toy")
        out[workload] = (result, workdir)
    return out


def test_every_workload_passes_its_checks(traced):
    for workload, (result, _) in traced.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert result["attempted"] == 3 * len(workloads.build(workload, SEED, "toy"))


def test_trace_reports_every_per_layer_metric(traced):
    names = {metric["name"] for metric in SPEC["per_layer"]}
    for result, _ in traced.values():
        assert set(result["metrics"]) == names


def test_bypassed_layers_read_zero_calls(traced):
    for workload, (result, _) in traced.items():
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        for name, value in metrics.items():
            if name.endswith(".calls") and name.startswith(BYPASSED[workload]):
                assert value == 0, (workload, name)
        for layer in EXERCISED[workload]:
            assert metrics[f"{layer}.calls"] > 0, (workload, layer)
            assert metrics[f"{layer}.self_s"] > 0.0, (workload, layer)
        for name in workloads.op_names():
            ran = any(op.name == name for op in workloads.build(workload, SEED, "toy"))
            assert (metrics[f"op.{name}.wall_s"] > 0.0) == ran, (workload, name)


def test_end_to_end_metrics_match_the_spec(tmp_path):
    _, result = run.benchmark("certify", SEED, 0, False, tmp_path, "toy")
    assert result["correct"]
    assert set(result["metrics"]) == {metric["name"] for metric in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0, metric["name"]


def test_seed_picks_only_the_inputs():
    for workload in workloads.WORKLOADS:
        a, b, c = (workloads.build(workload, s) for s in (1, 1, 2))
        assert [op.name for op in a] == [op.name for op in c]
        assert [op.cli_args() for op in a] == [op.cli_args() for op in b]
    offsets = {tuple(workloads.build("certify", s)[3].cli_args()) for s in range(5)}
    assert len(offsets) > 1


def test_tampered_outputs_are_failures(traced, tmp_path):
    tampered_ops = set()
    for workload, (_, workdir) in traced.items():
        for op in workloads.build(workload, SEED, "toy"):
            good = run.Run(op, 0, 0.0, 0.0, 0.0, workdir / f"pass0-{op.name}.out",
                           workdir / f"pass0-{op.name}.err")
            data = good.out.read_bytes()
            if op.kind == "lib":
                array = np.load(io.BytesIO(data))
                array[1, 0] += 1e-8  # one Jacobi eigenvalue
                buf = io.BytesIO()
                np.save(buf, array)
                data = buf.getvalue()
            else:
                row, col, change = CSV_TAMPER[op.name]
                lines = data.decode().splitlines()
                body = [i for i, line in enumerate(lines) if not line.startswith("#")]
                fields = lines[body[1 + row]].split(",")
                fields[col] = change(fields[col])
                lines[body[1 + row]] = ",".join(fields)
                data = ("\n".join(lines) + "\n").encode()
            bad = run.Run(op, 0, 0.0, 0.0, 0.0, tmp_path / f"{op.name}.out", good.err)
            bad.out.write_bytes(data)
            assert run.Checker().failure(good) is None, op.name
            assert run.Checker().failure(bad), op.name  # the oracle alone
            checker = run.Checker()
            checker.failure(good)
            assert "differs" in checker.failure(bad), op.name  # the digest
            tampered_ops.add(op.name)
    assert tampered_ops == set(workloads.op_names())


def test_wrong_exit_code_is_a_failure(tmp_path, monkeypatch):
    bad = workloads.Op("certify_eig", ("certify",), {"M": 64, "N": 128, "K": 7})
    monkeypatch.setattr(workloads, "build", lambda *args: [bad])
    _, result = run.benchmark("certify", SEED, 0, False, tmp_path, "toy")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert result["metrics"]["ok_ratio"]["value"] == 0.0


def _tracer_script(tmp_path, body):
    return (
        f"import sys; sys.path.insert(0, {str(run.BENCH)!r}); import tracer\n{body}\n"
        f"sys.exit(tracer.main([{str(tmp_path / 'spans.json')!r}, 'cli', 'eigs', "
        "'M=64', 'N=16', 'K=7']))"
    )


def test_trace_fails_loudly_on_a_missing_function(tmp_path):
    script = _tracer_script(
        tmp_path, "tracer.TARGETS.append(('lowrank', 'no_such_function', None, None))"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=run.child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == tracer.TRACE_BROKEN
    assert "prolate.lowrank.no_such_function is missing" in proc.stderr


def test_trace_fails_loudly_on_an_unwrapped_binding(tmp_path):
    # A module that appears after wrapping and copies an original binding.
    script = _tracer_script(
        tmp_path,
        "import types\n"
        "install = tracer.install\n"
        "def late_install(t):\n"
        "    originals = install(t)\n"
        "    late = types.ModuleType('prolate.late')\n"
        "    late.eta = dict(originals)['lowrank.eta_even']\n"
        "    sys.modules['prolate.late'] = late\n"
        "    return originals\n"
        "tracer.install = late_install",
    )
    proc = subprocess.run([sys.executable, "-c", script], env=run.child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == tracer.TRACE_BROKEN
    assert "prolate.late.eta still binds unwrapped lowrank.eta_even" in proc.stderr


def test_exits_without_a_result_when_sources_are_absent(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
