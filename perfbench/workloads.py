"""The operations each benchmark workload runs, generated from a seed.

An operation is either one ``prolate`` CLI invocation or the library
solver comparison in ``libop.py``.  Every operation runs in a fresh
interpreter, the way a CLI user pays for it.  The seed only picks the
inputs that the programs receive (the DFT block offsets and the random
symmetric matrix); the list of operations and their sizes are fixed, so
every seed does the same amount of work.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("certify", "decompose", "eigenvectors")


@dataclass
class Op:
    """One operation: ``python -m prolate COMMAND key=value...`` or libop.

    ``params`` are the CLI keys in command-line order; the oracle reads
    them instead of re-parsing the command line.  A ``lib`` op has no
    command; its input is ``matrix``, written to a file before the run.
    """

    name: str
    command: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)
    matrix: np.ndarray | None = None

    @property
    def kind(self) -> str:
        return "lib" if self.matrix is not None else "cli"

    def cli_args(self) -> list[str]:
        return [*self.command, *(f"{k}={v}" for k, v in self.params.items())]


# Sizes per workload: the full benchmark and a toy variant for the tests.
# The full sizes put one pass at 7.5-10 s on 2 cores without numba.
_SIZES = {
    "full": {
        "sweep": "64..2048",
        "certify_eig": (1024, 256, 128),
        "eigs": (3072, 768, 384),
        "certify_dft": (1024, 4),
        "dft_sub": (2048, 8),
        "decompose_4eps": (1024, 256, 128),
        "decompose_2eps": (512, 128, 64),
        "commute_a": (192, 48, 23),
        "commute_b": (256, 64, 31),
        "jacobi_n": 64,
    },
    "toy": {
        "sweep": "64..128",
        "certify_eig": (128, 32, 15),
        "eigs": (256, 64, 31),
        "certify_dft": (64, 4),
        "dft_sub": (128, 8),
        "decompose_4eps": (256, 64, 31),
        "decompose_2eps": (128, 32, 15),
        "commute_a": (64, 16, 7),
        "commute_b": (96, 24, 11),
        "jacobi_n": 12,
    },
}


def _mnk(size) -> dict:
    m, n, k = size
    return {"M": m, "N": n, "K": k}


def build(workload: str, seed: int, scale: str = "full") -> list[Op]:
    """Operation list of ``workload`` with inputs drawn from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    size = _SIZES[scale]
    rng = np.random.default_rng(seed)
    if workload == "certify":
        m_cert, p_cert = size["certify_dft"]
        m_sub, p_sub = size["dft_sub"]
        cert_offsets = rng.integers(0, m_cert, size=2)
        sub_offsets = rng.integers(0, m_sub, size=2)
        return [
            Op("ratio_sweep", ("transition", "ratio-sweep"), {"M": size["sweep"]}),
            Op("certify_eig", ("certify",), _mnk(size["certify_eig"])),
            Op("eigs", ("eigs",), _mnk(size["eigs"])),
            Op(
                "certify_dft",
                ("certify",),
                {"M": m_cert, "p": p_cert,
                 "row": int(cert_offsets[0]), "col": int(cert_offsets[1])},
            ),
            Op(
                "dft_sub",
                ("dft-sub",),
                {"M": m_sub, "p": p_sub,
                 "row": int(sub_offsets[0]), "col": int(sub_offsets[1])},
            ),
        ]
    if workload == "decompose":
        return [
            Op("decompose_4eps", ("decompose",), _mnk(size["decompose_4eps"])),
            Op(
                "decompose_2eps",
                ("decompose",),
                {**_mnk(size["decompose_2eps"]), "eps": "1e-3,1e-6"},
            ),
        ]
    a = rng.standard_normal((size["jacobi_n"], size["jacobi_n"]))
    return [
        Op("commute_a", ("commute",), _mnk(size["commute_a"])),
        Op("commute_b", ("commute",), _mnk(size["commute_b"])),
        Op("jacobi_vs_ql", matrix=0.5 * (a + a.T)),
    ]


def op_names() -> list[str]:
    """Every operation name across the workloads, in a fixed order."""
    return [op.name for w in WORKLOADS for op in build(w, 0, "toy")]
