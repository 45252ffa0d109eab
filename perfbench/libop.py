"""Library operation: cyclic Jacobi against Householder+QL, both with vectors.

Usage: python3 perfbench/libop.py MATRIX.npy > OUT.npy

Reads a symmetric matrix, runs both in-house solvers with eigenvectors,
and writes one .npy array to stdout whose rows are the QL values, the
Jacobi values, the n rows of the QL vectors, then the n rows of the
Jacobi vectors.  np.save output is byte-identical for identical arrays.
"""
from __future__ import annotations

import io
import sys

import numpy as np

import prolate


def main(argv: list[str]) -> int:
    a = np.load(argv[0])
    ql = prolate.eigh_householder_ql(a, want_vectors=True)
    jacobi = prolate.eigh_jacobi(a, want_vectors=True)
    buf = io.BytesIO()
    np.save(buf, np.vstack([ql.values, jacobi.values, ql.vectors, jacobi.vectors]))
    sys.stdout.buffer.write(buf.getvalue())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
