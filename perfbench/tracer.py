"""Traced run of one operation: spans around the public functions of each layer.

Usage:
    python3 perfbench/tracer.py SPANS.json cli COMMAND key=value ... > OUT
    python3 perfbench/tracer.py SPANS.json lib MATRIX.npy > OUT

Wraps every function in TARGETS in every ``prolate.*`` namespace that
binds it (``from .x import y`` copies the binding, so wrapping only the
defining module would miss calls made through the copy), runs the
operation exactly as the untraced run does, and writes the spans as JSON.
A span records its name, start, end, parent span and the work counters of
that call.  A missing target or a binding left unwrapped exits with
TRACE_BROKEN, so that a layer can never silently read as zero.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time

TRACE_BROKEN = 70


def _size(a) -> int:
    return int(a.shape[0]) if hasattr(a, "shape") else int(a.n)


def _eigh_label(args) -> str:
    kind = "vectors" if args["want_vectors"] else "values"
    return f"eigensolve.eigh_householder_ql.{kind}"


# (module, attribute, span name, work counters computed from the arguments).
# Counted work comes from array shapes, not from hardware counters.
TARGETS = [
    ("eigensolve", "eigh_householder_ql", _eigh_label,
     lambda a: {"n3": _size(a["a"]) ** 3}),
    ("eigensolve", "eigh_jacobi", None, lambda a: {"n3": _size(a["a"]) ** 3}),
    ("eigensolve", "singular_values_via_gram", None,
     lambda a: {"embed_n": 2 * int(a["f"].shape[1])}),
    ("kernels", "dft_submatrix", None, lambda a: {"bytes": 16 * int(a["m"]) ** 2}),
    ("kernels", "periodic_prolate", None, None),
    ("kernels", "sinc_prolate", None, None),
    ("kernels", "SymbolMatrix.dense", None, None),
    ("lowrank", "eta_even", None, None),
    ("lowrank", "lowrank_tail_split", None, None),
    ("bounds", "certify_spectrum_clustering", None, None),
    ("bounds", "certify_dft_submatrix", None, None),
    ("commuting", "fit_commuting_tridiagonal", None,
     lambda a: {"op_bytes": 8 * _size(a["b"]) ** 2 * (2 * _size(a["b"]) - 1)}),
    ("commuting", "eigenvectors_via_tridiagonal", None, None),
    ("cli", "main", None, None),
]

# Every span name the trace can produce, with the counters it carries.
SPAN_COUNTERS = {
    "eigensolve.eigh_householder_ql.values": ("n3",),
    "eigensolve.eigh_householder_ql.vectors": ("n3",),
    "eigensolve.eigh_jacobi": ("n3",),
    "eigensolve.singular_values_via_gram": ("embed_n",),
    "kernels.dft_submatrix": ("bytes",),
    "kernels.periodic_prolate": (),
    "kernels.sinc_prolate": (),
    "kernels.SymbolMatrix.dense": (),
    "lowrank.eta_even": (),
    "lowrank.lowrank_tail_split": (),
    "bounds.certify_spectrum_clustering": (),
    "bounds.certify_dft_submatrix": (),
    "commuting.fit_commuting_tridiagonal": ("op_bytes",),
    "commuting.eigenvectors_via_tridiagonal": (),
    "cli.main": (),
}


class TraceError(Exception):
    """The trace cannot cover a layer it is meant to measure."""


class Tracer:
    """Holds the spans of one process in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, func, name, label, counters):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span = {
                "name": label(bound.arguments) if label else name,
                "parent": self._open[-1] if self._open else None,
                **(counters(bound.arguments) if counters else {}),
            }
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()

        return traced


def _prolate_modules() -> list:
    return [m for key, m in sys.modules.items() if key == "prolate" or key.startswith("prolate.")]


def install(tracer: Tracer) -> list:
    """Wrap every target in every namespace; returns the originals."""
    import prolate

    for info in pkgutil.iter_modules(prolate.__path__):
        if info.name != "__main__":
            importlib.import_module(f"prolate.{info.name}")
    modules = _prolate_modules()
    originals = []
    for module_name, attr, label, counters in TARGETS:
        name = f"{module_name}.{attr}"
        holder = importlib.import_module(f"prolate.{module_name}")
        *owner_path, leaf = attr.split(".")
        for part in owner_path:
            holder = getattr(holder, part, None)
        func = vars(holder).get(leaf) if holder is not None else None
        if not callable(func):
            raise TraceError(f"prolate.{name} is missing or not a function")
        wrapped = tracer.wrap(func, name, label, counters)
        if owner_path:  # a method: the class is the one binding
            setattr(holder, leaf, wrapped)
        else:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, key, wrapped)
        originals.append((name, func))
    verify(originals)
    return originals


def verify(originals: list) -> None:
    """Fail if any prolate namespace, including ones imported late, binds an original."""
    for module in _prolate_modules():
        for key, value in vars(module).items():
            for name, func in originals:
                if value is func:
                    raise TraceError(f"{module.__name__}.{key} still binds unwrapped {name}")


def main(argv: list[str]) -> int:
    spans_path, kind, *args = argv
    tracer = Tracer()
    try:
        originals = install(tracer)
    except TraceError as exc:
        sys.stderr.write(f"trace: {exc}\n")
        return TRACE_BROKEN
    if kind == "cli":
        import prolate.cli

        code = prolate.cli.main(args)
    else:
        import libop

        code = libop.main(args)
    try:
        verify(originals)
    except TraceError as exc:
        sys.stderr.write(f"trace: {exc}\n")
        return TRACE_BROKEN
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
