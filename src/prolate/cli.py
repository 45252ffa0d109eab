"""Command-line entry point for spectra, certificates, and reproductions.

Commands take ``key=value`` tokens, e.g.::

    prolate eigs M=1024 N=256 K=128 out=eigs.csv
    prolate transition ratio-sweep M=64..4096 eps=1e-3,1e-6,1e-9,1e-12
    prolate certify M=1024 N=256 K=128 eps=1e-6
    prolate certify M=1024 p=4 row=3 col=7 eps=1e-3,1e-6
    prolate dft-sub M=1024 p=4 row=0 col=0
    prolate decompose M=1024 N=256 K=128 eps=1e-3,1e-6
    prolate commute M=64 N=16 K=7

Output is CSV (default) or JSON, to stdout or to ``out=PATH``; floats are
rendered with 17 significant digits so identical configurations produce
byte-identical files.  When a file is written for eigs, dft-sub, or
transition, a small gnuplot script is emitted alongside it.

Exit codes: 0 success, 1 certification failure, 2 usage or parameter
error (the library, not the parser, judges eps, order and the model), an
unwritable out=PATH or a failed write to stdout, 3 numerical failure
(solver non-convergence).

Each command loads only the layers it runs: ``decompose`` imports
``lowrank``, ``commute`` imports ``commuting``, and ``json`` is imported
only for ``format=json`` and the numerical-failure report.  Started as a
program (``python -m prolate``, ``python -m prolate.cli`` or the
``prolate`` script), the process ends through `exit_main`, which skips
interpreter teardown; `main` itself returns the exit code.
"""
from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

from .bounds import (
    SPECTRUM_EPS_FLOOR, certify_dft_submatrix, certify_spectrum_clustering
)
from .eigensolve import EigensolveError, eigh_householder_ql, singular_values_via_gram
from .kernels import ParameterError, ProlateParams, dft_submatrix, periodic_prolate

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

DEFAULT_EPSILONS = (1e-3, 1e-6, 1e-9, 1e-12)
# Largest ratio-sweep end.  The last step diagonalises a dense N = M/4
# block: `transition M=8192 N=2048 K=1024` takes 0.84 s and 77 MB peak on
# two cores without numba.
SWEEP_MAX_M = 8192
# Largest dense matrix the eigensolver is given: N for the M= N= K=
# commands.  At the limit, best of 2 on two cores without numba, `eigs
# M=16384 N=4096 K=2048` takes 3.0 s and 98 MB peak (it solves two parity
# blocks built from the symbol, never the N x N matrix), and `decompose
# M=16384 N=4096 K=2048` 0.5 s and 40 MB (0.33 s and 36 MB at N=2048; it
# counts ranks in a basis of the span that holds its range, no N x N solve).
MAX_DENSE_DIM = 4096
# Largest side L = M/p of the DFT block behind certify M= p= and dft-sub,
# whose L x L complex Gram is reduced whole.  At the limit `dft-sub M=4096
# p=2` takes 4.9 s and 227 MB peak (best of 2, two cores, no numba).
MAX_DFT_DIM = 2048
# Largest N for commute, which solves B and its tridiagonal with vectors.
# At the limit `commute M=3008 N=752 K=375` takes 1.8-1.9 s (medians of two
# batches of 8) and 79 MB peak (two cores, two BLAS threads, no numba); the
# fit at N=768 takes 2.1 s in process (median of 5).
COMMUTE_MAX_N = 752

USAGE = """\
usage: prolate COMMAND key=value ...

commands:
  eigs        M= N= K=                 eigenvalues of the prolate block
  transition  M= N= K= [eps=...]       transition widths vs the bound
  transition  ratio-sweep M=LO..HI     doubling sweep with N=M/4, K=M/8
              [eps=...]
  certify     M= N= K= [eps=...]       clustering certificates (eigenvalues)
  certify     M= p= [row=] [col=]      clustering certificates (DFT block)
              [eps=...]
  dft-sub     M= p= [row=] [col=]      singular values of a cyclic DFT block
  decompose   M= N= K= [eps=...]       low-rank + certified-tail split
              [order=]
  commute     M= N= K=                 commuting-tridiagonal fit report

common keys: out=PATH (default stdout), format=csv|json
eps accepts a comma-separated list in (0, 1/2); default {eps}
  transition and certify need eps >= {floor:g} (solver resolution)
exit codes: 0 ok, 1 certification failed, 2 usage error, 3 numerical error
""".format(
    eps=",".join(f"{e:.0e}".replace("e-0", "e-") for e in DEFAULT_EPSILONS),
    floor=SPECTRUM_EPS_FLOOR,
)


class UsageError(Exception):
    """Bad command line; reported on stderr with exit code 2."""


@dataclass
class RunConfig:
    """Parsed invocation: one command plus its validated parameters."""

    command: str
    m: int | None = None
    n: int | None = None
    k: int | None = None
    p: int | None = None
    row_offset: int = 0
    col_offset: int = 0
    sweep: tuple[int, int] | None = None
    order: int | None = None
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    output_path: Path | None = None
    format: str = "csv"

    @property
    def params(self) -> ProlateParams:
        return ProlateParams(M=self.m, N=self.n, K=self.k)


def _fmt(x: float) -> str:
    """Fixed float rendering: 17 significant digits, lowercase scientific."""
    return f"{float(x):.16e}"


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _parse_int(key: str, text: str) -> int:
    """ASCII decimal digits with an optional leading minus, nothing else."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise UsageError(f"{key} must be a decimal integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        digits = len(text.lstrip("-"))
        raise UsageError(f"{key} is too large: {digits} decimal digits") from None


def _parse_eps_list(text: str) -> tuple[float, ...]:
    """Floats only: the library refuses an eps outside its domain."""
    values = []
    for piece in text.split(","):
        try:
            values.append(float(piece))
        except ValueError:
            raise UsageError(f"bad epsilon value {piece!r}") from None
    return tuple(values)


# Each integer key and the RunConfig field it fills.
_INT_FIELDS = {"M": "m", "N": "n", "K": "k", "p": "p", "row": "row_offset",
               "col": "col_offset", "order": "order"}
_KEYS = {
    "eigs": {"M", "N", "K", "out", "format"},
    "transition": {"M", "N", "K", "eps", "out", "format"},
    "certify": {"M", "N", "K", "p", "row", "col", "eps", "out", "format"},
    "dft-sub": {"M", "p", "row", "col", "out", "format"},
    "decompose": {"M", "N", "K", "eps", "order", "out", "format"},
    "commute": {"M", "N", "K", "out", "format"},
}


def parse_args(argv: list[str]) -> RunConfig:
    if not argv:
        raise UsageError("no command given")
    command = argv[0]
    if command in ("-h", "--help", "help"):
        raise UsageError("")
    if command not in _KEYS:
        raise UsageError(f"unknown command {command!r}")
    config = RunConfig(command=command)
    kv: dict[str, str] = {}
    for token in argv[1:]:
        if token == "ratio-sweep":
            if command != "transition":
                raise UsageError("ratio-sweep applies to the transition command")
            config.sweep = (0, 0)  # placeholder until M is parsed
            continue
        key, sep, value = token.partition("=")
        if not sep or not key or not value:
            raise UsageError(f"expected key=value, got {token!r}")
        if key not in _KEYS[command]:
            raise UsageError(f"key {key!r} is not valid for {command}")
        if key in kv:
            raise UsageError(f"duplicate key {key!r}")
        kv[key] = value

    if "out" in kv:
        config.output_path = Path(kv.pop("out"))
    if "format" in kv:
        fmt = kv.pop("format")
        if fmt not in ("csv", "json"):
            raise UsageError(f"format must be csv or json, got {fmt!r}")
        config.format = fmt
    if "eps" in kv:
        config.epsilons = _parse_eps_list(kv.pop("eps"))

    if config.sweep is not None:
        text = kv.pop("M", None)
        if text is None or ".." not in text:
            raise UsageError("ratio-sweep needs M=LO..HI")
        lo_text, _, hi_text = text.partition("..")
        lo = _parse_int("M", lo_text)
        hi = _parse_int("M", hi_text)
        if lo < 8 or lo % 8 != 0:
            raise UsageError("sweep start must be a positive multiple of 8")
        if hi < lo:
            raise UsageError("sweep end must be >= its start")
        if hi > SWEEP_MAX_M:
            raise UsageError(
                f"sweep end must be <= {SWEEP_MAX_M} (dense N = M/4 blocks), got {hi}"
            )
        config.sweep = (lo, hi)
        if kv:
            raise UsageError(f"unexpected keys for ratio-sweep: {sorted(kv)}")
        return config

    for key, name in _INT_FIELDS.items():
        if key in kv:
            setattr(config, name, _parse_int(key, kv[key]))
    if command == "dft-sub" or "p" in kv:  # the DFT-block form
        if not kv.keys() >= {"M", "p"}:
            raise UsageError(f"{command} requires M= and p=")
        if kv.keys() & {"N", "K"}:
            raise UsageError("certify takes either M,N,K or M,p[,row,col]")
    else:
        if kv.keys() & {"row", "col"}:
            raise UsageError("certify takes row= and col= only with p=")
        for key in ("M", "N", "K"):
            if key not in kv:
                raise UsageError(f"{command} requires {key}=")
    _check_size(config)
    return config


def _check_size(config: RunConfig) -> None:
    """Reject, before anything is allocated, work past the size limits."""
    if config.n is not None:
        if config.n > MAX_DENSE_DIM:
            raise UsageError(f"N must be <= {MAX_DENSE_DIM}, got {config.n}")
        if config.command == "commute" and config.n > COMMUTE_MAX_N:
            raise UsageError(f"commute needs N <= {COMMUTE_MAX_N}, got {config.n}")
    if config.p is not None and config.p > 0:
        dim = config.m // config.p
        if dim > MAX_DFT_DIM:
            raise UsageError(f"M/p must be <= {MAX_DFT_DIM}, got {dim}")


def _csv(comments: list[str], header: str, rows: list[list[str]]) -> str:
    lines = [f"# {text}" for text in comments]
    lines.append(header)
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_doc(command: str, comments: list[str], header: str, rows) -> str:
    import json

    columns = header.split(",")
    records = [dict(zip(columns, row)) for row in rows]
    doc = {"command": command, "notes": comments, "columns": columns, "rows": records}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# The gnuplot script written next to a CSV file, and each command's row.
_GNUPLOT = (
    'set datafile separator ","\n'
    "{logx}set xlabel '{x}'\nset ylabel '{y}'\n"
    "plot '{path}' skip {skip} using {using} with {style} title '{title}'\n"
)
_PLOTS = {
    "eigs": dict(x="index", y="eigenvalue", using="1:2", style="points pt 7 ps 0.5",
                 title="spectrum", logx=""),
    "dft-sub": dict(x="index", y="singular value", using="1:2",
                    style="points pt 7 ps 0.5", title="singular values", logx=""),
    "transition": dict(x="M", y="transition width", using="1:5", style="linespoints",
                       title="width", logx="set logscale x 2\n"),
}


def _run_eigs(config: RunConfig):
    params = config.params
    spectrum = eigh_householder_ql(periodic_prolate(params))
    comments = [
        "eigenvalues of the N x N periodic prolate block, descending",
        f"M={params.M} N={params.N} K={params.K}",
        f"cluster_point = {_fmt(params.cluster_point)}",
    ]
    rows = [[str(i), _fmt(v)] for i, v in enumerate(spectrum.values)]
    return comments, "index,eigenvalue", rows, True


def _run_dft_sub(config: RunConfig):
    sigma = singular_values_via_gram(
        dft_submatrix(config.m, config.p, config.row_offset, config.col_offset)
    )
    comments = [
        "singular values of the cyclic DFT submatrix, descending",
        f"M={config.m} p={config.p} L={config.m // config.p}"
        f" row={config.row_offset} col={config.col_offset}",
    ]
    rows = [[str(i), _fmt(v)] for i, v in enumerate(sigma)]
    return comments, "index,singular_value", rows, True


def _mnk_cells(params: ProlateParams) -> list[str]:
    return [str(params.M), str(params.N), str(params.K)]


def _run_transition(config: RunConfig):
    if config.sweep is None:
        grid = [config.params]
        comments = ["transition width against twice the analytic half-width cap"]
    else:
        lo, hi = config.sweep
        grid = []
        m = lo
        while m <= hi:
            grid.append(ProlateParams(M=m, N=m // 4, K=m // 8))
            m *= 2
        comments = [
            "doubling sweep with N = M/4, K = M/8",
            f"M from {lo} to {hi}",
        ]
    reports = [
        (params, report)
        for params in grid
        for report in certify_spectrum_clustering(params, config.epsilons)
    ]
    rows = [
        _mnk_cells(params)
        + [_fmt(r.epsilon), str(r.width), _fmt(r.bound), _fmt_bool(r.width_ok)]
        for params, r in reports
    ]
    header = "M,N,K,epsilon,width,bound_2R,pass"
    return comments, header, rows, all(r.width_ok for _, r in reports)


def _report_cells(report) -> list[str]:
    """Certify cells after the location columns: eps, width, bound, verdicts."""
    return [
        _fmt(report.epsilon),
        str(report.width),
        _fmt(report.bound),
        _fmt_bool(report.lower_index_ok),
        _fmt_bool(report.upper_index_ok),
        _fmt_bool(report.width_ok),
        _fmt_bool(report.passed),
    ]


def _run_certify(config: RunConfig):
    if config.p is None:
        params = config.params
        reports = certify_spectrum_clustering(params, config.epsilons)
        lead = _mnk_cells(params)
        comments = [
            "eigenvalue clustering certificates",
            f"cluster_point = {_fmt(params.cluster_point)}",
        ]
        header = "M,N,K,epsilon,width,bound_2R,lower_index_ok,upper_index_ok,width_ok,pass"
    else:
        where = (config.m, config.p, config.row_offset, config.col_offset)
        reports = certify_dft_submatrix(
            config.m, config.p, config.epsilons, config.row_offset, config.col_offset
        )
        lead = [str(value) for value in where]
        comments = ["singular-value clustering certificates for a DFT submatrix"]
        header = (
            "M,p,row,col,epsilon,width,bound_2R,"
            "lower_index_ok,upper_index_ok,width_ok,pass"
        )
    rows = [lead + _report_cells(report) for report in reports]
    return comments, header, rows, all(report.passed for report in reports)


def _run_decompose(config: RunConfig):
    from .lowrank import certify_lowrank_split

    params = config.params
    certificates = certify_lowrank_split(params, config.epsilons, order=config.order)
    rows = [
        [
            str(cert.order),
            str(cert.rank),
            _fmt(cert.tail_bound),
            _fmt(cert.row_sum),
            _fmt_bool(cert.passed),
        ]
        for cert in certificates
    ]
    comments = [
        "low-rank + certified-tail split of (periodic - sinc) prolate kernels",
        f"M={params.M} N={params.N} K={params.K}",
        "epsilon per row: " + ",".join(_fmt(e) for e in config.epsilons),
    ]
    header = "R,rank_L2_certified,tail_bound,row_sum_residual,pass"
    return comments, header, rows, all(cert.passed for cert in certificates)


def _run_commute(config: RunConfig):
    from .commuting import fit_commuting_tridiagonal

    params = config.params
    fit = fit_commuting_tridiagonal(periodic_prolate(params), params)
    comments = [
        "commuting symmetric tridiagonal from its closed form",
        f"M={params.M} N={params.N} K={params.K}",
    ]
    header = "N,commutator_norm,degenerate,compared,max_value_dev,min_alignment,pass"
    rows = [
        [
            str(params.N),
            _fmt(fit.commutator_norm),
            _fmt_bool(fit.degenerate),
            str(fit.compared),
            _fmt(fit.max_value_dev),
            _fmt(fit.min_alignment),
            _fmt_bool(fit.passed),
        ]
    ]
    return comments, header, rows, fit.passed


# Each runner returns (comments, header, rows, passed).
_RUNNERS = {
    "eigs": _run_eigs,
    "transition": _run_transition,
    "certify": _run_certify,
    "dft-sub": _run_dft_sub,
    "decompose": _run_decompose,
    "commute": _run_commute,
}


def _discard_stdout() -> None:
    """Point descriptor 1 at the null device after a failed write, so that
    the text still buffered in ``sys.stdout`` cannot fail a later flush."""
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    except (OSError, ValueError):  # no descriptor behind sys.stdout
        pass


def run(config: RunConfig) -> int:
    """Execute a parsed configuration; writes output and returns the exit code."""
    comments, header, rows, passed = _RUNNERS[config.command](config)
    code = EXIT_OK if passed else EXIT_CERTIFICATION
    if config.format == "json":
        text = _json_doc(config.command, comments, header, rows)
    else:
        text = _csv(comments, header, rows)
    out = config.output_path
    if out is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            _discard_stdout()
            sys.stderr.write(f"error: cannot write stdout: {exc.strerror}\n")
            return EXIT_USAGE
        return code
    files = [(out, text)]
    if config.format == "csv" and config.command in _PLOTS:
        plot = _GNUPLOT.format(path=out.name, skip=len(comments) + 1,
                               **_PLOTS[config.command])
        files.append((Path(f"{out}.gp"), plot))
    for path, body in files:
        try:
            path.write_text(body)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {path}: {exc.strerror}\n")
            return EXIT_USAGE
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(list(sys.argv[1:] if argv is None else argv))
    except UsageError as exc:
        sys.stderr.write(USAGE)
        if str(exc):
            sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    try:
        return run(config)
    except ParameterError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except EigensolveError as exc:
        import json

        sys.stderr.write(json.dumps({"failure": "numerical", "detail": str(exc)}) + "\n")
        return EXIT_NUMERICAL


def exit_main() -> NoReturn:
    """Run `main` on ``sys.argv`` and end the process with its exit code.

    The one exit of ``python -m prolate``, ``python -m prolate.cli`` and
    the ``prolate`` console script.  Every output file is closed, and the
    report on stdout flushed, when `main` returns, so once stdout and
    stderr are flushed the process ends through ``os._exit``, skipping
    interpreter teardown (module and object finalisation).  If a flush
    still fails (stderr), it raises ``SystemExit`` instead, so the
    interpreter reports the failure and sets the exit status as it does
    without this shortcut.  Exceptions from `main` propagate unchanged.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at start
                stream.flush()
    except OSError:
        raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    exit_main()
