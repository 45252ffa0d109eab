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
error, 3 numerical failure (solver non-convergence).
"""
from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .bounds import certify_dft_submatrix, certify_spectrum_clustering
from .commuting import fit_commuting_tridiagonal
from .eigensolve import (
    EigensolveError,
    eigh_householder_ql,
    singular_values_via_gram,
)
from .kernels import ParameterError, ProlateParams, dft_submatrix, periodic_prolate
from .lowrank import certify_lowrank_split

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

DEFAULT_EPSILONS = (1e-3, 1e-6, 1e-9, 1e-12)
# Largest ratio-sweep end.  The last step diagonalises a dense N = M/4
# block: `transition M=8192 N=2048 K=1024` takes 4.0 s and 158 MB peak on
# two cores without numba.
SWEEP_MAX_M = 8192
# Largest dense matrix the eigensolver is given: N for the M= N= K=
# commands, 2L = 2M/p for the Hermitian embedding behind certify M= p= and
# dft-sub.  At the limit `eigs M=16384 N=4096 K=2048` takes 21 s and 542 MB
# peak, `dft-sub M=4096 p=2` 22 s and 612 MB (two cores, no numba).
MAX_DENSE_DIM = 4096
# Largest N for commute, which solves B and its tridiagonal with vectors.
# At the limit `commute M=3008 N=752 K=375` takes 15 s and 87 MB peak, but
# the QL vector update runs about twice as slow at some N: N=768 takes 31 s
# (two cores, no numba).
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
exit codes: 0 ok, 1 certification failed, 2 usage error, 3 numerical error
""".format(eps="1e-3,1e-6,1e-9,1e-12")


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


def _fmt(x: float) -> str:
    """Fixed float rendering: 17 significant digits, lowercase scientific."""
    return f"{float(x):.16e}"


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _parse_int(key: str, text: str) -> int:
    """ASCII decimal digits with an optional leading minus, nothing else."""
    if re.fullmatch(r"-?[0-9]+", text) is not None:
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise UsageError(f"{key} must be a decimal integer, got {text!r}")


def _parse_eps_list(text: str) -> tuple[float, ...]:
    values = []
    for piece in text.split(","):
        try:
            value = float(piece)
        except ValueError:
            raise UsageError(f"bad epsilon value {piece!r}") from None
        if not 0.0 < value < 0.5:
            raise UsageError(f"epsilon must lie in (0, 1/2), got {piece}")
        values.append(value)
    if not values:
        raise UsageError("eps list is empty")
    return tuple(values)


_COMMANDS = ("eigs", "transition", "certify", "dft-sub", "decompose", "commute")
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
    if command not in _COMMANDS:
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
    if "order" in kv:
        config.order = _parse_int("order", kv.pop("order"))
        if config.order < 0:
            raise UsageError("order must be >= 0")

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

    if command == "certify" and "p" not in kv and kv.keys() & {"row", "col"}:
        raise UsageError("certify takes row= and col= only with p=")
    if "M" in kv:
        config.m = _parse_int("M", kv.pop("M"))
    if "N" in kv:
        config.n = _parse_int("N", kv.pop("N"))
    if "K" in kv:
        config.k = _parse_int("K", kv.pop("K"))
    if "p" in kv:
        config.p = _parse_int("p", kv.pop("p"))
    if "row" in kv:
        config.row_offset = _parse_int("row", kv.pop("row"))
    if "col" in kv:
        config.col_offset = _parse_int("col", kv.pop("col"))
    if kv:
        raise UsageError(f"unhandled keys: {sorted(kv)}")

    needs_params = command in ("eigs", "decompose", "commute") or (
        command in ("transition", "certify") and config.p is None
    )
    if needs_params:
        for key, value in (("M", config.m), ("N", config.n), ("K", config.k)):
            if value is None:
                raise UsageError(f"{command} requires {key}=")
    if command == "dft-sub" or (command == "certify" and config.p is not None):
        if config.m is None or config.p is None:
            raise UsageError(f"{command} requires M= and p=")
        if config.n is not None or config.k is not None:
            raise UsageError("certify takes either M,N,K or M,p[,row,col]")
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
        dim = 2 * (config.m // config.p)
        if dim > MAX_DENSE_DIM:
            raise UsageError(
                f"2M/p must be <= {MAX_DENSE_DIM} (the Gram's real embedding), got {dim}"
            )


def _params_from(config: RunConfig) -> ProlateParams:
    try:
        return ProlateParams(M=config.m, N=config.n, K=config.k)
    except ParameterError as exc:
        raise UsageError(str(exc)) from None


def _csv(comments: list[str], header: str, rows: list[list[str]]) -> str:
    lines = [f"# {text}" for text in comments]
    lines.append(header)
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_doc(command: str, comments: list[str], header: str, rows) -> str:
    columns = header.split(",")
    records = [dict(zip(columns, row)) for row in rows]
    doc = {"command": command, "notes": comments, "columns": columns, "rows": records}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _render(config: RunConfig, comments, header, rows) -> str:
    if config.format == "json":
        return _json_doc(config.command, comments, header, rows)
    return _csv(comments, header, rows)


_GNUPLOT = {
    "eigs": (
        'set datafile separator ","\n'
        "set xlabel 'index'\nset ylabel 'eigenvalue'\n"
        "plot '{path}' skip {skip} using 1:2 with points pt 7 ps 0.5 title 'spectrum'\n"
    ),
    "dft-sub": (
        'set datafile separator ","\n'
        "set xlabel 'index'\nset ylabel 'singular value'\n"
        "plot '{path}' skip {skip} using 1:2 with points pt 7 ps 0.5 title 'singular values'\n"
    ),
    "transition": (
        'set datafile separator ","\n'
        "set logscale x 2\nset xlabel 'M'\nset ylabel 'transition width'\n"
        "plot '{path}' skip {skip} using 1:5 with linespoints title 'width'\n"
    ),
}


def _sidecar(config: RunConfig, comments: list[str]) -> tuple[Path, str] | None:
    if config.output_path is None or config.format != "csv":
        return None
    template = _GNUPLOT.get(config.command)
    if template is None:
        return None
    path = Path(str(config.output_path) + ".gp")
    text = template.format(path=config.output_path.name, skip=len(comments) + 1)
    return path, text


def _run_eigs(config: RunConfig):
    params = _params_from(config)
    spectrum = eigh_householder_ql(periodic_prolate(params).dense())
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


def _clustering_reports(params: ProlateParams, epsilons):
    """Certificates at each eps, all from one spectrum of the prolate block."""
    if params.N >= params.M:
        raise UsageError(f"need N < M, got N={params.N}, M={params.M}")
    spectrum = eigh_householder_ql(periodic_prolate(params).dense())
    return [certify_spectrum_clustering(params, eps, spectrum) for eps in epsilons]


def _run_transition(config: RunConfig):
    if config.sweep is None:
        grid = [_params_from(config)]
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
        report
        for params in grid
        for report in _clustering_reports(params, config.epsilons)
    ]
    rows = [
        _mnk_cells(r.params)
        + [_fmt(r.epsilon), str(r.width), _fmt(r.bound), _fmt_bool(r.width_ok)]
        for r in reports
    ]
    header = "M,N,K,epsilon,width,bound_2R,pass"
    return comments, header, rows, all(r.width_ok for r in reports)


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
        params = _params_from(config)
        reports = _clustering_reports(params, config.epsilons)
        lead = _mnk_cells(params)
        comments = [
            "eigenvalue clustering certificates",
            f"cluster_point = {_fmt(params.cluster_point)}",
        ]
        header = "M,N,K,epsilon,width,bound_2R,lower_index_ok,upper_index_ok,width_ok,pass"
    else:
        where = (config.m, config.p, config.row_offset, config.col_offset)
        sigma = singular_values_via_gram(dft_submatrix(*where))
        reports = [
            certify_dft_submatrix(*where, eps, singular_values=sigma)
            for eps in config.epsilons
        ]
        lead = [str(value) for value in where]
        comments = ["singular-value clustering certificates for a DFT submatrix"]
        header = (
            "M,p,row,col,epsilon,width,bound_2R,"
            "lower_index_ok,upper_index_ok,width_ok,pass"
        )
    rows = [lead + _report_cells(report) for report in reports]
    return comments, header, rows, all(report.passed for report in reports)


def _run_decompose(config: RunConfig):
    params = _params_from(config)
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
    params = _params_from(config)
    fit = fit_commuting_tridiagonal(periodic_prolate(params).dense(), params)
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


def run(config: RunConfig) -> int:
    """Execute a parsed configuration; writes output and returns the exit code."""
    comments, header, rows, passed = _RUNNERS[config.command](config)
    text = _render(config, comments, header, rows)
    if config.output_path is None:
        sys.stdout.write(text)
    else:
        config.output_path.write_text(text)
        sidecar = _sidecar(config, comments)
        if sidecar is not None:
            sidecar[0].write_text(sidecar[1])
    return EXIT_OK if passed else EXIT_CERTIFICATION


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        config = parse_args(args)
    except UsageError as exc:
        sys.stderr.write(USAGE)
        if str(exc):
            sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    try:
        return run(config)
    except (UsageError, ParameterError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except EigensolveError as exc:
        sys.stderr.write(json.dumps({"failure": "numerical", "detail": str(exc)}) + "\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
