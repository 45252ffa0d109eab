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
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import (
    certify_dft_submatrix,
    certify_spectrum_clustering,
    transition_bound,
    transition_width,
)
from .commuting import (
    DegenerateFitError,
    eigenvectors_via_tridiagonal,
    fit_commuting_tridiagonal,
)
from .eigensolve import (
    EigensolveError,
    eigh_householder_ql,
    singular_values_via_gram,
)
from .kernels import (
    ParameterError,
    ProlateParams,
    dft_submatrix,
    periodic_prolate,
    sinc_prolate,
)
from .lowrank import lowrank_tail_split

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

DEFAULT_EPSILONS = (1e-3, 1e-6, 1e-9, 1e-12)

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
    try:
        return int(text, 10)
    except ValueError:
        raise UsageError(f"{key} must be a decimal integer, got {text!r}") from None


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
        config.sweep = (lo, hi)
        if kv:
            raise UsageError(f"unexpected keys for ratio-sweep: {sorted(kv)}")
        return config

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
        if config.n is not None or (config.k is not None):
            if command == "certify":
                raise UsageError("certify takes either M,N,K or M,p[,row,col]")
    return config


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
    return comments, "index,eigenvalue", rows, EXIT_OK


def _run_dft_sub(config: RunConfig):
    if config.m is None or config.p is None:
        raise UsageError("dft-sub requires M= and p=")
    sigma = singular_values_via_gram(
        dft_submatrix(config.m, config.p, config.row_offset, config.col_offset)
    )
    comments = [
        "singular values of the cyclic DFT submatrix, descending",
        f"M={config.m} p={config.p} L={config.m // config.p}"
        f" row={config.row_offset} col={config.col_offset}",
    ]
    rows = [[str(i), _fmt(v)] for i, v in enumerate(sigma)]
    return comments, "index,singular_value", rows, EXIT_OK


def _transition_rows(m: int, n: int, k: int, epsilons):
    params = ProlateParams(M=m, N=n, K=k)
    spectrum = eigh_householder_ql(periodic_prolate(params).dense())
    rows = []
    all_ok = True
    for eps in epsilons:
        width = transition_width(spectrum.values, eps)
        bound = 2.0 * transition_bound(n, m, eps)
        ok = width <= bound
        all_ok = all_ok and ok
        rows.append(
            [str(m), str(n), str(k), _fmt(eps), str(width), _fmt(bound), _fmt_bool(ok)]
        )
    return rows, all_ok


def _run_transition(config: RunConfig):
    header = "M,N,K,epsilon,width,bound_2R,pass"
    if config.sweep is None:
        params = _params_from(config)
        if params.N >= params.M:
            raise UsageError("transition requires N < M")
        rows, all_ok = _transition_rows(
            params.M, params.N, params.K, config.epsilons
        )
        comments = ["transition width against twice the analytic half-width cap"]
    else:
        lo, hi = config.sweep
        sizes = []
        m = lo
        while m <= hi:
            sizes.append(m)
            m *= 2
        comments = [
            "doubling sweep with N = M/4, K = M/8",
            f"M from {lo} to {hi}",
        ]
        results = [
            _transition_rows(size, size // 4, size // 8, config.epsilons)
            for size in sizes
        ]
        rows = [row for chunk, _ in results for row in chunk]
        all_ok = all(ok for _, ok in results)
    code = EXIT_OK if all_ok else EXIT_CERTIFICATION
    return comments, header, rows, code


def _run_certify(config: RunConfig):
    if config.p is None:
        params = _params_from(config)
        if params.N >= params.M:
            raise UsageError("certify requires N < M")
        spectrum = eigh_householder_ql(periodic_prolate(params).dense())
        rows = []
        all_ok = True
        for eps in config.epsilons:
            report = certify_spectrum_clustering(params, eps, spectrum)
            all_ok = all_ok and report.passed
            rows.append(
                [
                    str(params.M),
                    str(params.N),
                    str(params.K),
                    _fmt(eps),
                    str(report.width),
                    _fmt(report.bound),
                    _fmt_bool(report.lower_index_ok),
                    _fmt_bool(report.upper_index_ok),
                    _fmt_bool(report.width_ok),
                    _fmt_bool(report.passed),
                ]
            )
        comments = [
            "eigenvalue clustering certificates",
            f"cluster_point = {_fmt(params.cluster_point)}",
        ]
        header = "M,N,K,epsilon,width,bound_2R,lower_index_ok,upper_index_ok,width_ok,pass"
    else:
        if config.m is None:
            raise UsageError("certify requires M=")
        if config.m % config.p != 0:
            raise UsageError(f"p={config.p} does not divide M={config.m}")
        sigma = singular_values_via_gram(
            dft_submatrix(config.m, config.p, config.row_offset, config.col_offset)
        )
        rows = []
        all_ok = True
        for eps in config.epsilons:
            report = certify_dft_submatrix(
                config.m,
                config.p,
                config.row_offset,
                config.col_offset,
                eps,
                singular_values=sigma,
            )
            all_ok = all_ok and report.passed
            rows.append(
                [
                    str(config.m),
                    str(config.p),
                    str(config.row_offset),
                    str(config.col_offset),
                    _fmt(eps),
                    str(report.width),
                    _fmt(report.bound),
                    _fmt_bool(report.lower_index_ok),
                    _fmt_bool(report.upper_index_ok),
                    _fmt_bool(report.width_ok),
                    _fmt_bool(report.passed),
                ]
            )
        comments = ["singular-value clustering certificates for a DFT submatrix"]
        header = (
            "M,p,row,col,epsilon,width,bound_2R,"
            "lower_index_ok,upper_index_ok,width_ok,pass"
        )
    code = EXIT_OK if all_ok else EXIT_CERTIFICATION
    return comments, header, rows, code


def _run_decompose(config: RunConfig):
    params = _params_from(config)
    if params.N >= params.M:
        raise UsageError("decompose requires N < M")
    difference = (
        periodic_prolate(params).dense() - sinc_prolate(params.N, params.W).dense()
    )
    rows = []
    all_ok = True
    for eps in config.epsilons:
        parts = lowrank_tail_split(params, eps, order=config.order)
        residual = difference - parts.lowrank
        row_sum = float(np.abs(residual).sum(axis=1).max())
        entry = float(np.abs(residual).max())
        sigma = singular_values_via_gram(parts.lowrank.astype(np.complex128))
        if sigma.size and sigma[0] > 0.0:
            rank = int((sigma > 1e-10 * sigma[0]).sum())
        else:
            rank = 0
        ok = (
            row_sum <= eps / 16.0
            and entry <= eps / (16.0 * params.N)
            and rank <= 4 * parts.order
        )
        all_ok = all_ok and ok
        rows.append(
            [
                str(parts.order),
                str(rank),
                _fmt(parts.tail_bound),
                _fmt(row_sum),
                _fmt_bool(ok),
            ]
        )
    comments = [
        "low-rank + certified-tail split of (periodic - sinc) prolate kernels",
        f"M={params.M} N={params.N} K={params.K}",
        "epsilon per row: " + ",".join(_fmt(e) for e in config.epsilons),
    ]
    header = "R,rank_L2_certified,tail_bound,row_sum_residual,pass"
    code = EXIT_OK if all_ok else EXIT_CERTIFICATION
    return comments, header, rows, code


def _run_commute(config: RunConfig):
    params = _params_from(config)
    dense = periodic_prolate(params).dense()
    fit = fit_commuting_tridiagonal(dense)
    compared = 0
    max_dev = 0.0
    min_align = 1.0
    if not fit.degenerate:
        direct = eigh_householder_ql(dense)
        via_tri = eigenvectors_via_tridiagonal(fit, dense)
        lam = direct.values
        gaps = np.full(lam.size, np.inf)
        if lam.size > 1:
            step = np.abs(np.diff(lam))
            gaps[:-1] = np.minimum(gaps[:-1], step)
            gaps[1:] = np.minimum(gaps[1:], step)
        mask = gaps > 1e-6
        compared = int(mask.sum())
        if compared:
            max_dev = float(np.abs(via_tri.values - lam)[mask].max())
            min_align = float(np.nanmin(fit.alignment[mask]))
    ok = (
        not fit.degenerate
        and fit.commutator_norm <= 1e-8
        and max_dev <= 1e-8
    )
    comments = [
        "commuting symmetric tridiagonal recovered by least squares",
        f"M={params.M} N={params.N} K={params.K}",
    ]
    header = "N,commutator_norm,degenerate,compared,max_value_dev,min_alignment,pass"
    rows = [
        [
            str(params.N),
            _fmt(fit.commutator_norm),
            _fmt_bool(fit.degenerate),
            str(compared),
            _fmt(max_dev),
            _fmt(min_align),
            _fmt_bool(ok),
        ]
    ]
    code = EXIT_OK if ok else EXIT_CERTIFICATION
    return comments, header, rows, code


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
    comments, header, rows, code = _RUNNERS[config.command](config)
    text = _render(config, comments, header, rows)
    if config.output_path is None:
        sys.stdout.write(text)
    else:
        config.output_path.write_text(text)
        sidecar = _sidecar(config, comments)
        if sidecar is not None:
            sidecar[0].write_text(sidecar[1])
    return code


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
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ParameterError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except DegenerateFitError as exc:
        sys.stderr.write(json.dumps({"failure": "degenerate", "detail": str(exc)}) + "\n")
        return EXIT_CERTIFICATION
    except EigensolveError as exc:
        sys.stderr.write(json.dumps({"failure": "numerical", "detail": str(exc)}) + "\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
