"""Batch command-line front end.

Subcommands::

    run           execute a JSON-configured experiment, write CSV + manifest
    verify        run the self-check suite (fast | full)
    plot          render an SVG from one or more run CSVs
    filter-table  tabulate the filter in frequency and time domain
    jump-report   numeric diagnostics of the jump operator for a model

Every command claims its files before it computes, inside
``with _publish(targets, inputs) as temps:``; a failed command leaves no new
file or directory, and an empty output path, or one that is an input of the
command, is refused.

Exit codes, which ``main`` alone picks from what a command raises: 0 success,
1 runtime failure (out of memory too) / failed verification / a path that
cannot be read or written, 2 invalid configuration or arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from .channel import ChannelError, run_simulation, spectrum
from .config import ConfigError, load_run_config, manifest_dict, output_path
from .filters import f_hat, f_time
from .linalg import LinalgError
from .models import MODEL_PARAMS, ModelSpec
from .plotting import PLOT_KINDS, PlotError, render_plot, write_csv, write_json, write_timeseries_csv

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


# Default and meaning of each coupling flag.  The flags' argparse default is
# None, so that a flag given for the other model is told apart from a default.
_COUPLING_FLAGS = {
    "g": (1.2, "TFIM transverse field"),
    "t": (1.0, "Hubbard hopping"),
    "u": (4.0, "Hubbard interaction"),
}


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=list(MODEL_PARAMS), default="tfim")
    parser.add_argument("--sites", type=int, default=4)
    for key, (default, meaning) in _COUPLING_FLAGS.items():
        parser.add_argument(f"--{key}", type=float, help=f"{meaning} (default {default})")


def _model_from_args(args) -> ModelSpec:
    for kind, keys in MODEL_PARAMS.items():
        given = [key for key in keys if getattr(args, key) is not None]
        if kind != args.model and given:
            raise ConfigError(f"--{given[0]} only applies to --model {kind}")
    couplings = {
        name: _COUPLING_FLAGS[key][0] if getattr(args, key) is None else getattr(args, key)
        for key, name in MODEL_PARAMS[args.model].items()
    }
    try:
        return ModelSpec(args.model, args.sites, **couplings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_run(args) -> int:
    run = load_run_config(args.config)
    csv_path, manifest_path, *svgs = run.output_paths
    with _publish(run.output_paths, [args.config]) as temps:
        # the filter overrides are resolved against the spectrum the run computes
        record = run_simulation(run.model, run.channel, run.filter_overrides)
        write_timeseries_csv(record, temps[csv_path])
        write_json(temps[manifest_path], manifest_dict(run, record.meta))
        for kind, svg in zip(PLOT_KINDS, svgs):
            # the legend label is the stem of the CSV's final name
            render_plot([temps[csv_path]], kind, temps[svg], labels=[csv_path.stem])
    print(f"wrote {run.csv_path} and {run.manifest_path}")
    return EXIT_OK


@contextlib.contextmanager
def _publish(targets: list[Path], inputs=()):
    """Claim the files ``targets`` before the work: refuse one that resolves to
    a path of ``inputs``, the files the command reads, and one that exists
    but is not a regular file, make the missing parents and yield a map from
    each target to a temporary name beside it; a clean exit renames the files
    into place, and any exception leaves no new file or directory."""
    read = {Path(path).resolve() for path in inputs}
    for target in targets:
        if target.resolve() in read:
            raise ConfigError(f"output path {str(target)!r} is an input of the command")
    temps = {}
    made = []  # directories made here, parents first
    try:
        for target in targets:
            if target.is_dir():  # the one target the renames below could not replace
                raise IsADirectoryError(errno.EISDIR, "output path is a directory", str(target))
            if target.exists() and not target.is_file():  # a FIFO or device the renames would replace
                raise FileExistsError(errno.EEXIST, "output path is not a regular file", str(target))
            for directory in reversed([target.parent, *target.parent.parents]):
                if not directory.is_dir():  # a regular file in the way fails here
                    directory.mkdir()
                    made.append(directory)
            temps[target] = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        yield temps
        for target, temp in temps.items():
            temp.replace(target)
    except BaseException:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        for directory in reversed(made):  # deepest first
            with contextlib.suppress(OSError):  # a directory that is not empty stays
                directory.rmdir()
        raise


def cmd_verify(args) -> int:
    from .verify import report_dict, run_verify

    path = output_path("--report", args.report)

    def progress(res):
        mark = "PASS" if res.passed else "FAIL"
        print(f"[{mark}] {res.name}: {res.detail} ({res.seconds:.1f}s)")

    with _publish([] if path is None else [path]) as temps:
        ok, results = run_verify(args.level, progress=progress)
        report = report_dict(args.level, results)
        if path is not None:
            write_json(temps[path], report)
    if path is not None:
        print(f"report written to {path}")
    elif not ok:
        print(json.dumps(report, indent=2, sort_keys=True))
    print(f"{args.level}: {len(results) - report['n_failed']}/{len(results)} checks passed")
    return EXIT_OK if ok else EXIT_RUNTIME


def cmd_plot(args) -> int:
    out = output_path("--out", args.out)
    with _publish([out], args.csv) as temps:
        try:
            render_plot(args.csv, args.kind, temps[out], args.label)
        except PlotError as exc:  # here the CSVs are user input, not a run's own output
            raise ConfigError(str(exc)) from exc
    print(f"wrote {args.out}")
    return EXIT_OK


_CHUNK = 1 << 16  # grid points per chunk of a filter table


def _chunked(grid: np.ndarray, rows):
    """``rows(chunk)`` for each chunk of ``_CHUNK`` points of ``grid``, in
    order, so a table's Python rows never exist all at once."""
    for start in range(0, grid.size, _CHUNK):
        yield from rows(grid[start : start + _CHUNK])


def cmd_filter_table(args) -> int:
    out_dir = output_path("--out-dir", args.out_dir)
    if args.points < 0:
        raise ConfigError(f"--points must be non-negative, got {args.points}")
    grid_bytes = 16 * args.points  # the two grids; the rows are made one chunk at a time
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if grid_bytes > memory:
        raise ConfigError(
            f"--points {args.points} needs {grid_bytes} bytes for its two grids, "
            f"more than the {memory} bytes of physical memory"
        )
    # worst case of the two tables: 24-character float reprs and \r\n make a freq row at
    # most 51 bytes and a time row at most 76, after two 13-byte headers
    table_bytes = 127 * args.points + 26
    existing = next(d for d in (out_dir, *out_dir.parents) if d.exists())
    free = shutil.disk_usage(existing).free
    if table_bytes > free:
        raise ConfigError(
            f"--points {args.points} may write {table_bytes} bytes of tables, "
            f"more than the {free} bytes free under {str(existing)!r}"
        )
    model = _model_from_args(args)
    freq_csv, time_csv = out_dir / "filter_freq.csv", out_dir / "filter_time.csv"
    with _publish([freq_csv, time_csv]) as temps:
        p = spectrum(model).params.with_clamp(args.clamp)
        omegas = np.linspace(-(p.a + 6 * p.delta_a), 6 * p.delta_b, args.points)
        ss = np.linspace(-p.grid_radius, p.grid_radius, args.points)

        def freq_rows(w: np.ndarray):
            return zip(w.tolist(), f_hat(w, p).tolist())

        def time_rows(s: np.ndarray):
            f = f_time(s, p)
            return zip(s.tolist(), f.real.tolist(), f.imag.tolist())

        write_csv(temps[freq_csv], ["omega", "f_hat"], _chunked(omegas, freq_rows))
        write_csv(temps[time_csv], ["s", "re_f", "im_f"], _chunked(ss, time_rows))
    print(f"wrote {freq_csv} and {time_csv}")
    return EXIT_OK


def cmd_jump_report(args) -> int:
    from .jump import check_l1_bound, coupling_in_eigenbasis, exact_filter, quadrature_filter

    path = output_path("--sparsity-out", args.sparsity_out)
    model = _model_from_args(args)
    with _publish([] if path is None else [path]) as temps:
        dim, blocks, _, gap, _, p = spectrum(model)
        # norms, ground residuals and |K| entries are unitarily invariant, so every row comes
        # from F o (V^dag A V) in the energy basis. A links no two blocks, so each matrix is
        # zero between them: its 2-norm is the largest block 2-norm, and the ground state e_0
        # lives in the block whose levels start at level 0. `at` holds a block's level ranks.
        norm_a = norm_exact = norm_quad = k_minus_ks = 0.0
        k_abs = None if path is None else np.zeros((dim, dim))
        for _, _, a_block, spec, at in blocks:
            a_eig = coupling_in_eigenbasis(spec, a_block)
            m_exact = exact_filter(spec.eigenvalues, p) * a_eig
            m_clamped = exact_filter(spec.eigenvalues, p.with_clamp(True)) * a_eig
            m_quad = quadrature_filter(spec.eigenvalues, p) * a_eig
            norm_a = max(norm_a, a_block.norm())
            norm_exact = max(norm_exact, np.linalg.norm(m_exact, 2))
            norm_quad = max(norm_quad, np.linalg.norm(m_quad, 2))
            k_minus_ks = max(k_minus_ks, np.linalg.norm(m_exact - m_quad, 2))
            if at[0] == 0:
                residuals = np.linalg.norm(m_clamped[:, 0]), np.linalg.norm(m_exact[:, 0])
            if k_abs is not None:
                k_abs[np.ix_(at, at)] = np.abs(m_clamped)
        check_l1_bound(norm_quad, norm_a, p)
        writer = csv.writer(sys.stdout)
        writer.writerow(["metric", "value"])
        rows = [
            ("dim", dim),
            ("gap", gap),
            ("norm_a", norm_a),
            ("norm_k_exact", norm_exact),
            ("norm_k_quadrature", norm_quad),
            ("k_minus_ks", k_minus_ks),
            ("ground_residual_clamped", residuals[0]),
            ("ground_residual_unclamped", residuals[1]),
        ]
        writer.writerows((name, v if isinstance(v, int) else repr(float(v))) for name, v in rows)
        if k_abs is not None:
            entries = ((i, j, x) for i, row in enumerate(k_abs) for j, x in enumerate(row.tolist()))
            write_csv(temps[path], ["i", "j", "abs_k"], entries)
    if path is not None:
        print(f"sparsity pattern written to {path}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindbladprep",
        description="Single-ancilla dissipative ground-state preparation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON-configured experiment")
    p_run.add_argument("config", help="path to the run-config JSON")
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="run the self-check suite")
    p_verify.add_argument("level", nargs="?", choices=["fast", "full"], default="fast")
    p_verify.add_argument("--report", help="write the JSON failure report here")
    p_verify.set_defaults(fn=cmd_verify)

    p_plot = sub.add_parser("plot", help="render an SVG from run CSVs")
    p_plot.add_argument("csv", nargs="+", help="one or more run CSV files")
    p_plot.add_argument("--kind", choices=sorted(PLOT_KINDS), required=True)
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.add_argument("--label", action="append", help="legend label (repeatable)")
    p_plot.set_defaults(fn=cmd_plot)

    p_ft = sub.add_parser("filter-table", help="tabulate the spectral filter")
    _add_model_args(p_ft)
    p_ft.add_argument("--out-dir", default=".", help="directory for the CSV tables")
    p_ft.add_argument("--points", type=int, default=800)
    p_ft.add_argument("--clamp", action="store_true", help="zero the filter for w >= 0")
    p_ft.set_defaults(fn=cmd_filter_table)

    p_jr = sub.add_parser("jump-report", help="jump-operator diagnostics as CSV")
    _add_model_args(p_jr)
    p_jr.add_argument("--sparsity-out", help="write the n^2-row energy-basis |K| table here")
    p_jr.set_defaults(fn=cmd_jump_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad arguments, which matches our contract
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ConfigError, ChannelError, LinalgError, PlotError, OSError, MemoryError) as exc:
        # invalid input exits 2; a failed run (out of memory too), or an
        # unreadable input or unwritable output path, exits 1
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
