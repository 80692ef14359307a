"""Batch command-line front end.

Subcommands::

    run           execute a JSON-configured experiment, write CSV + manifest
    verify        run the self-check suite (fast | full)
    plot          render an SVG from one or more run CSVs
    filter-table  tabulate the filter in frequency and time domain
    jump-report   numeric diagnostics of the jump operator for a model

Exit codes: 0 success, 1 runtime failure / failed verification,
2 invalid configuration or arguments.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .channel import ChannelError, run_simulation
from .config import ConfigError, load_run_config, manifest_dict, resolve_filter_params
from .filters import f_hat, f_time
from .jump import exact_jump, ground_residual, quadrature_jump
from .linalg import LinalgError, hermitian_eig
from .models import ModelSpec, coupling_operator
from .plotting import PLOT_KINDS, PlotError, render_plot, write_timeseries_csv

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=["tfim", "hubbard1d"], default="tfim")
    parser.add_argument("--sites", type=int, default=4)
    parser.add_argument("--g", type=float, default=1.2, help="TFIM transverse field")
    parser.add_argument("--t", type=float, default=1.0, help="Hubbard hopping")
    parser.add_argument("--u", type=float, default=4.0, help="Hubbard interaction")
    parser.add_argument("--clamp", action="store_true", help="zero the filter for w >= 0")


def _model_from_args(args) -> ModelSpec:
    if args.model == "tfim":
        return ModelSpec("tfim", args.sites, tfim_g=args.g)
    return ModelSpec("hubbard1d", args.sites, hubbard_t=args.t, hubbard_u=args.u)


def cmd_run(args) -> int:
    try:
        run = load_run_config(args.config)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # the filter overrides are resolved against the spectrum the run computes
        record = run_simulation(run.model, run.channel, run.filter_overrides)
        write_timeseries_csv(record, run.csv_path)
        manifest = manifest_dict(run, record.meta)
        path = Path(run.manifest_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        if run.plots_dir is not None:
            for kind in PLOT_KINDS:
                render_plot([run.csv_path], kind, Path(run.plots_dir) / f"{kind}.svg")
        print(f"wrote {run.csv_path} and {run.manifest_path}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ChannelError, LinalgError, PlotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def cmd_verify(args) -> int:
    from .verify import report_dict, run_verify

    def progress(res):
        mark = "PASS" if res.passed else "FAIL"
        print(f"[{mark}] {res.name}: {res.detail} ({res.seconds:.1f}s)")

    ok, results = run_verify(args.level, progress=progress)
    report = report_dict(args.level, results)
    if args.report:
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {path}")
    elif not ok:
        print(json.dumps(report, indent=2, sort_keys=True))
    print(f"{args.level}: {len(results) - report['n_failed']}/{len(results)} checks passed")
    return EXIT_OK if ok else EXIT_RUNTIME


def cmd_plot(args) -> int:
    try:
        render_plot(args.csv, args.kind, args.out, labels=args.label or None)
    except PlotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {args.out}")
    return EXIT_OK


def _resolved_params(args):
    model = _model_from_args(args)
    spec = hermitian_eig(model.hamiltonian())
    overrides = {"clamp_nonnegative": True} if args.clamp else {}
    p = resolve_filter_params(overrides, spec.spectral_norm, spec.gap)
    return model, spec, p


def cmd_filter_table(args) -> int:
    try:
        _, spec, p = _resolved_params(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    omegas = np.linspace(-(p.a + 6 * p.delta_a), 6 * p.delta_b, args.points)
    with open(out_dir / "filter_freq.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega", "f_hat"])
        for w in omegas:
            writer.writerow([repr(float(w)), repr(float(f_hat(float(w), p)))])
    ss = np.linspace(-p.grid_radius, p.grid_radius, args.points)
    with open(out_dir / "filter_time.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "re_f", "im_f"])
        for s in ss:
            v = f_time(float(s), p)
            writer.writerow([repr(float(s)), repr(v.real), repr(v.imag)])
    print(f"wrote {out_dir / 'filter_freq.csv'} and {out_dir / 'filter_time.csv'}")
    return EXIT_OK


def cmd_jump_report(args) -> int:
    try:
        model, spec, p = _resolved_params(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    a = coupling_operator(model)
    k_exact = exact_jump(spec, a, p.with_clamp(False))
    k_clamped = exact_jump(spec, a, p.with_clamp(True))
    k_quad = quadrature_jump(spec, a, p.with_clamp(False))
    writer = csv.writer(sys.stdout)
    writer.writerow(["metric", "value"])
    rows = [
        ("dim", spec.dim),
        ("gap", spec.gap),
        ("norm_a", a.norm()),
        ("norm_k_exact", k_exact.norm()),
        ("norm_k_quadrature", k_quad.norm()),
        ("k_minus_ks", float(np.linalg.norm(k_exact.matrix - k_quad.matrix, 2))),
        ("ground_residual_clamped", ground_residual(k_clamped, spec)),
        ("ground_residual_unclamped", ground_residual(k_exact, spec)),
    ]
    for name, value in rows:
        writer.writerow([name, repr(float(value)) if not isinstance(value, int) else value])
    v = spec.eigenvectors
    k_eig = np.abs(v.conj().T @ k_clamped.matrix @ v)
    if args.sparsity_out:
        path = Path(args.sparsity_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "w", newline="")
    else:
        print()  # separate the two tables on stdout
        fh = sys.stdout
    try:
        w = csv.writer(fh)
        w.writerow(["i", "j", "abs_k"])
        for i in range(spec.dim):
            for j in range(spec.dim):
                w.writerow([i, j, repr(float(k_eig[i, j]))])
    finally:
        if fh is not sys.stdout:
            fh.close()
            print(f"sparsity pattern written to {args.sparsity_out}", file=sys.stderr)
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
    p_ft.set_defaults(fn=cmd_filter_table)

    p_jr = sub.add_parser("jump-report", help="jump-operator diagnostics as CSV")
    _add_model_args(p_jr)
    p_jr.add_argument("--sparsity-out", help="write the energy-basis |K| table here")
    p_jr.set_defaults(fn=cmd_jump_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad arguments, which matches our contract
        return int(exc.code or 0)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
