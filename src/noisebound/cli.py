"""Batch front-end: validate configs, run sweeps, cross-check every row
against the exact energy its grid point computed, and emit plot-ready
data files.

Exit codes: 0 success, 2 validation failure, 3 partial failure (some grid
points failed, or an oracle cross-check found a violation).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import defaultdict

from . import sweep
from .config import ConfigError, check_oracle_size, load_config
from .report import read_csv

PLOT_TEMPLATES = ("bound_vs_depth", "bound_vs_p_theta_heatmap",
                  "fermion_vs_depth")

_ORACLE_TOL = 1e-8


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="noisebound",
        description="Certified lower bounds on noisy-circuit output energies.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--workers", type=int, default=None,
                       help=f"worker count (default ${sweep.WORKERS_ENV} or 1)")
    p_run.add_argument("--oracle", action="store_true",
                       help="cross-check every row against the exact oracle "
                            "(small instances only)")

    p_plot = sub.add_parser("plot", help="emit plot-ready data from a result CSV")
    p_plot.add_argument("csv")
    p_plot.add_argument("--template", required=True, choices=PLOT_TEMPLATES)
    p_plot.add_argument("--out", default=None,
                        help="output directory (default <csv>_plot)")

    p_oc = sub.add_parser("oracle-check",
                          help="run a config with dense cross-validation")
    p_oc.add_argument("config")

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")

    args = parser.parse_args(argv)
    try:
        if args.verb == "validate":
            return cmd_validate(args.config)
        if args.verb == "run":
            return cmd_run(args.config, args.workers, args.oracle)
        if args.verb == "oracle-check":
            return cmd_oracle_check(args.config)
        if args.verb == "plot":
            return cmd_plot(args.csv, args.template, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_validate(path: str) -> int:
    load_config(path)
    print(f"{path}: valid")
    return 0


def cmd_run(path: str, workers: int | None, force_oracle: bool) -> int:
    cfg = load_config(path)
    if force_oracle:
        check_oracle_size(cfg.family, cfg.n)
        cfg.oracle = True
    reports, failures = sweep.run_experiment(cfg, workers=workers)
    print(f"wrote {len(reports)} rows to {cfg.output}")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    code = 3 if failures else 0
    if cfg.oracle:
        code = max(code, _oracle_verdict(reports))
    return code


def cmd_oracle_check(path: str) -> int:
    """Run every grid point with the oracle on and check its rows; no CSV."""
    cfg = load_config(path)
    check_oracle_size(cfg.family, cfg.n)
    cfg.oracle = True
    return _oracle_verdict(
        [rep for pt in sweep.expand_grid(cfg) for rep in sweep.run_point(cfg, pt)])


def _oracle_verdict(reports) -> int:
    """Print the oracle check of ``reports``; exit code 3 on a violation."""
    problems = oracle_check(reports)
    for line in problems:
        print(f"ORACLE {line}", file=sys.stderr)
    if problems:
        return 3
    print("oracle cross-check passed")
    return 0


def oracle_check(reports) -> list[str]:
    """Verify each claimed lower bound against the exact output energy its
    grid point stored in it (a sweep run with ``cfg.oracle`` on).  Returns a
    list of violation descriptions; a row without an exact energy raises."""
    problems: list[str] = []
    for rep in reports:
        energy = rep.exact_energy
        if energy is None:
            raise ValueError(
                f"row d={rep.depth} theta={rep.theta} p={rep.p} "
                f"method={rep.method} carries no exact energy: the oracle was off")
        if rep.bound > energy + _ORACLE_TOL:
            problems.append(
                f"point d={rep.depth} theta={rep.theta} p={rep.p} "
                f"method={rep.method} D_or_r={rep.resource}: bound "
                f"{rep.bound:.12g} exceeds exact energy {energy:.12g}")
    return problems


# ---------------------------------------------------------------------------
# plot data


def cmd_plot(csv_path: str, template: str, out_dir: str | None) -> int:
    out_dir = out_dir or os.path.splitext(csv_path)[0] + "_plot"
    files = emit_plotdata(csv_path, template, out_dir)
    print(f"wrote {len(files)} files to {out_dir}")
    return 0


def _fmt(x: float) -> str:
    return repr(float(x))


def _curve_id(method: str, resource: int, p: float, theta: float) -> str:
    return f"{method}_r{resource}_p{p:g}_t{theta:g}".replace(".", "_")


def emit_plotdata(csv_path: str, template: str, out_dir: str) -> list[str]:
    """Write whitespace-delimited series (plus a caption sidecar) for one
    figure template.  Values are emitted exactly (repr) so re-parsing gives
    identical floats.  Rows in the trivial region (bound at or below the
    ground-state floor 0 of the scaled targets) are annotated in the
    caption, never dropped or clipped."""
    if template not in PLOT_TEMPLATES:
        raise ValueError(f"unknown template {template!r}")
    reports = read_csv(csv_path)
    if not reports:
        raise ValueError("empty CSV")
    os.makedirs(out_dir, exist_ok=True)
    caption: list[str] = [f"template: {template}", f"source: {csv_path}"]
    written: list[str] = []

    if template in ("bound_vs_depth", "fermion_vs_depth"):
        resource_name = "r" if template == "fermion_vs_depth" else "D"
        caption.append("x: circuit depth d; y: certified lower bound")
        curves = defaultdict(list)
        for rep in reports:
            curves[(rep.method, rep.resource, rep.p, rep.theta)].append(rep)
        for key in sorted(curves):
            method, resource, p, theta = key
            rows = sorted(curves[key], key=lambda r: r.depth)
            name = _curve_id(method, resource, p, theta) + ".dat"
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8") as fh:
                for r in rows:
                    fh.write(f"{r.depth} {_fmt(r.bound)}\n")
            trivial = sum(1 for r in rows if r.bound <= 0.0)
            caption.append(
                f"curve {name}: method={method} {resource_name}={resource} "
                f"p={p:g} theta={theta:g} points={len(rows)} "
                f"trivial_points={trivial}")
            written.append(path)
    else:  # bound_vs_p_theta_heatmap
        caption.append("grid: rows = p (ascending), columns = theta (ascending)")
        groups = defaultdict(list)
        for rep in reports:
            groups[(rep.method, rep.resource, rep.depth)].append(rep)
        for key in sorted(groups):
            method, resource, depth = key
            rows = groups[key]
            ps = sorted({r.p for r in rows})
            thetas = sorted({r.theta for r in rows})
            lookup = {(r.p, r.theta): r.bound for r in rows}
            if len(lookup) != len(ps) * len(thetas):
                raise ValueError(
                    f"incomplete (p, theta) grid for method={method} "
                    f"D_or_r={resource} d={depth}")
            stem = f"{method}_r{resource}_d{depth}".replace(".", "_")
            grid_path = os.path.join(out_dir, stem + "_grid.dat")
            with open(grid_path, "w", encoding="utf-8") as fh:
                for p in ps:
                    fh.write(" ".join(_fmt(lookup[(p, th)]) for th in thetas) + "\n")
            p_path = os.path.join(out_dir, stem + "_p.dat")
            with open(p_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(_fmt(p) for p in ps) + "\n")
            t_path = os.path.join(out_dir, stem + "_theta.dat")
            with open(t_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(_fmt(th) for th in thetas) + "\n")
            trivial = sum(1 for v in lookup.values() if v <= 0.0)
            caption.append(
                f"grid {stem}: method={method} D_or_r={resource} d={depth} "
                f"shape={len(ps)}x{len(thetas)} trivial_cells={trivial}")
            written.extend([grid_path, p_path, t_path])

    caption.append(
        "note: bounds <= 0 are trivial (the scaled targets have ground "
        "energy 0); they are reported unmodified and should be shaded in "
        "the final figure rather than clipped.")
    cap_path = os.path.join(out_dir, "caption.txt")
    with open(cap_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(caption) + "\n")
    written.append(cap_path)
    return written


if __name__ == "__main__":
    sys.exit(main())
