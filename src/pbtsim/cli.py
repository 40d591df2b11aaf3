"""Command-line front end: single evaluations, parameter sweeps, figure data,
and the oracle cross-check suite.  All tabular output is CSV with a fixed
header and 12-significant-digit values so runs diff cleanly.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path
from typing import TextIO

import numpy as np

from . import analysis
from .choi import check_choi, choi_from_reduced
from .kraus import apply_protocol, choi_to_kraus, protocol_kraus
from .oracle import MAX_ORACLE_PORTS, oracle_choi
from .resources import AdChoi, Alternate, Bell, FromFile, ResourceFamily, make_family

USAGE_EXIT = 1
VALIDATION_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # exit code 1 for usage problems; 2 is reserved for numerical validation
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def parse_resource(spec: str) -> ResourceFamily:
    """bell | ad:<p> | alternate:<a> | path to a PBTRES file."""
    low = spec.lower()
    if low == "bell":
        return Bell()
    if low.startswith("ad:"):
        return AdChoi(float(spec.split(":", 1)[1]))
    if low.startswith("alternate:") or low.startswith("alt:"):
        return Alternate(float(spec.split(":", 1)[1]))
    if Path(spec).exists():
        return FromFile(spec)
    raise ValueError(
        f"unknown resource {spec!r}: expected bell, ad:<p>, alternate:<a>, or a file path"
    )


MAX_GRID_POINTS = 10 ** 6


def grid_points(start: float, stop: float, step: float) -> np.ndarray:
    """start + k * step for k = 0, 1, ... while within 1e-9 steps of stop, capped at stop."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step}")
    span = (stop - start) / step
    if not span <= MAX_GRID_POINTS - 1:
        raise ValueError(f"grid from {start} to {stop} in steps of {step} "
                         f"has more than {MAX_GRID_POINTS} points")
    count = int(math.floor(span + 1e-9)) + 1
    return np.minimum(start + step * np.arange(count), stop)


def parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {spec!r}")
    start, stop, step = (float(p) for p in parts)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"bad grid {spec!r}: start and stop must be finite")
    if stop < start:
        raise ValueError(f"bad grid {spec!r}: need stop >= start")
    return grid_points(start, stop, step)


def _print_matrix(m: np.ndarray) -> None:
    for row in m:
        print("  ".join(f"{z.real:+.12g}{z.imag:+.12g}j" for z in row))


def _write_csv(fh: TextIO, header: list[str], rows: list[list[float]]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def sweep_rows(n: int, p0: float, family: str, grid: np.ndarray,
               seed: int = 0, restarts: int = 64) -> list[list[float]]:
    """param, trace_norm, diamond_lower, diamond_upper, diamond_numeric rows.

    ``seed`` and ``restarts`` are ignored.  They exist because the
    benchmark's workloads pass them; ROADMAP item 1 removes them.
    """
    target = analysis.ad_choi(p0, "plus")
    rows = []
    for param in grid:
        if family == "choi":
            out = analysis.pbt_ad_choi(n, float(param))
        elif family == "alternate":
            out = analysis.alternate_choi(n, float(param))
        else:
            raise ValueError(f"unknown sweep family {family!r}")
        lower, upper, numeric = analysis._diamond_with_bounds(out, target)
        rows.append([float(param), lower, lower, upper, numeric])
    return rows


_SWEEP_HEADER = ["param", "trace_norm", "diamond_lower", "diamond_upper", "diamond_numeric"]


def cmd_xi(args) -> int:
    print(_fmt(analysis.xi(args.ports)))
    return 0


def _resolve_choi(args) -> np.ndarray | None:
    """The checked output Choi matrix, or None once the reason it is invalid is printed."""
    c = choi_from_reduced(make_family(parse_resource(args.resource), args.ports))
    try:
        check_choi(c)
    except ValueError as exc:
        print(f"invalid output Choi matrix: {exc}", file=sys.stderr)
        return None
    return c


def cmd_choi(args) -> int:
    c = _resolve_choi(args)
    if c is None:
        return VALIDATION_EXIT
    _print_matrix(c)
    return 0


def cmd_kraus(args) -> int:
    c = _resolve_choi(args)
    if c is None:
        return VALIDATION_EXIT
    ks = choi_to_kraus(c)
    print(f"# {len(ks.ops)} Kraus operators (rows: output, cols: input)")
    for i, op in enumerate(ks.ops, start=1):
        print(f"K{i}:")
        _print_matrix(op)
    return 0


def cmd_protocol_kraus(args) -> int:
    pk = protocol_kraus(args.ports)
    print(f"# {len(pk.ops)} reduced protocol Kraus operators, 4 x {2 ** (args.ports + 1)}")
    print(f"# kernel sector: {len(pk.k2)}, bulk: {len(pk.k1)}")
    for i, op in enumerate(pk.ops, start=1):
        print(f"K{i}:")
        _print_matrix(op)
    return 0


def cmd_ad_sweep(args) -> int:
    if args.grid is not None:
        grid = parse_grid(args.grid)
    elif args.family == "choi":
        grid = parse_grid("0:1:0.01")
    else:
        grid = parse_grid("0.5:1:0.01")
    rows = sweep_rows(args.ports, args.p0, args.family, grid)
    for row in rows:
        if not (row[1] - 1e-6 <= row[4] <= row[3] + 1e-6):
            print(f"diamond estimate escaped its bounds at param={row[0]}", file=sys.stderr)
            return VALIDATION_EXIT
    if args.out:
        with open(args.out, "w", newline="") as fh:
            _write_csv(fh, _SWEEP_HEADER, rows)
    else:
        _write_csv(sys.stdout, _SWEEP_HEADER, rows)
    return 0


def _figure_sweep_files(out: Path, n: int, p0_values, family: str, lo: float, hi: float,
                        step: float, stem: str) -> list[Path]:
    grid = grid_points(lo, hi, step)
    paths = []
    for p0 in p0_values:
        rows = sweep_rows(n, p0, family, grid)
        path = out / f"{stem}_p0_{p0:g}.csv"
        with open(path, "w", newline="") as fh:
            _write_csv(fh, _SWEEP_HEADER, rows)
        paths.append(path)
    return paths


def _figure_comparison(out: Path, n: int, step: float) -> list[Path]:
    """Two-panel resource comparison: known-point and near-optimal choices."""
    x = analysis.xi(n)
    header = [
        "p0", "p1", "choi_trace_norm", "choi_diamond_lower", "choi_diamond_upper",
        "choi_diamond_numeric", "a", "alt_trace_norm", "alt_diamond_lower",
        "alt_diamond_upper", "alt_diamond_numeric",
    ]

    def known_point_a(p0: float) -> float | None:
        found = analysis.alternate_known_point(n, p0)
        return None if found is None else found[0]

    # p0 runs from each panel's start in steps while below 1 - 1e-9
    stop = 1.0 - 1e-9
    panels = [
        ("left", grid_points(x, stop, step), lambda p0: (p0 - x) / (1 - x), known_point_a),
        ("right", grid_points(x / 2, stop, step), lambda p0: (2 * p0 - x) / (2 - x),
         lambda p0: analysis.alternate_trace_min_a(n, p0)),
    ]
    paths = []
    for stem, p0_values, choose_p1, choose_a in panels:
        rows = []
        for p0 in (float(p) for p in p0_values if p < stop):
            p1 = choose_p1(p0)
            if 0 <= p1 <= 1:
                a = choose_a(p0)
                if a is not None:
                    target = analysis.ad_choi(p0, "plus")
                    c_choi = analysis.pbt_ad_choi(n, p1)
                    c_alt = analysis.alternate_choi(n, a)
                    lo_c, up_c, num_c = analysis._diamond_with_bounds(c_choi, target)
                    lo_a, up_a, num_a = analysis._diamond_with_bounds(c_alt, target)
                    rows.append([p0, p1, lo_c, lo_c, up_c, num_c, a, lo_a, lo_a, up_a, num_a])
        path = out / f"fig4_{stem}.csv"
        with open(path, "w", newline="") as fh:
            _write_csv(fh, header, rows)
        paths.append(path)
    return paths


def cmd_figure(args) -> int:
    out, step = Path(args.out), args.step
    out.mkdir(parents=True, exist_ok=True)
    if args.id == 1:
        paths = _figure_sweep_files(out, 4, (0.36, 0.7), "choi", 0.0, 0.99, step, "fig1")
    elif args.id == 2:
        paths = _figure_sweep_files(out, 4, (0.85, 0.95), "choi", 0.0, 0.99, step, "fig2")
    elif args.id == 3:
        paths = _figure_sweep_files(out, 4, (0.36, 0.7), "alternate", 0.5, 0.99, step, "fig3")
    else:  # argparse restricts --id to 1..4
        paths = _figure_comparison(out, 6, step)
    for p in paths:
        print(p)
    return 0


VERIFY_FAMILIES = [
    ("bell", Bell()),
    ("ad:0", AdChoi(0.0)), ("ad:0.3", AdChoi(0.3)), ("ad:0.7", AdChoi(0.7)), ("ad:1", AdChoi(1.0)),
    ("alternate:0.1", Alternate(0.1)), ("alternate:0.5", Alternate(0.5)),
    ("alternate:0.9", Alternate(0.9)),
]


def run_verification(max_ports: int) -> tuple[float, list[tuple[str, float]]]:
    """Closed form vs dense oracle vs protocol Kraus, per port count and family."""
    results = []
    worst = 0.0
    for n in range(2, max_ports + 1):
        pk = protocol_kraus(n)
        for name, family in VERIFY_FAMILIES:
            reduced = make_family(family, n)
            closed = choi_from_reduced(reduced)
            dev = float(np.max(np.abs(closed - oracle_choi(reduced))))
            dev = max(dev, float(np.max(np.abs(closed - apply_protocol(pk, reduced.joint)))))
            results.append((f"n={n} {name}", dev))
            worst = max(worst, dev)
    return worst, results


VERIFY_TOL = 1e-10


def format_deviation(dev: float) -> str:
    # rounding-level deviations print as the threshold they are below, so the
    # output does not depend on summation order
    return f"{dev:.3e}" if dev > VERIFY_TOL else f"below {VERIFY_TOL:.0e}"


def cmd_verify(args) -> int:
    if not 2 <= args.max_ports <= MAX_ORACLE_PORTS:
        print(f"--max-ports must be in 2..{MAX_ORACLE_PORTS}", file=sys.stderr)
        return USAGE_EXIT
    worst, results = run_verification(args.max_ports)
    for label, dev in results:
        print(f"{label}: max deviation {format_deviation(dev)}")
    print(f"worst: {format_deviation(worst)}")
    if worst > VERIFY_TOL:
        print(f"verification FAILED (deviation above {VERIFY_TOL:.0e})", file=sys.stderr)
        return VALIDATION_EXIT
    print("ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pbtsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("xi", help="depolarising probability for Bell ports")
    p.add_argument("--ports", type=int, required=True)
    p.set_defaults(fn=cmd_xi)

    for name, fn in (("choi", cmd_choi), ("kraus", cmd_kraus)):
        p = sub.add_parser(name, help=f"print the output {name} for a resource")
        p.add_argument("--ports", type=int, required=True)
        p.add_argument("--resource", required=True,
                       help="bell | ad:<p> | alternate:<a> | PBTRES file path")
        p.set_defaults(fn=fn)

    p = sub.add_parser("protocol-kraus", help="reduced protocol Kraus operators")
    p.add_argument("--ports", type=int, required=True)
    p.set_defaults(fn=cmd_protocol_kraus)

    p = sub.add_parser("ad-sweep", help="distance sweep against a damping target")
    p.add_argument("--ports", type=int, required=True)
    p.add_argument("--p0", type=float, required=True, help="target damping probability")
    p.add_argument("--family", choices=("choi", "alternate"), required=True)
    p.add_argument("--grid", help="start:stop:step (default 0:1:0.01 or 0.5:1:0.01)")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(fn=cmd_ad_sweep)

    p = sub.add_parser("figure", help="emit the CSV data behind one figure")
    p.add_argument("--id", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--step", type=float, default=0.01)
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("verify", help="oracle cross-check suite")
    p.add_argument("--max-ports", type=int, required=True)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"pbtsim: error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
