"""Command-line surface: generate, ingest, solve, sweep-r, report, compare.

One declarative JSON config file feeds every command (section per concern);
flags override the few high-traffic knobs.  Every run writes its resolved
configuration next to its outputs for reproducibility.  Exit codes are a
stable contract: 0 success, 2 config/input error, 3 infeasible,
4 non-convergence.

Wall-clock timings never enter result files (only convergence logs), so
reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import io
from .admm import AdmmConfig, run_admm, write_convergence_csv
from .central import SolverConfig, solve_base_model, solve_centralized
from .datagen import GenParams, generate_instance, with_range_limit
from .ingest import BinningSpec, assemble_instance, build_distances, build_flows, parse_trips
from .model import ConvergenceError, InfeasibleProblemError, Solution
from .report import round_assignments, write_csv_tables, write_geojson

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4


class ConfigError(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


_KNOWN_SECTIONS = {"generate", "solver", "admm", "binning", "econ", "sweep", "report"}


def _section(config: dict, name: str, cls):
    """Build a config dataclass from one section, rejecting unknown keys."""
    unknown_sections = set(config) - _KNOWN_SECTIONS
    if unknown_sections:
        raise ConfigError(f"unknown config sections: {sorted(unknown_sections)}")
    data = config.get(name, {})
    if not isinstance(data, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config section {name!r}: {exc}") from exc


def _write_resolved(out_dir: Path, resolved: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.json").write_text(
        json.dumps(resolved, indent=1, sort_keys=True)
    )


def _clean_stats(solution: Solution) -> Solution:
    stats = {k: v for k, v in solution.stats.items() if "wall" not in k}
    return dataclasses.replace(solution, stats=stats)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def cmd_generate(args) -> int:
    config = _load_config(args.config)
    params = _section(config, "generate", GenParams)
    if args.seed is not None:
        params = dataclasses.replace(params, seed=args.seed)
    instance = generate_instance(params)
    out_dir = Path(args.out)
    _write_resolved(out_dir, {"generate": dataclasses.asdict(params)})
    path = out_dir / "instance.json"
    io.save_instance(instance, path)
    _say(args, f"wrote {path}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    config = _load_config(args.config)
    binning_raw = config.get("binning", {})
    if "bbox" in binning_raw and binning_raw["bbox"] is not None:
        binning_raw = dict(binning_raw, bbox=tuple(binning_raw["bbox"]))
    spec = _section({"binning": binning_raw, **{k: v for k, v in config.items() if k != "binning"}}, "binning", BinningSpec)
    econ = _section(config, "econ", GenParams)
    if args.seed is not None:
        econ = dataclasses.replace(econ, seed=args.seed)

    parsed = parse_trips(args.trips)
    flows = build_flows(parsed.records, spec)
    distances = build_distances(parsed.records, spec)
    coordinates = np.array([[z.lon, z.lat] for z in flows.zones])
    instance = assemble_instance(flows.flow, distances.distance, econ, coordinates)

    out_dir = Path(args.out)
    _write_resolved(
        out_dir,
        {
            "binning": {
                **dataclasses.asdict(spec),
                "zones": None if spec.zones is None
                else [dataclasses.asdict(z) for z in spec.zones],
            },
            "econ": dataclasses.asdict(econ),
        },
    )
    io.save_instance(instance, out_dir / "instance.json")
    summary = {
        "records_read": len(parsed.records) + parsed.skipped,
        "skipped": parsed.skipped,
        "dropped": flows.dropped,
        "retained": int(round(flows.flow.sum())),
        "zones": spec.n_zones,
        "imputed_pairs": int(distances.imputed.sum()),
    }
    (out_dir / "ingest_summary.json").write_text(json.dumps(summary, indent=1))
    _say(args, f"wrote {out_dir / 'instance.json'} ({summary['retained']} trips retained)")
    return EXIT_OK


def _solve(instance, method: str, solver: SolverConfig, admm: AdmmConfig):
    """Returns (solution, convergence-or-None)."""
    if method == "centralized":
        return solve_centralized(instance, solver), None
    if method == "base":
        return solve_base_model(instance), None
    if method == "admm":
        return run_admm(instance, admm)
    raise ConfigError(f"unknown method: {method!r}")


def cmd_solve(args) -> int:
    config = _load_config(args.config)
    solver = _section(config, "solver", SolverConfig)
    admm = _section(config, "admm", AdmmConfig)
    try:
        instance = io.load_instance(args.instance)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read instance: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    _write_resolved(
        out_dir,
        {
            "solver": dataclasses.asdict(solver),
            "admm": dataclasses.asdict(admm),
            "method": args.method,
        },
    )
    try:
        solution, convergence = _solve(instance, args.method, solver, admm)
    except InfeasibleProblemError as exc:
        (out_dir / "infeasible.json").write_text(json.dumps({"reason": str(exc)}))
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    checksum = io.file_checksum(args.instance)
    io.save_solution(_clean_stats(solution), out_dir / "solution.json", checksum)
    if convergence is not None:
        write_convergence_csv(convergence.history, out_dir / "convergence.csv")
        if not convergence.converged:
            _say(args, f"best iterate after {convergence.iterations} iterations "
                       f"(Q_primal={convergence.q_primal:.3g})")
            return EXIT_NO_CONVERGENCE
    _say(args, f"total cost {solution.cost.total:.6g}")
    return EXIT_OK


def sweep_range(instance, r_values, solver: SolverConfig) -> list[dict]:
    """Re-solve the joint model across assignment-range limits.

    Each row reports investment, assignment, and total cost plus the
    percentage total-cost reduction relative to the previous (smaller) R.
    """
    if not r_values:
        raise ConfigError("empty R list")
    rows = []
    prev_total = None
    for r in r_values:
        restricted = with_range_limit(instance, float(r))
        solution = solve_centralized(restricted, solver)
        reduction = (
            None if prev_total in (None, 0.0)
            else 100.0 * (prev_total - solution.cost.total) / prev_total
        )
        rows.append(
            {
                "R_km": float(r),
                "investment": solution.cost.investment,
                "assignment": solution.cost.assignment,
                "total": solution.cost.total,
                "reduction_pct": reduction,
            }
        )
        prev_total = solution.cost.total
    return rows


def cmd_sweep_r(args) -> int:
    config = _load_config(args.config)
    solver = _section(config, "solver", SolverConfig)
    r_values = (
        [float(v) for v in args.r_values.split(",") if v.strip() != ""]
        if args.r_values
        else config.get("sweep", {}).get("r_values", [])
    )
    instance = io.load_instance(args.instance)
    if instance.distance is None:
        print("error: instance carries no raw distances; cannot sweep R",
              file=sys.stderr)
        return EXIT_CONFIG
    if not r_values:
        print("error: empty R list", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    _write_resolved(out_dir, {"solver": dataclasses.asdict(solver),
                              "sweep": {"r_values": r_values}})
    try:
        rows = sweep_range(instance, r_values, solver)
    except InfeasibleProblemError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    path = out_dir / "sweep.csv"
    with open(path, "w") as fh:
        fh.write("R_km,investment,assignment,total,reduction_pct\n")
        for row in rows:
            red = "" if row["reduction_pct"] is None else f"{row['reduction_pct']:.6g}"
            fh.write(
                f"{row['R_km']:g},{row['investment']:.12g},"
                f"{row['assignment']:.12g},{row['total']:.12g},{red}\n"
            )
    _say(args, f"wrote {path}")
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        instance = io.load_instance(args.instance)
        doc = json.loads(Path(args.solution).read_text())
        solution = io.solution_from_dict(doc)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    stored = doc.get("instance_checksum")
    if stored is not None and stored != io.file_checksum(args.instance):
        print("error: solution was produced from a different instance file",
              file=sys.stderr)
        return EXIT_CONFIG
    if solution.assignment.z.shape[1] != instance.n_locations:
        print("error: mismatched instance/solution pair", file=sys.stderr)
        return EXIT_CONFIG

    window = None
    if args.window:
        lo, hi = (int(v) for v in args.window.split(":"))
        window = (lo, hi)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_resolved(out_dir, {"report": {"format": args.format, "window": window}})
    if args.format == "geojson":
        try:
            write_geojson(instance, solution, out_dir / "solution.geojson", window)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        write_csv_tables(instance, solution, out_dir, window)
    rounded = round_assignments(instance, solution)
    io.save_solution(_clean_stats(rounded), out_dir / "solution_rounded.json")
    _say(args, f"wrote report to {out_dir}")
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _load_config(args.config)
    solver = _section(config, "solver", SolverConfig)
    admm = _section(config, "admm", AdmmConfig)
    instance = io.load_instance(args.instance)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        print("error: no methods given", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    _write_resolved(out_dir, {"solver": dataclasses.asdict(solver),
                              "admm": dataclasses.asdict(admm),
                              "methods": methods})
    results = {}
    converged = {}
    for method in methods:
        try:
            solution, convergence = _solve(instance, method, solver, admm)
        except InfeasibleProblemError as exc:
            print(f"infeasible ({method}): {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        except ConvergenceError as exc:
            print(f"no convergence ({method}): {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        results[method] = solution
        converged[method] = convergence is None or convergence.converged
    reference = min(s.cost.total for s in results.values())
    doc = {
        method: {
            "investment": s.cost.investment,
            "assignment": s.cost.assignment,
            "total": s.cost.total,
            "gap_to_best_pct": (
                0.0 if reference == 0
                else 100.0 * (s.cost.total - reference) / reference
            ),
            "feasible": s.feasibility.feasible,
            "converged": converged[method],
        }
        for method, s in results.items()
    }
    (out_dir / "comparison.json").write_text(json.dumps(doc, indent=1))
    with open(out_dir / "comparison.csv", "w") as fh:
        fh.write("method,investment,assignment,total,gap_to_best_pct,feasible\n")
        for method, row in doc.items():
            fh.write(
                f"{method},{row['investment']:.9g},{row['assignment']:.9g},"
                f"{row['total']:.9g},{row['gap_to_best_pct']:.6g},{row['feasible']}\n"
            )
    _say(args, f"wrote comparison to {out_dir}")
    stalled = [method for method, ok in converged.items() if not ok]
    if stalled:
        print(f"no convergence: {', '.join(stalled)}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargeplan",
        description="EV charging infrastructure planning toolkit",
    )
    parser.add_argument("--config", help="path to the declarative JSON config")
    parser.add_argument("--seed", type=int, help="override the generator seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("generate", help="write a synthetic instance")

    p = sub.add_parser("ingest", help="build an instance from trip records")
    p.add_argument("trips", help="trips CSV file")

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("instance")
    p.add_argument("--method", choices=["centralized", "admm", "base"],
                   default="centralized")

    p = sub.add_parser("sweep-r", help="sweep the assignment range limit")
    p.add_argument("instance")
    p.add_argument("--r-values", help="comma-separated R values in km")

    p = sub.add_parser("report", help="emit CSV or GeoJSON views of a solution")
    p.add_argument("solution")
    p.add_argument("instance")
    p.add_argument("--format", choices=["csv", "geojson"], default="csv")
    p.add_argument("--window", help="slot window lo:hi to aggregate flows over")

    p = sub.add_parser("compare", help="run several methods and tabulate gaps")
    p.add_argument("instance")
    p.add_argument("--methods", default="base,centralized,admm")

    return parser


_COMMANDS = {
    "generate": cmd_generate,
    "ingest": cmd_ingest,
    "solve": cmd_solve,
    "sweep-r": cmd_sweep_r,
    "report": cmd_report,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
