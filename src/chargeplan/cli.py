"""Command-line surface: generate, ingest, solve, sweep-r, report, compare.

One declarative JSON config file (``--config``) feeds every command, one
section per concern; flags override the few high-traffic knobs.  Every run
writes its resolved configuration next to its outputs for reproducibility.

Outside input is checked where it enters: the config by :func:`_load_config`
and :func:`_section`, instance and solution files by
:func:`chargeplan.io.instance_from_dict` and :func:`chargeplan.io.load_solution`,
which also checks a solution's instance checksum.  Commands raise; :func:`main` alone
turns an exception into an exit code, keyed by its type, a stable contract:

- 0 success;
- 2 bad input, ``ValueError`` (a config file, a flag, an instance or a
  solution file) or ``OSError`` (a file that cannot be read or written),
  reported on one stderr line that starts ``error: ``;
- 3 infeasible, ``InfeasibleProblemError``;
- 4 non-convergence, ``ConvergenceError``, raised after a non-converged
  ADMM run's plan is written: its best iterate when it ran out of
  iterations, its agreed iterate when the residuals reached the threshold
  on a plan that fails the check.

No ``raise`` in the package names another type (a test scans for one), so
a refusal the package makes never escapes as a traceback.

Each command writes ``resolved_config.json`` just before its first output
file, so a run that fails before it has a result writes nothing; the
exceptions are ``solve``'s ``infeasible.json`` and a non-converged ADMM
run's plan.

Solvers return judged :class:`~chargeplan.model.Solution` objects: ``solve``
and ``compare`` read an ADMM run's outcome from its ``stats`` and its last
iteration record, and ``sweep-r`` computes ``reduction_pct`` as it writes.

Wall-clock timings never enter result files (solvers put them under a
solution's ``stats["timings"]``, which ``io`` leaves out), so reruns with the
same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import central, io
from .admm import AdmmConfig, run_admm, write_convergence_csv
from .central import solve_base_model, solve_centralized, sweep_range
from .datagen import HORIZON_HOURS, EconParams, GenParams, generate_instance
from .ingest import (
    BinningSpec,
    Zone,
    assemble_instance,
    build_distances,
    build_flows,
    parse_trips,
)
from .model import ConvergenceError, InfeasibleProblemError
from .report import round_assignments, solution_geojson, write_csv_tables

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4

METHODS = ("centralized", "admm", "base")


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    """The assignment-range limits (km) that ``sweep-r`` solves at."""

    r_values: tuple[float, ...] = ()

    def __post_init__(self):
        if not all(type(r) in (int, float) for r in self.r_values):
            raise ValueError(f"r_values must be numbers, got {self.r_values!r}")


_KNOWN_SECTIONS = {"generate", "admm", "binning", "econ", "sweep"}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ValueError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config root must be a JSON object")
    unknown_sections = set(doc) - _KNOWN_SECTIONS
    if unknown_sections:
        raise ValueError(f"unknown config sections: {sorted(unknown_sections)}")
    return doc


#: the JSON types a field takes, by the type of its default (4.0 and true are
#: not integers, true is not a number)
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), tuple: ((list,), "a list")}


def _check_type(value, kind: type, name: str):
    """``value``, if its JSON type suits a field ``name`` of type ``kind``."""
    types, what = _JSON_TYPES[kind]
    if type(value) not in types:
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def _section(config: dict, name: str, cls, **convert):
    """Build a config dataclass from one section, rejecting unknown keys and
    values of the wrong JSON type.  ``convert`` maps a key to the function
    that turns its (non-null) JSON value into the field's type."""
    data = config.get(name, {})
    if not isinstance(data, dict):
        raise ValueError(f"config section {name!r} must be an object")
    fields = dataclasses.fields(cls)
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    try:
        for f in fields:
            if type(f.default) in _JSON_TYPES and f.name in data:
                _check_type(data[f.name], type(f.default), f.name)
        return cls(**{
            key: convert[key](value) if key in convert and value is not None else value
            for key, value in data.items()
        })
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"invalid config section {name!r}: {exc}") from exc


def _write_resolved(out_dir: Path, resolved: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    io.write_json(resolved, out_dir / "resolved_config.json")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def cmd_generate(args, config: dict) -> int:
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


def _zone(k: int, entry: dict) -> Zone:
    zone = Zone(**entry)
    for name, kind in (("label", str), ("lon", float), ("lat", float)):
        _check_type(getattr(zone, name), kind, f"zones[{k}].{name}")
    return zone


def cmd_ingest(args, config: dict) -> int:
    # the JSON lists become the bbox tuple and the Zone tuple BinningSpec takes
    spec = _section(config, "binning", BinningSpec,
                    bbox=lambda xs: tuple(_check_type(x, float, f"bbox[{k}]")
                                          for k, x in enumerate(_check_type(xs, tuple, "bbox"))),
                    zones=lambda zs: tuple(_zone(k, z)
                                           for k, z in enumerate(_check_type(zs, tuple, "zones"))))
    if spec.n_slots * spec.slot_minutes != 60 * HORIZON_HOURS:
        raise ValueError(
            f"invalid config section 'binning': {spec.n_slots} slots of "
            f"{spec.slot_minutes} minutes do not span one week "
            f"({60 * HORIZON_HOURS} minutes)"
        )
    if spec.n_zones ** 2 > central.MAX_LP_COLUMNS:
        # refused before the trips are read or an n x n matrix is built
        raise ValueError(
            f"invalid config section 'binning': {spec.n_zones} zones give "
            f"{spec.n_zones ** 2} zone pairs, above the {central.MAX_LP_COLUMNS} "
            f"LP columns supported"
        )
    econ = _section(config, "econ", EconParams)
    if args.seed is not None:
        econ = dataclasses.replace(econ, seed=args.seed)

    parsed = parse_trips(args.trips)
    flows = build_flows(parsed.records, spec)
    distances = build_distances(parsed.records, spec, flows.dest_zone)
    coordinates = np.array([[z.lon, z.lat] for z in flows.zones])
    instance = assemble_instance(flows.flow, distances.distance, econ, coordinates)

    out_dir = Path(args.out)
    _write_resolved(out_dir, {"binning": dataclasses.asdict(spec),
                              "econ": dataclasses.asdict(econ)})
    io.save_instance(instance, out_dir / "instance.json")
    summary = {
        "records_read": len(parsed.records) + parsed.skipped,
        "skipped": parsed.skipped,
        "dropped": flows.dropped,
        "retained": int(round(flows.flow.sum())),
        "zones": spec.n_zones,
        "imputed_pairs": int(distances.imputed.sum()),
    }
    io.write_json(summary, out_dir / "ingest_summary.json")
    _say(args, f"wrote {out_dir / 'instance.json'} ({summary['retained']} trips retained)")
    return EXIT_OK


def _solve(instance, method: str, admm: AdmmConfig):
    """(solution, ADMM iteration history or None) for one of :data:`METHODS`."""
    if method == "centralized":
        return solve_centralized(instance), None
    if method == "base":
        return solve_base_model(instance), None
    return run_admm(instance, admm)


def cmd_solve(args, config: dict) -> int:
    admm = _section(config, "admm", AdmmConfig)
    instance, checksum = io.read_instance(args.instance)

    out_dir = Path(args.out)
    resolved = {"admm": dataclasses.asdict(admm)}
    try:
        solution, history = _solve(instance, args.method, admm)
    except InfeasibleProblemError as exc:
        _write_resolved(out_dir, resolved)
        io.write_json({"reason": str(exc)}, out_dir / "infeasible.json")
        raise

    _write_resolved(out_dir, resolved)
    io.save_solution(solution, out_dir / "solution.json", checksum)
    if history is not None:
        write_convergence_csv(history, out_dir / "convergence.csv")
        if not solution.stats["converged"]:
            # residuals at the threshold: run_admm returns the agreed iterate
            last = history[-1]
            agreed = max(last.q_primal, last.q_dual) <= admm.threshold
            failing = "" if solution.feasibility.feasible else ", which fails the check at 1e-4"
            raise ConvergenceError(
                f"{'agreed' if agreed else 'best'} iterate after {solution.stats['iterations']} "
                f"iterations (Q_primal={last.q_primal:.3g}){failing}"
            )
    _say(args, f"total cost {solution.cost.total:.6g}")
    return EXIT_OK


def cmd_sweep_r(args, config: dict) -> int:
    sweep = _section(config, "sweep", SweepConfig)
    if args.r_values:
        sweep = SweepConfig([float(v) for v in args.r_values.split(",") if v.strip()])
    if not sweep.r_values:
        raise ValueError("empty R list")
    solutions = sweep_range(io.load_instance(args.instance), sweep.r_values)
    out_dir = Path(args.out)
    _write_resolved(out_dir, {"sweep": dataclasses.asdict(sweep)})
    rows, prev = [], None
    for r, cost in zip(sweep.r_values, (s.cost for s in solutions)):
        # against the previous R's total; none at the first R or after a 0
        red = "" if prev in (None, 0.0) else f"{100.0 * (prev - cost.total) / prev:.6g}"
        rows.append([f"{float(r):g}", f"{cost.investment:.12g}", f"{cost.assignment:.12g}",
                     f"{cost.total:.12g}", red])
        prev = cost.total
    path = out_dir / "sweep.csv"
    io.write_table(path, ["R_km", "investment", "assignment", "total", "reduction_pct"], rows)
    _say(args, f"wrote {path}")
    return EXIT_OK


def cmd_report(args, config: dict) -> int:
    instance, checksum = io.read_instance(args.instance)
    solution = io.load_solution(args.solution, instance, checksum)

    window = None
    if args.window:
        try:
            lo, hi = (int(v) for v in args.window.split(":"))
        except ValueError:
            raise ValueError(f"--window takes lo:hi, got {args.window!r}") from None
        if not 0 <= lo < hi <= instance.n_slots:
            raise ValueError(f"--window {args.window} is not a slot window "
                             f"inside 0:{instance.n_slots}")
        window = (lo, hi)
    geojson = solution_geojson(instance, solution, window) if args.format == "geojson" else None
    out_dir = Path(args.out)
    _write_resolved(out_dir, {})  # report reads no config section
    if geojson is None:
        write_csv_tables(instance, solution, out_dir, window)
    else:
        io.write_json(geojson, out_dir / "solution.geojson")
    rounded = round_assignments(instance, solution)
    io.save_solution(rounded, out_dir / "solution_rounded.json", checksum)
    _say(args, f"wrote report to {out_dir}")
    return EXIT_OK


def cmd_compare(args, config: dict) -> int:
    admm = _section(config, "admm", AdmmConfig)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods or not set(methods) <= set(METHODS):
        raise ValueError(f"--methods takes one or more of {', '.join(METHODS)}, "
                         f"got {args.methods!r}")
    instance = io.load_instance(args.instance)

    results = {}
    for method in methods:
        try:
            results[method], _ = _solve(instance, method, admm)
        except (InfeasibleProblemError, ConvergenceError) as exc:
            raise type(exc)(f"{method}: {exc}") from exc
    # the cheapest plan that passes its check; the cheapest one only if none does
    passing = [s.cost.total for s in results.values() if s.feasibility.feasible]
    reference = min(passing or [s.cost.total for s in results.values()])
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
            "converged": s.stats.get("converged", True),
        }
        for method, s in results.items()
    }
    out_dir = Path(args.out)
    _write_resolved(out_dir, {"admm": dataclasses.asdict(admm)})
    io.write_json(doc, out_dir / "comparison.json")
    io.write_table(
        out_dir / "comparison.csv",
        ["method", "investment", "assignment", "total", "gap_to_best_pct", "feasible"],
        ([method, f"{row['investment']:.9g}", f"{row['assignment']:.9g}",
          f"{row['total']:.9g}", f"{row['gap_to_best_pct']:.6g}", row["feasible"]]
         for method, row in doc.items()))
    _say(args, f"wrote comparison to {out_dir}")
    stalled = [method for method, row in doc.items() if not row["converged"]]
    if stalled:
        raise ConvergenceError(", ".join(stalled))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every :func:`main` call shares it."""
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
    p.add_argument("--method", choices=METHODS, default="centralized")

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
    """Run one command; the only place a failure becomes its exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, _load_config(args.config))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleProblemError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
