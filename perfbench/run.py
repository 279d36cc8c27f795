#!/usr/bin/env python3
"""chargeplan benchmark: four CLI workloads, end-to-end and per-layer timing.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload central-week --seed 0 --seconds 20 --trace 0

Each run is one fresh process that drives one workload as a closed loop with
a single client: it calls the in-process CLI, ``chargeplan.cli.main([...])``,
back to back on inputs generated from ``--seed`` and checks every output.

Workloads (why each was chosen is in ``BENCHMARK.json``):

* ``central-week``  ``solve --method centralized`` on the paper-default
  ``GenParams()`` instance (20 locations x 672 slots).
* ``admm-family``   ``solve --method admm`` on the 20 x 336 member of the
  instance family on which ADMM is guaranteed to land within 1% of the LP.
* ``sweep-het``     ``sweep-r --r-values 0,1,3,5,7`` on the 9 x 24
  heterogeneous-demand instance (dense simplex for R <= 1, HiGHS above).
* ``ingest-trips``  ``ingest`` of a generated 100 000-row trips CSV.

For the three solver workloads ``--seed`` relabels the locations and rotates
the cyclic slot axis of a fixed instance (seed 0 is the identity).  The
solvers see different input files but an identical optimum, so every seed is
checked against one committed reference (``references.json``) and the work
per operation does not depend on the seed.  Drawing a fresh instance per
seed instead changed HiGHS time by up to 3x and the ADMM iteration count
from 3 to 183, which would measure the draw rather than the code.  The trips
CSV of ``ingest-trips`` is drawn from the seed outright; its work depends
only on the row count.

Every run first sets up five times (generates and writes the inputs and
computes the reference) and then runs one untimed, checked warm-up
operation.  With ``--trace 0`` it then prints the end-to-end metrics:
``op_s`` (mean seconds per operation), ``setup_s`` (median seconds per
set-up, over the first five and one more after every timed operation; a
set-up shorter than ``SETUP_MIN_S`` is repeated and its mean taken) and
``peak_rss_mb`` (peak resident set of the process).

``op_s`` and ``setup_s`` are wall seconds scaled to a reference host speed.
The shared 2-vCPU VM this was tuned on changes speed by up to 45% over tens
of seconds and by up to 20% between one minute and the next, which no
amount of repetition inside a run averages out.  So after every timed
operation the benchmark times ``HostGauge``: fixed work made of numpy,
HiGHS and plain Python, never chargeplan code.  Both metrics are multiplied
by ``GAUGE_REF_S`` over the mean gauge reading of the run.  A change to
chargeplan moves them in full; a slower or faster host moves them far less.
In two sets of ten runs (seeds 0-9) per workload the spread of op_s was
0.04-0.10 of its median scaled this way, against 0.05-0.16 unscaled, and
central-week's unscaled median moved by 22% between the sets against 5%
scaled (``steadiness.json``).  ``op_s`` is a mean, not a median, because
over the 6-18 operations of a run the mean repeated more closely from run
to run (recomputed on two earlier sets of ten runs: 0.02-0.08 for the mean
against 0.03-0.10 for the median of per-operation scaled times).  The
unscaled mean and median are printed alongside, with the operation count.
Operation failures (nonzero exit code or a failed output check) are printed
as ``fail_ratio`` and reported as ``failed`` of ``attempted``; the ADMM gap
to the LP optimum is printed as ``admm_gap_pct``.  With ``--trace 1`` it times
half of ``--seconds`` untraced and half with the wrappers of ``spans.py``
installed, writes the spans to ``.perfbench-out/`` and prints the per-layer
metrics.  The last line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# One client on a 2-vCPU host: BLAS and OpenMP keep to one thread, so the
# benchmark does not compete with itself for cores.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
# a set-up sample repeats the set-up until this long has passed, so that a
# set-up of a few milliseconds is not timed on its own
SETUP_MIN_S = 0.05
# about the median of HostGauge.measure() (0.08-0.10 s) on the 2-vCPU Intel
# Xeon VM (2.1 GHz) the benchmark was tuned on; the unit in which scaled
# seconds are expressed
GAUGE_REF_S = 0.09
REFERENCES = json.loads((HERE / "references.json").read_text())
REL_TOL = REFERENCES["rel_tol"]


class ProgramMissing(Exception):
    pass


def load_program() -> SimpleNamespace:
    """Import chargeplan from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "chargeplan" / "__init__.py").is_file():
        raise ProgramMissing(f"no chargeplan package under {src}")
    sys.path.insert(0, str(src))
    import chargeplan
    import chargeplan.cli
    import scipy
    import scipy.optimize
    import scipy.sparse

    if Path(chargeplan.__file__).resolve().parent != (src / "chargeplan").resolve():
        raise ProgramMissing(f"chargeplan imported from {chargeplan.__file__}")
    return SimpleNamespace(cp=chargeplan, cli=chargeplan.cli, scipy=scipy)


# ---------------------------------------------------------------- checks


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def relabel(instance, seed: int):
    """The same instance under a seed-chosen location order and slot origin.

    Delays wrap cyclically, so rotating the slot axis and permuting the
    locations map the LP onto itself: the optimum is unchanged.
    """
    if seed == 0:
        return instance
    rng = np.random.default_rng(seed)
    p = rng.permutation(instance.n_locations)
    k = int(rng.integers(instance.n_slots))

    def pairs(a):
        return None if a is None else a[np.ix_(p, p)]

    def slots(a):
        return np.roll(a[:, p], k, axis=0)

    return dataclasses.replace(
        instance,
        flow=slots(instance.flow),
        alpha=slots(instance.alpha),
        recurrence=np.roll(instance.recurrence, k),
        assign_cost=pairs(instance.assign_cost),
        delay=pairs(instance.delay),
        distance=pairs(instance.distance),
        location_cost=instance.location_cost[p],
        capacity_max=instance.capacity_max[p],
        coordinates=None if instance.coordinates is None else instance.coordinates[p],
    )


def plan_total(instance, c: np.ndarray, z: np.ndarray) -> float:
    """Objective of a plan, evaluated here rather than by the library."""
    cost = np.where(np.isfinite(instance.assign_cost), instance.assign_cost, 0.0)
    invest = c @ (instance.base_cost + instance.location_cost)
    return float(invest + instance.recurrence @ np.einsum("tij,ij->t", z, cost))


def worst_violation(instance, c: np.ndarray, z: np.ndarray) -> float:
    """Largest violation of any constraint row of the model, in its own units."""
    T, n = instance.n_slots, instance.n_locations
    demand = instance.alpha * instance.flow
    w = instance.base_cost + instance.location_cost
    # inflow[t, i] = sum_j z[(t - delay[j, i]) mod T, j, i]
    t = np.arange(T)[:, None, None]
    j = np.arange(n)[None, :, None]
    i = np.arange(n)[None, None, :]
    inflow = z[(t - instance.delay[None]) % T, j, i].sum(axis=1)
    net = demand - z.sum(axis=2) + inflow
    blocked = ~np.isfinite(instance.assign_cost) | np.eye(n, dtype=bool)
    return float(max(
        c @ w - instance.budget,
        (c - instance.capacity_max).max(),
        (-c).max(),
        (-z).max(),
        np.abs(z[:, blocked]).max(initial=0.0),
        (z.sum(axis=2) - demand).max(),
        (instance.beta * net - c[None, :]).max(),
        (-instance.beta * net).max(),
        0.0,
    ))


def check_solution(instance, path: Path, tol: float) -> tuple[list[str], float]:
    """Problems with a written solution, and the plan's recomputed total."""
    doc = json.loads(path.read_text())
    T, n = instance.n_slots, instance.n_locations
    c = np.asarray(doc["capacity"], dtype=float)
    if c.shape != (n,) or (doc["n_slots"], doc["n_locations"]) != (T, n):
        return [f"solution shape does not match the {T} x {n} instance"], float("nan")
    z = np.zeros((T, n, n))
    cells = np.asarray(doc["assignments"], dtype=float).reshape(-1, 4)
    idx = cells[:, :3].astype(int)
    z[idx[:, 0], idx[:, 1], idx[:, 2]] = cells[:, 3]
    total = plan_total(instance, c, z)
    problems = []
    if not close(total, doc["cost"]["total"], 1e-9):
        problems.append(f"reported total {doc['cost']['total']!r} != plan total {total!r}")
    worst = worst_violation(instance, c, z)
    if worst > tol:
        problems.append(f"plan violates a constraint by {worst:.3g} > {tol:g}")
    return problems, total


# ------------------------------------------------------------- workloads


class Workload:
    """Inputs, the timed CLI operation and its output check for one workload."""

    name = ""

    def __init__(self, lib: SimpleNamespace, work: Path, seed: int):
        self.lib = lib
        self.work = work
        self.seed = seed
        self.out = work / "out"
        self.refs = REFERENCES.get(self.name, {})
        self.gaps: list[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def argv(self) -> list[str]:
        raise NotImplementedError

    def check(self, rc: int, argv: list[str]) -> list[str]:
        raise NotImplementedError

    def clear_outputs(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def _save(self, instance) -> None:
        self.instance = instance
        self.path = self.work / "instance.json"
        self.lib.cp.save_instance(instance, self.path)


class CentralWeek(Workload):
    name = "central-week"

    def setup(self):
        cp = self.lib.cp
        self._save(relabel(cp.generate_instance(cp.GenParams()), self.seed))
        self.base_total = cp.solve_base_model(self.instance).cost.total

    def argv(self):
        return ["--quiet", "--out", str(self.out), "solve", str(self.path),
                "--method", "centralized"]

    def check(self, rc, argv):
        if rc != 0:
            return [f"exit code {rc}"]
        problems, total = check_solution(self.instance, self.out / "solution.json", 1e-6)
        if not close(total, self.refs["total"], REL_TOL):
            problems.append(f"total {total!r} != reference {self.refs['total']!r}")
        if total > self.base_total * (1 + 1e-9):
            problems.append(f"total {total!r} above the baseline {self.base_total!r}")
        return problems


class AdmmFamily(Workload):
    name = "admm-family"

    def setup(self):
        cp = self.lib.cp
        params = cp.GenParams(n_locations=20, n_slots=336, seed=0, range_km=3.7,
                              alpha_a=1000.0, alpha_b=9000.0, assign_price_per_km=80.0)
        self._save(relabel(cp.generate_instance(params), self.seed))

    def argv(self):
        return ["--quiet", "--out", str(self.out), "solve", str(self.path),
                "--method", "admm"]

    def check(self, rc, argv):
        if rc != 0:
            return [f"exit code {rc} (4 means no convergence)"]
        problems, total = check_solution(self.instance, self.out / "solution.json", 1e-4)
        ref = self.refs["central_total"]
        gap = 100.0 * (total - ref) / ref
        self.gaps.append(gap)
        if not -1e-4 <= gap <= self.refs["max_gap_pct"]:
            problems.append(f"gap to the LP optimum {gap:.4g}% outside [-1e-4, 1]%")
        return problems


class SweepHet(Workload):
    name = "sweep-het"
    R_VALUES = "0,1,3,5,7"

    def setup(self):
        cp = self.lib.cp
        # 9 x 24 keeps R <= 1 on the dense simplex (9 and 57 columns) and
        # R >= 3 on HiGHS (345 columns and up) at about 3 s per sweep, so a
        # run times several sweeps; at 9 x 48 one sweep took 20 s.
        params = cp.GenParams(n_locations=9, n_slots=24, seed=0, range_km=8.0)
        self._save(relabel(cp.generate_instance(params), self.seed))
        self.base_total = cp.solve_base_model(self.instance).cost.total

    def argv(self):
        return ["--quiet", "--out", str(self.out), "sweep-r", str(self.path),
                "--r-values", self.R_VALUES]

    def check(self, rc, argv):
        if rc != 0:
            return [f"exit code {rc}"]
        lines = (self.out / "sweep.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        wanted = argv[-1].split(",")
        if [r[0] for r in rows] != wanted:
            return [f"sweep rows {[r[0] for r in rows]} != requested {wanted}"]
        invest = [float(r[1]) for r in rows]
        assign = [float(r[2]) for r in rows]
        totals = [float(r[3]) for r in rows]
        problems = []
        for r, total in zip(wanted, totals):
            # sweep.csv keeps 12 significant digits
            if not close(total, self.refs["totals"][r], max(REL_TOL, 1e-11)):
                problems.append(f"R={r}: total {total!r} != reference {self.refs['totals'][r]!r}")
        slack = 1e-6 * max(1.0, totals[0])
        for name, seq, sign in (("total", totals, 1), ("investment", invest, 1),
                                ("assignment", assign, -1)):
            if any(sign * (b - a) > slack for a, b in zip(seq, seq[1:])):
                problems.append(f"{name} is not monotone in R: {seq}")
        if wanted[0] == "0" and not close(totals[0], self.base_total, 1e-9):
            problems.append(f"R=0 total {totals[0]!r} != baseline {self.base_total!r}")
        return problems


class IngestTrips(Workload):
    name = "ingest-trips"
    BBOX = (13.30, 52.45, 13.50, 52.55)  # min_lon, min_lat, max_lon, max_lat
    GRID_ROWS, GRID_COLS = 5, 4
    N_ROWS = 100_000
    N_SLOTS = 672  # 15-minute slots over one week
    WEEKS = 4

    def setup(self):
        rng = np.random.default_rng(self.seed)
        n_zones = self.GRID_ROWS * self.GRID_COLS
        self.n_bad = int(rng.integers(900, 1100))
        self.n_out = int(rng.integers(1800, 2200))
        n_ok = self.N_ROWS - self.n_bad - self.n_out
        min_lon, min_lat, max_lon, max_lat = self.BBOX
        dlon = (max_lon - min_lon) / self.GRID_COLS
        dlat = (max_lat - min_lat) / self.GRID_ROWS

        zone = rng.choice(n_zones, size=n_ok, p=rng.dirichlet(np.full(n_zones, 2.0)))
        slot = rng.integers(self.N_SLOTS, size=self.N_ROWS)
        self.truth = np.zeros((self.N_SLOTS, n_zones))
        np.add.at(self.truth, (slot[:n_ok], zone), 1.0)

        # in-bbox destinations keep 2% of a cell away from every cell edge;
        # out-of-bbox ones lie east of the box
        dest_lon = np.concatenate([
            min_lon + (zone % self.GRID_COLS + rng.uniform(0.02, 0.98, n_ok)) * dlon,
            max_lon + rng.uniform(0.001, 0.05, self.N_ROWS - n_ok),
        ])
        dest_lat = np.concatenate([
            min_lat + (zone // self.GRID_COLS + rng.uniform(0.02, 0.98, n_ok)) * dlat,
            rng.uniform(min_lat, max_lat, self.N_ROWS - n_ok),
        ])
        orig_lon = rng.uniform(min_lon, max_lon, self.N_ROWS)
        orig_lat = rng.uniform(min_lat, max_lat, self.N_ROWS)
        seconds = (rng.integers(self.WEEKS, size=self.N_ROWS) * 7 * 86400
                   + slot * 900 + rng.integers(900, size=self.N_ROWS))
        stamps = np.datetime_as_string(
            np.datetime64("2024-03-04T00:00:00") + seconds.astype("timedelta64[s]"),
            unit="s",
        )  # 2024-03-04 is a Monday, so slot = minute of week // 15
        km = np.hypot((dest_lon - orig_lon) * 68.0, (dest_lat - orig_lat) * 111.2) * 1.3
        has_km = rng.random(self.N_ROWS) < 0.5

        defects = ((0, "2024-02-30T25:00:00"), (3, "n/a"), (2, "nan"))

        def line(k):
            row = [str(stamps[k]), f"{orig_lon[k]:.6f}", f"{orig_lat[k]:.6f}",
                   f"{dest_lon[k]:.6f}", f"{dest_lat[k]:.6f}",
                   f"{km[k]:.3f}" if has_km[k] else ""]
            bad = k - (self.N_ROWS - self.n_bad)
            if bad >= 0:  # the last n_bad rows of the out-of-bbox tail are malformed
                field_, value = defects[bad % 3]
                row[field_] = value
            return ",".join(row) + "\n"

        self.trips = self.work / "trips.csv"
        with open(self.trips, "w") as fh:
            fh.write("start_time,origin_lng,origin_lat,dest_lng,dest_lat,distance_km\n")
            fh.writelines(line(k) for k in rng.permutation(self.N_ROWS))
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps({"binning": {
            "bbox": list(self.BBOX), "rows": self.GRID_ROWS, "cols": self.GRID_COLS,
            "slot_minutes": 15, "n_slots": self.N_SLOTS,
        }}))

    def argv(self):
        return ["--quiet", "--config", str(self.config), "--out", str(self.out),
                "ingest", str(self.trips)]

    def check(self, rc, argv):
        if rc != 0:
            return [f"exit code {rc}"]
        problems = []
        flow = np.asarray(json.loads((self.out / "instance.json").read_text())["flow"])
        if flow.shape != self.truth.shape or not np.array_equal(flow, self.truth):
            problems.append("flows differ from the generated (slot, zone) counts")
        summary = json.loads((self.out / "ingest_summary.json").read_text())
        expected = {"records_read": self.N_ROWS, "skipped": self.n_bad,
                    "dropped": self.n_out, "retained": int(self.truth.sum())}
        for key, value in expected.items():
            if summary.get(key) != value:
                problems.append(f"{key} {summary.get(key)!r} != {value}")
        return problems


WORKLOADS = {w.name: w for w in (CentralWeek, AdmmFamily, SweepHet, IngestTrips)}


# ---------------------------------------------------------------- runner


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"operation {self.attempted} failed: {'; '.join(problems)}",
                  file=sys.stderr)


def run_op(wl: Workload, argv: list[str], tally: Tally, tracer=None) -> float:
    """Run one CLI operation, check its outputs and return its wall seconds."""
    wl.clear_outputs()
    start = time.perf_counter()
    try:
        if tracer is None:
            rc = wl.lib.cli.main(argv)
        else:
            with tracer.span("op"):
                rc = wl.lib.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a traceback is a failed operation, not a crashed benchmark
        traceback.print_exc()
        rc = None
    elapsed = time.perf_counter() - start
    if rc is None:
        tally.record(["raised an exception"])
    else:
        try:
            tally.record(wl.check(rc, argv))
        except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
            tally.record([f"unreadable output: {exc!r}"])
    return elapsed


class HostGauge:
    """How fast the host runs right now, read from fixed reference work.

    The work is, in about equal parts, a small HiGHS LP through
    ``scipy.optimize.linprog``, streaming numpy arithmetic over two 8 MB
    arrays and a pure-Python dict loop: one part for each kind of work the
    workloads do.  Of the mixes tried (also dense rank-one updates, a larger
    LP, string parsing and formatting), this one tracked the host's speed
    best across the four workloads, for set-ups as well as operations.  The
    arrays are made once and updated in place, so a reading faults in no new
    pages; they hold 16 MB of the reported ``peak_rss_mb``.
    """

    def __init__(self, scipy) -> None:
        rng = np.random.default_rng(0)
        self.linprog = scipy.optimize.linprog
        self.lp = dict(
            c=-rng.random(900),
            A_ub=scipy.sparse.random(600, 900, density=0.02, random_state=1, format="csr"),
            b_ub=10.0 * rng.random(600),
            bounds=(0, 1),
            method="highs",
        )
        self.source = rng.random(1_000_000)
        self.target = np.empty_like(self.source)
        self.readings: list[float] = []
        self._work()  # loads HiGHS
        self.measure()

    def _work(self) -> None:
        self.linprog(**self.lp)
        for _ in range(20):
            np.multiply(self.source, 1.0001, out=self.target)
            np.add(self.target, self.source, out=self.target)
        counts: dict[int, float] = {}
        for i in range(150_000):
            counts[i % 977] = counts.get(i % 977, 0.0) + i * 0.5

    def measure(self) -> None:
        """Record the seconds of the reference work, the faster of two tries."""
        times = []
        gc.disable()
        try:
            for _ in range(2):
                start = time.perf_counter()
                self._work()
                times.append(time.perf_counter() - start)
        finally:
            gc.enable()
        self.readings.append(min(times))

    def speed(self) -> float:
        """Factor that turns this run's wall seconds into reference seconds."""
        return GAUGE_REF_S / statistics.mean(self.readings)


def timed_loop(seconds: float, op, after=None) -> list[float]:
    """Closed loop: each operation starts when the previous one ends.

    ``after`` runs between operations, inside the window but outside the
    operation's time.  Runs at least one operation, and starts another only
    while a cycle of median length would still end within ``seconds``, so an
    operation longer than half the window is not repeated just to overrun it.
    """
    times: list[float] = []
    cycles: list[float] = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() + statistics.median(cycles) <= deadline:
        start = time.perf_counter()
        times.append(op())
        if after is not None:
            after()
        cycles.append(time.perf_counter() - start)
    return times


def environment(lib: SimpleNamespace) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": lib.scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var, "unset") for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _med(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer, wl: Workload, plain: list[float], traced: list[float]) -> dict:
    """Per-layer metrics: medians over traced operations of per-operation sums."""
    ops = tracer.per_root("op")

    def self_s(*names, rows=ops):
        return _med([sum(row[n]["self_s"] for n in names if n in row) for row in rows])

    def calls(name):
        return _med([row[name]["calls"] if name in row else 0 for row in ops])

    def count(name, key, reduce=sum):
        return _med([reduce(row[name]["counts"].get(key, [0])) if name in row else 0
                     for row in ops])

    def per_iteration_ms():
        return _med([1000.0 * row["admm.run"]["total_s"] / row["admm.master"]["calls"]
                     if "admm.master" in row else 0.0 for row in ops])

    return {
        "admm.subproblem_s": (self_s("admm.subproblem"), "s"),
        "admm.subproblem_calls": (calls("admm.subproblem"), "count"),
        "admm.receiver_slack_s": (self_s("admm.receiver_slack"), "s"),
        "admm.exchange_s": (self_s("admm.exchange"), "s"),
        "admm.master_s": (self_s("admm.master"), "s"),
        "admm.dual_s": (self_s("admm.dual"), "s"),
        "admm.loop_self_s": (self_s("admm.run"), "s"),
        "admm.iterations": (calls("admm.master"), "count"),
        "admm.ms_per_iteration": (per_iteration_ms(), "ms"),
        "admm.assignment_bytes": (count("admm.master", "assignment_bytes", max), "bytes"),
        "admm.gap_pct": (_med(wl.gaps[-len(traced):]) if wl.gaps else 0.0, "%"),
        "model.delayed_inflow_s": (self_s("model.delayed_inflow"), "s"),
        "model.delayed_inflow_calls": (calls("model.delayed_inflow"), "count"),
        "model.check_feasibility_s": (self_s("model.check_feasibility"), "s"),
        "model.evaluate_objective_s": (self_s("model.evaluate_objective"), "s"),
        "central.build_lp_s": (self_s("central.build_lp"), "s"),
        "central.extract_s": (self_s("central.extract"), "s"),
        "central.highs_s": (self_s("central.highs"), "s"),
        "central.highs_iterations": (count("central.highs", "iterations"), "count"),
        "central.lp_rows": (count("central.build_lp", "rows", max), "count"),
        "central.lp_cols": (count("central.build_lp", "cols", max), "count"),
        "central.lp_nnz": (count("central.build_lp", "nnz", max), "count"),
        "central.solves": (calls("central.solve_lp"), "count"),
        "central.simplex_solves": (calls("simplex.solve"), "count"),
        "central.self_s": (self_s("central.solve_centralized", "central.solve_lp"), "s"),
        "simplex.solve_s": (self_s("simplex.solve"), "s"),
        "simplex.iterations": (count("simplex.solve", "iterations"), "count"),
        "simplex.dense_bytes": (count("simplex.solve", "dense_bytes", max), "bytes"),
        "datagen.with_range_limit_s": (self_s("datagen.with_range_limit"), "s"),
        "datagen.generate_s": (self_s("datagen.generate", rows=tracer.per_root("setup")), "s"),
        "ingest.parse_s": (self_s("ingest.parse"), "s"),
        "ingest.flows_s": (self_s("ingest.flows"), "s"),
        "ingest.distances_s": (self_s("ingest.distances"), "s"),
        "ingest.assemble_s": (self_s("ingest.assemble"), "s"),
        "ingest.records": (count("ingest.parse", "records"), "count"),
        "ingest.skipped": (count("ingest.parse", "skipped"), "count"),
        "ingest.dropped": (count("ingest.flows", "dropped"), "count"),
        "io.load_instance_s": (self_s("io.load_instance"), "s"),
        "io.save_instance_s": (self_s("io.save_instance"), "s"),
        "io.save_solution_s": (self_s("io.save_solution"), "s"),
        "io.checksum_s": (self_s("io.checksum"), "s"),
        "io.solution_bytes": (count("io.save_solution", "bytes", max), "bytes"),
        "cli.self_s": (self_s("op"), "s"),
        "trace.op_s": (statistics.mean(traced), "s"),
        "trace.overhead_s": (statistics.mean(traced) - statistics.mean(plain), "s"),
        "trace.absent_spans": (len(tracer.absent), "count"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    try:
        lib = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {}
    from spans import Tracer

    work = OUT_DIR / f"{workload}-seed{seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[workload](lib, work, seed)
        tally = Tally()
        setups: list[float] = []

        def set_up():
            count, start = 0, time.perf_counter()
            while not count or time.perf_counter() - start < SETUP_MIN_S:
                wl.setup()
                count += 1
            setups.append((time.perf_counter() - start) / count)

        for _ in range(SETUP_REPEATS):
            set_up()
        warm_s = run_op(wl, wl.argv(), tally)

        def plain_op():
            return run_op(wl, wl.argv(), tally)

        if not trace:
            gauge = HostGauge(lib.scipy)

            def between_ops():
                gauge.measure()
                # one more set-up after every operation spreads the set-up
                # samples over the window, so both metrics see the same host
                # conditions
                set_up()

            times = timed_loop(seconds, plain_op, after=between_ops)
            speed = gauge.speed()
            metrics = {
                "op_s": (statistics.mean(times) * speed, "s"),
                "setup_s": (_med(setups) * speed, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            samples = (f"op_s is the mean of {len(times)} operations, tracing off, "
                       f"scaled to the reference host speed by {speed:.4g}; unscaled "
                       f"mean {statistics.mean(times):.4g} s, median {_med(times):.4g} s, "
                       f"setup {_med(setups):.4g} s; "
                       f"op seconds {[round(t, 4) for t in times]}, "
                       f"gauge seconds {[round(g, 4) for g in gauge.readings]}")
        else:
            times = timed_loop(seconds / 2, plain_op)
            tracer = Tracer()
            tracer.install()
            try:
                with tracer.span("setup"):
                    wl.setup()
                traced = timed_loop(seconds / 2, lambda: run_op(wl, wl.argv(), tally, tracer))
            finally:
                tracer.uninstall()
            trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
            tracer.write_jsonl(trace_path)
            metrics = layer_metrics(tracer, wl, times, traced)
            samples = (f"medians over {len(traced)} traced operations; "
                       f"spans in {trace_path.relative_to(ROOT)}; "
                       f"absent spans: {tracer.absent or 'none'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"env {json.dumps(environment(lib))}")
    print(f"workload {workload} seed {seed}: {samples}; "
          f"warm-up operation {warm_s:.4g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(f"  fail_ratio {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.3g}")
    if wl.gaps:
        print(f"  admm_gap_pct {_med(wl.gaps):.6g} % (ADMM total vs the LP reference)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="chargeplan benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCES["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if not result:
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
