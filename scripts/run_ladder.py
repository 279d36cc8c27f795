#!/usr/bin/env python3
"""Measure the size ladder both solvers are held to and write BENCH_ladder.json.

For each size n x T the instance is ``GenParams(n_locations=n, n_slots=T,
seed=0)``, defaults otherwise.  Each figure comes from its own fresh Python
process, so one figure's peak memory never includes another's: one process
times ``solve_centralized`` (build, HiGHS solve and assessment), another
times ``run_admm`` at ``AdmmConfig()`` defaults.  Both return a judged
``Solution``; iteration counts and ADMM's ``converged`` verdict are read
from its ``stats``.  Instance generation is not timed, but it is part of
each process's peak RSS.

Usage:  python3 scripts/run_ladder.py [--sizes 20x96,20x672,40x672,60x672,80x672,100x672]
                                      [--out BENCH_ladder.json]
        python3 scripts/run_ladder.py --figure central --sizes 20x96

With ``--figure`` the script measures that one figure for the first size in
this process and prints it as one line of JSON instead; the ladder runs
itself that way.  Set ``OPENBLAS_NUM_THREADS=1`` for figures comparable with
the committed ones.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

FIGURES = ("central", "admm")


def parse_sizes(text: str) -> list[tuple[int, int]]:
    sizes = []
    for item in text.split(","):
        n, T = item.lower().split("x")
        sizes.append((int(n), int(T)))
    return sizes


def measure(figure: str, n: int, T: int) -> dict:
    """One figure of one rung, measured in this process."""
    from chargeplan.admm import run_admm
    from chargeplan.central import build_lp, solve_centralized
    from chargeplan.datagen import GenParams, generate_instance

    inst = generate_instance(GenParams(n_locations=n, n_slots=T, seed=0))
    out = {}
    if figure == "central":
        lp = build_lp(inst)
        out["lp_rows"], out["lp_cols"] = lp.n_rows, lp.n_cols
        del lp
        t0 = time.perf_counter()
        sol = solve_centralized(inst)
        out["seconds"] = time.perf_counter() - t0
        out["iterations"] = sol.stats["iterations"]
    else:
        t0 = time.perf_counter()
        sol, _ = run_admm(inst)
        out["seconds"] = time.perf_counter() - t0
        out["iterations"], out["converged"] = sol.stats["iterations"], sol.stats["converged"]
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["total"] = sol.cost.total
    out["feasible"] = sol.feasibility.feasible
    return out


def run_figure(figure: str, n: int, T: int) -> dict:
    """One figure of one rung, measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--figure", figure, "--sizes", f"{n}x{T}"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def host() -> str:
    import numpy
    import scipy

    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (f"{os.cpu_count()}-CPU {platform.machine()}, CPython {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
            f"OPENBLAS_NUM_THREADS={threads}")


def ladder(sizes) -> dict:
    rungs = []
    for n, T in sizes:
        central = run_figure("central", n, T)
        admm = run_figure("admm", n, T)
        rung = {"size": f"{n} x {T}", "n_locations": n, "n_slots": T,
                "lp_rows": central.pop("lp_rows"), "lp_cols": central.pop("lp_cols")}
        for name, figure in (("central", central), ("admm", admm)):
            figure["seconds"] = round(figure["seconds"], 3)
            figure["rss_mb"] = round(figure["rss_mb"], 1)
            rung[name] = figure
        gap = 100.0 * (admm["total"] - central["total"]) / central["total"]
        rung["admm_above_lp_pct"] = round(gap, 2)
        rungs.append(rung)
        print(f"{n} x {T}: central {central['seconds']:.3f} s {central['rss_mb']:.1f} MB, "
              f"admm {admm['seconds']:.3f} s {admm['rss_mb']:.1f} MB, "
              f"admm above LP {gap:.2f}%", file=sys.stderr)
    return {
        "what": "The size ladder both solvers are held to: the central LP (HiGHS) and "
                "run_admm on GenParams(n_locations=n, n_slots=T, seed=0), defaults otherwise. "
                "The bar a distributed solver has to clear is admm_above_lp_pct (how far "
                "ADMM's plan lands above the LP optimum) at comparable seconds.",
        "host": host(),
        "protocol": "Written by scripts/run_ladder.py. One fresh process per figure: each "
                    "process generates the instance, then either builds the LP once for its "
                    "size and times solve_centralized(instance), or times run_admm(instance) "
                    "at AdmmConfig() defaults. seconds is wall time of that one call (build, "
                    "solve and assess for central; the whole loop for ADMM), not the instance "
                    "generation. rss_mb is the process's ru_maxrss, generation included. "
                    "iterations counts simplex iterations (central) or ADMM iterations. "
                    "total is the plan's cost.total; admm_above_lp_pct is 100 * (admm total - "
                    "central total) / central total. One run per figure, so treat seconds and "
                    "RSS as +-15%.",
        "measure": [
            "inst = generate_instance(GenParams(n_locations=n, n_slots=T, seed=0))",
            "central: lp = build_lp(inst); rows, cols = lp.n_rows, lp.n_cols; del lp; "
            "t0 = perf_counter(); sol = solve_centralized(inst); seconds = perf_counter() - t0; "
            "iterations = sol.stats['iterations']",
            "admm: t0 = perf_counter(); sol, history = run_admm(inst); "
            "seconds = perf_counter() - t0; iterations = sol.stats['iterations']",
            "rss_mb = resource.getrusage(RUSAGE_SELF).ru_maxrss / 1024",
        ],
        "ladder": rungs,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sizes", default="20x96,20x672,40x672,60x672,80x672,100x672")
    parser.add_argument("--out", default="BENCH_ladder.json")
    parser.add_argument("--figure", choices=FIGURES)
    args = parser.parse_args()
    sizes = parse_sizes(args.sizes)
    if args.figure:
        print(json.dumps(measure(args.figure, *sizes[0])))
        return 0
    doc = ladder(sizes)
    with open(args.out, "w") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
