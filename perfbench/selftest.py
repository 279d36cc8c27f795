#!/usr/bin/env python3
"""Self-test of the benchmark: its output checks catch wrong answers.

Runs real CLI operations through ``run.run_op`` and then corrupts what the
CLI wrote (a wrong objective, a wrong flow count, a wrong skip count) before
the check reads it.  Each honest operation must pass and each corrupted one
must be counted as failed, which is what raises ``fail_ratio``.  It also
checks that the metric names and units in ``BENCHMARK.json`` are the ones
``run.py`` prints, and that the tracer reports a vanished target as absent
instead of failing.  Takes about 20 s.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from types import SimpleNamespace

import run
from spans import TARGETS, Target, Tracer


def _edit_json(path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _raise_capacity(wl, factor: float) -> None:
    """A consistent but suboptimal plan: more capacity, total to match."""
    def edit(doc):
        w = wl.instance.base_cost + wl.instance.location_cost
        extra = (factor - 1.0) * float(sum(c * wi for c, wi in zip(doc["capacity"], w)))
        doc["capacity"] = [c * factor for c in doc["capacity"]]
        doc["cost"]["total"] += extra
    _edit_json(wl.out / "solution.json", edit)


def _shift_total(wl) -> None:
    _edit_json(wl.out / "solution.json",
               lambda doc: doc["cost"].__setitem__("total", doc["cost"]["total"] * 1.0001))


def _bump_flow(wl) -> None:
    def edit(doc):
        doc["flow"][0][0] += 1.0
    _edit_json(wl.out / "instance.json", edit)


def _bump_skipped(wl) -> None:
    _edit_json(wl.out / "ingest_summary.json",
               lambda doc: doc.__setitem__("skipped", doc["skipped"] + 1))


def _bump_sweep_total(wl) -> None:
    path = wl.out / "sweep.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) * 1.001)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


CASES = (
    # (workload, seed, corruption or None, description)
    ("central-week", 3, None, "honest centralized solve"),
    ("central-week", 3, _shift_total, "reported objective off by 1e-4"),
    ("central-week", 3, lambda wl: _raise_capacity(wl, 1.001),
     "plan 0.1% above the reference objective"),
    ("admm-family", 3, None, "honest ADMM solve"),
    ("admm-family", 3, lambda wl: _raise_capacity(wl, 1.02), "ADMM gap above 1%"),
    ("sweep-het", 3, None, "honest sweep"),
    ("sweep-het", 3, _bump_sweep_total, "sweep total off by 0.1%"),
    ("ingest-trips", 3, None, "honest ingest"),
    ("ingest-trips", 3, _bump_flow, "one flow count off by one"),
    ("ingest-trips", 3, _bump_skipped, "skipped count off by one"),
)


def check_names(lib) -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wl = run.WORKLOADS["central-week"](lib, run.OUT_DIR, 0)
    printed = {
        "end_to_end": {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"},
        "per_layer": {name: unit for name, (_, unit) in
                      run.layer_metrics(Tracer(), wl, [0.0], [0.0]).items()},
    }
    problems = []
    for kind, names in printed.items():
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        if declared != names:
            problems.append(f"BENCHMARK.json {kind} {declared} != printed {names}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    return problems


def check_absent_span(lib) -> list[str]:
    """A traced attribute that no longer exists is reported, not raised."""
    tracer = Tracer(TARGETS + (Target("admm.folded", "chargeplan.admm", "no_such_helper"),))
    original = lib.cp.central.build_lp
    tracer.install()
    patched = lib.cp.central.build_lp is not original
    tracer.uninstall()
    problems = []
    if tracer.absent != ["admm.folded"]:
        problems.append(f"absent spans {tracer.absent} != ['admm.folded']")
    if not patched or lib.cp.central.build_lp is not original:
        problems.append("install/uninstall did not wrap and restore central.build_lp")
    return problems


def main() -> int:
    lib = run.load_program()
    problems = check_names(lib) + check_absent_span(lib)
    work = run.OUT_DIR / f"selftest-pid{os.getpid()}"
    try:
        prepared = {}
        for name, seed, corrupt, what in CASES:
            if name not in prepared:
                wl = run.WORKLOADS[name](lib, work / name, seed)
                wl.work.mkdir(parents=True, exist_ok=True)
                wl.setup()
                prepared[name] = wl
            wl = prepared[name]

            def main_then_corrupt(argv, corrupt=corrupt, wl=wl):
                rc = lib.cli.main(argv)
                if corrupt is not None:
                    corrupt(wl)
                return rc

            wl.lib = SimpleNamespace(cp=lib.cp, cli=SimpleNamespace(main=main_then_corrupt))
            tally = run.Tally()
            run.run_op(wl, wl.argv(), tally)
            expected = 0 if corrupt is None else 1
            verdict = "ok" if tally.failed == expected else "WRONG"
            print(f"{verdict:5} {name}: {what}: fail_ratio {tally.failed}/{tally.attempted}")
            if tally.failed != expected:
                problems.append(f"{name}: {what}: expected {expected} failed, got {tally.failed}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
