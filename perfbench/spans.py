"""Per-layer spans for the benchmark's traced run.

The tracer wraps the module attributes through which each layer's callers
reach it (``chargeplan.central.build_lp``, ``chargeplan.admm._LocationWorker.solve``,
``scipy.optimize.linprog``, ...).  A function imported by name into another
module is a separate binding, so every ``chargeplan`` module that holds the
same object is patched too.  Nothing is wrapped until :meth:`Tracer.install`
runs, and :meth:`Tracer.uninstall` restores every binding, so the untraced
measurements execute the library exactly as shipped.

A target that no longer exists (for example after a refactor folds a helper
away) is recorded in :attr:`Tracer.absent` instead of raising; its metrics
then read 0.

Spans are kept in memory as (id, parent, root, name, start, end, counts)
and written as JSON lines only when the traced run ends.  The process runs
one operation at a time on one thread, so a plain stack gives each span its
parent.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _simplex_counts(fn, args, kwargs, res) -> dict:
    m, n = _bound(fn, args, kwargs)["A"].shape
    # the phase-1 system [A | slack | artificial] plus the explicit basis inverse
    return {"iterations": res.iterations, "dense_bytes": 8 * (m * (n + 2 * m) + m * m)}


def _master_counts(fn, args, kwargs, res) -> dict:
    # run_admm holds the previous iterate, the per-location rows stacked into
    # the new one, the new iterate itself and a copy of the best iterate
    return {"assignment_bytes": 4 * _bound(fn, args, kwargs)["z"].nbytes}


def _solution_counts(fn, args, kwargs, res) -> dict:
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


@dataclass(frozen=True)
class Target:
    """One traced attribute: span name, defining module, dotted attribute."""

    name: str
    module: str
    attr: str
    counts: Callable | None = None


TARGETS = (
    Target("io.load_instance", "chargeplan.io", "load_instance"),
    Target("io.save_instance", "chargeplan.io", "save_instance"),
    Target("io.save_solution", "chargeplan.io", "save_solution", _solution_counts),
    Target("io.checksum", "chargeplan.io", "file_checksum"),
    Target("datagen.generate", "chargeplan.datagen", "generate_instance"),
    Target("datagen.with_range_limit", "chargeplan.datagen", "with_range_limit"),
    Target("ingest.parse", "chargeplan.ingest", "parse_trips",
           lambda fn, a, k, r: {"records": len(r.records), "skipped": r.skipped}),
    Target("ingest.flows", "chargeplan.ingest", "build_flows",
           lambda fn, a, k, r: {"dropped": r.dropped}),
    Target("ingest.distances", "chargeplan.ingest", "build_distances"),
    Target("ingest.assemble", "chargeplan.ingest", "assemble_instance"),
    Target("model.delayed_inflow", "chargeplan.model", "delayed_inflow"),
    Target("model.check_feasibility", "chargeplan.model", "check_feasibility"),
    Target("model.evaluate_objective", "chargeplan.model", "evaluate_objective"),
    Target("central.solve_centralized", "chargeplan.central", "solve_centralized"),
    Target("central.build_lp", "chargeplan.central", "build_lp",
           lambda fn, a, k, r: {"rows": r.n_rows, "cols": r.n_cols, "nnz": len(r.vals)}),
    Target("central.solve_lp", "chargeplan.central", "solve_lp"),
    Target("central.extract", "chargeplan.central", "_extract_plans"),
    Target("central.highs", "scipy.optimize", "linprog",
           lambda fn, a, k, r: {"iterations": int(getattr(r, "nit", 0))}),
    Target("simplex.solve", "chargeplan.simplex", "solve_simplex", _simplex_counts),
    Target("admm.run", "chargeplan.admm", "run_admm"),
    Target("admm.subproblem", "chargeplan.admm", "_LocationWorker.solve"),
    Target("admm.receiver_slack", "chargeplan.admm", "receiver_slack"),
    Target("admm.exchange", "chargeplan.admm", "transform_inflows"),
    Target("admm.master", "chargeplan.admm", "solve_master", _master_counts),
    Target("admm.dual", "chargeplan.admm", "update_multipliers"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    root: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        s = Span(sid, parent.id if parent else None,
                 parent.root if parent else sid, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, target: Target, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self._stack:  # only calls made inside a root span count
                return original(*args, **kwargs)
            with self.span(target.name) as s:
                result = original(*args, **kwargs)
            if target.counts is not None:
                try:
                    s.counts = target.counts(original, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError, OSError):
                    pass  # a renamed argument or field loses the count, not the span
            return result

        return wrapper

    def install(self) -> None:
        for target in self.targets:
            owner_name, _, attr = target.attr.rpartition(".")
            owner = sys.modules.get(target.module)
            for part in filter(None, owner_name.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            holders = [owner]
            if not owner_name:  # also rebind `from module import name` copies
                holders += [
                    mod for key, mod in list(sys.modules.items())
                    if key.startswith("chargeplan") and mod is not owner
                    and getattr(mod, attr, None) is original
                ]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "root": s.root, "name": s.name,
                    "start": s.start, "end": s.end, "counts": s.counts,
                }) + "\n")

    def per_root(self, root_name: str) -> list[dict]:
        """Per root span named ``root_name``: {span name: [self s, calls, counts]}.

        Self time is a span's duration minus its children's; calls never
        overlap on one thread, so the children's durations simply add up.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        roots = {s.id: {} for s in self.spans if s.parent is None and s.name == root_name}
        for s in self.spans:
            if s.root not in roots:
                continue
            agg = roots[s.root].setdefault(s.name, {"self_s": 0.0, "total_s": 0.0,
                                                    "calls": 0, "counts": {}})
            agg["self_s"] += s.end - s.start - child_time[s.id]
            agg["total_s"] += s.end - s.start
            agg["calls"] += 1
            for key, value in s.counts.items():
                agg["counts"].setdefault(key, []).append(value)
        return list(roots.values())
