"""MPS export for the standard-form LP.

Field-aligned MPS with widened value columns so coefficients round-trip at
full double precision (classic 12-character value fields cannot represent a
double exactly; modern solvers read the widened layout as free-format MPS).
This module alone makes the names, which encode their model meaning
losslessly, 1-based: ``C_<i>`` for capacities and ``Z_<i>_<j>_<t>`` for
assignments; ``BUDGET``, ``FLOW_<i>_<t>`` and ``CAPU_<i>_<t>`` for rows.
An origin with one edge has no FLOW row: its ``Z`` columns carry an ``UP``
bound, its demand, in the BOUNDS section, as the capacities do.
MPS lists the matrix column by column, as :class:`StandardFormLP` holds it:
the writer walks the columns' ``start`` offsets.  HiGHS reads the file back
into the same arrays, less the matrix entries at or below its
``small_matrix_value`` (1e-9 by default), which it drops.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .central import StandardFormLP, flow_origins


def _fmt(v: float) -> str:
    return np.format_float_scientific(v, precision=17, trim="-")


def col_names(lp: StandardFormLP) -> list[str]:
    """The LP's column names in column order."""
    graph = lp.graph
    edges = list(zip(graph.src.tolist(), graph.dst.tolist()))
    return [f"C_{k + 1}" for k in range(graph.n_locations)] + [
        f"Z_{a + 1}_{b + 1}_{s + 1}" for s in range(graph.n_slots) for a, b in edges
    ]


def row_names(lp: StandardFormLP) -> list[str]:
    """The LP's row names in row order: FLOW rows for the
    :func:`~chargeplan.central.flow_origins` only."""
    n, T = lp.graph.n_locations, lp.graph.n_slots
    return (
        ["BUDGET"]
        + [f"FLOW_{a + 1}_{s + 1}" for a in flow_origins(lp.graph).tolist() for s in range(T)]
        + [f"CAPU_{a + 1}_{s + 1}" for a in range(n) for s in range(T)]
    )


def write_mps(lp: StandardFormLP, path) -> None:
    """Write the LP as an MPS file; the matrix round-trips exactly, each
    column's entries in the LP's (ascending) row order."""
    rnames = row_names(lp)
    lines = ["NAME          CHARGEPLAN", "ROWS", " N  COST"]
    lines += [f" L  {rname}" for rname in rnames]

    cnames = col_names(lp)
    lines.append("COLUMNS")
    for k, cname in enumerate(cnames):
        if lp.obj[k] != 0.0:
            lines.append(f"    {cname:<12}  COST          {_fmt(lp.obj[k])}")
        for p in range(lp.start[k], lp.start[k + 1]):
            lines.append(f"    {cname:<12}  {rnames[lp.index[p]]:<12}  {_fmt(lp.vals[p])}")

    lines.append("RHS")
    for r, b in enumerate(lp.rhs):
        if b != 0.0:
            lines.append(f"    RHS           {rnames[r]:<12}  {_fmt(b)}")

    lines.append("BOUNDS")
    for k, cname in enumerate(cnames):
        if np.isfinite(lp.ub[k]):
            lines.append(f" UP BND           {cname:<12}  {_fmt(lp.ub[k])}")

    lines.append("ENDATA")
    Path(path).write_text("\n".join(lines) + "\n")
