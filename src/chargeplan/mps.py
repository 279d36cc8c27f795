"""MPS export and import for the standard-form LP.

Field-aligned MPS with widened value columns so coefficients round-trip at
full double precision (classic 12-character value fields cannot represent a
double exactly; modern solvers read the widened layout as free-format MPS).
This module alone makes and reads the names, which encode their model meaning
losslessly, 1-based: ``C_<i>`` for capacities and ``Z_<i>_<j>_<t>`` for
assignments; ``BUDGET``, ``FLOW_<i>_<t>`` and ``CAPU_<i>_<t>`` for rows.
MPS lists the matrix column by column, as :class:`StandardFormLP` holds it:
the writer walks the columns' ``start`` offsets, and the reader collects the
entries in file order.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .central import StandardFormLP

_OBJ_ROW = "COST"
_FIRST_SLOT_Z = re.compile(r"Z_(\d+)_(\d+)_1")


def _fmt(v: float) -> str:
    return np.format_float_scientific(v, precision=17, trim="-")


def col_names(lp: StandardFormLP) -> list[str]:
    """The LP's column names in column order."""
    edges = lp.edges.tolist()
    return [f"C_{k + 1}" for k in range(lp.n_locations)] + [
        f"Z_{a + 1}_{b + 1}_{s + 1}" for s in range(lp.n_slots) for a, b in edges
    ]


def row_names(lp: StandardFormLP) -> list[str]:
    """The LP's row names in row order."""
    n, T = lp.n_locations, lp.n_slots
    return (
        ["BUDGET"]
        + [f"FLOW_{a + 1}_{s + 1}" for a in range(n) for s in range(T)]
        + [f"CAPU_{a + 1}_{s + 1}" for a in range(n) for s in range(T)]
    )


def write_mps(lp: StandardFormLP, path) -> None:
    """Write the LP as an MPS file; the matrix round-trips exactly, each
    column's entries in the LP's (ascending) row order."""
    rnames = row_names(lp)
    lines = ["NAME          CHARGEPLAN", "ROWS", f" N  {_OBJ_ROW}"]
    lines += [f" L  {rname}" for rname in rnames]

    cnames = col_names(lp)
    lines.append("COLUMNS")
    for k, cname in enumerate(cnames):
        if lp.obj[k] != 0.0:
            lines.append(f"    {cname:<12}  {_OBJ_ROW:<12}  {_fmt(lp.obj[k])}")
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


def read_mps(path) -> StandardFormLP:
    """Parse a file produced by :func:`write_mps` back into a StandardFormLP.

    Every row must be ``L`` (``<=``) and every bound ``UP``, as written, since
    the LP's columns are bounded below by zero; any other row sense or bound
    type is an error, and so are names off the layout of :func:`row_names`
    and :func:`col_names`.
    """
    rnames: list[str] = []
    row_index: dict[str, int] = {}
    cnames: list[str] = []
    col_index: dict[str, int] = {}
    start: list[int] = [0]
    index: list[int] = []
    vals: list[float] = []
    obj_entries: dict[int, float] = {}
    rhs_entries: dict[int, float] = {}
    up: dict[int, float] = {}

    section = None
    for raw in Path(path).read_text().splitlines():
        if not raw.strip() or raw.startswith("*"):
            continue
        if not raw.startswith(" "):
            section = raw.split()[0]
            continue
        fields = raw.split()
        if section == "ROWS":
            sense, rname = fields
            if sense == "N":
                continue
            if sense != "L":
                raise ValueError(f"row {rname}: unsupported sense {sense!r}, only L")
            row_index[rname] = len(rnames)
            rnames.append(rname)
        elif section == "COLUMNS":
            cname, rname, value = fields
            if cname not in col_index:
                col_index[cname] = len(cnames)
                cnames.append(cname)
                start.append(start[-1])
            elif cname != cnames[-1]:
                raise ValueError(f"column {cname}: its entries are not contiguous")
            if rname == _OBJ_ROW:
                obj_entries[col_index[cname]] = float(value)
            else:
                index.append(row_index[rname])
                vals.append(float(value))
                start[-1] += 1
        elif section == "RHS":
            _, rname, value = fields
            rhs_entries[row_index[rname]] = float(value)
        elif section == "BOUNDS":
            btype, _, cname, value = fields
            if btype != "UP":
                raise ValueError(f"unsupported bound type {btype!r}, only UP")
            up[col_index[cname]] = float(value)
        elif section in ("NAME", "ENDATA"):
            continue
        else:
            raise ValueError(f"unexpected MPS section: {section}")

    n_rows, n_cols = len(rnames), len(cnames)
    rhs = np.zeros(n_rows)
    for r, v in rhs_entries.items():
        rhs[r] = v
    obj = np.zeros(n_cols)
    for k, v in obj_entries.items():
        obj[k] = v
    ub = np.full(n_cols, np.inf)
    for k, v in up.items():
        ub[k] = v

    # the first slot's assignment names give the edges; the name check below
    # holds every other name to the layout they imply
    n = sum(name.startswith("C_") for name in cnames)
    first_slot = filter(None, map(_FIRST_SLOT_Z.fullmatch, cnames[n:]))
    edges = [(int(m[1]) - 1, int(m[2]) - 1) for m in first_slot]
    lp = StandardFormLP(
        n_rows=n_rows,
        n_cols=n_cols,
        start=np.array(start, dtype=np.int32),
        index=np.array(index, dtype=np.int32),
        vals=np.array(vals, dtype=float),
        rhs=rhs,
        ub=ub,
        obj=obj,
        n_locations=n,
        n_slots=(n_rows - 1) // (2 * n) if n else 0,
        edges=np.array(edges, dtype=int).reshape(-1, 2),
    )
    if col_names(lp) != cnames or row_names(lp) != rnames:
        raise ValueError("row or column names do not follow the chargeplan LP layout")
    return lp
