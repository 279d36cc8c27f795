"""MPS export and import for the standard-form LP.

Field-aligned MPS with widened value columns so coefficients round-trip at
full double precision (classic 12-character value fields cannot represent a
double exactly; modern solvers read the widened layout as free-format MPS).
Variable names encode their model meaning losslessly: ``C_<i>`` for
capacities and ``Z_<i>_<j>_<t>`` for assignment cells, 1-based.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .central import StandardFormLP

_OBJ_ROW = "COST"


def _fmt(v: float) -> str:
    return np.format_float_scientific(v, precision=17, trim="-")


def _kind_from_name(name: str) -> tuple:
    parts = name.split("_")
    if parts[0] == "C":
        return ("c", int(parts[1]) - 1)
    if parts[0] == "Z":
        i, j, t = (int(p) - 1 for p in parts[1:4])
        return ("z", t, i, j)
    raise ValueError(f"unrecognized variable name: {name!r}")


def write_mps(lp: StandardFormLP, path) -> None:
    """Write the LP as an MPS file; the triplet matrix round-trips exactly."""
    lines = ["NAME          CHARGEPLAN", "ROWS", f" N  {_OBJ_ROW}"]
    lines += [f" L  {rname}" for rname in lp.row_names]

    # column-major entry lists, preserving row order within each column
    by_col: list[list[tuple[str, float]]] = [[] for _ in range(lp.n_cols)]
    for r, c, v in zip(lp.rows, lp.cols, lp.vals):
        by_col[int(c)].append((lp.row_names[int(r)], float(v)))

    lines.append("COLUMNS")
    for k, cname in enumerate(lp.col_names):
        if lp.obj[k] != 0.0:
            lines.append(f"    {cname:<12}  {_OBJ_ROW:<12}  {_fmt(lp.obj[k])}")
        for rname, v in by_col[k]:
            lines.append(f"    {cname:<12}  {rname:<12}  {_fmt(v)}")

    lines.append("RHS")
    for r, b in enumerate(lp.rhs):
        if b != 0.0:
            lines.append(f"    RHS           {lp.row_names[r]:<12}  {_fmt(b)}")

    lines.append("BOUNDS")
    for k, cname in enumerate(lp.col_names):
        if lp.lb[k] != 0.0:
            lines.append(f" LO BND           {cname:<12}  {_fmt(lp.lb[k])}")
        if np.isfinite(lp.ub[k]):
            lines.append(f" UP BND           {cname:<12}  {_fmt(lp.ub[k])}")

    lines.append("ENDATA")
    Path(path).write_text("\n".join(lines) + "\n")


def read_mps(path) -> StandardFormLP:
    """Parse a file produced by :func:`write_mps` back into a StandardFormLP.

    Every row must be ``L`` (``<=``), as written; any other sense is an error.
    """
    row_names: list[str] = []
    row_index: dict[str, int] = {}
    col_names: list[str] = []
    col_index: dict[str, int] = {}
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    obj_entries: dict[int, float] = {}
    rhs_entries: dict[int, float] = {}
    lo: dict[int, float] = {}
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
            row_index[rname] = len(row_names)
            row_names.append(rname)
        elif section == "COLUMNS":
            cname, rname, value = fields
            if cname not in col_index:
                col_index[cname] = len(col_names)
                col_names.append(cname)
            k = col_index[cname]
            if rname == _OBJ_ROW:
                obj_entries[k] = float(value)
            else:
                rows.append(row_index[rname])
                cols.append(k)
                vals.append(float(value))
        elif section == "RHS":
            _, rname, value = fields
            rhs_entries[row_index[rname]] = float(value)
        elif section == "BOUNDS":
            btype, _, cname, value = fields
            k = col_index[cname]
            if btype == "LO":
                lo[k] = float(value)
            elif btype == "UP":
                up[k] = float(value)
            else:
                raise ValueError(f"unsupported bound type: {btype}")
        elif section in ("NAME", "ENDATA"):
            continue
        else:
            raise ValueError(f"unexpected MPS section: {section}")

    n_rows, n_cols = len(row_names), len(col_names)
    rhs = np.zeros(n_rows)
    for r, v in rhs_entries.items():
        rhs[r] = v
    obj = np.zeros(n_cols)
    for k, v in obj_entries.items():
        obj[k] = v
    lb = np.zeros(n_cols)
    ub = np.full(n_cols, np.inf)
    for k, v in lo.items():
        lb[k] = v
    for k, v in up.items():
        ub[k] = v

    kinds = [_kind_from_name(name) for name in col_names]
    n = sum(kind[0] == "c" for kind in kinds)
    lp = StandardFormLP(
        n_rows=n_rows,
        n_cols=n_cols,
        rows=np.array(rows, dtype=int),
        cols=np.array(cols, dtype=int),
        vals=np.array(vals, dtype=float),
        rhs=rhs,
        lb=lb,
        ub=ub,
        obj=obj,
        n_locations=n,
        n_slots=(n_rows - 1) // (2 * n) if n else 0,
        cells=np.array([kind[1:] for kind in kinds[n:]], dtype=int).reshape(-1, 3),
    )
    if lp.col_names != col_names or lp.row_names != row_names:
        raise ValueError("row or column names do not follow the chargeplan LP layout")
    return lp
