"""JSON and CSV writing for every result file; instance and solution documents.

Instance documents carry the version tag ``charge-plan-instance/1`` and name
fields exactly as on :class:`~chargeplan.model.PlanningInstance`.  Matrices
are row-major nested arrays; forbidden assignment-cost cells are written as
the string ``"forbidden"``.  Solution documents (``charge-plan-solution/1``)
store assignments sparsely as (t, i, j, value) triplets, leave out the
``timings`` entry of a solution's ``stats``, where solvers put every
wall-clock timing (so reruns write the same bytes), and embed a
checksum of the instance file: :func:`load_solution`, given the instance
file's checksum, refuses a solution made from another file.  A solution is
read against its instance: the triplets map onto the instance's range-graph
edges, so a nonzero one on a diagonal or out-of-range pair is an error.
Its ``cost`` block and ``feasibility`` residuals are outputs for people:
reading a solution re-judges the plan it holds, so an edited plan gets the
cost and verdict it earns, not the ones stored next to it.

Every JSON file is read by :func:`read_json` and written by :func:`write_json`
as the text of ``json.dumps`` with an indent of 1, which :func:`dumps` gives,
handing each list of numbers, and each matrix of them, to the C encoder in one
call.  Every result table is written by :func:`write_table`: comma-separated,
LF line ends, cells formatted by the caller.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from contextlib import contextmanager
from io import BytesIO, TextIOWrapper
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .model import (
    FORBIDDEN,
    AssignmentPlan,
    InvestmentPlan,
    PlanningInstance,
    Solution,
    assess,
)

INSTANCE_VERSION = "charge-plan-instance/1"
SOLUTION_VERSION = "charge-plan-solution/1"

_NUMBERS = {int, float}


def dumps(doc) -> str:
    """``doc`` as JSON indented by one space per level: the same text as
    ``json.dumps`` with an indent of 1, written faster.

    That call runs ``json``'s pure-Python encoder over every element.  Here
    a list of numbers, or a non-empty list of non-empty lists of them, is
    written by one compact ``json.dumps`` call, which runs the C encoder and
    formats numbers alike (``repr``, ``NaN``, ``Infinity``), and then laid
    out by replacing its separators, which no number contains.  Dicts with
    string keys and other lists are written item by item, strings, numbers,
    ``null`` and booleans directly; anything else (a non-string key, a numpy
    scalar, a tuple) goes to ``json.dumps`` itself and is re-indented, which
    is safe because JSON text holds a newline only between tokens.
    """
    return _dumps(doc, "\n")


def _dumps(node, pad: str) -> str:
    """:func:`dumps` of ``node``, whose closing bracket goes after ``pad``,
    a newline and the indentation of the line ``node`` starts on."""
    kind = type(node)
    inner = pad + " "
    if kind is list and node:
        kinds = set(map(type, node))
        if kinds <= _NUMBERS:
            return "[" + inner + json.dumps(node)[1:-1].replace(", ", "," + inner) + pad + "]"
        if (kinds == {list} and all(node)
                and set(map(type, itertools.chain.from_iterable(node))) <= _NUMBERS):
            deeper = inner + " "
            rows = (json.dumps(node)[2:-2].replace("], [", inner + "]," + inner + "[" + deeper)
                    .replace(", ", "," + deeper))
            return "[" + inner + "[" + deeper + rows + inner + "]" + pad + "]"
        return "[" + inner + ("," + inner).join(_dumps(v, inner) for v in node) + pad + "]"
    if kind is dict and node and all(type(k) is str for k in node):
        return "{" + inner + ("," + inner).join(
            _quote(k) + ": " + _dumps(v, inner) for k, v in node.items()) + pad + "}"
    if kind is str:
        return _quote(node)
    if kind in _NUMBERS or kind is bool or node is None:
        return json.dumps(node)
    return json.dumps(node, indent=1).replace("\n", pad)


def read_json(path) -> tuple[object, str]:
    """The JSON document in file ``path``, read past a byte-order mark with line
    ends translated as ``Path.read_text`` does (so a JSON error names the same
    position), and the sha256 checksum of the very bytes decoded."""
    data = Path(path).read_bytes()
    try:
        doc = json.loads(TextIOWrapper(BytesIO(data), encoding="utf-8-sig").read())
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise ValueError(f"{path} is not a UTF-8 JSON file: {exc}") from exc
    return doc, hashlib.sha256(data).hexdigest()


def write_json(doc, path) -> None:
    """Write ``doc`` to file ``path`` as the text of :func:`dumps`."""
    Path(path).write_text(dumps(doc))


def write_table(path, header, rows) -> None:
    """Write ``header``, then each of ``rows``, to file ``path`` as a
    comma-separated table with LF line ends."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def instance_to_dict(instance: PlanningInstance) -> dict:
    cost_rows = []
    for row in instance.assign_cost:
        cost_rows.append(
            ["forbidden" if math.isinf(v) else v for v in row.tolist()]
        )
    doc = {
        "version": INSTANCE_VERSION,
        "n_locations": instance.n_locations,
        "n_slots": instance.n_slots,
        "flow": instance.flow.tolist(),
        "alpha": instance.alpha.tolist(),
        "beta": instance.beta,
        "assign_cost": cost_rows,
        "delay": instance.delay.tolist(),
        "base_cost": instance.base_cost,
        "location_cost": instance.location_cost.tolist(),
        "budget": instance.budget,
        "capacity_max": instance.capacity_max.tolist(),
        "recurrence": instance.recurrence.tolist(),
        "range_limit": instance.range_limit,
    }
    if instance.distance is not None:
        doc["distance"] = instance.distance.tolist()
    if instance.coordinates is not None:
        doc["coordinates"] = instance.coordinates.tolist()
    return doc


@contextmanager
def _reading(doc, kind: str, version: str):
    """Check a document's root and version, then turn a missing field or a
    value of the wrong JSON type into ``ValueError``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} document must be a JSON object, got {type(doc).__name__}")
    if doc.get("version") != version:
        raise ValueError(f"unsupported {kind} version: {doc.get('version')!r}")
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{kind} document has no field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed {kind} document: {exc}") from exc


def _numbers(value, name: str, ndim: int = 0) -> np.ndarray:
    """``value``, a JSON number or lists of them ``ndim`` deep, as a float
    array.  A string, boolean or null entry is an error, where ``float()``
    would read ``"1"`` and ``true`` as 1.0."""
    error = ValueError(f"{name} must be " + (
        "a number" if ndim == 0 else f"a {ndim}-d array of numbers"))
    leaves = [value]
    for _ in range(ndim):
        if not all(isinstance(v, list) for v in leaves):
            raise error
        leaves = list(itertools.chain.from_iterable(leaves))
    kinds = set(map(type, leaves))
    if bool in kinds or not all(issubclass(k, (int, float, np.number)) for k in kinds):
        raise error
    try:
        return np.array(value, dtype=float)
    except ValueError:  # ragged
        raise error from None


def _object(value, name: str) -> dict:
    """``value``, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {type(value).__name__}")
    return value


def _whole(value, name: str, ndim: int = 0) -> np.ndarray:
    """``value`` as an ``ndim``-dimensional int array, read by :func:`_numbers`
    unless it is an array already.  A fractional or non-finite entry is an
    error, where ``astype(int)`` would truncate it."""
    arr = value if isinstance(value, np.ndarray) else _numbers(value, name, ndim)
    if arr.ndim != ndim or not np.all(np.isfinite(arr) & (arr == np.trunc(arr))):
        shape = "a whole number" if ndim == 0 else f"a {ndim}-d array of whole numbers"
        raise ValueError(f"{name} must be {shape}")
    return arr.astype(int)


def instance_from_dict(doc: dict) -> PlanningInstance:
    with _reading(doc, "instance", INSTANCE_VERSION):
        cost = [[FORBIDDEN if v == "forbidden" else v for v in row]
                for row in doc["assign_cost"]]

        def optional(field):
            return _numbers(doc[field], field, ndim=2) if field in doc else None

        return PlanningInstance(
            n_locations=int(_whole(doc["n_locations"], "n_locations")),
            n_slots=int(_whole(doc["n_slots"], "n_slots")),
            flow=_numbers(doc["flow"], "flow", ndim=2),
            alpha=_numbers(doc["alpha"], "alpha", ndim=2),
            beta=float(_numbers(doc["beta"], "beta")),
            assign_cost=_numbers(cost, "assign_cost", ndim=2),
            delay=_whole(doc["delay"], "delay", ndim=2),
            base_cost=float(_numbers(doc["base_cost"], "base_cost")),
            location_cost=_numbers(doc["location_cost"], "location_cost", ndim=1),
            budget=float(_numbers(doc["budget"], "budget")),
            capacity_max=_numbers(doc["capacity_max"], "capacity_max", ndim=1),
            recurrence=_numbers(doc["recurrence"], "recurrence", ndim=1),
            range_limit=float(_numbers(doc["range_limit"], "range_limit")),
            distance=optional("distance"),
            coordinates=optional("coordinates"),
        )


def save_instance(instance: PlanningInstance, path) -> None:
    write_json(instance_to_dict(instance), path)


def read_instance(path) -> tuple[PlanningInstance, str]:
    """The instance in file ``path`` and the checksum :func:`read_json` gives."""
    doc, checksum = read_json(path)
    return instance_from_dict(doc), checksum


def load_instance(path) -> PlanningInstance:
    return read_instance(path)[0]


def file_checksum(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def solution_to_dict(solution: Solution, instance_checksum: str | None = None) -> dict:
    """``solution`` as a document: its nonzero plan entries as (t, i, j, value)
    triplets, slot-major, then origin-major, and its stats less their
    ``timings`` entry, the one key solvers put wall-clock timings under; every
    other key is written whatever its name."""
    graph, z = solution.assignment.graph, solution.assignment.z
    ts, es = np.nonzero(z)
    triplets = list(map(list, zip(ts.tolist(), graph.src[es].tolist(),
                                  graph.dst[es].tolist(), z[ts, es].tolist())))
    return {
        "version": SOLUTION_VERSION,
        "capacity": solution.investment.capacity.tolist(),
        "assignments": triplets,
        "n_slots": int(z.shape[0]),
        "n_locations": graph.n_locations,
        "cost": {
            "investment": solution.cost.investment,
            "assignment": solution.cost.assignment,
            "total": solution.cost.total,
        },
        "feasibility": {
            "tol": solution.feasibility.tol,
            "feasible": solution.feasibility.feasible,
            "residuals": {
                name: {"violation": r.violation, "where": list(r.where) if r.where else None}
                for name, r in solution.feasibility.residuals.items()
            },
        },
        "stats": {k: v for k, v in solution.stats.items() if k != "timings"},
        "instance_checksum": instance_checksum,
    }


def solution_from_dict(doc: dict, instance: PlanningInstance) -> Solution:
    """Read a solution document for ``instance`` and judge its plan there.
    The document's counts must be the instance's, every triplet must index a
    cell of the plan that no other triplet names, and a nonzero one must sit
    on an edge of the instance's range graph.  Cost and feasibility come from
    :func:`~chargeplan.model.assess` at the stored ``feasibility.tol``, a
    finite number >= 0; the stored ``cost`` and residuals are not read."""
    with _reading(doc, "solution", SOLUTION_VERSION):
        n = int(_whole(doc["n_locations"], "n_locations"))
        T = int(_whole(doc["n_slots"], "n_slots"))
        if (T, n) != (instance.n_slots, instance.n_locations):
            raise ValueError(f"solution is for {T} slots x {n} locations, the "
                             f"instance has {instance.n_slots} x {instance.n_locations}")
        triplets = _numbers(doc["assignments"], "assignments", ndim=2)
        if triplets.size and (triplets.ndim != 2 or triplets.shape[1] != 4):
            raise ValueError("assignments must be (t, i, j, value) triplets")
        triplets = triplets.reshape(-1, 4)
        cells = _whole(triplets[:, :3], "assignment indices", ndim=2)
        if np.any((cells < 0) | (cells >= (T, n, n))):
            raise ValueError(f"assignment index outside the {T} x {n} x {n} plan")
        _, first, count = np.unique(np.ravel_multi_index(cells.T, (T, n, n)),
                                    return_index=True, return_counts=True)
        if np.any(count > 1):
            t, i, j = cells[first[np.argmax(count > 1)]].tolist()
            raise ValueError(f"assignment ({t}, {i}, {j}) is given twice")
        graph = instance.range_graph
        edge_of = np.full((n, n), -1)
        edge_of[graph.src, graph.dst] = np.arange(graph.n_edges)
        edges = edge_of[cells[:, 1], cells[:, 2]]
        off = (edges < 0) & (triplets[:, 3] != 0)
        if off.any():
            t, i, j = cells[np.argmax(off)].tolist()
            raise ValueError(f"assignment ({t}, {i}, {j}) is on a diagonal or "
                             "out-of-range pair")
        on = edges >= 0
        z = np.zeros((T, graph.n_edges))
        z[cells[on, 0], edges[on]] = triplets[on, 3]
        capacity = _numbers(doc["capacity"], "capacity", ndim=1)
        if capacity.shape != (n,):
            raise ValueError(f"capacity must have {n} entries, got shape {capacity.shape}")
        tol = float(_numbers(_object(doc["feasibility"], "feasibility")["tol"], "feasibility.tol"))
        if not 0 <= tol < math.inf:
            raise ValueError(f"feasibility.tol must be a finite number >= 0, got {tol!r}")
        return assess(instance, InvestmentPlan(capacity), AssignmentPlan(graph, z), tol,
                      dict(_object(doc.get("stats", {}), "stats")))


def save_solution(solution: Solution, path, instance_checksum: str | None = None) -> None:
    write_json(solution_to_dict(solution, instance_checksum), path)


def load_solution(path, instance: PlanningInstance,
                  instance_checksum: str | None = None) -> Solution:
    """:func:`solution_from_dict` of file ``path``; given the instance file's
    checksum, a solution that stores a different one is refused."""
    doc = read_json(path)[0]
    solution = solution_from_dict(doc, instance)
    stored = doc.get("instance_checksum")
    if instance_checksum is not None and stored is not None and stored != instance_checksum:
        raise ValueError("solution was produced from a different instance file")
    return solution
