"""JSON formats for every payload type, plus DOT export.

Rationals travel as strings ("3", "5/2"); floats are rejected in metric
input.  Interval keys are "x,y", so point ids there must not contain
commas.  All emitters sort keys and end with a newline, keeping outputs
byte-stable for golden tests.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from .algebra import IntervalStructure
from .convexity import PointCloud
from .errors import InputError, ResourceLimitError
from .graphs import CubeComplex, MedianGraphCert, SimpleGraph
from .metric import FiniteMetric
from .walls import WallSpace


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object at top level")
    return data


def rational_str(value: Fraction) -> str:
    """"p/q" or "p"; a numerator or denominator past Python's limit on
    int-to-string conversion (``sys.get_int_max_str_digits``, 4300 digits
    by default) is a resource error, and the limit is left as it is."""
    try:
        return str(Fraction(value))
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ResourceLimitError(
            f"a rational in the report has more than {limit} digits, "
            "Python's limit on int-to-string conversion", cap=limit) from None


_SCALARS = (str, int, float, bool, type(None))


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, got {value!r}")
    return value


def _ids(value, what: str) -> list:
    """A list of point or vertex ids; an id must be a JSON scalar."""
    for p in _list(value, what):
        if not isinstance(p, _SCALARS):
            raise InputError(f"{what}: id {p!r} is not a JSON scalar")
    return value


# -- interval structures ----------------------------------------------

def interval_structure_from_json(data: dict) -> IntervalStructure:
    try:
        points = list(data["points"])
        raw = data["intervals"]
    except KeyError as exc:
        raise InputError(f"interval structure JSON missing key {exc}") from None
    for p in points:
        if not isinstance(p, str) or "," in p:
            raise InputError(f"point ids must be comma-free strings, got {p!r}")
    table = {}
    for key, members in raw.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise InputError(f"interval key {key!r} is not of the form 'x,y'")
        table[(parts[0], parts[1])] = members
    return IntervalStructure(points, table)


def interval_structure_to_json(s: IntervalStructure, expected: dict | None = None) -> dict:
    out = {
        "points": list(s.points),
        "intervals": {f"{x},{y}": sorted(s.interval(x, y))
                      for x in s.points for y in s.points},
    }
    if expected:
        out["expected"] = expected
    return out


# -- metrics -----------------------------------------------------------

def metric_from_json(data: dict) -> FiniteMetric:
    try:
        points, rows = data["points"], data["dist"]
    except KeyError as exc:
        raise InputError(f"metric JSON missing key {exc}") from None
    _ids(points, "metric points")
    for row in _list(rows, "metric 'dist'"):
        _list(row, "a 'dist' row")
    if len(rows) == len(points) and all(len(r) == len(points) for r in rows):
        return FiniteMetric(points, rows)
    return FiniteMetric.from_upper_triangle(points, rows)


def metric_to_json(m: FiniteMetric, expected: dict | None = None) -> dict:
    out = {
        "points": list(m.points),
        "dist": [[rational_str(v) for v in row] for row in m.upper_triangle()],
    }
    if expected:
        out["expected"] = expected
    return out


# -- graphs ------------------------------------------------------------

def graph_from_json(data: dict) -> SimpleGraph:
    try:
        vertices, edges = data["vertices"], data["edges"]
    except KeyError as exc:
        raise InputError(f"graph JSON missing key {exc}") from None
    _ids(vertices, "graph vertices")
    for e in _list(edges, "graph edges"):
        if len(_ids(e, "an edge")) != 2:
            raise InputError(f"edge {e!r} must have exactly two endpoints")
    return SimpleGraph(vertices, [tuple(e) for e in edges])


def graph_to_json(g: SimpleGraph, expected: dict | None = None) -> dict:
    out = {"vertices": list(g.vertices),
           "edges": [[u, v] for u, v in g.edges]}
    if expected:
        out["expected"] = expected
    return out


# -- wall spaces ---------------------------------------------------------

def walls_from_json(data: dict) -> WallSpace:
    try:
        points, walls = data["points"], data["walls"]
    except KeyError as exc:
        raise InputError(f"wall-space JSON missing key {exc}") from None
    _ids(points, "wall-space points")
    pairs = []
    for w in _list(walls, "wall-space 'walls'"):
        if len(_list(w, "a wall")) != 2:
            raise InputError(f"wall {w!r} must list exactly two sides")
        pairs.append((_ids(w[0], "a wall side"), _ids(w[1], "a wall side")))
    return WallSpace(points, pairs, warn_missing_trivial=True)


def walls_to_json(w: WallSpace, expected: dict | None = None) -> dict:
    walls = [[[], list(w.points)]]      # the trivial wall, explicitly
    for k in range(w.wall_count):
        a, b = w.wall_sides(k)
        walls.append([sorted(a, key=w.index), sorted(b, key=w.index)])
    out = {"points": list(w.points), "walls": walls}
    if expected:
        out["expected"] = expected
    return out


# -- point clouds ---------------------------------------------------------

def cloud_from_json(data: dict) -> PointCloud:
    try:
        points = data["points"]
        norm = data.get("norm", "euclidean")
    except KeyError as exc:
        raise InputError(f"point-cloud JSON missing key {exc}") from None
    if not isinstance(points, list) or not points:
        raise InputError("point-cloud 'points' must be a nonempty list of coordinate lists")
    for p in points:
        if not isinstance(p, list) or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in p):
            raise InputError(f"point {p!r} is not a list of numbers")
        if len(p) != len(points[0]):
            raise InputError(f"point {p!r} has {len(p)} coordinates, "
                             f"the first point has {len(points[0])}")
    return PointCloud.build(points, norm)


# -- cube complexes ---------------------------------------------------------

def cube_complex_to_json(cc: CubeComplex) -> dict:
    return {"cubes": {str(k): [sorted(map(str, cube)) for cube in cubes]
                      for k, cubes in sorted(cc.cubes.items())}}


# -- actions ------------------------------------------------------------

def action_from_json(data: dict) -> tuple[dict, object]:
    try:
        generators = data["generators"]
        basepoint = data["basepoint"]
    except KeyError as exc:
        raise InputError(f"action JSON missing key {exc}") from None
    if not isinstance(generators, dict) or not generators:
        raise InputError("action JSON needs a nonempty 'generators' object")
    for name, mapping in generators.items():
        if not isinstance(mapping, dict):
            raise InputError(f"generator {name!r} must be an object mapping points to points")
        _ids(list(mapping.values()), f"generator {name!r}")
    _ids([basepoint], "action basepoint")
    return generators, basepoint


# -- payload dispatch -----------------------------------------------------

def detect_payload(data: dict) -> str:
    if "intervals" in data:
        return "intervals"
    if "dist" in data:
        return "metric"
    if "walls" in data:
        return "walls"
    if "edges" in data and "vertices" in data:
        return "graph"
    if "generators" in data:
        return "action"
    if "points" in data and "norm" in data:
        return "cloud"
    raise InputError("cannot recognize the payload type from its keys")


_PALETTE = ("#1b6ca8", "#c23b22", "#2e8b57", "#b8860b", "#6a3d9a", "#107896",
            "#a0522d", "#e75480", "#556b2f", "#483d8b", "#8b0000", "#008080")


def dot_export(g: SimpleGraph, cert: MedianGraphCert | None = None) -> str:
    """Graphviz text (graph/node/edge statements only); with a certificate,
    edges are colored by the wall they cross."""
    colour: dict[tuple, str] = {}
    if cert is not None:
        for k, wall in enumerate(cert.walls):
            for u, v in wall.crossing_edges:
                colour[(u, v)] = _PALETTE[k % len(_PALETTE)]
                colour[(v, u)] = _PALETTE[k % len(_PALETTE)]
    lines = ["graph G {"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for u, v in g.edges:
        paint = colour.get((u, v))
        if paint:
            lines.append(f'  "{u}" -- "{v}" [color="{paint}"];')
        else:
            lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
