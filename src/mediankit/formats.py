"""JSON formats for every payload type, plus DOT export.

Rationals travel as strings ("3", "5/2"); floats are rejected in metric
input.  Interval keys are "x,y", so point ids there must not contain
commas.  Every report and JSON artifact has the bytes of
``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, so outputs
are byte-stable for golden tests.  Graph files are written by
``graph_text`` from the graph's edge record, two sorted index arrays
(:class:`graphs.SimpleGraph`), with each vertex id encoded once; every
other report and artifact is written by ``dumps``.  Every output file
goes through ``write_text``, which writes the UTF-8 bytes in place and
then cuts a longer regular file to their length (a pipe, tty or
``/dev/null`` is not cut); a write that fails part way leaves the new
bytes followed by the old tail, and a crash may leave old blocks in a
file of the new length.  Files are read by ``load_json``.  The two turn an
unwritable path, an unreadable or non-UTF-8 file and bad JSON into
``InputError``, and an integer literal or a nesting past the decoder's
limits into ``ResourceLimitError``; ``load_json`` reads each file once, keeps the
digest of its bytes, and decodes them once into the text that text mode
yields (UTF-8, universal newlines).
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _str
from pathlib import Path

import numpy as np

from .algebra import IntervalStructure
from .convexity import PointCloud
from .errors import InputError, ResourceLimitError
from .graphs import CubeComplex, MedianGraphCert, SimpleGraph
from .metric import FiniteMetric
from .walls import WallSpace


_INF = float("inf")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _scalars(items, kinds: set) -> list[str] | None:
    """The encodings of ``items`` when ``kinds``, their exact types, is
    ``{str}``, ``{int}``, or ``{float}`` with no nan or inf; else None."""
    if len(kinds) != 1:
        return None
    kind = next(iter(kinds))
    if kind is str:
        return list(map(_str, items))
    if kind is int:
        return list(map(int.__repr__, items))
    if kind is float:
        out = list(map(float.__repr__, items))
        if "nan" not in out and "inf" not in out and "-inf" not in out:
            return out
    return None


def _encode(o, level: int) -> str:
    if isinstance(o, str):
        return _str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, (list, tuple)) or type(o) is NumberRow:
        return _array(o, level)
    if isinstance(o, dict):
        return _object(o, level)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _rows(rows, pad: str) -> str | None:
    """Rows of one width and one scalar type (edges, cubes, witnesses),
    filled into one %-template; None for any other list of lists."""
    widths = set(map(len, rows))
    if len(widths) != 1 or widths == {0}:
        return None
    flat = list(chain.from_iterable(rows))
    cells = _scalars(flat, set(map(type, flat)))
    if cells is None:
        return None
    inner = pad + "  "
    row = "[" + inner + ("," + inner).join(["%s"] * len(rows[0])) + pad + "]"
    return ("," + pad).join([row] * len(rows)) % tuple(cells)


def _array(items, level: int) -> str:
    """A list or tuple, or a :class:`NumberRow`, whose texts are its cells."""
    if type(items) is NumberRow:
        items = cells = items.texts
    else:
        kinds = set(map(type, items))
        cells = _scalars(items, kinds)
    if not items:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    sep = "," + pad
    if cells is not None:
        body = sep.join(cells)
    else:
        body = _rows(items, pad) if kinds <= {list, tuple} else None
        if body is None:
            body = sep.join([_encode(x, level + 1) for x in items])
    return "[" + pad + body + "\n" + "  " * level + "]"


def _object(dct: dict, level: int) -> str:
    if not dct:
        return "{}"
    pad = "\n" + "  " * (level + 1)
    parts = []
    for key, value in sorted(dct.items()):
        if isinstance(key, str):
            pass
        elif isinstance(key, float):
            key = _float(key)
        elif key is True:
            key = "true"
        elif key is False:
            key = "false"
        elif key is None:
            key = "null"
        elif isinstance(key, int):
            key = int.__repr__(key)
        else:
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        parts.append(_str(key) + ": " + _encode(value, level + 1))
    return "{" + pad + ("," + pad).join(parts) + "\n" + "  " * level + "}"


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    Scalars go through json's own string encoder and ``repr``; a list of
    one exact scalar type, or of equal-width rows of one, is written with
    one join.  A :class:`NumberRow`, a row of number texts, is written as
    its texts are, which is what json writes for the floats they are the
    ``repr`` of.  Other values take json's per-item order, so a value or
    key json cannot serialize raises json's ``TypeError``.  A container
    that holds itself is not detected and ends in ``RecursionError``.
    """
    return _encode(obj, 0) + "\n"


class NumberRow:
    """A row of finite floats for :func:`dumps`, held as the texts
    :func:`number_texts` gives them."""

    __slots__ = ("texts",)

    def __init__(self, texts: list[str]):
        self.texts = texts


def _exponent_text(t: str) -> str:
    """repr(float(t)) for a ``.12g`` text t with an exponent: repr writes
    exponents 12 to 15 in positional notation, and a subnormal (exponent
    below -307, a harmless superset) may read back to fewer digits."""
    exponent = int(t[t.index("e") + 1:])
    return repr(float(t)) if 12 <= exponent <= 15 or exponent < -307 else t


def number_texts(values: list[float]) -> list[str]:
    """``repr(float(format(x, ".12g")))`` for each finite float x, with no
    round trip where the two agree: the ``.12g`` text itself, with ".0"
    appended when it has neither "." nor "e"; only texts of decimal
    exponent 12 to 15 or below -307 are read back and written by
    ``repr``."""
    texts = ["%.12g" % x for x in values]
    return [(t if "." in t else t + ".0") if "e" not in t else _exponent_text(t)
            for t in texts]


def number_rows(values: np.ndarray) -> list[NumberRow]:
    """The rows of a 2-d array of finite floats, each value at 12
    significant digits (:func:`number_texts`)."""
    n, width = values.shape
    texts = number_texts(values.ravel().tolist())
    return [NumberRow(texts[k * width:(k + 1) * width]) for k in range(n)]


def write_text(path: str | Path, text: str) -> None:
    """Write an output file as UTF-8, in place: the bytes go over what the
    file holds, and a regular file that was longer is then cut to their
    length.  Emptying the file as it is opened costs far more when it
    already holds data, since ext4 then allocates the blocks and starts
    writeback at close.  An existing file keeps its inode, mode and links;
    a pipe, tty or ``/dev/null`` is written and not cut.  The write is not
    atomic: one that fails part way leaves the new bytes followed by the
    old tail.  Nor is it durable across a crash: after a power loss an
    overwritten file may hold the new length with some of its old blocks,
    where a file emptied on open came back new or empty.  A path that
    cannot be written, a NUL byte in it included, and a text that cannot
    be encoded, which fails before the file is opened, are input errors
    (exit 2), not tracebacks."""
    try:
        data = text.encode("utf-8")
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
            st = os.fstat(f.fileno())
            f.write(data)
            if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
                f.truncate(len(data))
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


class Document(dict):
    """A JSON object read by :func:`load_json`, with ``digest``, the SHA-256
    hex digest of the bytes it was parsed from."""

    __slots__ = ("digest",)


def load_json(path: str | Path) -> Document:
    r"""The JSON object in a file, read once.  The bytes are hashed and
    decoded once as UTF-8, and ``\r\n`` and ``\r`` become ``\n`` when
    the text holds a ``\r``: that is the text that text mode yields, so a
    BOM is kept, and json rejects it.  A path that cannot be opened, a NUL
    byte in it included, is an input error.  An integer literal past Python's
    limit on int-to-string conversion and nesting past the recursion
    limit are resource errors, capped at that limit."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None
    except (OSError, ValueError) as exc:    # ValueError: a NUL byte in the path
        raise InputError(f"cannot read {path}: {exc}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except ValueError:      # the decoder's one other error: a long integer literal
        limit = sys.get_int_max_str_digits()
        raise ResourceLimitError(
            f"{path}: a JSON integer has more than {limit} digits, "
            "Python's limit on string-to-int conversion", cap=limit) from None
    except RecursionError:
        limit = sys.getrecursionlimit()
        raise ResourceLimitError(
            f"{path}: JSON nested deeper than the decoder can recurse "
            f"(recursion limit {limit})", cap=limit) from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object at top level")
    doc = Document(data)
    doc.digest = hashlib.sha256(raw).hexdigest()
    return doc


def rational_str(value: Fraction | int) -> str:
    """"p/q" or "p"; a numerator or denominator past Python's limit on
    int-to-string conversion (``sys.get_int_max_str_digits``, 4300 digits
    by default) is a resource error, and the limit is left as it is."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ResourceLimitError(
            f"a rational in the report has more than {limit} digits, "
            "Python's limit on int-to-string conversion", cap=limit) from None


_SCALARS = (str, int, float, bool, type(None))


def _keys(data, what: str, *keys: str) -> list:
    """The values of the required ``keys`` of a payload, in order; a
    payload that is not a JSON object, or lacks a key, is an input
    error."""
    if not isinstance(data, dict):
        raise InputError(f"{what} JSON must be an object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise InputError(f"{what} JSON missing key {key!r}")
    return [data[key] for key in keys]


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


def _point_ids(value, what: str) -> list:
    """The ids of a metric, graph or wall space.  Reports key points by
    ``str``, so two distinct ids with one string form (1 and "1") are an
    input error; ids that repeat exactly are left to the constructor's
    duplicate check."""
    ids = _ids(value, what)
    if len(set(ids)) == len(ids):
        names: dict[str, object] = {}
        for p in ids:
            q = names.setdefault(str(p), p)
            if q is not p:
                raise InputError(f"{what}: ids {q!r} and {p!r} have the same "
                                 f"string form {str(p)!r}")
    return ids


# -- interval structures ----------------------------------------------

def interval_structure_from_json(data: dict) -> IntervalStructure:
    points, raw = _keys(data, "interval structure", "points", "intervals")
    for p in _list(points, "interval structure 'points'"):
        if not isinstance(p, str) or "," in p:
            raise InputError(f"point ids must be comma-free strings, got {p!r}")
    if not isinstance(raw, dict):
        raise InputError(f"interval structure 'intervals' must be an object, got {raw!r}")
    table = {}
    for key, members in raw.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise InputError(f"interval key {key!r} is not of the form 'x,y'")
        table[(parts[0], parts[1])] = _list(members, f"interval {key!r}")
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
    points, rows = _keys(data, "metric", "points", "dist")
    _point_ids(points, "metric points")
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
    vertices, edges = _keys(data, "graph", "vertices", "edges")
    _point_ids(vertices, "graph vertices")
    # The edge lists go to the constructor as they are: a JSON value that
    # is not a scalar is unhashable, so it fails the constructor's one pass
    # like an unknown vertex.  Only then are the edges scanned in input
    # order, and an edge that is not a list of two JSON scalars is reported
    # before any error of the graph itself.
    error = None
    if set(map(type, _list(edges, "graph edges"))) <= {list}:
        try:
            return SimpleGraph(vertices, edges)
        except InputError as exc:
            error = exc
    for e in edges:
        if len(_ids(e, "an edge")) != 2:
            raise InputError(f"edge {e!r} must have exactly two endpoints")
    raise error


def graph_text(g: SimpleGraph, expected: dict | None = None) -> str:
    """The graph file of ``g``: the object of its ``vertices``, its
    ``edges`` as [u, v] rows in the order of its edge record, and
    ``expected`` when given and nonempty, as ``dumps`` writes it.

    Each vertex id is encoded once, as ``dumps`` encodes it, and the edge
    rows are laid out as one array of strings, each row's two ends taken
    from the record's index arrays and its separators filled in, that is
    joined once; no list of edge pairs is built.  An id that is not a JSON
    scalar (a tuple, from a library caller) is written at the depth
    ``dumps`` gives it in each list."""
    vs = g.vertices
    cells = _scalars(vs, set(map(type, vs)))
    if cells is None:       # mixed kinds or containers: one encoding per depth
        cells = [_encode(v, 2) for v in vs]
        ends = np.array([_encode(v, 3) for v in vs], dtype=object)
    else:
        ends = np.array(cells, dtype=object)
    edges = "[]"
    if len(g.edge_src):
        rows = np.empty((len(g.edge_src), 4), dtype=object)
        rows[:, 0] = ends[g.edge_src]
        rows[:, 1] = ",\n      "
        rows[:, 2] = ends[g.edge_dst]
        rows[:, 3] = "\n    ],\n    [\n      "
        rows[-1, 3] = "\n    ]\n  ]"
        edges = "[\n    [\n      " + "".join(rows.ravel().tolist())
    parts = ['"edges": ' + edges]
    if expected:
        parts.append('"expected": ' + _encode(expected, 1))
    parts.append('"vertices": [\n    ' + ",\n    ".join(cells) + "\n  ]")
    return "{\n  " + ",\n  ".join(parts) + "\n}\n"


# -- wall spaces ---------------------------------------------------------

def walls_from_json(data: dict) -> WallSpace:
    points, walls = _keys(data, "wall-space", "points", "walls")
    _point_ids(points, "wall-space points")
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
    points, = _keys(data, "point-cloud", "points")
    norm = data.get("norm", "euclidean")
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
    generators, basepoint = _keys(data, "action", "generators", "basepoint")
    if not isinstance(generators, dict) or not generators:
        raise InputError("action JSON needs a nonempty 'generators' object")
    for name, mapping in generators.items():
        if not isinstance(mapping, dict):
            raise InputError(f"generator {name!r} must be an object mapping points to points")
        _ids(list(mapping.values()), f"generator {name!r}")
    _ids([basepoint], "action basepoint")
    return generators, basepoint


def generators_on(generators: dict, points: list) -> dict:
    """The generators of :func:`action_from_json` keyed by points: JSON
    object keys are strings, so each key is read as the point with that
    string form (unique by :func:`_point_ids`); a key naming no point is
    kept as it is."""
    named = {str(p): p for p in points}
    return {name: {named.get(k, k): v for k, v in mapping.items()}
            for name, mapping in generators.items()}


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


def _dot_id(v) -> str:
    """A vertex id as a quoted DOT identifier: ``str(v)`` with each
    backslash and double quote escaped by a backslash."""
    return '"' + str(v).replace("\\", "\\\\").replace('"', '\\"') + '"'


# the end of an edge statement: coloured by wall k at entry k % len(_PALETTE), plain at the last
_EDGE_ENDS = np.array([f' [color="{paint}"];\n' for paint in _PALETTE] + [";\n"], dtype=object)


def dot_export(g: SimpleGraph, cert: MedianGraphCert | None = None) -> str:
    """Graphviz text (graph/node/edge statements only); with a certificate,
    edges are colored by the wall they cross: an edge whose ends' codes
    (their rows of the certificate's wall record, matched by vertex id)
    differ in exactly one bit crosses that bit's wall, since by the lemma
    at :class:`graphs.MedianGraphCert` such a pair is a certificate edge.

    Each vertex id is encoded once, and the edge statements are laid out
    as one array of strings, each row's ends taken from the graph's edge
    record, that is joined once."""
    ids = [_dot_id(v) for v in g.vertices]
    src, dst = g.edge_src, g.edge_dst
    paint = np.full(len(src), len(_PALETTE))
    if cert is not None and len(src):
        codes = cert.codes.bits[list(map(cert.graph.index, g.vertices))]
        crossed = codes[src] ^ codes[dst]
        one = crossed.sum(axis=1) == 1
        paint[one] = crossed[one].argmax(axis=1) % len(_PALETTE)
    starts = np.array([f"  {v} -- " for v in ids], dtype=object)
    rows = np.column_stack((starts[src], np.array(ids, dtype=object)[dst], _EDGE_ENDS[paint]))
    nodes = "".join(f"  {v};\n" for v in ids)
    return "graph G {\n" + nodes + "".join(rows.ravel().tolist()) + "}\n"
