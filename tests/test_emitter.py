"""``formats.dumps`` against its oracle, ``json.dumps(indent=2, sort_keys=True)``,
and the graph writer ``formats.graph_text`` against ``dumps`` of the
reference graph object.

Seeded random trees reach every path of the emitter: lists of one exact
scalar type, equal-width rows, and the per-item path for everything else.
The CLI test checks that every JSON file the CLI writes is in the oracle's
own form.  The number writer ``formats.number_texts``, which writes GNS
coordinates, is checked against ``repr(float(format(x, ".12g")))``.
"""

import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_to_json, random_crossing_wall_space
from test_negative_type_digests import generated
from mediankit import InputError, SimpleGraph, cli, cubulate, formats
from mediankit.corpus import default_roster, graph_instances


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


TEXTS = ("", "a", "é", "中文", "\U0001F600", "\x00", "\x1f", "\x7f", "\n\t", '"', "\\",
         "%s", "%", "a,b", " ")
INTS = (0, 1, -1, 7, 2 ** 31, 2 ** 63, 2 ** 64 + 1, -(2 ** 70), 10 ** 30)
FLOATS = (0.0, -0.0, 0.5, -2.5, 1e22, 1e-7, 1 / 3, 1e308, 5e-324, float("nan"),
          float("inf"), float("-inf"))
ATOMS = (True, False, None)


def scalar(rng, kind=None):
    kind = kind or rng.choice(("str", "int", "float", "atom"))
    if kind == "str":
        return "".join(rng.choice(TEXTS) for _ in range(rng.randint(0, 3)))
    if kind == "int":
        return rng.choice(INTS) if rng.random() < 0.5 else rng.randint(-1000, 1000)
    if kind == "float":
        return rng.choice(FLOATS) if rng.random() < 0.3 else rng.uniform(-1e6, 1e6)
    return rng.choice(ATOMS)


def keys(rng, n):
    """Keys json can sort: one kind per dict (str, int, float, bool, or None
    alone), or numbers of every kind together."""
    kind = rng.choice(("str", "int", "float", "bool", "none", "numbers"))
    if kind == "none":
        return [None]
    if kind == "bool":
        return rng.sample([True, False], rng.randint(1, 2))
    if kind == "numbers":
        return [rng.choice((True, 1, 2, 1.5, -0.0, 2 ** 65, float("inf"))) for _ in range(n)]
    return [scalar(rng, kind) for _ in range(n)]


def tree(rng, depth=0):
    roll = rng.random()
    if depth > 3 or roll < 0.25:
        return scalar(rng)
    n = rng.randint(0, 5)
    if roll < 0.4:                       # one exact scalar type
        kind = rng.choice(("str", "int", "float"))
        return [scalar(rng, kind) for _ in range(n)]
    if roll < 0.55:                      # rows: equal width, usually one scalar type
        width, kind = rng.randint(0, 3), rng.choice(("str", "int", "float", None))
        rows = [[scalar(rng, kind) for _ in range(width)] for _ in range(n)]
        if rng.random() < 0.2 and rows:
            rows[rng.randrange(len(rows))].append("ragged")
        return [tuple(r) for r in rows] if rng.random() < 0.2 else rows
    if roll < 0.8:
        items = [tree(rng, depth + 1) for _ in range(n)]
        return tuple(items) if rng.random() < 0.2 else items
    return {k: tree(rng, depth + 1) for k in keys(rng, n)}


def test_dumps_matches_json_on_seeded_random_trees():
    rng = random.Random(20260)
    for _ in range(3000):
        obj = tree(rng)
        assert formats.dumps(obj) == oracle(obj), obj


@pytest.mark.parametrize("obj", [
    {}, [], [[]], [[], []], {"a": {}}, [{}, []], (), [()],
    [True, 1], [1, True], [1, 1.0], [[True, 1], [1, True]],
    [-0.0, 1e22, 2 ** 64 + 1], [float("nan")], [[1.5, float("inf")]],
    {1: "int", 2.5: "float"}, {True: 1}, {None: 0}, {float("nan"): 1},
    [["a", "b"], ["c"]], [["a", 1], ["b", 2]], [("a", "b"), ["c", "d"]],
    [" ", "\ud800", "é\x01\"\\"], "top", 3, 2.5, None, True,
], ids=repr)
def test_dumps_matches_json_on_edge_cases(obj):
    assert formats.dumps(obj) == oracle(obj)


# A bare object's repr holds its memory address, so its case id is spelt out
# to keep the test's name the same from run to run.
@pytest.mark.parametrize("obj", [
    pytest.param(object(), id="object()"),
    [1, "a", {1, 2}], {"a": [b"bytes"]}, [[1, 2], [3, 1j]],
    {1: "int", "a": "str"}, {"a": 1, (1, 2): 2}, [{2: 0, "b": 1}],
], ids=repr)
def test_dumps_raises_what_json_raises(obj):
    with pytest.raises(TypeError) as expected:
        oracle(obj)
    with pytest.raises(TypeError) as got:
        formats.dumps(obj)
    assert str(got.value) == str(expected.value)


def test_every_json_file_the_cli_writes_is_in_the_oracle_form(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert cli.main(["corpus", "--out-dir", str(corpus),
                     "--out", str(tmp_path / "corpus-report.json")]) == 0
    kinds = {inst.name: inst.kind for inst in default_roster()}
    for path in sorted(corpus.iterdir()):
        out = tmp_path / path.stem
        runs = {"graph": [["classify"], ["certify-graph"], ["embed", "--mode", "l1"],
                          ["certify-negdef"], ["fill-cubes", "--out-complex", f"{out}.cubes.json"]],
                "walls": [["cubulate", "--dot", f"{out}.dot"]],
                "intervals": []}[kinds[path.stem]]
        for i, argv in enumerate(runs):
            assert cli.main([*argv, "--in", str(path), "--out", f"{out}.{i}.json"]) in (0, 1)
            if argv[0] == "cubulate":
                assert (tmp_path / f"{path.stem}.dot").read_text().startswith("graph G {")
    capsys.readouterr()
    written = sorted(tmp_path.rglob("*.json"))
    assert len(written) > 100
    for path in written:
        text = path.read_text(encoding="utf-8")
        assert text == oracle(json.loads(text)), path


# ---------------------------------------------------------------- the graph writer

ID_TEXT = st.text(st.sampled_from(["a", "é", "中", "\U0001F600", "\x00", "\x1f", "\x7f",
                                   "\n", '"', "\\", "%", "s", ","]) | st.characters(),
                  max_size=4)
ID_SCALARS = (ID_TEXT | st.integers(-(2 ** 70), 2 ** 70) | st.sampled_from(INTS)
              | st.floats(allow_nan=False) | st.booleans() | st.none())
GRAPH_IDS = {
    "text": ID_TEXT,
    "int": st.integers(-(2 ** 70), 2 ** 70) | st.sampled_from(INTS),
    "float": st.floats(allow_nan=False),
    "mixed": ID_SCALARS,
    "tuple": st.lists(ID_SCALARS, max_size=3).map(tuple),
    "tuple-and-scalar": ID_SCALARS | st.lists(ID_SCALARS, max_size=2).map(tuple),
}


@st.composite
def id_graphs(draw):
    """Distinct ids of one family and the edges of a connected graph on
    them: a random spanning tree, with duplicate edges in either
    orientation, in random order."""
    ids = draw(st.lists(GRAPH_IDS[draw(st.sampled_from(sorted(GRAPH_IDS)))],
                        min_size=1, max_size=12, unique=True))
    n = len(ids)
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    edges = [(ids[j], ids[i]) if draw(st.booleans()) else (ids[i], ids[j]) for i, j in pairs]
    return ids, draw(st.permutations(edges))


NAN = float("nan")      # one object, so that edges can name it
EXPECTED = st.none() | st.just({}) | st.dictionaries(
    st.text(max_size=3), st.integers() | st.text(max_size=3) | st.lists(st.integers(), max_size=2),
    min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(id_graphs(), EXPECTED)
def test_graph_text_is_dumps_of_the_reference_object(graph, expected):
    g = SimpleGraph(*graph)
    want = formats.dumps(graph_to_json(g, expected))
    assert formats.graph_text(g, expected) == want == oracle(graph_to_json(g, expected))


@pytest.mark.parametrize("vertices, edges", [
    (["v"], []),
    ([NAN, float("inf"), -0.0], [(float("inf"), -0.0), (-0.0, float("inf")), (NAN, -0.0)]),
    ([("a", 1), ("b",), "c", ()], [(("a", 1), ("b",)), ("c", ("b",)), ((), "c")]),
    ([7, "7x", 2.5, True, None], [(7, "7x"), ("7x", 2.5), (True, 2.5), (None, True)]),
], ids=["one-vertex", "non-finite-floats", "tuples", "mixed-kinds"])
@pytest.mark.parametrize("expected", [None, {}, {"classify": "neither", "walls": 2}],
                         ids=["no-expected", "empty-expected", "expected"])
def test_graph_text_on_edge_cases(vertices, edges, expected):
    g = SimpleGraph(vertices, edges)
    assert formats.graph_text(g, expected) == formats.dumps(graph_to_json(g, expected))


def test_graph_text_of_corpus_graphs_and_cubulations():
    for inst in graph_instances():
        assert formats.graph_text(inst.payload, inst.expected) == \
            oracle(graph_to_json(inst.payload, inst.expected)), inst.name
    rng = random.Random(2705)
    done = 0
    while done < 30:
        try:
            w = random_crossing_wall_space(rng, rng.randint(2, 8), rng.randint(1, 9))
        except InputError:
            continue
        g = cubulate(w).graph
        assert formats.graph_text(g) == formats.dumps(graph_to_json(g))
        done += 1


# ---------------------------------------------------------------- the number writer

def twelve_digits(x: float) -> str:
    """Oracle: the text of ``float(format(x, ".12g"))`` in a JSON report."""
    return repr(float(format(x, ".12g")))


@settings(max_examples=3000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_number_texts_are_the_twelve_digit_round_trip(x):
    assert formats.number_texts([x]) == [twelve_digits(x)]


NUMBER_CASES = (0.0, 9.999999999995e11, 999999999999.5, 1e12, 9.99999999999e15,
                9.999999999995e15, 1e16, 1e-4, 9.99999999999e-5, 0.5, 1.0, 100.0,
                sys.float_info.min, 1e-307, 5e-324, 2.5e-320, sys.float_info.max)


def test_number_texts_on_edge_cases():
    cases = [x for c in NUMBER_CASES for x in (c, -c)]
    cases += [y for x in cases for to in (0.0, math.inf) for y in [math.nextafter(x, to)]
              if math.isfinite(y)]
    assert formats.number_texts(cases) == list(map(twelve_digits, cases))
    assert formats.number_texts([-0.0, 1e12, 5e-324]) == ["-0.0", "1000000000000.0", "5e-324"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12),
       st.integers(0, 4))
def test_number_rows_are_written_as_json_writes_their_floats(values, width):
    values = values[:len(values) - len(values) % width] if width else []
    array = np.array(values, dtype=float).reshape(-1, width) if width else np.zeros((3, 0))
    rows = formats.number_rows(array)
    floats = [[float(format(x, ".12g")) for x in row] for row in array.tolist()]
    assert formats.dumps({"rows": dict(enumerate(rows)), "n": 1}) == \
        oracle({"rows": dict(enumerate(floats)), "n": 1})


def test_gns_reports_are_in_the_oracle_form(tmp_path, capsys):
    docs = {name: doc for name, doc in generated().items()
            if name.startswith(("huge", "tiny", "tree", "rational", "int"))}
    docs.update((inst.name, graph_to_json(inst.payload)) for inst in graph_instances())
    reports = 0
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        for tol in ("1e-9", "1e30"):
            if cli.main(["embed", "--mode", "gns", "--tol", tol, "--in", str(path)]) == 0:
                text = capsys.readouterr().out
                assert text == oracle(json.loads(text)), name
                reports += 1
    capsys.readouterr()
    assert reports > 100
