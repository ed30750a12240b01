"""``formats.dumps`` against its oracle, ``json.dumps(indent=2, sort_keys=True)``.

Seeded random trees reach every path of the emitter: lists of one exact
scalar type, equal-width rows, and the per-item path for everything else.
The CLI test checks that every JSON file the CLI writes is in the oracle's
own form.
"""

import json
import random

import pytest

from mediankit import cli, formats
from mediankit.corpus import default_roster


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
