"""Seeded CLI fuzz: arbitrary JSON documents through every subcommand.

Every run must end in a defined way: exit 0 or 1 with a report, or exit 2
(bad input) or 3 (a cap) with exactly one JSON error object on stderr and
no warning before it.  An uncaught exception or an exit 4 fails the test.
"""

import json
import random
import sys
import warnings

import pytest

from mediankit import cli

HUGE = (2 ** 62, 2 ** 70, -(2 ** 70), 10 ** 400)
ODD = (float("nan"), float("inf"), 0.5, -1, 0, True, False, None, "", "x",
       "1/0", "1e400", "3/2", [], [1], {}, {"a": 1})


def scalar(rng):
    return rng.choice((rng.randint(-3, 5), rng.choice(HUGE), rng.choice(ODD),
                       f"p{rng.randint(0, 4)}", str(rng.randint(0, 5))))


def junk(rng, depth=0):
    """A random JSON value, shallow."""
    if depth > 2 or rng.random() < 0.5:
        return scalar(rng)
    if rng.random() < 0.5:
        return [junk(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {rng.choice(("points", "dist", "walls", "edges", "vertices", "norm",
                        "generators", "basepoint", "intervals", "x")):
            junk(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def metric_doc(rng):
    """A metric, often valid; its unit may take it past int64 or past the
    range of a double."""
    n = rng.randint(1, 5)
    pts = [f"p{i}" for i in range(n)]
    unit = rng.choice((1, 1, 1, 10 ** 6, 2 ** 62, 10 ** 200, 10 ** 400))
    d = [[0 if i == j else rng.choice((unit, 2 * unit, str(3 * unit) + "/2", str(unit)))
          for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            d[i][j] = d[j][i]
    if rng.random() < 0.5:
        d = [row[i + 1:] for i, row in enumerate(d[:-1])]     # upper triangle
    return {"points": pts, "dist": d}


def big_metric_doc(rng):
    """A metric whose entries, or the pivots and form values they lead
    to, have more digits than Python turns into a string by default
    (4300): every report of them must end in a resource error."""
    n = rng.randint(2, 5)
    exp = rng.choice((4300, 4400, 5000))
    unit = rng.choice((f"1e{exp}", f"7.5e{exp}", f"1e-{exp}"))
    dist = [[0 if i == j else unit for j in range(n)] for i in range(n)]
    if rng.random() < 0.5:
        dist = [row[i + 1:] for i, row in enumerate(dist[:-1])]     # upper triangle
    return {"points": [f"p{i}" for i in range(n)], "dist": dist}


def graph_doc(rng):
    n = rng.randint(1, 6)
    vs = [f"v{i}" for i in range(n)]
    edges = [[vs[i - 1], vs[i]] for i in range(1, n)]
    edges += [[rng.choice(vs), rng.choice(vs)] for _ in range(rng.randint(0, 3))]
    return {"vertices": vs, "edges": edges}


def walls_doc(rng):
    n = rng.randint(1, 5)
    pts = [f"p{i}" for i in range(n)]
    walls = [[[], pts]] if rng.random() < 0.5 else []     # else a warning
    for _ in range(rng.randint(0, 5)):
        side = rng.sample(pts, rng.randint(0, n))
        walls.append([side, [p for p in pts if p not in side]])
    return {"points": pts, "walls": walls}


def cloud_doc(rng):
    dim = rng.randint(1, 3)
    return {"norm": rng.choice(("euclidean", "l1", "x")),
            "points": [[rng.randint(-5, 5) for _ in range(dim)]
                       for _ in range(rng.randint(1, 5))]}


def action_doc(rng):
    pts = [f"p{i}" for i in range(rng.randint(1, 4))]
    perm = pts[:]
    rng.shuffle(perm)
    return {"generators": {"s": dict(zip(pts, perm))}, "basepoint": pts[0]}


def intervals_doc(rng):
    pts = ["a", "b"]
    return {"points": pts, "intervals": {f"{x},{y}": sorted({x, y})
                                         for x in pts for y in pts}}


TEMPLATES = (metric_doc, big_metric_doc, graph_doc, walls_doc, cloud_doc, action_doc,
             intervals_doc)


def mutate(rng, value, depth=0):
    """Replace a few random subtrees: huge ints, bools, NaN, lists as
    entries, ragged or dropped rows, wrong types."""
    if isinstance(value, dict):
        out = {k: mutate(rng, v, depth + 1) for k, v in value.items()}
        if out and rng.random() < 0.1:
            del out[rng.choice(sorted(out))]
        return out
    if isinstance(value, list):
        out = [mutate(rng, v, depth + 1) for v in value]
        if out and rng.random() < 0.1:
            out.pop(rng.randrange(len(out)))                   # ragged
        return out
    return junk(rng) if rng.random() < 0.08 else value


def document(rng):
    if rng.random() < 0.15:
        return junk(rng)
    doc = rng.choice(TEMPLATES)(rng)
    return doc if rng.random() < 0.2 else mutate(rng, doc)


SUBCOMMANDS = (["classify"], ["certify-graph"], ["cubulate"], ["fill-cubes"],
               ["certify-negdef"], ["certify-hypermetric", "--bound", "1"],
               ["embed", "--mode", "l1"], ["embed", "--mode", "gns"], ["helly"],
               ["circumcenter"], ["displace", "--word", "s"], ["corpus"])


def invocations(rng, path, other):
    for sub in SUBCOMMANDS:
        if sub[0] == "corpus":
            names = ",".join(map(str, rng.sample(["path2", "cube2", "x", "", "wallsnested4"],
                                                 rng.randint(1, 2))))
            yield ["corpus", "--names", names, "--out-dir", str(path.parent / "corpus")]
        elif sub[0] == "displace":
            action, target = (path, other) if rng.random() < 0.5 else (other, path)
            yield sub + ["--action", str(action), "--in", str(target)]
        else:
            yield sub + ["--in", str(path)]


@pytest.mark.parametrize("seed", range(4))
def test_every_subcommand_ends_in_a_defined_way(tmp_path, capsys, seed):
    rng = random.Random(seed)
    path, other = tmp_path / "doc.json", tmp_path / "other.json"
    exits = set()
    for trial in range(60):
        doc = document(rng)
        path.write_text(json.dumps(doc))
        other.write_text(json.dumps(rng.choice(TEMPLATES)(rng)))
        for argv in invocations(rng, path, other):
            with warnings.catch_warnings(record=True) as shown:
                warnings.simplefilter("always")
                rc = cli.main(argv)
            out, err = capsys.readouterr()
            where = f"{argv} on {json.dumps(doc)[:300]}"
            assert rc in (0, 1, 2, 3), where
            exits.add(rc)
            if rc in (2, 3):
                error = json.loads(err)                     # exactly one document
                assert isinstance(error, dict), where
                assert not shown, where                     # and no warning line
                assert error["kind"] == ("input" if rc == 2 else "resource"), where
                assert out == "", where
    assert {0, 1, 2} <= exits


@pytest.mark.parametrize("command, unit", [
    (["certify-negdef"], "1e5000"), (["certify-negdef"], "7.5e4400"),
    (["certify-negdef"], "1e-5000"),
    (["displace", "--word", "s"], "1e-5000"),     # 1e5000 is past the float range: exit 2
])
def test_rationals_past_the_digit_limit_are_a_resource_error(tmp_path, capsys, command, unit):
    metric = tmp_path / "big.json"
    metric.write_text(json.dumps({"points": ["a", "b", "c"],
                                  "dist": [[unit, unit], [unit]]}))
    action = tmp_path / "action.json"
    action.write_text(json.dumps({"generators": {"s": {"a": "b", "b": "c", "c": "a"}},
                                  "basepoint": "a"}))
    argv = command + ["--in", str(metric)]
    if command[0] == "displace":
        argv += ["--action", str(action)]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {
        "cap": sys.get_int_max_str_digits(), "kind": "resource",
        "error": f"a rational in the report has more than {sys.get_int_max_str_digits()} "
                 "digits, Python's limit on int-to-string conversion"}


def past_the_decoder_limits():
    """(text, error, cap) of a JSON document whose integer literal has
    more digits than ``sys.get_int_max_str_digits()``, and of one nested
    deeper than the decoder can recurse."""
    digits, depth = sys.get_int_max_str_digits(), sys.getrecursionlimit()
    literal = "1" * (digits + 700)
    yield (f'{{"points": ["a", "b"], "dist": [[0, {literal}], [{literal}, 0]]}}',
           f"a JSON integer has more than {digits} digits, "
           "Python's limit on string-to-int conversion", digits)
    yield ("[" * 100_000 + "]" * 100_000,
           f"JSON nested deeper than the decoder can recurse (recursion limit {depth})", depth)


@pytest.mark.parametrize("argv", [sub for sub in SUBCOMMANDS if sub[0] != "corpus"]
                         + [["displace-action"]])
def test_documents_past_the_decoder_limits_are_a_resource_error(tmp_path, capsys, argv):
    metric, action = tmp_path / "metric.json", tmp_path / "action.json"
    metric.write_text(json.dumps({"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}))
    action.write_text(json.dumps({"generators": {"s": {"a": "b", "b": "a"}}, "basepoint": "a"}))
    path = tmp_path / "doc.json"
    for text, error, cap in past_the_decoder_limits():
        path.write_text(text)
        if argv[0] == "displace":       # the document as the space
            args = argv + ["--in", str(path), "--action", str(action)]
        elif argv[0] == "displace-action":      # the document as the action
            args = ["displace", "--word", "s", "--in", str(metric), "--action", str(path)]
        else:
            args = argv + ["--in", str(path)]
        assert cli.main(args) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"cap": cap, "kind": "resource", "error": f"{path}: {error}"}


@pytest.mark.parametrize("argv, error", [
    (["certify-negdef", "--in", "a\0b.json"], "cannot read a\0b.json: embedded null byte"),
    (["certify-negdef", "--in", "m.json", "--out", "a\0b.json"],
     "cannot write a\0b.json: embedded null byte")])
def test_a_nul_byte_in_a_path_is_an_input_error(monkeypatch, tmp_path, capsys, argv, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps({"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}))
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"kind": "input", "error": error}


def test_boolean_metric_entries_are_rejected(tmp_path, capsys):
    path = tmp_path / "bools.json"
    path.write_text(json.dumps({"points": ["a", "b", "c"],
                                "dist": [[0, True, True], [True, 0, True], [True, True, 0]]}))
    for argv in (["certify-negdef"], ["classify"], ["embed", "--mode", "gns"]):
        assert cli.main(argv + ["--in", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["kind"] == "input"
        assert "boolean distance True rejected" in json.loads(err)["error"]
