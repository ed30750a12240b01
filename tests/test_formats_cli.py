import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (EagerCertificate, dot_export_oracle, fill_cubes_oracle, graph_to_json,
                      load_json_oracle)
from mediankit import (InputError, InternalCheckError, IntervalStructure, SimpleGraph,
                       certify_median_graph, cubulate)
from mediankit import formats
from mediankit.corpus import (cycle_graph, generate_corpus, grid_graph, hypercube_graph,
                              path_graph, random_tree, wall_instances)
from mediankit.graphs import _bfs_coordinates
from mediankit.walls import graph_wall_space


def run_cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "mediankit.cli", *argv],
                          capture_output=True, text=True, cwd=cwd)


def test_python_dash_m_mediankit_runs_the_cli(tmp_path):
    done = subprocess.run([sys.executable, "-m", "mediankit", "corpus", "--names", "path2",
                           "--out-dir", str(tmp_path)], capture_output=True, text=True)
    assert (done.returncode, json.loads(done.stdout)["command"]) == (0, "corpus")


@pytest.fixture()
def files(tmp_path):
    """A small stable of input files."""
    out = {}

    p3 = path_graph(3).path_metric()
    out["p3_metric"] = tmp_path / "p3.json"
    out["p3_metric"].write_text(formats.dumps(formats.metric_to_json(p3)))

    c6 = cycle_graph(6)
    out["c6_graph"] = tmp_path / "c6.json"
    out["c6_graph"].write_text(formats.dumps(
        graph_to_json(c6, {"classify": "neither"})))

    from mediankit.corpus import complete_bipartite_graph
    out["k23_graph"] = tmp_path / "k23.json"
    out["k23_graph"].write_text(formats.dumps(
        graph_to_json(complete_bipartite_graph(2, 3))))

    q3 = hypercube_graph(3)
    out["q3_graph"] = tmp_path / "q3.json"
    out["q3_graph"].write_text(formats.dumps(graph_to_json(q3)))

    walls = graph_wall_space(certify_median_graph(cycle_graph(4)))
    out["c4_walls"] = tmp_path / "c4walls.json"
    out["c4_walls"].write_text(formats.dumps(formats.walls_to_json(walls)))

    out["cloud"] = tmp_path / "cloud.json"
    out["cloud"].write_text(formats.dumps(
        {"norm": "euclidean", "points": [[0, 0], [2, 0]]}))

    rot = {f"v{i}": f"v{(i + 1) % 4}" for i in range(4)}
    out["c4_action"] = tmp_path / "action.json"
    out["c4_action"].write_text(formats.dumps(
        {"generators": {"r": rot}, "basepoint": "v0"}))

    out["c4_graph"] = tmp_path / "c4.json"
    out["c4_graph"].write_text(formats.dumps(
        graph_to_json(cycle_graph(4))))

    out["dir"] = tmp_path
    return out


# ---------------------------------------------------------------- formats

def test_metric_round_trip():
    m = path_graph(4).path_metric()
    again = formats.metric_from_json(formats.metric_to_json(m))
    assert again.points == m.points
    for x in m.points:
        for y in m.points:
            assert again.dist(x, y) == m.dist(x, y)


def test_metric_accepts_full_square_matrix():
    data = {"points": ["a", "b"], "dist": [["0", "1/2"], ["1/2", "0"]]}
    m = formats.metric_from_json(data)
    assert m.dist("a", "b") == Fraction(1, 2)


def test_graph_round_trip():
    g = hypercube_graph(2)
    again = formats.graph_from_json(graph_to_json(g))
    assert set(map(frozenset, again.edges)) == set(map(frozenset, g.edges))


@pytest.mark.parametrize("vertices, edges, message", [
    (["a", "b"], [["z", "a"], ["a", {}]], "an edge: id {} is not a JSON scalar"),
    (["a", "b"], [["a", "a"], [None, []]], "an edge: id [] is not a JSON scalar"),
    (["a", "b", "c"], [["a", "b"], ["a", "b", "c"]],
     "edge ['a', 'b', 'c'] must have exactly two endpoints"),
    ([], [["a", []]], "an edge: id [] is not a JSON scalar"),
    (["a", "b"], [["a", "b"], "ab"], "an edge must be a list, got 'ab'"),
    (["a", "b", "c"], [["a", "b"], ["b", "a"]], "graph is not connected"),
    (["a", "b"], [["b", "z"], ["a", "a"]], "edge ('b','z') references an unknown vertex"),
], ids=["unknown-then-non-scalar", "loop-then-non-scalar", "disconnected-then-three",
        "no-vertices-then-non-scalar", "not-a-list", "disconnected", "unknown-then-loop"])
def test_a_bad_edge_shape_is_reported_before_the_graphs_error(vertices, edges, message):
    with pytest.raises(InputError) as exc:
        formats.graph_from_json({"vertices": vertices, "edges": edges})
    assert str(exc.value) == message


def test_walls_round_trip_and_trivial_warning():
    w = graph_wall_space(certify_median_graph(path_graph(3)))
    data = formats.walls_to_json(w)
    again = formats.walls_from_json(data)   # trivial wall is listed: no warning
    assert again.wall_count == w.wall_count
    del data["walls"][0]                     # drop the trivial wall
    with pytest.warns(UserWarning, match="trivial"):
        formats.walls_from_json(data)


def test_interval_round_trip_and_key_errors():
    s = path_graph(3).path_metric().interval_structure()
    again = formats.interval_structure_from_json(
        formats.interval_structure_to_json(s))
    assert again.points == s.points
    with pytest.raises(InputError, match="comma-free"):
        formats.interval_structure_from_json(
            {"points": ["a,b"], "intervals": {}})
    with pytest.raises(InputError, match="x,y"):
        formats.interval_structure_from_json(
            {"points": ["a"], "intervals": {"a": ["a"]}})


@pytest.mark.parametrize("data, message", [
    ({"points": 5, "intervals": {}}, "'points' must be a list"),
    ({"points": ["a"], "intervals": []}, "'intervals' must be an object"),
    ({"points": ["a"], "intervals": {"a,a": 7}}, "interval 'a,a' must be a list"),
    ({"points": ["a"], "intervals": {"a,a": [["a"]]}}, "members are not point ids"),
])
def test_malformed_interval_payloads_are_input_errors(data, message):
    with pytest.raises(InputError, match=message):
        formats.interval_structure_from_json(data)


@pytest.mark.parametrize("table, message", [
    ({("a", "a", 1): {"a"}}, "not a pair of points"),
    ({5: {"a"}}, "not a pair of points"),
    ({("a", "a"): 7}, "members are not point ids"),
    ({("a", "a"): [["a"]]}, "members are not point ids"),
])
def test_malformed_interval_keys_and_members_are_input_errors(table, message):
    with pytest.raises(InputError, match=message):
        IntervalStructure(["a"], table)


def test_interval_json_missing_symmetric_entry_is_an_error():
    data = {"points": ["a", "b"],
            "intervals": {"a,a": ["a"], "b,b": ["b"], "a,b": ["a", "b"]}}
    with pytest.raises(InputError, match="missing"):
        formats.interval_structure_from_json(data)


READERS = {"interval structure": formats.interval_structure_from_json,
           "metric": formats.metric_from_json,
           "graph": formats.graph_from_json,
           "wall-space": formats.walls_from_json,
           "point-cloud": formats.cloud_from_json,
           "action": formats.action_from_json}


@pytest.mark.parametrize("payload", [[1, 2], "x", 5])
@pytest.mark.parametrize("what", list(READERS))
def test_readers_reject_payloads_that_are_not_objects(what, payload):
    with pytest.raises(InputError, match=f"^{what} JSON must be an object, got "):
        READERS[what](payload)


@pytest.mark.parametrize("what, data, key", [
    ("interval structure", {"intervals": {}}, "points"),
    ("interval structure", {"points": []}, "intervals"),
    ("metric", {"dist": []}, "points"),
    ("metric", {"points": []}, "dist"),
    ("graph", {"edges": []}, "vertices"),
    ("graph", {"vertices": []}, "edges"),
    ("wall-space", {"walls": []}, "points"),
    ("wall-space", {"points": []}, "walls"),
    ("point-cloud", {"norm": "l1"}, "points"),
    ("action", {"basepoint": "a"}, "generators"),
    ("action", {"generators": {}}, "basepoint"),
])
def test_readers_name_the_first_missing_key(what, data, key):
    with pytest.raises(InputError) as info:
        READERS[what](data)
    assert str(info.value) == f"{what} JSON missing key '{key}'"


def test_detect_payload():
    assert formats.detect_payload({"points": [], "dist": []}) == "metric"
    assert formats.detect_payload({"points": [], "walls": []}) == "walls"
    assert formats.detect_payload({"vertices": [], "edges": []}) == "graph"
    assert formats.detect_payload({"points": [], "intervals": {}}) == "intervals"
    assert formats.detect_payload({"points": [], "norm": "euclidean"}) == "cloud"
    assert formats.detect_payload({"generators": {}}) == "action"
    with pytest.raises(InputError):
        formats.detect_payload({"bogus": 1})


def test_dot_export_plain_structure():
    cert = certify_median_graph(cycle_graph(4))
    text = formats.dot_export(cert.graph, cert)
    assert text.startswith("graph G {")
    assert text.rstrip().endswith("}")
    assert '"v0" -- "v1"' in text
    assert "color=" in text
    bare = formats.dot_export(cert.graph)
    assert "color=" not in bare


def test_dot_export_colours_match_the_crossing_edge_oracle(median_certs):
    """The colours read off the codes are those of the crossing edges of
    the ``GraphWall`` objects, byte for byte, also for a graph listing the
    certificate's edges reversed and in another order."""
    certs = [*median_certs.values(), certify_median_graph(grid_graph(4, 7)),
             certify_median_graph(random_tree(40, 3)),   # more walls than colours
             *(cubulate(w.payload).cert for w in wall_instances())]
    for cert in certs:
        flipped = SimpleGraph(cert.vertices[::-1], [e[::-1] for e in cert.graph.edges[::-1]])
        for g in (cert.graph, flipped):
            assert formats.dot_export(g, cert) == dot_export_oracle(g, cert)
            assert formats.dot_export(g) == dot_export_oracle(g)


def test_dot_export_escapes_quotes_and_backslashes():
    g = SimpleGraph(['a"b', "c\\", "d\\e", 7],
                    [('a"b', "c\\"), ("c\\", "d\\e"), ("d\\e", 7)])
    assert formats.dot_export(g).splitlines() == [
        "graph G {",
        '  "a\\"b";', '  "c\\\\";', '  "d\\\\e";', '  "7";',
        '  "a\\"b" -- "c\\\\";', '  "c\\\\" -- "d\\\\e";', '  "d\\\\e" -- "7";',
        "}"]


# ---------------------------------------------------------------- cli

def test_classify_median_exits_zero(files):
    r = run_cli("classify", "--in", str(files["p3_metric"]))
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["verdict"] == "median"
    assert report["witness"] is None


def test_classify_respects_expectations(files):
    r = run_cli("classify", "--in", str(files["c6_graph"]))
    assert r.returncode == 0          # embedded expectation 'neither' matches
    r2 = run_cli("classify", "--in", str(files["c6_graph"]), "--expect", "median")
    assert r2.returncode == 1


def test_certify_graph_rejection_carries_witness(files):
    r = run_cli("certify-graph", "--in", str(files["k23_graph"]))
    assert r.returncode == 1
    report = json.loads(r.stdout)
    assert report["verdict"] == "rejected"
    assert len(report["witness"]["triple"]) == 3


def test_certify_graph_accepts_median(files):
    r = run_cli("certify-graph", "--in", str(files["q3_graph"]))
    assert r.returncode == 0
    assert json.loads(r.stdout)["walls"] == 3


def test_cubulate_writes_graph_and_dot(files):
    gout = files["dir"] / "out_graph.json"
    dot = files["dir"] / "out.dot"
    r = run_cli("cubulate", "--in", str(files["c4_walls"]),
                "--out", str(gout), "--dot", str(dot))
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["vertices"] == 4
    data = json.loads(gout.read_text())
    assert len(data["vertices"]) == 4
    assert dot.read_text().startswith("graph G {")


def test_cubulate_cap_exits_three(files):
    r = run_cli("cubulate", "--in", str(files["c4_walls"]), "--max-walls", "1")
    assert r.returncode == 3
    assert "resource" in r.stderr


def test_fill_cubes_counts(files):
    r = run_cli("fill-cubes", "--in", str(files["q3_graph"]))
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["counts"] == {"1": 12, "2": 6, "3": 1}


def test_certify_negdef_positive_and_negative(files):
    r = run_cli("certify-negdef", "--in", str(files["p3_metric"]))
    assert r.returncode == 0
    assert json.loads(r.stdout)["verdict"] == "negative-definite"
    r2 = run_cli("certify-negdef", "--in", str(files["k23_graph"]))
    assert r2.returncode == 1
    report = json.loads(r2.stdout)
    assert report["witness"] is not None
    assert Fraction(report["witness"]["form_value"]) > 0


def test_certify_hypermetric(files):
    r = run_cli("certify-hypermetric", "--in", str(files["p3_metric"]),
                "--bound", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["verdict"] == "hypermetric"
    r2 = run_cli("certify-hypermetric", "--in", str(files["k23_graph"]))
    assert r2.returncode == 1


def test_embed_l1_and_gns(files):
    r = run_cli("embed", "--mode", "l1", "--in", str(files["q3_graph"]))
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["dimension"] == 3
    assert len(report["vectors"]) == 8
    r2 = run_cli("embed", "--mode", "gns", "--in", str(files["p3_metric"]))
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["max_error"] <= 1e-9


def test_embed_gns_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the grid's centered form has repeated eigenvalues, so eigenvector
    # coordinates depended on LAPACK's thread count; the exact factor's do not
    from mediankit.corpus import grid_graph
    path = tmp_path / "grid20.json"
    path.write_text(formats.dumps(graph_to_json(grid_graph(20, 20))))
    argv = [sys.executable, "-m", "mediankit", "embed", "--mode", "gns", "--in", str(path)]
    runs = [subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            for threads in ("1", "2")]
    try:
        (one, err1), (two, err2) = [run.communicate(timeout=120) for run in runs]
    finally:
        for run in runs:
            run.kill()
    assert [run.returncode for run in runs] == [0, 0] and err1 == err2 == ""
    assert one == two
    assert json.loads(one)["dimension"] == 38


def test_embed_l1_rejects_a_non_median_graph(files):
    r = run_cli("embed", "--mode", "l1", "--in", str(files["c6_graph"]))
    assert r.returncode == 1 and r.stderr == ""
    report = json.loads(r.stdout)
    assert report["verdict"] == "rejected"
    graph = json.loads(run_cli("certify-graph", "--in", str(files["c6_graph"])).stdout)
    assert report["witness"] == graph["witness"]
    assert len(report["witness"]["triple"]) == 3


def test_internal_check_error_exits_four(files, monkeypatch, capsys):
    from mediankit import cli

    def broken(metric):
        raise InternalCheckError("invariant broken")

    monkeypatch.setattr(cli, "classify", broken)
    assert cli.main(["classify", "--in", str(files["p3_metric"])]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "invariant broken", "kind": "internal"}


def test_helly_exit_codes(files):
    r = run_cli("helly", "--in", str(files["c6_graph"]))
    assert r.returncode == 1
    report = json.loads(r.stdout)
    assert report["verdict"] == "fails"
    assert report["agrees_with_modularity"] is True
    r2 = run_cli("helly", "--in", str(files["p3_metric"]))
    assert r2.returncode == 0


def test_displace_metric_and_walls(files):
    r = run_cli("displace", "--action", str(files["c4_action"]),
                "--in", str(files["c4_graph"]), "--word", "r")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["mode"] == "metric"
    assert Fraction(report["distance"]) == 1
    r2 = run_cli("displace", "--action", str(files["c4_action"]),
                 "--in", str(files["c4_walls"]), "--word", "r")
    assert r2.returncode == 0
    report2 = json.loads(r2.stdout)
    assert (report2["wall_distance"], report2["sigma_symdiff"]) == (1, 2)


@pytest.mark.parametrize("payload", [
    {"points": [1, 2], "dist": [[0, 1], [1, 0]]},
    {"vertices": [1, 2], "edges": [[1, 2]]},
    {"points": [1, 2], "walls": [[[], [1, 2]], [[1], [2]]]},
], ids=["metric", "graph", "walls"])
def test_displace_reads_generator_keys_as_non_string_ids(tmp_path, capsys, payload):
    # JSON object keys are strings: "1" names the point 1
    from mediankit import cli
    infile, act = tmp_path / "in.json", tmp_path / "action.json"
    infile.write_text(json.dumps(payload))
    act.write_text(json.dumps({"generators": {"s": {"1": 2, "2": 1}}, "basepoint": 1}))
    assert cli.main(["displace", "--action", str(act), "--in", str(infile),
                     "--word", "s"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["image"] == "2"
    if "walls" in payload:
        assert (report["wall_distance"], report["sigma_symdiff"]) == (1, 2)
    else:
        assert report["distance"] == "1"


def test_circumcenter_cli(files):
    r = run_cli("circumcenter", "--in", str(files["cloud"]), "--tol", "1e-9")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["center"] == [1.0, 0.0]
    assert report["radius"] == 1.0


def circumcenter_error(path, capsys) -> dict:
    from mediankit import cli
    assert cli.main(["circumcenter", "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    return json.loads(err)


def test_circumcenter_on_a_wall_space_exits_two(files, capsys):
    error = circumcenter_error(files["c4_walls"], capsys)
    assert error["kind"] == "input"
    assert "not a list of numbers" in error["error"]


def test_circumcenter_on_a_ragged_cloud_exits_two(tmp_path, capsys):
    ragged = tmp_path / "ragged.json"
    ragged.write_text(formats.dumps({"norm": "euclidean", "points": [[0, 0], [1, 2, 3]]}))
    error = circumcenter_error(ragged, capsys)
    assert error["kind"] == "input"
    assert "coordinates" in error["error"]


def test_corpus_generation_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    r1 = run_cli("corpus", "--out-dir", str(d1), "--names", "path3,cycle6,asymmetric3")
    r2 = run_cli("corpus", "--out-dir", str(d2), "--names", "path3,cycle6,asymmetric3")
    assert r1.returncode == r2.returncode == 0
    for name in ("path3", "cycle6", "asymmetric3"):
        assert (d1 / f"{name}.json").read_bytes() == (d2 / f"{name}.json").read_bytes()
    data = json.loads((d1 / "cycle6.json").read_text())
    assert data["expected"]["classify"] == "neither"


def test_corpus_unknown_name_exits_two(tmp_path):
    r = run_cli("corpus", "--out-dir", str(tmp_path), "--names", "nope")
    assert r.returncode == 2


def test_generated_corpus_files_replay(tmp_path):
    generate_corpus(["cube3", "asymmetric3"], 0, tmp_path)
    r = run_cli("certify-graph", "--in", str(tmp_path / "cube3.json"))
    assert r.returncode == 0
    data = json.loads((tmp_path / "asymmetric3.json").read_text())
    assert data["expected"]["axioms"]["symmetry"] is False
    from mediankit import validate_axioms
    s = formats.interval_structure_from_json(data)
    report = validate_axioms(s)
    assert {c.name: c.passed for c in report.checks} == data["expected"]["axioms"]


def test_unknown_subcommand_exits_two():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_malformed_input_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("classify", "--in", str(bad))
    assert r.returncode == 2
    missing = tmp_path / "none.json"
    r2 = run_cli("classify", "--in", str(missing))
    assert r2.returncode == 2
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe{")
    r3 = run_cli("classify", "--in", str(latin))
    assert r3.returncode == 2 and r3.stdout == ""
    assert json.loads(r3.stderr)["kind"] == "input"


def test_reports_are_byte_stable(files):
    a = run_cli("classify", "--in", str(files["p3_metric"]))
    b = run_cli("classify", "--in", str(files["p3_metric"]))
    assert a.stdout == b.stdout
    c = run_cli("circumcenter", "--in", str(files["cloud"]), "--seed", "5")
    d = run_cli("circumcenter", "--in", str(files["cloud"]), "--seed", "5")
    assert c.stdout == d.stdout


def test_timings_flag_adds_timing(files):
    r = run_cli("classify", "--in", str(files["p3_metric"]), "--timings")
    assert "timing_ms" in json.loads(r.stdout)
    r2 = run_cli("classify", "--in", str(files["p3_metric"]))
    assert "timing_ms" not in json.loads(r2.stdout)


def test_report_out_file(files):
    dest = files["dir"] / "report.json"
    r = run_cli("classify", "--in", str(files["p3_metric"]), "--out", str(dest))
    assert r.returncode == 0
    assert r.stdout == ""
    assert json.loads(dest.read_text())["verdict"] == "median"


OUTPUT_ARGV = {
    "classify --out": ["classify", "--in", "{p3_metric}", "--out"],
    "certify-graph --out": ["certify-graph", "--in", "{q3_graph}", "--out"],
    "cubulate --out": ["cubulate", "--in", "{c4_walls}", "--out"],
    "cubulate --dot": ["cubulate", "--in", "{c4_walls}", "--dot"],
    "fill-cubes --out": ["fill-cubes", "--in", "{q3_graph}", "--out"],
    "fill-cubes --out-complex": ["fill-cubes", "--in", "{q3_graph}", "--out-complex"],
    "certify-negdef --out": ["certify-negdef", "--in", "{p3_metric}", "--out"],
    "certify-hypermetric --out": ["certify-hypermetric", "--in", "{p3_metric}", "--out"],
    "embed --out": ["embed", "--mode", "l1", "--in", "{q3_graph}", "--out"],
    "helly --out": ["helly", "--in", "{p3_metric}", "--out"],
    "displace --out": ["displace", "--action", "{c4_action}", "--in", "{c4_graph}",
                       "--word", "r", "--out"],
    "circumcenter --out": ["circumcenter", "--in", "{cloud}", "--out"],
    "corpus --out": ["corpus", "--names", "path2", "--out-dir", "{dir}/corpus", "--out"],
}


@pytest.mark.parametrize("where", ["missing-dir", "is-a-dir"])
@pytest.mark.parametrize("option", sorted(OUTPUT_ARGV))
def test_unwritable_output_path_exits_two(files, capsys, option, where):
    from mediankit import cli
    dest = files["dir"] / "absent" / "out.txt" if where == "missing-dir" else files["dir"]
    argv = [a.format(**{k: str(v) for k, v in files.items()}) for a in OUTPUT_ARGV[option]]
    assert cli.main([*argv, str(dest)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)                 # one JSON object, nothing else
    assert error["kind"] == "input" and str(dest) in error["error"]


@pytest.mark.parametrize("option", sorted(OUTPUT_ARGV))
def test_output_over_an_existing_file_is_a_fresh_write(files, capsys, option):
    from mediankit import cli
    fresh, over = files["dir"] / "fresh.out", files["dir"] / "over.out"
    over.write_bytes(random.Random(0).randbytes(1 << 16))
    over.chmod(0o640)
    inode = over.stat().st_ino
    argv = [a.format(**{k: str(v) for k, v in files.items()}) for a in OUTPUT_ARGV[option]]
    assert cli.main([*argv, str(fresh)]) == cli.main([*argv, str(over)]) == 0
    capsys.readouterr()
    assert over.stat().st_size == fresh.stat().st_size < 1 << 16
    assert over.read_bytes() == fresh.read_bytes()
    # the same file, written in place: its inode and mode bits are kept
    assert (over.stat().st_ino, over.stat().st_mode & 0o777) == (inode, 0o640)


def test_out_dev_null_exits_zero(files, capsys):
    from mediankit import cli
    assert cli.main(["classify", "--in", str(files["p3_metric"]), "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_dev_stdout_into_a_pipe_is_the_report(files):
    report = run_cli("classify", "--in", str(files["p3_metric"]))
    piped = run_cli("classify", "--in", str(files["p3_metric"]), "--out", "/dev/stdout")
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, report.stdout, "")


def test_a_text_that_cannot_be_encoded_leaves_the_file_as_it_was(tmp_path):
    dest = tmp_path / "kept.json"
    dest.write_bytes(b"old bytes")
    with pytest.raises(InputError, match=f"^cannot write {dest}: 'utf-8' codec can't encode"):
        formats.write_text(dest, "\ud800")
    assert dest.read_bytes() == b"old bytes"


@pytest.mark.parametrize("where", ["a-file", "under-a-file"])
def test_corpus_out_dir_that_cannot_be_a_directory_exits_two(files, capsys, where):
    from mediankit import cli
    dest = files["p3_metric"] if where == "a-file" else files["p3_metric"] / "sub"
    assert cli.main(["corpus", "--names", "path2", "--out-dir", str(dest)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)
    assert error["kind"] == "input" and str(dest) in error["error"]


AB_METRIC = {"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("command, payload, action", [
    ("certify-graph", {"vertices": [["a"], ["b"]], "edges": [[["a"], ["b"]]]}, None),
    ("certify-graph", {"vertices": ["a", "b"], "edges": [[["a"], "b"]]}, None),
    ("classify", {"points": [["a"], ["b"]], "dist": [[0, 1], [1, 0]]}, None),
    ("classify", {"points": 3, "dist": [[0]]}, None),
    ("cubulate", {"points": [["a"], ["b"]], "walls": [[[["a"]], [["b"]]]]}, None),
    ("cubulate", {"points": ["a", "b"], "walls": [[[["a"]], ["b"]]]}, None),
    ("displace", AB_METRIC, {"generators": {"s": {"a": ["b"], "b": "a"}}, "basepoint": "a"}),
    ("displace", AB_METRIC, {"generators": {"s": {"a": "b", "b": "a"}}, "basepoint": ["a"]}),
])
def test_non_scalar_ids_exit_two(tmp_path, capsys, command, payload, action):
    from mediankit import cli
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(payload))
    argv = [command, "--in", str(infile)]
    if action is not None:
        act = tmp_path / "action.json"
        act.write_text(json.dumps(action))
        argv += ["--action", str(act), "--word", "s"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["kind"] == "input"


@pytest.mark.parametrize("argv, payload, what", [
    (["embed", "--mode", "gns"],
     {"points": [1, "b", "1"], "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}, "metric points"),
    (["embed", "--mode", "l1"],
     {"vertices": [1, 2, "1", "2"], "edges": [[1, 2], [2, "1"], ["1", "2"]]}, "graph vertices"),
    (["cubulate"], {"points": [1, "b", "1"],
                    "walls": [[[], [1, "b", "1"]], [[1], ["b", "1"]], [[1, "b"], ["1"]]]},
     "wall-space points"),
], ids=["metric", "graph", "walls"])
def test_ids_that_collide_under_str_exit_two(tmp_path, capsys, argv, payload, what):
    # reports key points by str(id), so 1 and "1" would share one entry
    from mediankit import cli
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(payload))
    assert cli.main(argv + ["--in", str(infile)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {
        "error": f"{what}: ids 1 and '1' have the same string form '1'", "kind": "input"}


@pytest.mark.parametrize("command, payload, message", [
    ("classify", {"points": [1, "1", 1], "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]},
     "duplicate point identifiers"),
    ("certify-graph", {"vertices": [1, "1", 1], "edges": [[1, "1"]]},
     "duplicate vertex identifiers"),
    ("cubulate", {"points": [1, "1", 1], "walls": [[[1], ["1"]]]},
     "duplicate point identifiers"),
])
def test_exact_duplicate_ids_keep_their_error(tmp_path, capsys, command, payload, message):
    from mediankit import cli
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(payload))
    assert cli.main([command, "--in", str(infile)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": message, "kind": "input"}


def test_certify_negdef_does_not_depend_on_the_hash_seed(tmp_path):
    # the metric reader parses distinct entries in set order, which the
    # hash seed changes; reports and the first reported bad entry must not
    rng = random.Random(3)
    n = 12
    pts = [f"p{i}" for i in range(n)]
    x = rng.sample([(a, b, c) for a in range(4) for b in range(4) for c in range(4)], n)
    # half the l1 distance, in several spellings of each value
    dist = [[rng.choice([f"{d}/2", f"{3 * d}/6", str(Fraction(d, 2))])
             for d in (sum(abs(a - b) for a, b in zip(u, v)) for v in x)] for u in x]
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"points": pts, "dist": dist}))
    dist[2][7] = dist[7][2] = "zz"
    dist[0][9] = dist[9][0] = "1/0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": pts, "dist": dist}))
    runs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        runs.append([subprocess.run([sys.executable, "-m", "mediankit", "certify-negdef",
                                     "--in", str(path)], capture_output=True, text=True,
                                    env=env)
                     for path in (good, bad)])
    (good_run, bad_run), other = runs
    assert [(d.returncode, d.stdout, d.stderr) for d in other] == \
        [(d.returncode, d.stdout, d.stderr) for d in (good_run, bad_run)]
    assert (good_run.returncode, bad_run.returncode) == (0, 2)
    assert "bad rational '1/0'" in bad_run.stderr


P3_GRAPH = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}


AB_CLOUD = {"norm": "euclidean", "points": [[0, 0], [2, 0]]}
AB_SWAP = {"generators": {"s": {"a": "b", "b": "a"}}, "basepoint": "a"}
REQUIRED_ARGV = {"embed": ["--mode", "gns"], "displace": ["--word", "s", "--action", "{action}"]}


@pytest.mark.parametrize("command, payload", [
    (command, {**base, "expected": expected})
    for command, base in (("classify", AB_METRIC), ("certify-graph", P3_GRAPH))
    for expected in (1, "median", ["median"], {"classify": "tree"}, {"classify": 2})
] + [
    (command, {**base, "expected": expected})
    for command, base in (("certify-negdef", AB_METRIC), ("certify-hypermetric", AB_METRIC),
                          ("embed", AB_METRIC), ("helly", AB_METRIC),
                          ("displace", AB_METRIC), ("circumcenter", AB_CLOUD))
    for expected in (1, "median", ["median"])
])
def test_malformed_expectation_exits_two_before_any_report(tmp_path, capsys,
                                                            command, payload):
    from mediankit import cli
    infile, action = tmp_path / "in.json", tmp_path / "action.json"
    infile.write_text(json.dumps(payload))
    action.write_text(json.dumps(AB_SWAP))
    extra = [a.format(action=action) for a in REQUIRED_ARGV.get(command, [])]
    assert cli.main([command, "--in", str(infile), *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["kind"] == "input"
    assert "expected" in json.loads(err)["error"]


AB_WALLS = {"points": ["a", "b"], "walls": [[[], ["a", "b"]], [["a"], ["b"]]]}


@pytest.mark.parametrize("expected", [1, "two vertices", ["a"], None])
def test_cubulate_rejects_a_non_object_expectation(tmp_path, capsys, expected):
    from mediankit import cli
    infile, graph_out = tmp_path / "in.json", tmp_path / "graph.json"
    infile.write_text(json.dumps({**AB_WALLS, "expected": expected}))
    assert cli.main(["cubulate", "--in", str(infile), "--out", str(graph_out)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not graph_out.exists()
    assert json.loads(err) == {"error": '"expected" must be an object', "kind": "input"}
    infile.write_text(json.dumps({**AB_WALLS, "expected": {"vertices": 2}}))
    assert cli.main(["cubulate", "--in", str(infile)]) == 0
    assert json.loads(capsys.readouterr().out)["vertices"] == 2


@pytest.mark.parametrize("command, base", [("classify", AB_METRIC),
                                           ("certify-graph", P3_GRAPH)])
def test_wellformed_expectations_still_decide_the_exit(tmp_path, capsys, command, base):
    from mediankit import cli
    infile = tmp_path / "in.json"
    for expected, rc in (({}, 0), ({"classify": "median"}, 0), ({"classify": None}, 0),
                         ({"classify": "neither"}, 1), ({"helly": "holds"}, 0)):
        infile.write_text(json.dumps({**base, "expected": expected}))
        assert cli.main([command, "--in", str(infile)]) == rc
    assert capsys.readouterr().out.count(f'"command": "{command}"') == 5


@pytest.mark.parametrize("argv", [
    ["embed", "--mode", "gns", "--in", "{p3_metric}", "--tol", "nan"],
    ["embed", "--mode", "gns", "--in", "{p3_metric}", "--tol", "-1"],
    ["embed", "--mode", "gns", "--in", "{p3_metric}", "--tol", "inf"],
    ["displace", "--action", "{c4_action}", "--in", "{c4_graph}", "--word", "r",
     "--tol", "nan"],
    ["displace", "--action", "{c4_action}", "--in", "{c4_graph}", "--word", "r",
     "--tol", "-1"],
    ["circumcenter", "--in", "{cloud}", "--tol", "nan"],
    ["circumcenter", "--in", "{cloud}", "--tol", "inf"],
    ["helly", "--in", "{p3_metric}", "--cap", "-1"],
    ["cubulate", "--in", "{c4_walls}", "--max-walls", "-1"],
], ids=["gns-tol-nan", "gns-tol-negative", "gns-tol-inf", "displace-tol-nan",
        "displace-tol-negative", "circumcenter-tol-nan", "circumcenter-tol-inf",
        "helly-cap-negative", "cubulate-max-walls-negative"])
def test_out_of_range_option_values_exit_two(files, capsys, argv):
    from mediankit import cli
    argv = [a.format(**{k: str(v) for k, v in files.items()}) for a in argv]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)
    assert error["kind"] == "input"
    assert argv[-2].lstrip("-").replace("max-", "max_") in error["error"]


def test_overflowing_cloud_exits_two_with_one_json_error(tmp_path):
    cloud = tmp_path / "huge.json"
    cloud.write_text(json.dumps({"norm": "euclidean",
                                 "points": [[1e308, 1e308], [-1e308, -1e308],
                                            [1e308, -1e308]]}))
    r = run_cli("circumcenter", "--in", str(cloud))
    assert r.returncode == 2 and r.stdout == ""
    error = json.loads(r.stderr)            # no warning lines around it
    assert error["kind"] == "input"
    assert "double-precision" in error["error"]


def test_cloud_past_the_float_range_exits_two(tmp_path, capsys):
    from mediankit import cli
    cloud = tmp_path / "huge.json"
    cloud.write_text(json.dumps({"norm": "euclidean", "points": [[10 ** 400], [0]]}))
    assert cli.main(["circumcenter", "--in", str(cloud)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "double-precision" in json.loads(err)["error"]


def test_warnings_follow_a_report_and_never_precede_an_error(tmp_path):
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"points": ["a", "b"], "walls": [[["a"], ["b"]]]}))
    r = run_cli("cubulate", "--in", str(ok))
    assert r.returncode == 0
    # one JSON object, no source path or line
    assert json.loads(r.stderr) == {"warning": "trivial wall absent from input; added automatically",
                                    "kind": "warning"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": ["a", "b", "c"], "walls": [[["a"], ["b", "c"]]]}))
    r = run_cli("cubulate", "--in", str(bad))
    assert r.returncode == 2
    assert json.loads(r.stderr)["kind"] == "input"      # the JSON error alone


K4_MINUS_EDGE = {"vertices": [0, 1, 2, 3], "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]]}


@pytest.mark.parametrize("max_dim", ["0", "-1"])
@pytest.mark.parametrize("payload", [K4_MINUS_EDGE, P3_GRAPH], ids=["k4-minus-edge", "p3"])
def test_fill_cubes_rejects_max_dim_below_one_before_certifying(tmp_path, capsys,
                                                               payload, max_dim):
    from mediankit import cli
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(payload))
    assert cli.main(["fill-cubes", "--in", str(infile), "--max-dim", max_dim]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "max_dim must be >= 1", "kind": "input"}


GRAPH_REPORT_CASES = {
    "single-vertex": path_graph(1),           # 0 walls
    "path64": path_graph(64),                 # 63 walls
    "path65": path_graph(65),                 # 64 walls, one full word
    "path66": path_graph(66),                 # 65 walls
    "tree130": random_tree(130, 5),
    "grid4x5": grid_graph(4, 5),
    "q5": hypercube_graph(5),
    "mixed-ids": SimpleGraph([1, 2, "x", "y"], [(1, 2), (2, "x"), ("x", "y")]),
}


@pytest.fixture(params=sorted(GRAPH_REPORT_CASES))
def graph_file(request, tmp_path):
    g = GRAPH_REPORT_CASES[request.param]
    path = tmp_path / "graph.json"
    path.write_text(formats.dumps(graph_to_json(g)))
    return g, path


def test_embed_l1_report_matches_the_tuple_join_oracle(graph_file, capsys):
    from mediankit import cli
    g, path = graph_file
    coords = EagerCertificate(g, *_bfs_coordinates(g)).wall_coordinates()
    want = {"command": "embed", "mode": "l1",
            "input": hashlib.sha256(path.read_bytes()).hexdigest(),
            "dimension": len(next(iter(coords.values()))),
            "vectors": {str(v): "".join(map(str, coords[v])) for v in g.vertices}}
    assert cli.main(["embed", "--mode", "l1", "--in", str(path)]) == 0
    assert capsys.readouterr().out == formats.dumps(want)


@pytest.mark.parametrize("max_dim", [None, 1, 2])
def test_fill_cubes_outputs_match_the_oracle(graph_file, capsys, max_dim):
    from mediankit import cli
    g, path = graph_file
    want = fill_cubes_oracle(certify_median_graph(g), max_dim)
    out_complex = path.with_name("complex.json")
    argv = ["fill-cubes", "--in", str(path), "--out-complex", str(out_complex)]
    if max_dim is not None:
        argv += ["--max-dim", str(max_dim)]
    assert cli.main(argv) == 0
    assert out_complex.read_text() == formats.dumps(formats.cube_complex_to_json(want))
    report = json.loads(capsys.readouterr().out)
    assert report["counts"] == {str(k): v for k, v in want.counts().items()}
    assert report["dimension"] == want.dimension


# ------------------------------------------------- reader and dispatch

def reader_outcome(read, path):
    """(document, digest) of a reader, or (error type, message)."""
    try:
        doc = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return type(doc), dict(doc), doc.digest


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=5), kids,
                                                               max_size=4),
    max_leaves=10)
INVALID_UTF8 = [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf"]


@st.composite
def json_files(draw):
    """JSON text with LF, CRLF or lone-CR line ends, a BOM, a raw CR inside
    a string, padding past 8 KiB, and invalid UTF-8 anywhere."""
    top = draw(st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=5) | JSON_VALUES)
    text = json.dumps(top, indent=draw(st.sampled_from([None, 1, 2])),
                      ensure_ascii=draw(st.booleans()))
    if draw(st.booleans()) and '"' in text:
        at = text.index('"') + 1
        text = text[:at] + draw(st.sampled_from(["\r", "\r\n", "\n"])) + text[at:]
    text = (" " * 63 + "\n") * draw(st.sampled_from([0, 2, 140])) + text
    text = text.replace("\n", draw(st.sampled_from(["\n", "\r\n", "\r"])))
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = "\ufeff".encode("utf-8") + data
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(INVALID_UTF8)) + data[at:]
    return data


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=json_files())
def test_load_json_matches_the_text_mode_reader(tmp_path, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    assert reader_outcome(formats.load_json, path) == reader_outcome(load_json_oracle, path)


@pytest.mark.parametrize("data", [
    b"",
    b"\r",
    b'{"a": 1}\r',
    b'{"a":\r\n1,\r"b": "x\ry"}',
    b'{"a": "\r\n"}',
    "\ufeff{}".encode("utf-8"),
    b"[1, 2]\r\n",
    b'"text"',
    b" " * 8191 + b"\xff{}",
    b" " * 8192 + b"\xff{}",
    b" " * 9000 + b"{}\xe2\x82",
    b" " * 8191 + "{\"\u00e9\u20ac\": 1}".encode("utf-8"),
    b"\r\n" * 5000 + b'{"a": [1,\r2]}',
], ids=["empty", "lone-cr", "cr-after", "mixed-ends", "cr-in-string", "bom", "list", "string",
        "bad-byte-before-8k", "bad-byte-at-8k", "truncated-past-8k", "multibyte-across-8k",
        "crlf-past-8k"])
def test_load_json_matches_the_text_mode_reader_on_fixed_files(tmp_path, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    assert reader_outcome(formats.load_json, path) == reader_outcome(load_json_oracle, path)


@pytest.mark.parametrize("name", ["none.json", "."])
def test_load_json_matches_the_text_mode_reader_on_unreadable_paths(tmp_path, name):
    path = tmp_path / name
    for given in (path, str(path)):
        assert reader_outcome(formats.load_json, given) == reader_outcome(load_json_oracle, given)


DISPATCH_ARGV = [
    ["classify", "--in", "x.json"],
    ["classify", "--in=x.json", "--out", "r.json", "--timings", "--expect", "modular"],
    ["classify", "--timings", "--i", "x.json", "--in", "y.json"],
    ["certify-graph", "--in", "x.json", "--expect=median"],
    ["cubulate", "--in", "x.json"],
    ["cubulate", "--in", "x.json", "--out", "g.json", "--dot", "g.dot", "--max-walls", "30"],
    ["fill-cubes", "--in", "x.json"],
    ["fill-cubes", "--in", "x.json", "--max-dim", "2", "--out-complex", "c.json"],
    ["certify-negdef", "--in", "x.json", "--timings"],
    ["certify-hypermetric", "--in", "x.json", "--bound", "3"],
    ["embed", "--mode", "gns", "--in", "x.json", "--tol", "1e-6"],
    ["embed", "--mode=l1", "--in", "-"],
    ["helly", "--in", "x.json", "--cap", "5"],
    ["displace", "--in", "x.json", "--action", "a.json", "--word", "g h", "--tol", "0"],
    ["circumcenter", "--in", "x.json", "--seed", "-3", "--tol", "1e-3"],
    ["corpus", "--out-dir", "d"],
    ["corpus", "--out-dir", "d", "--names", "path2,cube3", "--seed", "5", "--out", "r.json"],
]


def test_known_subcommands_parse_without_the_top_level_parser(files, monkeypatch, capsys):
    from mediankit import cli
    top, commands = cli._parsers()
    assert {argv[0] for argv in DISPATCH_ARGV} == set(commands)
    expected = [vars(top.parse_args(argv)) for argv in DISPATCH_ARGV]

    def fail(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    monkeypatch.setattr(top, "parse_known_args", fail)
    for argv, want in zip(DISPATCH_ARGV, expected):
        assert vars(cli._parse(argv)) == want
    assert cli.main(["classify", "--in", str(files["p3_metric"])]) == 0
    assert cli.main(["classify"]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "input"
    with pytest.raises(AssertionError):
        cli.main(["frobnicate"])


def test_parser_defaults_are_the_library_defaults():
    from mediankit import cli, embedding
    _, commands = cli._parsers()

    def default(function, name):
        return inspect.signature(function).parameters[name].default

    assert commands["cubulate"].get_default("max_walls") == default(cubulate, "max_walls")
    assert commands["helly"].get_default("cap") == default(embedding.check_helly, "cap")
    assert commands["certify-hypermetric"].get_default("bound") == \
        default(embedding.certify_hypermetric, "bound")
    assert commands["embed"].get_default("tol") == default(embedding.gns_embed, "tol")


USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["--timings"], "the following arguments are required: command"),
    (["classify"], "mediankit classify: the following arguments are required: --in"),
    (["classify", "--in", "{p3_metric}", "--bogus"], "unrecognized arguments: --bogus"),
    (["classify", "--in"], "argument --in: expected one argument"),
    (["embed", "--in", "{p3_metric}", "--mode", "bad"], "argument --mode: invalid choice"),
    (["embed", "--in", "{p3_metric}"], "the following arguments are required: --mode"),
    (["embed", "--in", "{p3_metric}", "--mode", "gns", "--tol", "abc"],
     "argument --tol: invalid float value: 'abc'"),
    (["displace", "--in", "{p3_metric}", "--word", "g", "--action", "{p3_metric}",
      "--tol", "x"], "argument --tol: invalid float value: 'x'"),
    (["cubulate", "--in", "{c4_walls}", "--max-walls", "many"],
     "argument --max-walls: invalid int value: 'many'"),
]


def usage_argv(argv, files):
    return [a.format(**{k: str(v) for k, v in files.items()}) for a in argv]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_errors_are_one_json_input_error(files, capsys, argv, message):
    from mediankit import cli
    assert cli.main(usage_argv(argv, files)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)
    assert set(error) == {"error", "kind"} and error["kind"] == "input"
    assert message in error["error"]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS[::2])
def test_usage_errors_exit_two_through_python_dash_m(files, argv, message):
    done = subprocess.run([sys.executable, "-m", "mediankit", *usage_argv(argv, files)],
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    error = json.loads(done.stderr)
    assert error["kind"] == "input" and message in error["error"]


@pytest.mark.parametrize("argv, usage", [
    (["-h"], "usage: mediankit [-h]"),
    (["classify", "-h"], "usage: mediankit classify [-h]"),
    (["embed", "--in", "x.json", "--help"], "usage: mediankit embed [-h]"),
])
def test_help_prints_usage_and_exits_zero(capsys, argv, usage):
    from mediankit import cli
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(usage) and err == ""
    done = subprocess.run([sys.executable, "-m", "mediankit", *argv],
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "") and done.stdout.startswith(usage)
