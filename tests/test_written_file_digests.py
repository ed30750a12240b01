"""Committed digests of the files the CLI writes.

Every ``corpus`` file of seeds 0 and 1, ``cubulate --out --dot`` on each
corpus wall space, ``fill-cubes --out-complex`` on each corpus median
graph, and one ``--out`` report per subcommand are written twice: to new
paths, and over existing files of junk longer than what is written.  The
SHA-256 of every written file, and of each run's exit code, stdout and
stderr, must equal its entry in ``written_file_digests.json`` both times,
so a file written over another holds exactly the new bytes.

Regenerate the manifest from the root of a checkout with::

    PYTHONPATH=src python tests/test_written_file_digests.py
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

from mediankit import cli
from mediankit.corpus import default_roster, median_graph_instances, wall_instances

MANIFEST = Path(__file__).with_name("written_file_digests.json")
SEEDS = (0, 1)


def runs() -> dict[str, tuple[list[str], list[str]]]:
    """label -> (argv, the paths it writes), relative to the working
    directory, in the order they run: the corpus runs write the inputs of
    the others."""
    out = {}
    for seed in SEEDS:
        files = [f"corpus{seed}/{inst.name}.json" for inst in default_roster(seed)]
        out[f"corpus {seed}"] = (["corpus", "--out-dir", f"corpus{seed}", "--seed", str(seed),
                                  "--out", f"corpus{seed}.report"], [*files, f"corpus{seed}.report"])
        for inst in wall_instances(seed):
            stem = f"out/{inst.name}-{seed}"
            out[f"cubulate {stem}"] = (["cubulate", "--in", f"corpus{seed}/{inst.name}.json",
                                        "--out", f"{stem}.json", "--dot", f"{stem}.dot"],
                                       [f"{stem}.json", f"{stem}.dot"])
    for inst in median_graph_instances():
        dest = f"out/{inst.name}.complex.json"
        out[f"fill-cubes {inst.name}"] = (["fill-cubes", "--in", f"corpus0/{inst.name}.json",
                                           "--out-complex", dest], [dest])
    reports = {
        "classify": ["classify", "--in", "corpus0/cycle6.json"],
        "certify-graph": ["certify-graph", "--in", "corpus0/k23.json"],
        "fill-cubes": ["fill-cubes", "--in", "corpus0/cube3.json"],
        "certify-negdef": ["certify-negdef", "--in", "corpus0/tree12.json"],
        "certify-hypermetric": ["certify-hypermetric", "--in", "corpus0/path4.json"],
        "embed": ["embed", "--mode", "l1", "--in", "corpus0/grid3x3.json"],
        "helly": ["helly", "--in", "corpus0/star3.json"],
        "displace": ["displace", "--action", "action.json", "--in", "corpus0/cycle4.json",
                     "--word", "r r"],
        "circumcenter": ["circumcenter", "--in", "cloud.json", "--seed", "3"],
    }
    for name, argv in reports.items():
        out[f"report {name}"] = ([*argv, "--out", f"out/{name}.report"], [f"out/{name}.report"])
    return out


def write_inputs(root: Path) -> None:
    (root / "out").mkdir(parents=True)
    rot = {f"v{i}": f"v{(i + 1) % 4}" for i in range(4)}
    (root / "action.json").write_text(json.dumps({"generators": {"r": rot}, "basepoint": "v0"}))
    (root / "cloud.json").write_text(json.dumps(
        {"norm": "euclidean", "points": [[0, 0], [4, 1], [1, 3], [2, 2]]}))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcomes(root: Path, junk: dict[str, int] | None = None) -> dict[str, str]:
    """The digest of every run's (exit code, stdout, stderr), keyed "run
    <label>", and of every file it writes, keyed "file <path>".  With
    junk, each written path first holds that many bytes of junk."""
    write_inputs(root)
    rng = random.Random(34)
    for path, size in (junk or {}).items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_bytes(rng.randbytes(size))
    here = os.getcwd()
    os.chdir(root)
    got = {}
    try:
        for label, (argv, written) in runs().items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            got[f"run {label}"] = sha(json.dumps([rc, out.getvalue(), err.getvalue()]).encode())
            for path in written:
                got[f"file {path}"] = sha(Path(path).read_bytes())
    finally:
        os.chdir(here)
    return got


def longer_junk(root: Path) -> dict[str, int]:
    """A junk size for every written path under root: its size plus 4 KiB."""
    return {path: (root / path).stat().st_size + 4096
            for _, written in runs().values() for path in written}


def test_written_files_match_the_committed_digests(tmp_path):
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    fresh = outcomes(tmp_path / "fresh")
    over = outcomes(tmp_path / "over", longer_junk(tmp_path / "fresh"))
    assert sorted(fresh) == sorted(want)
    assert [key for key in want if fresh[key] != want[key]] == []
    assert [key for key in want if over[key] != want[key]] == []


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        got = outcomes(Path(tmp))
    MANIFEST.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
