"""Committed digests of the negative-type reports.

``certify-negdef``, ``embed --mode gns`` and ``embed --mode gns --tol 1e30``
run on the ``mediankit corpus`` files of seeds 0 and 1 and on a generated
set of metric files.  The SHA-256 of each run's exit code, stdout and
stderr must equal its entry in ``negative_type_digests.json``.

The generated set covers the entry forms of metric input (JSON ints, plain
and ``p/q`` strings, forms only the full rational grammar reads, bad
entries), every exact dtype (int16, int32, int64 with entries above 2^53,
Python ints at 10**400), rational scales, indefinite {1,2} controls, and
GNS coordinates with decimal exponents 12 to 15 and subnormal ones.

Only outcomes that every supported interpreter and machine gives alike are
hashed.  Entries with underscores, and parts past the int-to-string digit
limit, are left out: ``Fraction`` reads "1_0" only from Python 3.11 on, and
the digit-limit error quotes CPython's own message, which changed in 3.11.
The entry reader checks both against ``Fraction`` on each interpreter
(``test_metric.py``).  The GNS ``max_error``, also quoted by the error past
``--tol``, is masked before hashing: it is a float sum of products that
BLAS forms in an order, and with fused multiply-adds, chosen for the CPU,
so it differs in its last bits from one machine to another.

Regenerate the manifest from the root of a checkout with::

    PYTHONPATH=src python tests/test_negative_type_digests.py
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from mediankit import cli, formats

MANIFEST = Path(__file__).with_name("negative_type_digests.json")
COMMANDS = {
    "certify-negdef": ["certify-negdef"],
    "gns": ["embed", "--mode", "gns"],
    "gns-tol1e30": ["embed", "--mode", "gns", "--tol", "1e30"],
}
TINY = [Fraction(1), Fraction(1, 10 ** 310)]


def l1_dist(rng, n, dim, span) -> list[list[int]]:
    """The l1 distances of n distinct integer points in [0, span)^dim."""
    pts: set = set()
    while len(pts) < n:
        pts.add(tuple(rng.randrange(span) for _ in range(dim)))
    pts = sorted(pts)
    rng.shuffle(pts)
    return [[sum(abs(a - b) for a, b in zip(p, q)) for q in pts] for p in pts]


def tree_dist(rng, n, weights) -> list[list[Fraction]]:
    """The path metric of a random tree whose edge weights are drawn from weights."""
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        parent, weight = rng.randrange(i), rng.choice(weights)
        for j in range(i):
            dist[i][j] = dist[j][i] = dist[parent][j] + weight
    return dist


def one_two_dist(rng, n) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice((1, 2))
    return rows


def scaled(dist, factor) -> list[list]:
    return [[v * factor for v in row] for row in dist]


def strings(dist) -> list[list[str]]:
    return [[str(v) for v in row] for row in dist]


def generated() -> dict[str, dict]:
    """The generated metric documents, by file name."""
    rng = random.Random(2008)
    docs: dict[str, list] = {}
    for k in range(3):
        base = l1_dist(rng, rng.randint(5, 12), rng.randint(2, 4), rng.randint(4, 7))
        docs[f"int16-{k}"] = base
        docs[f"int32-{k}"] = scaled(base, 10 ** 6)
        docs[f"int64-{k}"] = scaled(base, 10 ** 12)
        docs[f"above2p53-{k}"] = scaled(base, 2 ** 55 + 1)
        docs[f"big10p400-{k}"] = strings(scaled(base, 10 ** 400))
        docs[f"strings-{k}"] = strings(base)
        docs[f"rational-{k}"] = strings(scaled(base, Fraction(2, 7)))
        for e in (24, 26, 28, 30):      # coordinates of exponents 12 to 15
            docs[f"huge1e{e}-{k}"] = strings(scaled(base, 10 ** e))
        docs[f"tree-{k}"] = strings(tree_dist(rng, rng.randint(4, 20), [
            Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(3), Fraction(9, 4)]))
        docs[f"onetwo-{k}"] = one_two_dist(rng, rng.randint(6, 16))
        docs[f"onetwo-rational-{k}"] = strings(scaled(one_two_dist(rng, 9), Fraction(5, 3)))
        docs[f"onetwo-big-{k}"] = strings(scaled(one_two_dist(rng, 9), 10 ** 400 + 1))
    for k in range(30):     # edge weights of 1 and 10^-310: subnormal coordinates
        docs[f"tiny-{k}"] = strings(tree_dist(rng, rng.randint(3, 8), TINY))
    base = l1_dist(rng, 6, 2, 4)
    # forms only the full rational grammar reads, and bad entries
    odd = strings(base)
    odd[0][1], odd[1][0] = f"+{base[0][1]}", f" {base[1][0]} "
    odd[0][2], odd[2][0] = f"{base[0][2]}.0", f"00{base[2][0]}"
    odd[1][2], odd[2][1] = f"{base[1][2] * 2}/2", f"{base[2][1] * 3}/03"
    docs["odd-forms"] = odd
    for name, entry in (("zero-denominator", "1/0"), ("decimal-exponent", "1e3"),
                        ("arabic-digit", "٣"), ("superscript", "²"), ("empty", ""),
                        ("minus", "-"), ("negative", "-2")):
            bad = strings(base)
            bad[2][4] = bad[4][2] = entry
            docs[f"entry-{name}"] = bad
    docs["asymmetric"] = strings(base)
    docs["asymmetric"][0][3] = "5/2"
    out = {name: {"points": [f"p{i}" for i in range(len(d))], "dist": d}
           for name, d in docs.items()}
    for k in range(2):
        d = strings(tree_dist(rng, 7, TINY + [Fraction(7, 3)]))
        out[f"upper-{k}"] = {"points": [f"q{i}" for i in range(7)],
                             "dist": [row[i + 1:] for i, row in enumerate(d[:-1])]}
    return out


def write_inputs(root: Path) -> list[str]:
    """Write the corpus and generated files under root; their relative
    paths, in a fixed order."""
    names = []
    for seed in (0, 1):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["corpus", "--out-dir", str(root / f"corpus{seed}"),
                             "--seed", str(seed)]) == 0
        names += sorted(f"corpus{seed}/{p.name}" for p in (root / f"corpus{seed}").iterdir())
    (root / "generated").mkdir()
    for name, doc in generated().items():
        (root / "generated" / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        names.append(f"generated/{name}.json")
    return names


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def outcomes(root: Path) -> dict[str, tuple[int, str, str]]:
    """(exit code, stdout, stderr) of every command on every input, keyed
    "command input"; the inputs are read by paths relative to root, so
    no report or error names the directory."""
    names = write_inputs(root)
    here = os.getcwd()
    os.chdir(root)
    try:
        return {f"{tag} {name}": run([*argv, "--in", name])
                for name in names for tag, argv in COMMANDS.items()}
    finally:
        os.chdir(here)


# the figures of the GNS embedding error: the report's max_error, and the
# error past --tol
MACHINE_FLOATS = re.compile(r'("max_error": |embedding error )[-+.0-9a-z]+')


def digest(outcome: tuple[int, str, str]) -> str:
    rc, out, err = outcome
    masked = [rc, MACHINE_FLOATS.sub(r"\1#", out), MACHINE_FLOATS.sub(r"\1#", err)]
    return hashlib.sha256(json.dumps(masked).encode()).hexdigest()


def test_negative_type_reports_match_the_committed_digests(tmp_path):
    got = outcomes(tmp_path)
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    changed = [key for key, outcome in got.items() if digest(outcome) != want[key]]
    assert changed == []
    # the inputs reach what they are there for
    assert {rc for rc, _, _ in got.values()} == {0, 1, 2}
    assert all(json.loads(out)["max_error"] <= 1e-9 for key, (rc, out, _) in got.items()
               if key.startswith("gns ") and rc == 0)
    dtypes = {formats.metric_from_json(doc)._d.dtype for name, doc in generated().items()
              if name.startswith(("int", "above", "big"))}
    assert dtypes == {np.dtype(t) for t in (np.int16, np.int32, np.int64, object)}
    coords = [c for key, (rc, out, _) in got.items() if key.startswith("gns") and rc == 0
              for row in json.loads(out)["coordinates"].values() for c in row]
    assert any(0 < abs(c) < sys.float_info.min for c in coords)
    assert {e for c in coords if c for e in [int(f"{c:.12e}".split("e")[1])]} >= \
        {12, 13, 14, 15}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        got = outcomes(Path(tmp))
    MANIFEST.write_text(json.dumps({key: digest(o) for key, o in got.items()},
                                   indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
