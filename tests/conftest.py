import itertools

import pytest

from mediankit import certify_median_graph
from mediankit.algebra import FiniteMedianAlgebra, IntervalStructure
from mediankit.corpus import graph_instances, median_graph_instances

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, description: str, ok: bool, seconds: float):
    line = (f"criterion {number:02d} {'PASS' if ok else 'FAIL'} "
            f"({seconds:6.2f}s)  {description}")
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def subsets_bruteforce_halfspaces(betw, within=None):
    """Oracle: every split of ``within`` (default: all points) into two
    convex parts, found by scanning all 2^n subsets of a betweenness
    bitmask table.  Walls are frozensets of two masks; the trivial wall
    {within, 0} is included."""
    n = len(betw)
    if within is None:
        within = (1 << n) - 1
    idx = [t for t in range(n) if within >> t & 1]

    def convex(mask):
        inside = [t for t in idx if mask >> t & 1]
        return all(not betw[a][b] & ~mask for a in inside for b in inside)

    out = set()
    for r in range(len(idx) + 1):
        for combo in itertools.combinations(idx, r):
            side = sum(1 << t for t in combo)
            if convex(side) and convex(within & ~side):
                out.add(frozenset((side, within & ~side)))
    return out


def boolean_median_algebra(k: int) -> FiniteMedianAlgebra:
    """P({0..k-1}) with [A,B] = {C : A&B <= C <= A|B}."""
    universe = list(range(k))
    points = [frozenset(s) for r in range(k + 1)
              for s in itertools.combinations(universe, r)]
    table = {}
    for a in points:
        for b in points:
            lo, hi = a & b, a | b
            table[(a, b)] = frozenset(c for c in points if lo <= c <= hi)
    return FiniteMedianAlgebra.promote(IntervalStructure(points, table))


@pytest.fixture(scope="session")
def boolean2():
    return boolean_median_algebra(2)


@pytest.fixture(scope="session")
def boolean3():
    return boolean_median_algebra(3)


@pytest.fixture(scope="session")
def corpus_graphs():
    return {inst.name: inst for inst in graph_instances()}


@pytest.fixture(scope="session")
def median_certs():
    """Certificates for every median graph in the corpus (built once)."""
    return {inst.name: certify_median_graph(inst.payload)
            for inst in median_graph_instances()}


@pytest.fixture(scope="session")
def median_metrics(median_certs):
    return {name: cert.metric for name, cert in median_certs.items()}


@pytest.fixture(scope="session")
def small_median_metrics(median_metrics):
    return {name: m for name, m in median_metrics.items() if len(m.points) <= 12}
