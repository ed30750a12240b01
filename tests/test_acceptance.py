"""Acceptance suite: one test per criterion, each printing a pass/fail
line (see conftest's terminal summary) and enforcing its runtime budget.
"""

import itertools
import math
import time
from contextlib import contextmanager

import networkx as nx
import numpy as np

from conftest import (consistent_orientations_bruteforce, hamming, record_acceptance,
                      zero_sum_sampling_oracle)
from mediankit import (certify_hypermetric, certify_negative_definite,
                       check_colinear_lemma, check_helly,
                       check_median_lipschitz, cubulate, fill_cubes, gns_embed,
                       graph_wall_space, l1_embed, validate_axioms)
from mediankit.actions import MetricAction, WallAction, displacement_metric, \
    displacement_walls
from mediankit.convexity import (PointCloud, check_cn_inequality, circumcenter,
                                 circumradius_at)
from mediankit.corpus import (asymmetric_interval_fixture, cycle_graph,
                              hypercube_graph, wall_instances)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s")
        ok = True
    finally:
        record_acceptance(number, description, ok, time.perf_counter() - t0)


def to_networkx(g):
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges)
    return out


def test_criterion_01_axiom_gate(median_certs):
    with criterion(1, "axiom gate: fixture fails only symmetry; corpus passes", 1.0):
        report = validate_axioms(asymmetric_interval_fixture())
        outcome = {c.name: c.passed for c in report.checks}
        assert outcome == {"idempotence": True, "symmetry": False,
                           "nesting": True, "unique_median": True}
        assert report.check("symmetry").witness == ("x", "y")
        for name, cert in median_certs.items():
            derived = cert.metric.interval_structure()
            assert validate_axioms(derived).passed, name


def test_criterion_02_leg_formula_exact(median_certs):
    with criterion(2, "median leg identity exact on all triples", 10.0):
        for name in ("tree50", "tree12", "cycle4", "cube3", "grid3x3"):
            m = median_certs[name].metric
            pts = m.points
            for x, y, z in itertools.combinations(pts, 3):
                md = m.median_point(x, y, z)
                assert 2 * m.dist(x, md) == m.dist(x, y) + m.dist(x, z) - m.dist(y, z)
                assert 2 * m.dist(y, md) == m.dist(y, x) + m.dist(y, z) - m.dist(x, z)
                assert 2 * m.dist(z, md) == m.dist(z, x) + m.dist(z, y) - m.dist(x, y)


def test_criterion_03_negdef_and_hypermetric(median_metrics):
    with criterion(3, "exact negative-definite + hypermetric certificates", 30.0):
        for name, m in median_metrics.items():
            cert = certify_negative_definite(m)
            assert cert.negative_definite, name
            assert zero_sum_sampling_oracle(m, samples=10_000, seed=17) <= 0, name
            if len(m.points) <= 10:
                rep = certify_hypermetric(m, bound=2)
                assert rep.holds, name
                assert rep.max_value == 0


def test_criterion_04_gns_fidelity(median_metrics):
    with criterion(4, "squared-distance embedding within 1e-9 (<= 64 points)", 10.0):
        for name, m in median_metrics.items():
            if len(m.points) > 64:
                continue
            emb = gns_embed(m, tol=1e-9)
            assert emb.max_error <= 1e-9, name
            assert emb.coords.shape[1] <= len(m.points) - 1


def test_criterion_05_wall_path_l1_coincidence(median_certs):
    with criterion(5, "wall count = path distance = Hamming, exactly", 5.0):
        for name, cert in median_certs.items():
            emb = l1_embed(cert)
            for u in cert.vertices:
                for v in cert.vertices:
                    separated = sum((u in w.side) != (v in w.side)
                                    for w in cert.walls)
                    d = cert.dist(u, v)
                    assert separated == d == hamming(emb, u, v), name


def test_criterion_06_cubulation_round_trip(median_certs):
    with criterion(6, "cubulation round-trips; flip set = oracle set", 60.0):
        for name, cert in median_certs.items():
            res = cubulate(graph_wall_space(cert), max_walls=64)
            assert res.vertex_count == len(cert.vertices), name
            assert nx.is_isomorphic(to_networkx(res.graph),
                                    to_networkx(cert.graph)), name
        for inst in wall_instances():
            w = inst.payload
            res = cubulate(w, max_walls=64)
            assert res.checks["wall_bijection"] == "certified", inst.name
            assert set(res.vertex_bits.values()) == \
                consistent_orientations_bruteforce(w), inst.name
            dist = res.graph.all_pairs()
            for x in w.points:
                for y in w.points:
                    ix = res.graph.index(res.embedding[x])
                    iy = res.graph.index(res.embedding[y])
                    assert dist[ix][iy] == w.wall_metric(x, y), inst.name


def test_criterion_07_cube_filling(median_certs):
    with criterion(7, "cube filling counts + generic subgraph oracle", 30.0):
        assert fill_cubes(median_certs["cube3"]).counts() == {1: 12, 2: 6, 3: 1}
        assert fill_cubes(median_certs["cycle4"]).counts() == {1: 4, 2: 1}
        for name in ("tree12", "tree15", "tree50", "star3"):
            counts = fill_cubes(median_certs[name]).counts()
            assert max(counts) == 1, name
        for name in ("cycle4", "cube2", "cube3", "grid3x3", "star3", "tree15",
                     "tree50"):
            cert = median_certs[name]
            cc = fill_cubes(cert)
            host = to_networkx(cert.graph)
            for k in (2, 3):
                pattern = to_networkx(hypercube_graph(k))
                matcher = nx.algorithms.isomorphism.GraphMatcher(host, pattern)
                oracle = {frozenset(m) for m in
                          (dict(x) for x in matcher.subgraph_isomorphisms_iter())}
                assert set(cc.cubes.get(k, [])) == oracle, (name, k)


def test_criterion_08_action_identities(median_certs):
    with criterion(8, "displacement identities on cube and square actions", 5.0):
        q3 = median_certs["cube3"]
        antipodal = {v: "".join("1" if c == "0" else "0" for c in v)
                     for v in q3.vertices}
        waction = WallAction(graph_wall_space(q3), {"s": antipodal}, "000")
        rep = displacement_walls(waction, "s")
        assert (rep.wall_distance, rep.sigma_symdiff) == (3, 6)
        maction = MetricAction(q3.metric, {"s": antipodal}, "000")
        mrep = displacement_metric(maction, "s", tol=1e-9)
        assert mrep.distance == 3 and abs(mrep.embedded_sq - 3.0) <= 1e-9

        c4 = median_certs["cycle4"]
        v = c4.vertices
        rot = {v[i]: v[(i + 1) % 4] for i in range(4)}
        wrep = displacement_walls(
            WallAction(graph_wall_space(c4), {"r": rot}, v[0]), "r")
        assert (wrep.wall_distance, wrep.sigma_symdiff) == (1, 2)
        mrep2 = displacement_metric(
            MetricAction(c4.metric, {"r": rot}, v[0]), "r", tol=1e-9)
        assert mrep2.distance == 1 and abs(mrep2.embedded_sq - 1.0) <= 1e-9


def test_criterion_09_lemma_suite(median_metrics):
    with criterion(9, "median lemmas: zero counterexamples", 30.0):
        for name, m in median_metrics.items():
            col = check_colinear_lemma(m, exhaustive_cap=50, samples=20000, seed=1)
            assert col.passed, name
            lip = check_median_lipschitz(m, point_cap=50, pair_cap=12,
                                         samples=20000, seed=1)
            assert lip.passed, name
            if len(m.points) <= 12:
                assert lip.median_map.mode == "exhaustive"
            assert col.checked > 0 and lip.near_median.checked > 0


def test_criterion_10_circumcenters():
    with criterion(10, "circumcenters: closed forms, seeds, CN, Lipschitz", 10.0):
        tol = 1e-9
        two = circumcenter(PointCloud.build([[0, 0], [2, 0]]), tol=tol)
        assert np.allclose(two.center, [1, 0], atol=1e-9)
        assert abs(two.radius - 1) <= 1e-9
        tri = PointCloud.build([[0, 0], [2, 0], [1, math.sqrt(3)]])
        res = circumcenter(tri, tol=tol)
        assert abs(res.radius - 2 / math.sqrt(3)) <= 1e-9

        rng = np.random.default_rng(29)
        pts = PointCloud.build(rng.standard_normal((30, 3)) * 2)
        a = circumcenter(pts, tol=tol, seed=2)
        b = circumcenter(pts, tol=tol, seed=77)
        assert np.linalg.norm(a.center - b.center) <= 10 * tol

        for _ in range(1000):
            z, x, y = rng.standard_normal((3, 3)) * 5
            rep = check_cn_inequality(z, x, y, tol=1e-12)
            assert rep.holds and rep.equality

        for _ in range(500):
            x, y = rng.standard_normal((2, 3)) * 3
            rx, ry = circumradius_at(pts, x), circumradius_at(pts, y)
            assert abs(rx - ry) <= np.linalg.norm(x - y) + 1e-12


def test_criterion_11_helly_modularity(corpus_graphs):
    with criterion(11, "Helly agrees with modularity; six-cycle witness", 30.0):
        for name, inst in corpus_graphs.items():
            m = inst.payload.path_metric()
            if len(m.points) > 12:
                continue
            rep = check_helly(m, cap=12)
            assert rep.agrees, name
            assert rep.holds == (inst.expected["classify"] in
                                 ("median", "modular")), name
        six = check_helly(cycle_graph(6).path_metric())
        assert not six.holds
        a, b, c = six.witness
        assert a & b and b & c and c & a and not (a & b & c)
