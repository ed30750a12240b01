"""Randomized cross-checks of the exact kernels against independent
oracles, over instance families the named fixtures do not reach."""

import random

import networkx as nx
import pytest

from conftest import (consistent_orientations_bruteforce, random_crossing_wall_space,
                      random_shortest_path_metric, zero_sum_sampling_oracle)
from mediankit import (InputError, certify_negative_definite, cubulate,
                       fill_cubes)
from mediankit.corpus import hypercube_graph
from mediankit.embedding import distance_form


def test_exact_psd_verdicts_never_contradicted():
    rng = random.Random(0)
    verdicts = {True: 0, False: 0}
    for trial in range(120):
        m = random_shortest_path_metric(rng, rng.randint(2, 7))
        cert = certify_negative_definite(m)
        verdicts[cert.negative_definite] += 1
        if cert.negative_definite:
            assert zero_sum_sampling_oracle(m, samples=2000, seed=trial) <= 0
        else:
            assert sum(cert.witness) == 0
            assert distance_form(m, cert.witness) > 0
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_crossing_wall_spaces_match_global_oracle():
    hits = 0
    for trial in range(40):
        rng = random.Random(1000 + trial)
        try:
            w = random_crossing_wall_space(rng, rng.randint(3, 6),
                                           rng.randint(2, 9))
        except InputError:
            continue
        res = cubulate(w)
        assert set(res.vertex_bits.values()) == \
            consistent_orientations_bruteforce(w)
        assert res.checks["median_closure"] == "checked"
        assert res.checks["wall_bijection"] == "certified"
        hits += 1
    assert hits >= 20


def test_cube_filling_matches_oracle_on_cubulated_graphs():
    def oracle(graph, k):
        pat = nx.Graph()
        pat.add_nodes_from(hypercube_graph(k).vertices)
        pat.add_edges_from(hypercube_graph(k).edges)
        host = nx.Graph()
        host.add_nodes_from(graph.vertices)
        host.add_edges_from(graph.edges)
        gm = nx.algorithms.isomorphism.GraphMatcher(host, pat)
        return {frozenset(m) for m in
                (dict(x) for x in gm.subgraph_isomorphisms_iter())}

    done = 0
    for trial in (3, 7, 19):
        rng = random.Random(trial)
        try:
            w = random_crossing_wall_space(rng, 5, 7)
        except InputError:
            continue
        res = cubulate(w)
        cc = fill_cubes(res.cert)
        for k in (2, 3, 4):
            assert set(cc.cubes.get(k, [])) == oracle(res.graph, k), (trial, k)
        done += 1
    assert done >= 2
