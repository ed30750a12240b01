import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediankit import FiniteMetric, InputError, certify_median_graph, gns_embed, graph_wall_space
from mediankit.actions import (MetricAction, WallAction, apply_word,
                               displacement_metric, displacement_walls,
                               parse_word)
from mediankit.corpus import cycle_graph, hypercube_graph, path_graph

from conftest import pullback_case, separating_walls, sigma_halfspaces, wall_action_oracle


def cube_metric():
    return hypercube_graph(3).path_metric()


def cube_antipodal():
    flip = {v: "".join("1" if c == "0" else "0" for c in v)
            for v in cube_metric().points}
    return {"s": flip}


def c4_rotation():
    v = cycle_graph(4).path_metric().points
    rot = {v[i]: v[(i + 1) % 4] for i in range(4)}
    return {"r": rot}


# ---------------------------------------------------------------- validation

def test_word_parsing():
    assert parse_word("g1 g2") == ["g1", "g2"]
    assert parse_word("") == []
    assert parse_word(["a", "b"]) == ["a", "b"]


def test_apply_word_composes_left_to_right():
    gens = c4_rotation()
    pts = cycle_graph(4).path_metric().points
    twice = apply_word(gens, "r r", pts)
    assert twice[pts[0]] == pts[2]
    with pytest.raises(InputError, match="unknown generator"):
        apply_word(gens, "nope", pts)


def test_metric_action_rejects_non_isometries():
    m = path_graph(3).path_metric()
    v = m.points
    swap_ends = {v[0]: v[2], v[1]: v[0], v[2]: v[1]}   # a 3-cycle, not isometric
    with pytest.raises(InputError, match="isometry"):
        MetricAction(m, {"g": swap_ends}, v[0])


def first_changed_pair(m, perm):
    """Oracle: the first pair (x, y), in row-major point order, whose
    distance the map changes."""
    return next(((x, y) for x in m.points for y in m.points
                 if m.dist(perm[x], perm[y]) != m.dist(x, y)), None)


@pytest.mark.parametrize("seed", range(6))
def test_metric_action_reports_the_first_changed_pair(seed):
    rng = random.Random(seed)
    unit = rng.choice([1, 3, 1 << 62])           # the last holds Python ints
    metrics = [cube_metric(), path_graph(5).path_metric(),
               FiniteMetric(["a", "b", "c", "d"],
                            [[0, unit, unit, 2 * unit], [unit, 0, 2 * unit, unit],
                             [unit, 2 * unit, 0, unit], [2 * unit, unit, unit, 0]])]
    for m in metrics:
        pts = m.points
        for _ in range(10):
            image = rng.sample(pts, len(pts))
            perm = dict(zip(pts, image))
            pair = first_changed_pair(m, perm)
            if pair is None:
                assert MetricAction(m, {"g": perm}, pts[0]).generators == {"g": perm}
                continue
            with pytest.raises(InputError, match=re.escape(
                    f"'g' is not an isometry: distance of ({pair[0]!r},{pair[1]!r}) changes")):
                MetricAction(m, {"g": perm}, pts[0])


def test_metric_action_rejects_non_bijections():
    m = path_graph(3).path_metric()
    v = m.points
    with pytest.raises(InputError, match="bijection"):
        MetricAction(m, {"g": {v[0]: v[0], v[1]: v[0], v[2]: v[2]}}, v[0])


def test_wall_action_rejects_wall_breakers():
    cert = certify_median_graph(path_graph(3))
    w = graph_wall_space(cert)
    v = w.points
    # transposing the middle with an end is a bijection but breaks a wall
    breaker = {v[0]: v[1], v[1]: v[0], v[2]: v[2]}
    with pytest.raises(InputError, match="wall"):
        WallAction(w, {"g": breaker}, v[0])


def symdiff_recount(w, v, gv):
    """|sigma_v symdiff sigma_gv| recounted from the halfspace tags."""
    return len(sigma_halfspaces(w, v) ^ sigma_halfspaces(w, gv))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["random", "cube", "cycle", "tree"]), st.integers(0, 10**6),
       st.integers(1, 3))
def test_wall_action_matches_the_frozenset_oracle(kind, seed, count):
    """Generators drawn from automorphisms and random permutations: the
    pullback along each inverse accepts or rejects exactly as the image
    walls do as frozensets, naming the same generator and wall."""
    rng = random.Random(seed)
    w, autos = pullback_case(kind, seed)
    pts = w.points
    gens = {f"g{i}": rng.choice(autos) if rng.random() < 0.5
            else dict(zip(pts, rng.sample(pts, len(pts)))) for i in range(count)}
    try:
        wall_action_oracle(w, gens)
        want = None
    except InputError as exc:
        want = str(exc)
    try:
        WallAction(w, gens, pts[0])
        got = None
    except InputError as exc:
        got = str(exc)
    assert got == want
    if all(g in autos for g in gens.values()):
        assert got is None
    if got is None:
        # the symmetric difference recounted from the halfspace tags
        action = WallAction(w, gens, pts[0])
        rep = displacement_walls(action, sorted(gens) * 2)
        assert rep.sigma_symdiff == symdiff_recount(w, pts[0], rep.image) \
            == 2 * len(separating_walls(w, pts[0], rep.image))


# ---------------------------------------------------------------- metric case

def test_identity_word_has_zero_displacement():
    m = cube_metric()
    action = MetricAction(m, cube_antipodal(), "000")
    emb = gns_embed(m)
    rep = displacement_metric(action, "", embedding=emb)
    assert rep.distance == 0
    assert rep.embedded_sq <= 1e-12


def test_cube_antipodal_displacement_three():
    m = cube_metric()
    action = MetricAction(m, cube_antipodal(), "000")
    rep = displacement_metric(action, "s")
    assert rep.distance == 3
    assert abs(rep.embedded_sq - 3.0) <= 1e-9
    assert rep.identity_holds


def test_c4_rotation_displacement_one():
    m = cycle_graph(4).path_metric()
    action = MetricAction(m, c4_rotation(), m.points[0])
    rep = displacement_metric(action, "r")
    assert rep.distance == 1
    assert abs(rep.embedded_sq - 1.0) <= 1e-9


def test_word_of_two_rotations():
    m = cycle_graph(4).path_metric()
    action = MetricAction(m, c4_rotation(), m.points[0])
    rep = displacement_metric(action, "r r")
    assert rep.distance == 2


# ---------------------------------------------------------------- wall case

def test_identity_wall_displacement():
    w = graph_wall_space(certify_median_graph(cycle_graph(4)))
    action = WallAction(w, {"r": c4_rotation()["r"]}, w.points[0])
    rep = displacement_walls(action, "")
    assert (rep.wall_distance, rep.sigma_symdiff) == (0, 0)


def test_k2_swap_gives_one_and_two():
    cert = certify_median_graph(path_graph(2))
    w = graph_wall_space(cert)
    a, b = w.points
    action = WallAction(w, {"s": {a: b, b: a}}, a)
    rep = displacement_walls(action, "s")
    assert (rep.wall_distance, rep.sigma_symdiff) == (1, 2)


def test_c4_rotation_gives_one_and_two():
    w = graph_wall_space(certify_median_graph(cycle_graph(4)))
    action = WallAction(w, {"r": c4_rotation()["r"]}, w.points[0])
    rep = displacement_walls(action, "r")
    assert (rep.wall_distance, rep.sigma_symdiff) == (1, 2)
    assert rep.identity_holds
    assert rep.sigma_symdiff == symdiff_recount(w, w.points[0], rep.image)


def test_cube_antipodal_walls_three_and_six():
    w = graph_wall_space(certify_median_graph(hypercube_graph(3)))
    action = WallAction(w, cube_antipodal(), "000")
    rep = displacement_walls(action, "s")
    assert (rep.wall_distance, rep.sigma_symdiff) == (3, 6)
    assert rep.sigma_symdiff == symdiff_recount(w, "000", rep.image)


@pytest.mark.parametrize("walls", [False, True], ids=["metric", "walls"])
@pytest.mark.parametrize("generator, basepoint, message", [
    ({"v0": ["v1"], "v1": "v0"}, "v0", "generator 'g' is not a bijection of the points"),
    ({"v0": "v0", "v1": "v1"}, ["v0"], r"unknown point \['v0'\]"),
], ids=["image", "basepoint"])
def test_unhashable_images_and_basepoints_are_input_errors(walls, generator, basepoint,
                                                           message):
    with pytest.raises(InputError, match=message):
        if walls:
            WallAction(graph_wall_space(certify_median_graph(path_graph(2))),
                       {"g": generator}, basepoint)
        else:
            MetricAction(path_graph(2).path_metric(), {"g": generator}, basepoint)
