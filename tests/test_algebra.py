import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import median_table, morphism_by_halfspaces, subsets_bruteforce_halfspaces
from mediankit import (FiniteMedianAlgebra, Halfspace, InputError,
                       IntervalStructure,
                       is_median_morphism, validate_axioms)
from mediankit.corpus import asymmetric_interval_fixture, cycle_graph, path_graph


def path3_algebra():
    return path_graph(3).path_metric().to_algebra()


def path_algebra(n):
    return path_graph(n).path_metric().to_algebra()


# ---------------------------------------------------------------- axioms

def test_asymmetric_fixture_fails_exactly_symmetry():
    report = validate_axioms(asymmetric_interval_fixture())
    assert {c.name: c.passed for c in report.checks} == {
        "idempotence": True, "symmetry": False,
        "nesting": True, "unique_median": True,
    }
    assert report.check("symmetry").witness == ("x", "y")
    assert report.failing() == ("symmetry",)


def test_asymmetric_fixture_cannot_be_promoted():
    with pytest.raises(InputError, match="symmetry"):
        FiniteMedianAlgebra.promote(asymmetric_interval_fixture())


def test_single_point_all_axioms_pass():
    s = IntervalStructure(["x"], {("x", "x"): {"x"}})
    assert validate_axioms(s).passed


def test_boolean_algebra_on_two_atoms_passes(boolean2):
    # promotion already ran the validator; confirm via a fresh report
    assert validate_axioms(boolean2._s).passed


def test_missing_ordered_pair_is_an_input_error():
    with pytest.raises(InputError, match="missing"):
        IntervalStructure(["a", "b"], {("a", "a"): {"a"}, ("b", "b"): {"b"},
                                       ("a", "b"): {"a", "b"}})


def test_unknown_member_is_an_input_error():
    with pytest.raises(InputError, match="unknown"):
        IntervalStructure(["a"], {("a", "a"): {"a", "zzz"}})


def test_unknown_key_point_is_an_input_error():
    with pytest.raises(InputError, match="unknown"):
        IntervalStructure(["a"], {("a", "a"): {"a"}, ("a", "q"): {"a"}})


def test_idempotence_witness_is_first_in_point_order():
    s = IntervalStructure(["a", "b"], {("a", "a"): {"a", "b"},
                                       ("b", "b"): {"a", "b"},
                                       ("a", "b"): {"a", "b"},
                                       ("b", "a"): {"a", "b"}})
    rep = validate_axioms(s)
    assert rep.check("idempotence").witness == ("a",)


# ---------------------------------------------------------------- medians

def test_median_with_repeated_argument_is_that_argument():
    a = path3_algebra()
    for x in a.points:
        for y in a.points:
            assert a.median(x, x, y) == x


def test_boolean_median_is_pairwise_meet_join(boolean2):
    for a, b, c in itertools.product(boolean2.points, repeat=3):
        expect = (a & b) | (b & c) | (c & a)
        assert boolean2.median(a, b, c) == expect
        assert expect == (a | b) & (b | c) & (c | a)


def test_path_median_is_the_middle_vertex():
    a = path3_algebra()
    v0, v1, v2 = a.points
    assert a.median(v0, v1, v2) == v1


def test_median_is_symmetric_in_all_six_orders(boolean2):
    algebras = [path3_algebra(), boolean2,
                cycle_graph(4).path_metric().to_algebra()]
    for alg in algebras:
        for x, y, z in itertools.combinations_with_replacement(alg.points, 3):
            vals = {alg.median(*perm) for perm in itertools.permutations((x, y, z))}
            assert len(vals) == 1


def test_median_table_matches_pointwise():
    a = path3_algebra()
    table = median_table(a)
    for (x, y, z), m in table.items():
        assert m == a.median(x, y, z)


# ---------------------------------------------------------------- convexity

def test_empty_full_and_singletons_are_convex():
    a = path_algebra(4)
    assert a.is_convex(frozenset())
    assert a.is_convex(a.points)
    for p in a.points:
        assert a.is_convex({p})


def test_endpoints_of_a_path_are_not_convex():
    a = path3_algebra()
    v0, v1, v2 = a.points
    assert not a.is_convex({v0, v2})
    assert a.is_convex({v0, v1})


# ---------------------------------------------------------------- halfspaces

def mask_walls(alg, hs):
    """Walls as pairs of bitmasks, the form the subset oracle returns."""
    def mask(side):
        return sum(1 << alg.index(p) for p in side)
    return {frozenset((mask(h.side), mask(h.complement))) for h in hs}


def test_one_point_algebra_has_only_the_trivial_wall():
    s = IntervalStructure(["x"], {("x", "x"): {"x"}})
    a = FiniteMedianAlgebra.promote(s)
    hs = a.halfspaces()
    assert len(hs) == 1
    assert hs[0].side == frozenset({"x"})
    assert hs[0].complement == frozenset()


def test_path3_walls_match_bruteforce():
    a = path3_algebra()
    v0, v1, v2 = a.points
    hs = a.halfspaces()
    assert mask_walls(a, hs) == subsets_bruteforce_halfspaces(a._s.masks)
    sides = [h.side for h in hs]
    # canonical order: lexicographic on the side containing the first point
    assert sides == [frozenset({v0}), frozenset({v0, v1}),
                     frozenset({v0, v1, v2})]


def test_cycle4_has_two_nontrivial_walls():
    a = cycle_graph(4).path_metric().to_algebra()
    hs = a.halfspaces()
    nontrivial = [h for h in hs if h.side and h.complement]
    assert len(nontrivial) == 2
    assert mask_walls(a, hs) == subsets_bruteforce_halfspaces(a._s.masks)


def test_halfspaces_and_separation_above_sixteen_points():
    a = path_algebra(20)
    assert len(a.halfspaces()) == 20
    v = a.points
    h = a.separate({v[3]}, {v[4]})
    assert h.side == frozenset(v[:4])


# ---------------------------------------------------------------- separation

def test_separate_path_endpoints_takes_first_canonical_wall():
    a = path3_algebra()
    v0, _, v2 = a.points
    h = a.separate({v0}, {v2})
    assert h.side == frozenset({v0})
    assert v2 in h.complement


def test_separate_two_singletons_always_succeeds():
    for alg in (path_algebra(4), cycle_graph(4).path_metric().to_algebra()):
        for x, y in itertools.permutations(alg.points, 2):
            h = alg.separate({x}, {y})
            assert x in h.side and y in h.complement


def test_separate_on_boolean_power_set_of_one(boolean2):
    universe = list(range(1))
    points = [frozenset(s) for r in range(2)
              for s in itertools.combinations(universe, r)]
    table = {(a, b): frozenset(c for c in points if a & b <= c <= a | b)
             for a in points for b in points}
    alg = FiniteMedianAlgebra.from_intervals(points, table)
    h = alg.separate({frozenset()}, {frozenset({0})})
    assert frozenset() in h.side and frozenset({0}) in h.complement


def test_separate_rejects_bad_inputs():
    a = path3_algebra()
    v0, v1, v2 = a.points
    with pytest.raises(InputError):
        a.separate(set(), {v0})
    with pytest.raises(InputError):
        a.separate({v0}, {v0})
    with pytest.raises(InputError):
        a.separate({v0, v2}, {v1})   # {v0,v2} is not convex


# ---------------------------------------------------------------- closure

def minimal_stable_superset_oracle(alg, seed):
    """Independent oracle: intersect every median-stable superset."""
    pts = list(alg.points)
    best = None
    for r in range(len(pts) + 1):
        for cand in itertools.combinations(pts, r):
            s = frozenset(cand)
            if not seed <= s:
                continue
            stable = all(alg.median(a, b, c) in s
                         for a, b, c in itertools.combinations_with_replacement(s, 3))
            if stable:
                best = s if best is None else best & s
    return best


def test_closure_of_singleton_and_full_set():
    a = path_algebra(4)
    assert a.median_closure({a.points[0]}) == frozenset({a.points[0]})
    assert a.median_closure(a.points) == frozenset(a.points)


def test_boolean_closure_of_three_singletons(boolean3):
    seed = {frozenset({0}), frozenset({1}), frozenset({2})}
    closure = boolean3.median_closure(seed)
    # fixpoint result, frozen from the independent minimal-superset oracle
    assert closure == {frozenset(), frozenset({0}), frozenset({1}), frozenset({2})}
    assert closure == minimal_stable_superset_oracle(boolean3, frozenset(seed))
    # the sublattice generated by the seed (unions of intersections) bounds it
    inters = set()
    seeds = sorted(seed, key=sorted)
    for r in range(1, len(seeds) + 1):
        for comb in itertools.combinations(seeds, r):
            acc = comb[0]
            for s in comb[1:]:
                acc = acc & s
            inters.add(acc)
    lattice = set()
    for r in range(1, len(inters) + 1):
        for comb in itertools.combinations(sorted(inters, key=sorted), r):
            acc = frozenset()
            for s in comb:
                acc = acc | s
            lattice.add(acc)
    assert closure <= lattice


def test_closure_is_stable_and_minimal():
    a = cycle_graph(4).path_metric().to_algebra()
    v = a.points
    closure = a.median_closure({v[0], v[2]})
    for x, y, z in itertools.combinations_with_replacement(closure, 3):
        assert a.median(x, y, z) in closure
    # removing any non-seed point must break stability
    for drop in closure - {v[0], v[2]}:
        reduced = closure - {drop}
        broken = any(a.median(x, y, z) not in reduced
                     for x, y, z in itertools.combinations_with_replacement(reduced, 3))
        assert broken


# ---------------------------------------------------------------- morphisms

def test_identity_and_constant_maps_are_morphisms():
    a = path3_algebra()
    ident = {p: p for p in a.points}
    assert is_median_morphism(ident, a, a)
    const = {p: a.points[0] for p in a.points}
    assert is_median_morphism(const, a, a)


def test_path_collapse_example_both_criteria_agree():
    a = path3_algebra()
    b = path_algebra(2)
    v0, v1, v2 = a.points
    w0, w1 = b.points
    folding = {v0: w0, v1: w1, v2: w0}     # not a morphism
    assert is_median_morphism(folding, a, b) is False
    assert morphism_by_halfspaces(folding, a, b) is False
    nearest = {v0: w0, v1: w1, v2: w1}     # retraction onto the edge
    assert is_median_morphism(nearest, a, b) is True
    assert morphism_by_halfspaces(nearest, a, b) is True


def test_morphism_criteria_agree_exhaustively_small():
    a = path3_algebra()
    b = path_algebra(2)
    for images in itertools.product(b.points, repeat=len(a.points)):
        f = dict(zip(a.points, images))
        assert is_median_morphism(f, a, b) == morphism_by_halfspaces(f, a, b)
    c4 = cycle_graph(4).path_metric().to_algebra()
    for images in itertools.product(a.points, repeat=len(c4.points)):
        f = dict(zip(c4.points, images))
        assert is_median_morphism(f, c4, a) == morphism_by_halfspaces(f, c4, a)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_morphism_criteria_agree_on_random_maps_into_boolean(seed):
    import random as _random
    rng = _random.Random(seed)
    a = path_algebra(4)
    b = cycle_graph(4).path_metric().to_algebra()
    f = {p: rng.choice(b.points) for p in a.points}
    assert is_median_morphism(f, a, b) == morphism_by_halfspaces(f, a, b)


def test_partial_map_is_an_input_error():
    a = path3_algebra()
    with pytest.raises(InputError, match="total"):
        is_median_morphism({a.points[0]: a.points[0]}, a, a)


# ------------------------------------------------- sigma embedding property

def test_sigma_halfspace_embedding_is_injective_boolean_morphism():
    """sigma(x) = set of halfspaces containing x embeds the algebra in a
    power set: injective, and interval members land between the images."""
    for alg in (path_algebra(4), cycle_graph(4).path_metric().to_algebra()):
        walls = alg.halfspaces()
        sides = []
        for h in walls:
            sides.append(h.side)
            sides.append(h.complement)
        sigma = {p: frozenset(i for i, s in enumerate(sides) if p in s)
                 for p in alg.points}
        assert len(set(sigma.values())) == len(alg.points)
        for x in alg.points:
            for y in alg.points:
                lo = sigma[x] & sigma[y]
                hi = sigma[x] | sigma[y]
                for t in alg.interval(x, y):
                    assert lo <= sigma[t] <= hi


def test_halfspace_wall_accessor():
    a = path3_algebra()
    h = a.halfspaces()[0]
    assert isinstance(h, Halfspace)
    assert h.wall() == frozenset((h.side, h.complement))
