"""Finite group actions as generator permutations, and the displacement
identities their affine Hilbert-space actions satisfy.

For an isometric action on a negative-definite metric the displacement of
the affinized action at the origin is sqrt(d(v, gv)); for an action on a
wall space it is |sigma_gv symdiff sigma_v| = 2 * wall-distance(v, gv).
A wall action's generators are checked by the one pullback of walls in
``walls`` (the one that wall morphisms and their extension read).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

import numpy as np

from .algebra import total_image
from .embedding import GnsEmbedding, gns_embed
from .errors import InputError, InternalCheckError
from .metric import FiniteMetric
from .walls import WallSpace, _pullback

Point = Hashable


def _check_permutation(name: str, mapping: Mapping, points: list) -> dict:
    out = {}
    for p in points:
        if p not in mapping:
            raise InputError(f"generator {name!r} is not total: {p!r} unmapped")
        out[p] = mapping[p]
    try:
        bijective = set(out.values()) == set(points)
    except TypeError:       # an unhashable image is no point
        bijective = False
    if not bijective:
        raise InputError(f"generator {name!r} is not a bijection of the points")
    return out


def parse_word(word: str | Sequence[str]) -> list[str]:
    if isinstance(word, str):
        return word.split()
    return list(word)


def apply_word(generators: Mapping[str, Mapping], word: str | Sequence[str],
               points: list) -> dict:
    """Compose generators left to right: the first named acts first."""
    current = {p: p for p in points}
    for name in parse_word(word):
        try:
            known = name in generators
        except TypeError:       # an unhashable name is unknown too
            known = False
        if not known:
            raise InputError(f"unknown generator {name!r}")
        g = generators[name]
        current = {p: g[current[p]] for p in points}
    return current


@dataclass
class MetricAction:
    """Generators must preserve every distance."""

    metric: FiniteMetric
    generators: dict[str, dict]
    basepoint: Point

    def __post_init__(self):
        pts = self.metric.points
        self.metric.index(self.basepoint)
        d = self.metric._d
        checked = {}
        for name, g in self.generators.items():
            perm = _check_permutation(name, g, pts)
            image = [self.metric.index(perm[x]) for x in pts]
            moved = np.argwhere(d[np.ix_(image, image)] != d)
            if len(moved):
                # argwhere runs in row-major order: the first changed pair (x, y)
                x, y = (pts[i] for i in moved[0])
                raise InputError(
                    f"generator {name!r} is not an isometry: distance of "
                    f"({x!r},{y!r}) changes")
            checked[name] = perm
        self.generators = checked


@dataclass
class WallAction:
    """Generators must permute the walls: pulled back along the inverse
    of a generator g (:func:`walls._pullback`), every wall of the space
    must stay a wall, that is, its image under g must be one."""

    space: WallSpace
    generators: dict[str, dict]
    basepoint: Point

    def __post_init__(self):
        space = self.space
        space.index(self.basepoint)
        checked = {}
        for name, g in self.generators.items():
            perm = _check_permutation(name, g, space.points)
            inverse = total_image({q: p for p, q in perm.items()}, space, space)
            for k, rule in enumerate(_pullback(space, space, inverse)):
                if rule is None:
                    a, b = space.wall_sides(k)
                    raise InputError(
                        f"generator {name!r} does not preserve the wall "
                        f"({sorted(map(repr, a))} | {sorted(map(repr, b))})")
            checked[name] = perm
        self.generators = checked


@dataclass(frozen=True)
class MetricDisplacement:
    word: tuple[str, ...]
    image: Point
    distance: Fraction          # d(v, gv), exact
    embedded_sq: float          # ||gamma(gv) - gamma(v)||^2
    tol: float

    @property
    def identity_holds(self) -> bool:
        return abs(self.embedded_sq - float(self.distance)) <= self.tol


def displacement_metric(action: MetricAction, word: str | Sequence[str],
                        tol: float = 1e-9,
                        embedding: GnsEmbedding | None = None) -> MetricDisplacement:
    """d(v, gv) exactly, plus the squared displacement of the embedded
    points, which must agree within tol."""
    if not math.isfinite(tol) or tol < 0:
        raise InputError(f"tol must be finite and >= 0, got {tol!r}")
    names = parse_word(word)
    g = apply_word(action.generators, names, action.metric.points)
    v = action.basepoint
    gv = g[v]
    dist = action.metric.dist(v, gv)
    emb = embedding or gns_embed(action.metric, tol=tol)
    sq = emb.distance_sq(v, gv)
    out = MetricDisplacement(tuple(names), gv, dist, sq, tol)
    if not out.identity_holds:
        raise InternalCheckError(
            f"embedded displacement {sq!r} differs from d(v,gv) = {dist}")
    return out


@dataclass(frozen=True)
class WallDisplacement:
    word: tuple[str, ...]
    image: Point
    wall_distance: int          # |v gv|_w
    sigma_symdiff: int          # |sigma_gv symdiff sigma_v|

    @property
    def identity_holds(self) -> bool:
        return self.sigma_symdiff == 2 * self.wall_distance


def displacement_walls(action: WallAction, word: str | Sequence[str]) -> WallDisplacement:
    """(wall distance, halfspace symmetric difference), the second read
    off the sigma bits: twice the first (``wall_metric_recount`` in the
    tests recounts it from the halfspaces)."""
    names = parse_word(word)
    g = apply_word(action.generators, names, action.space.points)
    v = action.basepoint
    gv = g[v]
    wd = action.space.wall_metric(v, gv)
    # sigma_v and sigma_gv choose different sides of each wall where their
    # bits differ, so their halfspaces differ in both sides of it
    return WallDisplacement(tuple(names), gv, wd, 2 * wd)
