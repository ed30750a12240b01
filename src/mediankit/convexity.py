"""Uniform convexity utilities: circumcenters of finite point sets in
euclidean space, the CAT(0) midpoint (CN) inequality, the empirical
midpoint-contraction modulus, and affine-defect checks behind the
Mazur-Ulam theorem.

Circumcenters are restricted to the euclidean norm: l1 and linf are not
strictly convex, so minimizers need not be unique there, and requests fail
loudly instead of returning an arbitrary center.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, InternalCheckError, UnsupportedNormError

EUCLIDEAN = "euclidean"
SUPPORTED_NORMS = ("euclidean", "l1", "linf")


def vector_norm(v: np.ndarray, norm: str | float = EUCLIDEAN) -> float:
    if norm == EUCLIDEAN:
        return float(np.linalg.norm(v))
    if norm == "l1":
        return float(np.abs(v).sum())
    if norm == "linf":
        return float(np.abs(v).max()) if v.size else 0.0
    if isinstance(norm, (int, float)):
        if norm < 1:
            raise InputError(f"p-norm needs p >= 1, got {norm}")
        return float((np.abs(v) ** norm).sum() ** (1.0 / norm)) if v.size else 0.0
    raise InputError(f"unknown norm {norm!r}")


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray          # shape (m, d)
    norm: str | float = EUCLIDEAN

    @staticmethod
    def build(points: Sequence[Sequence[float]],
              norm: str | float = EUCLIDEAN) -> "PointCloud":
        try:
            arr = np.asarray(points, dtype=float)
        except OverflowError:
            raise InputError("point cloud is out of double-precision range") from None
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise InputError("point cloud must be a nonempty list of vectors")
        if not np.isfinite(arr).all():
            raise InputError("point cloud has non-finite coordinates")
        return PointCloud(arr, norm)


@dataclass(frozen=True)
class CircumcenterResult:
    center: np.ndarray
    radius: float               # max distance from center to the points
    iterations: int
    certificate: float          # recomputed max distance (== radius)
    support: tuple[int, ...]    # indices the final ball rests on


def circumradius_at(cloud: PointCloud, x: np.ndarray) -> float:
    """r(x) = max over the cloud of the distance from x."""
    return max(vector_norm(p - x, cloud.norm) for p in cloud.points)


def _circumsphere(pts: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Sphere through all pts with center in their affine hull; None when
    the points are affinely dependent."""
    a0 = pts[0]
    if len(pts) == 1:
        return a0.copy(), 0.0
    v = pts[1:] - a0
    gram = 2.0 * (v @ v.T)
    rhs = np.einsum("ij,ij->i", v, v)
    try:
        t = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.allclose(gram @ t, rhs, rtol=1e-9, atol=1e-12):
        return None
    center = a0 + t @ v
    radius = float(np.linalg.norm(center - a0))
    return center, radius


def _ball_of_support(pts: np.ndarray) -> tuple[np.ndarray, float, tuple[int, ...]]:
    """Exact minimum enclosing ball of <= d+2 points: best feasible
    circumsphere over all subsets."""
    m = len(pts)
    best = None
    for r in range(1, m + 1):
        for subset in itertools.combinations(range(m), r):
            got = _circumsphere(pts[list(subset)])
            if got is None:
                continue
            center, radius = got
            dists = np.linalg.norm(pts - center, axis=1)
            if dists.max() <= radius * (1 + 1e-12) + 1e-12:
                if best is None or radius < best[1]:
                    best = (center, radius, subset)
    if best is None:
        raise InternalCheckError("no feasible ball over a finite support set")
    return best


def circumcenter(cloud: PointCloud, tol: float = 1e-9,
                 seed: int = 0) -> CircumcenterResult:
    """Minimize the circumradius function over euclidean space.

    Support-set pivoting: keep a small support whose exact ball is known,
    repeatedly pull in the farthest outside point and re-solve the exact
    ball of the enlarged support.  The support-ball radius strictly grows,
    so the walk terminates; the returned radius is the recomputed maximum
    distance, so the certificate is exact regardless of the path taken.
    """
    if cloud.norm != EUCLIDEAN:
        raise UnsupportedNormError(
            f"circumcenter needs the euclidean norm; {cloud.norm!r} is not "
            "uniformly convex at this level")
    if not math.isfinite(tol) or tol <= 0:
        raise InputError(f"tol must be finite and > 0, got {tol!r}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _pivot(cloud.points, tol, seed)
    except FloatingPointError as exc:
        raise InputError(
            f"point cloud is out of double-precision range ({exc})") from None


def _pivot(pts: np.ndarray, tol: float, seed: int) -> CircumcenterResult:
    """The support-set pivoting of :func:`circumcenter`."""
    m = len(pts)
    rng = random.Random(seed)
    support = [rng.randrange(m)]
    center, radius, _ = _ball_of_support(pts[support])
    iterations = 0
    stale = 0
    while True:
        dists = np.linalg.norm(pts - center, axis=1)
        far = int(dists.argmax())
        if dists[far] <= radius + tol:
            break
        iterations += 1
        if far not in support:
            support.append(far)
        sub = pts[support]
        center, new_radius, keep = _ball_of_support(sub)
        support = [support[i] for i in keep]
        if new_radius <= radius:
            stale += 1
            if stale > m + 8:   # float ties; the certificate below stays exact
                break
        else:
            stale = 0
        radius = new_radius
    certificate = float(np.linalg.norm(pts - center, axis=1).max())
    return CircumcenterResult(center=center, radius=certificate,
                              iterations=iterations, certificate=certificate,
                              support=tuple(sorted(support)))


@dataclass(frozen=True)
class CnReport:
    lhs: float                  # |z m|
    rhs: float                  # sqrt((|zx|^2+|zy|^2)/2 - |xy|^2/4)
    holds: bool
    equality: bool


def check_cn_inequality(z, x, y, tol: float = 1e-9) -> CnReport:
    """|z m| <= sqrt((|zx|^2 + |zy|^2)/2 - |xy|^2/4) with m the midpoint;
    in euclidean space this is the parallelogram law, an equality."""
    z, x, y = (np.asarray(v, dtype=float) for v in (z, x, y))
    m = (x + y) / 2
    lhs = float(np.linalg.norm(z - m))
    inner = (np.linalg.norm(z - x) ** 2 + np.linalg.norm(z - y) ** 2) / 2 \
        - np.linalg.norm(x - y) ** 2 / 4
    rhs = math.sqrt(max(inner, 0.0))
    return CnReport(lhs, rhs, lhs <= rhs + tol, abs(lhs - rhs) <= tol)


def midpoint_contraction_ratio(z, x, y) -> float:
    """|z m_xy| / max(|z x|, |z y|); the quantity uniform convexity bounds."""
    z, x, y = (np.asarray(v, dtype=float) for v in (z, x, y))
    denom = max(float(np.linalg.norm(z - x)), float(np.linalg.norm(z - y)))
    if denom == 0:
        raise InputError("z coincides with both endpoints")
    return float(np.linalg.norm(z - (x + y) / 2)) / denom


@dataclass(frozen=True)
class ModulusReport:
    eps: float
    worst_ratio: float
    bound: float                # sqrt(1 - eps^2/4)
    holds: bool
    samples: int
    seed: int


def uniform_convexity_modulus(samples: int, eps: float, dim: int = 2,
                              seed: int = 0, tol: float = 1e-12) -> ModulusReport:
    """Empirical worst midpoint-contraction ratio over seeded triples with
    |x y| >= eps * max(|z x|, |z y|), compared against the CN-derived bound
    sqrt(1 - eps^2/4).

    Near eps = 2 the constraint forces degenerate collinear configurations
    that rejection sampling cannot hit; exercise those with
    :func:`midpoint_contraction_ratio` directly.
    """
    if not 0 < eps <= 2:
        raise InputError("eps must lie in (0, 2]")
    rng = np.random.default_rng(seed)
    worst = 0.0
    used = 0
    attempts = 0
    while used < samples and attempts < 200 * samples:
        attempts += 1
        z, x, y = rng.standard_normal((3, dim))
        denom = max(np.linalg.norm(z - x), np.linalg.norm(z - y))
        if denom == 0 or np.linalg.norm(x - y) < eps * denom:
            continue
        used += 1
        worst = max(worst, midpoint_contraction_ratio(z, x, y))
    bound = math.sqrt(max(1 - eps * eps / 4, 0.0))
    return ModulusReport(eps, worst, bound, worst <= bound + tol, used, seed)


def affine_defect(f: Callable[[np.ndarray], np.ndarray], x, y,
                  norm: str | float = EUCLIDEAN, *, isometry: bool = False,
                  tol: float = 1e-9) -> float:
    """||f((x+y)/2) - (f(x)+f(y))/2||; zero for affine maps.

    When the map is flagged an isometry the uniform bound ||x-y||/2 is
    asserted (it holds for every isometry by the triangle inequality).
    For bijective isometries, conjugating with the reflection through the
    image midpoint doubles the defect, so the uniform bound forces it to
    zero; a nonzero-defect bijective isometry therefore cannot exist, and
    the doubling identity is only ever observed as 0 = 2*0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mid = (x + y) / 2
    defect = vector_norm(np.asarray(f(mid), dtype=float)
                         - (np.asarray(f(x), dtype=float)
                            + np.asarray(f(y), dtype=float)) / 2, norm)
    if isometry:
        bound = vector_norm(x - y, norm) / 2
        if defect > bound + tol:
            raise InternalCheckError(
                f"affine defect {defect} exceeds the isometry bound {bound}")
    return defect


def is_affine(f: Callable[[np.ndarray], np.ndarray], dim: int,
              pairs: int = 64, seed: int = 0, tol: float = 1e-9,
              norm: str | float = EUCLIDEAN) -> bool:
    """Zero affine defect over a seeded sample of pairs."""
    rng = np.random.default_rng(seed)
    for _ in range(pairs):
        x, y = rng.standard_normal((2, dim)) * 3
        if affine_defect(f, x, y, norm) > tol:
            return False
    return True
