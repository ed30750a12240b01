"""The interval kernel: convexity and halfspaces on betweenness bitmasks,
and the median-closure count on wall coordinates.

``is_convex`` and ``halfspaces`` read a symmetric table ``betw`` in which
bit t of ``betw[i][j]`` is set iff t lies in the interval [i,j], as built
by ``FiniteMetric._between`` and ``FiniteMedianAlgebra._masks``.
``count_closure`` reads points as wall-coordinate bitvectors, where the
median is the bitwise majority.

Halfspaces come from covering pairs.  In a finite median algebra, if
[x,y] = {x,y} then every z has median m(x,y,z) in {x,y}, so
H(x,y) = {z : x in [z,y]} and its complement H(y,x) are convex; and every
proper halfspace arises this way (the sides of the Theta-classes of the
algebra's median graph).  Finding the pairs costs O(n^2) and each side
O(n), so no subset scan is needed.
"""

from __future__ import annotations

from typing import Sequence

Table = Sequence[Sequence[int]]


def members(mask: int) -> tuple[int, ...]:
    """Indices of the set bits, ascending; sorting sides by this tuple
    gives the canonical lexicographic order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def is_convex(betw: Table, mask: int) -> bool:
    """Whether every interval between two members of ``mask`` lies inside it."""
    outside = ~mask
    idx = members(mask)
    for k, a in enumerate(idx):
        row = betw[a]
        for b in idx[k + 1:]:
            if row[b] & outside:
                return False
    return True


def halfspaces(betw: Table, within: int | None = None
               ) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Proper halfspaces of the median algebra on ``within``.

    ``within`` is a convex mask (default: every point), so its intervals
    are those of the table.  Each wall appears once, by its side holding
    the lowest index of ``within``, paired with the covering pairs
    (x, y), x < y, whose H(x,y) is that side or its complement.  Entries
    are sorted lexicographically on the side.
    """
    if within is None:
        within = (1 << len(betw)) - 1
    first = within & -within
    idx = members(within)
    by_side: dict[int, list[tuple[int, int]]] = {}
    for k, x in enumerate(idx):
        row = betw[x]
        for y in idx[k + 1:]:
            if row[y] != (1 << x) | (1 << y):
                continue
            side = 0
            for z in idx:
                if betw[z][y] >> x & 1:
                    side |= 1 << z
            if not side & first:
                side = within & ~side
            by_side.setdefault(side, []).append((x, y))
    return sorted(((side, tuple(pairs)) for side, pairs in by_side.items()),
                  key=lambda entry: members(entry[0]))


def count_closure(image_bits: Sequence[int], width: int, limit: int) -> int:
    """Number of bitvectors of ``width`` bits satisfying every 2-clause
    (and unit clause) that all of ``image_bits`` satisfy, counted up to
    ``limit + 1``.

    A set of bitvectors is closed under the majority median iff it is the
    solution set of a 2-CNF (Schaefer 1978), so this counts the median
    closure of the image; it equals ``len(image_bits)`` for distinct
    elements iff the image is median-closed.  The search assigns bits in
    index order and takes value s of bit k only if some image element has
    it and every earlier chosen literal occurs with it in some image
    element.  The clause set is closed under resolution, so every partial
    assignment extends: the search never dead-ends and visits at most
    (limit + 1) * (width + 1) nodes.
    """
    occ = [[0, 0] for _ in range(width)]    # occ[k][s]: image elements with bit k == s
    for e, bits in enumerate(image_bits):
        for k in range(width):
            occ[k][bits >> k & 1] |= 1 << e
    # compat[k][s]: literals 2l+t (l < k) occurring together with (k, s)
    compat = [[sum(1 << (2 * l + t) for l in range(k) for t in (0, 1)
                   if occ[l][t] & occ[k][s]) for s in (0, 1)] for k in range(width)]
    count = 0
    stack = [(0, 0)]                      # (next bit, chosen literals)
    while stack:
        k, path = stack.pop()
        if k == width:
            count += 1
            if count > limit:
                break
            continue
        for s in (0, 1):
            if occ[k][s] and not path & ~compat[k][s]:
                stack.append((k + 1, path | 1 << (2 * k + s)))
    return count
