"""The interval kernel: convexity and halfspaces on betweenness bitmasks.

Both functions read a symmetric table ``betw`` in which bit t of
``betw[i][j]`` is set iff t lies in the interval [i,j], as built by
``FiniteMetric._between`` and ``FiniteMedianAlgebra._masks``.

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
