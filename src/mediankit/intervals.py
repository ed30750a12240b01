"""The interval kernel: convexity and halfspaces on betweenness bitmasks,
the triple-meet count on packed tables, and the median-closure count on
wall coordinates.

``is_convex`` and ``halfspaces`` read a table ``betw`` of Python ints in
which bit t of ``betw[i][j]`` is set iff t lies in the interval [i,j], as
built by ``FiniteMetric._between`` and ``IntervalStructure.masks``.
``pack`` stores such a table as an (n, n, ceil(n/64)) uint64 array, bit t
at bit t % 64 of word t // 64, and ``meet_counts`` reads that array: it
counts the common points |[i,j] & [j,k] & [k,i]| of every triple with
``np.bitwise_count``, in blocks of consecutive rows i of about
``BLOCK`` triples, in lexicographic order, so a caller that stops at its
first hit reads only the blocks up to it.  ``count_closure``
reads points as wall-coordinate bitvectors, where the median is the
bitwise majority; ``bit_rows`` and ``row_ints`` turn such bitvectors, of
any width, into 0/1 matrices (bit k in column k) and back.

Halfspaces come from covering pairs.  In a finite median algebra, if
[x,y] = {x,y} then every z has median m(x,y,z) in {x,y}, so
H(x,y) = {z : x in [z,y]} and its complement H(y,x) are convex; and every
proper halfspace arises this way (the sides of the Theta-classes of the
algebra's median graph).  Finding the pairs costs O(n^2) and each side
O(n), so no subset scan is needed.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

Table = Sequence[Sequence[int]]

BLOCK = 1 << 14     # entries per block of meet_counts and of the metric's table build


def members(mask: int) -> tuple[int, ...]:
    """Indices of the set bits, ascending; sorting sides by this tuple
    gives the canonical lexicographic order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def words(n: int) -> int:
    """uint64 words per mask of n bits in a packed table."""
    return (n + 63) // 64


def pack(table: Table) -> np.ndarray:
    """The n x n mask table as a packed (n, n, words(n)) uint64 array."""
    width = 8 * words(len(table))
    data = b"".join(m.to_bytes(width, "little") for row in table for m in row)
    return np.frombuffer(data, dtype="<u8").reshape(len(table), len(table), -1)


def unpack(packed: np.ndarray) -> list[list[int]]:
    """The packed table as rows of Python int masks, in one pass over its bytes."""
    n, _, w = packed.shape
    data = packed.astype("<u8", copy=False).tobytes()
    step = 8 * w
    flat = [int.from_bytes(data[k:k + step], "little") for k in range(0, len(data), step)]
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def bit_rows(values: Sequence[int], width: int) -> np.ndarray:
    """Non-negative ints below 2^width as a (len(values), width) uint8
    matrix of their bits, bit k in column k: one ``to_bytes`` row per
    value, unpacked at once."""
    size = (width + 7) // 8
    data = b"".join(v.to_bytes(size, "little") for v in values)
    rows = np.frombuffer(data, dtype=np.uint8).reshape(len(values), size)
    return np.unpackbits(rows, axis=1, count=width, bitorder="little")


def row_ints(bits: np.ndarray) -> list[int]:
    """The rows of a 0/1 uint8 matrix as ints, column k as bit k: the
    inverse of :func:`bit_rows`."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    step = packed.shape[1]
    if not step:
        return [0] * len(bits)
    data = packed.tobytes()
    return [int.from_bytes(data[k:k + step], "little") for k in range(0, len(data), step)]


def meet(packed: np.ndarray, i: int, j: int, k: int) -> int:
    """The mask [i,j] & [j,k] & [k,i] of a packed table."""
    both = packed[i, j] & packed[j, k] & packed[k, i]
    return int.from_bytes(both.astype("<u8", copy=False).tobytes(), "little")


def meet_counts(packed: np.ndarray, ordered: bool
                ) -> Iterator[tuple[int, int, np.ndarray]]:
    """Blocks (a, lo, counts) of the meet counts of a packed table, in
    lexicographic order of the triples (i, j, k): ``counts[i - a, j - lo,
    k - lo]`` is |[i,j] & [j,k] & [k,i]| for the block's rows i = a, a+1,
    ... and every j, k >= lo.  With ``ordered`` every ordered triple
    counts and lo = 0.  Otherwise the table is a metric's (symmetric, with
    [x,x] = {x}), the triples are i < j < k, and lo = a + 1.  An entry that
    is no such triple then either repeats a point, so its count is 1, or
    permutes a triple i < j < k that comes earlier in the same block; so
    the first entry of a block with a given count is such a triple.

    Each block reads views of the table and holds about ``BLOCK``
    entries (one row i at least).  The counts add one popcount per word,
    since a sum over the few words of the last axis costs more than the
    adds."""
    n, _, w = packed.shape
    rev = np.ascontiguousarray(packed.swapaxes(0, 1)) if ordered else packed  # [z,x] at [x, z]
    a = 0
    while a < n:
        lo = 0 if ordered else a + 1
        m = n - lo
        b = min(n, a + max(1, BLOCK // max(1, m * m)))
        both = (packed[a:b, lo:, None, :] & packed[None, lo:, lo:]
                & rev[a:b, None, lo:])
        counts = np.bitwise_count(both[..., 0]).astype(np.int32)
        for x in range(1, w):
            counts += np.bitwise_count(both[..., x])
        yield a, lo, counts
        a = b


def first_hit(a: int, lo: int, hits: np.ndarray) -> tuple[int, int, int] | None:
    """The first triple (i, j, k) of a block with ``hits[i - a, j - lo, k - lo]``, or None."""
    flat = np.flatnonzero(hits)
    if not flat.size:
        return None
    i, j, k = np.unravel_index(int(flat[0]), hits.shape)
    return a + int(i), lo + int(j), lo + int(k)


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
