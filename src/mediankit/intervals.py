"""The interval kernel: betweenness tables packed into uint64 words, and
the triple meet and its blocked count, convexity, halfspaces and the
median-closedness test on them.

A betweenness table over n points is an (n, n, words(n)) uint64 array in
which bit t of ``packed[i, j]`` (bit t % 64 of word t // 64) is set iff t
lies in the interval [i,j], as built by ``FiniteMetric._between`` and
held by ``IntervalStructure.packed``; it is the only form of the table.
``as_int`` reads one mask back, and ``unmask`` as a set of points.
``meet`` is the mask of one triple's common points, and ``meet_counts``
counts the common points |[i,j] & [j,k] & [k,i]|
of every triple with ``np.bitwise_count``, in blocks of consecutive rows
i of about ``BLOCK`` triples, in lexicographic order, so a caller that
stops at its first hit reads only the blocks up to it.
``is_median_closed`` reads points as wall-coordinate bitvectors, where
the median is the bitwise majority, given as a 0/1 matrix (bit k in
column k) and packed the same way by ``pack_bits``.  The bit codecs are
here alone: ``bit_rows`` and ``row_ints`` (``word_ints`` on packed words)
turn bitvectors of any width into such matrices and back, and
``digit_strings`` writes their rows as strings of 0s and 1s.

Point ids have one record, :class:`PointIndex`, checked once where they
come in and shared by every structure made from them (:class:`OnPoints`).

Walls have one record, :class:`WallCodes`: a point is its code, the
sides of the walls it lies on, and the distance of two points is the
number (or measure) of the walls that separate their codes.  Row i of
its n x W 0/1 matrix is point i's code, zero at point 0, with the walls
in the canonical order of their sides (``side_order``); the code ints,
the side masks and the point of each code are read off it once, on first
use, except the side masks that :func:`halfspaces` has already packed.
Wall spaces, median-graph certificates, products of median metrics and
:func:`halfspaces` build it.  Every median is read off it
(``WallCodes.median``, the bitwise majority of three codes); cubulation,
wall pullbacks, cube filling, the L1 embedding, median algebra
halfspaces, retraction, graph wall spaces and DOT export read it too.

The median closure of a set I of bitvectors is the solution set C of
the 2-clauses that every element of I satisfies (Schaefer 1978).  For a
literal L = (bit k, side s) let AND_L and OR_L be the AND and the OR of
the elements of I that hold L; a bitvector is in C iff every literal L it
holds occurs in I and AND_L <= it <= OR_L, so I lies inside C.  These
clauses are closed under resolution, so a prefix (bits 0..k-1) that
meets them and AND_L <= prefix <= OR_L below bit k extends to an element
of C holding L.  Hence I is median-closed (I = C) iff the bit trie of I
misses no branch: no prefix p of an element of I, extended by side s of
bit k, is a prefix of no element of I while (k, s) occurs in I and
AND_L <= p <= OR_L below bit k.  (A solution outside I has a longest
prefix inside the trie, and it names such a branch.)  On a wall space's
codes, C is the set of consistent orientations (Roller's poc-set
duality), and cubulation builds it from the same clause tables.

Halfspaces come from covering pairs.  In a finite median algebra, if
[x,y] = {x,y} then every z has median m(x,y,z) in {x,y}, so
H(x,y) = {z : x in [z,y]} and its complement H(y,x) are convex; and every
proper halfspace arises this way (the sides of the Theta-classes of the
algebra's median graph).  On a packed table the pairs are the entries of
popcount 2, O(n^2 * n/64) popcounts, and each side is one bit of a
column, O(pairs * n) bits, so no subset scan is needed.
"""

from __future__ import annotations

import functools
import operator
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from .errors import InputError

BLOCK = 1 << 14     # entries per block of meet_counts, the metric's table build and
                    # triangle check, and the median-closedness test


def members(mask: int) -> tuple[int, ...]:
    """Indices of the set bits, ascending; sorting sides by this tuple
    gives the canonical lexicographic order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def unmask(points: Sequence, mask: int) -> frozenset:
    """The points at the set bits of a mask over point indices."""
    return frozenset(map(points.__getitem__, members(mask)))


def words(n: int) -> int:
    """uint64 words per mask of n bits in a packed table."""
    return (n + 63) // 64


def pack_rows(values: Sequence[int], width: int) -> np.ndarray:
    """Non-negative ints below 2^width as a (len(values), words(width))
    uint64 array, bit k at bit k % 64 of word k // 64: one ``to_bytes``
    row per value."""
    data = b"".join(map(int.to_bytes, values, repeat(8 * words(width)), repeat("little")))
    return np.frombuffer(data, dtype="<u8").reshape(len(values), words(width))


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """A 0/1 array packed along its last axis of W entries into
    words(W) uint64 words, as :func:`pack_rows` lays out bits."""
    *lead, width = bits.shape
    out = np.zeros((*lead, 8 * words(width)), dtype=np.uint8)
    out[..., :(width + 7) // 8] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view("<u8")


def as_int(mask: np.ndarray) -> int:
    """The uint64 words of one packed mask as an int."""
    return int.from_bytes(mask.astype("<u8", copy=False).tobytes(), "little")


def unpack_bits(packed: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` bits of each mask along the last axis of a
    packed array, as a 0/1 uint8 array: the inverse of :func:`pack_bits`."""
    data = packed.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(data, axis=-1, count=width, bitorder="little")


def bit_rows(values: Sequence[int], width: int) -> np.ndarray:
    """Non-negative ints below 2^width as a (len(values), width) uint8
    matrix of their bits, bit k in column k: :func:`pack_rows`, unpacked
    at once."""
    return unpack_bits(pack_rows(values, width), width)


def word_ints(packed: np.ndarray) -> list[int]:
    """The rows of a (rows, words) uint64 array as ints, one ``tolist`` per word."""
    if not packed.shape[1]:
        return [0] * len(packed)
    out = packed[:, -1].tolist()
    for x in range(packed.shape[1] - 2, -1, -1):
        out = [high << 64 | low for high, low in zip(out, packed[:, x].tolist())]
    return out


def row_ints(bits: np.ndarray) -> list[int]:
    """The rows of a 0/1 uint8 matrix as ints, column k as bit k: the
    inverse of :func:`bit_rows`."""
    return word_ints(pack_bits(bits))


def digit_strings(bits: np.ndarray) -> list[str]:
    """Each row of a 0/1 uint8 matrix as a string of 0s and 1s, column k
    at position k, read as one ``S{width}`` string per row."""
    n, width = bits.shape
    if not width:
        return [""] * n
    digits = np.ascontiguousarray(bits + ord("0"))
    return digits.view(f"S{width}").ravel().astype(str).tolist()


def side_order(sides: np.ndarray) -> np.ndarray:
    """The stable order of the rows of a 0/1 uint8 matrix, one set per row
    (member t in column t), that sorts them as Python sorts their
    ascending member-index lists: the canonical lexicographic order.

    Two such lists are decided at the first column where the sets differ:
    the set holding it comes first unless the other has no member after
    it, and a set that ends where the other goes on comes first.  So each
    row gets one key byte per column, 1 at a member, 2 at a non-member
    before its last member and 0 after it, and the keys are sorted as byte
    strings: one stable ``argsort``."""
    later = np.maximum.accumulate(sides[:, ::-1], axis=1)[:, ::-1]   # a member at t or after
    keys = np.ascontiguousarray(2 * later - sides)
    return np.argsort(keys.view(np.dtype((np.void, sides.shape[1]))).ravel(), kind="stable")


class PointIndex:
    """The one record of a structure's point ids: ``points``, the ids in
    order, and ``positions``, each id's index.  :meth:`checked` checks ids
    from outside; a record made directly is trusted (distinct, hashable
    ids, kept, not copied) and builds ``positions`` on its first lookup."""

    def __init__(self, points: list):
        self.points = points

    @classmethod
    def checked(cls, ids, owner: str, noun: str = "point") -> "PointIndex":
        """The record of ``ids``: nonempty, hashable and distinct, checked
        in that order; ``owner`` names the structure in the empty error."""
        out = cls(list(ids))
        if not out.points:
            raise InputError(f"{owner} needs at least one {noun}")
        try:
            out.positions = dict(zip(out.points, range(len(out.points))))
        except TypeError:
            for p in out.points:
                try:
                    hash(p)
                except TypeError:
                    raise InputError(f"{noun} id {p!r} is not hashable") from None
            raise InputError(f"{noun} ids cannot be indexed") from None
        if len(out.positions) != len(out.points):
            raise InputError(f"duplicate {noun} identifiers")
        return out

    @functools.cached_property
    def positions(self) -> dict:
        return dict(zip(self.points, range(len(self.points))))

    def index(self, p, noun: str = "point") -> int:
        """The index of id ``p``; an unknown or unhashable id is an input
        error that names it as a ``noun``, the caller's word for its ids."""
        try:
            return self.positions[p]
        except (KeyError, TypeError):   # an unhashable id is unknown too
            raise InputError(f"unknown {noun} {p!r}") from None


class OnPoints:
    """A structure on the points of its id record ``_ids``: its
    ``points``, ``index`` and size are the record's."""

    points = property(operator.attrgetter("_ids.points"))
    index = property(operator.attrgetter("_ids.index"))

    def __len__(self) -> int:
        return len(self._ids.points)


class WallCodes:
    """The one wall record of n points and W walls, built from any (n, W)
    0/1 uint8 matrix, one wall per column whose sides are the points at 0
    and the points at 1.

    ``bits`` is that matrix re-based to row 0 (bit k of point i set iff i
    lies off the side of wall k that holds point 0) with its columns sorted
    on those sides (:func:`side_order`); wall k is input column
    ``order[k]``.  It is read-only, since every holder shares it.  The
    rows as ints (``ints``, point i's code), the side of each wall holding
    point 0 as a mask of point indices (``sides``) and the point of each
    code (``point_of``) are built on first use; a builder that has the
    side masks already sets ``sides``."""

    def __init__(self, walls: np.ndarray):
        walls = walls ^ walls[0]
        self.order = side_order(walls.T ^ 1)
        self.bits = walls.take(self.order, axis=1)
        self.bits.flags.writeable = False

    @functools.cached_property
    def ints(self) -> list[int]:
        return row_ints(self.bits)

    @functools.cached_property
    def sides(self) -> list[int]:
        full = (1 << len(self.bits)) - 1
        return [full ^ off for off in row_ints(self.bits.T)]

    @functools.cached_property
    def point_of(self) -> dict[int, int]:
        return dict(zip(self.ints, range(len(self.bits))))

    def median(self, i: int, j: int, k: int) -> int:
        """The point whose code is the bitwise majority of the codes of
        points i, j and k: their median, when the codes are a median
        space's walls."""
        a, b, c = self.ints[i], self.ints[j], self.ints[k]
        return self.point_of[a & b | b & c | a & c]


def meet(packed: np.ndarray, i: int, j: int, k: int) -> int:
    """The mask [i,j] & [j,k] & [k,i] of a packed table."""
    return as_int(packed[i, j] & packed[j, k] & packed[k, i])


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


def is_convex(packed: np.ndarray, mask: int) -> bool:
    """Whether every interval between two members of ``mask`` lies inside
    it: the members' sub-table has no bit outside the mask."""
    idx = members(mask)
    outside = ~pack_rows([mask], len(packed))[0]
    return not (packed[np.ix_(idx, idx)] & outside).any()


def halfspaces(packed: np.ndarray) -> tuple[WallCodes, list[tuple[tuple[int, int], ...]]]:
    """The proper halfspaces of the median algebra of a packed table, as
    the record of their walls, with the covering pairs of each wall.

    The covering pairs (x, y), x < y, are the entries [x,y] above the
    diagonal of popcount 2 (an interval holds its ends), and H(x,y) = {z : x in [z,y]} is bit x
    of column y.  H(x,y) and its complement are the sides of one wall, so
    the pairs whose H, re-based to point 0, agree are one wall: its column
    is its first pair's, and its pairs are listed in row-major order.  The
    record's ``sides`` are the complements of the off-masks packed to
    group the pairs, so its columns are not packed again.
    """
    counts = np.bitwise_count(packed).sum(axis=-1)
    xs, ys = np.nonzero(np.triu(counts == 2, 1))
    inside = (packed[:, ys, xs >> 6] >> (xs & 63).astype(np.uint64) & 1).astype(np.uint8)
    off = inside ^ inside[0]        # [z, pair]: z lies off the side holding point 0
    by_wall: dict[int, list[int]] = {}
    for k, key in enumerate(row_ints(off.T)):
        by_wall.setdefault(key, []).append(k)
    groups = list(by_wall.values())
    codes = WallCodes(off.take([group[0] for group in groups], axis=1))
    order = codes.order.tolist()
    offs = list(by_wall)
    full = (1 << len(packed)) - 1
    codes.sides = [full ^ offs[t] for t in order]     # the masks packed above
    pairs = list(zip(xs.tolist(), ys.tolist()))
    return codes, [tuple(map(pairs.__getitem__, groups[t])) for t in order]


# each byte with its bits in reverse order
_REVERSED = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)
# level t of a block of 32 levels sits at bit 31 - t of its keys, and the
# levels below it at the bits below
_LEVELS = np.uint64(1) << np.arange(31, -1, -1, dtype=np.uint64)
_BELOW = _LEVELS - np.uint64(1)


def _clauses(columns: np.ndarray, ones: np.ndarray, m: int, lower: np.ndarray,
             a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2-clauses of an image of m elements between the literals of
    bits a <= k < b and the bits j < k, as word-major tables (force,
    value) of shape (words(b), 2, b - a).  For the literal L = (k, s),
    word x of ``force[:, s, k - a]`` marks the bits j < k that L fixes
    (AND_L holds bit j, or OR_L lacks it) and ``value[:, s, k - a]`` the
    value they are fixed to, the bits of AND_L.  A bitvector meets every
    clause between L and the bits below k iff its words masked by
    ``force`` equal ``value``.

    ``columns[x, k]`` is word x of the set of elements holding bit k,
    ``ones[k]`` its size, and ``lower[k, j]`` says j < k.  The clauses
    come from the co-occurrence counts of each bit k with the bits j < b,
    added up with ``np.bitwise_count`` one word of elements at a time."""
    both = np.zeros((b - a, b), dtype=np.int32)        # [k - a, j]: elements holding k and j
    for word in columns:
        both += np.bitwise_count(word[a:b, None] & word[None, :b])
    hi, lo = ones[a:b, None], ones[None, :b]
    # [t, k - a, j]: L = (k, t % 2) fixes bit j to 1 (t < 2) or to 0 (t >= 2)
    fixed = np.empty((4, b - a, b), dtype=bool)
    for t, count in enumerate((hi + lo - m, hi, lo, 0)):
        np.equal(both, count, out=fixed[t])
    fixed &= lower[a:b, :b]
    fixes = np.ascontiguousarray(pack_bits(fixed).transpose(2, 0, 1))     # [word, t, k - a]
    return fixes[:, :2] | fixes[:, 2:], fixes[:, :2]


def _clause_inputs(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """The leading arguments (columns, ones, m, lower) of :func:`_clauses`
    for the set of rows of a 0/1 uint8 matrix, bit k in column k."""
    columns = np.ascontiguousarray(pack_bits(bits.T).T)    # [word, k]: elements holding bit k
    m, width = bits.shape
    return columns, bits.sum(axis=0, dtype=np.int64), m, np.tri(width, k=-1, dtype=bool)


def is_median_closed(bits: np.ndarray) -> bool:
    """Whether the set of rows of the 0/1 uint8 matrix ``bits`` (a
    bitvector per row, bit k in column k, :func:`bit_rows`) is closed
    under the bitwise majority: whether it is its own median closure, the
    solution set of the 2-clauses that its elements satisfy.

    The test is the criterion of the module docstring, run over the
    levels k of the set's bit trie 32 at a time.  Every element meets the
    clauses of each literal it holds, since it is one of the elements they
    come from, so the set fails only where a missing branch's side occurs
    and its prefix meets that literal's clauses.  The side of a missing
    branch at a constant bit occurs in no element; at any other bit both
    sides occur, and the prefix, an element's, meets its own side's
    clauses, so the missing side's clauses hold iff both sides' do.  The
    trie's nodes in a block of levels are the distinct prefixes of the
    elements through the block, as sorted keys (the rank of the prefix of
    the earlier levels, then the block's bits in reverse order), so a
    branch is present iff a key lies in the range that its prefix spans:
    one ``searchsorted`` per block.  A block with no missing branch at a
    varying bit builds no clause table; otherwise one element per
    distinct prefix is tested against the block's clauses
    (:func:`_clauses`), one word at a time, both sides of each level at
    once, in chunks of about ``BLOCK`` (element, level) pairs.

    For n elements and W bits this costs O(n * W * W / 64) word
    operations.  There are ceil(W/32) blocks, each of O(n/64) numpy steps
    on 32 x W counts and O(n * 32/BLOCK * W/64) steps on chunks of about
    ``BLOCK`` pairs, so up to 64 bits and 512 elements take a fixed
    number of numpy calls."""
    columns, ones, n, lower = _clause_inputs(bits)
    width = bits.shape[1]
    varies = (ones > 0) & (ones < n)                    # both sides of bit k occur
    rows = pack_bits(bits)
    # block h of 32 levels, bit 32h + t at bit 31 - t
    reversed_bits = _REVERSED[rows.view(np.uint8)].view(">u4").astype(np.uint64)
    rank = np.zeros(n, dtype=np.uint64)
    for a in range(0, width, 32):
        b = min(width, a + 32)
        prefixes = rank << np.uint64(32) | reversed_bits[:, a // 32]
        keys, first = np.unique(prefixes, return_index=True)
        rank = keys.searchsorted(prefixes).astype(np.uint64)
        # the keys through level t with bit 31 - t flipped span [lo, lo | below];
        # the least key from lo on (or the greatest key) lies outside iff none lies inside
        below = _BELOW[:b - a]
        lo = (keys[:, None] ^ _LEVELS[:b - a]) & ~below
        missing = keys.take(keys.searchsorted(lo), mode="clip") ^ lo > below
        # a missing branch of a constant bit is a side that no element holds
        missing &= varies[a:b]
        if not missing.any():
            continue
        x = np.ascontiguousarray(rows[first].T)          # [word, key]
        force, value = _clauses(columns, ones, n, lower, a, b)
        step = max(1, BLOCK // (b - a))
        for r in range(0, len(keys), step):
            clash = np.zeros((len(keys[r:r + step]), 2, b - a), dtype=np.uint64)
            part = np.empty_like(clash)
            for word, f, v in zip(x, force, value):
                np.bitwise_and(word[r:r + step, None, None], f, out=part)
                part ^= v
                clash |= part
            # the missing side meets its clauses iff both sides do
            if (((clash[:, 0] | clash[:, 1]) == 0) & missing[r:r + step]).any():
                return False
    return True
