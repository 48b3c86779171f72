"""Set families over [n], tuple systems, and the parity verification predicates.

All verifiers are exhaustive and report violation witnesses as 1-based index
tuples together with the observed size/parity and the expected condition.
Duplicate sets inside a family are legal; everything is checked by index.

Families, tuple systems and covers (in ``covers``) hold their sets one way:
as one read-only uint8 array in the ``gf2._row_bytes`` layout (``_Packed``).

The grid verifiers (oddtown families, tuples and skew pairs here; covers,
parity differences and bicliques in ``covers``) share one parity kernel over
the m^k index tuples of such a (k, m, w) array, refused above
``MAX_SCAN_CELLS`` tuples.  It drops the byte columns no set reaches, splits
the coordinates in two halves, ANDs each half's rows per half-tuple by one
gather (the left half a block of bounded cells and bytes at a time), and
counts every left x right intersection of a block exactly, a slice of the
bits at a time.  A bit held by c_L left and c_R right rows adds 1 to c_L*c_R
cells: the bits for which that is few next to the block's cells are counted
pair by pair into one ``np.bincount``, the others by a float32 product of 0/1
bit matrices, so a near-exact cover costs about one term per covered cell
while a full product such as [n]^k is one column of the product.  Besides the
input and the right half the temporaries stay a few tens of MB whatever m^k
and the row width are.  The caller gives the cells that must be odd as an
array per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb, prod
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import gf2

DEFAULT_VIOLATION_CAP = 16
MAX_SCAN_CELLS = 10**8  # largest index grid a parity scan walks; larger ones raise ValueError
_SCAN_BLOCK_CELLS = 1 << 19  # cells of the grid counted at once (left rows x right tuples)
_SCAN_BLOCK_ENTRIES = 1 << 19  # entries of one 0/1 float32 operand of a count product
_SCAN_BLOCK_BYTES = 1 << 24  # packed bytes of one block of left rows
# ``_and_counts`` counts a bit pair by pair when its c_L*c_R pairs times
# _PAIR_COST are fewer than the block's cells, and by the float32 product
# otherwise.  On one 2-vCPU machine, one BLAS thread, 128-4096 swept over random
# covers (k = 3, 4, 6, parts 3-30 % full) and three constructions: 128-256 were
# fastest on the random covers (k = 3, n = 60: 50-67 ms against 80 ms at 1,024
# and 92 ms at 4,096), the constructions did not move.
_PAIR_COST = 256
# A slice of a block is listed from its nonzero bytes when at most 1/_LIST_SHARE
# of them are nonzero, else unpacked and summed.  Same machine, 400 x 1,248
# random bits: unpacking and summing takes 0.16 ms at any density, listing 0.06
# ms at 0.4 % nonzero bytes and 0.47 ms at 7.7 %; but a listing is needed
# anyway for the bits counted pair by pair, and 2-16 swept alike.
_LIST_SHARE = 8
# the number of set bits of each byte value
_BYTE_SIZES = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.uint8)


@dataclass(frozen=True)
class SubsetBits:
    """Subset of {1, ..., ground_size} as a bitmask (element e <-> bit e-1)."""

    ground_size: int
    bits: int

    def __post_init__(self) -> None:
        if self.ground_size < 0:
            raise ValueError("ground size must be nonnegative")
        if self.bits < 0 or self.bits >> self.ground_size:
            raise ValueError("membership bits extend beyond the ground set")

    @classmethod
    def from_elements(cls, ground_size: int, elements: Iterable[int]) -> "SubsetBits":
        bits = 0
        for e in elements:
            if not (1 <= e <= ground_size):
                raise ValueError(f"element {e} outside [1, {ground_size}]")
            bits |= 1 << (e - 1)
        return cls(ground_size, bits)

    @classmethod
    def full(cls, ground_size: int) -> "SubsetBits":
        return cls(ground_size, (1 << ground_size) - 1)

    def elements(self) -> tuple[int, ...]:
        out, bits = [], self.bits
        while bits:
            low = bits & -bits  # the lowest set bit
            out.append(low.bit_length())
            bits ^= low
        return tuple(out)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    @property
    def parity(self) -> int:
        return self.size & 1

    def __contains__(self, element: int) -> bool:
        return 1 <= element <= self.ground_size and bool((self.bits >> (element - 1)) & 1)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Packed:
    """Sets over [n] held as one read-only uint8 array whose last axis is one set
    in the ``gf2._row_bytes`` layout: ceil(n/8) bytes, element e at bit (e-1) % 8
    of byte (e-1) // 8.  Sets given as objects (``_OBJECTS``, turned into masks
    by ``_masks``) are packed, not kept: the object view is built on first
    access.  Read-only values, equal when fields and array are.  ``lead`` is the
    array's shape before the byte axis, None where any length goes."""

    def __init__(self, n: int, given: Iterable, array: Optional[np.ndarray], lead: tuple, /, **fields):
        self.__dict__.update(fields, _fields=tuple(fields.values()))
        if n < 0:
            raise ValueError("ground size must be nonnegative")
        width = (n + 7) // 8
        given = tuple(given)
        if array is None:
            shape = tuple(len(given) if d is None else d for d in lead)
            array = gf2._row_bytes(self._masks(given), width).reshape(*shape, width)
        elif given:
            raise ValueError(f"give a {self._NOUN} its {self._OBJECTS} or its {self._ARRAY}, not both")
        want = lead + (width,)
        if not (isinstance(array, np.ndarray) and array.dtype == np.uint8
                and array.ndim == len(want) and not array.flags.writeable
                and all(d in (None, size) for d, size in zip(want, array.shape))):
            dims = ", ".join("S" if d is None else str(d) for d in want)
            raise ValueError(f"{self._ARRAY} must be a read-only uint8 array of shape ({dims})")
        if n % 8 and (array[..., -1] >> n % 8).any():
            raise ValueError("membership bits extend beyond the ground set")
        self.__dict__[self._ARRAY] = array

    def _view(self, n: int) -> tuple:
        """The sets as ``SubsetBits``, nested as the array's leading axes."""
        array = getattr(self, self._ARRAY)
        masks = gf2._row_ints(array.reshape(prod(array.shape[:-1]), array.shape[-1]))
        return _nest([SubsetBits(n, bits) for bits in masks], array.shape[:-1])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self._fields == other._fields
                and np.array_equal(getattr(self, self._ARRAY), getattr(other, self._ARRAY)))


class SetFamily(_Packed):
    """Ordered, index-addressed family of subsets of a common ground set, held
    as one (m, ceil(n/8)) array ``rows``."""

    _ARRAY, _OBJECTS, _NOUN = "rows", "sets", "family"

    def __init__(self, ground_size: int, sets: Iterable[SubsetBits] = (),
                 *, rows: Optional[np.ndarray] = None):
        super().__init__(ground_size, sets, rows, (None,), ground_size=ground_size)

    def _masks(self, sets: tuple) -> list[int]:
        for i, s in enumerate(sets):
            if s.ground_size != self.ground_size:
                raise ValueError(f"set {i + 1} has ground size {s.ground_size}, expected {self.ground_size}")
        return [s.bits for s in sets]

    @classmethod
    def from_lists(cls, ground_size: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        return cls(ground_size, tuple(SubsetBits.from_elements(ground_size, s) for s in sets))

    @cached_property
    def sets(self) -> tuple[SubsetBits, ...]:
        return self._view(self.ground_size)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> SubsetBits:
        return self.sets[i]


class TupleSystem(_Packed):
    """k ordered families of m subsets each, a candidate (k,t)-tuple, held as one
    (k, m, ceil(n/8)) array ``rows``: rows[j, i] is A_{j+1,i+1}."""

    _ARRAY, _OBJECTS, _NOUN = "rows", "families", "tuple system"

    def __init__(self, k: int, t: int, m: int, ground_size: int,
                 families: Iterable[Sequence[SubsetBits]] = (), *, rows: Optional[np.ndarray] = None):
        if k < 2:
            raise ValueError("k must be at least 2")
        if not (2 <= t <= k):
            raise ValueError("t must satisfy 2 <= t <= k")
        super().__init__(ground_size, families, rows, (k, m), k=k, t=t, m=m, ground_size=ground_size)

    def _masks(self, families: tuple) -> list[int]:
        if [len(fam) for fam in families] != [self.m] * self.k:
            raise ValueError(f"expected {self.k} families of {self.m} sets")
        if any(s.ground_size != self.ground_size for fam in families for s in fam):
            raise ValueError("all subsets must share the tuple's ground size")
        return [s.bits for fam in families for s in fam]

    @classmethod
    def diagonal(cls, family: SetFamily, k: int, t: int) -> "TupleSystem":
        """The tuple with every one of the k families equal to ``family``."""
        rows = np.broadcast_to(family.rows, (max(k, 0), *family.rows.shape))  # k < 2 raises below
        return cls(k, t, len(family), family.ground_size, rows=rows)

    @cached_property
    def families(self) -> tuple[tuple[SubsetBits, ...], ...]:
        return self._view(self.ground_size)


@dataclass(frozen=True)
class Violation:
    indices: tuple[int, ...]
    observed: int
    expected: str


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    violations: tuple[Violation, ...] = field(default_factory=tuple)
    truncated: bool = False

    def __bool__(self) -> bool:
        return self.valid


class _Collector:
    """Gathers violations in scan order (lexicographic) up to a cap."""

    def __init__(self, cap: int):
        self.cap = cap
        self.items: list[Violation] = []
        self.truncated = False

    def add(self, indices: tuple[int, ...], observed: int, expected: str) -> bool:
        """Record one violation; returns False once the cap is hit."""
        self.items.append(Violation(indices, observed, expected))
        if len(self.items) >= self.cap:
            self.truncated = True
            return False
        return True

    def report(self) -> VerifyReport:
        return VerifyReport(not self.items, tuple(self.items), self.truncated)


def _nest(items: list, lead: tuple) -> tuple:
    """Items in row-major order as tuples nested in the shape ``lead``."""
    for axis in range(len(lead) - 1, 0, -1):
        items = [tuple(items[i * lead[axis]:(i + 1) * lead[axis]]) for i in range(prod(lead[:axis]))]
    return tuple(items)


def _element_lists(array: np.ndarray) -> tuple:
    """The element lists of packed sets (the ``gf2._row_bytes`` layout on the last
    axis), nested as the array's leading axes; equal rows share one list."""
    rows = array.reshape(prod(array.shape[:-1]), array.shape[-1])
    if not rows.size:
        return _nest([[] for _ in rows], array.shape[:-1])
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[1]))).ravel()
    distinct, inverse = np.unique(keys, return_inverse=True)
    bits = np.unpackbits(distinct.view(np.uint8).reshape(len(distinct), -1), axis=1,
                         bitorder="little")
    table = [(np.flatnonzero(row) + 1).tolist() for row in bits]
    return _nest([table[i] for i in inverse.tolist()], array.shape[:-1])


def _check_scan_size(count: int, what: str) -> None:
    if count > MAX_SCAN_CELLS:
        raise ValueError(f"{what} exceed the scan limit of {MAX_SCAN_CELLS}")


def _tuples(lo: int, hi: int, m: int, width: int) -> np.ndarray:
    """The index tuples lo, ..., hi-1 of [m]^width in lexicographic order, one per row."""
    return np.stack(np.unravel_index(np.arange(lo, hi), (m,) * width), axis=1)


def _and_rows(rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The AND over j of the packed rows rows[j, idx[:, j]]: one row per index tuple."""
    out = rows[0, idx[:, 0]]
    for j in range(1, idx.shape[1]):
        out &= rows[j, idx[:, j]]
    return out


def _bit_slice(packed: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Bits lo, ..., hi-1 of rows packed little-endian (``gf2._row_bytes``), as 0/1 uint8."""
    part = np.unpackbits(packed[:, lo // 8:(hi + 7) // 8], axis=1, bitorder="little")
    return part[:, lo % 8:lo % 8 + hi - lo]


def _set_bits(packed: np.ndarray, lo: int, chosen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The set bits g of rows packed little-endian (``gf2._row_bytes``) with
    chosen[g - lo], as arrays of their rows and of g - lo.  Only the byte columns
    holding a chosen bit are read, a 64-bit word at a time, and only the nonzero
    bytes are unpacked."""
    at = np.zeros(8 * ((lo % 8 + len(chosen) + 7) // 8) + 8, dtype=bool)
    at[lo % 8:lo % 8 + len(chosen)] = chosen  # by bit of the byte columns from lo // 8, one spare
    cols = np.flatnonzero(at.reshape(-1, 8).any(axis=1))
    flat = np.zeros((len(packed), -(-len(cols) // 8) * 8), dtype=np.uint8)  # rows of whole words
    flat[:, :len(cols)] = packed[:, lo // 8 + cols]
    lanes = flat.view(np.uint64).ravel()
    words = np.flatnonzero(lanes)
    where = np.flatnonzero(lanes[words].view(np.uint8))
    where = 8 * words[where >> 3] + (where & 7)  # the nonzero bytes of ``flat``
    ones = np.flatnonzero(np.unpackbits(flat.ravel()[where], bitorder="little"))
    rows, col = np.divmod(where[ones >> 3], flat.shape[1])
    bit = 8 * cols[col] + (ones & 7)
    keep = at[bit]
    return rows[keep], bit[keep] - lo % 8


def _slice_counts(packed: np.ndarray, lo: int, hi: int) -> tuple[Optional[np.ndarray], Optional[tuple]]:
    """How many rows hold each bit lo <= g < hi, or None when no row holds any; and
    the ``_set_bits`` listing of every bit when at most 1/_LIST_SHARE of the
    slice's bytes are nonzero, else None (the slice is unpacked and summed)."""
    block = packed[:, lo // 8:(hi + 7) // 8]
    nonzero = np.count_nonzero(block)
    if not nonzero:
        return None, None
    if nonzero * _LIST_SHARE > block.size:
        return _bit_slice(packed, lo, hi).sum(axis=0, dtype=np.int32).astype(np.int64), None
    listed = _set_bits(packed, lo, np.ones(hi - lo, dtype=bool))
    return np.bincount(listed[1], minlength=hi - lo), listed


def _and_counts(left: np.ndarray, right: np.ndarray, bits: int) -> np.ndarray:
    """|a & b| for every packed row a of ``left`` and b of ``right``, as exact int64.

    The bits go a slice of fewer than 2^24 at a time.  A bit held by c_L rows of
    ``left`` and c_R rows of ``right`` adds 1 to c_L*c_R cells.  The bits with
    c_L*c_R*_PAIR_COST at least the cell count are counted by one float32
    product of 0/1 matrices per slice, exact below 2^24 terms.  The others are
    counted pair by pair: their (left row, right row) pairs are listed as cell
    indices, a bounded number at a time, and summed by ``np.bincount`` once a
    cell count of them is held.  Slices that one side does not reach are skipped.
    """
    cells = len(left) * len(right)
    counts = np.zeros(cells, dtype=np.int64)
    grid = counts.reshape(len(left), len(right))
    held: list[np.ndarray] = []
    step = max(1, min(_SCAN_BLOCK_ENTRIES // max(len(left), len(right)), (1 << 24) - 1))
    for lo in range(0, bits, step):
        hi = min(lo + step, bits)
        count_a, listed_a = _slice_counts(left, lo, hi)
        if count_a is None:
            continue
        count_b, listed_b = _slice_counts(right, lo, hi)
        if count_b is None:
            continue
        pairs = count_a * count_b
        dense = pairs * _PAIR_COST >= cells
        if dense.any():
            product = _bit_slice(left, lo, hi)[:, dense].astype(np.float32) \
                @ _bit_slice(right, lo, hi)[:, dense].T.astype(np.float32)
            grid += product.astype(np.int64)
        sparse = (pairs > 0) & ~dense
        if sparse.any():
            held += _pair_cells(_sparse_bits(left, lo, sparse, listed_a),
                                _sparse_bits(right, lo, sparse, listed_b), count_b * sparse, len(right))
            if sum(map(len, held)) >= cells:
                counts += np.bincount(np.concatenate(held), minlength=cells)
                held = []
    if held:
        counts += np.bincount(np.concatenate(held), minlength=cells)
    return grid


def _sparse_bits(packed: np.ndarray, lo: int, sparse: np.ndarray, listed: Optional[tuple]) -> tuple:
    """The ``_set_bits`` listing of the bits lo + g with sparse[g], taken from
    ``listed``, the listing of every bit of the slice, when there is one."""
    if listed is None:
        return _set_bits(packed, lo, sparse)
    keep = sparse[listed[1]]
    return listed[0][keep], listed[1][keep]


def _pair_cells(left: tuple, right: tuple, count_b: np.ndarray, width: int) -> list[np.ndarray]:
    """The cells a * width + b of every left row a and right row b that share a
    bit, from the ``_set_bits`` listings of the two sides, where count_b[g] is
    the number of right rows of bit g; in arrays of about ``_SCAN_BLOCK_ENTRIES``
    cells at most."""
    rows, bit = right
    rows = rows[np.argsort(bit, kind="stable")]  # the right rows of each bit, bit after bit
    first = np.cumsum(count_b) - count_b  # where each bit starts in ``rows``
    base, bit = left[0] * width, left[1]
    reach = count_b[bit]  # the pairs each left entry makes
    ends = np.cumsum(reach)
    out, start = [], 0
    while start < len(bit):
        limit = ends[start] - reach[start] + _SCAN_BLOCK_ENTRIES
        stop = max(start + 1, int(np.searchsorted(ends, limit, "right")))
        k = reach[start:stop]
        offset = ends[start:stop] - k
        at = np.repeat(first[bit[start:stop]] - offset, k) + np.arange(offset[0], offset[0] + k.sum())
        out.append(np.repeat(base[start:stop], k) + rows[at])
        start = stop
    return out


def _parity_scan(
    rows: np.ndarray, odd: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Index tuples whose intersection parity misses the target, in lexicographic order.

    ``rows`` is a (k, m, w) uint8 array: rows[j, i] is the set A_{j,i} in the
    ``gf2._row_bytes`` layout.  The first ceil(k/2) coordinates are the left
    half and the rest the right half; ``odd(left, right)`` gets the 0-based
    tuples of one block of left tuples, a (b, ceil(k/2)) array, and every right
    tuple, an (R, floor(k/2)) array, and returns a (b, R) array, or one
    broadcast to it, that is nonzero on the cells whose intersection must be
    odd.  Yields each mismatching 0-based tuple with its intersection size.
    Grids above ``MAX_SCAN_CELLS`` raise ValueError before anything is built.

    The sets of each half are ANDed per half-tuple, so the grid is the left
    tuples x the right tuples in row-major order, which is the lexicographic
    order of the cells.  The left tuples are gathered a block at a time, of at
    most ``_SCAN_BLOCK_CELLS`` cells and ``_SCAN_BLOCK_BYTES`` bytes.
    """
    k, m, _ = rows.shape
    _check_scan_size(m**k, f"{m}^{k} index tuples")
    if m == 0:
        return
    h = (k + 1) // 2
    used = rows.any(axis=(0, 1))
    rows = rows if used.all() else rows[..., used]  # the bytes no set reaches count 0
    width = rows.shape[2]
    right_idx = _tuples(0, m ** (k - h), m, k - h)
    right = _and_rows(rows[h:], right_idx)
    right_tuples = [tuple(r) for r in right_idx.tolist()]
    step = max(1, min(_SCAN_BLOCK_CELLS // len(right), _SCAN_BLOCK_BYTES // max(width, 1)))
    for lo in range(0, m**h, step):
        left_idx = _tuples(lo, min(lo + step, m**h), m, h)
        counts = _and_counts(_and_rows(rows[:h], left_idx), right, 8 * width)
        cells = np.flatnonzero((counts & 1) != odd(left_idx, right_idx))
        left_tuples = left_idx.tolist()
        for cell, count in zip(cells.tolist(), counts.ravel()[cells].tolist()):
            i, j = divmod(cell, len(right))
            yield tuple(left_tuples[i]) + right_tuples[j], count


def _distinct_target(
    m: int, t: int, flip: bool = False
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``odd`` for the (k,t) grid: at least t distinct indices (fewer, with ``flip``).

    A cell's distinct count is d_L + |D_R - D_L| for the index sets D_L and D_R
    of its left and right tuples; it is taken once per distinct set D_R, so the
    cells cost one gather whatever the length of the right tuples."""

    def odd(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        seen = np.zeros((len(left), m + 1), dtype=bool)  # column m: the padding, never seen
        seen[np.arange(len(left))[:, None], left] = True
        sets = np.sort(right, axis=1)
        sets[:, 1:][sets[:, 1:] == sets[:, :-1]] = m  # repeats become padding
        which = np.zeros(len(sets), dtype=np.int64)  # rank of each row among the distinct rows
        for col in sets.T:
            which = np.unique(which * (m + 1) + col, return_inverse=True)[1]
        sets = sets[np.unique(which, return_index=True)[1]]
        new = (sets < m).sum(axis=1) - sum(seen[:, col] for col in sets.T)
        return ((seen.sum(axis=1)[:, None] + new >= t) ^ flip)[:, which]  # a bool gather is cheap

    return odd


def _scan_report(mismatches, cap: int, noun: str, where=None, full_count=False) -> VerifyReport:
    """Violations of a parity scan's mismatches: 1-based indices (or ``where(idx)``),
    the observed parity (or the full count), and the other parity as expected."""
    col = _Collector(cap)
    for idx, count in mismatches:
        indices = tuple(i + 1 for i in idx) if where is None else where(idx)
        expected = f"{'even' if count & 1 else 'odd'} {noun}"
        if not col.add(indices, count if full_count else count & 1, expected):
            break
    return col.report()


def intersection_parity(sets: Sequence[SubsetBits]) -> int:
    """Parity of the size of the intersection of a nonempty list of subsets."""
    if not sets:
        raise ValueError("cannot intersect an empty list of sets")
    n = sets[0].ground_size
    acc = (1 << n) - 1
    for s in sets:
        if s.ground_size != n:
            raise ValueError("ground sizes differ")
        acc &= s.bits
    return acc.bit_count() & 1


def verify_oddtown(family: SetFamily, max_violations: int = DEFAULT_VIOLATION_CAP) -> VerifyReport:
    """Every set odd, every pairwise intersection of distinct indices even.

    The even sets are reported first, then the pairs i < j in lexicographic
    order: the cells above the diagonal of the parity scan of the family with
    itself, whose target on the diagonal is each set's own parity.
    """
    m = len(family)
    _check_scan_size(m**2, f"{m}^2 index tuples")
    col = _Collector(max_violations)
    sizes = _BYTE_SIZES[family.rows].sum(axis=1, dtype=np.int64)
    for i in np.flatnonzero(sizes % 2 == 0).tolist():
        if not col.add((i + 1,), int(sizes[i]), "odd size"):
            return col.report()
    odd = sizes % 2 == 1
    rows = np.broadcast_to(family.rows, (2, *family.rows.shape))
    for (i, j), count in _parity_scan(rows, lambda left, right: (left == right.T) & odd[left]):
        if i < j and not col.add((i + 1, j + 1), count, "even intersection"):
            break
    return col.report()


def verify_skew_oddtown(
    a: SetFamily,
    b: SetFamily,
    strict_symmetric: bool = False,
    max_violations: int = DEFAULT_VIOLATION_CAP,
) -> VerifyReport:
    """|A_i ∩ B_i| odd for all i; |A_i ∩ B_j| even for i < j.

    Only the upper-triangular condition is checked by default; pass
    ``strict_symmetric=True`` to also require even parities below the diagonal.
    """
    if len(a) != len(b):
        raise ValueError(f"family lengths differ: {len(a)} vs {len(b)}")
    if a.ground_size != b.ground_size:
        raise ValueError("families live on different ground sets")
    mismatches = _parity_scan(np.stack([a.rows, b.rows]), lambda left, right: left == right.T)
    if not strict_symmetric:
        mismatches = (mm for mm in mismatches if mm[0][0] <= mm[0][1])
    return _scan_report(mismatches, max_violations, "intersection", full_count=True)


def verify_kt_oddtown(
    family: SetFamily, k: int, t: int, max_violations: int = DEFAULT_VIOLATION_CAP
) -> VerifyReport:
    """d-wise intersections odd for d < t and even for t <= d <= k."""
    if not (2 <= t <= k):
        raise ValueError("need 2 <= t <= k")
    if len(family) < 1:
        raise ValueError("family must be nonempty")
    m = len(family)
    count = sum(comb(m, d) for d in range(1, min(k, m) + 1))
    _check_scan_size(count, f"{count} subsets of at most {k} of the {m} sets")
    col = _Collector(max_violations)
    masks = gf2._row_ints(family.rows)
    for d in range(1, min(k, m) + 1):
        want_odd = d < t
        for idx in combinations(range(m), d):
            acc = masks[idx[0]]
            for i in idx[1:]:
                acc &= masks[i]
            size = acc.bit_count()
            if (size % 2 == 1) != want_odd:
                ok = col.add(tuple(i + 1 for i in idx), size, "odd intersection" if want_odd else "even intersection")
                if not ok:
                    return col.report()
    return col.report()


def verify_bollobas_tuple(
    system: TupleSystem,
    complemented: bool = False,
    max_violations: int = DEFAULT_VIOLATION_CAP,
) -> VerifyReport:
    """Cross-intersection parity check over all m^k index tuples.

    Valid iff the k-wise intersection at (i_1, ..., i_k) is even exactly when
    fewer than t of the indices are distinct.  ``complemented=True`` checks the
    opposite parity convention (odd exactly when fewer than t are distinct).
    """
    odd = _distinct_target(system.m, system.t, complemented)
    return _scan_report(_parity_scan(system.rows, odd), max_violations, "intersection")


@dataclass(frozen=True)
class OddtownCertificate:
    independent: bool
    dependency: Optional[tuple[int, ...]]  # 1-based set indices, if dependent


def oddtown_certificate(family: SetFamily) -> OddtownCertificate:
    """Independence witness for a family that passes the oddtown check.

    A valid oddtown family always has independent characteristic vectors; a
    returned dependency therefore signals an internal inconsistency and is
    asserted against in the test suite.
    """
    report = verify_oddtown(family)
    if not report.valid:
        raise ValueError("family does not satisfy the oddtown conditions")
    dep = gf2.row_dependency(gf2._row_ints(family.rows), family.ground_size)
    if dep is None:
        return OddtownCertificate(True, None)
    return OddtownCertificate(False, tuple(i + 1 for i in dep))


def reduce_33_oddtown(family: SetFamily, anchor: int = 1) -> SetFamily:
    """Intersect the anchor set into every other set: {A_anchor ∩ A_i : i != anchor}.

    Applied to a family obeying the (3,3) variant, the output obeys the
    classical oddtown conditions.  The input is not checked (garbage in,
    garbage out); callers verify the output when they need the guarantee.
    """
    if len(family) < 2:
        raise ValueError("need at least two sets")
    if not (1 <= anchor <= len(family)):
        raise ValueError(f"anchor index {anchor} out of range")
    reduced = family.rows[anchor - 1] & np.delete(family.rows, anchor - 1, axis=0)
    return SetFamily(family.ground_size, rows=_frozen(reduced))


def add_shared_element(system: TupleSystem) -> TupleSystem:
    """Append one fresh ground element to every set of every family.

    Flips the parity of every cross-intersection by exactly one, bridging the
    two parity conventions of ``verify_bollobas_tuple``.
    """
    n = system.ground_size
    rows = np.zeros((system.k, system.m, (n + 8) // 8), dtype=np.uint8)
    rows[..., :system.rows.shape[2]] = system.rows
    rows[..., n // 8] |= 1 << n % 8
    return TupleSystem(system.k, system.t, system.m, n + 1, rows=_frozen(rows))
