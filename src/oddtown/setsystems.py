"""Set families over [n], tuple systems, and the parity verification predicates.

All verifiers are exhaustive and report violation witnesses as 1-based index
tuples together with the observed size/parity and the expected condition.
Duplicate sets inside a family are legal; everything is checked by index.

The grid verifiers (tuples and skew pairs here; covers, parity differences
and bicliques in ``covers``) share one parity kernel over the m^k index
tuples of k rows of bitmasks, refused above ``MAX_SCAN_CELLS`` tuples.  It
splits the coordinates in two halves, ANDs each half's masks per half-tuple,
and counts every left x right intersection at once as a float32 product of
0/1 bit matrices, a block of left tuples and a slice of the bits at a time,
so apart from the packed masks its temporaries stay a few MB whatever m^k
and the mask width are.  The caller gives the cells that must be odd as an
array per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import gf2

DEFAULT_VIOLATION_CAP = 16
MAX_SCAN_CELLS = 10**8  # largest index grid a parity scan walks; larger ones raise ValueError
_SCAN_BLOCK_CELLS = 1 << 19  # cells of the grid counted at once (left rows x right tuples)
_SCAN_BLOCK_ENTRIES = 1 << 19  # entries of one 0/1 float32 operand of a count product


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

    def __and__(self, other: "SubsetBits") -> "SubsetBits":
        if self.ground_size != other.ground_size:
            raise ValueError("ground sizes differ")
        return SubsetBits(self.ground_size, self.bits & other.bits)

    def with_extra_element(self) -> "SubsetBits":
        """The same set with a fresh ground element n+1 appended to it."""
        return SubsetBits(self.ground_size + 1, self.bits | (1 << self.ground_size))


@dataclass(frozen=True)
class SetFamily:
    """Ordered, index-addressed family of subsets of a common ground set."""

    ground_size: int
    sets: tuple[SubsetBits, ...]

    def __post_init__(self) -> None:
        for i, s in enumerate(self.sets):
            if s.ground_size != self.ground_size:
                raise ValueError(f"set {i + 1} has ground size {s.ground_size}, expected {self.ground_size}")

    @classmethod
    def from_lists(cls, ground_size: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        return cls(ground_size, tuple(SubsetBits.from_elements(ground_size, s) for s in sets))

    def __len__(self) -> int:
        return len(self.sets)

    def __getitem__(self, i: int) -> SubsetBits:
        return self.sets[i]

    def __iter__(self):
        return iter(self.sets)


@dataclass(frozen=True)
class TupleSystem:
    """k ordered families of m subsets each, a candidate (k,t)-tuple."""

    k: int
    t: int
    m: int
    ground_size: int
    families: tuple[tuple[SubsetBits, ...], ...]

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if not (2 <= self.t <= self.k):
            raise ValueError("t must satisfy 2 <= t <= k")
        if len(self.families) != self.k:
            raise ValueError(f"expected {self.k} families, got {len(self.families)}")
        for j, fam in enumerate(self.families):
            if len(fam) != self.m:
                raise ValueError(f"family {j + 1} has {len(fam)} sets, expected {self.m}")
            for s in fam:
                if s.ground_size != self.ground_size:
                    raise ValueError("all subsets must share the tuple's ground size")

    @classmethod
    def diagonal(cls, family: SetFamily, k: int, t: int) -> "TupleSystem":
        """The tuple with every one of the k families equal to ``family``."""
        fam = tuple(family.sets)
        return cls(k, t, len(fam), family.ground_size, tuple(fam for _ in range(k)))

    def family(self, j: int) -> tuple[SubsetBits, ...]:
        return self.families[j - 1]


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


def _element_lists(rows: np.ndarray) -> list[list[int]]:
    """The element lists of packed rows (the ``gf2._row_bytes`` layout): one
    list per distinct row, shared by the rows equal to it."""
    if not rows.size:
        return [[] for _ in rows]
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[1]))).ravel()
    distinct, inverse = np.unique(keys, return_inverse=True)
    bits = np.unpackbits(distinct.view(np.uint8).reshape(len(distinct), -1), axis=1,
                         bitorder="little")
    table = [(np.flatnonzero(row) + 1).tolist() for row in bits]
    return [table[i] for i in inverse.tolist()]


def _check_scan_size(count: int, what: str) -> None:
    if count > MAX_SCAN_CELLS:
        raise ValueError(f"{what} exceed the scan limit of {MAX_SCAN_CELLS}")


def _half_masks(rows: Sequence[Sequence[int]]) -> list[int]:
    """The AND of one mask from each row, over the index tuples in lexicographic order."""
    masks = [-1]
    for row in rows:
        masks = [acc & a for acc in masks for a in row]
    return masks


def _tuples(lo: int, hi: int, m: int, width: int) -> np.ndarray:
    """The index tuples lo, ..., hi-1 of [m]^width in lexicographic order, one per row."""
    return np.stack(np.unravel_index(np.arange(lo, hi), (m,) * width), axis=1)


def _bit_slice(packed: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Bits lo, ..., hi-1 of rows packed little-endian (``gf2._row_bytes``), as 0/1 float32."""
    part = np.unpackbits(packed[:, lo // 8:(hi + 7) // 8], axis=1, bitorder="little")
    return part[:, lo % 8:lo % 8 + hi - lo].astype(np.float32)


def _and_counts(left: np.ndarray, right: np.ndarray, bits: int) -> np.ndarray:
    """|a & b| for every packed row a of ``left`` and b of ``right``: one float32
    product of 0/1 matrices per slice of fewer than 2^24 bits, so each product
    is exact, summed in an integer array.  Rows with no byte set in a slice,
    zero masks among them, are left out of its product: they count 0 there."""
    counts = np.zeros((len(left), len(right)), dtype=np.int64)
    step = max(1, min(_SCAN_BLOCK_ENTRIES // max(len(left), len(right)), (1 << 24) - 1))
    for lo in range(0, bits, step):
        hi = min(lo + step, bits)
        cut = slice(lo // 8, (hi + 7) // 8)
        rows_a = np.flatnonzero(left[:, cut].any(axis=1))
        rows_b = np.flatnonzero(right[:, cut].any(axis=1))
        product = _bit_slice(left[rows_a], lo, hi) @ _bit_slice(right[rows_b], lo, hi).T
        counts[np.ix_(rows_a, rows_b)] += product.astype(np.int64)
    return counts


def _parity_scan(
    rows: Sequence[Sequence[int]], odd: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Index tuples whose intersection parity misses the target, in lexicographic order.

    ``rows[j][i]`` is the bitmask A_{j,i}; the k rows share one length m.  The
    first ceil(k/2) coordinates are the left half and the rest the right half;
    ``odd(left, right)`` gets the 0-based tuples of one block of left tuples, a
    (b, ceil(k/2)) array, and every right tuple, an (R, floor(k/2)) array, and
    returns a (b, R) array, or one broadcast to it, that is nonzero on the
    cells whose intersection must be odd.  Yields each mismatching 0-based
    tuple with its intersection size.  Grids above ``MAX_SCAN_CELLS`` raise
    ValueError before anything is built.

    The masks of each half are ANDed per half-tuple, so the grid is the left
    tuples x the right tuples in row-major order, which is the lexicographic
    order of the cells.
    """
    k, m = len(rows), len(rows[0])
    _check_scan_size(m**k, f"{m}^{k} index tuples")
    h = (k + 1) // 2
    left, right = _half_masks(rows[:h]), _half_masks(rows[h:])
    if not left:
        return
    bits = max(mask.bit_length() for mask in left + right)
    nbytes = (bits + 7) // 8
    right_bytes = gf2._row_bytes(right, nbytes)
    right_idx = _tuples(0, len(right), m, k - h)
    right_tuples = [tuple(r) for r in right_idx.tolist()]
    step = max(1, _SCAN_BLOCK_CELLS // len(right))
    for lo in range(0, len(left), step):
        hi = min(lo + step, len(left))
        counts = _and_counts(gf2._row_bytes(left[lo:hi], nbytes), right_bytes, bits)
        left_idx = _tuples(lo, hi, m, h)
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
        distinct = seen.sum(axis=1)[:, None] + new[:, which]
        return (distinct >= t) ^ flip

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
    """Every set odd, every pairwise intersection of distinct indices even."""
    col = _Collector(max_violations)
    for i, s in enumerate(family.sets):
        if s.size % 2 == 0:
            if not col.add((i + 1,), s.size, "odd size"):
                return col.report()
    for i, j in combinations(range(len(family.sets)), 2):
        inter = family.sets[i].bits & family.sets[j].bits
        if inter.bit_count() % 2 == 1:
            if not col.add((i + 1, j + 1), inter.bit_count(), "even intersection"):
                return col.report()
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
    rows = [[s.bits for s in a.sets], [s.bits for s in b.sets]]
    mismatches = _parity_scan(rows, lambda left, right: left == right.T)
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
    for d in range(1, min(k, m) + 1):
        want_odd = d < t
        for idx in combinations(range(m), d):
            acc = family.sets[idx[0]].bits
            for i in idx[1:]:
                acc &= family.sets[i].bits
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
    rows = [[s.bits for s in fam] for fam in system.families]
    odd = _distinct_target(system.m, system.t, complemented)
    return _scan_report(_parity_scan(rows, odd), max_violations, "intersection")


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
    dep = gf2.row_dependency([s.bits for s in family.sets], family.ground_size)
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
    base = family.sets[anchor - 1]
    reduced = tuple(base & s for i, s in enumerate(family.sets) if i != anchor - 1)
    return SetFamily(family.ground_size, reduced)


def add_shared_element(system: TupleSystem) -> TupleSystem:
    """Append one fresh ground element to every set of every family.

    Flips the parity of every cross-intersection by exactly one, bridging the
    two parity conventions of ``verify_bollobas_tuple``.
    """
    fams = tuple(tuple(s.with_extra_element() for s in fam) for fam in system.families)
    return TupleSystem(system.k, system.t, system.m, system.ground_size + 1, fams)
