"""Dense linear algebra over F_2 (bit-packed) and small prime fields.

Rows of a binary matrix are Python ints, one bit per entry, so a row
operation is a single XOR.  ``rank_gf2`` eliminates on those ints up to
``PACKED_MIN_ENTRIES`` entries (rows x cols) and on rows packed into
``uint64`` words above it, where one numpy XOR per pivot beats a Python
loop over the rows.  ``rank_gfp`` works on an int64 copy and reduces mod p
only the pivot column and the pivot row (delayed reduction, as in
FFLAS/FFPACK).  Elimination always picks the leftmost pivot; all ranks are
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

MAX_PRIME = 251

# rank_gf2 eliminates on packed words above this many entries (rows x cols).
# Measured on a 2-vCPU machine, best of 5: inclusion 462x462 8.2 ms on ints
# against 3.9 ms packed, 330x330 4.6 against 2.8 ms; random 362x362 8.0
# against 8.6 ms; Kneser(22,3) 144 against 56 ms.  The inclusion sweep with
# n <= 11 takes 0.065 s with this constant, 0.081 s with 2^18 and 0.123 s
# with every matrix packed.
PACKED_MIN_ENTRIES = 1 << 17


class InternalCheckError(RuntimeError):
    """A self-check that can only fail on an internal bug fired."""


def is_prime(p: int) -> bool:
    """Deterministic trial-division primality test."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Gf2Matrix:
    """Binary matrix, row-major, one bit per entry (bit j of data[i] = entry (i,j))."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.data) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.data)}")
        bound = 1 << self.cols
        for i, row in enumerate(self.data):
            if row < 0 or row >= bound:
                raise ValueError(f"row {i} has bits beyond column {self.cols}")

    @classmethod
    def from_rows(cls, rows) -> "Gf2Matrix":
        """From an array or nested sequences of integers, each taken mod 2."""
        return cls.from_array(GfpMatrix.from_rows(rows, 2).data)

    @classmethod
    def from_array(cls, a: np.ndarray) -> "Gf2Matrix":
        """From a 2-D array whose nonzero entries are the ones."""
        packed = np.packbits(a, axis=1, bitorder="little")
        return cls(a.shape[0], a.shape[1], tuple(_row_ints(packed)))

    @classmethod
    def from_bitrows(cls, bitrows: Sequence[int], cols: int) -> "Gf2Matrix":
        return cls(len(bitrows), cols, tuple(int(r) for r in bitrows))

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    def entry(self, i: int, j: int) -> int:
        return (self.data[i] >> j) & 1

    def to_array(self) -> np.ndarray:
        """The entries as a (rows, cols) 0/1 uint8 array."""
        by_row = _row_bytes(self.data, (self.cols + 7) // 8)
        return np.unpackbits(by_row, axis=1, count=self.cols, bitorder="little")

    def transpose(self) -> "Gf2Matrix":
        return Gf2Matrix.from_array(self.to_array().T)

    def column_masks(self) -> list[int]:
        """Column j as a bitmask over row indices."""
        return list(self.transpose().data)


@dataclass(frozen=True, eq=False)
class GfpMatrix:
    """Dense matrix over F_p for a small prime p: a read-only 2-D integer array
    of entries reduced mod p.  Compared by identity, not by entries."""

    p: int
    data: np.ndarray

    def __post_init__(self) -> None:
        _check_modulus(self.p)
        a = self.data
        if not (isinstance(a, np.ndarray) and a.ndim == 2 and a.dtype.kind in "iu"):
            raise ValueError("data must be a 2-D integer array")
        if a.flags.writeable:
            raise ValueError("data must be read-only")
        if a.size and (a.min() < 0 or a.max() >= self.p):
            raise ValueError(f"entries are not reduced mod {self.p}")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @classmethod
    def from_rows(cls, rows, p: int) -> "GfpMatrix":
        """From an array or nested sequences of integers; entries are reduced mod p."""
        _check_modulus(p)
        if isinstance(rows, np.ndarray) and rows.dtype.kind == "u":
            a = (rows % p).astype(np.int64)  # reduced first: the cast would wrap entries past int64
        else:
            try:
                a = np.asarray(rows, dtype=np.int64) % p
            except OverflowError:  # Python ints beyond int64: reduce them first
                a = (np.array(rows, dtype=object) % p).astype(np.int64)
        if a.shape == (0,):
            a = a.reshape(0, 0)
        a.flags.writeable = False
        return cls(p, a)

    @classmethod
    def identity(cls, n: int, p: int) -> "GfpMatrix":
        return cls.from_rows(np.eye(n, dtype=np.int64), p)


def _row_bytes(bitrows: Sequence[int], width: int) -> np.ndarray:
    """The rows as a read-only (len(bitrows), width) uint8 array, each row
    little-endian, so bit j of a row is bit j % 8 of byte j // 8."""
    packed = b"".join(row.to_bytes(width, "little") for row in bitrows)
    return np.frombuffer(packed, dtype=np.uint8).reshape(len(bitrows), width)


def _row_ints(packed: np.ndarray) -> list[int]:
    """The rows of a 2-D uint8 array as ints, little-endian: the inverse of ``_row_bytes``."""
    return [int.from_bytes(row, "little") for row in packed]


def _check_modulus(p: int) -> None:
    if not (2 <= p <= MAX_PRIME) or not is_prime(p):
        raise ValueError(f"modulus {p} is not a prime in [2, {MAX_PRIME}]")


def _rank_bitrows(bitrows: Sequence[int], cols: int) -> tuple[int, list[int]]:
    """Rank of the rows on their first ``cols`` columns, and the rows after
    elimination: the first ``rank`` are the pivot rows, the rest are zero on
    those columns."""
    work = list(bitrows)
    rank = 0
    for col in range(cols):
        mask = 1 << col
        pivot = None
        for r in range(rank, len(work)):
            if work[r] & mask:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(rank + 1, len(work)):
            if work[r] & mask:
                work[r] ^= work[rank]
        rank += 1
        if rank == len(work):
            break
    return rank, work


def _rank_packed(m: Gf2Matrix) -> int:
    """Rank over F_2 with each row packed into ``uint64`` words: per pivot
    column, the rows below with the pivot bit set take one XOR of the pivot
    row's words from the pivot word on."""
    words = _row_bytes(m.data, 8 * ((m.cols + 63) // 64)).view("<u8").copy()
    rank = 0
    for col in range(m.cols):
        if rank == m.rows:
            break
        w = col >> 6
        hits = rank + (words[rank:, w] & np.uint64(1 << (col & 63))).nonzero()[0]
        if hits.size == 0:
            continue
        piv = int(hits[0])
        if piv != rank:
            words[[rank, piv], w:] = words[[piv, rank], w:]
        below = hits[1:]  # the swapped-down row was zero in this column
        if below.size:
            words[below, w:] ^= words[rank, w:]
        rank += 1
    return rank


def rank_gf2(m: Gf2Matrix) -> int:
    """Rank over F_2 by Gaussian elimination; the input is not modified.

    Up to ``PACKED_MIN_ENTRIES`` entries the rows are eliminated as Python
    ints; above it as packed ``uint64`` words.  Both take the same pivots."""
    if m.rows * m.cols > PACKED_MIN_ENTRIES:
        return _rank_packed(m)
    return _rank_bitrows(m.data, m.cols)[0]


def rank_gfp(m: GfpMatrix) -> int:
    """Rank over F_p by Gaussian elimination: leftmost pivot column, first nonzero
    row at or below the current rank; each step updates only the rows below that
    are nonzero in the pivot column, and only from that column on.

    The reduction mod p is delayed: a step reduces only the pivot column below
    the rank (its nonzero entries pick the rows and give their multipliers) and
    the pivot row, and subtracts multiplier times pivot row from the rows below
    unreduced.  An entry starts in [0, p) and takes at most min(rows, cols)
    such updates of size at most (p-1)^2, so it stays within
    (p-1) + min(rows, cols) * (p-1)^2 in absolute value: far inside int64
    for p <= 251 and any matrix that fits in memory."""
    a, p = m.data.astype(np.int64), m.p  # a copy, wide enough for the products
    rank = 0
    for col in range(m.cols):
        if rank == m.rows:
            break
        column = a[rank:, col] % p
        nonzero = column.nonzero()[0]
        if nonzero.size == 0:
            continue
        piv = rank + int(nonzero[0])
        below = nonzero[1:]  # the row moved down was zero in this column
        if below.size:  # the pivot row is normalised only for the rows it updates
            pivot = a[piv, col:] * pow(int(column[nonzero[0]]), p - 2, p) % p
            a[rank + below, col:] -= column[below, None] * pivot
        if piv != rank:
            a[piv, col:] = a[rank, col:]  # rows above the rank are never read again
        rank += 1
    return rank


def is_linearly_independent(vectors: Sequence) -> bool:
    """True iff the characteristic vectors of the given subsets are F_2-independent.

    Accepts any objects with ``bits`` and ``ground_size`` attributes
    (``SubsetBits``); all must share the same ground size.
    """
    if not vectors:
        return True
    n = vectors[0].ground_size
    if any(v.ground_size != n for v in vectors):
        raise ValueError("vectors must share a common ground size")
    rows = [v.bits for v in vectors]
    return _rank_bitrows(rows, n)[0] == len(rows)


def row_dependency(bitrows: Sequence[int], cols: int) -> Optional[tuple[int, ...]]:
    """Indices of a nonzero F_2 combination of the rows summing to zero, or None.

    The rows must lie below 2^cols.  Row i is tagged with bit cols + i and the
    rows are eliminated on their first ``cols`` columns; the first row past
    the rank has a zero data part, and its tag carries the dependency.
    """
    nrows = len(bitrows)
    tagged = [int(row) | (1 << (cols + i)) for i, row in enumerate(bitrows)]
    rank, work = _rank_bitrows(tagged, cols)
    if rank == nrows:
        return None
    tag = work[rank] >> cols
    return tuple(i for i in range(nrows) if (tag >> i) & 1)
