"""Set families over [n], tuple systems, and the parity verification predicates.

All verifiers are exhaustive and report violation witnesses as 1-based index
tuples together with the observed size/parity and the expected condition.
Duplicate sets inside a family are legal; everything is checked by index.

The grid verifiers (tuples here; covers, parity differences and bicliques in
``covers``) share one parity scan over the m^k index tuples of k rows of
bitmasks, refused above ``MAX_SCAN_CELLS`` tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import gf2

DEFAULT_VIOLATION_CAP = 16
MAX_SCAN_CELLS = 10**8  # largest index grid a parity scan walks; larger ones raise ValueError


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
        return tuple(e for e in range(1, self.ground_size + 1) if (self.bits >> (e - 1)) & 1)

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

    def restricted(self, new_ground: int) -> "SubsetBits":
        """Intersection with [new_ground], re-typed over the smaller ground."""
        if new_ground > self.ground_size:
            raise ValueError("can only restrict to a smaller ground")
        return SubsetBits(new_ground, self.bits & ((1 << new_ground) - 1))

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


def _check_scan_size(count: int, what: str) -> None:
    if count > MAX_SCAN_CELLS:
        raise ValueError(f"{what} exceed the scan limit of {MAX_SCAN_CELLS}")


def _parity_scan(
    rows: Sequence[Sequence[int]], odd: Callable[[tuple[int, ...]], int]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Index tuples whose intersection parity misses the target, in lexicographic order.

    ``rows[j][i]`` is the bitmask A_{j,i}; the k rows share one length m.
    ``odd(prefix)`` is the bitmask over the last index of the tuples, extending
    the 0-based ``prefix`` of the first k-1 indices, whose intersection must
    be odd.  Yields each mismatching 0-based tuple with its intersection size.
    The prefix intersection is shared by a whole last row, and no list of the
    m^k tuples is built; grids above ``MAX_SCAN_CELLS`` raise ValueError.
    """
    *lead, last = rows
    _check_scan_size(len(last) ** len(rows), f"{len(last)}^{len(rows)} index tuples")

    def walk(prefix, acc):
        if len(prefix) < len(lead):
            for i, a in enumerate(lead[len(prefix)]):
                yield from walk(prefix + (i,), acc & a)
            return
        want = odd(prefix)
        for i, f in enumerate(last):
            count = (acc & f).bit_count()
            if (count ^ (want >> i)) & 1:
                yield prefix + (i,), count

    return walk((), -1)


def _distinct_target(m: int, t: int, flip: bool = False) -> Callable[[tuple[int, ...]], int]:
    """``odd`` for the (k,t) grid: at least t distinct indices (fewer, with ``flip``)."""
    full = (1 << m) - 1

    def odd(prefix: tuple[int, ...]) -> int:
        seen = set(prefix)
        need = t - len(seen)  # new values the last index must bring
        want = full if need <= 0 else full ^ sum(1 << i for i in seen) if need == 1 else 0
        return want ^ full if flip else want

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
    mismatches = _parity_scan(rows, lambda prefix: 1 << prefix[0])
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
