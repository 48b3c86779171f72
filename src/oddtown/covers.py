"""Complete k-partite k-graphs, parity covers of the distinct-index targets,
and the structural conversions between covers, set tuples, and biclique covers.

A cover is an ordered multiset of products; parity verification counts
multiplicity.  Cells of the target grid are 1-based k-tuples over [n].

Cover verification, the parity difference of two covers and the biclique
check are callers of the one parity kernel in ``setsystems``: a cover is
scanned through its transposition (A_{j,i} = the products whose j-th part
holds i), which is the set tuple that ``cover_to_tuple`` returns, so a
cell's coverage is the size of an AND of product masks, counted by a matrix
product over the two halves of the coordinates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import comb, perm
from typing import Iterable, Optional, Sequence

from .gf2 import Gf2Matrix, InternalCheckError
from .ranks import OrderedKneserView
from .setsystems import (
    DEFAULT_VIOLATION_CAP,
    SubsetBits,
    TupleSystem,
    VerifyReport,
    _check_scan_size,
    _Collector,
    _distinct_target,
    _parity_scan,
    _scan_report,
)


@dataclass(frozen=True)
class KPartiteProduct:
    """Complete k-partite k-graph: one nonempty vertex part per coordinate."""

    parts: tuple[SubsetBits, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("a product needs at least one part")
        n = self.parts[0].ground_size
        for j, p in enumerate(self.parts):
            if p.ground_size != n:
                raise ValueError("parts must share the ground set")
            if p.bits == 0:
                raise ValueError(f"part {j + 1} is empty")

    @classmethod
    def from_lists(cls, ground_size: int, parts: Iterable[Iterable[int]]) -> "KPartiteProduct":
        return cls(tuple(SubsetBits.from_elements(ground_size, p) for p in parts))

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def ground_size(self) -> int:
        return self.parts[0].ground_size

    def covers_cell(self, idx: Sequence[int]) -> bool:
        return all(idx[j] in self.parts[j] for j in range(len(self.parts)))

@dataclass(frozen=True)
class Mod2Cover:
    """Candidate modulo-2 cover of the target with >= t distinct indices."""

    k: int
    t: int
    n: int
    products: tuple[KPartiteProduct, ...]

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if not (2 <= self.t <= self.k):
            raise ValueError("t must satisfy 2 <= t <= k")
        if self.n < 0:
            raise ValueError("ground size must be nonnegative")
        for p in self.products:
            if p.k != self.k or p.ground_size != self.n:
                raise ValueError("all products must share the cover's k and ground size")

    def __len__(self) -> int:
        return len(self.products)


@dataclass(frozen=True)
class GpCover:
    """Products with pairwise disjoint parts, targeting the complete k-graph."""

    k: int
    n: int
    products: tuple[KPartiteProduct, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        for p in self.products:
            if p.k != self.k or p.ground_size != self.n:
                raise ValueError("all products must share the cover's k and ground size")
            union = 0
            for part in p.parts:
                if union & part.bits:
                    raise ValueError("parts of a disjoint product overlap")
                union |= part.bits

    def __len__(self) -> int:
        return len(self.products)


Vertex = tuple[int, ...]


@dataclass(frozen=True)
class OkBicliqueCover:
    """Bicliques on ordered k-tuples with distinct coordinates."""

    n: int
    k: int
    bicliques: tuple[tuple[tuple[Vertex, ...], tuple[Vertex, ...]], ...]

    def __post_init__(self) -> None:
        for left, right in self.bicliques:
            for v in left + right:
                if len(v) != self.k or len(set(v)) != self.k:
                    raise ValueError(f"vertex {v} is not an ordered {self.k}-tuple of distinct elements")
                if any(not (1 <= e <= self.n) for e in v):
                    raise ValueError(f"vertex {v} has entries outside [1, {self.n}]")


def all_cells(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-tuples over [n] in lexicographic order."""
    return list(product(range(1, n + 1), repeat=k))


def distinct_index_count(idx: Sequence[int], n: int) -> int:
    """Number of distinct entries of a k-tuple over [n]."""
    for v in idx:
        if not (1 <= v <= n):
            raise ValueError(f"index entry {v} outside [1, {n}]")
    return len(set(idx))


def is_target_edge(idx: Sequence[int], t: int, n: int) -> bool:
    """True iff the tuple has at least t distinct entries."""
    return distinct_index_count(idx, n) >= t


def coverage_parity(cover: Mod2Cover, idx: Sequence[int]) -> int:
    """Parity of the number of products covering the cell, multiplicity included."""
    for v in idx:
        if not (1 <= v <= cover.n):
            raise ValueError(f"index entry {v} outside [1, {cover.n}]")
    count = sum(1 for p in cover.products if p.covers_cell(idx))
    return count & 1


def _cover_rows(products: Sequence[KPartiteProduct], k: int, n: int) -> list[list[int]]:
    """The transposition of the products: row j, index i is the bitmask of the
    products whose j-th part contains i + 1."""
    return [Gf2Matrix.from_bitrows([p.parts[j].bits for p in products], n).column_masks()
            for j in range(k)]


def verify_mod2_cover(cover: Mod2Cover, max_violations: int = DEFAULT_VIOLATION_CAP) -> VerifyReport:
    """Exhaustive parity check over all n^k cells: edges odd, non-edges even."""
    rows = _cover_rows(cover.products, cover.k, cover.n)
    mismatches = _parity_scan(rows, _distinct_target(cover.n, cover.t))
    return _scan_report(mismatches, max_violations, "coverage")


def parity_functions_equal(a: Mod2Cover, b: Mod2Cover) -> bool:
    """True iff two covers of the same grid have identical coverage parity.

    The parity of the concatenated cover is the XOR of the two, so the covers
    agree exactly when it is even on every cell.
    """
    if (a.k, a.n) != (b.k, b.n):
        return False
    rows = _cover_rows(a.products + b.products, a.k, a.n)
    return next(_parity_scan(rows, lambda left, right: 0), None) is None


def verify_exact_gp_cover(cover: GpCover, max_violations: int = DEFAULT_VIOLATION_CAP) -> VerifyReport:
    """Each k-subset of [n] covered exactly once (one vertex in each part)."""
    subsets, products = comb(cover.n, cover.k), len(cover.products)
    _check_scan_size(subsets * products, f"{subsets} subsets x {products} products")
    col = _Collector(max_violations)
    for subset in combinations(range(1, cover.n + 1), cover.k):
        sbits = 0
        for e in subset:
            sbits |= 1 << (e - 1)
        count = 0
        for p in cover.products:
            if all((sbits & part.bits).bit_count() == 1 for part in p.parts):
                count += 1
        if count != 1:
            if not col.add(subset, count, "covered exactly once"):
                return col.report()
    return col.report()


def cover_to_tuple(cover: Mod2Cover) -> TupleSystem:
    """The set-tuple correspondent of a cover: ground elements are products.

    The output has one ground element per product and one index per cover
    vertex; A_{j,i} collects the products whose j-th part contains i.  The
    conversion is syntactic: the output verifies as a tuple exactly when the
    input verifies as a cover.
    """
    m_products = len(cover.products)
    families = tuple(
        tuple(SubsetBits(m_products, bits) for bits in row)
        for row in _cover_rows(cover.products, cover.k, cover.n)
    )
    return TupleSystem(cover.k, cover.t, cover.n, m_products, families)


def tuple_to_cover(system: TupleSystem) -> Mod2Cover:
    """Inverse correspondence: one product per ground element.

    A ground element that is missing from every set of some family would give
    an empty part; such products cover nothing and are dropped with a warning,
    which leaves the coverage parity untouched.
    """
    columns = [Gf2Matrix.from_bitrows([s.bits for s in fam], system.ground_size).column_masks()
               for fam in system.families]
    products = []
    for g in range(system.ground_size):
        parts = [col[g] for col in columns]
        if 0 in parts:
            warnings.warn(
                f"ground element {g + 1} gives an empty part in coordinate {parts.index(0) + 1}; "
                "product dropped",
                stacklevel=2,
            )
            continue
        products.append(KPartiteProduct(tuple(SubsetBits(system.m, bits) for bits in parts)))
    return Mod2Cover(system.k, system.t, system.m, tuple(products))


def _ordered_vertices(parts: Sequence[SubsetBits]) -> tuple[Vertex, ...]:
    """Tuples drawing one element per part, kept only if all entries distinct."""
    pools = [p.elements() for p in parts]
    out = []
    for combo in product(*pools):
        if len(set(combo)) == len(combo):
            out.append(combo)
    return tuple(out)


def cover_to_ok_biclique_cover(cover: Mod2Cover) -> OkBicliqueCover:
    """Fold a cover with k = 2*kappa, t = k into bicliques on ordered kappa-tuples.

    Each product splits into its first and last kappa coordinates; each half,
    intersected with the distinct-coordinate tuples, becomes one side of a
    biclique.  Bicliques with an empty side are dropped.
    """
    if cover.k % 2 != 0:
        raise ValueError("the coordinate count must be even")
    if cover.t != cover.k:
        raise ValueError("requires t = k")
    kappa = cover.k // 2
    bicliques = []
    for p in cover.products:
        left = _ordered_vertices(p.parts[:kappa])
        right = _ordered_vertices(p.parts[kappa:])
        if left and right:
            bicliques.append((left, right))
    return OkBicliqueCover(cover.n, kappa, tuple(bicliques))


def verify_ok_biclique_cover(
    cover: OkBicliqueCover, max_violations: int = DEFAULT_VIOLATION_CAP
) -> VerifyReport:
    """Every ordered pair of disjoint vertices covered oddly, all others evenly.

    An ordered pair (u, v) is covered by a biclique (L, R) when u is in L and
    v is in R; pairs whose underlying sets intersect (including u = v) must end
    up with even coverage.
    """
    nv = perm(cover.n, cover.k)
    _check_scan_size(nv**2, f"{nv}^2 index tuples")
    graph = OrderedKneserView(cover.n, cover.k)
    vertices = graph.vertices  # lexicographic
    index = {v: i for i, v in enumerate(vertices)}
    rows = [[0] * len(vertices), [0] * len(vertices)]  # per vertex: the bicliques holding it
    for b, sides in enumerate(cover.bicliques):
        for row, side in zip(rows, sides):
            for v in side:
                row[index[v]] |= 1 << b
    disjoint = graph.adjacency().data

    def odd(left, right):
        return Gf2Matrix.from_bitrows([disjoint[i] for i in left[:, 0].tolist()], nv).to_array()

    return _scan_report(
        _parity_scan(rows, odd), max_violations, "coverage",
        where=lambda idx: vertices[idx[0]] + vertices[idx[1]], full_count=True,
    )


def permute_gp_cover(cover: GpCover) -> Mod2Cover:
    """All coordinate permutations of an exact disjoint cover.

    Turns an exact-once cover of the complete k-graph into an exact-once (and
    therefore valid modulo-2) cover of the all-distinct target, of size k!
    times the input size.  The input is verified first and rejected if not an
    exact cover.
    """
    report = verify_exact_gp_cover(cover)
    if not report.valid:
        raise ValueError(f"input is not an exact cover: {report.violations[:1]}")
    out = []
    for p in cover.products:
        for perm in permutations(range(cover.k)):
            out.append(KPartiteProduct(tuple(p.parts[j] for j in perm)))
    return Mod2Cover(cover.k, cover.k, cover.n, tuple(out))


def link_cover(
    cover: Mod2Cover,
    element: Optional[int] = None,
    coordinate: Optional[int] = None,
) -> Mod2Cover:
    """Link of a vertex: pin ``element`` in ``coordinate`` and drop that axis.

    Keeps the products whose pinned part contains the element, removes the
    pinned coordinate, and restricts the remaining parts to the ground set
    without the element (which is relabeled to be the last element first).
    Defaults pin element n in coordinate k.  The output covers the
    one-smaller all-distinct target and is re-verified; failure to verify is
    an internal inconsistency.
    """
    if cover.k < 3:
        raise ValueError("link requires k >= 3")
    if cover.t != cover.k:
        raise ValueError("link is defined for t = k covers")
    if not verify_mod2_cover(cover).valid:
        raise ValueError("input cover is invalid")
    element = cover.n if element is None else element
    coordinate = cover.k if coordinate is None else coordinate
    if not (1 <= element <= cover.n):
        raise ValueError(f"element {element} outside [1, {cover.n}]")
    if not (1 <= coordinate <= cover.k):
        raise ValueError(f"coordinate {coordinate} outside [1, {cover.k}]")

    # Drop the element's bit and shift the bits above it down by one.
    low = (1 << (element - 1)) - 1
    products = []
    for p in cover.products:
        if element not in p.parts[coordinate - 1]:
            continue
        parts = [
            SubsetBits(cover.n - 1, (part.bits & low) | (part.bits >> element << (element - 1)))
            for j, part in enumerate(p.parts)
            if j != coordinate - 1
        ]
        if all(part.bits for part in parts):
            products.append(KPartiteProduct(tuple(parts)))
    out = Mod2Cover(cover.k - 1, cover.k - 1, cover.n - 1, tuple(products))
    report = verify_mod2_cover(out)
    if not report.valid:
        raise InternalCheckError(f"link of a valid cover failed to verify: {report.violations[:3]}")
    return out


def restrict_cover(cover: Mod2Cover, new_n: int) -> Mod2Cover:
    """Restrict every part to [new_n], dropping products with an emptied part."""
    if not (0 <= new_n <= cover.n):
        raise ValueError("new ground size must be between 0 and n")
    products = []
    for p in cover.products:
        parts = [part.restricted(new_n) for part in p.parts]
        if all(part.bits for part in parts):
            products.append(KPartiteProduct(tuple(parts)))
    return Mod2Cover(cover.k, cover.t, new_n, tuple(products))
