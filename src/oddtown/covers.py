"""Complete k-partite k-graphs, parity covers of the distinct-index targets,
and the structural conversions between covers, set tuples, and biclique covers.

A cover is an ordered multiset of products; parity verification counts
multiplicity.  Cells of the target grid are 1-based k-tuples over [n].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterable, Optional, Sequence

from .gf2 import InternalCheckError
from .setsystems import (
    DEFAULT_VIOLATION_CAP,
    SubsetBits,
    TupleSystem,
    VerifyReport,
    _Collector,
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


def coordinate_value_masks(n: int, k: int, cells: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """masks[j][v] = bitmask over cell positions where coordinate j equals v."""
    masks = [[0] * (n + 1) for _ in range(k)]
    for pos, idx in enumerate(cells):
        bit = 1 << pos
        for j in range(k):
            masks[j][idx[j]] |= bit
    return masks


def product_cell_mask(p: KPartiteProduct, masks: Sequence[Sequence[int]]) -> int:
    acc = -1
    for j, part in enumerate(p.parts):
        coord = 0
        for v in part.elements():
            coord |= masks[j][v]
        acc &= coord
    return acc


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


def _parity_mask(cover: Mod2Cover, cells: Sequence[tuple[int, ...]]) -> int:
    masks = coordinate_value_masks(cover.n, cover.k, cells)
    acc = 0
    for p in cover.products:
        acc ^= product_cell_mask(p, masks)
    return acc


def target_mask(n: int, k: int, t: int, cells: Sequence[tuple[int, ...]]) -> int:
    mask = 0
    for pos, idx in enumerate(cells):
        if len(set(idx)) >= t:
            mask |= 1 << pos
    return mask


def verify_mod2_cover(cover: Mod2Cover, max_violations: int = DEFAULT_VIOLATION_CAP) -> VerifyReport:
    """Exhaustive parity check over all n^k cells: edges odd, non-edges even."""
    cells = all_cells(cover.n, cover.k)
    got = _parity_mask(cover, cells)
    want = target_mask(cover.n, cover.k, cover.t, cells)
    diff = got ^ want
    col = _Collector(max_violations)
    if diff:
        for pos, idx in enumerate(cells):
            if (diff >> pos) & 1:
                observed = (got >> pos) & 1
                expected = "odd coverage" if (want >> pos) & 1 else "even coverage"
                if not col.add(idx, observed, expected):
                    break
    return col.report()


def parity_functions_equal(a: Mod2Cover, b: Mod2Cover) -> bool:
    """True iff two covers of the same grid have identical coverage parity."""
    if (a.k, a.n) != (b.k, b.n):
        return False
    cells = all_cells(a.n, a.k)
    return _parity_mask(a, cells) == _parity_mask(b, cells)


def verify_exact_gp_cover(cover: GpCover, max_violations: int = DEFAULT_VIOLATION_CAP) -> VerifyReport:
    """Each k-subset of [n] covered exactly once (one vertex in each part)."""
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
    families = []
    for j in range(cover.k):
        fam = []
        for i in range(1, cover.n + 1):
            bits = 0
            for s, p in enumerate(cover.products):
                if i in p.parts[j]:
                    bits |= 1 << s
            fam.append(SubsetBits(m_products, bits))
        families.append(tuple(fam))
    return TupleSystem(cover.k, cover.t, cover.n, m_products, tuple(families))


def tuple_to_cover(system: TupleSystem) -> Mod2Cover:
    """Inverse correspondence: one product per ground element.

    A ground element that is missing from every set of some family would give
    an empty part; such products cover nothing and are dropped with a warning,
    which leaves the coverage parity untouched.
    """
    products = []
    for g in range(1, system.ground_size + 1):
        parts = []
        empty_at = None
        for j in range(system.k):
            bits = 0
            for i in range(system.m):
                if g in system.families[j][i]:
                    bits |= 1 << i
            if bits == 0:
                empty_at = j + 1
                break
            parts.append(SubsetBits(system.m, bits))
        if empty_at is not None:
            warnings.warn(
                f"ground element {g} gives an empty part in coordinate {empty_at}; product dropped",
                stacklevel=2,
            )
            continue
        products.append(KPartiteProduct(tuple(parts)))
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
    vertices = sorted(
        v for v in permutations(range(1, cover.n + 1), cover.k)
    )
    col = _Collector(max_violations)
    left_sets = [frozenset(l) for l, _ in cover.bicliques]
    right_sets = [frozenset(r) for _, r in cover.bicliques]
    for u in vertices:
        for v in vertices:
            count = sum(1 for i in range(len(cover.bicliques)) if u in left_sets[i] and v in right_sets[i])
            disjoint = not (set(u) & set(v))
            if disjoint and count % 2 == 0:
                if not col.add(u + v, count, "odd coverage"):
                    return col.report()
            if not disjoint and count % 2 == 1:
                if not col.add(u + v, count, "even coverage"):
                    return col.report()
    return col.report()


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

    def relabel(s: SubsetBits) -> SubsetBits:
        # Send `element` to the top position, shifting the ones above it down,
        # then cut the top position off.
        kept = []
        for e in s.elements():
            if e == element:
                continue
            kept.append(e if e < element else e - 1)
        return SubsetBits.from_elements(cover.n - 1, kept)

    products = []
    for p in cover.products:
        if element not in p.parts[coordinate - 1]:
            continue
        parts = []
        empty = False
        for j in range(cover.k):
            if j == coordinate - 1:
                continue
            shrunk = relabel(p.parts[j])
            if shrunk.bits == 0:
                empty = True
                break
            parts.append(shrunk)
        if not empty:
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
