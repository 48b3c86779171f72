"""Complete k-partite k-graphs, parity covers of the distinct-index targets,
and the structural conversions between covers, set tuples, and biclique covers.

A cover is an ordered multiset of products; parity verification counts
multiplicity.  Cells of the target grid are 1-based k-tuples over [n].

Cover verification, the parity difference of two covers and the biclique
check are callers of the one parity kernel in ``setsystems``: a cover is
scanned through its transposition (A_{j,i} = the products whose j-th part
holds i), which is the set tuple that ``cover_to_tuple`` returns, so a
cell's coverage is the size of an AND of product masks, counted over the two
halves of the coordinates pair by pair or by a matrix product.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice, permutations, product
from math import comb, perm
from typing import Iterable, Optional, Sequence

import numpy as np

from . import gf2
from .gf2 import Gf2Matrix, InternalCheckError
from .ranks import OrderedKneserView
from .setsystems import (
    DEFAULT_VIOLATION_CAP,
    SubsetBits,
    TupleSystem,
    VerifyReport,
    _SCAN_BLOCK_ENTRIES,
    _check_scan_size,
    _Collector,
    _distinct_target,
    _frozen,
    _Packed,
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


class _Cover(_Packed):
    """Products held as one read-only uint8 array ``parts`` of shape (S, k, ceil(n/8)):
    parts[s, j] is part j of product s.  ``products`` is a view of it."""

    _ARRAY, _OBJECTS, _NOUN = "parts", "products", "cover"

    def __init__(self, products: Iterable[KPartiteProduct], parts: Optional[np.ndarray], **fields):
        super().__init__(fields["n"], products, parts, (None, fields["k"]), **fields)
        if not self.parts.any(axis=2).all():
            raise ValueError("parts must be nonempty")

    def _masks(self, products: tuple) -> list[int]:
        if any(p.k != self.k or p.ground_size != self.n for p in products):
            raise ValueError("all products must share the cover's k and ground size")
        return [part.bits for p in products for part in p.parts]

    @cached_property
    def products(self) -> tuple[KPartiteProduct, ...]:
        return tuple(map(KPartiteProduct, self._view(self.n)))

    def __len__(self) -> int:
        return len(self.parts)


class Mod2Cover(_Cover):
    """Candidate modulo-2 cover of the target with >= t distinct indices."""

    def __init__(self, k: int, t: int, n: int, products: Iterable[KPartiteProduct] = (),
                 *, parts: Optional[np.ndarray] = None):
        if k < 2:
            raise ValueError("k must be at least 2")
        if not (2 <= t <= k):
            raise ValueError("t must satisfy 2 <= t <= k")
        super().__init__(products, parts, k=k, t=t, n=n)


class GpCover(_Cover):
    """Products with pairwise disjoint parts, targeting the complete k-graph."""

    def __init__(self, k: int, n: int, products: Iterable[KPartiteProduct] = (),
                 *, parts: Optional[np.ndarray] = None):
        if k < 1:
            raise ValueError("k must be at least 1")
        super().__init__(products, parts, k=k, n=n)
        if (_bits(self.parts, n).sum(axis=1) > 1).any():
            raise ValueError("parts of a disjoint product overlap")


Vertex = tuple[int, ...]


@dataclass(frozen=True)
class OkBicliqueCover:
    """Bicliques on ordered k-tuples with distinct coordinates."""

    n: int
    k: int
    bicliques: tuple[tuple[tuple[Vertex, ...], tuple[Vertex, ...]], ...]

    def __post_init__(self) -> None:
        """Reject the first vertex, left side before right, biclique by
        biclique, that is not k distinct entries, else has one outside [n]."""
        vertices = list(chain.from_iterable(chain.from_iterable(self.bicliques)))
        sizes = np.fromiter(map(len, vertices), dtype=np.intp, count=len(vertices))
        misfit = np.flatnonzero(sizes != self.k)
        whole = int(misfit[0]) if misfit.size else len(vertices)  # the vertices before hold k entries
        entries = np.fromiter(chain.from_iterable(vertices[:whole]), dtype=np.int64, count=whole * self.k)
        entries = entries.reshape(whole, self.k)
        ordered = np.sort(entries, axis=1)
        repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        bad = np.flatnonzero(repeated | ((entries < 1) | (entries > self.n)).any(axis=1))
        first = int(bad[0]) if bad.size else whole
        if first == len(vertices):
            return
        if first == whole or repeated[first]:
            raise ValueError(
                f"vertex {vertices[first]} is not an ordered {self.k}-tuple of distinct elements"
            )
        raise ValueError(f"vertex {vertices[first]} has entries outside [1, {self.n}]")


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
    return sum(1 for p in cover.products if p.covers_cell(idx)) & 1


def _bits(parts: np.ndarray, n: int) -> np.ndarray:
    """The parts as a 0/1 (S, k, n) array."""
    return np.unpackbits(parts, axis=2, count=n, bitorder="little")


def _nonempty(parts: np.ndarray) -> np.ndarray:
    """The parts array, read-only, leaving out products with an empty part."""
    return _frozen(parts[parts.any(axis=2).all(axis=1)])


def _packed(bits: np.ndarray) -> np.ndarray:
    """The parts array of a 0/1 (S, k, n) array, leaving out products with an empty part."""
    return _nonempty(np.packbits(bits, axis=2, bitorder="little"))


def _cover_rows(parts: np.ndarray, n: int) -> np.ndarray:
    """The transposition of the products, read-only, of shape (k, n, ceil(S/8)):
    row j, index i holds the products whose j-th part contains i + 1."""
    return _frozen(np.packbits(_bits(parts, n).transpose(1, 2, 0), axis=2, bitorder="little"))


def verify_mod2_cover(cover: Mod2Cover, max_violations: int = DEFAULT_VIOLATION_CAP) -> VerifyReport:
    """Exhaustive parity check over all n^k cells: edges odd, non-edges even."""
    _check_scan_size(cover.n**cover.k, f"{cover.n}^{cover.k} index tuples")  # before the rows
    rows = _cover_rows(cover.parts, cover.n)
    mismatches = _parity_scan(rows, _distinct_target(cover.n, cover.t))
    return _scan_report(mismatches, max_violations, "coverage")


def parity_functions_equal(a: Mod2Cover, b: Mod2Cover) -> bool:
    """True iff two covers of the same grid have identical coverage parity.

    The parity of the concatenated cover is the XOR of the two, so the covers
    agree exactly when it is even on every cell.
    """
    if (a.k, a.n) != (b.k, b.n):
        return False
    _check_scan_size(a.n**a.k, f"{a.n}^{a.k} index tuples")  # before the rows
    rows = _cover_rows(np.concatenate([a.parts, b.parts]), a.n)
    return next(_parity_scan(rows, lambda left, right: 0), None) is None


def verify_exact_gp_cover(cover: GpCover, max_violations: int = DEFAULT_VIOLATION_CAP) -> VerifyReport:
    """Each k-subset of [n] covered exactly once (one vertex in each part)."""
    subsets, products = comb(cover.n, cover.k), len(cover)
    _check_scan_size(subsets * products, f"{subsets} subsets x {products} products")
    col = _Collector(max_violations)
    walk = combinations(range(cover.n), cover.k)
    step = max(1, _SCAN_BLOCK_ENTRIES // max(1, products * cover.k**2))
    while len(chunk := np.fromiter(islice(walk, step), np.dtype((np.intp, cover.k)))):
        # hits[s, j, c]: the elements of subset c in part j of product s
        hits = (cover.parts[:, :, chunk >> 3] >> (chunk & 7).astype(np.uint8) & 1).sum(axis=3)
        count = (hits == 1).all(axis=1).sum(axis=0)
        for i in np.flatnonzero(count != 1).tolist():
            if not col.add(tuple((chunk[i] + 1).tolist()), int(count[i]), "covered exactly once"):
                return col.report()
    return col.report()


def cover_to_tuple(cover: Mod2Cover) -> TupleSystem:
    """The set-tuple correspondent of a cover: ground elements are products.

    The output has one ground element per product and one index per cover
    vertex; A_{j,i} collects the products whose j-th part contains i.  The
    conversion is syntactic: the output verifies as a tuple exactly when the
    input verifies as a cover.  A grid past the scan limit is refused first: no
    verifier could check the tuple, whose m^k index grid is the cover's n^k.
    """
    _check_scan_size(cover.n**cover.k, f"{cover.n}^{cover.k} index tuples")
    return TupleSystem(cover.k, cover.t, cover.n, len(cover), rows=_cover_rows(cover.parts, cover.n))


def tuple_to_cover(system: TupleSystem) -> Mod2Cover:
    """Inverse correspondence: one product per ground element.

    A ground element that is missing from every set of some family would give
    an empty part; such products cover nothing and are dropped, with one
    warning per call, which leaves the coverage parity untouched.
    """
    g = system.ground_size
    bits = _bits(system.rows, g).transpose(2, 0, 1)  # ground element x family x set
    empty = ~bits.any(axis=2)
    dropped = np.flatnonzero(empty.any(axis=1))
    if dropped.size:
        first = dropped[0]
        warnings.warn(
            f"{dropped.size} of {g} ground elements give an empty part, so their products are "
            f"dropped; the first is ground element {first + 1}, empty in coordinate "
            f"{np.argmax(empty[first]) + 1}",
            stacklevel=2,
        )
    return Mod2Cover(system.k, system.t, system.m, parts=_packed(bits))


def _ordered_vertices(bits: np.ndarray) -> list[tuple[Vertex, ...]]:
    """Per product of a 0/1 (S, kappa, n) part array, the tuples drawing one element
    per part with all entries distinct, in lexicographic order."""
    sizes = bits.sum(axis=2, dtype=np.intp)
    reach = sizes.prod(axis=1)  # the tuples of each product, distinct or not
    owner = np.repeat(np.arange(len(bits)), reach)
    rest = np.arange(len(owner)) - np.repeat(np.cumsum(reach) - reach, reach)
    entries = np.empty((len(owner), bits.shape[1]), dtype=np.intp)
    for j in reversed(range(bits.shape[1])):  # the last entry varies fastest
        size = sizes[owner, j]
        elements = np.nonzero(bits[:, j])[1] + 1  # the part's elements, product after product
        entries[:, j] = elements[np.repeat(np.cumsum(sizes[:, j]) - sizes[:, j], reach) + rest % size]
        rest //= size
    keep = np.ones(len(owner), dtype=bool)
    for i, j in combinations(range(bits.shape[1]), 2):
        keep &= entries[:, i] != entries[:, j]
    tuples = iter(map(tuple, entries[keep].tolist()))
    return [tuple(islice(tuples, c)) for c in np.bincount(owner[keep], minlength=len(bits)).tolist()]


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
    bits = _bits(cover.parts, cover.n)
    halves = zip(_ordered_vertices(bits[:, :kappa]), _ordered_vertices(bits[:, kappa:]))
    return OkBicliqueCover(cover.n, kappa, tuple((lo, hi) for lo, hi in halves if lo and hi))


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
    width = (len(cover.bicliques) + 7) // 8
    rows = gf2._row_bytes(rows[0] + rows[1], width).reshape(2, nv, width)
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
    perms = list(permutations(range(cover.k)))
    parts = cover.parts[:, perms].reshape(len(cover) * len(perms), *cover.parts.shape[1:])
    return Mod2Cover(cover.k, cover.k, cover.n, parts=_frozen(parts))


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

    bits = _bits(cover.parts, cover.n)
    bits = bits[bits[:, coordinate - 1, element - 1] == 1]
    bits = np.delete(np.delete(bits, coordinate - 1, axis=1), element - 1, axis=2)
    out = Mod2Cover(cover.k - 1, cover.k - 1, cover.n - 1, parts=_packed(bits))
    report = verify_mod2_cover(out)
    if not report.valid:
        raise InternalCheckError(f"link of a valid cover failed to verify: {report.violations[:3]}")
    return out


def restrict_cover(cover: Mod2Cover, new_n: int) -> Mod2Cover:
    """Restrict every part to [new_n], dropping products with an emptied part."""
    if not (0 <= new_n <= cover.n):
        raise ValueError("new ground size must be between 0 and n")
    bits = _bits(cover.parts, cover.n)[:, :, :new_n]
    return Mod2Cover(cover.k, cover.t, new_n, parts=_packed(bits))
