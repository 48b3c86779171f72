"""Exact minimum parity-cover search at desk scale, and the bounds table.

The search is a per-weight-level exhaustion on grids of at most 64 cells,
where a column is one uint64: levels are proven empty in ascending order,
and the first level holding a solution yields the witness.  Weights up to 3
are lookups in the sorted column words, which return the lexicographically
first support.  Weights 4 and 5 are one vectorized meet-in-the-middle pass:
a probe walks the sorted pair sums shifted by the target in ascending order
and stops at the first that is also a sum of the remaining columns, the
smallest common value, from which the lookups re-derive both halves of the
support.  A presolve certifies the levels below the catalog-free lower
bounds: the closed forms, and the largest Koszul flattening bound of the
target, since each product is a rank-one tensor.  Before a level is
searched, the lower end at n - 1 raises the start, since a cover restricts
to a smaller ground set.  Every certificate that backs a reported value is
recorded on the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import comb, factorial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import constructions
from .covers import Mod2Cover, all_cells, permute_gp_cover, verify_mod2_cover
from .gf2 import Gf2Matrix, InternalCheckError, _row_bytes, rank_gf2
from .ranks import MAX_DIRECT_ENTRIES, cover_size_lower_bound

DEFAULT_CAP = 4096
DEFAULT_BUDGET = 8
_MITM_TRIPLE_CAP = 8_000_000  # the largest C(m, 3) at w = 5: bounds the probe's m * C(m, 2) queries
_RANK_MAX_CELLS = 65536  # largest target tensor the flattening bound builds
# The largest Koszul flattening matrix the bound eliminates.  On one 2-vCPU
# machine the bound takes 11 ms at (5,5,5), 10 ms at (3,3,16), 20 ms at
# (4,2,16) and at most 57 ms, at (16,2,2), over the 823 targets it builds.
_KOSZUL_MAX_ENTRIES = 10**5
_PROBE_QUERIES = 1 << 13  # queries per step of the probe: rows of H times offsets


class CapExceededError(ValueError):
    """The product catalog for the instance exceeds the configured cap."""


@dataclass(frozen=True)
class SearchInstance:
    """Catalog of candidate products and the edge-indicator target, with the
    lookups the level search derives from them.

    Columns enumerate all k-tuples of nonempty subsets of [n], subsets in
    ascending-bitmask (colex) order per coordinate, last coordinate fastest.
    Cell r of the grid is ``cells[r]``; column masks and the target are
    bitmasks over cell positions.
    """

    k: int
    t: int
    n: int
    cells: tuple[tuple[int, ...], ...]
    column_parts: tuple[tuple[int, ...], ...]  # per column: subset bitmask per coordinate
    columns: tuple[int, ...]  # per column: covered-cell bitmask
    target: int

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    @cached_property
    def words(self) -> np.ndarray:
        """The column masks as uint64, for grids of at most 64 cells."""
        return np.array(self.columns, dtype=np.uint64)

    @cached_property
    def sorted_words(self) -> tuple[np.ndarray, np.ndarray]:
        """``words`` ascending, and the column index of each; equal masks keep
        their indices ascending."""
        order = np.argsort(self.words, kind="stable")
        return self.words[order], order

    @cached_property
    def shifted_pair_sums(self) -> np.ndarray:
        """H: the sums of two distinct columns, each XOR-ed with the target,
        ascending."""
        words, m = self.words, self.num_columns
        sums = np.concatenate([words[i + 1 :] ^ words[i] for i in range(m - 1)])
        return np.sort(sums ^ np.uint64(self.target))


def _check_search_args(k: int, t: int, n: int) -> None:
    if not (2 <= t <= k):
        raise ValueError("need 2 <= t <= k")
    if n < 0:
        raise ValueError("n must be nonnegative")


def _catalog_size(k: int, n: int) -> int:
    return ((1 << n) - 1) ** k


def _target_tensor(k: int, t: int, n: int) -> np.ndarray:
    """The (k, t, n) target as a boolean n x ... x n tensor: the cells with at
    least t distinct entries, in the order of ``all_cells``."""
    grid = np.sort(np.indices((n,) * k).reshape(k, -1), axis=0)
    return (1 + np.count_nonzero(np.diff(grid, axis=0), axis=0) >= t).reshape((n,) * k)


def build_search_instance(k: int, t: int, n: int, cap: int = DEFAULT_CAP) -> SearchInstance:
    """The catalog of all (2^n - 1)^k products; CapExceededError above ``cap``."""
    _check_search_args(k, t, n)
    size = _catalog_size(k, n)
    if size > cap:
        raise CapExceededError(
            f"catalog for k={k}, n={n} has {size} products, above the cap {cap}"
        )
    n_subsets = (1 << n) - 1
    cells = tuple(all_cells(n, k))
    # Bitmask over cells of "coordinate j takes a value in subset s", s >= 1.
    coord_subset_mask = []
    for j in range(k):
        value_masks = Gf2Matrix.from_bitrows([1 << (idx[j] - 1) for idx in cells], n).column_masks()
        per_subset = [0]
        for s in range(1, n_subsets + 1):
            low = s & -s
            per_subset.append(per_subset[s ^ low] | value_masks[low.bit_length() - 1])
        coord_subset_mask.append(per_subset)
    column_parts = []
    columns = []
    for parts in product(range(1, n_subsets + 1), repeat=k):
        acc = coord_subset_mask[0][parts[0]]
        for j in range(1, k):
            acc &= coord_subset_mask[j][parts[j]]
        column_parts.append(parts)
        columns.append(acc)
    target_bytes = np.packbits(_target_tensor(k, t, n).ravel(), bitorder="little").tobytes()
    return SearchInstance(
        k, t, n, cells, tuple(column_parts), tuple(columns), int.from_bytes(target_bytes, "little")
    )


def _koszul_rank(slices: np.ndarray, p: int) -> int:
    """F_2 rank of the Koszul flattening T_A^{wedge p} of the tensor in
    A (x) B (x) C whose A-slices are ``slices``, a (d, |B|, |C|) 0/1 array.

    Its row blocks are the (p+1)-subsets R of [d], its column blocks the
    p-subsets Q; block (R, Q) is slice i transposed when R = Q + {i}, else 0
    (the signs vanish over F_2)."""
    d, nb, nc = slices.shape
    uppers = list(combinations(range(d), p + 1))
    lowers = {q: j for j, q in enumerate(combinations(range(d), p))}
    blocks = [(a, lowers[r[:i] + r[i + 1 :]], r[i]) for a, r in enumerate(uppers) for i in range(p + 1)]
    rows, cols, which = (list(x) for x in zip(*blocks))
    m = np.zeros((len(uppers), nc, len(lowers), nb), dtype=bool)
    m[rows, :, cols, :] = slices.transpose(0, 2, 1)[which]
    m = m.reshape(len(uppers) * nc, len(lowers) * nb)
    # the same rank; the elimination is cheaper on the side with fewer rows
    return rank_gf2(Gf2Matrix.from_array(m if m.shape[0] <= m.shape[1] else m.T))


def _flattening_terms(tensor: np.ndarray) -> Iterator[tuple[int, int, int, int]]:
    """Lower bounds on the F_2 tensor rank of a 0/1 tensor with k sides of n
    >= 1 values, as (r, d, p, bound): per r, the plain unfolding (d = n,
    p = 0), then Koszul flattenings after merging the values of A into d
    blocks.

    Read the tensor in A (x) B (x) C: A the first coordinate, B the next r and
    C the rest.  A rank-one a (x) b (x) c has a Koszul flattening
    T_A^{wedge p} of rank C(d-1, p) over any field (the Koszul complex of a
    nonzero vector is exact), and a linear map on A, such as merging the n
    values of A into d blocks, does not raise tensor rank.  So each
    ceil(rank T_A^{wedge p} / C(d-1, p)) is a bound.

    The terms taken suit a target, which every permutation of the values and
    of the coordinates fixes, so a merge matters only up to its block sizes.
    One merge per block count d >= 3 is taken, the hook: the first n - d + 1
    values of A form one block and every other value stays alone.  On all
    823 targets the bound builds (2 <= t <= k <= 16, at most
    ``_RANK_MAX_CELLS`` cells), the hooks give the same largest term as the
    merges by every integer partition of n into at least 3 blocks.  Swapping
    B and C turns T_A^{wedge p} into the transpose of T_A^{wedge (d-1-p)}, so
    r <= (k-1)/2, and p <= (d-1)/2 where B and C have the same size.  Left
    out as never above the plain unfoldings: p = 0 after a merge (its rows
    are sums of the plain rows), its transpose p = d-1, and a C of dimension
    1 (a matrix).  Matrices past ``_KOSZUL_MAX_ENTRIES`` entries are skipped.
    """
    k, n = tensor.ndim, len(tensor)
    for r in range(1, k // 2 + 1):
        slices = tensor.reshape(n, n**r, -1)
        yield r, n, 0, _koszul_rank(slices, 0)  # the unfolding of k - r against r coordinates
        if 2 * r == k:
            continue
        for d in range(n, 2, -1):
            top = (d - 1) // 2 if 2 * r == k - 1 else d - 2
            powers = [p for p in range(1, top + 1)
                      if comb(d, p + 1) * comb(d, p) * n ** (k - 1) <= _KOSZUL_MAX_ENTRIES]
            if not powers:
                continue
            merged = np.bitwise_xor.reduceat(slices, np.r_[0, n - d + 1 : n], axis=0)
            for p in powers:
                yield r, d, p, -(-_koszul_rank(merged, p) // comb(d - 1, p))


def flattening_rank_bound(k: int, t: int, n: int) -> Optional[int]:
    """The largest Koszul-flattening bound of the (k, t, n) target tensor
    (see ``_flattening_terms``), built without a column catalog; None when
    its n^k cells exceed ``_RANK_MAX_CELLS``.

    Its p = 0 terms are the F_2 ranks of the coordinate unfoldings: every
    product unfolds to a rank-one matrix along any coordinate bipartition,
    and the target is invariant under permuting coordinates, so all
    unfoldings that put a coordinates on the rows are one matrix.
    """
    _check_search_args(k, t, n)
    if n**k > _RANK_MAX_CELLS:
        return None
    if n < t:  # no cell has t distinct entries
        return 0
    return max((bound for *_, bound in _flattening_terms(_target_tensor(k, t, n))), default=0)


def _formula_lower(k: int, t: int, n: int) -> int:
    """The closed-form lower bounds, and at t = k the Kneser-rank bound (the
    disjointness graph of the k/2-sets of [n] at even k, of the (k-1)/2-sets
    of [n-1] at odd k) while its matrix fits ``MAX_DIRECT_ENTRIES``."""
    if n < t:
        return 0
    best = 1
    if t == 2:
        best = max(best, n - 1)
    if (k, t) == (3, 3):
        best = max(best, n - 2)
    if (k, t) == (4, 3) and n >= 5:
        best = max(best, -((-((n - 4) ** 2 - 2)) // 2))
    half, ground = k // 2, n - k % 2
    if t == k and 2 * half <= ground and comb(ground, half) ** 2 <= MAX_DIRECT_ENTRIES:
        best = max(best, cover_size_lower_bound(ground, half))
    return best


def _np_membership(sorted_vals: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Mask of the queries that occur in the ascending array ``sorted_vals``."""
    if sorted_vals.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    pos = np.searchsorted(sorted_vals, queries)
    pos = np.minimum(pos, len(sorted_vals) - 1)
    return sorted_vals[pos] == queries


def _probe_least_common(values: np.ndarray, offsets: np.ndarray) -> Optional[tuple[int, list[int]]]:
    """The first h of the ascending array ``values`` such that h ^ c is in
    ``values`` for some entry c of ``offsets``, with the indices of those
    entries, ascending; None if there is none.  Each step meets about
    ``_PROBE_QUERIES`` queries: as many rows of ``values`` as fit, each XOR-ed
    with every offset."""
    step = max(1, _PROBE_QUERIES // max(1, offsets.size))
    for lo in range(0, values.size, step):
        rows = values[lo : lo + step]
        hit = _np_membership(values, rows[:, None] ^ offsets)
        found = np.flatnonzero(hit.any(axis=1))
        if found.size:
            return int(rows[found[0]]), np.flatnonzero(hit[found[0]]).tolist()
    return None


def _search_weight_level(
    instance: SearchInstance,
    b_mask: int,
    weight: int,
    first_columns: Optional[Sequence[int]] = None,
) -> Optional[tuple[int, ...]]:
    """First (lexicographically smallest) support of exactly ``weight`` <= 3
    of the instance's columns XOR-ing to ``b_mask``; None if the level is
    empty, as every level past the number of columns is.  ``first_columns``,
    ascending, restricts only the smallest index used.

    A pair is one numpy step: each candidate j1 XORs the residual into its
    column, and the last column of the sorted words holding that value
    decides whether a partner j2 > j1 exists.  The first such j1 with its
    least partner is the lexicographically first pair.  A triple is one such
    step per first column.
    """
    columns, m = instance.columns, instance.num_columns
    if weight > m:
        return None
    if weight > 3:
        raise InternalCheckError(f"level {weight} is past the lookups")
    if weight == 0:
        return () if b_mask == 0 else None
    firsts = range(m) if first_columns is None else first_columns
    if weight == 1:
        return next(((j,) for j in firsts if columns[j] == b_mask), None)
    words = instance.words
    values, order = instance.sorted_words

    def lookup_pair(residual: int, lows: np.ndarray) -> Optional[tuple[int, int]]:
        want = words[lows] ^ np.uint64(residual)
        # the last of each wanted value; -1 (read as the largest) only below every value
        top = np.searchsorted(values, want, side="right") - 1
        found = np.flatnonzero((values[top] == want) & (order[top] > lows))
        if found.size == 0:
            return None
        i = found[0]
        # the columns holding the wanted value, ascending
        run = order[np.searchsorted(values, want[i]) : top[i] + 1]
        return int(lows[i]), int(run[np.searchsorted(run, lows[i], side="right")])

    if weight == 2:
        return lookup_pair(b_mask, np.array(firsts, dtype=np.intp))
    index = np.arange(m)
    for j0 in firsts:
        if j0 > m - 3:
            break
        got = lookup_pair(b_mask ^ columns[j0], index[j0 + 1 :])
        if got is not None:
            return (j0, *got)
    return None


def _level_engine(m: int, cells: int, w: int) -> Optional[str]:
    """The engine for level w of an m-column catalog over ``cells`` grid
    cells: "lookup" at w <= 3 and for the empty levels w > m, "mitm" at
    w = 4 and 5; None when the level is out of reach."""
    if w == 0 or w > m or cells <= 64 and w <= 3:
        return "lookup"
    if cells <= 64 and (w == 4 or w == 5 and comb(m, 3) <= _MITM_TRIPLE_CAP):
        return "mitm"
    return None


def _exhaust_level(instance: SearchInstance, w: int) -> Optional[tuple[int, ...]]:
    """Support of weight w, or None if the level is empty.

    Levels up to 3 are lookups.  Levels 4 and 5 are one meet-in-the-middle
    pass, which splits w = 2 + s.  Its value v is min I, where I holds the
    s-sums that are pair sums when shifted by the target.  A probe walks
    ``shifted_pair_sums``, H, in ascending order and takes the first h with
    h ^ c in H for some offset c.  At w = 4 the one offset is the target, so
    h is a pair sum; at w = 5 the offsets are the columns shifted by the
    target, so h ^ c is a pair sum for a column c.  That h is min I: I lies
    in H, and halves sharing a column would make the target a sum of fewer
    columns.  At w = 5 the columns c that hit are those of the triples of h,
    so the least of them starts its lexicographically first triple; they
    go, ascending, to the triple lookup as its first columns.  At (3,3,3)
    the probe reads all 58,653 values of H on the empty level 4, and hits at
    the 11th on level 5.

    The lookups then re-derive the lexicographically first pair of
    v ^ target and s-support of v.  ``_level_engine`` picks the route.
    Levels must be exhausted in ascending order: the probe rules out index
    collisions between the halves by appealing to the emptiness of lower
    levels.
    """
    m, b = instance.num_columns, instance.target
    engine = _level_engine(m, len(instance.cells), w)
    if engine == "lookup":
        return _search_weight_level(instance, b, w)
    if engine is None:
        raise InternalCheckError(f"level {w} with {m} columns is out of reach")
    offsets = np.uint64(b) ^ (instance.words if w == 5 else np.zeros(1, dtype=np.uint64))
    probed = _probe_least_common(instance.shifted_pair_sums, offsets)
    if probed is None:
        return None
    v, hit_columns = probed
    halves = (
        _search_weight_level(instance, v ^ b, 2),
        _search_weight_level(instance, v, w - 2, hit_columns if w == 5 else None),
    )
    if None in halves:
        raise InternalCheckError("meet-in-the-middle witness vanished on re-derivation")
    support = tuple(sorted({*halves[0], *halves[1]}))
    if len(support) != w:
        raise InternalCheckError("half supports collided despite refuted lower levels")
    return support


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a minimum-cover search with its certificates.

    ``status`` is "exact" (value and witness certified) or "interval"
    (only ``lower`` <= minimum <= ``upper`` is certified; ``upper``/``cover``
    may be absent).  ``rank_bound`` is the catalog-free lower bound, the
    larger of ``flattening_rank_bound`` and ``_formula_lower``; ``constructive`` is
    the size of the smallest explicit construction (None when it is too
    large to verify); ``levels_exhausted`` is the inclusive range of weights
    the search of this (k, t, n) itself proved empty (or None if none were);
    levels refuted by the outcome at n - 1, which raised its start, are not
    in it.
    """

    k: int
    t: int
    n: int
    status: str
    value: Optional[int]
    lower: int
    upper: Optional[int]
    cover: Optional[Mod2Cover]
    rank_bound: int
    levels_exhausted: Optional[tuple[int, int]]
    constructive: Optional[int]

    @property
    def exact(self) -> bool:
        return self.status == "exact"


def _cover_from_support(instance: SearchInstance, support: Sequence[int]) -> Mod2Cover:
    width = (instance.n + 7) // 8
    masks = [mask for ci in support for mask in instance.column_parts[ci]]
    parts = _row_bytes(masks, width).reshape(len(support), instance.k, width)
    return Mod2Cover(instance.k, instance.t, instance.n, parts=parts)


def min_mod2_cover(
    k: int,
    t: int,
    n: int,
    budget: int = DEFAULT_BUDGET,
    cap: int = DEFAULT_CAP,
) -> SearchOutcome:
    """Exact minimum size of a parity cover of the >= t distinct target.

    Two kinds of certificate need no product catalog: the smallest explicit
    construction (``best_constructive_cover``, built and verified there, then
    the upper bound) and all catalog-free lower bounds (the flattening bound
    and ``_formula_lower``).  A lower bound above the construction is an
    ``InternalCheckError``.  When they meet, the value is exact and nothing is
    searched.  Otherwise weight levels from the lower bound up to ``budget``
    and below the upper bound are exhausted in ascending order, while
    ``_level_engine`` reaches them.  The catalog of (2^n - 1)^k products is
    built only if one such level is left and it fits ``cap``; otherwise the
    outcome is the interval of the certificates, with no level searched.
    Before the first level is searched, the lower end of the outcome at
    n - 1 raises the start level (a cover restricts to a smaller ground set),
    and the levels left are counted again.  A witness the search returns is
    verified.  The result is deterministic.
    """
    _check_search_args(k, t, n)
    if n < t:  # no cell has t distinct entries
        return SearchOutcome(k, t, n, "exact", 0, 0, 0, Mod2Cover(k, t, n, ()), 0, None, 0)

    rank_bound = max(flattening_rank_bound(k, t, n) or 0, _formula_lower(k, t, n))
    construction = best_constructive_cover(k, t, n)
    upper = len(construction) if construction is not None else None
    if upper is not None and rank_bound > upper:
        raise InternalCheckError(f"lower bound {rank_bound} exceeds a verified cover of size {upper}")
    m = _catalog_size(k, n)

    def stop_from(level: int) -> int:
        """The first level from ``level`` on that is not searched."""
        while level <= budget and level != upper and _level_engine(m, n**k, level):
            level += 1
        return level

    start = w = max(1, rank_bound)
    support = None
    if stop_from(start) > start and m <= cap:
        start = w = max(start, min_mod2_cover(k, t, n - 1, budget, cap).lower)
        if upper is not None and start > upper:
            raise InternalCheckError(
                f"lower bound {start} carried from n - 1 exceeds a verified cover of size {upper}"
            )
        stop = stop_from(start)
        if stop > start:
            instance = build_search_instance(k, t, n, cap)
            while w < stop and (support := _exhaust_level(instance, w)) is None:
                w += 1
    # Every level below w is refuted, by the lower bounds or by the search.
    exhausted = (start, w - 1) if w > start else None
    if support is not None:
        cover = _cover_from_support(instance, support)
        if not verify_mod2_cover(cover).valid:
            raise InternalCheckError("search witness failed cover verification")
        return SearchOutcome(k, t, n, "exact", w, w, w, cover, rank_bound, exhausted, upper)
    status, value = ("exact", w) if w == upper else ("interval", None)
    return SearchOutcome(
        k, t, n, status, value, w, upper, construction, rank_bound, exhausted, upper
    )


# Largest cover check ``best_constructive_cover`` runs, in n^k * ceil(S / 64)
# words for S products.  On one 2-vCPU machine, with the parity scan counting
# sparse products pair by pair: verifying the (6,6,9) permuted singleton cover
# (5.0e8 words) takes 0.08-0.11 s, and the (6,6,10) partition cover (2.2e9
# words, 142,271 products) 0.44-0.48 s after 0.14-0.15 s to build it.  The
# words are a cost model from before the blocked parity scan, and no longer
# track its time; the limit is kept so that the verdicts stay as they are.
VERIFY_MAX_WORDS = 10**9


def _verify_words(k: int, n: int, size: int) -> int:
    """What checking a cover of ``size`` products on the n^k grid is charged."""
    return n**k * -(-size // 64)


def _partition_cover_size(k: int, t: int, n: int) -> int:
    """Size of ``build_partition_cover(k, t, n)`` for n >= t, without walking
    the partitions: the full product, and per partition of [k] into r < t
    blocks (n)_r products, or (n)_(r-1) when a singleton block rides free.
    Of the S(k, r) partitions, sum_i (-1)^i C(k, i) S(k-i, r-i) have no
    singleton block (inclusion-exclusion over the singletons)."""
    stirling, falling = constructions.stirling2, constructions.falling_factorial
    size = 1
    for r in range(1, t):
        plain = sum((-1) ** i * comb(k, i) * stirling(k - i, r - i) for i in range(r + 1))
        size += plain * falling(n, r) + (stirling(k, r) - plain) * falling(n, r - 1)
    return size


def _smallest_construction(k: int, t: int, n: int) -> tuple[int, Callable[[], Mod2Cover]]:
    """Closed-form size and builder of the smallest applicable construction
    for n >= t; ties go to the earlier candidate."""
    candidates = [
        (_partition_cover_size(k, t, n), lambda: constructions.build_partition_cover(k, t, n))
    ]
    if (k, t) == (2, 2):
        candidates.append((n - n % 2, lambda: constructions.build_cover_22(n)))
    if (k, t) == (3, 3):
        candidates.append((3 * n + 1, lambda: constructions.build_cover_33(n)))
    if t == k and k <= n:
        candidates.append((
            factorial(k) * comb(n, k),
            lambda: permute_gp_cover(constructions.trivial_gp_cover(n, k)),
        ))
    return min(candidates, key=lambda c: c[0])


def best_constructive_cover(k: int, t: int, n: int) -> Optional[Mod2Cover]:
    """Smallest cover among the applicable explicit constructions, verified;
    None when verifying it would exceed ``VERIFY_MAX_WORDS``.  Only the
    smallest candidate by closed-form size is built."""
    if n < t:
        return Mod2Cover(k, t, n, ())  # no cell has t distinct entries
    size, build = _smallest_construction(k, t, n)
    if _verify_words(k, n, size) > VERIFY_MAX_WORDS:
        return None
    cover = build()
    if len(cover) != size:
        raise InternalCheckError(f"construction has {len(cover)} products, its closed form {size}")
    if not verify_mod2_cover(cover).valid:
        raise InternalCheckError("constructive cover failed verification")
    return cover


@dataclass(frozen=True)
class ExactBResult:
    """Largest admissible ground size for tuples of a given index count.

    ``value`` is set when the answer is certified exactly; otherwise
    ``at_least`` is the best certified lower value and the answer is open
    upward (search budget, catalog cap or construction limit ran out).
    """

    k: int
    t: int
    m: int
    value: Optional[int]
    at_least: int

    @property
    def exact(self) -> bool:
        return self.value is not None


def exact_b(
    k: int,
    t: int,
    m: int,
    budget: Optional[int] = None,
    cap: int = DEFAULT_CAP,
) -> ExactBResult:
    """max{n : minimum cover size of the (k,t,n) target <= m}, probed upward.

    Correct because restricting a cover to a smaller ground set keeps it
    valid, so the minimum size is monotone in n.  A ground size whose
    construction fits m needs no search: its closed-form size decides.  Only
    the cover at the returned ground size, which certifies every smaller one
    too, is built and verified: by ``min_mod2_cover`` if it searched there,
    else here.
    """
    _check_search_args(k, t, 0)
    if m < 0:
        raise ValueError("m must be nonnegative")
    best, best_verified = 0, True
    n = 1
    while True:
        size = _smallest_construction(k, t, n)[0] if n >= t else 0
        if size <= m and _verify_words(k, n, size) <= VERIFY_MAX_WORDS:
            best_verified = False
        else:
            level_budget = min(m, budget) if budget is not None else m
            out = min_mod2_cover(k, t, n, budget=level_budget, cap=cap)
            if not (out.exact and out.value <= m):
                # f(n) > m settles every larger n too.
                if not best_verified:
                    best_constructive_cover(k, t, best)
                return ExactBResult(k, t, m, best if out.lower > m else None, best)
            best_verified = True
        best = n
        n += 1


@dataclass(frozen=True)
class TableRow:
    k: int
    t: int
    n: int
    lower: int
    upper: int
    constructive: int
    exact: Optional[int]

    def fields(self) -> tuple:
        return (self.k, self.t, self.n, self.lower, self.upper, self.constructive,
                "" if self.exact is None else self.exact)


ERRATUM_22 = (
    "note: for (k,t)=(2,2) the published case split (n odd -> n, n even -> n-1) "
    "contradicts the underlying pair sizes (n even -> n+1, n odd -> n); exact "
    "search confirms the corrected pattern 2, 2, 4, 4, 6 shown in this table."
)


def _formula_upper(k: int, t: int, n: int) -> int:
    """The specific closed-form upper bounds where stated; otherwise the
    generic pattern-by-pattern sum 1 + sum over partitions with < t blocks."""
    if n < t:
        return 0
    specific = []
    if t == 2:
        specific.append(n + 1)
    if (k, t) == (3, 3):
        specific.append(3 * n + 1)
    if (k, t) == (4, 3):
        specific.append(3 * n * n + 4 * n + 1)
    if t == k and k <= n:
        specific.append(factorial(k) * comb(n, k))
    return min(specific) if specific else _partition_cover_size(k, t, n)


def bounds_table(
    k: int,
    t: int,
    n_values: Sequence[int],
    budget: int = 3,
    cap: int = DEFAULT_CAP,
) -> tuple[list[TableRow], list[str]]:
    """One row per n: certified bounds, the best construction, and the exact
    minimum when the search settles it or the lower bound meets the
    construction.  Raises on any bound violation, and ValueError when the
    construction is too large to verify.
    """
    rows = []
    notes = []
    if (k, t) == (2, 2):
        notes.append(ERRATUM_22)
    for n in n_values:
        out = min_mod2_cover(k, t, n, budget=budget, cap=cap)
        lower, exact, constructive = out.lower, out.value, out.constructive
        if constructive is None:
            size, _ = _smallest_construction(k, t, n)
            raise ValueError(
                f"the smallest construction at (k,t,n)=({k},{t},{n}) has {size} products "
                f"on n^k = {n**k} cells, above the verification limit of "
                f"{VERIFY_MAX_WORDS} words"
            )
        upper = _formula_upper(k, t, n)
        if constructive > upper:
            raise InternalCheckError(
                f"construction of size {constructive} violates the upper bound {upper}"
            )
        if lower > constructive:
            raise InternalCheckError(
                f"certified lower bound {lower} exceeds a verified cover of size {constructive}"
            )
        if exact is not None and not (lower <= exact <= min(upper, constructive)):
            raise InternalCheckError(
                f"exact value {exact} escapes bounds [{lower}, {min(upper, constructive)}]"
            )
        if lower > upper:
            raise InternalCheckError(f"bounds crossed: {lower} > {upper}")
        rows.append(TableRow(k, t, n, lower, upper, constructive, exact))
    return rows, notes


def format_table(rows: Sequence[TableRow], notes: Sequence[str]) -> str:
    header = ("k", "t", "n", "lower", "upper", "constructive", "exact")
    table = [header] + [tuple(str(f) for f in r.fields()) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = ["  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)) for row in table]
    lines.extend(notes)
    return "\n".join(lines) + "\n"


def machine_rows(rows: Sequence[TableRow], notes: Sequence[str]) -> str:
    lines = [f"# {note}" for note in notes]
    for r in rows:
        lines.append("\t".join(str(f) for f in r.fields()))
    return "\n".join(lines) + "\n"
