"""Exact minimum parity-cover search at desk scale, and the bounds table.

A cover of size r writes the (k, t, n) target as the sum of r products,
rank-one tensors over F_2.  Cut along its last coordinate, the target's n
slices span a space S of dimension d, and the products restrict to
rank-one (k-1)-tensors whose span W holds S.  So one slice-span test decides
every level (``_slice_level``): level r holds a cover iff some W of
dimension r that contains S is spanned by the rank-one tensors inside it.
Levels are searched in ascending order while ``_SLICE_MAX_WORK`` bounds
them, and the first nonempty one yields the witness.  A presolve certifies
the levels below the search-free lower bounds: the closed forms, and the
largest Koszul flattening bound of the target, since each product is a
rank-one tensor.  Each (k, t, n) is searched on its own, from those bounds.
Every certificate that backs a reported value is recorded on the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb, factorial, inf
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import constructions
from .covers import Mod2Cover, permute_gp_cover, verify_mod2_cover
from .gf2 import Gf2Matrix, InternalCheckError, _rank_bitrows, _row_bytes, rank_gf2
from .ranks import MAX_DIRECT_ENTRIES, cover_size_lower_bound
from .setsystems import _exceeds

DEFAULT_BUDGET = 8
_RANK_MAX_CELLS = 65536  # largest target tensor the flattening bound builds
# The largest Koszul flattening matrix the bound eliminates.  On one 2-vCPU
# machine the bound takes 11 ms at (5,5,5), 10 ms at (3,3,16), 20 ms at
# (4,2,16) and at most 57 ms, at (16,2,2), over the 823 targets it builds.
_KOSZUL_MAX_ENTRIES = 10**5
# The largest R * C(R, r - d) a searched level may cost: the R rank-one
# tensors read for each subspace the slice-span test tries.
_SLICE_MAX_WORK = 10**7


@dataclass(frozen=True)
class SearchInstance:
    """The target cut into its slices, and the rank-one (k-1)-tensors.

    Words are bitmasks over the cells of the (k-1)-grid in ``all_cells``
    order.  ``slices[j]`` holds the cells c with c + (j + 1,) in the target.
    The rank-one tensors are all (k-1)-tuples of nonempty subsets of [n], in
    catalog order: subsets in ascending-bitmask (colex) order per
    coordinate, last coordinate fastest.  ``parts[i]`` holds the subset
    bitmasks of the i-th, ``words[i]`` its cells.
    """

    k: int
    t: int
    n: int
    parts: tuple[tuple[int, ...], ...]
    words: tuple[int, ...]
    slices: tuple[int, ...]

    @property
    def num_columns(self) -> int:
        """R = (2^n - 1)^(k-1), the number of rank-one tensors."""
        return len(self.words)

    @cached_property
    def span(self) -> list[int]:
        """An echelon basis of S, the span of the slices: each vector's lowest
        bit is its pivot, which no later vector holds (``_rank_bitrows``)."""
        rank, rows = _rank_bitrows(self.slices, self.n ** (self.k - 1))
        return rows[:rank]

    @cached_property
    def images(self) -> dict[int, list[int]]:
        """The rank-one tensors grouped by their image modulo S, each group
        in catalog order; the image is the word with every pivot of ``span``
        cleared, in basis order, a linear map onto a complement of S."""
        groups: dict[int, list[int]] = {}
        for i, word in enumerate(self.words):
            for vector in self.span:
                if word & vector & -vector:
                    word ^= vector
            groups.setdefault(word, []).append(i)
        return groups


def _check_search_args(k: int, t: int, n: int) -> None:
    if not (2 <= t <= k):
        raise ValueError("need 2 <= t <= k")
    if n < 0:
        raise ValueError("n must be nonnegative")


def _target_tensor(k: int, t: int, n: int) -> np.ndarray:
    """The (k, t, n) target as a boolean n x ... x n tensor: the cells with at
    least t distinct entries, in the order of ``all_cells``."""
    grid = np.sort(np.indices((n,) * k).reshape(k, -1), axis=0)
    return (1 + np.count_nonzero(np.diff(grid, axis=0), axis=0) >= t).reshape((n,) * k)


def _target_slices(k: int, t: int, n: int) -> tuple[int, ...]:
    """The target cut along its last coordinate, one word per value."""
    columns = _target_tensor(k, t, n).reshape(n ** (k - 1), n).T
    return tuple(int.from_bytes(np.packbits(c, bitorder="little"), "little") for c in columns)


def _spread(word: int, n: int) -> int:
    """The word with bit p moved to bit p * n."""
    out = 0
    while word:
        low = word & -word
        out |= 1 << (low.bit_length() - 1) * n
        word ^= low
    return out


def build_search_instance(k: int, t: int, n: int) -> SearchInstance:
    """The target's slices and all (2^n - 1)^(k-1) rank-one (k-1)-tensors.
    A tensor's word is the Kronecker product of its subsets, so appending a
    subset s spreads the word's bits n apart and multiplies by s."""
    _check_search_args(k, t, n)
    subsets = range(1, 1 << n)
    parts: list[tuple[int, ...]] = [()]
    words = [1]
    for _ in range(k - 1):
        parts = [p + (s,) for p in parts for s in subsets]
        words = [spread * s for spread in (_spread(w, n) for w in words) for s in subsets]
    return SearchInstance(k, t, n, tuple(parts), tuple(words), _target_slices(k, t, n))


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
    (see ``_flattening_terms``), built from the target alone; None when
    its n^k cells exceed ``_RANK_MAX_CELLS``.

    Its p = 0 terms are the F_2 ranks of the coordinate unfoldings: every
    product unfolds to a rank-one matrix along any coordinate bipartition,
    and the target is invariant under permuting coordinates, so all
    unfoldings that put a coordinates on the rows are one matrix.
    """
    _check_search_args(k, t, n)
    if _exceeds(n, k, _RANK_MAX_CELLS):
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


def _level_in_reach(size: int, free: int) -> bool:
    """Whether a level costs at most ``_SLICE_MAX_WORK``: ``size`` rank-one
    tensors read for each of the C(size, free) subspaces it tries, free =
    r - d.  The product is multiplied out no further than past the limit."""
    work = size
    for i in range(min(free, size - free)):
        work = work * (size - i) // (i + 1)
        if work > _SLICE_MAX_WORK:
            return False
    return work <= _SLICE_MAX_WORK


def _slice_level(instance: SearchInstance, r: int) -> Optional[Mod2Cover]:
    """A cover of r products, or None if level r is empty; every level
    below r must be empty, so levels go in ascending order.

    Let S be the span of the slices, d its dimension.  A cover of r
    products restricts to r rank-one tensors whose span W holds S, and W has
    dimension r, or a lower level would hold a cover.  Conversely, the slices
    solved over a basis of such a W give the products' last parts.  W/S is
    spanned by the images modulo S of the tensors in W, so W is the preimage
    of the span of some r - d independent nonzero images B.  All (r - d)-sets
    B are tried in ``combinations`` order over the ascending images (a
    dependent one spans less, so its preimage cannot hold r independent
    tensors); the first whose preimage holds r independent rank-one tensors
    wins, and the first r of them in catalog order are the basis.  Product i
    is basis tensor i times x_i = {j : slice j uses it}, in catalog order; no
    x_i is empty, as the level below is.
    """
    d, groups, words = len(instance.span), instance.images, instance.words
    if r < d:
        return None
    for chosen in combinations(sorted(im for im in groups if im), r - d):
        span = [0]
        for image in chosen:
            span += [x ^ image for x in span]
        basis: dict[int, tuple[int, int]] = {}  # leading bit: (vector, basis tensors summed)
        picked = []
        for i in sorted(i for image in span for i in groups.get(image, ())):
            if len(picked) == r:
                break
            v, tag = words[i], 1 << len(picked)
            while v and (top := v.bit_length() - 1) in basis:
                v, tag = v ^ basis[top][0], tag ^ basis[top][1]
            if v:
                basis[top] = v, tag
                picked.append(i)
        if len(picked) == r:
            return _solve_slices(instance, picked, basis)
    return None


def _solve_slices(instance: SearchInstance, picked: list[int], basis: dict) -> Mod2Cover:
    """The cover whose product i is tensor ``picked[i]`` times the slices
    that use it, from the echelon ``basis`` of the picked tensors."""
    lasts = [0] * len(picked)
    for j, v in enumerate(instance.slices):
        tag = 0
        while v:
            vector, summed = basis[v.bit_length() - 1]
            v, tag = v ^ vector, tag ^ summed
        for i in range(len(picked)):
            lasts[i] |= (tag >> i & 1) << j
    if not all(lasts):
        raise InternalCheckError("a slice-span cover has an unused product")
    masks = [m for i, last in zip(picked, lasts) for m in (*instance.parts[i], last)]
    width = (instance.n + 7) // 8
    parts = _row_bytes(masks, width).reshape(len(picked), instance.k, width)
    return Mod2Cover(instance.k, instance.t, instance.n, parts=parts)


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a minimum-cover search with its certificates.

    ``status`` is "exact" (value and witness certified) or "interval"
    (only ``lower`` <= minimum <= ``upper`` is certified; ``upper``/``cover``
    may be absent).  ``rank_bound`` is the search-free lower bound, the
    larger of ``flattening_rank_bound`` and ``_formula_lower``; ``constructive`` is
    the size of the smallest explicit construction (None when it is too
    large to verify); ``levels_exhausted`` is the inclusive range of weights
    the search proved empty (or None if none were), which always starts at
    the search-free lower end max(1, ``rank_bound``).
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


def min_mod2_cover(k: int, t: int, n: int, budget: int = DEFAULT_BUDGET) -> SearchOutcome:
    """Exact minimum size of a parity cover of the >= t distinct target.

    Two kinds of certificate need no search: the smallest explicit
    construction (``best_constructive_cover``, built and verified there, then
    the upper bound) and all search-free lower bounds (the flattening bound
    and ``_formula_lower``).  A lower bound above the construction is an
    ``InternalCheckError``.  When they meet, the value is exact and nothing is
    searched.  Otherwise levels from the lower bound up to ``budget`` and
    below the upper bound are searched in ascending order by
    ``_slice_level``, while each costs at most ``_SLICE_MAX_WORK``; the slice
    span's dimension d, which that cost needs, is computed only when the
    first level is within the budget and below the upper bound.  No other
    instance is consulted.  A witness the search returns is verified.  The
    result is deterministic.
    """
    _check_search_args(k, t, n)
    if n < t:  # no cell has t distinct entries
        return SearchOutcome(k, t, n, "exact", 0, 0, 0, Mod2Cover(k, t, n, ()), 0, None, 0)

    rank_bound = max(flattening_rank_bound(k, t, n) or 0, _formula_lower(k, t, n))
    construction = best_constructive_cover(k, t, n)
    upper = len(construction) if construction is not None else None
    if upper is not None and rank_bound > upper:
        raise InternalCheckError(f"lower bound {rank_bound} exceeds a verified cover of size {upper}")
    start = w = max(1, rank_bound)
    cover = None
    # R, the number of rank-one tensors, is formed only once the work limit
    # bounds it; n > 64 is rejected before 2^n is formed
    if (start <= budget and start != upper and n <= 64
            and not _exceeds((1 << n) - 1, k - 1, _SLICE_MAX_WORK)):
        size, instance = ((1 << n) - 1) ** (k - 1), None
        d = _rank_bitrows(_target_slices(k, t, n), n ** (k - 1))[0]
        while w <= budget and w != upper and _level_in_reach(size, w - d):
            instance = instance or build_search_instance(k, t, n)
            if (cover := _slice_level(instance, w)) is not None:
                break
            w += 1
    # Every level below w is refuted, by the lower bounds or by the search.
    exhausted = (start, w - 1) if w > start else None
    if cover is not None:
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
    if _exceeds(n, k, VERIFY_MAX_WORDS):  # before any size: every cover here has a product
        return None
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
    upward (the search budget or work limit, or the construction limit,
    ran out).
    """

    k: int
    t: int
    m: int
    value: Optional[int]
    at_least: int

    @property
    def exact(self) -> bool:
        return self.value is not None


def exact_b(k: int, t: int, m: int, budget: Optional[int] = None) -> ExactBResult:
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
        if n < t:
            size = 0
        else:  # n^k decides first, as in ``best_constructive_cover``
            size = inf if _exceeds(n, k, VERIFY_MAX_WORDS) else _smallest_construction(k, t, n)[0]
        if size <= m and _verify_words(k, n, size) <= VERIFY_MAX_WORDS:
            best_verified = False
        else:
            level_budget = min(m, budget) if budget is not None else m
            out = min_mod2_cover(k, t, n, budget=level_budget)
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
        out = min_mod2_cover(k, t, n, budget=budget)
        lower, exact, constructive = out.lower, out.value, out.constructive
        if constructive is None:
            if _exceeds(n, k, VERIFY_MAX_WORDS):
                what = f"every cover at (k,t,n)=({k},{t},{n}) lies on n^k = {n}^{k} cells"
            else:
                size, _ = _smallest_construction(k, t, n)
                what = (f"the smallest construction at (k,t,n)=({k},{t},{n}) has {size} "
                        f"products on n^k = {n**k} cells")
            raise ValueError(f"{what}, above the verification limit of {VERIFY_MAX_WORDS} words")
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
