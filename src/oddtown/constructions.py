"""Explicit extremal constructions: set pairs, intersecting families, parity
covers built pattern by pattern, and the reductions down to set pairs.

Every constructor emits an object that passes its matching verifier; the test
suite enforces this over the whole parameter envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb
from typing import Iterator, Optional, Sequence

import numpy as np

from .covers import GpCover, Mod2Cover, _nonempty
from .gf2 import Gf2Matrix, _row_bytes
from .ranks import binomial_mod_p, subsets_colex
from .setsystems import SetFamily, TupleSystem, _and_rows, _frozen, verify_bollobas_tuple


def stirling2(k: int, t: int) -> int:
    """Number of partitions of a k-set into t nonempty blocks."""
    if k < 0 or t < 0:
        raise ValueError("arguments must be nonnegative")
    if t > k:
        return 0
    if k == 0:
        return 1
    # S(k,t) = t*S(k-1,t) + S(k-1,t-1)
    prev = [1] + [0] * t
    for row in range(1, k + 1):
        cur = [0] * (t + 1)
        for j in range(1, min(row, t) + 1):
            cur[j] = j * prev[j] + prev[j - 1]
        prev = cur
    return prev[t]


def falling_factorial(n: int, r: int) -> int:
    """(n)_r = n (n-1) ... (n-r+1)."""
    if n < 0 or r < 0:
        raise ValueError("arguments must be nonnegative")
    out = 1
    for i in range(r):
        out *= n - i
    return out


@dataclass(frozen=True)
class PatternPartition:
    """Set partition of the coordinate set [k]; blocks sorted by minimum."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise ValueError("blocks must be nonempty")
            if seen & set(b):
                raise ValueError("blocks must be disjoint")
            seen |= set(b)
        if seen != set(range(1, len(seen) + 1)):
            raise ValueError("blocks must partition an initial segment [k]")

    @property
    def k(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @classmethod
    def from_index_tuple(cls, idx: Sequence[int]) -> "PatternPartition":
        """Coincidence pattern of an index tuple: coordinates with equal values."""
        groups: dict[int, list[int]] = {}
        for pos, v in enumerate(idx, start=1):
            groups.setdefault(v, []).append(pos)
        blocks = sorted((tuple(g) for g in groups.values()), key=lambda b: b[0])
        return cls(tuple(blocks))


def set_partitions(k: int, max_blocks: Optional[int] = None) -> Iterator[PatternPartition]:
    """All set partitions of [k], in restricted-growth-string order; with
    ``max_blocks``, only those with at most that many blocks, in the same order
    (the walk never opens a block past the bound)."""
    bound = k if max_blocks is None else max_blocks
    if k == 0:
        yield PatternPartition(())
        return
    if bound < 1:
        return

    def rec(pos: int, rgs: list[int], maxblock: int) -> Iterator[list[int]]:
        if pos == k:
            yield rgs[:]
            return
        for b in range(min(maxblock + 2, bound)):
            rgs.append(b)
            yield from rec(pos + 1, rgs, max(maxblock, b))
            rgs.pop()

    for rgs in rec(1, [0], 0):
        nblocks = max(rgs) + 1
        blocks: list[list[int]] = [[] for _ in range(nblocks)]
        for pos, b in enumerate(rgs, start=1):
            blocks[b].append(pos)
        yield PatternPartition(tuple(tuple(b) for b in blocks))


def build_b22_pair(n: int) -> TupleSystem:
    """The singleton/complement pair of size n+1 over an even ground [n].

    A_i = {i}, B_i = [n] \\ {i} for i <= n, and A_{n+1} = B_{n+1} = [n].
    The complement and full-set parities need n even.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("ground size must be even and at least 2")
    table = _singletons(n)
    complements = table ^ table[n]
    complements[n] = table[n]
    return TupleSystem(2, 2, n + 1, n, rows=_frozen(np.stack([table, complements])))


@dataclass(frozen=True)
class Admissibility:
    ok: bool
    failures: tuple[tuple[int, int, int], ...]  # (d, top, bottom) with C(top, bottom) even

    def __bool__(self) -> bool:
        return self.ok


def admissible_n(t: int, n: int) -> Admissibility:
    """Whether all d-wise intersection sizes C(n-d, t-1-d), 1 <= d <= t-1, are odd."""
    if t < 2:
        raise ValueError("t must be at least 2")
    failures = []
    for d in range(1, t):
        top, bottom = n - d, t - 1 - d
        if top < 0 or binomial_mod_p(top, bottom, 2) == 0:
            failures.append((d, top, bottom))
    return Admissibility(not failures, tuple(failures))


def build_kt_oddtown_family(t: int, n: int) -> SetFamily:
    """n sets over the (t-1)-subsets of [n]: the i-th collects the subsets containing i.

    d-wise intersections have size C(n-d, t-1-d) for d <= t-1 and 0 for d >= t,
    so for admissible n the family follows the (k,t) variant for every k >= t.
    """
    adm = admissible_n(t, n)
    if not adm.ok:
        detail = ", ".join(f"C({top},{bot}) even (d={d})" for d, top, bot in adm.failures)
        raise ValueError(f"inadmissible n={n} for t={t}: {detail}")
    ground = comb(n, t - 1)
    columns = Gf2Matrix.from_bitrows(subsets_colex(n, t - 1), n).column_masks()
    return SetFamily(ground, rows=_row_bytes(columns, (ground + 7) // 8))


def _singletons(n: int) -> np.ndarray:
    """The parts every construction indexes, in the ``gf2._row_bytes`` layout:
    row e of the (n+1, ceil(n/8)) table is {e+1} and row n is [n]."""
    table = np.zeros((n + 1, (n + 7) // 8), dtype=np.uint8)
    e = np.arange(n)
    table[e, e // 8] = 1 << e % 8
    table[n] = np.packbits(np.ones(n, dtype=bool), bitorder="little")
    return table


def _pattern_products(pattern: PatternPartition, n: int, table: np.ndarray) -> np.ndarray:
    """Exact-once cover of the cells whose coincidence pattern equals ``pattern``.

    If the pattern has a singleton block, that block rides free over the values
    not pinned elsewhere and the other blocks are pinned to distinct values
    (cost (n)_{r-1}); otherwise all blocks are pinned (cost (n)_r).  Freeing a
    block that spans two or more coordinates would also cover refinements of
    the pattern, which is why only singleton blocks may be free.  A free part
    is empty when the pinned values take all of [n]; the caller drops it.
    """
    singles = [b for b in pattern.blocks if len(b) == 1]
    free_block = singles[0] if singles else None
    pinned = [b for b in pattern.blocks if b is not free_block]
    values = np.fromiter(permutations(range(n), len(pinned)), np.dtype((np.intp, len(pinned))))
    index = np.full((len(values), pattern.k), n)
    for block, column in zip(pinned, values.T):
        index[:, np.subtract(block, 1)] = column[:, None]
    parts = table[index]
    if free_block is not None:  # indexed at [n], it gives up the pinned values
        parts[:, free_block[0] - 1] ^= np.bitwise_or.reduce(table[values], axis=1)
    return parts


def build_partition_cover(k: int, t: int, n: int) -> Mod2Cover:
    """Parity cover of the >= t distinct target from per-pattern exact covers.

    Covers every coincidence pattern with fewer than t blocks exactly once and
    adds the full product [n]^k on top: non-edges end up covered twice, edges
    once.  Degenerates gracefully for n < t: patterns needing more than n
    distinct values have no cells and contribute no products.
    """
    if not (2 <= t <= k):
        raise ValueError("need 2 <= t <= k")
    if n < 1:
        raise ValueError("need n >= 1")
    table = _singletons(n)
    parts = [_pattern_products(p, n, table) for p in set_partitions(k, t - 1)]
    return Mod2Cover(k, t, n, parts=_nonempty(np.concatenate(parts + [table[[[n] * k]]])))


def build_cover_t2(k: int, n: int) -> Mod2Cover:
    """Diagonal singletons plus the full product: size n+1 for the t=2 target."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < 1:
        raise ValueError("n must be at least 1")
    return build_partition_cover(k, 2, n)  # the one-block pattern's cover is the diagonal


def build_cover_33(n: int) -> Mod2Cover:
    """Size 3n+1 cover of the all-distinct triple target.

    For each i: {i} x {i} x [n], {i} x [n] x {i}, [n] x {i} x {i}; plus [n]^3.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    i, full = np.arange(n), np.full(n, n)
    index = np.stack([[i, i, full], [i, full, i], [full, i, i]]).transpose(2, 0, 1).reshape(-1, 3)
    index = np.vstack([index, [[n] * 3]])
    return Mod2Cover(3, 3, n, parts=_frozen(_singletons(n)[index]))


def build_cover_43(n: int) -> Mod2Cover:
    """Cover of the >= 3 distinct target on 4 coordinates, size 3n^2 + 2n + 1.

    The diagonal-plus-full t=2 cover leaves exactly the two-block patterns at
    the wrong parity; each such pattern is repaired by its exact-once cover.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    table = _singletons(n)
    repairs = [_pattern_products(p, n, table) for p in set_partitions(4, 2) if p.block_count == 2]
    parts = np.concatenate([build_cover_t2(4, n).parts, *repairs])
    return Mod2Cover(4, 3, n, parts=_nonempty(parts))


def build_cover_22(n: int) -> Mod2Cover:
    """Best constructive pair cover: n-1 products for odd n, n for even n.

    Even n: the singleton/complement pair {i} x ([n] - {i}) does it directly.
    Odd n: the size-n singleton/complement pair over the even ground [n-1],
    pushed through the tuple-to-cover correspondence, gives {i, n} x ([n] - {i})
    for i < n (none at n = 1, whose lone cell is a non-edge).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    table = _singletons(n)
    singles = table[:n - n % 2]
    pair = [singles | table[n - 1] if n % 2 else singles, table[n] ^ singles]
    return Mod2Cover(2, 2, n, parts=_frozen(np.stack(pair, axis=1)))


def trivial_gp_cover(n: int, k: int) -> GpCover:
    """All C(n,k) products of k distinct singletons; an exact-once cover."""
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    index = np.fromiter(combinations(range(n), k), np.dtype((np.intp, k)))
    return GpCover(k, n, parts=_frozen(_singletons(n)[index]))


def reduce_tuple_to_pair(system: TupleSystem) -> TupleSystem:
    """Collapse a valid (k,t)-tuple to a set pair witnessing the size bound.

    For 2t-2 <= k the pair is indexed by (t-1)-subsets I of [m]: the A side
    intersects families 1..t-1 along I, the B side families t..2t-2 along I;
    families beyond 2t-2 are absorbed into the B side at the smallest index of
    I, which keeps every pair intersection a full k-wise intersection.

    For 2t-2 > k, alpha = 2t-k-2 leading families are pinned at the fixed
    indices 1..alpha and the remaining 2(k-t+1) families are split evenly
    between the two sides, indexed by (k-t+1)-subsets of [alpha+1, m].
    """
    if not verify_bollobas_tuple(system).valid:
        raise ValueError("input tuple is not valid")
    k, t, m, rows = system.k, system.t, system.m, system.rows
    if 2 * t - 2 <= k:
        idx = np.fromiter(combinations(range(m), t - 1), np.dtype((np.intp, t - 1)))
        a_side = _and_rows(rows[:t - 1], idx)
        b_idx = np.hstack([idx] + [idx[:, :1]] * (k - 2 * t + 2))
        b_side = _and_rows(rows[t - 1:], b_idx)
    else:
        alpha = 2 * t - k - 2
        r = k - t + 1
        if m <= alpha:
            raise ValueError(f"need m > {alpha} to pin the leading families")
        idx = np.fromiter(combinations(range(alpha, m), r), np.dtype((np.intp, r)))
        pinned = np.broadcast_to(np.arange(alpha), (len(idx), alpha))
        a_side = _and_rows(rows[:alpha + r], np.hstack([pinned, idx]))
        b_side = _and_rows(rows[t - 1:t - 1 + r], idx)
    if not len(idx):
        raise ValueError("reduction produced no index set; m is too small")
    return TupleSystem(2, 2, len(idx), system.ground_size, rows=_frozen(np.stack([a_side, b_side])))


def reduce_triple_b33(system: TupleSystem, anchor: int = 1) -> TupleSystem:
    """Reduce a valid all-distinct triple system to a set pair of size m-1.

    F_1 = {A_{1,a} ∩ A_{2,i}} and F_2 = {A_{1,a} ∩ A_{3,i}} over i != a; the
    anchor a defaults to the first index but any index works.
    """
    if system.k != 3 or system.t != 3:
        raise ValueError("requires a (3,3) tuple system")
    if system.m < 2:
        raise ValueError("need at least two indices")
    if not (1 <= anchor <= system.m):
        raise ValueError(f"anchor {anchor} out of range")
    if not verify_bollobas_tuple(system).valid:
        raise ValueError("input tuple is not valid")
    pair = system.rows[0, anchor - 1] & np.delete(system.rows[1:], anchor - 1, axis=1)
    return TupleSystem(2, 2, system.m - 1, system.ground_size, rows=_frozen(pair))
