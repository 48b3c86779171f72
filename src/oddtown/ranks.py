"""Inclusion matrices, Kneser graphs, digit-product binomial residues, the
closed-form subset-inclusion rank over F_p, and the rank-based cover bounds.

Subset row/column orders are colexicographic everywhere (ascending bitmask
order), so matrix fixtures are byte-stable across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import permutations
from math import comb
from operator import and_, or_
from typing import Iterator, Sequence

import numpy as np

from .gf2 import Gf2Matrix, GfpMatrix, InternalCheckError, is_prime, rank_gf2, rank_gfp


def binomial_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p via base-p digit products."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k > n:
        return 0
    result = 1
    while n or k:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        result = (result * comb(nd, kd)) % p
        n //= p
        k //= p
    return result


# Largest matrix, in entries, that is built for direct elimination: `rank`
# skips elimination above it and `mstar_observed_rank` refuses to build.
MAX_DIRECT_ENTRIES = 10**6


def subsets_colex(n: int, k: int) -> list[int]:
    """Bitmasks of the k-subsets of [n], ascending (= colexicographic)."""
    if k == 0:
        return [0]
    out, x, end = [], (1 << k) - 1, 1 << n
    while x < end:  # Gosper's step: the next larger mask with k one bits
        out.append(x)
        low = x & -x
        ripple = x + low
        x = ripple | (((x ^ ripple) >> 2) // low)
    return out


def _members(mask: int) -> Iterator[int]:
    """Positions of the one bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class InclusionMatrix:
    """0/1 matrix indexed by k-subsets (rows) and l-subsets (cols); entry = [K ⊆ L]."""

    n: int
    k: int
    l: int
    matrix: Gf2Matrix

    def to_gfp(self, p: int) -> GfpMatrix:
        return GfpMatrix.from_rows(self.matrix.to_array(), p)


def build_inclusion_matrix(n: int, k: int, l: int) -> InclusionMatrix:
    if not (0 <= k <= n and 0 <= l <= n):
        raise ValueError("need 0 <= k, l <= n")
    rows_sets = subsets_colex(n, k)
    cols_sets = subsets_colex(n, l)
    holders = Gf2Matrix.from_bitrows(cols_sets, n).column_masks()  # per element: its l-sets
    full = (1 << len(cols_sets)) - 1  # the row of the empty set
    rows = tuple(reduce(and_, (holders[e] for e in _members(km)), full) for km in rows_sets)
    return InclusionMatrix(n, k, l, Gf2Matrix(len(rows_sets), len(cols_sets), rows))


def _disjointness(sets: Sequence[int], n: int) -> Gf2Matrix:
    """Row i: the sets disjoint from sets[i], the complement of its elements' holders."""
    holders = Gf2Matrix.from_bitrows(sets, n).column_masks()  # per element: its sets
    full = (1 << len(sets)) - 1
    rows = tuple(full ^ reduce(or_, (holders[e] for e in _members(a)), 0) for a in sets)
    return Gf2Matrix(len(sets), len(sets), rows)


def kneser_adjacency(n: int, k: int) -> Gf2Matrix:
    """Adjacency of the disjointness graph on k-subsets, colex-indexed."""
    return _disjointness(subsets_colex(n, k), n)


@dataclass(frozen=True)
class OrderedKneserView:
    """Ordered distinct k-tuples over [n], adjacent when their sets are disjoint."""

    n: int
    k: int

    @property
    def vertices(self) -> list[tuple[int, ...]]:
        return list(permutations(range(1, self.n + 1), self.k))

    def adjacency(self) -> Gf2Matrix:
        return _disjointness([sum(1 << (e - 1) for e in v) for v in self.vertices], self.n)


def wilson_rank(n: int, k: int, l: int, p: int) -> int:
    """Closed-form F_p rank of the subset-inclusion matrix, for k <= min(l, n-l).

    Sum of C(n,i) - C(n,i-1) over the i in [0,k] whose coefficient
    C(l-i, k-i) is not divisible by p.  (At l = n-k, the disjointness-graph
    case, the coefficient reads C(n-k-i, k-i).)
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k > min(l, n - l):
        raise ValueError(f"formula domain requires k <= min(l, n-l); got k={k}, l={l}, n={n}")
    if k < 0 or l < 0:
        raise ValueError("k and l must be nonnegative")
    total = 0
    for i in range(k + 1):
        if binomial_mod_p(l - i, k - i, p) != 0:
            total += comb(n, i) - (comb(n, i - 1) if i >= 1 else 0)
    return total


def kneser_rank_lower_bound(n: int, k: int) -> int:
    """C(n,k) - C(n,k-4), valid on the congruence class n - 2k = 24 (mod 36).

    The four top binomial coefficients in the closed-form rank are verified to
    be odd before the value is returned; a parity failure would contradict the
    arithmetic this bound rests on and raises an internal error.  The value is
    also checked against the closed-form rank itself.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if (n - 2 * k) % 36 != 24:
        raise ValueError(f"requires n - 2k = 24 (mod 36); got {n - 2 * k}")
    for i in range(max(0, k - 3), k + 1):
        if binomial_mod_p(n - k - i, k - i, 2) != 1:
            raise InternalCheckError(
                f"C({n - k - i}, {k - i}) is even; the congruence argument fails"
            )
    value = comb(n, k) - (comb(n, k - 4) if k >= 4 else 0)
    formula = wilson_rank(n, k, n - k, 2)
    if formula < value:
        raise InternalCheckError(
            f"closed-form rank {formula} fell below the bound {value}"
        )
    return value


def cover_size_lower_bound(n: int, k: int) -> int:
    """ceil(rank_2(disjointness adjacency)/2): no biclique cover can be smaller.

    Valid as a lower bound for parity biclique covers of the ordered
    disjointness graph, and through the halving reduction for parity covers of
    the all-distinct 2k-coordinate target.
    """
    if 2 * k > n:
        raise ValueError("need 2k <= n")
    r = rank_gf2(kneser_adjacency(n, k))
    return (r + 1) // 2


def mstar_observed_rank(n: int, k: int, p: int, seed: int) -> int:
    """Observed F_p rank of the inclusion pattern with random nonzero entries.

    Experimental probe only: entries at incidences are drawn uniformly from
    [1, p-1] with the given seed, zeros elsewhere.  No bound is asserted.
    A matrix of more than MAX_DIRECT_ENTRIES entries is refused before it is built.
    """
    if not is_prime(p) or p < 2:
        raise ValueError(f"{p} is not prime")
    side = comb(n, k)  # C(n, k) rows and C(n, n-k) = C(n, k) columns; 0 when k > n
    if side * side > MAX_DIRECT_ENTRIES:
        raise ValueError(
            f"mstar matrix of {side}x{side} = {side * side} entries"
            f" exceeds the limit of {MAX_DIRECT_ENTRIES}"
        )
    ones = build_inclusion_matrix(n, k, n - k).matrix.to_array().astype(bool)
    rng = random.Random(seed)
    values = ones.astype(np.int64)  # the mask fills row-major: a nested loop's draw order
    values[ones] = [rng.randrange(1, p) for _ in range(np.count_nonzero(ones))]
    return rank_gfp(GfpMatrix.from_rows(values, p))
