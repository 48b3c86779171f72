import dataclasses
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddtown import (
    Gf2Matrix,
    GfpMatrix,
    SubsetBits,
    is_linearly_independent,
    rank_gf2,
    rank_gfp,
)
from oddtown.gf2 import _rank_bitrows, _rank_packed, is_prime, row_dependency
from oddtown.ranks import mstar_observed_rank
from oddtown.search import _slice_level, build_search_instance


def test_rank_identity():
    assert rank_gf2(Gf2Matrix.identity(7)) == 7


def test_rank_all_ones():
    assert rank_gf2(Gf2Matrix.from_rows([[1, 1, 1]] * 3)) == 1


def test_rank_triangle_adjacency():
    # zero diagonal, ones elsewhere; third row is the sum of the first two
    m = Gf2Matrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert rank_gf2(m) == 2


def test_rank_empty_matrix():
    assert rank_gf2(Gf2Matrix(0, 0, ())) == 0
    assert rank_gf2(Gf2Matrix(2, 3, (0, 0))) == 0


def test_tail_bits_rejected():
    with pytest.raises(ValueError):
        Gf2Matrix(1, 2, (0b100,))


def test_rank_gfp_identity():
    assert rank_gfp(GfpMatrix.identity(5, 3)) == 5


def test_rank_gfp_proportional_rows():
    assert rank_gfp(GfpMatrix.from_rows([[1, 2], [2, 4]], 5)) == 1


def test_gfp_rejects_nonprime_modulus():
    with pytest.raises(ValueError):
        GfpMatrix.from_rows([[1]], 6)
    with pytest.raises(ValueError):
        GfpMatrix.from_rows([[1]], 253)  # 11 * 23
    for p in (-3, 0, 1, 257):
        with pytest.raises(ValueError):
            GfpMatrix.from_rows([[2**70]], p)


def test_gf2_from_rows_reduces_mod_2_and_rejects_ragged_rows():
    assert Gf2Matrix.from_rows([[3, -1, 2**70]]) == Gf2Matrix(1, 3, (0b011,))
    assert Gf2Matrix.from_rows([]) == Gf2Matrix(0, 0, ())
    assert Gf2Matrix.from_rows([[], []]) == Gf2Matrix(2, 0, (0, 0))
    with pytest.raises(ValueError):
        Gf2Matrix.from_rows([[1, 0], [1]])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(0, 19), st.data())
def test_gf2_array_round_trip_and_transpose(rows, cols, data):
    bitrows = [data.draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows)]
    m = Gf2Matrix.from_bitrows(bitrows, cols)
    a = m.to_array()
    assert a.shape == (rows, cols)
    assert a.tolist() == [[m.entry(i, j) for j in range(cols)] for i in range(rows)]
    assert Gf2Matrix.from_array(a) == m
    t = m.transpose()
    assert (t.rows, t.cols) == (cols, rows)
    assert all(t.entry(j, i) == m.entry(i, j) for i in range(rows) for j in range(cols))


def test_gfp_matrix_is_p_and_one_read_only_array():
    assert [f.name for f in dataclasses.fields(GfpMatrix)] == ["p", "data"]
    m = GfpMatrix.from_rows([[1, 7], [-1, 4], [0, 5]], 5)
    assert isinstance(m.data, np.ndarray) and m.data.dtype == np.int64
    assert m.data.tolist() == [[1, 2], [4, 4], [0, 0]]
    assert (m.rows, m.cols) == (3, 2)
    with pytest.raises(ValueError):
        m.data[0, 0] = 0
    assert rank_gfp(m) == 2 and m.data.tolist() == [[1, 2], [4, 4], [0, 0]]
    # compared by identity: the dataclass does not compare or hash arrays
    assert m != GfpMatrix.from_rows([[1, 2], [4, 4], [0, 0]], 5) and m == m
    assert len({m, m}) == 1


def test_gfp_from_rows_accepts_arrays_and_reduces_beyond_int64():
    assert GfpMatrix.from_rows([[2**70, -1]], 5).data.tolist() == [[4, 4]]
    huge = [[-(2**70), 2**64 - 1]]
    assert GfpMatrix.from_rows(huge, 7).data.tolist() == [[v % 7 for v in huge[0]]]
    eye = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    assert GfpMatrix.from_rows(eye, 3).data.tolist() == [[1, 0], [0, 1]]
    big = np.array([[2**64 - 1, 2**63]], dtype=np.uint64)
    assert GfpMatrix.from_rows(big, 5).data.tolist() == [[(2**64 - 1) % 5, 2**63 % 5]]
    assert GfpMatrix.identity(3, 7).data.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for rows, shape in (([], (0, 0)), ([[], []], (2, 0)), (np.zeros((0, 4), dtype=int), (0, 4))):
        m = GfpMatrix.from_rows(rows, 3)
        assert m.data.shape == shape and rank_gfp(m) == 0


def test_gfp_rejects_malformed_data_and_widens_narrow_dtypes():
    with pytest.raises(ValueError):
        GfpMatrix.from_rows([[1, 2], [3]], 5)
    with pytest.raises(ValueError):
        GfpMatrix.from_rows([1, 2], 5)  # one dimension
    with pytest.raises(ValueError):
        GfpMatrix(5, np.zeros((2, 2), dtype=np.int64))  # writeable
    frozen = np.array([[0, 5]])
    frozen.flags.writeable = False
    with pytest.raises(ValueError):
        GfpMatrix(5, frozen)  # not reduced mod 5
    with pytest.raises(ValueError):
        GfpMatrix(7, frozen.astype(float))
    assert GfpMatrix(7, frozen).data is frozen
    small = np.array([[4, 0, 2], [0, 3, 3], [3, 3, 2]], dtype=np.uint8)
    small.flags.writeable = False  # uint8 differences would wrap without widening
    assert rank_gfp(GfpMatrix(5, small)) == _reference_rank_mod_p(small.tolist(), 5) == 2


def test_gfp_range_checked_on_direct_construction_only():
    # direct construction range-checks the entries; from_rows reduces them first
    for bad in ([[0, 5]], [[-1, 0]], [[3, 2**40]]):
        frozen = np.array(bad)
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="not reduced mod 5"):
            GfpMatrix(5, frozen)
        reduced = GfpMatrix.from_rows(frozen, 5)
        assert reduced.data.tolist() == [[x % 5 for x in bad[0]]]
        assert GfpMatrix(5, reduced.data).data is reduced.data
    with pytest.raises(ValueError, match="2-D"):
        GfpMatrix.from_rows([[[1]]], 5)


def _reference_rank_mod_p(rows, p):
    """Plain row reduction over F_p on lists of Python ints."""
    work = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col] * inv
                work[r] = [(x - f * y) % p for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 251]), st.integers(0, 7), st.integers(0, 7), st.data())
def test_rank_gfp_matches_reference_elimination(p, rows, cols, data):
    # small values, and a row combining the first two, make dependent rows common
    values = st.integers(-2 * p, 2 * p) | st.sampled_from([0, 0, 1])
    entries = [[data.draw(values) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and data.draw(st.booleans()):
        entries[-1] = [2 * x + y for x, y in zip(entries[0], entries[1])]
    rows_or_array = entries
    if data.draw(st.booleans()):  # an array keeps the shape when rows or cols is 0
        rows_or_array = np.array(entries, dtype=np.int64).reshape(rows, cols)
    m = GfpMatrix.from_rows(rows_or_array, p)
    assert m.rows == rows
    assert rank_gfp(m) == _reference_rank_mod_p(entries, p)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([3, 251]), st.integers(1, 60), st.integers(1, 60), st.integers(0, 60),
       st.randoms(use_true_random=False))
def test_rank_gfp_delayed_reduction_on_dense_matrices(p, rows, cols, inner, rng):
    # a product through an inner dimension: the rank is at most inner, so rows
    # vanish mod p only after many unreduced updates
    left = np.array([[rng.randrange(p) for _ in range(inner)] for _ in range(rows)])
    right = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(inner)])
    entries = (left.reshape(rows, inner) @ right.reshape(inner, cols)) % p
    assert rank_gfp(GfpMatrix.from_rows(entries, p)) == _reference_rank_mod_p(entries.tolist(), p)


def test_mstar_ranks_pinned():
    assert mstar_observed_rank(11, 4, 5, 1) == 330
    assert mstar_observed_rank(12, 4, 3, 1) == 494
    assert mstar_observed_rank(9, 3, 7, 0) == 83
    assert mstar_observed_rank(6, 1, 2, 3) == 6


def test_is_prime():
    for p in range(0, 260):
        assert is_prime(p) == (p >= 2 and all(p % d != 0 for d in range(2, p)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.data())
def test_rank_matches_gfp_at_two(rows, cols, data):
    entries = [[data.draw(st.integers(0, 1)) for _ in range(cols)] for _ in range(rows)]
    assert rank_gf2(Gf2Matrix.from_rows(entries)) == rank_gfp(GfpMatrix.from_rows(entries, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.sampled_from([63, 64, 65, 128]) | st.integers(0, 200), st.data())
def test_packed_rank_matches_bitrow_elimination(rows, cols, data):
    # rows spanned by a few dense or sparse rows, so pivots skip columns and
    # land on both sides of word boundaries
    rng = data.draw(st.randoms(use_true_random=False))
    sparse = st.lists(st.integers(0, max(cols - 1, 0)), max_size=3).map(
        lambda bits: sum(1 << b for b in set(bits)) if cols else 0)
    basis = [rng.getrandbits(cols) if data.draw(st.booleans()) else data.draw(sparse)
             for _ in range(data.draw(st.integers(0, 10)))]
    bitrows = []
    for _ in range(rows):
        row = 0
        for b in basis:
            if data.draw(st.booleans()):
                row ^= b
        bitrows.append(row)
    m = Gf2Matrix.from_bitrows(bitrows, cols)
    assert _rank_packed(m) == _rank_bitrows(bitrows, cols)[0]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.randoms(use_true_random=False), st.data())
def test_rank_invariant_under_permutation(rows, cols, rng, data):
    entries = [[data.draw(st.integers(0, 1)) for _ in range(cols)] for _ in range(rows)]
    base = rank_gf2(Gf2Matrix.from_rows(entries))
    rperm = list(range(rows))
    cperm = list(range(cols))
    rng.shuffle(rperm)
    rng.shuffle(cperm)
    shuffled = [[entries[i][j] for j in cperm] for i in rperm]
    assert rank_gf2(Gf2Matrix.from_rows(shuffled)) == base


def test_is_linearly_independent_standard_basis():
    vecs = [SubsetBits.from_elements(5, [i]) for i in range(1, 6)]
    assert is_linearly_independent(vecs)


def test_is_linearly_independent_cycle():
    vecs = [
        SubsetBits.from_elements(3, [1, 2]),
        SubsetBits.from_elements(3, [2, 3]),
        SubsetBits.from_elements(3, [1, 3]),
    ]
    assert not is_linearly_independent(vecs)


def test_is_linearly_independent_empty():
    assert is_linearly_independent([])


def test_row_dependency_reports_cycle():
    dep = row_dependency([0b011, 0b110, 0b101], 3)
    assert dep == (0, 1, 2)
    assert row_dependency([0b001, 0b010], 3) is None


def _row_dependency_by_pairs(bitrows, cols):
    """Reference: elimination on (row, identity tag) pairs; the first row past
    the rank whose row part vanishes carries the dependency in its tag."""
    nrows = len(bitrows)
    work = [(bitrows[i], 1 << i) for i in range(nrows)]
    rank = 0
    for col in range(cols):
        mask = 1 << col
        pivot = next((r for r in range(rank, nrows) if work[r][0] & mask), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow, ptag = work[rank]
        for r in range(rank + 1, nrows):
            if work[r][0] & mask:
                work[r] = (work[r][0] ^ prow, work[r][1] ^ ptag)
        rank += 1
    for row, tag in work[rank:]:
        if row == 0 and tag != 0:
            return tuple(i for i in range(nrows) if (tag >> i) & 1)
    return None


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 8).flatmap(
    lambda cols: st.tuples(st.just(cols), st.lists(st.integers(0, 2**cols - 1), max_size=10))
))
def test_row_dependency_matches_pair_elimination(args):
    cols, rows = args
    dep = row_dependency(rows, cols)
    assert dep == _row_dependency_by_pairs(rows, cols)
    if dep is not None:
        acc = 0
        for i in dep:
            acc ^= rows[i]
        assert dep and acc == 0


def _min_weight(col_masks, max_weight):
    """Levels searched in ascending order, as ``min_mod2_cover`` does, on the
    n x n matrix with these columns, a sum of rank-one matrices: the products
    of the first nonempty level as (rows, columns) bitmasks, or None up to
    ``max_weight``."""
    instance = build_search_instance(2, 2, len(col_masks))
    instance = dataclasses.replace(instance, slices=tuple(col_masks))
    for w in range(max_weight + 1):
        cover = _slice_level(instance, w)
        if cover is not None:
            return [tuple(part.bits for part in p.parts) for p in cover.products]
    return None


def test_min_weight_identity():
    identity = Gf2Matrix.identity(3).column_masks()
    assert _min_weight(identity, 3) == [(1, 1), (2, 2), (4, 4)]
    assert _min_weight(identity, 2) is None
    assert _min_weight([0b101, 0, 0b101], 3) == [(0b101, 0b101)]


def test_min_weight_zero_target():
    assert _min_weight([0, 0], 2) == []


def _brute_force_min_weight(col_masks, b_mask, max_weight):
    m = len(col_masks)
    for w in range(max_weight + 1):
        for sup in combinations(range(m), w):
            acc = 0
            for j in sup:
                acc ^= col_masks[j]
            if acc == b_mask:
                return w, sup
    return None


def _rank_one_masks(n):
    """All products x1 x x2 of nonempty subsets of [n] as bitmasks over the
    n x n cells, bit i*n + j for the cell (i, j); x2 fastest."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    return [sum(1 << r for r, (i, j) in enumerate(cells) if x1 >> i & 1 and x2 >> j & 1)
            for x1 in range(1, 1 << n) for x2 in range(1, 1 << n)]


def _cells_mask(col_masks):
    """The matrix with these columns as a bitmask over its cells, as ``_rank_one_masks``."""
    n = len(col_masks)
    return sum((col_masks[j] >> i & 1) << (i * n + j) for i in range(n) for j in range(n))


def test_min_weight_pair_cover_system():
    # columns = all 49 bipartite products over [3]; rows = the 9 cells;
    # target = the off-diagonal indicator
    cols = _rank_one_masks(3)
    off_diagonal = [0b110, 0b101, 0b011]
    b_mask = _cells_mask(off_diagonal)
    oracle = _brute_force_min_weight(cols, b_mask, 2)
    assert oracle is not None and oracle[0] == 2

    products = _min_weight(off_diagonal, 3)
    assert len(products) == 2
    acc = 0
    for x1, x2 in products:
        acc ^= cols[(x1 - 1) * 7 + (x2 - 1)]
    assert acc == b_mask


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10**9))
def test_min_weight_agrees_with_enumeration(n, seed):
    # the least number of rank-one matrices summing to a matrix is its rank
    rng = random.Random(seed)
    col_masks = [rng.getrandbits(n) for _ in range(n)]
    products = _min_weight(col_masks, n)
    assert len(products) == rank_gf2(Gf2Matrix.from_bitrows(col_masks, n))
    acc = [0] * n
    for rows, columns in products:
        for j in range(n):
            if columns >> j & 1:
                acc[j] ^= rows
    assert acc == col_masks
    if n <= 3:  # nothing smaller exists among all (2^n - 1)^2 products
        oracle = _brute_force_min_weight(_rank_one_masks(n), _cells_mask(col_masks), n)
        assert oracle[0] == len(products)
