import inspect
import shlex
import time
from dataclasses import replace
from functools import cache
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddtown import (
    Mod2Cover,
    falling_factorial,
    set_partitions,
    build_cover_22,
    build_cover_33,
    build_cover_43,
    build_partition_cover,
    build_search_instance,
    exact_b,
    min_mod2_cover,
    permute_gp_cover,
    trivial_gp_cover,
    verify_mod2_cover,
)
from oddtown import search
from oddtown.cli import main
from oddtown.covers import all_cells
from oddtown.gf2 import Gf2Matrix, InternalCheckError, rank_gf2
from oddtown.search import (
    ERRATUM_22,
    _slice_level,
    best_constructive_cover,
    bounds_table,
    flattening_rank_bound,
    format_table,
    machine_rows,
)


def _spy_catalogs(mp):
    """Record the arguments of every search instance built."""
    calls, real = [], search.build_search_instance

    def spy(*args):
        calls.append(args)
        return real(*args)

    mp.setattr(search, "build_search_instance", spy)
    return calls


def support_of(out):
    """The witness as (rank-one tensor index, last part) per product."""
    inst = build_search_instance(out.k, out.t, out.n)
    return tuple(
        (inst.parts.index(tuple(part.bits for part in p.parts[:-1])), p.parts[-1].bits)
        for p in out.cover.products
    )


def target_mask(n, k, t, cells):
    """The target cell by cell: the bit of each cell with at least t distinct entries."""
    mask = 0
    for pos, idx in enumerate(cells):
        if len(set(idx)) >= t:
            mask |= 1 << pos
    return mask


def first_level(inst, top):
    """The cover of the first nonempty level, searched from level 0 in
    ascending order with no lower bound, or None if it is past ``top``."""
    covers = (_slice_level(inst, r) for r in range(top + 1))
    return next((cover for cover in covers if cover is not None), None)


def pure_levels(k, t, n, top):
    """Whether each level 1..top holds a cover, searched in ascending order
    on a fresh instance with no lower bound: the search alone."""
    inst = build_search_instance(k, t, n)
    return [_slice_level(inst, w) is not None for w in range(1, top + 1)]


def product_mask(parts, cells):
    """The cells of the k-grid a product of subset bitmasks covers."""
    return sum(1 << pos for pos, c in enumerate(cells)
               if all(part >> (v - 1) & 1 for part, v in zip(parts, c)))


@cache
def reference_catalog(k, n):
    """Every product of k nonempty subsets of [n] as its cell mask over the
    k-grid: the catalog the level search used to enumerate."""
    cells = all_cells(n, k)
    subsets = range(1, 1 << n)
    parts = [()]
    for _ in range(k):
        parts = [p + (s,) for p in parts for s in subsets]
    return [product_mask(p, cells) for p in parts]


@cache
def reference_distances(k, n):
    """The least number of catalog products summing to each target of the
    k-grid, breadth first over all 2^(n^k) targets."""
    ids = np.arange(1 << n**k)
    dist = np.full(ids.size, -1)
    dist[0] = 0
    w = 0
    while (dist < 0).any():
        frontier, reached = dist == w, np.zeros(ids.size, dtype=bool)
        for column in reference_catalog(k, n):
            reached |= frontier[ids ^ column]
        w += 1
        dist[reached & (dist < 0)] = w
    return dist


def within_sum_of(columns, target, w):
    """Whether the target is a sum of at most w columns: the sums of at most
    w // 2 columns met against those of at most w - w // 2."""
    def sums(h):
        held = {0}
        for _ in range(h):
            held |= {s ^ c for s in held for c in columns}
        return held

    high = sums(w - w // 2)
    return any(target ^ s in high for s in sums(w // 2))


def slices_of(target, k, n):
    """A target over the k-grid cut along its last coordinate."""
    return tuple(sum((target >> (p * n + j) & 1) << p for p in range(n ** (k - 1))) for j in range(n))


def cover_mask(cover):
    """The cells of the k-grid that an odd number of the cover's products cover."""
    cells, mask = all_cells(cover.n, cover.k), 0
    for p in cover.products:
        mask ^= product_mask([part.bits for part in p.parts], cells)
    return mask


class TestSearchInstance:
    def test_catalog_size_and_order(self):
        inst = build_search_instance(2, 2, 2)
        assert inst.num_columns == 3
        assert inst.parts == ((1,), (2,), (3,)) and inst.words == (1, 2, 3)
        inst = build_search_instance(3, 3, 3)
        assert inst.num_columns == 49
        assert inst.parts[0] == (1, 1)  # {1} x {1}
        assert inst.parts[1] == (1, 2)  # {1} x {2}: the last coordinate fastest
        assert inst.parts[-1] == (7, 7)  # [3] x [3]

    def test_target_matches_distinctness(self):
        for k in range(2, 6):
            for t in range(2, k + 1):
                for n in range(1, 6):
                    if n**k <= 256:
                        inst = build_search_instance(k, t, n)
                        cells = all_cells(n, k)
                        assert slices_of(target_mask(n, k, t, cells), k, n) == inst.slices, (k, t, n)
                        if t == 2:  # the rank-one tensors do not depend on t
                            words = [product_mask(p, all_cells(n, k - 1)) for p in inst.parts]
                            assert words == list(inst.words), (k, n)


def _unfolding_rank_reference(k, t, n):
    """The unfolding bound cell by cell: each target cell sets one bit in every
    unfolding, its row from the coordinates in js and its column from the rest."""
    cells = all_cells(n, k)
    b = target_mask(n, k, t, cells)
    best = 0
    for a in range(1, k // 2 + 1):
        for js in combinations(range(k), a):
            rest = [j for j in range(k) if j not in js]
            rows = [0] * (n ** len(js))
            for pos, idx in enumerate(cells):
                if (b >> pos) & 1:
                    ri = ci = 0
                    for j in js:
                        ri = ri * n + (idx[j] - 1)
                    for j in rest:
                        ci = ci * n + (idx[j] - 1)
                    rows[ri] |= 1 << ci
            best = max(best, rank_gf2(Gf2Matrix(len(rows), n ** len(rest), tuple(rows))))
    return best


def _koszul_reference(tensor):
    """The largest Koszul flattening bound block by block: every grouping
    r = 1..k-1 (A the first coordinate, B the next r, C the rest), every set
    partition of the values of A into d blocks and every p = 0..d-2."""
    k, n = tensor.ndim, len(tensor)
    best = 0
    for r in range(1, k):
        slices = tensor.reshape(n, n**r, -1)
        nb, nc = slices.shape[1:]
        for pi in set_partitions(n):
            merged = [np.bitwise_xor.reduce(slices[[v - 1 for v in block]]) for block in pi.blocks]
            d = len(merged)
            for p in range(d - 1):
                uppers, lowers = list(combinations(range(d), p + 1)), list(combinations(range(d), p))
                m = np.zeros((len(uppers) * nc, len(lowers) * nb), dtype=bool)
                for a, upper in enumerate(uppers):
                    for b, lower in enumerate(lowers):
                        if set(lower) < set(upper):
                            (i,) = set(upper) - set(lower)
                            m[a * nc : (a + 1) * nc, b * nb : (b + 1) * nb] = merged[i].T
                best = max(best, -(-rank_gf2(Gf2Matrix.from_array(m)) // comb(d - 1, p)))
    return best


class TestFlatteningBound:
    def test_pair_target_rank(self):
        # the off-diagonal pair matrix has rank n (even) or n-1 (odd)
        for n in range(12):
            assert flattening_rank_bound(2, 2, n) == (n if n % 2 == 0 else n - 1)

    def test_zero_target(self):
        inst = build_search_instance(3, 3, 2)
        assert inst.slices == (0, 0)
        assert flattening_rank_bound(3, 3, 2) == 0

    def test_empty_target_builds_nothing(self, monkeypatch):
        # n < t leaves no cell with t distinct entries: the bound is 0 before
        # any flattening is eliminated, even on (16,16,2)'s 65,536 cells
        calls = []
        monkeypatch.setattr(search, "_koszul_rank", lambda *args: calls.append(args) or 0)
        assert [flattening_rank_bound(*ktn) for ktn in [(16, 16, 2), (5, 3, 2), (4, 4, 0)]] == [0, 0, 0]
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 4), st.data())
    def test_matches_per_cell_reference(self, k, n, data):
        # the p = 0 terms are the plain unfoldings; the Koszul terms only add
        t = data.draw(st.integers(2, k))
        terms = search._flattening_terms(search._target_tensor(k, t, n)) if n else ()
        plain = max((bound for _, _, p, bound in terms if p == 0), default=0)
        assert plain == _unfolding_rank_reference(k, t, n)
        assert flattening_rank_bound(k, t, n) >= plain

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 4), st.integers(2, 4), st.integers(0, 6), st.data())
    def test_at_most_the_terms_of_a_sum(self, k, n, r, data):
        # every term bounds the F_2 tensor rank, so no tensor summed from r
        # products (subset indicators, nonempty per coordinate) exceeds r
        mask = st.integers(1, (1 << n) - 1)
        tensor = np.zeros((n,) * k, dtype=bool)
        for _ in range(r):
            product = np.ones((), dtype=bool)
            for m in data.draw(st.lists(mask, min_size=k, max_size=k)):
                product = np.multiply.outer(product, (m >> np.arange(n)) & 1 == 1)
            tensor ^= product
        assert all(bound <= r for *_, bound in search._flattening_terms(tensor))

    def test_at_most_every_verified_construction(self):
        for k in range(2, 6):
            for t in range(2, k + 1):
                for n in range(t, 8):
                    if n**k <= 65536:
                        cover = best_constructive_cover(k, t, n)
                        assert flattening_rank_bound(k, t, n) <= len(cover), (k, t, n)

    def test_hook_merges_match_every_merge(self):
        # on targets, one hook merge per block count, r <= (k-1)/2 and the
        # halved range of p reach the largest term over every set partition,
        # every r and every p (n <= 5, at most 1,024 cells; and at n = 6,
        # where the hooks leave out the block sizes (3,2,1), (2,2,2) and
        # (2,2,1,1))
        instances = [(k, t, n) for k in (3, 4, 5) for t in range(2, k + 1)
                     for n in range(t, 6 if k < 5 else 5)]
        for k, t, n in instances + [(3, 2, 6), (3, 3, 6)]:
            target = search._target_tensor(k, t, n)
            assert flattening_rank_bound(k, t, n) == _koszul_reference(target), (k, t, n)
        # the raised bounds: the unfolding ranks are 3, 5, 6 and 10
        raised = [flattening_rank_bound(*ktn) for ktn in [(3, 3, 3), (3, 3, 5), (4, 4, 4), (5, 5, 5)]]
        assert raised == [4, 6, 7, 13]

    def test_grid_limit(self):
        assert flattening_rank_bound(2, 2, 256) == 256  # 65536 cells: built
        assert flattening_rank_bound(2, 2, 257) is None
        assert flattening_rank_bound(4, 2, 17) is None

    def test_grid_limit_decided_before_the_power(self):
        # 3^(10^8) cells: the guard stops multiplying once past 65,536
        start = time.monotonic()
        assert flattening_rank_bound(10**8, 2, 3) is None
        assert time.monotonic() - start < 0.1

    @pytest.mark.parametrize("k,t,n,message", [
        (2, 3, 3, "need 2 <= t <= k"),  # t > k: no such target
        (3, 1, 2, "need 2 <= t <= k"),  # t < 2
        (3, 3, -2, "n must be nonnegative"),
    ])
    def test_rejects_targets_that_do_not_exist(self, k, t, n, message):
        with pytest.raises(ValueError, match=message):
            flattening_rank_bound(k, t, n)


class TestMinMod2Cover:
    @pytest.mark.parametrize("n,expected", [(2, 2), (3, 2), (4, 4)])
    def test_pair_values(self, n, expected):
        out = min_mod2_cover(2, 2, n)
        assert out.exact and out.value == expected
        assert verify_mod2_cover(out.cover).valid
        # independent exhaustive confirmation
        cells = all_cells(n, 2)
        assert reference_distances(2, n)[target_mask(n, 2, 2, cells)] == expected

    def test_pure_search_matches_presolve(self):
        for n in (2, 3, 4):
            value = min_mod2_cover(2, 2, n).value
            assert pure_levels(2, 2, n, value) == [False] * (value - 1) + [True], n

    def test_catalog_built_once_per_instance(self, monkeypatch):
        calls = _spy_catalogs(monkeypatch)

        def summary(out):
            return out.status, out.lower, out.upper, out.levels_exhausted

        # (3,3,4): the flattening bound 4 certifies its only level, w=3
        assert summary(min_mod2_cover(3, 3, 4, budget=3)) == ("interval", 4, 13, None)
        # (4,3,3): level 6 would try C(343, 3) subspaces, past the work limit
        assert summary(min_mod2_cover(4, 3, 3)) == ("interval", 6, 34, None)
        assert calls == []
        # (3,3,3): levels 4 and 5 on one instance
        out = min_mod2_cover(3, 3, 3)
        assert calls == [(3, 3, 3)]
        assert support_of(out) == ((1, 6), (7, 5), (27, 3), (33, 2), (39, 1))

    def test_instance_consults_no_other(self, monkeypatch):
        # (3,3,5) searches its own levels from its own lower end: no smaller
        # instance is solved first
        calls, real = [], search.min_mod2_cover

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "min_mod2_cover", spy)
        search.min_mod2_cover(3, 3, 5)
        assert calls == [(3, 3, 5)]

    def test_edgeless_target(self):
        out = min_mod2_cover(3, 3, 2)
        assert out.exact and out.value == 0 and len(out.cover) == 0
        out = min_mod2_cover(5, 5, 3)  # n < t: answered before any instance
        assert out.exact and out.value == 0 and len(out.cover) == 0

    def test_budget_interval(self):
        # f(2,2,4) = 4: levels 1..3 are empty, level 4 is not
        assert pure_levels(2, 2, 4, 4) == [False, False, False, True]

    @pytest.mark.parametrize("k,t,n", [(2, 2, 6), (3, 2, 4), (3, 3, 4)])
    def test_budget_interval_through_level_three_pass(self, k, t, n):
        # level 3 is empty on instances of 63 to 225 rank-one tensors
        assert pure_levels(k, t, n, 3) == [False] * 3

    def test_incumbent_certifies(self):
        out = min_mod2_cover(3, 3, 3, budget=0)
        # budget 0 runs no levels; the flattening bound alone cannot reach the
        # 6-product construction, which is the upper bound
        assert (out.status, out.lower, out.upper, out.constructive) == ("interval", 4, 6, 6)
        assert len(out.cover) == 6 and out.levels_exhausted is None

    @pytest.mark.parametrize("k,t,n", [(3, 2, 2), (3, 3, 3)])
    def test_lower_bound_above_the_construction_raises(self, monkeypatch, capsys, k, t, n):
        # a lower bound past a verified cover is a broken certificate: unchecked,
        # (3,2,2) searched on and read exact f=4, and (3,3,3) lower=7 upper=6
        upper = len(best_constructive_cover(k, t, n))
        monkeypatch.setattr(search, "flattening_rank_bound", lambda *ktn: upper + 1)
        with pytest.raises(InternalCheckError, match=f"lower bound {upper + 1} exceeds"):
            min_mod2_cover(k, t, n)
        assert main(["search", "--k", str(k), "--t", str(t), "--n", str(n)]) == 3
        assert capsys.readouterr().out.startswith("internal inconsistency")

    def test_certificates_meet_without_catalog(self, monkeypatch):
        calls = _spy_catalogs(monkeypatch)
        # rank 6 meets the 6-product construction: no instance is built
        out = min_mod2_cover(2, 2, 6)
        assert (out.status, out.value, out.rank_bound, out.levels_exhausted) == ("exact", 6, 6, None)
        assert calls == []
        # the Koszul flattening bound 4 meets the 4-product construction at (3,2,3)
        out = min_mod2_cover(3, 2, 3)
        assert (out.status, out.value, out.rank_bound, out.levels_exhausted) == ("exact", 4, 4, None)
        assert calls == []
        # bound 4 is below the 6-product construction: levels 4 and 5 are searched
        out = min_mod2_cover(3, 3, 3)
        assert (out.value, out.rank_bound, out.constructive) == (5, 4, 6)
        assert calls == [(3, 3, 3)]

    @pytest.mark.parametrize("k,t,n,lower,upper", [
        (2, 2, 7, 6, 6), (4, 4, 4, 7, 24), (3, 2, 5, 6, 6), (5, 5, 5, 13, 120),
    ])
    def test_past_the_cap_certificates_answer(self, k, t, n, lower, upper):
        # no level is searched: the certificates meet, or the first level
        # is past the work limit
        out = min_mod2_cover(k, t, n)
        assert (out.lower, out.upper, out.rank_bound, out.constructive) == (lower, upper, lower, upper)
        assert out.exact == (lower == upper) and out.levels_exhausted is None
        assert out.cover.products == best_constructive_cover(k, t, n).products

    def test_closed_form_lower_bounds_past_the_rank_grid(self, monkeypatch):
        # 300^2 cells are past the unfolding bound; n - 1 still holds
        out = min_mod2_cover(2, 2, 300)
        assert (out.status, out.lower, out.upper, out.rank_bound) == ("interval", 299, 300, 299)
        out = min_mod2_cover(2, 2, 257)
        assert (out.status, out.value, out.rank_bound) == ("exact", 256, 256)
        # the Kneser bound is taken only while its matrix fits the direct limit
        calls = []
        monkeypatch.setattr(search, "cover_size_lower_bound", lambda *args: calls.append(args) or 0)
        assert search._formula_lower(12, 12, 12) == 1 and calls == [(12, 6)]  # C(12,6)^2 = 853,776
        assert search._formula_lower(12, 12, 13) == 1 and calls == [(12, 6)]  # C(13,6)^2 > 10^6
        assert search._formula_lower(5, 5, 5) == 1 and calls == [(12, 6), (4, 2)]

    def test_triple_value(self):
        out = min_mod2_cover(3, 3, 3)
        assert out.exact and out.value == 5
        assert verify_mod2_cover(out.cover).valid
        # the w=5 slice-span witness, pinned
        assert support_of(out) == ((1, 6), (7, 5), (27, 3), (33, 2), (39, 1))
        assert out.levels_exhausted == (4, 4)

    def test_triple_n4_interval(self):
        # the flattening bound certifies w=3, the search refutes w=4, and
        # level 5 holds a cover, so f(3,3,4) = 5
        out = min_mod2_cover(3, 3, 4)
        assert out.status == "exact"
        assert out.lower == out.value == out.upper == 5
        assert out.levels_exhausted == (4, 4)
        assert support_of(out) == ((38, 12), (74, 10), (86, 9), (122, 6), (170, 3))

    def test_triple_n5_interval(self):
        # level 6 of (3,3,5) is empty; level 7 would try C(961, 2)
        # subspaces of 961 tensors each, past the work limit
        out = min_mod2_cover(3, 3, 5)
        assert (out.status, out.lower, out.upper, out.rank_bound) == ("interval", 7, 16, 6)
        assert out.levels_exhausted == (6, 6)
        assert search._level_in_reach(961, 1) and not search._level_in_reach(961, 2)

    def test_pair_k3_n4_interval(self):
        # the flattening bound 5 meets the 5-product construction: no level is searched
        out = min_mod2_cover(3, 2, 4)
        assert (out.status, out.value, out.constructive) == ("exact", 5, 5)
        assert out.lower == out.rank_bound == 5 and out.levels_exhausted is None


class TestSliceLevel:
    GRIDS = [(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)]

    @staticmethod
    def check(k, n, target):
        """The cover of the first nonempty level of a target over the k-grid,
        searched from level 0: as many products as the least sum of catalog
        products, and summing to the target."""
        inst = replace(build_search_instance(k, 2, n), slices=slices_of(target, k, n))
        want = reference_distances(k, n)[target]
        cover = first_level(inst, want)
        assert cover is not None and len(cover) == want
        assert cover_mask(cover) == target
        return cover

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(GRIDS), st.data())
    def test_matches_enumeration_on_random_targets(self, grid, data):
        k, n = grid
        self.check(k, n, data.draw(st.integers(0, (1 << n**k) - 1)))

    @pytest.mark.parametrize("k,t,n", [(2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 2, 2)])
    def test_matches_enumeration_on_targets(self, k, t, n):
        cover = self.check(k, n, target_mask(n, k, t, all_cells(n, k)))
        assert len(cover) == min_mod2_cover(k, t, n).value
        assert verify_mod2_cover(cover).valid

    def test_triple_target(self):
        # no sum of at most 4 of the 343 catalog products is the (3,3,3)
        # target, and the slice-span search finds a 5-cover
        target = target_mask(3, 3, 3, all_cells(3, 3))
        assert not within_sum_of(reference_catalog(3, 3), target, 4)
        cover = first_level(build_search_instance(3, 3, 3), 5)
        assert len(cover) == 5 and cover_mask(cover) == target
        assert verify_mod2_cover(cover).valid

    def test_levels_below_the_span(self):
        # fewer products than the slices' dimension d never cover
        inst = build_search_instance(2, 2, 4)
        assert len(inst.span) == 4
        assert [_slice_level(inst, r) for r in range(4)] == [None] * 4
        assert len(_slice_level(inst, 4)) == 4
        # the empty target: level 0 holds the empty cover, so searching level
        # 1 out of order finds a product that no slice uses
        empty = build_search_instance(3, 3, 2)
        assert len(_slice_level(empty, 0)) == 0
        with pytest.raises(InternalCheckError, match="unused product"):
            _slice_level(empty, 1)

    def test_reach_is_inclusive(self, monkeypatch):
        # a level costs R * C(R, r - d): (3,3,4) at level 5, 225 * C(225, 2)
        work = 225 * comb(225, 2)
        monkeypatch.setattr(search, "_SLICE_MAX_WORK", work)
        assert search._level_in_reach(225, 2)
        monkeypatch.setattr(search, "_SLICE_MAX_WORK", work - 1)
        assert not search._level_in_reach(225, 2)
        assert search._level_in_reach(225, 0) and search._level_in_reach(3, 7)  # C(3, 7) = 0

    def test_level_search_traffic(self, monkeypatch):
        # every level the search reaches on the grids of at most 64 cells
        # (past k = 6 that leaves n <= 1, where no cell has t distinct
        # entries) at a generous budget: (3,2,2) at w = 2, and (3,3,3) and
        # (3,3,4) at w = 4 and 5, each on its own instance.  (3,2,2) stops
        # below its 3-product construction
        calls, real = [], search._slice_level

        def spy(instance, r):
            calls.append((instance.k, instance.t, instance.n, r))
            return real(instance, r)

        monkeypatch.setattr(search, "_slice_level", spy)
        grids = [(k, t, n) for k in range(2, 7) for t in range(2, k + 1)
                 for n in range(9) if n**k <= 64]
        for k, t, n in grids:
            min_mod2_cover(k, t, n, budget=64)
        assert calls == [(3, 2, 2, 2), (3, 3, 3, 4), (3, 3, 3, 5), (3, 3, 4, 4), (3, 3, 4, 5)]


class TestExactB:
    def test_small_values(self):
        assert exact_b(2, 2, 2).value == 3
        assert exact_b(2, 2, 3).value == 3
        assert exact_b(2, 2, 4).value == 5

    def test_pure_search_variant(self):
        # b(2,2,3) = 3: the search alone finds a weight-2 cover at n = 3 and
        # refutes weights 1..3 at n = 4
        assert pure_levels(2, 2, 3, 2) == [False, True]
        assert pure_levels(2, 2, 4, 3) == [False] * 3
        assert exact_b(2, 2, 3).value == 3

    def test_budget_exhaustion_brackets(self):
        res = exact_b(3, 3, 5, budget=2)
        assert not res.exact and res.value is None
        assert res.at_least == 2  # the edgeless grounds are certified

    def test_triple_at_five_products(self, capsys):
        # f(3,3,4) = 5 is certified by search and the (3,3,5) bound 6 passes m
        res = exact_b(3, 3, 5)
        assert res.exact and res.value == 4
        assert main(["search", "--k", "3", "--t", "3", "--m", "5"]) == 0
        assert capsys.readouterr().out == "exact-b k=3 t=3 m=5 b=4\n"

    def test_cap_with_rank_bound_too_low(self):
        # (3,3,5) ends in the interval [7, 16], which holds m = 13, the size
        # of the (3,3,4) construction: its level 7 is past the work limit
        res = exact_b(3, 3, 13)
        assert not res.exact and res.at_least == 4

    @pytest.mark.parametrize("k,t,m,built", [
        (2, 2, 4, [6, 5]),  # the deciding n inside the search, then the certifying cover
        (3, 2, 4, [4, 3]),
        # the search certifies n = 3 and n = 4 itself; n = 5 is decided by its
        # bound 6 > m, after its construction
        (3, 3, 5, [3, 4, 5]),
        (2, 2, 0, [2, 1]),
    ])
    def test_each_ground_size_built_once(self, k, t, m, built, monkeypatch):
        calls = []
        real = search.best_constructive_cover

        def spy(k, t, n):
            calls.append(n)
            return real(k, t, n)

        monkeypatch.setattr(search, "best_constructive_cover", spy)
        exact_b(k, t, m)
        assert calls == built

    def test_galois_connection(self):
        # f(n) <= m iff b(m) >= n on the computed grid
        f = {}
        for n in range(1, 7):
            out = min_mod2_cover(2, 2, n)
            assert out.exact
            f[n] = out.value
        b = {m: exact_b(2, 2, m).value for m in range(0, 5)}
        for m, bm in b.items():
            for n, fn in f.items():
                assert (fn <= m) == (bm >= n), (m, n, fn, bm)


class TestBoundsTable:
    def test_pair_rows_confirm_corrected_values(self):
        rows, notes = bounds_table(2, 2, range(2, 7))
        assert [r.exact for r in rows] == [2, 2, 4, 4, 6]
        assert any("case split" in note for note in notes)
        assert notes == [ERRATUM_22]

    def test_triple_rows(self):
        rows, _ = bounds_table(3, 3, range(2, 5))
        by_n = {r.n: r for r in rows}
        assert by_n[2].exact == 0
        assert by_n[3].constructive <= 3 * 3 + 1
        for r in rows:
            assert r.lower <= r.constructive <= r.upper
            if r.exact is not None:
                assert r.lower <= r.exact <= r.constructive

    def test_43_rows_show_sharper_construction(self):
        rows, _ = bounds_table(4, 3, range(2, 4))
        by_n = {r.n: r for r in rows}
        assert by_n[2].exact == 0  # two values cannot make three distinct
        r3 = by_n[3]
        assert r3.constructive == 3 * 9 + 2 * 3 + 1 == 34
        assert r3.upper == 3 * 9 + 4 * 3 + 1 == 40
        assert r3.constructive <= r3.upper

    def test_exact_where_certificates_meet(self):
        # lower = constructive fills the exact cell even when no search runs
        rows, _ = bounds_table(2, 2, range(2, 10), budget=0)
        assert [r.exact for r in rows] == [2, 2, 4, 4, 6, 6, 8, 8]
        rows, _ = bounds_table(3, 3, [3], budget=0)
        assert (rows[0].lower, rows[0].constructive, rows[0].exact) == (4, 6, None)

    @pytest.mark.parametrize("run_search", [True, False])
    def test_one_rank_bound_per_row(self, monkeypatch, run_search):
        budget = 4 if run_search else 0  # budget 0 searches no level
        calls = []
        real = search.flattening_rank_bound

        def spy(k, t, n):
            calls.append(n)
            return real(k, t, n)

        monkeypatch.setattr(search, "flattening_rank_bound", spy)
        rows, _ = bounds_table(2, 2, range(2, 7), budget=budget)
        assert [r.fields()[3:] for r in rows] == [
            (2, 2, 2, 2), (2, 4, 2, 2), (4, 5, 4, 4), (4, 6, 4, 4), (6, 7, 6, 6)
        ]
        rows, _ = bounds_table(3, 3, range(2, 5), budget=budget)
        lower = 5 if run_search else 4  # the search refutes level 4 within budget 4
        assert [r.fields()[3:] for r in rows] == [
            (0, 0, 0, 0), (lower, 6, 6, ""), (lower, 13, 13, "")
        ]
        # one call per row, none on the edgeless (3,3,2)
        assert calls == [2, 3, 4, 5, 6, 3, 4]

    def test_formats(self):
        rows, notes = bounds_table(2, 2, [2, 3], budget=0)
        text = format_table(rows, notes)
        assert text.splitlines()[0].split() == ["k", "t", "n", "lower", "upper", "constructive", "exact"]
        machine = machine_rows(rows, notes)
        lines = [l for l in machine.splitlines() if not l.startswith("#")]
        assert lines[0].split("\t")[:3] == ["2", "2", "2"]


class TestBestConstructive:
    def test_matches_known_best(self):
        assert len(best_constructive_cover(2, 2, 5)) == 4
        assert len(best_constructive_cover(3, 3, 3)) == 6  # permuted singleton cover
        assert len(best_constructive_cover(4, 3, 3)) == 34

    def test_always_valid(self):
        for k in (2, 3, 4):
            for t in range(2, k + 1):
                for n in (1, 2, 3, 4):
                    cover = best_constructive_cover(k, t, n)
                    assert verify_mod2_cover(cover).valid

    def test_closed_form_pick_matches_building_every_candidate(self):
        def build_all_keep_shortest(k, t, n):  # the selection by building every candidate
            if n < t:
                return Mod2Cover(k, t, n, ())
            candidates = [build_partition_cover(k, t, n)]
            if (k, t) == (2, 2):
                candidates.append(build_cover_22(n))
            if (k, t) == (3, 3):
                candidates.append(build_cover_33(n))
            if (k, t) == (4, 3):
                candidates.append(build_cover_43(n))
            if t == k and k <= n:
                candidates.append(permute_gp_cover(trivial_gp_cover(n, k)))
            return min(candidates, key=len)

        for k in range(2, 6):
            for t in range(2, k + 1):
                for n in range(8):
                    got = best_constructive_cover(k, t, n)
                    assert got.products == build_all_keep_shortest(k, t, n).products, (k, t, n)

    def test_partition_cover_size_closed_form(self):
        for k in range(2, 9):
            for t in range(2, k + 1):
                for n in range(t, t + 4):
                    walked = 1 + sum(
                        falling_factorial(n, pi.block_count - any(len(b) == 1 for b in pi.blocks))
                        for pi in set_partitions(k, t - 1)
                    )
                    assert search._partition_cover_size(k, t, n) == walked, (k, t, n)
                    if k <= 5 and n <= 6:
                        assert len(build_partition_cover(k, t, n)) == walked, (k, t, n)

    def test_partition_cover_size_at_43(self):
        # the (4,3) partition cover has the size of build_cover_43 and is listed first
        for n in range(3, 9):
            size = 3 * n * n + 2 * n + 1
            assert search._partition_cover_size(4, 3, n) == size == len(build_cover_43(n))
            assert len(build_partition_cover(4, 3, n)) == size

    def test_construction_too_large_to_verify(self, monkeypatch):
        built = []
        monkeypatch.setattr(search.constructions, "build_partition_cover",
                            lambda *args: built.append(args))
        # (6,6,10): the 142,271-product partition cover on 10^6 cells, 2.2e9 words
        assert best_constructive_cover(6, 6, 10) is None and built == []
        with pytest.raises(ValueError, match="142271 products on n\\^k = 1000000 cells"):
            bounds_table(6, 6, [10])

    def test_built_length_checked(self, monkeypatch):
        monkeypatch.setattr(search.constructions, "build_cover_22",
                            lambda n: Mod2Cover(2, 2, n, ()))
        with pytest.raises(InternalCheckError, match="closed form 4"):
            best_constructive_cover(2, 2, 4)


class TestPublicSearchApi:
    @pytest.mark.parametrize("function,params", [
        (min_mod2_cover, ("k", "t", "n", "budget")),
        (exact_b, ("k", "t", "m", "budget")),
        (bounds_table, ("k", "t", "n_values", "budget")),
    ])
    def test_signatures(self, function, params):
        # a new option fails here and needs a record in CHANGES.md
        assert tuple(inspect.signature(function).parameters) == params

    @pytest.mark.parametrize("command,calls", [
        ("search --k 3 --t 3 --n 4 --budget 3", 1),  # the construction
        ("search --k 3 --t 3 --n 3", 2),  # the construction and the witness
        ("table --k 3 --t 3 --n-min 2 --n-max 4", 2),  # one construction per row with n >= t
    ])
    def test_each_cover_verified_once(self, command, calls, monkeypatch, capsys):
        verified = []
        real = search.verify_mod2_cover

        def spy(cover):
            verified.append(len(cover))
            return real(cover)

        monkeypatch.setattr(search, "verify_mod2_cover", spy)
        assert main(shlex.split(command)) == 0
        capsys.readouterr()
        assert len(verified) == calls, verified

    @pytest.mark.parametrize("ground", ["--n 3", "--m 3"])
    def test_both_entry_points_check_arguments_alike(self, ground, capsys):
        assert main(shlex.split(f"search --k 3 --t 4 {ground}")) == 2
        assert capsys.readouterr().out == "error: need 2 <= t <= k\n"
