import inspect
import shlex
from dataclasses import replace
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddtown import (
    CapExceededError,
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
    SearchInstance,
    _exhaust_level,
    _np_membership,
    _search_weight_level,
    best_constructive_cover,
    bounds_table,
    flattening_rank_bound,
    format_table,
    machine_rows,
)


def _spy_catalogs(mp):
    """Record the arguments of every catalog the search builds."""
    calls, real = [], search.build_search_instance

    def spy(*args):
        calls.append(args)
        return real(*args)

    mp.setattr(search, "build_search_instance", spy)
    return calls


def support_of(out):
    inst = build_search_instance(out.k, out.t, out.n)
    return tuple(
        inst.column_parts.index(tuple(part.bits for part in p.parts)) for p in out.cover.products
    )


def target_mask(n, k, t, cells):
    """The target cell by cell: the bit of each cell with at least t distinct entries."""
    mask = 0
    for pos, idx in enumerate(cells):
        if len(set(idx)) >= t:
            mask |= 1 << pos
    return mask


def pure_levels(k, t, n, top):
    """Whether each weight level 1..top holds a support, exhausted in
    ascending order on a fresh instance with no lower bound: the search alone."""
    inst = build_search_instance(k, t, n)
    return [_exhaust_level(inst, w) is not None for w in range(1, top + 1)]


def instances_within_cap(max_k=5, max_n=None):
    """Every (k, t, n) with 2 <= t <= k <= max_k whose catalog fits the default cap."""
    for k in range(2, max_k + 1):
        for t in range(2, k + 1):
            n = 0
            while ((1 << n) - 1) ** k <= search.DEFAULT_CAP and (max_n is None or n <= max_n):
                yield k, t, n
                n += 1


def brute_force_min_cover(instance, max_weight):
    cols, b = instance.columns, instance.target
    for w in range(max_weight + 1):
        for sup in combinations(range(len(cols)), w):
            acc = 0
            for j in sup:
                acc ^= cols[j]
            if acc == b:
                return w
    return None


class TestSearchInstance:
    def test_catalog_size_and_order(self):
        inst = build_search_instance(2, 2, 2)
        assert inst.num_columns == 9
        assert inst.column_parts[0] == (1, 1)  # {1} x {1}
        assert inst.column_parts[-1] == (3, 3)  # [2] x [2]

    def test_cap_rejected(self):
        with pytest.raises(CapExceededError, match="4096"):
            build_search_instance(2, 2, 7)

    def test_target_matches_distinctness(self):
        for k, t, n in instances_within_cap():
            inst = build_search_instance(k, t, n)
            assert inst.target == target_mask(n, k, t, inst.cells), (k, t, n)



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
        # the off-diagonal pair matrix has rank n (even) or n-1 (odd), also
        # beyond the catalog cap (n >= 7)
        for n in range(12):
            assert flattening_rank_bound(2, 2, n) == (n if n % 2 == 0 else n - 1)

    def test_zero_target(self):
        inst = build_search_instance(3, 3, 2)
        assert inst.target == 0
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
        inst = build_search_instance(2, 2, n)
        assert brute_force_min_cover(inst, 2) == (expected if expected <= 2 else None)

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
        # (4,3,3): 81 cells, so no level is searched at all
        assert summary(min_mod2_cover(4, 3, 3)) == ("interval", 6, 34, None)
        assert calls == []
        # (3,3,3): meet-in-the-middle at w=4 and 5 on one catalog
        out = min_mod2_cover(3, 3, 3)
        assert calls == [(3, 3, 3, search.DEFAULT_CAP)]
        assert support_of(out) == (47, 74, 129, 156, 211)

    def test_lower_end_carried_from_n_minus_one(self, monkeypatch):
        # f(3,3,3) = 5 raises the start of (3,3,4) from its flattening bound 4
        # to level 5, which is out of reach: only the (3,3,3) catalog is built
        calls = _spy_catalogs(monkeypatch)
        out = min_mod2_cover(3, 3, 4)
        assert (out.status, out.lower, out.upper, out.levels_exhausted) == ("interval", 5, 13, None)
        assert out.rank_bound == 4
        assert calls == [(3, 3, 3, search.DEFAULT_CAP)]

    def test_carried_lower_end_above_the_construction_raises(self, monkeypatch, capsys):
        # an n - 1 outcome whose lower end passes the 13-product (3,3,4)
        # construction is a broken certificate
        real = search.min_mod2_cover

        def carried(k, t, n, budget=search.DEFAULT_BUDGET, cap=search.DEFAULT_CAP):
            out = real(k, t, n, budget, cap)
            return replace(out, lower=14) if n == 3 else out

        monkeypatch.setattr(search, "min_mod2_cover", carried)
        with pytest.raises(InternalCheckError, match="lower bound 14 carried from n - 1 exceeds"):
            search.min_mod2_cover(3, 3, 4)
        assert main(["search", "--k", "3", "--t", "3", "--n", "4"]) == 3
        assert capsys.readouterr().out.startswith("internal inconsistency")

    def test_edgeless_target(self):
        out = min_mod2_cover(3, 3, 2)
        assert out.exact and out.value == 0 and len(out.cover) == 0
        out = min_mod2_cover(5, 5, 3)  # 7^5 products, past the cap: answered all the same
        assert out.exact and out.value == 0 and len(out.cover) == 0

    def test_budget_interval(self):
        # f(2,2,4) = 4: levels 1..3 are empty, level 4 is not
        assert pure_levels(2, 2, 4, 4) == [False, False, False, True]

    @pytest.mark.parametrize("k,t,n", [(2, 2, 6), (3, 2, 4), (3, 3, 4)])
    def test_budget_interval_through_level_three_pass(self, k, t, n):
        # the lookups refute w=3 on catalogs of 3,375 to 3,969 columns
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
        # rank 6 meets the 6-product construction: no catalog is built
        out = min_mod2_cover(2, 2, 6)
        assert (out.status, out.value, out.rank_bound, out.levels_exhausted) == ("exact", 6, 6, None)
        assert calls == []
        # the Koszul flattening bound 4 meets the 4-product construction at (3,2,3)
        out = min_mod2_cover(3, 2, 3)
        assert (out.status, out.value, out.rank_bound, out.levels_exhausted) == ("exact", 4, 4, None)
        assert calls == []
        # bound 4 is below the 6-product construction: levels 4 and 5 are searched on the catalog
        out = min_mod2_cover(3, 3, 3)
        assert (out.value, out.rank_bound, out.constructive) == (5, 4, 6)
        assert calls == [(3, 3, 3, search.DEFAULT_CAP)]

    @pytest.mark.parametrize("k,t,n,lower,upper", [
        (2, 2, 7, 6, 6), (3, 3, 5, 6, 16), (4, 4, 4, 7, 24), (3, 2, 5, 6, 6), (5, 5, 5, 13, 120),
    ])
    def test_past_the_cap_certificates_answer(self, k, t, n, lower, upper):
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
        # the w=5 meet-in-the-middle witness, pinned
        assert support_of(out) == (47, 74, 129, 156, 211)
        assert out.levels_exhausted == (4, 4)

    def test_triple_n4_interval(self):
        # the flattening bound certifies w=3, and f(3,3,3) = 5 carries up to
        # refute w=4; w=5 is out of reach, so no level of (3,3,4) is searched
        out = min_mod2_cover(3, 3, 4)
        assert out.status == "interval"
        assert out.lower == 5 and out.upper == 13
        assert out.levels_exhausted is None

    def test_pair_k3_n4_interval(self):
        # the flattening bound 5 meets the 5-product construction: no level is searched
        out = min_mod2_cover(3, 2, 4)
        assert (out.status, out.value, out.constructive) == ("exact", 5, 5)
        assert out.lower == out.rank_bound == 5 and out.levels_exhausted is None

    def test_witness_is_lex_min_without_symmetry(self):
        value = min_mod2_cover(2, 2, 3).value
        inst = build_search_instance(2, 2, 3)
        best = None
        for sup in combinations(range(inst.num_columns), value):
            acc = 0
            for j in sup:
                acc ^= inst.columns[j]
            if acc == inst.target:
                best = sup
                break
        assert _search_weight_level(inst, inst.target, value) == best


def _xor(cols, support):
    acc = 0
    for j in support:
        acc ^= cols[j]
    return acc


def _columns_instance(cols, b=0):
    """A search instance over bare column masks on a grid of 20 cells."""
    return SearchInstance(0, 0, 0, ((),) * 20, ((),) * len(cols), tuple(cols), b)


def _mitm_level(cols, b, w):
    """``_exhaust_level`` at w = 4 or 5, the meet-in-the-middle route, over bare columns."""
    return _exhaust_level(_columns_instance(cols, b), w)


def _spy_probe(mp):
    """Record how many values every probe walks."""
    probes, real = [], search._probe_least_common

    def probe(values, offsets):
        probes.append(values.size)
        return real(values, offsets)

    mp.setattr(search, "_probe_least_common", probe)
    return probes


def _level_reference(cols, b, w):
    """The level pass by plain enumeration: with h = 2, the smallest value
    shared by the (w-h)-sums and the h-sums shifted by b, joined from the
    lexicographically first supports of both sums."""
    h = 2
    first = {}
    for size in (h, w - h):
        for sup in combinations(range(len(cols)), size):
            first.setdefault((size, _xor(cols, sup)), sup)
    common = [v for (size, v) in first if size == w - h and (h, v ^ b) in first]
    if not common:
        return None
    v = min(common)
    return tuple(sorted(first[(w - h, v)] + first[(h, v ^ b)]))


class TestWeightLevel:
    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(0, 2**12 - 1), min_size=1, max_size=14, unique=True),
            st.lists(st.integers(0, 7), min_size=1, max_size=14),  # repeated columns
        ),
        st.sampled_from([1, 2, 3]),
        st.data(),
    )
    def test_lex_first_support(self, cols, w, data):
        indices = range(len(cols))
        b = data.draw(st.one_of(
            st.integers(0, 2**12 - 1),
            st.lists(st.sampled_from(indices), max_size=w).map(lambda sup: _xor(cols, sup)),
        ))
        firsts = sorted(data.draw(st.sets(st.sampled_from(indices))))
        inst = _columns_instance(cols, b)
        for first_columns in (None, firsts):
            want = next((
                sup for sup in combinations(indices, w)
                if _xor(cols, sup) == b and (first_columns is None or sup[0] in first_columns)
            ), None)
            assert _search_weight_level(inst, b, w, first_columns) == want, first_columns

    def test_lookups_stop_at_level_three(self):
        inst = _columns_instance([1, 2, 4, 8, 16], 15)
        for w in (4, 5):  # levels the lookups do not search
            with pytest.raises(InternalCheckError, match="past the lookups"):
                _search_weight_level(inst, 15, w)
        assert _search_weight_level(inst, 15, 6) is None  # w > m: no support


def _engine_reference(m, cells, w):
    """The route of level w checked step by step, the MITM guards spelled out."""
    if w == 0 or w > m:
        return "lookup"
    if cells > 64:
        return None
    if w <= 3:
        return "lookup"
    if w > 5 or (w == 5 and comb(m, 3) > search._MITM_TRIPLE_CAP):
        return None
    return "mitm"


class TestLevelEngine:
    EDGES = [  # (m, cells, w, engine)
        (4_000_001, 64, 1, "lookup"),  # every level up to 3 is lookups, whatever m is
        (4_000_001, 64, 2, "lookup"),
        (4_000_001, 64, 3, "lookup"),
        (4_000_001, 65, 2, None),  # past 64 cells no level is searched
        (364, 64, 5, "mitm"),  # C(364, 3) = 7,971,964 triple sums
        (365, 64, 5, None),  # C(365, 3) = 8,038,030
        (365, 64, 4, "mitm"),
        (365, 64, 6, None),
        (5, 65, 6, "lookup"),  # w > m: no support, answered at once
        (0, 65, 1, "lookup"),
        (5, 65, 0, "lookup"),
    ]

    @pytest.mark.parametrize("m,cells,w,engine", EDGES)
    def test_edges(self, m, cells, w, engine):
        assert search._level_engine(m, cells, w) == engine
        assert _engine_reference(m, cells, w) == engine

    def test_matches_reference(self):
        ms = [*range(13), 343, 364, 365, 2401, 2828, 2829, 3375, 4_000_000, 4_000_001]
        for m in ms:
            for cells in (1, 63, 64, 65):
                for w in range(9):
                    assert search._level_engine(m, cells, w) == _engine_reference(m, cells, w)

    @pytest.mark.parametrize("m,w", [(30, 3), (343, 4), (364, 5), (365, 5), (3375, 4)])
    def test_caps_are_inclusive(self, monkeypatch, m, w):
        # a triple cap equal to C(m, 3) admits level 5, one below it does not;
        # the levels below 5 never consult it
        def check(triples, want):
            monkeypatch.setattr(search, "_MITM_TRIPLE_CAP", triples)
            assert search._level_engine(m, 64, w) == _engine_reference(m, 64, w) == want

        engine = "lookup" if w <= 3 else "mitm"
        check(comb(m, 3), engine)
        check(comb(m, 3) - 1, engine if w < 5 else None)

    def test_exhaust_level_dispatch(self):
        assert _exhaust_level(_columns_instance([1, 2, 3], 0), 0) == ()
        assert _exhaust_level(_columns_instance([1, 2, 3], 5), 0) is None
        assert _exhaust_level(_columns_instance([1, 2, 3], 0), 4) is None  # w > m
        assert _exhaust_level(_columns_instance([1, 2, 4, 8], 7), 3) == (0, 1, 2)  # lookups
        assert _exhaust_level(_columns_instance([1, 2, 4, 8, 16], 15), 4) == (0, 1, 2, 3)  # the pass
        wide = SearchInstance(0, 0, 0, ((),) * 65, ((),) * 4, (1, 2, 4, 8), 7)
        with pytest.raises(InternalCheckError, match="out of reach"):
            _exhaust_level(wide, 3)


class TestMeetInTheMiddle:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(1, 2**16 - 1), min_size=6, max_size=10, unique=True),
        st.sampled_from([4, 5]),
        st.data(),
    )
    def test_level_pass_matches_reference(self, cols, w, data):
        def index_sets(size):
            return st.sets(st.sampled_from(range(len(cols))), min_size=size, max_size=size)

        # plant a zero-sum 4-set, so that a filled level often has two supports
        *rest, last = sorted(data.draw(index_sets(4)))
        cols[last] = _xor(cols, rest)
        if cols[last] == 0 or len(set(cols)) < len(cols):
            return
        if data.draw(st.booleans()):
            b = _xor(cols, data.draw(index_sets(w)))
        else:
            b = data.draw(st.integers(1, 2**16 - 1))
        # the vectorized pass needs every lower level to be empty
        lower = (sup for size in range(1, w) for sup in combinations(range(len(cols)), size))
        if b == 0 or any(_xor(cols, sup) == b for sup in lower):
            return
        want = _level_reference(cols, b, w)
        assert _mitm_level(cols, b, w) == want
        # probe steps of 1, 3 and 20 rows at w = 4, and of 1 to 3 rows at
        # w = 5 (6 to 10 offsets): each ends inside the 15 to 45 values of H
        for queries in (1, 3, 20):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(search, "_PROBE_QUERIES", queries)
                assert _mitm_level(cols, b, w) == want, queries

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 63), max_size=40), st.lists(st.integers(0, 63), max_size=6))
    def test_probe_matches_first_hit(self, values, offsets):
        values, held = sorted(values), set(values)
        want = next((
            (h, hits) for h in values
            if (hits := [j for j, c in enumerate(offsets) if h ^ c in held])
        ), None)
        values, offsets = np.array(values, dtype=np.uint64), np.array(offsets, dtype=np.uint64)
        for queries in (1, 5, 16):  # steps of 1 to 16 rows, by the number of offsets
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(search, "_PROBE_QUERIES", queries)
                assert search._probe_least_common(values, offsets) == want, queries

    @pytest.mark.parametrize("cols,b,want", [
        ([37, 105, 83, 216, 30, 52, 153, 175], 255, (0, 3, 5, 6, 7)),  # not (0, 1, 4, 5, 6)
        ([233, 40, 194, 231, 115, 142, 10, 162], 116, (1, 2, 3, 4, 6)),  # not (0, 2, 4, 5, 7)
    ])
    def test_level_pass_block_edges(self, cols, b, want):
        # each level has two supports; the least common value, which the probe
        # finds, picks the one that is not lexicographically first
        assert _level_reference(cols, b, 5) == want
        assert _mitm_level(cols, b, 5) == want

    def test_level_four_probe_reads_every_pair_sum(self, monkeypatch):
        # the empty level 4 of (3,3,3): the probe reads all 58,653 shifted
        # pair sums, 8,192 rows a step against the one offset, and misses;
        # level 5 then probes the same sorted array
        probes, real = [], search._probe_least_common
        steps, real_membership = [], search._np_membership

        def probe(values, offsets):
            probes.append(values)
            return real(values, offsets)

        def membership(sorted_vals, queries):
            steps.append(queries.shape)
            return real_membership(sorted_vals, queries)

        monkeypatch.setattr(search, "_probe_least_common", probe)
        monkeypatch.setattr(search, "_np_membership", membership)
        inst = build_search_instance(3, 3, 3)
        assert _exhaust_level(inst, 4) is None
        assert [v.size for v in probes] == [comb(inst.num_columns, 2)] == [58_653]
        assert steps == [(8_192, 1)] * 7 + [(58_653 - 7 * 8_192, 1)]
        assert _exhaust_level(inst, 5) == (47, 74, 129, 156, 211)
        assert probes[1] is probes[0] is inst.shifted_pair_sums

    def test_level_five_probe_settles_the_level(self, monkeypatch):
        # at (3,3,3) the least common value is the 11th shifted pair sum: the
        # probe finds it with its columns, which start the triple lookup
        inst = build_search_instance(3, 3, 3)
        shifted = inst.shifted_pair_sums
        v, hit_columns = search._probe_least_common(shifted, inst.words ^ np.uint64(inst.target))
        assert v == shifted[10] and hit_columns == [47, 74, 129]
        lookups, real = [], search._search_weight_level

        def lookup(instance, b_mask, weight, first_columns=None):
            lookups.append((weight, first_columns))
            return real(instance, b_mask, weight, first_columns)

        monkeypatch.setattr(search, "_search_weight_level", lookup)
        assert _exhaust_level(inst, 5) == (47, 74, 129, 156, 211)
        assert lookups == [(2, None), (3, [47, 74, 129])]

    def test_empty_level_five_on_bare_columns(self, monkeypatch):
        # random 64-bit columns: the probe walks all of the C(120, 2) shifted
        # pair sums, 68 rows a step against the 120 offsets, and misses
        rng = np.random.default_rng(5)
        cols = rng.integers(0, 2**64, 120, dtype=np.uint64, endpoint=False).tolist()
        b = int(rng.integers(0, 2**64, dtype=np.uint64, endpoint=False))
        probes = _spy_probe(monkeypatch)
        inst = _columns_instance(cols, b)
        assert _exhaust_level(inst, 5) is None
        assert probes == [comb(120, 2)] == [inst.shifted_pair_sums.size]

    def test_level_search_traffic(self, monkeypatch):
        # every level the search reaches on the grids that fit it (n^k <= 64;
        # past k = 6 that leaves n <= 1, where no cell has t distinct entries)
        # at a generous budget and cap.  The MITM pass serves (3,3,3) alone:
        # its w = 4 level is empty and its w = 5 level is settled by the
        # probe.  (3,3,4) searches again the (3,3,3) levels its lower end is
        # carried from, the last two calls, and starts at its out-of-reach
        # level 5.  An empty w = 5 level would make the probe walk every
        # shifted pair sum.
        calls, real = [], search._exhaust_level

        def spy(instance, w):
            calls.append((instance.k, instance.t, instance.n, w))
            return real(instance, w)

        monkeypatch.setattr(search, "_exhaust_level", spy)
        grids = [(k, t, n) for k in range(2, 7) for t in range(2, k + 1)
                 for n in range(9) if n**k <= 64]
        for k, t, n in grids:
            min_mod2_cover(k, t, n, budget=64, cap=10**6)
        assert calls == [(3, 2, 2, 2), (3, 3, 3, 4), (3, 3, 3, 5), (3, 3, 3, 4), (3, 3, 3, 5)]

    def test_membership_empty_sorted_side(self):
        empty = np.array([], dtype=np.uint64)
        got = _np_membership(empty, np.array([0, 7], dtype=np.uint64))
        assert got.dtype == bool and got.tolist() == [False, False]


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

    def test_cap_with_rank_bound_too_low(self):
        # (3,3,5) is over the cap and its flattening bound 6 does not exceed
        # m = 13, the size of the (3,3,4) construction
        res = exact_b(3, 3, 13)
        assert not res.exact and res.at_least == 4

    @pytest.mark.parametrize("k,t,m,built", [
        (2, 2, 4, [6, 5]),  # the deciding n inside the search, then the certifying cover
        (3, 2, 4, [4, 3]),
        (3, 3, 5, [3, 4, 3]),  # the search certifies n = 3 itself; n = 4 carries n = 3's lower end
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
        # one call per row at most, none on the edgeless (3,3,2); with the
        # search on, (3,3,4) carries its lower end from (3,3,3), one more call
        assert calls == [2, 3, 4, 5, 6, 3, 4] + ([3] if run_search else [])

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
        (min_mod2_cover, ("k", "t", "n", "budget", "cap")),
        (exact_b, ("k", "t", "m", "budget", "cap")),
        (bounds_table, ("k", "t", "n_values", "budget", "cap")),
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
