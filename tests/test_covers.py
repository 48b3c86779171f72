import warnings
from itertools import combinations, permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddtown import (
    GpCover,
    KPartiteProduct,
    Mod2Cover,
    OkBicliqueCover,
    SubsetBits,
    build_b22_pair,
    build_cover_33,
    build_partition_cover,
    cover_to_ok_biclique_cover,
    cover_to_tuple,
    coverage_parity,
    distinct_index_count,
    is_target_edge,
    link_cover,
    permute_gp_cover,
    restrict_cover,
    trivial_gp_cover,
    tuple_to_cover,
    verify_bollobas_tuple,
    verify_exact_gp_cover,
    verify_mod2_cover,
    verify_ok_biclique_cover,
)
from oddtown.covers import parity_functions_equal
from oddtown.fileio import load_cover, save_cover
from oddtown import covers, setsystems
from oddtown.setsystems import VerifyReport, Violation


def prod(n, *parts):
    return KPartiteProduct.from_lists(n, parts)


def cover_22_of_3():
    # {1} x {2,3}, {2} x {1,3}, {3} x {1,2}
    return Mod2Cover(
        2, 2, 3,
        (prod(3, [1], [2, 3]), prod(3, [2], [1, 3]), prod(3, [3], [1, 2])),
    )


def naive_parity(cover, idx):
    count = 0
    for p in cover.products:
        if all(idx[j] in p.parts[j].elements() for j in range(cover.k)):
            count += 1
    return count % 2


class TestIndexHelpers:
    def test_distinct_counts(self):
        assert distinct_index_count((1, 1, 1), 3) == 1
        assert distinct_index_count((1, 2, 1), 3) == 2
        assert distinct_index_count((3, 1, 2), 3) == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            distinct_index_count((0, 1), 3)
        with pytest.raises(ValueError):
            distinct_index_count((4,), 3)

    def test_is_target_edge(self):
        assert is_target_edge((1, 2, 3), 3, 3)
        assert not is_target_edge((1, 1, 2), 3, 3)
        assert not is_target_edge((1, 1), 2, 2)


class TestCoverageParity:
    def test_full_product_covers_once(self):
        full = Mod2Cover(2, 2, 3, (prod(3, [1, 2, 3], [1, 2, 3]),))
        for idx in product((1, 2, 3), repeat=2):
            assert coverage_parity(full, idx) == 1

    def test_empty_cover(self):
        empty = Mod2Cover(2, 2, 3, ())
        assert coverage_parity(empty, (1, 2)) == 0

    def test_three_product_cover_cells(self):
        c = cover_22_of_3()
        assert coverage_parity(c, (3, 3)) == 0
        assert coverage_parity(c, (1, 2)) == 1
        for idx in product((1, 2, 3), repeat=2):
            assert coverage_parity(c, idx) == naive_parity(c, idx)


class TestVerifyMod2Cover:
    def test_three_product_cover_valid(self):
        assert verify_mod2_cover(cover_22_of_3()).valid

    def test_bare_full_product_invalid(self):
        c = Mod2Cover(2, 2, 3, (prod(3, [1, 2, 3], [1, 2, 3]),))
        report = verify_mod2_cover(c)
        assert not report.valid
        assert report.violations[0].indices == (1, 1)

    def test_cover33_small(self):
        c = build_cover_33(2)
        assert len(c) == 7 and verify_mod2_cover(c).valid

    def test_empty_parts_banned(self):
        with pytest.raises(ValueError):
            prod(3, [], [1])

    def test_repeated_products_cancel(self):
        base = cover_22_of_3()
        doubled = Mod2Cover(2, 2, 3, base.products + base.products[:1])
        assert not verify_mod2_cover(doubled).valid  # repeat flips its cells
        cancelled = Mod2Cover(2, 2, 3, base.products + base.products)
        for idx in product((1, 2, 3), repeat=2):
            assert coverage_parity(cancelled, idx) == 0


class TestExactGpCover:
    def test_enumeration_cover(self):
        c = GpCover(2, 3, (prod(3, [1], [2]), prod(3, [1], [3]), prod(3, [2], [3])))
        assert verify_exact_gp_cover(c).valid

    def test_size_two_cover(self):
        c = GpCover(2, 3, (prod(3, [1, 2], [3]), prod(3, [1], [2])))
        assert verify_exact_gp_cover(c).valid and len(c) == 2

    def test_overlapping_parts_rejected_and_double_cover_invalid(self):
        with pytest.raises(ValueError):
            GpCover(2, 3, (prod(3, [1, 2], [2, 3]),))
        doubled = GpCover(2, 3, (prod(3, [1], [2]), prod(3, [1], [2])))
        report = verify_exact_gp_cover(doubled)
        assert not report.valid
        assert report.violations[0].indices == (1, 2)


class TestTupleCorrespondence:
    def test_cover_to_tuple_size3(self):
        system = cover_to_tuple(cover_22_of_3())
        assert system.m == 3 and system.ground_size == 3
        a, b = system.families
        assert [s.elements() for s in a] == [(1,), (2,), (3,)]
        assert [s.elements() for s in b] == [(2, 3), (1, 3), (1, 2)]

    def test_empty_cover(self):
        system = cover_to_tuple(Mod2Cover(2, 2, 3, ()))
        assert system.ground_size == 0 and system.m == 3

    def test_cover33_tuple(self):
        system = cover_to_tuple(build_cover_33(2))
        assert verify_bollobas_tuple(system).valid

    def test_tuple_to_cover_example(self):
        n = 2
        a = (SubsetBits.from_elements(n, [1]), SubsetBits.from_elements(n, [2]),
             SubsetBits.full(n))
        b = (SubsetBits.from_elements(n, [2]), SubsetBits.from_elements(n, [1]),
             SubsetBits.full(n))
        from oddtown import TupleSystem

        system = TupleSystem(2, 2, 3, n, (a, b))
        cover = tuple_to_cover(system)
        assert cover.n == 3 and len(cover) == 2
        parts = [[p.elements() for p in pr.parts] for pr in cover.products]
        assert parts == [[(1, 3), (2, 3)], [(2, 3), (1, 3)]]
        assert verify_mod2_cover(cover).valid

    def test_b22_pair_gives_cover(self):
        cover = tuple_to_cover(build_b22_pair(4))
        assert cover.n == 5 and len(cover) == 4
        assert verify_mod2_cover(cover).valid

    def test_empty_part_dropped_with_warning(self):
        from oddtown import TupleSystem

        # ground element 2 appears in no set of family B
        a = (SubsetBits.from_elements(2, [1, 2]),)
        b = (SubsetBits.from_elements(2, [1]),)
        system = TupleSystem(2, 2, 1, 2, (a, b))
        with pytest.warns(UserWarning, match="empty part"):
            cover = tuple_to_cover(system)
        assert len(cover) == 1

    def test_round_trip_parity(self, cover_pool):
        for c in cover_pool:
            back = tuple_to_cover(cover_to_tuple(c))
            assert parity_functions_equal(c, back)

    def test_correspondence_validity_equivalence(self, cover_pool):
        for c in cover_pool:
            assert verify_mod2_cover(c).valid
            assert verify_bollobas_tuple(cover_to_tuple(c)).valid
        # mutazione: dropping one product flips something on both sides
        for c in cover_pool:
            if not (2 <= len(c) <= 40 and c.n <= 3):
                continue
            mutated = Mod2Cover(c.k, c.t, c.n, c.products[1:])
            assert verify_mod2_cover(mutated).valid == verify_bollobas_tuple(
                cover_to_tuple(mutated)
            ).valid


class TestOkBicliqueCover:
    def test_pipeline_h44_5(self):
        cover = permute_gp_cover(trivial_gp_cover(5, 4))
        assert len(cover) == 120
        ok = cover_to_ok_biclique_cover(cover)
        report = verify_ok_biclique_cover(ok)
        assert report.valid

    def test_pipeline_h44_4(self):
        cover = permute_gp_cover(trivial_gp_cover(4, 4))
        assert verify_ok_biclique_cover(cover_to_ok_biclique_cover(cover)).valid

    def test_empty_cover_leaves_edges_uncovered(self):
        # OK on 4 elements with pairs does have edges, e.g. (1,2)-(3,4)
        ok = cover_to_ok_biclique_cover(Mod2Cover(4, 4, 4, ()))
        report = verify_ok_biclique_cover(ok)
        assert not report.valid
        # whereas on 3 elements no two pairs are disjoint: vacuously fine
        ok3 = cover_to_ok_biclique_cover(Mod2Cover(4, 4, 3, ()))
        assert verify_ok_biclique_cover(ok3).valid

    def test_no_edges_vacuous(self):
        # the only valid cover of the edgeless 2-element target is even
        # everywhere; the empty cover maps to a vacuously valid biclique cover
        # over the edgeless pair graph
        empty = Mod2Cover(4, 4, 2, ())
        assert verify_mod2_cover(empty).valid
        assert verify_ok_biclique_cover(cover_to_ok_biclique_cover(empty)).valid

        # the bare full product covers the non-edge cells oddly, so it is not
        # a valid cover, and its biclique image covers overlapping pairs oddly
        full = SubsetBits.full(2)
        bad = Mod2Cover(4, 4, 2, (KPartiteProduct((full, full, full, full)),))
        assert not verify_mod2_cover(bad).valid
        ok = cover_to_ok_biclique_cover(bad)
        report = verify_ok_biclique_cover(ok)
        assert not report.valid
        assert report.violations[0].expected == "even coverage"

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            cover_to_ok_biclique_cover(build_cover_33(2))

    def test_vertex_validation(self):
        from oddtown import OkBicliqueCover

        with pytest.raises(ValueError, match="distinct"):
            OkBicliqueCover(3, 2, ((((1, 1),), ((2, 3),)),))
        with pytest.raises(ValueError, match="outside"):
            OkBicliqueCover(3, 2, ((((1, 4),), ((2, 3),)),))

    @staticmethod
    def _first_vertex_error(n, k, bicliques):
        """The check vertex by vertex: the message for the first bad vertex, or None."""
        for left, right in bicliques:
            for v in left + right:
                if len(v) != k or len(set(v)) != k:
                    return f"vertex {v} is not an ordered {k}-tuple of distinct elements"
                if any(not (1 <= e <= n) for e in v):
                    return f"vertex {v} has entries outside [1, {n}]"
        return None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.data())
    def test_vertex_validation_matches_the_vertex_walk(self, n, k, data):
        from oddtown import OkBicliqueCover

        good = st.permutations(range(1, n + 1)).map(lambda p: tuple(p[:k]))
        bad = st.lists(st.integers(0, n + 1), min_size=max(0, k - 1), max_size=k + 1).map(tuple)
        side = st.lists(st.one_of(good, good, bad), max_size=3).map(tuple)
        bicliques = tuple(data.draw(st.lists(st.tuples(side, side), max_size=4)))
        want = self._first_vertex_error(n, k, bicliques)
        if want is None:
            OkBicliqueCover(n, k, bicliques)
        else:
            with pytest.raises(ValueError) as err:
                OkBicliqueCover(n, k, bicliques)
            assert str(err.value) == want


class TestPermuteGpCover:
    def test_trivial_3_2(self):
        out = permute_gp_cover(trivial_gp_cover(3, 2))
        assert len(out) == 6
        assert verify_mod2_cover(out).valid

    def test_size_two_input(self):
        gp = GpCover(2, 3, (prod(3, [1, 2], [3]), prod(3, [1], [2])))
        out = permute_gp_cover(gp)
        assert len(out) == 4 and verify_mod2_cover(out).valid

    def test_single_product_n_equals_k(self):
        out = permute_gp_cover(trivial_gp_cover(3, 3))
        assert len(out) == 6
        cells = {tuple(p.parts[j].elements()[0] for j in range(3)) for p in out.products}
        assert len(cells) == 6  # exactly the all-distinct tuples

    def test_size_law(self):
        from math import factorial

        for n, k in ((3, 2), (4, 2), (4, 3), (5, 4)):
            gp = trivial_gp_cover(n, k)
            assert len(permute_gp_cover(gp)) == factorial(k) * len(gp)

    def test_invalid_input_rejected(self):
        bad = GpCover(2, 3, (prod(3, [1], [2]),))
        with pytest.raises(ValueError):
            permute_gp_cover(bad)


class TestLinkCover:
    def test_link_of_permuted_trivial(self):
        cover = permute_gp_cover(trivial_gp_cover(3, 3))
        linked = link_cover(cover)
        assert (linked.k, linked.t, linked.n) == (2, 2, 2)
        assert verify_mod2_cover(linked).valid

    def test_link_of_cover33(self):
        linked = link_cover(build_cover_33(3))
        assert (linked.k, linked.n) == (2, 2)
        assert len(linked) <= 10
        assert verify_mod2_cover(linked).valid

    def test_invalid_input_rejected(self):
        c = Mod2Cover(3, 3, 2, (prod(2, [1], [1], [1]),))
        with pytest.raises(ValueError):
            link_cover(c)

    def test_requires_k_at_least_3(self):
        with pytest.raises(ValueError):
            link_cover(cover_22_of_3())

    def test_general_element_and_coordinate(self):
        cover = build_cover_33(3)
        for element in (1, 2, 3):
            for coordinate in (1, 2, 3):
                linked = link_cover(cover, element=element, coordinate=coordinate)
                assert verify_mod2_cover(linked).valid

    @staticmethod
    def link_reference(cover, element, coordinate):
        """The linked products, relabelled through element lists."""
        products = []
        for p in cover.products:
            if element not in p.parts[coordinate - 1].elements():
                continue
            parts = tuple(
                SubsetBits.from_elements(
                    cover.n - 1, [e if e < element else e - 1 for e in part.elements() if e != element]
                )
                for j, part in enumerate(p.parts)
                if j != coordinate - 1
            )
            if all(part.elements() for part in parts):
                products.append(KPartiteProduct(parts))
        return tuple(products)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_products_pinned_to_element_relabelling(self, n):
        for cover in (build_cover_33(n), build_partition_cover(4, 4, n)):
            for element in range(1, n + 1):
                for coordinate in range(1, cover.k + 1):
                    linked = link_cover(cover, element=element, coordinate=coordinate)
                    assert linked.products == self.link_reference(cover, element, coordinate)


class TestRestriction:
    def test_restriction_preserves_validity(self, cover_pool):
        for c in cover_pool:
            if c.n < 1:
                continue
            smaller = restrict_cover(c, c.n - 1)
            assert smaller.n == c.n - 1
            assert verify_mod2_cover(smaller).valid


# --- cross-checks of the parity scan against per-cell references -------------


def products_of(k, n):
    part = st.integers(1, (1 << n) - 1).map(lambda bits: SubsetBits(n, bits))
    return st.tuples(*[part] * k).map(KPartiteProduct)


@st.composite
def small_covers(draw, ks=(2, 3, 4), t_equals_k=False):
    k = draw(st.sampled_from(ks))
    t = k if t_equals_k else draw(st.integers(2, k))
    n = draw(st.integers(1, 4))
    return Mod2Cover(k, t, n, tuple(draw(st.lists(products_of(k, n), max_size=10))))


def reference_cover_report(cover, cap):
    """verify_mod2_cover by one coverage_parity call per cell, in lex order."""
    found = []
    for idx in product(range(1, cover.n + 1), repeat=cover.k):
        got = coverage_parity(cover, idx)
        want = int(is_target_edge(idx, cover.t, cover.n))
        if got != want:
            found.append(Violation(idx, got, "odd coverage" if want else "even coverage"))
            if len(found) >= cap:
                return VerifyReport(False, tuple(found), True)
    return VerifyReport(not found, tuple(found), False)


def reference_biclique_report(ok, cap):
    """verify_ok_biclique_cover by counting the bicliques at each vertex pair."""
    vertices = list(permutations(range(1, ok.n + 1), ok.k))
    found = []
    for u in vertices:
        for v in vertices:
            count = sum(1 for left, right in ok.bicliques if u in left and v in right)
            odd = not set(u) & set(v)
            if count % 2 != odd:
                found.append(Violation(u + v, count, "odd coverage" if odd else "even coverage"))
                if len(found) >= cap:
                    return VerifyReport(False, tuple(found), True)
    return VerifyReport(not found, tuple(found), False)


# Product counts S at the 64-bit word edges; with n = 0 no product exists, so S = 0.
WORD_EDGES = (0, 63, 64, 65)


@st.composite
def word_edge_covers(draw, ks=(2, 3, 4, 5), t_equals_k=False):
    """Covers with S products, S drawn from ``WORD_EDGES``, k up to 5 and n from 0."""
    k = draw(st.sampled_from(ks))
    t = k if t_equals_k else draw(st.integers(2, k))
    n = draw(st.integers(0, 3))
    size = draw(st.sampled_from(WORD_EDGES)) if n else 0
    products = draw(st.lists(products_of(k, n), min_size=size, max_size=size)) if n else []
    return Mod2Cover(k, t, n, tuple(products))


def parity_twin(a, data):
    """a reordered, plus cancelling pairs, plus maybe one more product."""
    products = list(data.draw(st.permutations(a.products)))
    if a.products:
        for p in data.draw(st.lists(st.sampled_from(a.products), max_size=2)):
            products += [p, p]
    if a.n:
        products += data.draw(st.lists(products_of(a.k, a.n), max_size=1))
    return Mod2Cover(a.k, a.t, a.n, tuple(products))


def per_cell_equal(a, b):
    return all(coverage_parity(a, idx) == coverage_parity(b, idx)
               for idx in product(range(1, a.n + 1), repeat=a.k))


# caps that truncate, and one that keeps every violation
CAPS = st.sampled_from((1, 3, 10**6))
# _PAIR_COST and _LIST_SHARE at their extremes: 0 counts every bit pair by pair
# and lists every side, 2^30 (past every cell count here) does neither
EXTREMES = (0, 1 << 30)


@st.composite
def gp_covers(draw):
    """Disjoint covers: each product labels every element of [n] with a part or none."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, min(3, n)))
    labels = st.lists(st.integers(0, k), min_size=n, max_size=n).filter(
        lambda ls: set(range(1, k + 1)) <= set(ls))
    return GpCover(k, n, tuple(
        prod(n, *[[e + 1 for e in range(n) if ls[e] == j] for j in range(1, k + 1)])
        for ls in draw(st.lists(labels, max_size=8))))


def reference_gp_report(cover, cap):
    """verify_exact_gp_cover by counting the products at each k-subset, in lex order."""
    found = []
    for subset in combinations(range(1, cover.n + 1), cover.k):
        count = sum(all(len(set(subset) & set(p.elements())) == 1 for p in q.parts) for q in cover.products)
        if count != 1:
            found.append(Violation(subset, count, "covered exactly once"))
            if len(found) >= cap:
                return VerifyReport(False, tuple(found), True)
    return VerifyReport(not found, tuple(found), False)


def reference_fold(cover):
    """cover_to_ok_biclique_cover by one filtered Cartesian product per half."""
    kappa = cover.k // 2

    def side(parts):
        return tuple(v for v in product(*(p.elements() for p in parts)) if len(set(v)) == kappa)

    halves = [(side(q.parts[:kappa]), side(q.parts[kappa:])) for q in cover.products]
    return OkBicliqueCover(cover.n, kappa, tuple((lo, hi) for lo, hi in halves if lo and hi))


class TestParityScanCrossChecks:
    @settings(max_examples=150, deadline=None)
    @given(small_covers(), st.integers(1, 5))
    def test_cover_route_matches_per_cell(self, cover, cap):
        assert verify_mod2_cover(cover, cap) == reference_cover_report(cover, cap)

    @settings(max_examples=150, deadline=None)
    @given(small_covers(), st.integers(1, 5))
    def test_tuple_route_flags_same_tuples(self, cover, cap):
        by_cover = verify_mod2_cover(cover, cap)
        by_tuple = verify_bollobas_tuple(cover_to_tuple(cover), max_violations=cap)
        assert by_tuple.valid == by_cover.valid and by_tuple.truncated == by_cover.truncated
        rename = {"odd coverage": "odd intersection", "even coverage": "even intersection"}
        assert by_tuple.violations == tuple(
            Violation(v.indices, v.observed, rename[v.expected]) for v in by_cover.violations
        )

    @settings(max_examples=150, deadline=None)
    @given(small_covers(), st.data())
    def test_parity_difference_matches_per_cell(self, a, data):
        b = parity_twin(a, data)
        assert parity_functions_equal(a, b) == per_cell_equal(a, b)

    @settings(max_examples=100, deadline=None)
    @given(small_covers(ks=(2, 4), t_equals_k=True), st.integers(1, 5), st.data())
    def test_biclique_matches_per_pair_count(self, cover, cap, data):
        ok = cover_to_ok_biclique_cover(cover)
        assert verify_ok_biclique_cover(ok, cap) == reference_biclique_report(ok, cap)
        if ok.bicliques:
            drop = data.draw(st.integers(0, len(ok.bicliques) - 1))
            fewer = OkBicliqueCover(ok.n, ok.k, ok.bicliques[:drop] + ok.bicliques[drop + 1:])
            assert verify_ok_biclique_cover(fewer, cap) == reference_biclique_report(fewer, cap)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_covers(ks=(2, 4), t_equals_k=True),
                     word_edge_covers(ks=(2, 4), t_equals_k=True)))
    def test_fold_matches_cartesian_products(self, cover):
        assert cover_to_ok_biclique_cover(cover) == reference_fold(cover)

    @settings(max_examples=150, deadline=None)
    @given(gp_covers(), st.integers(1, 5), st.sampled_from((1, 1 << 19)))
    def test_exact_gp_cover_matches_per_subset_count(self, cover, cap, entries):
        # at 1 entry every subset is a block of its own
        with mock.patch.object(covers, "_SCAN_BLOCK_ENTRIES", entries):
            assert verify_exact_gp_cover(cover, cap) == reference_gp_report(cover, cap)

    @pytest.mark.parametrize("n", (4, 5))
    def test_biclique_valid_fold_with_one_removed(self, n):
        ok = cover_to_ok_biclique_cover(permute_gp_cover(trivial_gp_cover(n, 4)))
        assert verify_ok_biclique_cover(ok) == reference_biclique_report(ok, 16)
        assert verify_ok_biclique_cover(ok).valid
        fewer = OkBicliqueCover(ok.n, ok.k, ok.bicliques[1:])
        report = verify_ok_biclique_cover(fewer)
        assert not report.valid and report == reference_biclique_report(fewer, 16)


class TestParityScanWordEdges:
    """The count products at S = 0, 63, 64 and 65, odd k, and n = 0; with the
    block constants at 1-3, every left row and every 1-3 bits of S is a block."""

    @settings(max_examples=60, deadline=None)
    @given(word_edge_covers(), CAPS)
    def test_cover_route(self, cover, cap):
        assert verify_mod2_cover(cover, cap) == reference_cover_report(cover, cap)

    @settings(max_examples=40, deadline=None)
    @given(word_edge_covers(), st.data())
    def test_parity_difference(self, a, data):
        b = parity_twin(a, data)
        assert parity_functions_equal(a, b) == per_cell_equal(a, b)

    @settings(max_examples=40, deadline=None)
    @given(word_edge_covers(ks=(2, 4), t_equals_k=True), CAPS)
    def test_biclique(self, cover, cap):
        ok = cover_to_ok_biclique_cover(cover)
        assert verify_ok_biclique_cover(ok, cap) == reference_biclique_report(ok, cap)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(small_covers(), word_edge_covers()), CAPS, st.data(),
           st.integers(1, 3), st.integers(1, 3), st.sampled_from(EXTREMES))
    def test_tiny_blocks(self, cover, cap, data, cells, entries, share):
        b = parity_twin(cover, data)
        ok = cover_to_ok_biclique_cover(cover) if cover.k % 2 == 0 and cover.t == cover.k else None
        for cost in EXTREMES:  # every bit pair by pair, then every bit by the product
            with mock.patch.object(setsystems, "_SCAN_BLOCK_CELLS", cells), \
                    mock.patch.object(setsystems, "_SCAN_BLOCK_ENTRIES", entries), \
                    mock.patch.object(setsystems, "_PAIR_COST", cost), \
                    mock.patch.object(setsystems, "_LIST_SHARE", share):
                assert verify_mod2_cover(cover, cap) == reference_cover_report(cover, cap)
                assert parity_functions_equal(cover, b) == per_cell_equal(cover, b)
                if ok is not None:
                    assert verify_ok_biclique_cover(ok, cap) == reference_biclique_report(ok, cap)


class TestScanSizeGuard:
    def test_oversized_biclique_grid_refused(self):
        # 30*29*28*27 vertices: refused before the vertex list is built
        with pytest.raises(ValueError, match="657720\\^2 index tuples exceed the scan limit"):
            verify_ok_biclique_cover(OkBicliqueCover(30, 4, ()))

    def test_oversized_exact_gp_cover_refused(self):
        # C(40, 8) subsets times 2 products; almost every subset is uncovered,
        # so without the guard the violation cap would end the walk at once
        singles = [[i] for i in range(1, 9)]
        big = GpCover(8, 40, (prod(40, *singles), prod(40, *singles)))
        with pytest.raises(ValueError) as info:
            verify_exact_gp_cover(big)
        assert str(info.value) == (
            "76904685 subsets x 2 products exceed the scan limit of 100000000")

    def test_exact_gp_cover_walk_size(self, monkeypatch):
        c = GpCover(2, 3, (prod(3, [1], [2]), prod(3, [1], [3]), prod(3, [2], [3])))
        monkeypatch.setattr(setsystems, "MAX_SCAN_CELLS", 9)  # C(3, 2) * 3 products
        assert verify_exact_gp_cover(c).valid
        monkeypatch.setattr(setsystems, "MAX_SCAN_CELLS", 8)
        with pytest.raises(ValueError, match="^3 subsets x 3 products exceed the scan limit of 8$"):
            verify_exact_gp_cover(c)

    def test_empty_gp_cover_walk_size(self, monkeypatch):
        # with no products the walk still visits every subset: C(5, 2) of them
        monkeypatch.setattr(setsystems, "MAX_SCAN_CELLS", 10)
        assert not verify_exact_gp_cover(GpCover(2, 5, ())).valid
        monkeypatch.setattr(setsystems, "MAX_SCAN_CELLS", 9)
        with pytest.raises(ValueError, match="^10 subsets x 0 products exceed the scan limit of 9$"):
            verify_exact_gp_cover(GpCover(2, 5, ()))

    def test_oversized_parity_difference_refused(self):
        big = Mod2Cover(6, 2, 100, ())
        with pytest.raises(ValueError, match="scan limit"):
            parity_functions_equal(big, big)


# --- the packed part array ------------------------------------------------------


def packed_reference(cover):
    """The parts array written out from the products, one byte at a time."""
    width = (cover.n + 7) // 8
    return np.array([[[(part.bits >> 8 * b) & 0xFF for b in range(width)] for part in p.parts]
                     for p in cover.products], dtype=np.uint8).reshape(len(cover), cover.k, width)


class TestPackedParts:
    def test_products_view_round_trips_for_constructions(self, cover_pool):
        for c in [*cover_pool, trivial_gp_cover(5, 3), build_b22_pair(4)]:
            if not hasattr(c, "parts"):
                c = tuple_to_cover(c)
            assert np.array_equal(c.parts, packed_reference(c))
            fields = (c.k, c.t, c.n) if isinstance(c, Mod2Cover) else (c.k, c.n)
            again = type(c)(*fields, parts=c.parts)
            assert again.products == c.products and again == c
            assert type(c)(*fields, c.products) == c

    def test_products_view_round_trips_for_loads(self, cover_pool, tmp_path):
        for i, c in enumerate(cover_pool):
            path = tmp_path / f"c{i}.json"
            save_cover(c, path)
            loaded = load_cover(path)
            assert "products" not in vars(loaded)  # built on first access only
            assert loaded.products == c.products and loaded == c

    def test_products_view_round_trips_through_tuples(self, cover_pool):
        for c in cover_pool:
            back = tuple_to_cover(cover_to_tuple(c))
            assert back == c and back.products == c.products

    def test_derived_view_is_cached_and_read_only(self):
        c = permute_gp_cover(trivial_gp_cover(4, 2))
        assert c.products is c.products
        with pytest.raises(AttributeError):
            c.products = ()
        with pytest.raises(AttributeError):
            c.n = 5
        with pytest.raises(ValueError):
            c.parts[0, 0, 0] = 3

    def test_array_checks(self):
        good = np.array([[[1], [2]]], dtype=np.uint8)
        good.flags.writeable = False
        assert Mod2Cover(2, 2, 2, parts=good).products == (prod(2, [1], [2]),)
        writeable = good.copy()
        wrong_dtype = good.astype(np.int64)
        wrong_dtype.flags.writeable = False
        for bad in (writeable, wrong_dtype, good.reshape(1, 2), good[:, :1], np.ones((1, 2, 2), np.uint8)):
            with pytest.raises(ValueError, match="read-only uint8 array of shape"):
                Mod2Cover(2, 2, 2, parts=bad)
        beyond = np.array([[[1], [4]]], dtype=np.uint8)
        beyond.flags.writeable = False
        with pytest.raises(ValueError, match="beyond the ground set"):
            Mod2Cover(2, 2, 2, parts=beyond)
        empty = np.array([[[1], [0]]], dtype=np.uint8)
        empty.flags.writeable = False
        with pytest.raises(ValueError, match="parts must be nonempty"):
            Mod2Cover(2, 2, 2, parts=empty)
        overlap = np.array([[[3], [2]]], dtype=np.uint8)
        overlap.flags.writeable = False
        with pytest.raises(ValueError, match="overlap"):
            GpCover(2, 2, parts=overlap)
        with pytest.raises(ValueError, match="share the cover's k and ground size"):
            Mod2Cover(2, 2, 3, (prod(2, [1], [2]),))

    def test_products_and_parts_together_refused(self):
        parts = np.array([[[1], [2]]], dtype=np.uint8)
        parts.flags.writeable = False
        with pytest.raises(ValueError, match="its products or its parts, not both"):
            Mod2Cover(2, 2, 3, (prod(3, [1], [3]),), parts=parts)
        with pytest.raises(ValueError, match="its products or its parts, not both"):
            GpCover(2, 3, [prod(3, [1], [3])], parts=parts)
        assert Mod2Cover(2, 2, 3, (), parts=parts).products == (prod(3, [1], [2]),)

    def test_given_products_are_packed_not_kept(self):
        given = (prod(3, [1], [2, 3]), prod(3, [3], [1]))
        c = Mod2Cover(2, 2, 3, given)
        assert "products" not in vars(c)
        assert c.products == given and c.products is not given

    def test_one_warning_per_tuple_to_cover(self):
        from oddtown import TupleSystem

        # ground elements 2, 3 and 5 are in no set of family B
        a = (SubsetBits.from_elements(5, [1, 2, 3, 4, 5]),)
        b = (SubsetBits.from_elements(5, [1, 4]),)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cover = tuple_to_cover(TupleSystem(2, 2, 1, 5, (a, b)))
        assert [str(w.message) for w in caught] == [
            "3 of 5 ground elements give an empty part, so their products are dropped; "
            "the first is ground element 2, empty in coordinate 2"
        ]
        assert cover.products == (prod(1, [1], [1]), prod(1, [1], [1]))
