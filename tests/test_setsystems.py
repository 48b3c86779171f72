import json
import random
import tracemalloc
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddtown import (
    SetFamily,
    SubsetBits,
    TupleSystem,
    add_shared_element,
    build_b22_pair,
    build_cover_33,
    build_kt_oddtown_family,
    cover_to_tuple,
    intersection_parity,
    is_linearly_independent,
    oddtown_certificate,
    reduce_33_oddtown,
    verify_bollobas_tuple,
    verify_kt_oddtown,
    verify_oddtown,
    verify_skew_oddtown,
)
from oddtown import gf2, setsystems
from oddtown.fileio import load_tuple
from oddtown.setsystems import MAX_SCAN_CELLS, VerifyReport, Violation
from conftest import greedy_oddtown_family


def sb(n, *elems):
    return SubsetBits.from_elements(n, elems)


class TestSubsetBits:
    def test_elements_roundtrip(self):
        s = sb(6, 2, 5)
        assert s.elements() == (2, 5)
        assert s.size == 2 and s.parity == 0
        assert 2 in s and 3 not in s

    def test_bits_beyond_ground_rejected(self):
        with pytest.raises(ValueError):
            SubsetBits(3, 0b1000)
        with pytest.raises(ValueError):
            SubsetBits.from_elements(3, [4])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 200).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
    def test_elements_match_the_ground_walk(self, n_bits):
        n, bits = n_bits
        walk = tuple(e for e in range(1, n + 1) if (bits >> (e - 1)) & 1)
        assert SubsetBits(n, bits).elements() == walk


class TestIntersectionParity:
    def test_single_odd(self):
        assert intersection_parity([sb(4, 1, 2, 3)]) == 1

    def test_pair(self):
        assert intersection_parity([sb(4, 1, 2), sb(4, 2, 3)]) == 1

    def test_disjoint(self):
        assert intersection_parity([sb(4, 1, 2), sb(4, 3, 4)]) == 0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            intersection_parity([])


class TestOddtown:
    def test_singletons_valid(self):
        fam = SetFamily.from_lists(5, [[i] for i in range(1, 6)])
        assert verify_oddtown(fam).valid

    def test_even_set_flagged(self):
        fam = SetFamily.from_lists(3, [[1, 2], [2, 3]])
        report = verify_oddtown(fam)
        assert not report.valid
        assert report.violations[0].indices == (1,)
        assert report.violations[0].expected == "odd size"

    def test_violation_cap(self):
        fam = SetFamily.from_lists(4, [[1, 2]] * 40)
        report = verify_oddtown(fam, max_violations=5)
        assert not report.valid and report.truncated and len(report.violations) == 5

    def test_four_thousand_singletons(self):
        # 8 M pairs, read as the cells above the diagonal of the 4,000^2 parity scan
        rows = np.zeros((4000, 500), dtype=np.uint8)
        rows[np.arange(4000), np.arange(4000) // 8] = 1 << np.arange(4000) % 8
        assert verify_oddtown(SetFamily(4000, rows=_read_only(rows))).valid
        rows[0, 0] |= 2  # A_1 = {1, 2} meets A_2 = {2}
        rows[3999, 499] |= 1 << 6  # A_4000 = {3999, 4000} meets A_3999 = {3999}
        assert verify_oddtown(SetFamily(4000, rows=_read_only(rows))) == VerifyReport(False, (
            Violation((1,), 2, "odd size"), Violation((4000,), 2, "odd size"),
            Violation((1, 2), 1, "even intersection"), Violation((3999, 4000), 1, "even intersection")))

    def test_oversized_family_refused(self):
        family = SetFamily(1, rows=_read_only(np.zeros((10_001, 1))))
        with pytest.raises(ValueError, match="^10001\\^2 index tuples exceed the scan limit of 100000000$"):
            verify_oddtown(family)

    def test_random_families_obey_bound(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(2, 13)
            fam = greedy_oddtown_family(rng, n)
            assert verify_oddtown(fam).valid
            assert len(fam) <= n
            assert is_linearly_independent(list(fam.sets))


class TestSkewOddtown:
    def test_diagonal_singletons(self):
        a = SetFamily.from_lists(4, [[i] for i in range(1, 5)])
        assert verify_skew_oddtown(a, a).valid

    def test_even_diagonal_flagged(self):
        a = SetFamily.from_lists(2, [[1], [1]])
        b = SetFamily.from_lists(2, [[1], [2]])
        report = verify_skew_oddtown(a, b)
        assert not report.valid
        assert report.violations[0].indices == (2, 2)

    def test_lower_triangle_unconstrained(self):
        # |A_2 ∩ B_1| odd is fine under the one-sided condition
        a = SetFamily.from_lists(3, [[1], [1, 2, 3]])
        b = SetFamily.from_lists(3, [[1], [2]])
        assert verify_skew_oddtown(a, b).valid
        assert not verify_skew_oddtown(a, b, strict_symmetric=True).valid

    def test_length_mismatch_rejected(self):
        a = SetFamily.from_lists(2, [[1]])
        b = SetFamily.from_lists(2, [[1], [2]])
        with pytest.raises(ValueError):
            verify_skew_oddtown(a, b)

    def test_every_single_parity_mutation_detected(self):
        n = 4
        a = SetFamily.from_lists(n, [[i] for i in range(1, n + 1)])
        for i in range(1, n + 1):
            # break the diagonal at (i, i)
            sets = [list(s.elements()) for s in a.sets]
            sets[i - 1] = []
            bad = SetFamily.from_lists(n, sets)
            report = verify_skew_oddtown(bad, a)
            assert not report.valid and (i, i) in [v.indices for v in report.violations]
        for i, j in combinations(range(1, n + 1), 2):
            # break the (i, j) off-diagonal parity: put j into A_i
            sets = [list(s.elements()) for s in a.sets]
            sets[i - 1].append(j)
            bad = SetFamily.from_lists(n, sets)
            report = verify_skew_oddtown(bad, a)
            assert not report.valid and (i, j) in [v.indices for v in report.violations]


class TestKtOddtown:
    def test_pair_family_at_t3(self):
        fam = build_kt_oddtown_family(3, 4)
        assert verify_kt_oddtown(fam, 3, 3).valid
        assert verify_kt_oddtown(fam, 5, 3).valid  # any k >= t works

    def test_singletons_classical(self):
        fam = SetFamily.from_lists(4, [[i] for i in range(1, 5)])
        assert verify_kt_oddtown(fam, 2, 2).valid

    def test_even_pair_intersection_flagged(self):
        fam = SetFamily.from_lists(4, [[1, 2, 3], [1, 2, 4], [1, 3, 4]])
        report = verify_kt_oddtown(fam, 3, 3)
        assert not report.valid
        assert report.violations[0].indices == (1, 2)
        assert len(report.violations[0].indices) == 2

    def test_parameter_validation(self):
        fam = SetFamily.from_lists(2, [[1]])
        with pytest.raises(ValueError):
            verify_kt_oddtown(fam, 2, 3)
        with pytest.raises(ValueError):
            verify_kt_oddtown(SetFamily(2, ()), 2, 2)


    def test_oversized_walk_refused(self):
        # even sets fail at d = 1, so without the guard the violation cap would end the walk
        fam = SetFamily.from_lists(400, [[i, i + 1] for i in range(1, 400, 2)])
        with pytest.raises(ValueError) as info:
            verify_kt_oddtown(fam, 5, 2)
        assert str(info.value) == (
            "2601668490 subsets of at most 5 of the 200 sets exceed the scan limit of 100000000")

    def test_walk_size_counts_every_subset_up_to_k(self, monkeypatch):
        fam = SetFamily.from_lists(4, [[i] for i in range(1, 5)])
        monkeypatch.setattr(setsystems, "MAX_SCAN_CELLS", 10)  # 4 + 6 subsets of size 1, 2
        assert verify_kt_oddtown(fam, 2, 2).valid
        monkeypatch.setattr(setsystems, "MAX_SCAN_CELLS", 15)  # 4 + 6 + 4 + 1 at k >= m
        assert verify_kt_oddtown(fam, 9, 2).valid
        monkeypatch.setattr(setsystems, "MAX_SCAN_CELLS", 9)
        with pytest.raises(ValueError, match="^10 subsets of at most 2 of the 4 sets exceed"):
            verify_kt_oddtown(fam, 2, 2)


class TestBollobasTuple:
    def test_b22_pair_valid(self):
        assert verify_bollobas_tuple(build_b22_pair(4)).valid

    def test_odd_diagonal_flagged(self):
        one = sb(1, 1)
        system = TupleSystem(2, 2, 1, 1, ((one,), (one,)))
        report = verify_bollobas_tuple(system)
        assert not report.valid
        assert report.violations[0].indices == (1, 1)

    def test_cover_correspondent_valid(self):
        system = cover_to_tuple(build_cover_33(2))
        assert system.m == 2 and system.ground_size == 7
        assert verify_bollobas_tuple(system).valid

    def test_pair_size_bound(self):
        # every valid pair system here obeys m <= n + 1
        for n in (2, 4, 6, 8):
            system = build_b22_pair(n)
            assert verify_bollobas_tuple(system).valid
            assert system.m <= system.ground_size + 1


class TestOddtownCertificate:
    def test_singletons(self):
        fam = SetFamily.from_lists(4, [[i] for i in range(1, 5)])
        cert = oddtown_certificate(fam)
        assert cert.independent and cert.dependency is None

    def test_empty_family(self):
        assert oddtown_certificate(SetFamily(4, ())).independent

    def test_precondition_enforced(self):
        fam = SetFamily.from_lists(3, [[1, 2]])
        with pytest.raises(ValueError):
            oddtown_certificate(fam)

    def test_constructed_subfamily(self):
        # the t=3, n=4 family is not pairwise-even itself; a one-set subfamily is
        fam = build_kt_oddtown_family(3, 4)
        sub = SetFamily(fam.ground_size, fam.sets[:1])
        cert = oddtown_certificate(sub)
        assert cert.independent

    def test_random_families_certify(self):
        rng = random.Random(11)
        for _ in range(25):
            fam = greedy_oddtown_family(rng, rng.randrange(2, 11))
            assert oddtown_certificate(fam).independent


class TestReduce33:
    def test_t3_family_reduces_to_oddtown(self):
        fam = build_kt_oddtown_family(3, 4)
        reduced = reduce_33_oddtown(fam)
        assert len(reduced) == 3
        assert verify_oddtown(reduced).valid

    def test_garbage_in_tolerated(self):
        fam = SetFamily.from_lists(4, [[1], [2]])  # pairwise-even fails (3,3) at d=2
        reduced = reduce_33_oddtown(fam)
        assert len(reduced) == 1
        assert not verify_oddtown(reduced).valid  # empty set has even size

    def test_full_anchor_is_identity(self):
        fam = SetFamily.from_lists(3, [[1, 2, 3], [1], [2, 3]])
        reduced = reduce_33_oddtown(fam)
        assert [s.elements() for s in reduced.sets] == [(1,), (2, 3)]

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            reduce_33_oddtown(SetFamily.from_lists(2, [[1]]))

    def test_anchor_parameter(self):
        fam = build_kt_oddtown_family(3, 4)
        for anchor in range(1, 5):
            assert verify_oddtown(reduce_33_oddtown(fam, anchor=anchor)).valid


def random_tuple_system(rng: random.Random, k: int, m: int, n: int) -> TupleSystem:
    fams = tuple(
        tuple(SubsetBits(n, rng.getrandbits(n)) for _ in range(m)) for _ in range(k)
    )
    return TupleSystem(k, 2, m, n, fams)


class TestAuxiliaryElementTransform:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 3), st.integers(1, 3), st.integers(1, 4), st.integers(0, 10**9))
    def test_every_parity_flips(self, k, m, n, seed):
        rng = random.Random(seed)
        system = random_tuple_system(rng, k, m, n)
        flipped = add_shared_element(system)
        assert flipped.ground_size == n + 1
        for idx in product(range(m), repeat=k):
            before = intersection_parity([system.families[j][idx[j]] for j in range(k)])
            after = intersection_parity([flipped.families[j][idx[j]] for j in range(k)])
            assert after == before ^ 1

    def test_bridges_parity_conventions(self):
        system = build_b22_pair(4)
        assert verify_bollobas_tuple(system).valid
        flipped = add_shared_element(system)
        assert not verify_bollobas_tuple(flipped).valid
        assert verify_bollobas_tuple(flipped, complemented=True).valid
        # and back again
        twice = add_shared_element(flipped)
        assert verify_bollobas_tuple(twice).valid

    def test_kt_family_diagonal_bridge(self):
        # a family follows the (k,t) rules iff its diagonal tuple is valid
        # under the complemented convention, iff the shared-element transform
        # of the diagonal is valid under the standard one
        fam = build_kt_oddtown_family(3, 4)
        k = t = 3
        assert verify_kt_oddtown(fam, k, t).valid
        diag = TupleSystem.diagonal(fam, k, t)
        assert verify_bollobas_tuple(diag, complemented=True).valid
        assert verify_bollobas_tuple(add_shared_element(diag)).valid

        bad = SetFamily.from_lists(4, [[1, 2, 3], [1, 2, 4], [1, 3, 4]])
        assert not verify_kt_oddtown(bad, k, t).valid
        assert not verify_bollobas_tuple(
            add_shared_element(TupleSystem.diagonal(bad, k, t))
        ).valid


# --- the parity scan's tuple and skew callers against per-tuple loops --------


def subsets(n):
    return st.integers(0, (1 << n) - 1).map(lambda bits: SubsetBits(n, bits))


def capped(found, cap, violation):
    """Append one violation; True once the cap is reached."""
    found.append(violation)
    return len(found) >= cap


def reference_tuple_report(system, complemented, cap):
    found = []
    for idx in product(range(system.m), repeat=system.k):
        parity = intersection_parity([system.families[j][idx[j]] for j in range(system.k)])
        want_even = (len(set(idx)) < system.t) != complemented
        if (parity == 0) != want_even:
            text = "even intersection" if want_even else "odd intersection"
            if capped(found, cap, Violation(tuple(i + 1 for i in idx), parity, text)):
                return VerifyReport(False, tuple(found), True)
    return VerifyReport(not found, tuple(found), False)


def reference_skew_report(a, b, strict, cap):
    found = []
    for i, j in product(range(len(a)), repeat=2):
        if i > j and not strict:
            continue
        size = (a[i].bits & b[j].bits).bit_count()
        if size % 2 != (i == j):
            text = "odd intersection" if i == j else "even intersection"
            if capped(found, cap, Violation((i + 1, j + 1), size, text)):
                return VerifyReport(False, tuple(found), True)
    return VerifyReport(not found, tuple(found), False)


def reference_oddtown_report(family, cap):
    found = []
    for i, s in enumerate(family.sets):
        if s.size % 2 == 0 and capped(found, cap, Violation((i + 1,), s.size, "odd size")):
            return VerifyReport(False, tuple(found), True)
    for i, j in combinations(range(len(family)), 2):
        size = (family[i].bits & family[j].bits).bit_count()
        if size % 2 and capped(found, cap, Violation((i + 1, j + 1), size, "even intersection")):
            return VerifyReport(False, tuple(found), True)
    return VerifyReport(not found, tuple(found), False)


@st.composite
def small_tuples(draw):
    k = draw(st.integers(2, 4))
    t = draw(st.integers(2, k))
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, 4))
    fams = tuple(tuple(draw(st.lists(subsets(n), min_size=m, max_size=m))) for _ in range(k))
    return TupleSystem(k, t, m, n, fams)


# ground sizes at the 64-bit word edges, and caps that truncate or keep every violation
WORD_EDGES = st.sampled_from((0, 63, 64, 65))
CAPS = st.sampled_from((1, 3, 10**6))
# the extremes of the kernel's split constants: with _PAIR_COST 0 every bit is
# counted pair by pair, with 2^30 (past every cell count here) every bit that
# makes a pair goes into the product; with _LIST_SHARE 0 every slice side is
# listed from its nonzero bytes, with 2^30 every side that holds a bit is unpacked
EXTREMES = (0, 1 << 30)


@st.composite
def word_edge_tuples(draw):
    """Tuple systems on a ground set of 0, 63, 64 or 65 elements, k up to 5, m from 0."""
    k = draw(st.integers(2, 5))
    t = draw(st.integers(2, k))
    m = draw(st.integers(0, 3))
    n = draw(WORD_EDGES)
    fams = tuple(tuple(draw(st.lists(subsets(n), min_size=m, max_size=m))) for _ in range(k))
    return TupleSystem(k, t, m, n, fams)


@st.composite
def family_pairs(draw, ground_sizes=st.integers(0, 4)):
    n, m = draw(ground_sizes), draw(st.integers(0, 5))
    return tuple(SetFamily(n, tuple(draw(st.lists(subsets(n), min_size=m, max_size=m))))
                 for _ in range(2))


class TestParityScanCallers:
    @settings(max_examples=150, deadline=None)
    @given(small_tuples(), st.booleans(), st.integers(1, 5))
    def test_tuple_matches_per_tuple_loop(self, system, complemented, cap):
        got = verify_bollobas_tuple(system, complemented=complemented, max_violations=cap)
        assert got == reference_tuple_report(system, complemented, cap)

    @settings(max_examples=150, deadline=None)
    @given(family_pairs(), st.booleans(), st.integers(1, 5))
    def test_skew_matches_per_pair_loop(self, pair, strict, cap):
        a, b = pair
        got = verify_skew_oddtown(a, b, strict_symmetric=strict, max_violations=cap)
        assert got == reference_skew_report(a, b, strict, cap)

    @settings(max_examples=60, deadline=None)
    @given(word_edge_tuples(), st.booleans(), CAPS)
    def test_tuple_at_word_edges(self, system, complemented, cap):
        got = verify_bollobas_tuple(system, complemented=complemented, max_violations=cap)
        assert got == reference_tuple_report(system, complemented, cap)

    @settings(max_examples=60, deadline=None)
    @given(family_pairs(WORD_EDGES), st.booleans(), CAPS)
    def test_skew_at_word_edges(self, pair, strict, cap):
        a, b = pair
        got = verify_skew_oddtown(a, b, strict_symmetric=strict, max_violations=cap)
        assert got == reference_skew_report(a, b, strict, cap)

    @settings(max_examples=150, deadline=None)
    @given(family_pairs(st.sampled_from((0, 2, 3, 63, 64, 65))), CAPS)
    def test_oddtown_matches_per_pair_loop(self, pair, cap):
        assert verify_oddtown(pair[0], cap) == reference_oddtown_report(pair[0], cap)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(small_tuples(), word_edge_tuples()), family_pairs(WORD_EDGES),
           st.booleans(), CAPS, st.integers(1, 3), st.integers(1, 3), st.sampled_from(EXTREMES))
    def test_tiny_blocks(self, system, pair, flag, cap, cells, entries, share):
        # every left row and every 1-3 bits of the ground set is a block; every
        # bit is counted pair by pair, then by the product
        a, b = pair
        for cost in EXTREMES:
            with mock.patch.object(setsystems, "_SCAN_BLOCK_CELLS", cells), \
                    mock.patch.object(setsystems, "_SCAN_BLOCK_ENTRIES", entries), \
                    mock.patch.object(setsystems, "_PAIR_COST", cost), \
                    mock.patch.object(setsystems, "_LIST_SHARE", share):
                got = verify_bollobas_tuple(system, complemented=flag, max_violations=cap)
                assert got == reference_tuple_report(system, flag, cap)
                got = verify_skew_oddtown(a, b, strict_symmetric=flag, max_violations=cap)
                assert got == reference_skew_report(a, b, flag, cap)

    def test_oversized_grid_refused(self):
        empty = (SubsetBits(1, 0),) * 100
        system = TupleSystem(6, 2, 100, 1, (empty,) * 6)
        assert 100**6 > MAX_SCAN_CELLS
        with pytest.raises(ValueError, match="100\\^6 index tuples exceed the scan limit"):
            verify_bollobas_tuple(system)


@st.composite
def mixed_rows(draw, n):
    """Packed rows over n bits: empty rows, singletons, a full box of bits shared by
    several rows, and random rows."""
    lo = draw(st.sampled_from((0, draw(st.integers(0, n - 1)))))
    box = range(lo, draw(st.integers(lo + 1, n)))
    rows = []
    count = draw(st.integers(1, 40))
    for kind in draw(st.lists(st.sampled_from(("empty", "single", "box", "random")),
                              min_size=count, max_size=count)):
        rows.append({"empty": lambda: 0, "single": lambda: 1 << draw(st.integers(0, n - 1)),
                     "box": lambda: sum(1 << g for g in box),
                     "random": lambda: draw(st.integers(0, (1 << n) - 1))}[kind]())
    return gf2._row_bytes(rows, (n + 7) // 8)


class TestAndCounts:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 100).flatmap(lambda n: st.tuples(st.just(n), mixed_rows(n), mixed_rows(n))),
           st.sampled_from((256, 1 << 19)), st.sampled_from((1, 8, 64, setsystems._PAIR_COST)),
           st.sampled_from(EXTREMES + (setsystems._LIST_SHARE,)))
    def test_matches_popcounts(self, drawn, entries, cost, share):
        # several slices or one, and a per-bit split at costs that mix both halves
        n, left, right = drawn
        with mock.patch.object(setsystems, "_SCAN_BLOCK_ENTRIES", entries), \
                mock.patch.object(setsystems, "_PAIR_COST", cost), \
                mock.patch.object(setsystems, "_LIST_SHARE", share):
            got = setsystems._and_counts(left, right, n)
        masks = [gf2._row_ints(rows) for rows in (left, right)]
        assert got.tolist() == [[(a & b).bit_count() for b in masks[1]] for a in masks[0]]


def _read_only(array):
    array = np.array(array, dtype=np.uint8)
    array.flags.writeable = False
    return array


class TestPackedRows:
    def test_views_round_trip(self):
        a = (sb(9, 1, 9), sb(9, 2))
        b = (sb(9), sb(9, 8, 9))
        system = TupleSystem(2, 2, 2, 9, (a, b))
        assert "families" not in vars(system)  # packed and dropped
        assert system.families == (a, b) and system.families is system.families
        assert np.array_equal(system.rows, [[[1, 1], [2, 0]], [[0, 0], [128, 1]]])
        assert TupleSystem(2, 2, 2, 9, rows=system.rows) == system
        fam = SetFamily(9, a)
        assert fam.sets == a and len(fam) == 2 and fam[1] == sb(9, 2)
        assert SetFamily(9, rows=fam.rows) == fam
        assert fam != SetFamily(9, a[:1]) and fam != SetFamily(10, (sb(10, 1, 9), sb(10, 2)))
        assert TupleSystem.diagonal(fam, 2, 2) == TupleSystem(2, 2, 2, 9, (a, a))

    def test_read_only_values(self):
        system = build_b22_pair(4)
        with pytest.raises(AttributeError):
            system.m = 3
        with pytest.raises(ValueError):
            system.rows[0, 0, 0] = 0

    def test_array_checks(self):
        rows = _read_only([[[1], [2]], [[2], [1]]])
        assert TupleSystem(2, 2, 2, 2, rows=rows).families == ((sb(2, 1), sb(2, 2)), (sb(2, 2), sb(2, 1)))
        for bad in (np.array(rows), rows.astype(np.int64), rows[:, :1], rows.reshape(2, 1, 2)):
            with pytest.raises(ValueError, match="rows must be a read-only uint8 array of shape"):
                TupleSystem(2, 2, 2, 2, rows=bad)
        with pytest.raises(ValueError, match="beyond the ground set"):
            TupleSystem(2, 2, 2, 1, rows=rows)
        with pytest.raises(ValueError, match="its families or its rows, not both"):
            TupleSystem(2, 2, 1, 2, ((sb(2, 1),), (sb(2, 2),)), rows=rows[:, :1])
        with pytest.raises(ValueError, match="its sets or its rows, not both"):
            SetFamily(2, (sb(2, 1),), rows=rows[0])
        with pytest.raises(ValueError, match="rows must be a read-only uint8 array of shape \\(S, 1\\)"):
            SetFamily(2, rows=rows)
        for n in (-1, -9):
            with pytest.raises(ValueError, match="ground size must be nonnegative"):
                SetFamily(n, rows=_read_only(np.zeros((0, 0))))
            with pytest.raises(ValueError, match="ground size must be nonnegative"):
                TupleSystem(2, 2, 0, n, rows=_read_only(np.zeros((2, 0, 0))))
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be at least 2"):
                TupleSystem(k, 2, -1, -1, rows=rows)
            with pytest.raises(ValueError, match="k must be at least 2"):
                TupleSystem.diagonal(SetFamily(2, rows=rows[0]), k, 2)


class TestParityScanMemory:
    """The left half of the grid is gathered a block at a time, so a wide
    tuple never holds all m^ceil(k/2) left rows at once."""

    N = 1_118_472  # 139,809 bytes a set; the 120 sets fill the 2^24-byte load limit

    @staticmethod
    def check(system):
        tracemalloc.start()
        try:
            report = verify_bollobas_tuple(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every intersection is {1}: odd, so every cell with a repeated index fails
        assert report.violations[0] == Violation((1, 1, 1), 1, "even intersection")
        assert report.truncated
        assert peak < 64 * 2**20

    def test_wide_tuple_file(self, tmp_path):
        # k = t = 3, m = 40: every set {1} except A_{3,1} = {1, n}
        families = [[[1]] * 40, [[1]] * 40, [[1, self.N]] + [[1]] * 39]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"n": self.N, "k": 3, "t": 3, "m": 40, "families": families}) + "\n")
        assert path.stat().st_size == 669
        self.check(load_tuple(path))

    def test_every_byte_reached(self):
        # as above, but A_{3,1} also holds 9, 17, ..., n - 7, so no byte column is unused
        rows = np.zeros((3, 40, self.N // 8), dtype=np.uint8)
        rows[..., 0] = 1
        rows[2, 0] |= 1
        rows[2, 0, -1] |= 0x80
        self.check(TupleSystem(3, 3, 40, self.N, rows=_read_only(rows)))
