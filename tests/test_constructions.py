import time
import tracemalloc
from itertools import combinations, permutations, product
from math import comb

import numpy as np
import pytest

from oddtown import (
    GpCover,
    KPartiteProduct,
    Mod2Cover,
    PatternPartition,
    SubsetBits,
    TupleSystem,
    admissible_n,
    build_b22_pair,
    build_cover_22,
    build_cover_33,
    build_cover_43,
    build_cover_t2,
    build_kt_oddtown_family,
    build_partition_cover,
    cover_to_tuple,
    falling_factorial,
    reduce_triple_b33,
    reduce_tuple_to_pair,
    set_partitions,
    stirling2,
    trivial_gp_cover,
    tuple_to_cover,
    verify_bollobas_tuple,
    verify_exact_gp_cover,
    verify_kt_oddtown,
    verify_mod2_cover,
)


def brute_force_partition_count(k: int, t: int) -> int:
    """Independent count of partitions of [k] into exactly t blocks."""
    seen = set()
    for labels in product(range(t), repeat=k):
        if len(set(labels)) != t:
            continue
        blocks = frozenset(
            frozenset(i for i in range(k) if labels[i] == b) for b in range(t)
        )
        seen.add(blocks)
    return len(seen)


class TestCombinatoricsToolkit:
    def test_stirling_known_values(self):
        assert stirling2(4, 2) == 7
        for k in range(7):
            assert stirling2(k, k) == 1
        assert stirling2(5, 0) == 0 and stirling2(0, 0) == 1

    def test_stirling_against_enumeration(self):
        for k in range(1, 6):
            for t in range(1, k + 1):
                assert stirling2(k, t) == brute_force_partition_count(k, t)

    def test_stirling_recurrence(self):
        for k in range(2, 8):
            for t in range(1, k):
                assert stirling2(k, t) == t * stirling2(k - 1, t) + stirling2(k - 1, t - 1)

    def test_falling_factorial(self):
        assert falling_factorial(5, 2) == 20
        assert falling_factorial(4, 0) == 1
        assert falling_factorial(3, 5) == 0

    def test_set_partitions_count_is_bell(self):
        bell = [1, 1, 2, 5, 15, 52]
        for k in range(6):
            assert len(list(set_partitions(k))) == bell[k]

    def test_set_partitions_block_bound_prunes_in_order(self):
        for k in range(9):
            full = list(set_partitions(k))
            for bound in range(k + 2):
                assert list(set_partitions(k, bound)) == [
                    p for p in full if p.block_count <= bound
                ], (k, bound)

    def test_pattern_from_index_tuple(self):
        p = PatternPartition.from_index_tuple((2, 1, 2))
        assert p.blocks == ((1, 3), (2,))
        assert p.block_count == 2 and p.k == 3


class TestB22Pair:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_valid_even_sizes(self, n):
        system = build_b22_pair(n)
        assert system.m == n + 1
        assert verify_bollobas_tuple(system).valid

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            build_b22_pair(3)

    def test_structure(self):
        system = build_b22_pair(2)
        a, b = system.families
        assert [s.elements() for s in a] == [(1,), (2,), (1, 2)]
        assert [s.elements() for s in b] == [(2,), (1,), (1, 2)]


class TestAdmissibleN:
    def test_t3_iff_even(self):
        for n in range(2, 65):
            expected = all(comb(n - d, 2 - d) % 2 == 1 for d in (1, 2))
            assert bool(admissible_n(3, n)) == expected == (n % 2 == 0)

    def test_t2_always(self):
        for n in range(1, 30):
            assert admissible_n(2, n).ok

    def test_t4_n8_fails(self):
        adm = admissible_n(4, 8)
        assert not adm.ok
        assert (2, 6, 1) in adm.failures  # C(6,1) = 6 is even

    def test_matches_direct_binomials(self):
        for t in (2, 3, 4, 5):
            for n in range(t, 65):
                direct = all(
                    n - d >= 0 and comb(n - d, t - 1 - d) % 2 == 1 for d in range(1, t)
                )
                assert admissible_n(t, n).ok == direct


class TestKtOddtownFamily:
    def test_pair_ground_family_t3_n4(self):
        fam = build_kt_oddtown_family(3, 4)
        assert fam.ground_size == 6 and len(fam) == 4
        assert all(s.size == 3 for s in fam.sets)
        assert verify_kt_oddtown(fam, 3, 3).valid

    def test_t2_gives_singletons(self):
        fam = build_kt_oddtown_family(2, 5)
        assert all(s.size == 1 for s in fam.sets)
        assert verify_kt_oddtown(fam, 2, 2).valid

    def test_inadmissible_rejected_with_witness(self):
        with pytest.raises(ValueError, match=r"C\(4,1\)"):
            build_kt_oddtown_family(3, 5)

    def test_envelope(self):
        for t, n in ((3, 6), (4, 7), (2, 6)):
            if admissible_n(t, n).ok:
                fam = build_kt_oddtown_family(t, n)
                for k in range(t, 6):
                    assert verify_kt_oddtown(fam, k, t).valid


class TestPartitionCover:
    def test_pair_case_size(self):
        c = build_partition_cover(2, 2, 3)
        assert len(c) == 4
        assert verify_mod2_cover(c).valid

    def test_43_size(self):
        c = build_partition_cover(4, 3, 3)
        assert len(c) == 34
        assert verify_mod2_cover(c).valid

    def test_332_size(self):
        c = build_partition_cover(3, 3, 2)
        assert len(c) == 9
        assert verify_mod2_cover(c).valid

    @staticmethod
    def pattern_cost(p: PatternPartition, n: int) -> int:
        # a pattern with more blocks than values has no cells and no products;
        # the free-singleton recipe needs at least one leftover value
        if p.block_count > n:
            return 0
        if any(len(b) == 1 for b in p.blocks):
            return falling_factorial(n, p.block_count - 1) if p.block_count < n + 1 else 0
        return falling_factorial(n, p.block_count)

    def test_size_formula(self):
        for k in (2, 3, 4):
            for t in range(2, k + 1):
                for n in (1, 2, 3, 4):
                    c = build_partition_cover(k, t, n)
                    expected = 1 + sum(
                        self.pattern_cost(p, n)
                        for p in set_partitions(k)
                        if p.block_count <= t - 1
                    )
                    assert len(c) == expected
                    if n >= t:
                        # on the nondegenerate domain the guard never fires
                        naive = 1 + sum(
                            falling_factorial(
                                n,
                                p.block_count
                                - (1 if any(len(b) == 1 for b in p.blocks) else 0),
                            )
                            for p in set_partitions(k)
                            if p.block_count <= t - 1
                        )
                        assert len(c) == naive

    def test_envelope_validity(self):
        for k in (2, 3, 4):
            for t in range(2, k + 1):
                for n in (1, 2, 3, 4):
                    assert verify_mod2_cover(build_partition_cover(k, t, n)).valid


class TestNamedCovers:
    @pytest.mark.parametrize("k,n", [(4, 3), (2, 2), (3, 1), (5, 4)])
    def test_cover_t2(self, k, n):
        c = build_cover_t2(k, n)
        assert len(c) == n + 1
        assert verify_mod2_cover(c).valid

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_cover_t2_is_the_t2_partition_cover(self, k):
        # the diagonal singletons in ascending order, then the full product
        for n in range(1, 9):
            diagonal = [(SubsetBits.from_elements(n, [i]),) * k for i in range(1, n + 1)]
            want = diagonal + [(SubsetBits.full(n),) * k]
            assert [p.parts for p in build_cover_t2(k, n).products] == want
            assert build_cover_t2(k, n) == build_partition_cover(k, 2, n)

    def test_cover_t2_argument_checks(self):
        with pytest.raises(ValueError, match="k must be at least 2"):
            build_cover_t2(1, 3)
        with pytest.raises(ValueError, match="n must be at least 1"):
            build_cover_t2(3, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cover_33(self, n):
        c = build_cover_33(n)
        assert len(c) == 3 * n + 1
        assert verify_mod2_cover(c).valid

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cover_43(self, n):
        c = build_cover_43(n)
        assert len(c) == 3 * n * n + 2 * n + 1
        assert len(c) <= 3 * n * n + 4 * n + 1
        assert verify_mod2_cover(c).valid

    def test_cover_43_degenerate_ground(self):
        # with one value the two-distinct repairs have no cells: only the
        # doubled diagonal/full product survives, covering everything evenly
        c = build_cover_43(1)
        assert len(c) == 2
        assert verify_mod2_cover(c).valid

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_cover_22(self, n):
        c = build_cover_22(n)
        assert len(c) == (n if n % 2 == 0 else n - 1)
        assert verify_mod2_cover(c).valid


# --- reference: the constructions built one product object at a time ---------------


def single(n, e):
    return SubsetBits.from_elements(n, [e])


def reference_pattern_products(pattern, n):
    singles = [b for b in pattern.blocks if len(b) == 1]
    free_block = singles[0] if singles else None
    pinned = [b for b in pattern.blocks if b is not free_block]
    for values in permutations(range(1, n + 1), len(pinned)):
        by_coord = {c: single(n, v) for block, v in zip(pinned, values) for c in block}
        if free_block is not None:
            rest = SubsetBits(n, SubsetBits.full(n).bits ^ sum(1 << (v - 1) for v in values))
            if rest.bits == 0:
                continue
            by_coord[free_block[0]] = rest
        yield KPartiteProduct(tuple(by_coord[c] for c in range(1, pattern.k + 1)))


def reference_partition_products(k, t, n):
    products = [p for pattern in set_partitions(k, t - 1)
                for p in reference_pattern_products(pattern, n)]
    return products + [KPartiteProduct((SubsetBits.full(n),) * k)]


def reference_cover_33(n):
    full = SubsetBits.full(n)
    products = []
    for i in range(1, n + 1):
        s = single(n, i)
        products += [KPartiteProduct(p) for p in ((s, s, full), (s, full, s), (full, s, s))]
    return Mod2Cover(3, 3, n, products + [KPartiteProduct((full,) * 3)])


def reference_cover_43(n):
    repairs = [p for pattern in set_partitions(4, 2) if pattern.block_count == 2
               for p in reference_pattern_products(pattern, n)]
    return Mod2Cover(4, 3, n, reference_partition_products(4, 2, n) + repairs)


def reference_cover_22(n):
    # even n: ({i}, [n] - {i}); odd n, through the (n-1) singleton/complement
    # pair: ({i, n}, [n] - {i}) for i < n
    full = SubsetBits.full(n).bits
    rows = range(1, n + 1) if n % 2 == 0 else range(1, n)
    extra = 0 if n % 2 == 0 else 1 << (n - 1)
    return Mod2Cover(2, 2, n, [KPartiteProduct((SubsetBits(n, (1 << (i - 1)) | extra),
                                                SubsetBits(n, full ^ 1 << (i - 1))))
                               for i in rows])


def reference_trivial_gp_cover(n, k):
    subsets = combinations(range(1, n + 1), k)
    return GpCover(k, n, [KPartiteProduct(tuple(single(n, e) for e in s)) for s in subsets])


class TestPackedConstructions:
    """The constructions index one singleton table; their parts must be the
    bytes of the product-by-product builders above."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_partition_cover_matches_reference(self, k):
        for t in range(2, k + 1):
            for n in range(1, 6 if k == 6 else 8):
                want = Mod2Cover(k, t, n, reference_partition_products(k, t, n))
                got = build_partition_cover(k, t, n)
                assert got == want and not got.parts.flags.writeable, (k, t, n)

    def test_named_covers_match_reference(self):
        for n in range(1, 21):
            assert build_cover_33(n) == reference_cover_33(n), n
            assert build_cover_43(n) == reference_cover_43(n), n
            assert build_cover_22(n) == reference_cover_22(n), n
            if n % 2 and n > 1:  # the odd case is the correspondent of the even pair
                assert build_cover_22(n) == tuple_to_cover(build_b22_pair(n - 1)), n

    def test_trivial_gp_cover_matches_reference(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert trivial_gp_cover(n, k) == reference_trivial_gp_cover(n, k), (n, k)

    def test_products_view_is_not_stored(self):
        c = build_cover_43(3)
        assert "products" not in vars(c)
        assert isinstance(c.parts, np.ndarray) and len(c.products) == len(c)

    def test_large_partition_cover_stays_packed(self):
        # 92,944 products of 6 parts: 1.1 MB packed; one object per part took
        # over 100 MB and seconds to build
        tracemalloc.start()
        try:
            start = time.perf_counter()
            c = build_partition_cover(6, 6, 9)
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(c) == 92944 and c.parts.shape == (92944, 6, 2)
        assert peak < 16 * 2**20, peak
        assert seconds < 5, seconds


class TestTrivialGpCover:
    def test_basic(self):
        c = trivial_gp_cover(3, 2)
        assert len(c) == 3 and verify_exact_gp_cover(c).valid

    def test_single_product(self):
        assert len(trivial_gp_cover(4, 4)) == 1

    def test_nonoptimal_pair_cover(self):
        # exact enumeration cover of the pairs of [5]; the optimum is 4
        c = trivial_gp_cover(5, 2)
        assert len(c) == 10 and verify_exact_gp_cover(c).valid

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            trivial_gp_cover(3, 4)


class TestReduceTupleToPair:
    def test_43_single_pair(self):
        system = cover_to_tuple(build_cover_43(2))
        assert system.m == 2
        pair = reduce_tuple_to_pair(system)
        assert pair.m == comb(2, 2) == 1
        assert verify_bollobas_tuple(pair).valid

    def test_43_three_pairs_and_bound_chain(self):
        system = cover_to_tuple(build_cover_43(3))
        assert system.m == 3
        pair = reduce_tuple_to_pair(system)
        assert pair.m == comb(3, 2) == 3
        assert verify_bollobas_tuple(pair).valid
        assert comb(system.m, system.t - 1) <= pair.ground_size + 1

    def test_invalid_input_rejected(self):
        one = SubsetBits.from_elements(1, [1])
        bad = TupleSystem(4, 3, 1, 1, ((one,),) * 4)
        with pytest.raises(ValueError):
            reduce_tuple_to_pair(bad)

    def test_extra_families_absorbed(self):
        # k = 5, t = 3 has 2t-2 = 4 < 5: the fifth family rides along
        system = cover_to_tuple(build_partition_cover(5, 3, 3))
        pair = reduce_tuple_to_pair(system)
        assert pair.m == comb(system.m, 2)
        assert verify_bollobas_tuple(pair).valid

    def test_second_branch_54(self):
        # (k,t) = (5,4) has 2t-2 = 6 > 5: alpha = 2t-k-2 = 1 pinned family
        system = cover_to_tuple(build_partition_cover(5, 4, 4))
        assert system.m == 4
        pair = reduce_tuple_to_pair(system)
        assert pair.m == comb(4 - 1, 2)  # C(m - alpha, k - t + 1)
        assert verify_bollobas_tuple(pair).valid

    def test_second_branch_m_too_small(self):
        system = cover_to_tuple(build_partition_cover(5, 4, 1))
        assert system.m == 1  # equals alpha
        with pytest.raises(ValueError):
            reduce_tuple_to_pair(system)


class TestReduceTripleB33:
    def test_from_cover33(self):
        system = cover_to_tuple(build_cover_33(3))
        assert system.m == 3
        pair = reduce_triple_b33(system)
        assert pair.m == 2
        assert verify_bollobas_tuple(pair).valid

    def test_minimal_m(self):
        system = cover_to_tuple(build_cover_33(2))
        pair = reduce_triple_b33(system)
        assert pair.m == 1
        assert verify_bollobas_tuple(pair).valid

    def test_invalid_rejected(self):
        one = SubsetBits.from_elements(1, [1])
        bad = TupleSystem(3, 3, 2, 1, ((one, one),) * 3)
        with pytest.raises(ValueError):
            reduce_triple_b33(bad)

    def test_any_anchor_works(self):
        system = cover_to_tuple(build_cover_33(4))
        for anchor in range(1, system.m + 1):
            pair = reduce_triple_b33(system, anchor=anchor)
            assert verify_bollobas_tuple(pair).valid
            assert pair.m == system.m - 1
