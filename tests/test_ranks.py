from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddtown import (
    OrderedKneserView,
    binomial_mod_p,
    build_inclusion_matrix,
    cover_size_lower_bound,
    kneser_adjacency,
    kneser_rank_lower_bound,
    rank_gf2,
    rank_gfp,
    wilson_rank,
)
from oddtown.ranks import MAX_DIRECT_ENTRIES, mstar_observed_rank, subsets_colex


# Naive references: every pair of subsets tested on its own.

def colex_reference(n, k):
    return sorted(sum(1 << e for e in c) for c in combinations(range(n), k))


def inclusion_reference(n, k, l):
    cols = colex_reference(n, l)
    return tuple(sum(1 << j for j, b in enumerate(cols) if a & b == a)
                 for a in colex_reference(n, k))


def disjointness_reference(sets):
    return tuple(sum(1 << j for j, b in enumerate(sets) if a & b == 0) for a in sets)


class TestBinomialModP:
    def test_examples(self):
        assert binomial_mod_p(4, 2, 2) == 0
        assert binomial_mod_p(10, 2, 2) == 1  # 45 is odd
        assert binomial_mod_p(5, 2, 3) == 1  # 10 mod 3

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            binomial_mod_p(5, 2, 4)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_exact_binomials(self, p):
        for n in range(65):
            for k in range(n + 1):
                assert binomial_mod_p(n, k, p) == comb(n, k) % p

    def test_k_above_n(self):
        assert binomial_mod_p(3, 5, 2) == 0


class TestInclusionMatrix:
    def test_3_1_2(self):
        inc = build_inclusion_matrix(3, 1, 2)
        assert (inc.matrix.rows, inc.matrix.cols) == (3, 3)
        for j in range(3):
            col = sum(inc.matrix.entry(i, j) for i in range(3))
            assert col == 2  # each 2-set contains two singletons

    def test_5_2_3_row_sums(self):
        inc = build_inclusion_matrix(5, 2, 3)
        assert (inc.matrix.rows, inc.matrix.cols) == (10, 10)
        for i in range(10):
            assert sum(inc.matrix.entry(i, j) for j in range(10)) == 3  # n - 2

    def test_empty_row_index(self):
        inc = build_inclusion_matrix(4, 0, 2)
        assert inc.matrix.rows == 1
        assert all(inc.matrix.entry(0, j) == 1 for j in range(6))

    def test_k_above_l_all_zero(self):
        inc = build_inclusion_matrix(4, 3, 1)
        assert all(r == 0 for r in inc.matrix.data)

    def test_colex_order(self):
        assert subsets_colex(4, 2) == sorted(subsets_colex(4, 2))
        assert subsets_colex(3, 2) == [0b011, 0b101, 0b110]


class TestBuildersMatchPairLoops:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 9).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(0, n))))
    @example((0, 0, 0))
    @example((6, 0, 2))  # k = 0: the all-ones row
    @example((7, 4, 2))  # k > l: all zero
    @example((8, 3, 8))  # l = n: one all-ones column
    @example((9, 4, 5))
    def test_inclusion(self, nkl):
        n, k, l = nkl
        inc = build_inclusion_matrix(n, k, l)
        assert (inc.matrix.rows, inc.matrix.cols) == (comb(n, k), comb(n, l))
        assert inc.matrix.data == inclusion_reference(n, k, l)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 9).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n + 1))))
    @example((0, 0))
    @example((5, 0))
    @example((3, 4))  # k > n: the empty graph
    @example((9, 4))
    def test_kneser(self, nk):
        n, k = nk
        assert kneser_adjacency(n, k).data == disjointness_reference(colex_reference(n, k))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, min(n, 3)))))
    @example((6, 3))
    @example((4, 0))
    def test_ordered_view(self, nk):
        n, k = nk
        view = OrderedKneserView(n, k)
        sets = [sum(1 << (e - 1) for e in v) for v in view.vertices]
        assert view.adjacency().data == disjointness_reference(sets)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n + 2))))
    @example((0, 0))
    @example((0, 1))  # k > n
    @example((12, 6))
    def test_subsets_colex(self, nk):
        n, k = nk
        assert subsets_colex(n, k) == colex_reference(n, k)


class TestWilsonRank:
    def test_triangle(self):
        assert wilson_rank(3, 1, 2, 2) == 2
        assert rank_gf2(kneser_adjacency(3, 1)) == 2

    def test_petersen(self):
        assert wilson_rank(5, 2, 3, 2) == 6
        assert rank_gf2(build_inclusion_matrix(5, 2, 3).matrix) == 6

    def test_zero_row_case(self):
        for n, l, p in ((4, 2, 2), (5, 3, 3), (6, 2, 5)):
            assert wilson_rank(n, 0, l, p) == 1

    def test_petersen_mod3(self):
        inc = build_inclusion_matrix(5, 2, 3)
        direct = rank_gfp(inc.to_gfp(3))
        assert wilson_rank(5, 2, 3, 3) == direct == 9

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            wilson_rank(4, 3, 3, 2)  # k > n - l
        with pytest.raises(ValueError):
            wilson_rank(5, 2, 3, 6)  # composite modulus

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_oracle_small_grid(self, p):
        for n in range(2, 9):
            for k in range(0, n // 2 + 1):
                for l in range(k, n - k + 1):
                    inc = build_inclusion_matrix(n, k, l)
                    direct = rank_gf2(inc.matrix) if p == 2 else rank_gfp(inc.to_gfp(p))
                    assert wilson_rank(n, k, l, p) == direct, (n, k, l, p)


class TestKneserRankLowerBound:
    def test_28_2(self):
        assert kneser_rank_lower_bound(28, 2) == comb(28, 2) == 378
        assert wilson_rank(28, 2, 26, 2) == 378

    def test_32_4(self):
        assert kneser_rank_lower_bound(32, 4) == comb(32, 4) - 1 == 35959
        assert wilson_rank(32, 4, 28, 2) >= 35959

    def test_congruence_enforced(self):
        with pytest.raises(ValueError):
            kneser_rank_lower_bound(30, 2)

    def test_direct_elimination_28_2(self):
        # the actual 378x378 disjointness matrix has full rank over F_2
        assert rank_gf2(kneser_adjacency(28, 2)) == 378

    def test_direct_elimination_30_3(self):
        # 4060 x 4060, above PACKED_MIN_ENTRIES: the packed-word kernel
        assert rank_gf2(kneser_adjacency(30, 3)) == kneser_rank_lower_bound(30, 3) == 4060


class TestKneserViews:
    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (5, 2)])
    def test_adjacency_symmetric_zero_diagonal(self, n, k):
        adj = kneser_adjacency(n, k)
        assert adj.data == adj.transpose().data
        for i in range(adj.rows):
            assert adj.entry(i, i) == 0

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2)])
    def test_matches_ordered_projection(self, n, k):
        view = OrderedKneserView(n, k)
        verts = view.vertices
        assert len(verts) == comb(n, k) * [1, 1, 2, 6][k]
        unordered = subsets_colex(n, k)
        pos = {mask: i for i, mask in enumerate(unordered)}
        adj = kneser_adjacency(n, k)
        ordered_adj = view.adjacency()
        for a, u in enumerate(verts):
            for bidx, v in enumerate(verts):
                mu = sum(1 << (e - 1) for e in u)
                mv = sum(1 << (e - 1) for e in v)
                assert ordered_adj.entry(a, bidx) == adj.entry(pos[mu], pos[mv])

    def test_kneser_adjacency_rank(self):
        assert rank_gf2(kneser_adjacency(5, 2)) == 6


class TestCoverSizeLowerBound:
    def test_examples(self):
        assert cover_size_lower_bound(5, 2) == 3
        assert cover_size_lower_bound(3, 1) == 1
        assert cover_size_lower_bound(2, 1) == 1

    def test_domain(self):
        with pytest.raises(ValueError):
            cover_size_lower_bound(3, 2)

    def test_fixture_covers_respect_bound(self, cover_pool):
        for c in cover_pool:
            if c.k == 4 and c.t == 4 and c.n >= 4:
                assert len(c) >= cover_size_lower_bound(c.n, 2)


class TestMstarProbe:
    def test_deterministic_and_plain_at_two(self):
        r1 = mstar_observed_rank(5, 2, 3, seed=42)
        r2 = mstar_observed_rank(5, 2, 3, seed=42)
        assert r1 == r2
        # at p = 2 the only nonzero entry is 1: the classical pattern rank
        assert mstar_observed_rank(5, 2, 2, seed=0) == rank_gf2(
            build_inclusion_matrix(5, 2, 3).matrix
        )

    def test_oversized_refused(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("the size check must come before the build")

        monkeypatch.setattr("oddtown.ranks.build_inclusion_matrix", no_build)
        with pytest.raises(ValueError) as info:
            mstar_observed_rank(13, 5, 3, seed=0)
        assert str(info.value) == ("mstar matrix of 1287x1287 = 1656369 entries"
                                   f" exceeds the limit of {MAX_DIRECT_ENTRIES}")
