"""Acceptance suite: one test per criterion, each printing a pass line and
holding to its stated runtime limit.  Expected values are either structural
(identities, sizes) or confirmed by the independent routes exercised in the
unit suites (elimination vs closed form, brute force vs solver).
"""

import random
import time
from itertools import combinations
from math import comb


from oddtown import (
    SetFamily,
    build_b22_pair,
    build_cover_22,
    build_cover_33,
    build_cover_43,
    build_cover_t2,
    build_inclusion_matrix,
    build_kt_oddtown_family,
    build_partition_cover,
    build_search_instance,
    cover_size_lower_bound,
    cover_to_ok_biclique_cover,
    cover_to_tuple,
    exact_b,
    is_linearly_independent,
    kneser_adjacency,
    link_cover,
    min_mod2_cover,
    oddtown_certificate,
    permute_gp_cover,
    rank_gf2,
    rank_gfp,
    reduce_33_oddtown,
    reduce_triple_b33,
    reduce_tuple_to_pair,
    trivial_gp_cover,
    tuple_to_cover,
    verify_bollobas_tuple,
    verify_exact_gp_cover,
    verify_mod2_cover,
    verify_ok_biclique_cover,
    verify_oddtown,
    verify_skew_oddtown,
    wilson_rank,
)
from oddtown.covers import parity_functions_equal
from oddtown.search import (
    ERRATUM_22,
    _slice_level,
    bounds_table,
    machine_rows,
)
from conftest import fixture_covers, greedy_oddtown_family


class Stopwatch:
    def __init__(self, limit_s: float):
        self.limit = limit_s
        self.start = time.monotonic()

    def check(self) -> float:
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"took {elapsed:.1f}s, limit {self.limit}s"
        return elapsed


def report(num: int, name: str, watch: Stopwatch) -> None:
    elapsed = watch.check()
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({elapsed:.2f}s)", flush=True)


def test_01_oddtown_bound():
    watch = Stopwatch(5.0)
    rng = random.Random(20240 + 1)
    for trial in range(200):
        n = rng.randrange(2, 17)
        fam = greedy_oddtown_family(rng, n)
        assert verify_oddtown(fam).valid
        assert len(fam) <= n
        assert is_linearly_independent(list(fam.sets))
        assert oddtown_certificate(fam).independent
    report(1, "oddtown-bound", watch)


def test_02_skew_oddtown():
    watch = Stopwatch(30.0)
    for n in range(1, 9):
        fam = SetFamily.from_lists(n, [[i] for i in range(1, n + 1)])
        assert verify_skew_oddtown(fam, fam).valid
        assert len(fam) <= n

    # valid instances generated from oddtown families never exceed m <= n
    rng = random.Random(20240 + 2)
    for _ in range(40):
        n = rng.randrange(2, 12)
        fam = greedy_oddtown_family(rng, n)
        if len(fam) and verify_skew_oddtown(fam, fam).valid:
            assert len(fam) <= n

    # every single-parity mutation of the diagonal instance is caught
    n = 5
    base = [[i] for i in range(1, n + 1)]
    for i in range(1, n + 1):
        mutated = [list(s) for s in base]
        mutated[i - 1] = []  # diagonal parity at (i, i) flips to even
        report_ = verify_skew_oddtown(SetFamily.from_lists(n, mutated),
                                      SetFamily.from_lists(n, base))
        assert not report_.valid
        assert (i, i) in [v.indices for v in report_.violations]
    for i, j in combinations(range(1, n + 1), 2):
        mutated = [list(s) for s in base]
        mutated[i - 1].append(j)  # off-diagonal parity at (i, j) flips to odd
        report_ = verify_skew_oddtown(SetFamily.from_lists(n, mutated),
                                      SetFamily.from_lists(n, base))
        assert not report_.valid
        assert (i, j) in [v.indices for v in report_.violations]
    report(2, "skew-oddtown", watch)


def collect_pair_tuples():
    """The suite's pool of (2,2)-tuple systems for the pair-size bound."""
    pool = []
    for n in (2, 4, 6, 8, 10, 12):
        pool.append(build_b22_pair(n))
    for n in (2, 3):
        pool.append(cover_to_tuple(build_cover_22(n + 1)))
        pool.append(reduce_triple_b33(cover_to_tuple(build_cover_33(n))))
    pool.append(reduce_tuple_to_pair(cover_to_tuple(build_cover_43(3))))
    return pool


def test_03_b22_values():
    watch = Stopwatch(120.0)
    for n in (2, 4, 6, 8, 10, 12):
        system = build_b22_pair(n)
        assert verify_bollobas_tuple(system).valid
        assert system.m == n + 1  # witnesses b(n) >= n+1

    for system in collect_pair_tuples():
        if verify_bollobas_tuple(system).valid:
            assert system.m <= system.ground_size + 1  # pair-size bound at p=2

    t0 = time.monotonic()
    # pure search refutation of n = 4 at m = 3: levels 1..3 are empty, while
    # level 2 at n = 3 holds a cover
    inst4 = build_search_instance(2, 2, 4)
    assert [_slice_level(inst4, w) for w in (1, 2, 3)] == [None] * 3
    inst3 = build_search_instance(2, 2, 3)
    assert _slice_level(inst3, 1) is None and _slice_level(inst3, 2) is not None
    res3 = exact_b(2, 2, 3)
    assert res3.value == 3
    assert time.monotonic() - t0 < 60.0

    t0 = time.monotonic()
    res4 = exact_b(2, 2, 4)
    assert res4.value == 5
    assert time.monotonic() - t0 < 60.0
    report(3, "b22-values", watch)


def test_04_f22_exact_search():
    watch = Stopwatch(300.0)
    for n, want in ((2, 2), (3, 2), (4, 4)):
        assert min_mod2_cover(2, 2, n).value == want
        # the search alone: every smaller weight is an exhausted level, and
        # the first nonempty level yields a verified cover
        inst = build_search_instance(2, 2, n)
        levels = [_slice_level(inst, w) for w in range(1, want + 1)]
        assert levels[:-1] == [None] * (want - 1) and len(levels[-1]) == want
        assert verify_mod2_cover(levels[-1]).valid

    # Galois connection on the computed grid
    f = {}
    for n in range(1, 7):
        out = min_mod2_cover(2, 2, n)
        assert out.exact
        f[n] = out.value
    assert [f[n] for n in range(2, 7)] == [2, 2, 4, 4, 6]
    b = {m: exact_b(2, 2, m).value for m in range(0, 5)}
    for m, bm in b.items():
        for n, fn in f.items():
            assert (fn <= m) == (bm >= n)

    # the table generator reports the case-split discrepancy
    rows, notes = bounds_table(2, 2, range(2, 7))
    assert ERRATUM_22 in notes
    assert any(line.startswith("#") and "case split" in line
               for line in machine_rows(rows, notes).splitlines())
    report(4, "f22-exact-search", watch)


def test_05_correspondence_round_trip():
    watch = Stopwatch(60.0)
    pool = [c for c in fixture_covers() if 2 <= c.k <= 4 and 2 <= c.n <= 4]
    assert len(pool) >= 10
    seen = {(c.k, c.t, c.n) for c in pool}
    assert len(seen) >= 10
    for cover in pool:
        assert verify_mod2_cover(cover).valid
        system = cover_to_tuple(cover)
        assert verify_bollobas_tuple(system).valid
        back = tuple_to_cover(system)
        assert parity_functions_equal(cover, back)
    report(5, "correspondence-round-trip", watch)


def test_06_construction_validity():
    watch = Stopwatch(30.0 * 12)
    for n in range(1, 6):
        t0 = time.monotonic()
        c = build_cover_33(n)
        assert len(c) == 3 * n + 1 and verify_mod2_cover(c).valid
        assert time.monotonic() - t0 < 30.0
    for k in range(2, 6):
        for n in range(1, 6):
            t0 = time.monotonic()
            c = build_cover_t2(k, n)
            assert len(c) == n + 1 and verify_mod2_cover(c).valid
            assert time.monotonic() - t0 < 30.0
    for n in range(2, 5):
        t0 = time.monotonic()
        c = build_cover_43(n)
        assert len(c) == 3 * n * n + 2 * n + 1 <= 3 * n * n + 4 * n + 1
        assert verify_mod2_cover(c).valid
        assert time.monotonic() - t0 < 30.0
    assert verify_mod2_cover(build_cover_43(1)).valid  # degenerate ground
    for k in range(2, 6):
        for t in range(2, k + 1):
            for n in range(1, 5):
                t0 = time.monotonic()
                assert verify_mod2_cover(build_partition_cover(k, t, n)).valid
                assert time.monotonic() - t0 < 30.0
    report(6, "construction-validity", watch)


def test_07_gp_and_kneser_pipeline():
    watch = Stopwatch(60.0)
    gp = trivial_gp_cover(5, 4)
    assert verify_exact_gp_cover(gp).valid
    cover = permute_gp_cover(gp)
    assert len(cover) == 24 * 5 == 120
    assert verify_mod2_cover(cover).valid
    ok = cover_to_ok_biclique_cover(cover)
    assert verify_ok_biclique_cover(ok).valid
    assert cover_size_lower_bound(5, 2) == 3
    assert len(cover) >= 3

    h33 = permute_gp_cover(trivial_gp_cover(3, 3))
    linked = link_cover(h33)
    assert (linked.k, linked.t, linked.n) == (2, 2, 2)
    assert verify_mod2_cover(linked).valid
    report(7, "gp-kneser-pipeline", watch)


def test_08_wilson_rank_oracle():
    watch = Stopwatch(600.0)
    assert wilson_rank(3, 1, 2, 2) == 2
    assert rank_gf2(build_inclusion_matrix(3, 1, 2).matrix) == 2
    assert wilson_rank(5, 2, 3, 2) == 6
    assert rank_gf2(build_inclusion_matrix(5, 2, 3).matrix) == 6
    assert rank_gf2(kneser_adjacency(28, 2)) == 378 == comb(28, 2)

    cases = 0
    for n in range(1, 13):
        for k in range(0, n // 2 + 1):
            for l in range(k, n - k + 1):
                inc = build_inclusion_matrix(n, k, l)
                for p in (2, 3, 5):
                    direct = rank_gf2(inc.matrix) if p == 2 else rank_gfp(inc.to_gfp(p))
                    assert wilson_rank(n, k, l, p) == direct, (n, k, l, p)
                    cases += 1
    assert cases >= 300
    report(8, "wilson-rank-oracle", watch)


def test_09_reductions():
    watch = Stopwatch(120.0)
    fam = build_kt_oddtown_family(3, 4)
    assert verify_oddtown(reduce_33_oddtown(fam)).valid

    triples = [cover_to_tuple(build_cover_33(n)) for n in (2, 3, 4)]
    for system in triples:
        assert verify_bollobas_tuple(system).valid
        pair = reduce_triple_b33(system)
        assert verify_bollobas_tuple(pair).valid
        assert pair.m == system.m - 1

    reducibles = [
        cover_to_tuple(build_cover_43(2)),
        cover_to_tuple(build_cover_43(3)),
        cover_to_tuple(build_partition_cover(4, 3, 4)),
        cover_to_tuple(build_partition_cover(5, 3, 3)),
        cover_to_tuple(build_partition_cover(5, 4, 4)),
        cover_to_tuple(build_cover_33(3)),
    ]
    for system in reducibles:
        assert verify_bollobas_tuple(system).valid
        pair = reduce_tuple_to_pair(system)
        assert verify_bollobas_tuple(pair).valid
        if 2 * system.t - 2 <= system.k:
            assert pair.m == comb(system.m, system.t - 1)
            # the pair-size bound turns into the tuple-size bound
            assert comb(system.m, system.t - 1) <= pair.ground_size + 1
    report(9, "reductions", watch)


def test_10_bounds_hold_everywhere():
    watch = Stopwatch(600.0)
    grid = [(2, 2, range(2, 7))]
    for k in (3, 4, 5):
        for t in range(2, k + 1):
            grid.append((k, t, range(2, 5)))
    total_rows = 0
    for k, t, n_range in grid:
        # bounds_table raises on any violation of the bound formulas
        rows, _ = bounds_table(k, t, n_range, budget=3)
        for r in rows:
            assert r.lower <= r.upper
            assert r.constructive <= r.upper
            if r.exact is not None:
                assert r.lower <= r.exact <= min(r.upper, r.constructive)
        total_rows += len(rows)
    assert total_rows == 5 + 9 * 3
    report(10, "bounds-hold-everywhere", watch)
