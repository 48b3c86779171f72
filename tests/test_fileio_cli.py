import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddtown import build_b22_pair, build_cover_33, fileio, trivial_gp_cover
from oddtown.cli import main
from oddtown.covers import GpCover, KPartiteProduct, Mod2Cover
from oddtown.gf2 import InternalCheckError
from oddtown.fileio import (
    FileFormatError,
    load_cover,
    load_family,
    load_gp_cover,
    load_tuple,
    save_cover,
    save_family,
    save_gp_cover,
    save_tuple,
)
from oddtown.setsystems import SetFamily, SubsetBits, TupleSystem

SRC = Path(__file__).resolve().parents[1] / "src"


class TestRoundTrips:
    def test_family(self, tmp_path):
        fam = SetFamily.from_lists(5, [[1, 3], [2], [4, 5]])
        path = tmp_path / "fam.json"
        save_family(fam, path)
        first = path.read_bytes()
        save_family(load_family(path), path)
        assert path.read_bytes() == first
        assert first.endswith(b"\n")

    def test_tuple(self, tmp_path):
        path = tmp_path / "pair.json"
        save_tuple(build_b22_pair(4), path)
        first = path.read_bytes()
        save_tuple(load_tuple(path), path)
        assert path.read_bytes() == first

    def test_cover(self, tmp_path):
        path = tmp_path / "cover.json"
        save_cover(build_cover_33(2), path)
        first = path.read_bytes()
        save_cover(load_cover(path), path)
        assert path.read_bytes() == first

    def test_gp_cover(self, tmp_path):
        path = tmp_path / "gp.json"
        save_gp_cover(trivial_gp_cover(4, 2), path)
        first = path.read_bytes()
        save_gp_cover(load_gp_cover(path), path)
        assert path.read_bytes() == first


class TestLoadValidation:
    def test_elements_must_increase(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "sets": [[2, 1]]}')
        with pytest.raises(FileFormatError, match=r"sets\[0\]\[1\]"):
            load_family(path)

    def test_element_out_of_range(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "sets": [[4]]}')
        with pytest.raises(FileFormatError, match="outside"):
            load_family(path)

    @pytest.mark.parametrize("sets, message", [
        ('[[1, "2"]]', "sets[0][1]: expected an integer"),
        ("[[2], [1, 2.0]]", "sets[1][1]: expected an integer"),
        ("[[1], [2], [true]]", "sets[2][0]: expected an integer"),
        ("[[1], [0, 2]]", "sets[1][0]: element 0 outside [1, 3]"),
        ("[[1, 4]]", "sets[0][1]: element 4 outside [1, 3]"),
        ("[[1, 3, 3]]", "sets[0][2]: elements must be strictly increasing"),
        ("[[3, 2, 9]]", "sets[0][1]: elements must be strictly increasing"),
    ])
    def test_element_errors_pinned(self, tmp_path, sets, message):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"n": 3, "sets": {sets}}}')
        with pytest.raises(FileFormatError) as info:
            load_family(path)
        assert str(info.value) == message

    def test_product_element_error_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "k": 2, "t": 2, "products": [[[1], [2]], [[1], [2, 2]]]}')
        with pytest.raises(FileFormatError) as info:
            load_cover(path)
        assert str(info.value) == "products[1][1][1]: elements must be strictly increasing"

    def test_json_error_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3,\n  "sets": [[1]')
        with pytest.raises(FileFormatError, match="line 2"):
            load_family(path)

    def test_gp_disjointness_enforced(self, tmp_path):
        path = tmp_path / "gp.json"
        path.write_text(json.dumps({"n": 3, "k": 2, "products": [[[1, 2], [2, 3]]]}) + "\n")
        with pytest.raises(FileFormatError, match="overlap"):
            load_gp_cover(path)


class TestCli:
    def test_construct_verify_b22pair(self, tmp_path, capsys):
        out = tmp_path / "pair.json"
        assert main(["construct", "--name", "b22pair", "--n", "4", "--out", str(out)]) == 0
        assert main(["verify", "--kind", "tuple", "--file", str(out)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "valid m=5 n=4"

    def test_construct_cover_t2_k10_is_fast(self, tmp_path, capsys):
        # the partition walk stops at one block: Bell(10) = 115,975 partitions
        # walked and filtered took most of a second
        out = tmp_path / "c.json"
        start = time.monotonic()
        assert main(["construct", "--name", "cover-t2", "--k", "10", "--n", "2", "--out", str(out)]) == 0
        assert time.monotonic() - start < 0.25
        assert "size=3" in capsys.readouterr().out

    def test_construct_verify_cover33(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["construct", "--name", "cover33", "--n", "2", "--out", str(out)]) == 0
        assert "size=7" in capsys.readouterr().out
        assert main(["verify", "--kind", "cover", "--file", str(out)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_verify_detects_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"n": 3, "k": 2, "t": 2, "products": [[[1, 2, 3], [1, 2, 3]]]}) + "\n"
        )
        assert main(["verify", "--kind", "cover", "--file", str(path)]) == 1
        assert "invalid" in capsys.readouterr().out

    def test_malformed_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["verify", "--kind", "cover", "--file", str(path)]) == 2
        assert "malformed" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["verify", "--kind", "cover", "--file", str(tmp_path / "nope.json")]) == 2

    def test_oversized_cover_grid_refused(self, tmp_path, capsys):
        # 100^6 cells: refused before any per-cell work or allocation
        path = tmp_path / "big.json"
        path.write_text('{"n": 100, "k": 6, "t": 2, "products": []}\n')
        assert main(["verify", "--kind", "cover", "--file", str(path)]) == 2
        out = capsys.readouterr().out
        assert out == "error: 100^6 index tuples exceed the scan limit of 100000000\n"

    def test_cover_grid_power_refused_quickly(self, tmp_path):
        # 3^(10^9) cells: the guard stops multiplying once past the limit
        path = tmp_path / "big.json"
        path.write_text('{"n": 3, "k": 1000000000, "t": 3, "products": []}\n')
        proc = self._run_within(["verify", "--kind", "cover", "--file", str(path)], 2)
        assert proc.returncode == 2
        assert proc.stdout == "error: 3^1000000000 index tuples exceed the scan limit of 100000000\n"

    def test_oversized_tuple_grid_refused(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 1, "k": 6, "t": 2, "m": 100,
                                    "families": [[[] for _ in range(100)] for _ in range(6)]}))
        assert main(["verify", "--kind", "tuple", "--file", str(path)]) == 2
        out = capsys.readouterr().out
        assert out == "error: 100^6 index tuples exceed the scan limit of 100000000\n"

    def test_oversized_kt_family_refused(self, tmp_path):
        # 200 singletons: every subset is valid, so no violation cap would stop an
        # unguarded walk; a subprocess with a timeout keeps that from hanging the suite
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"n": 200, "sets": [[i] for i in range(1, 201)]}))
        argv = ["verify", "--kind", "family-kt", "--k", "5", "--t", "2", "--file", str(path)]
        proc = subprocess.run([sys.executable, "-m", "oddtown.cli", *argv], capture_output=True,
                              text=True, timeout=30, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 2
        assert proc.stdout == ("error: 2601668490 subsets of at most 5 of the 200 sets"
                               " exceed the scan limit of 100000000\n")

    def test_four_thousand_singletons(self, tmp_path, capsys):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"n": 4000, "sets": [[i] for i in range(1, 4001)]}))
        assert main(["verify", "--kind", "family-oddtown", "--file", str(path)]) == 0
        assert capsys.readouterr().out == "valid m=4000 n=4000\n"

    def test_oversized_oddtown_family_refused(self, tmp_path, capsys):
        # 10,001 singletons: 10001^2 cells, refused before any pair is counted
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"n": 10_001, "sets": [[i] for i in range(1, 10_002)]}))
        assert main(["verify", "--kind", "family-oddtown", "--file", str(path)]) == 2
        out = capsys.readouterr().out
        assert out == "error: 10001^2 index tuples exceed the scan limit of 100000000\n"

    def test_oversized_gp_cover_refused(self, tmp_path, capsys):
        path = tmp_path / "gp.json"
        path.write_text(json.dumps({"n": 40, "k": 8, "products": [
            [[i] for i in range(1, 9)], [[i] for i in range(9, 17)]]}))
        assert main(["verify", "--kind", "gp-cover", "--file", str(path)]) == 2
        out = capsys.readouterr().out
        assert out == "error: 76904685 subsets x 2 products exceed the scan limit of 100000000\n"

    def test_empty_gp_cover_walk_refused(self, tmp_path):
        # no products, but the walk would still visit C(10^12, 2) subsets
        path = tmp_path / "gp.json"
        path.write_text(json.dumps({"n": 10**12, "k": 2, "products": []}))
        proc = self._run_within(["verify", "--kind", "gp-cover", "--file", str(path)], 2)
        assert proc.returncode == 2
        assert proc.stdout == ("error: 499999999999500000000000 subsets x 0 products"
                               " exceed the scan limit of 100000000\n")

    def test_rank_verdict(self, capsys):
        assert main(["rank", "--n", "5", "--k", "2", "--l", "3", "--p", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "formula=6 direct=6 agree=yes"

    def test_rank_mstar_seeded(self, capsys):
        assert main(["rank", "--n", "5", "--k", "2", "--p", "3", "--mstar", "--seed", "7"]) == 0
        first = capsys.readouterr().out.strip().splitlines()[-1]
        assert main(["rank", "--n", "5", "--k", "2", "--p", "3", "--mstar", "--seed", "7"]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == first

    def test_rank_over_limit_builds_nothing(self, monkeypatch, capsys):
        # 816 x 48,620 entries: elimination is skipped, so the matrix is never built
        def no_build(*args):
            raise AssertionError("an over-limit matrix must not be built")

        monkeypatch.setattr("oddtown.ranks.build_inclusion_matrix", no_build)
        assert main(["rank", "--n", "18", "--k", "3", "--l", "9", "--p", "3"]) == 0
        assert capsys.readouterr().out == (
            "n=18 k=3 l=9 p=3\nformula=815 direct=skipped agree=unknown\n")

    def test_rank_mstar_oversized_refused(self, capsys):
        assert main(["rank", "--n", "30", "--k", "15", "--p", "3", "--mstar"]) == 2
        assert capsys.readouterr().out == (
            "error: mstar matrix of 155117520x155117520 = 24061445010950400 entries"
            " exceeds the limit of 1000000\n")

    def test_convert_round_trip_parity(self, tmp_path, capsys):
        cover = tmp_path / "cover.json"
        tup = tmp_path / "tuple.json"
        back = tmp_path / "back.json"
        assert main(["construct", "--name", "cover33", "--n", "2", "--out", str(cover)]) == 0
        assert main(["convert", "--direction", "cover-to-tuple", "--in", str(cover), "--out", str(tup)]) == 0
        assert main(["convert", "--direction", "tuple-to-cover", "--in", str(tup), "--out", str(back)]) == 0
        assert main(["verify", "--kind", "cover", "--file", str(cover), "--parity-diff", str(back)]) == 0
        assert "parity-diff equal=yes" in capsys.readouterr().out

    def test_parity_diff_detects_difference(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["construct", "--name", "cover33", "--n", "2", "--out", str(a)]) == 0
        assert main(["construct", "--name", "cover-t2", "--k", "3", "--n", "2", "--out", str(b)]) == 0
        assert main(["verify", "--kind", "cover", "--file", str(a), "--parity-diff", str(b)]) == 1

    def test_search_exact(self, capsys):
        assert main(["search", "--k", "2", "--t", "2", "--n", "4"]) == 0
        assert "exact k=2 t=2 n=4 f=4" in capsys.readouterr().out

    def test_search_seeded_by_construction(self, capsys):
        # the rank bound 6 meets build_cover_22(6), so no level is searched
        assert main(["search", "--k", "2", "--t", "2", "--n", "6"]) == 0
        assert capsys.readouterr().out == "exact k=2 t=2 n=6 f=6 rank-bound=6\n"

    def test_search_witness_bytes(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert main(["search", "--k", "3", "--t", "3", "--n", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "exact k=3 t=3 n=3 f=5 rank-bound=4\n"
        assert out.read_bytes() == (
            b'{"n": 3, "k": 3, "t": 3, "products": [[[1], [2], [2, 3]], '
            b'[[2], [1], [1, 3]], [[3], [1, 2, 3], [1, 2]], [[1, 3], [2, 3], [2]], '
            b'[[2, 3], [1, 3], [1]]]}\n'
        )

    def test_search_exact_b(self, capsys):
        assert main(["search", "--k", "2", "--t", "2", "--m", "3"]) == 0
        assert "exact-b k=2 t=2 m=3 b=3" in capsys.readouterr().out

    @pytest.mark.parametrize("m", [6, 7])
    def test_search_exact_b_past_the_cap(self, m, capsys):
        # n = 8 needs no search: its unfolding rank 8 exceeds m
        assert main(["search", "--k", "2", "--t", "2", "--m", str(m)]) == 0
        assert capsys.readouterr().out == f"exact-b k=2 t=2 m={m} b=7\n"

    def test_search_past_the_work_limit(self, capsys):
        # the flattening bound and the construction meet at (2,2,7); (3,3,5)
        # refutes level 6 and (4,4,4) level 7 would try C(3375, 3) subspaces,
        # past the work limit, so both end in an interval
        for k, t, n, verdict in (
            (2, 2, 7, "exact k=2 t=2 n=7 f=6 rank-bound=6"),
            (3, 3, 5, "interval k=3 t=3 n=5 lower=7 upper=16"),
            (4, 4, 4, "interval k=4 t=4 n=4 lower=7 upper=24"),
        ):
            assert main(["search", "--k", str(k), "--t", str(t), "--n", str(n)]) == 0
            assert capsys.readouterr().out == verdict + "\n"

    @staticmethod
    def _run_within(argv, seconds):
        return subprocess.run([sys.executable, "-m", "oddtown.cli", *argv], capture_output=True,
                              text=True, timeout=seconds, env={**os.environ, "PYTHONPATH": str(SRC)})

    def test_oversized_table_row_refused(self):
        # verifying the 297,085-product (6,6,12) construction on 12^6 cells would
        # take minutes; the row is refused before anything is built
        proc = self._run_within(["table", "--k", "6", "--t", "6", "--n-min", "12", "--n-max", "12"], 2)
        assert proc.returncode == 2
        assert proc.stdout == (
            "error: the smallest construction at (k,t,n)=(6,6,12) has 297085 products on "
            "n^k = 2985984 cells, above the verification limit of 1000000000 words\n"
        )

    def test_table_row_past_the_grid_refused(self):
        # 3^100000 cells: refused on n^k alone, before any construction size
        # (a Stirling number of k) is formed or printed
        proc = self._run_within(["table", "--k", "100000", "--t", "3", "--n-min", "2", "--n-max", "3"], 2)
        assert proc.returncode == 2
        assert proc.stdout == (
            "error: every cover at (k,t,n)=(100000,3,3) lies on n^k = 3^100000 cells, "
            "above the verification limit of 1000000000 words\n"
        )

    @pytest.mark.parametrize("k,t,n,verdict", [
        (6, 6, 12, "interval k=6 t=6 n=12 lower=104 upper=?"),
        # 2^15 bipartitions, but the symmetric target has one unfolding per size
        (16, 2, 2, "exact k=16 t=2 n=2 f=3 rank-bound=3"),
        # Bell(12) partitions, but the partition cover's size is in closed form;
        # the Kneser bound's C(12, 6)^2 entries fit the direct limit
        (12, 12, 12, "interval k=12 t=12 n=12 lower=462 upper=?"),
        # (2^n - 1)^2 rank-one tensors: the work limit is decided without the power
        (3, 3, 10**8, "interval k=3 t=3 n=100000000 lower=99999998 upper=?"),
        # n^k past the construction limit, decided before any closed-form size;
        # the second runs exact_b, with n as --m
        (10**8, 2, 3, "interval k=100000000 t=2 n=3 lower=2 upper=?"),
        (10**8, 2, 3, "interval-b k=100000000 t=2 m=3 at-least=1"),
    ])
    def test_search_past_the_cap_is_quick(self, k, t, n, verdict):
        flag = "--m" if verdict.startswith("interval-b") else "--n"
        proc = self._run_within(["search", "--k", str(k), "--t", str(t), flag, str(n)], 2)
        assert proc.returncode == 0
        assert proc.stdout == verdict + "\n"

    def test_table_writes_rows(self, tmp_path, capsys):
        rows = tmp_path / "t.rows"
        assert main([
            "table", "--k", "2", "--t", "2", "--n-min", "2", "--n-max", "4",
            "--out", str(rows),
        ]) == 0
        out = capsys.readouterr().out
        assert "constructive" in out and "note:" in out
        content = rows.read_text()
        data_lines = [l for l in content.splitlines() if not l.startswith("#")]
        assert len(data_lines) == 3
        assert data_lines[0].split("\t") == ["2", "2", "2", "2", "2", "2", "2"]
        assert data_lines[2].split("\t") == ["2", "2", "4", "4", "5", "4", "4"]

    def test_table_exact_where_certificates_meet(self, tmp_path, capsys):
        # n = 7..9 search nothing; lower = constructive settles them
        rows = tmp_path / "t.rows"
        assert main([
            "table", "--k", "2", "--t", "2", "--n-min", "7", "--n-max", "9",
            "--out", str(rows),
        ]) == 0
        capsys.readouterr()
        data_lines = [l for l in rows.read_text().splitlines() if not l.startswith("#")]
        assert [l.split("\t") for l in data_lines] == [
            ["2", "2", "7", "6", "8", "6", "6"],
            ["2", "2", "8", "8", "9", "8", "8"],
            ["2", "2", "9", "8", "10", "8", "8"],
        ]

    def test_verify_skew_cli(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        fam = SetFamily.from_lists(3, [[1], [2], [3]])
        save_family(fam, a)
        assert main(["verify", "--kind", "skew", "--file", str(a), "--second", str(a)]) == 0

    def test_verify_family_kinds(self, tmp_path):
        a = tmp_path / "a.json"
        save_family(SetFamily.from_lists(3, [[1], [2], [3]]), a)
        assert main(["verify", "--kind", "family-oddtown", "--file", str(a)]) == 0
        assert main(["verify", "--kind", "family-kt", "--file", str(a), "--k", "2", "--t", "2"]) == 0

    def test_construct_gp_and_permuted(self, tmp_path):
        gp = tmp_path / "gp.json"
        assert main(["construct", "--name", "trivial-gp", "--k", "2", "--n", "4", "--out", str(gp)]) == 0
        assert main(["verify", "--kind", "gp-cover", "--file", str(gp)]) == 0
        perm = tmp_path / "perm.json"
        assert main(["construct", "--name", "permuted-gp", "--k", "2", "--n", "4", "--out", str(perm)]) == 0
        assert main(["verify", "--kind", "cover", "--file", str(perm)]) == 0

    def test_usage_errors(self, capsys):
        assert main(["search", "--k", "2", "--t", "2"]) == 2  # neither --n nor --m
        # --threads was removed: it is rejected like any unknown flag
        assert main(["rank", "--n", "3", "--k", "1", "--l", "2", "--p", "2", "--threads", "1"]) == 2
        assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
        assert main(["bogus"]) == 2

    def test_parser_built_once(self, monkeypatch, capsys):
        from oddtown import cli as cli_mod

        builds = []

        def spy():
            builds.append(1)
            return real()

        real = cli_mod.build_parser
        monkeypatch.setattr(cli_mod, "build_parser", spy)
        cli_mod._parser.cache_clear()
        try:
            assert main(["rank", "--n", "3", "--k", "1"]) == 2  # --p missing
            assert main(["rank", "--n", "5", "--k", "1", "--l", "2", "--p", "2"]) == 0
            assert main(["bogus"]) == 2
            assert main(["search", "--k", "2", "--t", "2", "--n", "3"]) == 0
        finally:
            cli_mod._parser.cache_clear()
        assert len(builds) == 1
        out = capsys.readouterr().out
        assert "formula=4 direct=4 agree=yes" in out and "exact k=2 t=2 n=3 f=" in out

    def test_internal_inconsistency_exit_code(self, tmp_path, monkeypatch, capsys):
        # force a constructor output to fail its verifier: must exit 3
        from oddtown import cli as cli_mod
        from oddtown.setsystems import VerifyReport

        monkeypatch.setattr(
            cli_mod.covers, "verify_mod2_cover", lambda c: VerifyReport(False, ())
        )
        code = main(["construct", "--name", "cover33", "--n", "2",
                     "--out", str(tmp_path / "c.json")])
        assert code == 3
        assert "internal inconsistency" in capsys.readouterr().out


# --- the vector pass against the element walk --------------------------------

def _walk_set(value, where, n):
    """The element-by-element parse that the vector pass replaced, kept as the
    reference: the mask of one set, or the positioned message."""
    if not isinstance(value, list):
        raise FileFormatError(f"{where}: expected an array of elements")
    prev = bits = 0
    for pos, e in enumerate(value):
        at = f"{where}[{pos}]"
        if isinstance(e, bool) or not isinstance(e, int):
            raise FileFormatError(f"{at}: expected an integer")
        if not 1 <= e <= n:
            raise FileFormatError(f"{at}: element {e} outside [1, {n}]")
        if e <= prev:
            raise FileFormatError(f"{at}: elements must be strictly increasing")
        bits |= 1 << (e - 1)
        prev = e
    return bits


def _walk_cover(doc, gp):
    n, k = doc["n"], doc["k"]
    products = doc["products"]
    if not isinstance(products, list):
        raise FileFormatError("products: expected an array of products")
    parsed = []
    for s, prod in enumerate(products):
        pw = f"products[{s}]"
        if not (isinstance(prod, list) and len(prod) == k):
            raise FileFormatError(f"{pw}: expected {k} parts")
        parts = [_walk_set(part, f"{pw}[{j}]", n) for j, part in enumerate(prod)]
        if not all(parts):
            raise FileFormatError(f"{pw}: parts must be nonempty")
        parsed.append(KPartiteProduct(tuple(SubsetBits(n, bits) for bits in parts)))
    if not gp:
        return Mod2Cover(k, doc["t"], n, parsed)
    try:
        return GpCover(k, n, parsed)
    except ValueError as exc:
        raise FileFormatError(f"products: {exc}") from exc


def _walk_family(doc):
    n, sets = doc["n"], doc["sets"]
    return SetFamily(n, tuple(SubsetBits(n, _walk_set(s, f"sets[{i}]", n)) for i, s in enumerate(sets)))


def _walk_tuple(doc):
    n, k, m, families = doc["n"], doc["k"], doc["m"], doc["families"]
    if not (isinstance(families, list) and len(families) == k):
        raise FileFormatError(f"families: expected {k} families")
    parsed = []
    for j, fam in enumerate(families):
        if not (isinstance(fam, list) and len(fam) == m):
            raise FileFormatError(f"families[{j}]: expected {m} sets")
        parsed.append(tuple(SubsetBits(n, _walk_set(s, f"families[{j}][{i}]", n))
                            for i, s in enumerate(fam)))
    return TupleSystem(k, doc["t"], m, n, tuple(parsed))


def _outcome(parse, *args):
    try:
        return parse(*args)
    except (ValueError, InternalCheckError) as exc:
        return type(exc), str(exc)


def _masks(obj):
    if isinstance(obj, tuple):  # an error
        return obj
    if hasattr(obj, "products"):
        return [[part.bits for part in p.parts] for p in obj.products]
    if hasattr(obj, "families"):
        return [[s.bits for s in fam] for fam in obj.families]
    return [s.bits for s in obj.sets]


GROUND_SIZES = (0, 1, 2, 3, 7, 8, 9, 63, 64, 65)
ODD_ELEMENTS = (True, False, 1.0, 2.5, 2**64, -2**64, 2**63, "1", None, [1])


@st.composite
def element_lists(draw, n):
    """Mostly valid sets of [n]; otherwise bad elements, repeats or descents."""
    kind = draw(st.integers(0, 9))
    if kind < 7:  # empty only now and then
        return sorted(draw(st.sets(st.integers(1, max(n, 1)), min_size=kind < 6, max_size=6)))
    if kind == 7:
        return draw(st.sampled_from([0, 1.5, "x", {"a": 1}]))  # not a list
    items = st.one_of(st.integers(-1, n + 2), st.sampled_from(ODD_ELEMENTS))
    return draw(st.lists(items, max_size=6))


@st.composite
def products_docs(draw, gp):
    n = draw(st.sampled_from(GROUND_SIZES))
    k = draw(st.sampled_from((2, 3, 2, 3, 1, 0)))
    products = []
    for _ in range(draw(st.integers(0, 5))):
        width = k if draw(st.integers(0, 5)) != 3 else draw(st.integers(0, 4))
        if gp and draw(st.booleans()):  # disjoint parts: element e + 1 goes to part owner[e]
            owner = draw(st.lists(st.integers(0, width), min_size=n, max_size=n))
            products.append([[e + 1 for e in range(n) if owner[e] == j] for j in range(width)])
        else:
            products.append([draw(element_lists(n)) for _ in range(width)])
    if draw(st.integers(0, 20)) == 13:
        products = {"products": products}
    doc = {"n": n, "k": k, "t": draw(st.sampled_from((2, 3, 2))), "products": products}
    if gp:
        del doc["t"]
    return doc


class TestVectorParse:
    """The vector pass accepts exactly what the element walk accepts, gives the
    same masks, and where it rejects the walk's message comes out."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_cover_loads_match_the_walk(self, data):
        gp = data.draw(st.booleans())
        doc = data.draw(products_docs(gp))
        load = load_gp_cover if gp else load_cover
        with mock.patch.object(fileio, "_load_json", return_value=doc):
            got = _outcome(load, "doc.json")
        assert _masks(got) == _masks(_outcome(_walk_cover, doc, gp))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_family_loads_match_the_walk(self, data):
        n = data.draw(st.sampled_from(GROUND_SIZES))
        doc = {"n": n, "sets": data.draw(st.lists(element_lists(n), max_size=6))}
        with mock.patch.object(fileio, "_load_json", return_value=doc):
            got = _outcome(load_family, "doc.json")
        assert _masks(got) == _masks(_outcome(_walk_family, doc))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_tuple_loads_match_the_walk(self, data):
        n = data.draw(st.sampled_from(GROUND_SIZES))
        k, m = data.draw(st.sampled_from((2, 3))), data.draw(st.integers(0, 3))
        families = [data.draw(st.lists(element_lists(n), min_size=m, max_size=m))
                    for _ in range(k)]
        if data.draw(st.integers(0, 8)) == 5:
            families[-1] = families[-1][1:] if m else [[]]  # a wrong set count
        if data.draw(st.integers(0, 8)) == 5:
            families = families[1:]  # a wrong family count
        doc = {"n": n, "k": k, "t": 2, "m": m, "families": families}
        with mock.patch.object(fileio, "_load_json", return_value=doc):
            got = _outcome(load_tuple, "doc.json")
        assert _masks(got) == _masks(_outcome(_walk_tuple, doc))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_pack_sets_accepts_what_the_walk_accepts(self, data):
        n = data.draw(st.sampled_from(GROUND_SIZES))
        sets = data.draw(st.lists(element_lists(n), max_size=6))
        try:
            want = [_walk_set(s, "s", n) for s in sets]
        except FileFormatError:
            want = None
        rows = fileio._pack_sets(sets, n)
        if want is None:
            assert rows is None
        else:
            assert rows.shape == (len(sets), (n + 7) // 8)
            assert [int.from_bytes(r, "little") for r in rows] == want

    def test_ints_beyond_int64_fall_back_to_the_walk(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 3, "k": 2, "t": 2, "products": [[[1], [2**64]]]}))
        with pytest.raises(FileFormatError) as info:
            load_cover(path)
        assert str(info.value) == f"products[0][1][0]: element {2**64} outside [1, 3]"

    def test_parsed_parts_are_packed_little_endian(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 9, "k": 2, "t": 2,
                                    "products": [[[1, 8, 9], [2]], [[9], [1, 2, 3]]]}))
        cover = load_cover(path)
        assert cover.parts.tolist() == [[[0x81, 1], [2, 0]], [[0, 1], [7, 0]]]
        assert not cover.parts.flags.writeable


class TestLoadLimit:
    @pytest.mark.parametrize("kind, doc, message", [
        ("cover", {"n": 10**9, "k": 2, "t": 2, "products": [[[1], [2]]]},
         "error: 2 parts of 125000000 bytes each exceed the load limit of 16777216 bytes\n"),
        ("gp-cover", {"n": 10**8, "k": 2, "products": [[[1], [2]], [[3], [4]]]},
         "error: 4 parts of 12500000 bytes each exceed the load limit of 16777216 bytes\n"),
        ("tuple", {"n": 10**8, "k": 2, "t": 2, "m": 1, "families": [[[1]], [[2]]]},
         "error: 2 sets of 12500000 bytes each exceed the load limit of 16777216 bytes\n"),
        ("family-oddtown", {"n": 2**27 + 1, "sets": [[1]]},
         "error: 1 sets of 16777217 bytes each exceed the load limit of 16777216 bytes\n"),
    ])
    def test_oversized_packed_array_refused(self, tmp_path, capsys, kind, doc, message):
        # refused before the array is allocated: the elements are never read
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        with mock.patch.object(fileio, "_pack_sets", side_effect=AssertionError("packed")):
            assert main(["verify", "--kind", kind, "--file", str(path)]) == 2
        assert capsys.readouterr().out == message

    def test_limit_is_inclusive(self, tmp_path):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"n": 8 * fileio.MAX_PACKED_BYTES, "sets": [[1]]}))
        assert load_family(path).sets[0].bits == 1


class TestGridRefusedBeforeTransposition:
    @pytest.mark.parametrize("n, message", [
        (3 * 10**6, "error: 3000000^2 index tuples exceed the scan limit of 100000000"),
        (10**8, "error: 2 parts of 12500000 bytes each exceed the load limit of 16777216 bytes"),
    ])
    def test_huge_declared_n_exits_at_once(self, tmp_path, n, message):
        # neither the n x S transposition nor, past the load limit, the packed
        # parts are built; run in a subprocess, so that an unguarded build
        # cannot exhaust the suite
        path = tmp_path / "c.json"
        path.write_text(f'{{"n": {n}, "k": 2, "t": 2, "products": [[[1], [2]]]}}\n')
        code = (
            "import sys, time\n"
            "from oddtown.cli import main\n"
            "start = time.perf_counter()\n"
            f"rc = main(['verify', '--kind', 'cover', '--file', {str(path)!r}])\n"
            "print(rc, time.perf_counter() - start)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
        printed, verdict = proc.stdout.splitlines()
        assert printed == message
        rc, seconds = verdict.split()
        assert rc == "2" and float(seconds) < 1.0

    def test_cover_to_tuple_refused_before_any_set(self, tmp_path):
        # the output tuple's m^k grid is the cover's n^k grid: no verifier could
        # check it, and building its k*n sets took seconds and hundreds of MB
        path = tmp_path / "c.json"
        path.write_text('{"n": 1000000, "k": 2, "t": 2, "products": []}')
        out = tmp_path / "t.json"
        code = (
            "import sys, time\n"
            "from oddtown.cli import main\n"
            "start = time.perf_counter()\n"
            f"rc = main(['convert', '--direction', 'cover-to-tuple', '--in', {str(path)!r}, "
            f"'--out', {str(out)!r}])\n"
            "print(rc, time.perf_counter() - start)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
        printed, verdict = proc.stdout.splitlines()
        assert printed == "error: 1000000^2 index tuples exceed the scan limit of 100000000"
        rc, seconds = verdict.split()
        assert rc == "2" and float(seconds) < 1.0
        assert not out.exists()

    @pytest.mark.parametrize("argv", [[], ["--parity-diff", "SELF"]])
    def test_transposition_never_built(self, tmp_path, capsys, argv):
        path = tmp_path / "c.json"
        path.write_text('{"n": 20000, "k": 2, "t": 2, "products": [[[1], [2]]]}\n')
        argv = [str(path) if a == "SELF" else a for a in argv]
        with mock.patch("oddtown.covers._cover_rows", side_effect=AssertionError("built")):
            assert main(["verify", "--kind", "cover", "--file", str(path), *argv]) == 2
        assert capsys.readouterr().out == (
            "error: 20000^2 index tuples exceed the scan limit of 100000000\n")


# --- tuple systems and families, packed from file to scan ---------------------

NEGATIVE_TUPLE = '{"n": -1, "k": 2, "t": 2, "m": 0, "families": [[], []]}\n'
NEGATIVE_FAMILY = '{"n": -5, "sets": []}\n'


class TestPackedSetSystems:
    @pytest.mark.parametrize("doc, argv", [
        (NEGATIVE_TUPLE, ["verify", "--kind", "tuple", "--file", "IN"]),
        (NEGATIVE_TUPLE, ["convert", "--direction", "tuple-to-cover", "--in", "IN", "--out", "OUT"]),
        (NEGATIVE_FAMILY, ["verify", "--kind", "family-oddtown", "--file", "IN"]),
        (NEGATIVE_FAMILY, ["verify", "--kind", "skew", "--file", "IN", "--second", "IN"]),
    ], ids=["tuple", "tuple-to-cover", "family-oddtown", "skew"])
    def test_negative_ground_size_refused(self, tmp_path, capsys, doc, argv):
        path, out = tmp_path / "in.json", tmp_path / "out.json"
        path.write_text(doc)
        argv = [{"IN": str(path), "OUT": str(out)}.get(a, a) for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr().out == "error: ground size must be nonnegative\n"
        assert not out.exists()

    def test_k_checked_before_the_rows_are_shaped(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text('{"n": 3, "k": 0, "t": 2, "m": -1, "families": []}\n')
        assert main(["verify", "--kind", "tuple", "--file", str(path)]) == 2
        assert capsys.readouterr().out == "error: k must be at least 2\n"

    def test_no_subset_objects_built(self, tmp_path, capsys):
        from oddtown import (add_shared_element, build_cover_33, cover_to_tuple, reduce_33_oddtown,
                             reduce_triple_b33, reduce_tuple_to_pair, verify_bollobas_tuple)

        t, f, c, back = (str(tmp_path / name) for name in ("t.json", "f.json", "c.json", "b.json"))
        runs = [
            (["construct", "--name", "b22pair", "--n", "6", "--out", t], 0),
            (["construct", "--name", "ktfamily", "--t", "3", "--n", "8", "--out", f], 0),
            (["verify", "--kind", "tuple", "--file", t], 0),
            (["verify", "--kind", "skew", "--file", f, "--second", f], 1),
            (["verify", "--kind", "family-oddtown", "--file", f], 1),
            (["verify", "--kind", "family-kt", "--k", "4", "--t", "3", "--file", f], 0),
            (["convert", "--direction", "tuple-to-cover", "--in", t, "--out", c], 0),
            (["convert", "--direction", "cover-to-tuple", "--in", c, "--out", back], 0),
        ]
        with mock.patch.object(SubsetBits, "__post_init__", side_effect=AssertionError("built")):
            for argv, code in runs:
                assert main(argv) == code, argv
            pair = load_tuple(t)
            assert verify_bollobas_tuple(reduce_tuple_to_pair(pair)).valid
            assert verify_bollobas_tuple(reduce_triple_b33(cover_to_tuple(build_cover_33(3)))).valid
            assert add_shared_element(pair).ground_size == 7
            assert len(reduce_33_oddtown(load_family(f))) == 7
        capsys.readouterr()
        assert load_tuple(back) == pair
