import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oddtown import build_b22_pair, build_cover_33, trivial_gp_cover
from oddtown.cli import main
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
from oddtown.setsystems import SetFamily

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

    def test_oversized_gp_cover_refused(self, tmp_path, capsys):
        path = tmp_path / "gp.json"
        path.write_text(json.dumps({"n": 40, "k": 8, "products": [
            [[i] for i in range(1, 9)], [[i] for i in range(9, 17)]]}))
        assert main(["verify", "--kind", "gp-cover", "--file", str(path)]) == 2
        out = capsys.readouterr().out
        assert out == "error: 76904685 subsets x 2 products exceed the scan limit of 100000000\n"

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
        assert capsys.readouterr().out == "exact k=3 t=3 n=3 f=5 rank-bound=3\n"
        assert out.read_bytes() == (
            b'{"n": 3, "k": 3, "t": 3, "products": [[[1], [1, 2, 3], [2, 3]], '
            b'[[2], [3], [1, 3]], [[1, 2], [1, 3], [3]], [[3], [2], [1, 2]], '
            b'[[1, 3], [1, 2], [2]]]}\n'
        )

    def test_search_exact_b(self, capsys):
        assert main(["search", "--k", "2", "--t", "2", "--m", "3"]) == 0
        assert "exact-b k=2 t=2 m=3 b=3" in capsys.readouterr().out

    def test_search_cap_exceeded(self, capsys):
        assert main(["search", "--k", "2", "--t", "2", "--n", "7"]) == 2
        assert "cap" in capsys.readouterr().out

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
