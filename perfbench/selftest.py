"""Self-test of the benchmark's oracles and tracing.

    python3 perfbench/selftest.py      (from the root of the checkout)

Shows that correct answers pass and tampered ones (a wrong rank, a wrong
witness list, a lower bound above a known value, ...) count as failed, that
the mutation-site witnesses match what the verifiers print, and that the
tracer restores every function it wraps.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from oddtown import cli, constructions, gf2, ranks, search  # noqa: E402
from workloads import _as_dict, _mutate  # noqa: E402


def answer(out: str = "", rc: int = 0, value=None) -> dict:
    return {"rc": rc, "out": out, "value": value, "error": None}


def search_op(k: int, t: int, n: int, witness: str | None = None) -> dict:
    return {"id": f"search:{k},{t},{n}",
            "check": {"type": "search-n", "k": k, "t": t, "n": n, "witness": witness}}


class OracleTest(unittest.TestCase):
    def setUp(self) -> None:
        self.ctx = {"open_gap": 0}
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self) -> None:
        self.tmp.cleanup()

    def write(self, name: str, obj: dict) -> str:
        path = self.dir / name
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        return str(path)

    def test_sweep_rank(self) -> None:
        op = {"check": {"type": "sweep", "n": 5, "k": 2, "l": 3, "p": 2}}
        self.assertIsNone(oracles.check(op, answer(value={"formula": 6, "direct": 6}), self.ctx))
        self.assertIsNotNone(oracles.check(op, answer(value={"formula": 6, "direct": 7}), self.ctx))
        self.assertIsNotNone(oracles.check(op, answer(value={"formula": 5, "direct": 6}), self.ctx))

    def test_kneser_rank(self) -> None:
        op = {"check": {"type": "kneser", "n": 28, "k": 2}}
        self.assertIsNone(oracles.check(op, answer(value={"direct": 378}), self.ctx))
        self.assertIsNotNone(oracles.check(op, answer(value={"direct": 377}), self.ctx))

    def test_search_values_and_bounds(self) -> None:
        ok = "interval k=3 t=3 n=4 lower=4 upper=?"
        cover_13 = _as_dict(constructions.build_cover_33(4))
        self.assertIsNone(oracles.check(search_op(3, 3, 4), answer(ok), self.ctx, cover_13))
        self.assertEqual(self.ctx["open_gap"], 13 - 4)
        high = "interval k=3 t=3 n=4 lower=14 upper=?"
        self.assertIsNotNone(oracles.check(search_op(3, 3, 4), answer(high), self.ctx, cover_13))
        low_upper = "interval k=4 t=3 n=3 lower=5 upper=5"
        self.assertIsNotNone(oracles.check(search_op(4, 3, 3), answer(low_upper), self.ctx))
        self.assertIsNone(oracles.check(search_op(2, 2, 5),
                                        answer("exact k=2 t=2 n=5 f=4 rank-bound=4"), self.ctx))
        self.assertIsNotNone(oracles.check(search_op(2, 2, 5),
                                           answer("exact k=2 t=2 n=5 f=5 rank-bound=4"), self.ctx))
        b_op = {"check": {"type": "search-b", "k": 2, "t": 2, "m": 4}}
        self.assertIsNone(oracles.check(b_op, answer("exact-b k=2 t=2 m=4 b=5"), self.ctx))
        self.assertIsNotNone(oracles.check(b_op, answer("exact-b k=2 t=2 m=4 b=6"), self.ctx))

    def test_search_witness(self) -> None:
        good = _as_dict(search.min_mod2_cover(3, 3, 3).cover)
        path = self.write("w.json", good)
        verdict = answer("exact k=3 t=3 n=3 f=5 rank-bound=3")
        self.assertIsNone(oracles.check(search_op(3, 3, 3, path), verdict, self.ctx))
        bad = dict(good, products=good["products"][:-1] + [[[1], [2], [3]]])
        self.write("w.json", bad)
        self.assertIsNotNone(oracles.check(search_op(3, 3, 3, path), verdict, self.ctx))

    def test_mutation_witnesses_match_the_verifiers(self) -> None:
        for seed in range(4):
            cover, site = _mutate(_as_dict(constructions.build_cover_43(4)), random.Random(seed))
            path = self.write("bad.json", cover)
            tup = str(self.dir / "bad.t.json")
            for route, argv in (("cover", ["verify", "--kind", "cover", "--file", path]),
                                ("tuple", ["verify", "--kind", "tuple", "--file", tup])):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    if route == "tuple":
                        cli.main(["convert", "--direction", "cover-to-tuple", "--in", path,
                                  "--out", tup])
                        buf.truncate(0)
                        buf.seek(0)
                    rc = cli.main(argv)
                op = {"check": {"type": "verify-bad", "route": route, "file": path, **site}}
                self.assertIsNone(oracles.check(op, answer(buf.getvalue(), rc), self.ctx))
                lines = buf.getvalue().splitlines()
                tampered = "\n".join(lines[1:] if len(lines) > 2 else lines[:1] * 2) + "\n"
                self.assertIsNotNone(oracles.check(op, answer(tampered, rc), self.ctx))

    def test_cover_and_tuple_verifiers(self) -> None:
        cover = {"n": 3, "k": 3, "t": 3,
                 "products": [[[1], [1], [1, 2, 3]], [[1], [1, 2, 3], [1]], [[1, 2, 3], [1], [1]]]}
        self.assertFalse(oracles.cover_valid(cover))
        self.assertTrue(oracles.cover_valid(_as_dict(constructions.build_cover_33(3))))
        self.assertTrue(oracles.tuple_valid(_as_dict(constructions.build_b22_pair(6))))
        family = _as_dict(constructions.build_kt_oddtown_family(3, 8))
        self.assertTrue(oracles.kt_valid(family, 4, 3))
        family["sets"][0] = family["sets"][0][1:]
        self.assertFalse(oracles.kt_valid(family, 4, 3))

    def test_mstar_rank_against_sympy(self) -> None:
        n, k, p, seed = 11, 4, 5, 3
        matrix = oracles.mstar_matrix(n, k, p, seed)
        want = oracles.sympy_rank_mod_p(matrix, p)
        self.assertEqual(oracles.rank_mod_p(matrix, p), want)
        self.assertEqual(ranks.mstar_observed_rank(n, k, p, seed), want)
        rng = random.Random(5)
        for _ in range(20):
            q = rng.choice((2, 3, 5, 7))
            rows = [[rng.randrange(q) * rng.randrange(2) for _ in range(9)] for _ in range(7)]
            self.assertEqual(oracles.rank_mod_p(rows, q), oracles.sympy_rank_mod_p(rows, q))
        op = {"check": {"type": "mstar", "n": n, "k": k, "p": p, "seed": seed}}
        head = "experimental random-entry inclusion pattern, no bound asserted\n"
        line = f"mstar n={n} k={k} p={p} seed={seed} rank={{}}\n"
        self.assertIsNone(oracles.check(op, answer(head + line.format(want)), self.ctx))
        self.assertIsNotNone(oracles.check(op, answer(head + line.format(want - 1)), self.ctx))

    def test_biclique(self) -> None:
        op = {"check": {"type": "biclique", "n": 8, "k": 4}}
        good = {"valid": True, "violations": 0, "bicliques": 1680}
        self.assertIsNone(oracles.check(op, answer(value=good), self.ctx))
        self.assertIsNotNone(oracles.check(op, answer(value=dict(good, valid=False)), self.ctx))


class TallyTest(unittest.TestCase):
    def test_tampered_answer_counts_as_failed(self) -> None:
        op = {"id": "sweep:5,2,3,2", "check": {"type": "sweep", "n": 5, "k": 2, "l": 3, "p": 2}}
        good = answer(value={"formula": 6, "direct": 6})
        bad = answer(value={"formula": 6, "direct": 5})
        tally = run.Run(ROOT, "rank", 0)
        tally.check({"ops": [op, op], "answers": [good, bad], "extras": {}})
        self.assertEqual((tally.attempted, tally.failed), (2, 1))


class TracingTest(unittest.TestCase):
    def test_install_and_restore(self) -> None:
        before = (gf2.rank_gf2, search.rank_gf2, cli.rank_gf2, gf2.GfpMatrix.__dict__["from_rows"])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(search.rank_gf2, before[1])
            tracer.op = 0
            inc = ranks.build_inclusion_matrix(5, 2, 3)
            gf2.rank_gfp(inc.to_gfp(3))
        finally:
            tracer.uninstall()
        after = (gf2.rank_gf2, search.rank_gf2, cli.rank_gf2, gf2.GfpMatrix.__dict__["from_rows"])
        self.assertEqual(before, after)
        names = [tracing.LAYERS[s[0]] for s in tracer.spans]
        self.assertEqual(names, ["ranks.build_inclusion_matrix", "ranks.to_gfp", "gf2.GfpMatrix",
                                 "gf2.rank_gfp"])
        self.assertEqual(tracer.counters["gf2.rank_gfp.entries"], 10 * 10)
        start = min(s[1] for s in tracer.spans)
        end = max(s[2] for s in tracer.spans)
        row = tracing.rollup(tracer.spans, [[start, end]], end - start)
        self.assertEqual(row["gf2.GfpMatrix.calls"], 1)

    def test_rollup_rejects_spans_that_do_not_nest(self) -> None:
        spans = [[0, 0.0, 1.0, -1, 0], [1, 0.5, 1.5, 0, 0]]
        with self.assertRaises(ValueError):
            tracing.rollup(spans, [[0.0, 2.0]], 2.0)
        spans[1][1:3] = [0.2, 0.6]
        row = tracing.rollup(spans, [[0.0, 2.0]], 2.5)
        self.assertAlmostEqual(row[f"{tracing.LAYERS[0]}.self_s"], 0.6)
        self.assertAlmostEqual(row["bench.other_s"], 1.5)

    def test_spec_lists_every_per_layer_metric(self) -> None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = {m["name"] for m in spec["per_layer"]}
        produced = {f"{layer}.{kind}" for layer in tracing.LAYERS for kind in ("self_s", "calls")}
        produced |= set(tracing.COUNTERS) - {"search.presolve_levels"}
        produced |= {"search.presolve_share", "search.open_gap", "bench.other_s",
                     "trace.overhead_s"}
        self.assertEqual(names, produced)


if __name__ == "__main__":
    unittest.main()
