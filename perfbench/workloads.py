"""Operation lists and seeded inputs for the three workloads.

The worker process imports this module after the clock for set-up has started,
so importing ``oddtown`` and generating the inputs are both part of ``setup_s``.

An operation is a JSON-serialisable dict.  ``kind`` says how the worker runs
it and ``check`` carries what the oracles (``oracles.py``) need to judge the
answer without calling into ``oddtown``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from oddtown import cli, constructions, covers, gf2, ranks, search


# --- search -----------------------------------------------------------------

def _search_ops(seed: int, workdir: Path) -> list[dict]:
    ops = []
    for n in range(2, 7):
        ops.append(_search_n(2, 2, n))
    for m in range(2, 5):
        argv = ["search", "--k", "2", "--t", "2", "--m", str(m)]
        ops.append({"id": f"search-b:2,2,{m}", "kind": "cli", "argv": argv,
                    "check": {"type": "search-b", "k": 2, "t": 2, "m": m}})
    ops.append(_search_n(3, 2, 3))
    ops.append(_search_n(4, 2, 3))
    ops.append(_search_n(3, 3, 3, witness=str(workdir / "w333.json")))
    ops.append(_search_n(4, 3, 3))
    ops.append(_search_n(3, 3, 4, budget=3))
    for k, t, lo, hi in ((2, 2, 2, 6), (3, 3, 2, 4)):
        rows = str(workdir / f"table{k}{t}.rows")
        argv = ["table", "--k", str(k), "--t", str(t), "--n-min", str(lo), "--n-max", str(hi),
                "--out", rows]
        ops.append({"id": f"table:{k},{t}", "kind": "cli", "argv": argv,
                    "check": {"type": "table", "k": k, "t": t, "n_min": lo, "n_max": hi,
                              "rows": rows}})
    random.Random(seed).shuffle(ops)
    return ops


def _search_n(k: int, t: int, n: int, witness: str | None = None, budget: int | None = None) -> dict:
    argv = ["search", "--k", str(k), "--t", str(t), "--n", str(n)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    if witness is not None:
        argv += ["--out", witness]
    return {"id": f"search:{k},{t},{n}", "kind": "cli", "argv": argv,
            "check": {"type": "search-n", "k": k, "t": t, "n": n, "witness": witness}}


# --- rank -------------------------------------------------------------------

def _rank_ops(seed: int) -> list[dict]:
    ops = []
    for n in range(1, 12):
        for k in range(0, n // 2 + 1):
            for l in range(k, n - k + 1):
                for p in (2, 3, 5):
                    ops.append({"id": f"sweep:{n},{k},{l},{p}", "kind": "sweep",
                                "args": [n, k, l, p],
                                "check": {"type": "sweep", "n": n, "k": k, "l": l, "p": p}})
    for n, k in ((17, 4), (22, 3), (28, 2)):
        ops.append({"id": f"kneser:{n},{k}", "kind": "kneser", "args": [n, k],
                    "check": {"type": "kneser", "n": n, "k": k}})
    for n, k, p in ((11, 4, 5), (12, 4, 3)):
        argv = ["rank", "--n", str(n), "--k", str(k), "--p", str(p), "--mstar", "--seed", str(seed)]
        ops.append({"id": f"mstar:{n},{k},{p}", "kind": "cli", "argv": argv,
                    "check": {"type": "mstar", "n": n, "k": k, "p": p, "seed": seed}})
    return ops


# --- verify -----------------------------------------------------------------

# name, CLI construct arguments, size of the construction, base object builder
_CONSTRUCTS = (
    ("c43_20", ["--name", "cover43", "--n", "20"], 1241, lambda: constructions.build_cover_43(20)),
    ("c43_16", ["--name", "cover43", "--n", "16"], 801, lambda: constructions.build_cover_43(16)),
    ("c33_40", ["--name", "cover33", "--n", "40"], 121, lambda: constructions.build_cover_33(40)),
    ("pgp_7_4", ["--name", "permuted-gp", "--n", "7", "--k", "4"], 840,
     lambda: covers.permute_gp_cover(constructions.trivial_gp_cover(7, 4))),
    ("pc_5_3_6", ["--name", "partition-cover", "--n", "6", "--k", "5", "--t", "3"], 337,
     lambda: constructions.build_partition_cover(5, 3, 6)),
    ("b22_40", ["--name", "b22pair", "--n", "40"], 41, lambda: constructions.build_b22_pair(40)),
    ("kt_3_20", ["--name", "ktfamily", "--n", "20", "--t", "3", "--k", "4"], 20,
     lambda: constructions.build_kt_oddtown_family(3, 20)),
)
_KT = {"k": 4, "t": 3}  # the (k,t) variant the family is built and verified for
_VALID_COVERS = ("c43_16", "c33_40", "pgp_7_4", "pc_5_3_6")
_MUTATED = ("c43_16", "c33_40", "pc_5_3_6")


def _elements(bits: int) -> list[int]:
    return [i + 1 for i in range(bits.bit_length()) if (bits >> i) & 1]


def _as_dict(obj) -> dict:
    """Canonical file layout (see the README's file formats) of a built object."""
    if hasattr(obj, "products"):
        return {"n": obj.n, "k": obj.k, "t": obj.t,
                "products": [[_elements(part.bits) for part in p.parts] for p in obj.products]}
    if hasattr(obj, "families"):
        return {"n": obj.ground_size, "k": obj.k, "t": obj.t, "m": obj.m,
                "families": [[_elements(s.bits) for s in fam] for fam in obj.families]}
    return {"n": obj.ground_size, "sets": [_elements(s.bits) for s in obj.sets]}


def _relabel(obj: dict, rng: random.Random) -> dict:
    """Apply one random permutation of the ground set [n] to every element."""
    image = list(range(1, obj["n"] + 1))
    rng.shuffle(image)
    sigma = [0] + image

    def move(s: list[int]) -> list[int]:
        return sorted(sigma[e] for e in s)

    out = dict(obj)
    if "products" in obj:
        out["products"] = [[move(part) for part in p] for p in obj["products"]]
    elif "families" in obj:
        out["families"] = [[move(s) for s in fam] for fam in obj["families"]]
    else:
        out["sets"] = [move(s) for s in obj["sets"]]
    return out


def _mutate(cover: dict, rng: random.Random) -> tuple[dict, dict]:
    """Drop one element from one part of one product; the part stays nonempty."""
    sites = [(s, j) for s, p in enumerate(cover["products"]) for j, part in enumerate(p)
             if len(part) >= 2]
    s, j = rng.choice(sites)
    value = rng.choice(cover["products"][s][j])
    products = [list(p) for p in cover["products"]]
    products[s] = [list(part) for part in products[s]]
    products[s][j].remove(value)
    return dict(cover, products=products), {"product": s, "coord": j, "value": value}


def _write(path: Path, obj: dict) -> str:
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


def _cli(op_id: str, argv: list[str], check: dict) -> dict:
    return {"id": op_id, "kind": "cli", "argv": argv, "check": check}


def _verify_ops(seed: int, workdir: Path) -> list[dict]:
    rng = random.Random(seed)
    w = workdir
    relabelled, bad, sites = {}, {}, {}
    for name, _, _, build in _CONSTRUCTS:
        obj = _relabel(_as_dict(build()), rng)
        relabelled[name] = _write(w / f"r_{name}.json", obj)
        if name in _MUTATED:
            mutated, sites[name] = _mutate(obj, rng)
            bad[name] = _write(w / f"bad_{name}.json", mutated)

    ops = []
    for name, args, size, _ in _CONSTRUCTS:
        out = str(w / f"{name}.json")
        check = {"type": "construct", "name": args[1], "size": size, "file": out}
        if name == "kt_3_20":
            check.update(_KT)
        ops.append(_cli(f"construct:{name}", ["construct", *args, "--out", out], check))

    def round_trip(name: str) -> None:
        src = relabelled[name]
        tup, back = str(w / f"r_{name}.t.json"), str(w / f"r_{name}.back.json")
        ops.append(_cli(f"to-tuple:{name}", ["convert", "--direction", "cover-to-tuple",
                                             "--in", src, "--out", tup],
                        {"type": "to-tuple", "src": src, "dst": tup}))
        ops.append(_cli(f"verify-tuple:{name}", ["verify", "--kind", "tuple", "--file", tup],
                        {"type": "verify-tuple", "file": tup, "cover": src}))
        ops.append(_cli(f"to-cover:{name}", ["convert", "--direction", "tuple-to-cover",
                                             "--in", tup, "--out", back],
                        {"type": "to-cover", "dst": back, "expect": src}))

    for name in _VALID_COVERS:
        src = relabelled[name]
        ops.append(_cli(f"verify-cover:{name}", ["verify", "--kind", "cover", "--file", src],
                        {"type": "verify-cover", "file": src}))
        round_trip(name)
    round_trip("c43_20")
    ops.append(_cli("parity-diff:c43_20", ["verify", "--kind", "cover", "--file",
                                           relabelled["c43_20"], "--parity-diff",
                                           str(w / "c43_20.json")],
                    {"type": "parity-diff", "equal": True}))
    ops.append(_cli("verify-tuple:b22_40", ["verify", "--kind", "tuple", "--file",
                                            relabelled["b22_40"]],
                    {"type": "verify-tuple", "file": relabelled["b22_40"], "cover": None}))
    ops.append(_cli("verify-kt:kt_3_20", ["verify", "--kind", "family-kt", "--k", str(_KT["k"]),
                                          "--t", str(_KT["t"]), "--file", relabelled["kt_3_20"]],
                    {"type": "verify-kt", "file": relabelled["kt_3_20"], **_KT}))
    for name in _MUTATED:
        src, tup = bad[name], str(w / f"bad_{name}.t.json")
        site = dict(sites[name], file=src)
        ops.append(_cli(f"verify-bad:{name}", ["verify", "--kind", "cover", "--file", src],
                        {"type": "verify-bad", "route": "cover", **site}))
        ops.append(_cli(f"bad-to-tuple:{name}", ["convert", "--direction", "cover-to-tuple",
                                                 "--in", src, "--out", tup],
                        {"type": "to-tuple", "src": src, "dst": tup}))
        ops.append(_cli(f"verify-bad-tuple:{name}", ["verify", "--kind", "tuple", "--file", tup],
                        {"type": "verify-bad", "route": "tuple", **site}))
        ops.append(_cli(f"parity-diff-bad:{name}", ["verify", "--kind", "cover", "--file", src,
                                                    "--parity-diff", relabelled[name]],
                        {"type": "parity-diff", "equal": False}))
    ops.append({"id": "biclique:8,4", "kind": "biclique", "args": [8, 4],
                "check": {"type": "biclique", "n": 8, "k": 4}})
    return ops


# --- running ----------------------------------------------------------------

def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    """The seeded operation list; writes the workload's input files to workdir."""
    if workload == "search":
        return _search_ops(seed, workdir)
    if workload == "rank":
        return _rank_ops(seed)
    if workload == "verify":
        return _verify_ops(seed, workdir)
    raise ValueError(f"unknown workload {workload}")


def run_op(op: dict):
    """Run one operation through oddtown's public functions; returns (rc, stdout, value).

    Functions are looked up on their modules at call time so that the tracer's
    rebinding applies.
    """
    kind = op["kind"]
    if kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op["argv"])
        return rc, buf.getvalue(), None
    if kind == "sweep":
        n, k, l, p = op["args"]
        inc = ranks.build_inclusion_matrix(n, k, l)
        direct = gf2.rank_gf2(inc.matrix) if p == 2 else gf2.rank_gfp(inc.to_gfp(p))
        return 0, "", {"formula": ranks.wilson_rank(n, k, l, p), "direct": direct}
    if kind == "kneser":
        n, k = op["args"]
        return 0, "", {"direct": gf2.rank_gf2(ranks.kneser_adjacency(n, k))}
    if kind == "biclique":
        n, k = op["args"]
        folded = covers.cover_to_ok_biclique_cover(
            covers.permute_gp_cover(constructions.trivial_gp_cover(n, k)))
        report = covers.verify_ok_biclique_cover(folded)
        return 0, "", {"valid": report.valid, "violations": len(report.violations),
                       "bicliques": len(folded.bicliques)}
    raise ValueError(f"unknown operation kind {kind}")


def after_batch(ops: list[dict]) -> dict:
    """Untimed extras the oracles need: for each minimum-cover search instance,
    the best explicit construction, as the upper end of ``open_gap`` when the
    search reports none."""
    extras = {}
    for op in ops:
        chk = op["check"]
        if chk["type"] == "search-n":
            cover = search.best_constructive_cover(chk["k"], chk["t"], chk["n"])
            extras[op["id"]] = _as_dict(cover)
    return extras
