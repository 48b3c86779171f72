"""Ungated reference probe: re-measures the hand-timed baseline figures.

    python3 perfbench/reference.py      (from the root of the checkout; about 2 minutes)

Each item runs in a fresh process so that its peak RSS is its own:
minimum-cover search at (3,3,4) and (3,2,4) with the default budget, the
Kneser (20,4) build and F_2 rank, the full n <= 12 inclusion-rank sweep of
acceptance criterion 08, the cover43(20) check by the cover route and by the
tuple route, and ``oddtown search --k 3 --t 3 --n 3`` as a command including
its import.  The figures are printed and written to ``perfbench/results/``;
they are a record, not a benchmark workload, and nothing gates on them.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def _search(k: int, t: int, n: int) -> dict:
    from oddtown import search
    start = time.perf_counter()
    out = search.min_mod2_cover(k, t, n)
    return {"seconds": time.perf_counter() - start, "status": out.status, "lower": out.lower,
            "upper": out.upper, "levels_exhausted": out.levels_exhausted}


def _kneser() -> dict:
    from oddtown import gf2, ranks
    start = time.perf_counter()
    adjacency = ranks.kneser_adjacency(20, 4)
    built = time.perf_counter()
    rank = gf2.rank_gf2(adjacency)
    return {"build_s": built - start, "rank_s": time.perf_counter() - built, "rank": rank}


def _sweep() -> dict:
    from oddtown import gf2, ranks
    clock = time.perf_counter
    times = {"build_s": 0.0, "rank_gf2_s": 0.0, "to_gfp_s": 0.0, "rank_gfp_s": 0.0}
    cases = mismatches = 0
    start = clock()
    for n in range(1, 13):
        for k in range(0, n // 2 + 1):
            for l in range(k, n - k + 1):
                t0 = clock()
                inc = ranks.build_inclusion_matrix(n, k, l)
                times["build_s"] += clock() - t0
                for p in (2, 3, 5):
                    t0 = clock()
                    if p == 2:
                        direct = gf2.rank_gf2(inc.matrix)
                        times["rank_gf2_s"] += clock() - t0
                    else:
                        m = inc.to_gfp(p)
                        t1 = clock()
                        direct = gf2.rank_gfp(m)
                        times["to_gfp_s"] += t1 - t0
                        times["rank_gfp_s"] += clock() - t1
                    mismatches += direct != ranks.wilson_rank(n, k, l, p)
                    cases += 1
    return {"seconds": clock() - start, "cases": cases, "mismatches": mismatches, **times}


def _cover_routes() -> dict:
    from oddtown import constructions, covers, setsystems
    cover = constructions.build_cover_43(20)
    start = time.perf_counter()
    by_cover = covers.verify_mod2_cover(cover).valid
    mid = time.perf_counter()
    by_tuple = setsystems.verify_bollobas_tuple(covers.cover_to_tuple(cover)).valid
    return {"cover_route_s": mid - start, "tuple_route_s": time.perf_counter() - mid,
            "valid": [by_cover, by_tuple], "products": len(cover)}


ITEMS = {
    "search-3-3-4": lambda: _search(3, 3, 4),
    "search-3-2-4": lambda: _search(3, 2, 4),
    "kneser-20-4": _kneser,
    "sweep-n12": _sweep,
    "cover43-20-routes": _cover_routes,
}


def _child(item: str) -> None:
    result = ITEMS[item]()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


def main() -> int:
    if not (ROOT / "src" / "oddtown" / "__init__.py").is_file():
        print("error: run from the root of an oddtown checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    record = {}
    for item in ITEMS:
        proc = subprocess.run([sys.executable, __file__, item], env=env, capture_output=True,
                              text=True, timeout=600, check=True)
        record[item] = json.loads(proc.stdout.splitlines()[-1])
        print(item, record[item], flush=True)
    argv = [sys.executable, "-m", "oddtown.cli", "search", "--k", "3", "--t", "3", "--n", "3"]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=600, check=True)
    record["cli-search-3-3-3"] = {"seconds": time.perf_counter() - start,
                                  "verdict": proc.stdout.splitlines()[-1]}
    print("cli-search-3-3-3", record["cli-search-3-3-3"])
    import run
    record["provenance"] = run.provenance(ROOT, {"probe": "reference"})
    out = HERE / "results" / f"reference-{os.getpid()}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 2:
        _child(sys.argv[1])
    else:
        sys.exit(main())
