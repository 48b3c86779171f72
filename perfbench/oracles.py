"""Answer checks that do not call into oddtown.

Each check reads an operation (as built by ``workloads.py``), its answer (exit
code, printed text, returned value) and the files it wrote, and returns an
error message or None.  The reference answers come from routes independent of
the code under test: known values, a closed form evaluated with ``math.comb``,
ranks by the benchmark's own elimination over GF(p) (checked against sympy in
``selftest.py``), a numpy parity grid for covers, and the violation cells
implied by a mutation site.
"""

from __future__ import annotations

import json
import random
import re
from itertools import combinations, product
from math import comb, factorial
from pathlib import Path

import numpy as np

VIOLATION_CAP = 16  # the verifiers report at most this many violations

# Known minimum cover sizes f(k,t,n) and certified intervals where f is open.
KNOWN_F = {(2, 2, 2): 2, (2, 2, 3): 2, (2, 2, 4): 4, (2, 2, 5): 4, (2, 2, 6): 6,
           (3, 2, 3): 4, (4, 2, 3): 4, (3, 3, 2): 0, (3, 3, 3): 5}
KNOWN_INTERVAL = {(3, 3, 4): (5, 13), (4, 3, 3): (6, 34)}
# Known largest ground sizes b(k,t,m).
KNOWN_B = {(2, 2, 2): 3, (2, 2, 3): 3, (2, 2, 4): 5}


def known_range(k: int, t: int, n: int) -> tuple[int, int]:
    if (k, t, n) in KNOWN_F:
        v = KNOWN_F[(k, t, n)]
        return v, v
    return KNOWN_INTERVAL[(k, t, n)]


# --- independent routes -----------------------------------------------------

def inclusion_rank(n: int, k: int, l: int, p: int) -> int:
    """F_p rank of the k-subset vs l-subset inclusion matrix, k <= min(l, n-l)
    (Wilson's diagonal form), with the binomial coefficients taken directly."""
    return sum(comb(n, i) - (comb(n, i - 1) if i else 0)
               for i in range(k + 1) if comb(l - i, k - i) % p)


def _colex(n: int, k: int) -> list[int]:
    return sorted(sum(1 << (e - 1) for e in c) for c in combinations(range(1, n + 1), k))


def mstar_matrix(n: int, k: int, p: int, seed: int) -> list[list[int]]:
    """The random-entry inclusion pattern the ``rank --mstar`` probe documents:
    k-subsets vs (n-k)-subsets in colex order, entries drawn row by row from
    [1, p-1] at incidences with ``random.Random(seed)``."""
    rng = random.Random(seed)
    cols = _colex(n, n - k)
    return [[rng.randrange(1, p) if r & c == r else 0 for c in cols] for r in _colex(n, k)]


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p): Gaussian elimination on the rows that are still nonzero
    in the pivot column, restricted to the columns right of the pivot."""
    a = np.array(rows, dtype=np.int64) % p
    rank = 0
    for col in range(a.shape[1]):
        nonzero = rank + np.flatnonzero(a[rank:, col])
        if nonzero.size == 0:
            continue
        a[[rank, nonzero[0]]] = a[[nonzero[0], rank]]
        a[rank, col:] = a[rank, col:] * pow(int(a[rank, col]), -1, p) % p
        below = rank + 1 + np.flatnonzero(a[rank + 1:, col])
        a[below, col:] = (a[below, col:] - np.outer(a[below, col], a[rank, col:])) % p
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def sympy_rank_mod_p(rows: list[list[int]], p: int) -> int:
    """sympy's rank over GF(p); seconds per probe matrix, so only the self-test uses it."""
    from sympy import GF, ZZ
    from sympy.polys.matrices import DomainMatrix

    m = DomainMatrix(rows, (len(rows), len(rows[0])), ZZ).to_sparse().convert_to(GF(p))
    return int(m.rank())


def cover_valid(cover: dict) -> bool:
    """Parity of every cell of [n]^k against the >= t distinct target, on a numpy grid."""
    n, k, t = cover["n"], cover["k"], cover["t"]
    if n == 0:
        return True
    grid = np.zeros((n,) * k, dtype=np.uint8)
    for prod in cover["products"]:
        grid[np.ix_(*[np.asarray(part) - 1 for part in prod])] ^= 1
    idx = np.sort(np.indices((n,) * k).reshape(k, -1), axis=0)
    distinct = 1 + np.count_nonzero(np.diff(idx, axis=0), axis=0)
    return bool(np.array_equal(grid.reshape(-1), (distinct >= t).astype(np.uint8)))


def _bits(s: list[int]) -> int:
    return sum(1 << (e - 1) for e in s)


def tuple_valid(system: dict) -> bool:
    """k-wise intersections even exactly when fewer than t indices are distinct."""
    fams = [[_bits(s) for s in fam] for fam in system["families"]]
    full = (1 << system["n"]) - 1
    for idx in product(range(system["m"]), repeat=system["k"]):
        acc = full
        for j, i in enumerate(idx):
            acc &= fams[j][i]
        if (acc.bit_count() % 2 == 0) != (len(set(idx)) < system["t"]):
            return False
    return True


def kt_valid(family: dict, k: int, t: int) -> bool:
    """d-wise intersections odd for d < t and even for t <= d <= k."""
    sets = [_bits(s) for s in family["sets"]]
    for d in range(1, min(k, len(sets)) + 1):
        for idx in combinations(sets, d):
            acc = idx[0]
            for s in idx[1:]:
                acc &= s
            if (acc.bit_count() % 2 == 1) != (d < t):
                return False
    return True


def cover_to_tuple_text(cover: dict) -> str:
    """Canonical file text of the set-tuple correspondent of a cover."""
    families = [[[s + 1 for s, p in enumerate(cover["products"]) if i in p[j]]
                 for i in range(1, cover["n"] + 1)] for j in range(cover["k"])]
    system = {"n": len(cover["products"]), "k": cover["k"], "t": cover["t"], "m": cover["n"],
              "families": families}
    return json.dumps(system) + "\n"


def mutation_witnesses(cover: dict, site: dict, route: str) -> list[str]:
    """Violation lines of a valid cover with one element dropped from one part.

    Exactly the cells of the mutated product's box with the removed value
    pinned change parity; the verifiers list them in lexicographic order.
    """
    parts = [sorted(part) for part in cover["products"][site["product"]]]
    parts[site["coord"]] = [site["value"]]
    lines = []
    for cell in product(*parts):
        if len(lines) == VIOLATION_CAP:
            break
        edge = len(set(cell)) >= cover["t"]
        observed = 0 if edge else 1
        if route == "cover":
            want = "odd coverage" if edge else "even coverage"
        else:
            want = "odd intersection" if edge else "even intersection"
        lines.append(f"violation at {cell}: observed {observed}, expected {want}")
    if len(lines) == VIOLATION_CAP:
        lines.append("(violation list truncated)")
    return lines


# --- checks -----------------------------------------------------------------

_EXACT = re.compile(r"exact k=(\d+) t=(\d+) n=(\d+) f=(\d+) rank-bound=(\d+)")
_INTERVAL = re.compile(r"interval k=(\d+) t=(\d+) n=(\d+) lower=(\d+) upper=(\d+|\?)")
_EXACT_B = re.compile(r"exact-b k=(\d+) t=(\d+) m=(\d+) b=(\d+)")
_INTERVAL_B = re.compile(r"interval-b k=(\d+) t=(\d+) m=(\d+) at-least=(\d+)")
_MSTAR = re.compile(r"mstar n=(\d+) k=(\d+) p=(\d+) seed=(-?\d+) rank=(\d+)")


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _lines(answer: dict) -> list[str]:
    return answer["out"].splitlines()


def _last(answer: dict) -> str:
    lines = _lines(answer)
    return lines[-1] if lines else ""


def _check_search_n(c: dict, ans: dict, ctx: dict, extra: dict | None):
    k, t, n = c["k"], c["t"], c["n"]
    lo, hi = known_range(k, t, n)
    last = _last(ans)
    if m := _EXACT.fullmatch(last):
        got_ktn, f, rank_bound = tuple(map(int, m.groups()[:3])), int(m[4]), int(m[5])
        if got_ktn != (k, t, n):
            return f"parameters echoed as {got_ktn}"
        if not lo <= f <= hi:
            return f"exact value {f} outside the known range [{lo}, {hi}]"
        if rank_bound > f:
            return f"rank bound {rank_bound} above the exact value {f}"
        if c["witness"] is not None:
            if not Path(c["witness"]).is_file():
                return "witness file missing"
            w = _load(c["witness"])
            if (w["n"], w["k"], w["t"]) != (n, k, t) or len(w["products"]) != f:
                return "witness has the wrong shape or size"
            if not cover_valid(w):
                return "witness is not a valid cover"
        return None
    if m := _INTERVAL.fullmatch(last):
        got_ktn, lower, upper = tuple(map(int, m.groups()[:3])), int(m[4]), m[5]
        if got_ktn != (k, t, n):
            return f"parameters echoed as {got_ktn}"
        if lower > hi:
            return f"certified lower bound {lower} above the known value {hi}"
        if upper == "?":
            if extra is None or not cover_valid(extra):
                return "no verified constructive cover for the open upper end"
            upper = len(extra["products"])
        else:
            upper = int(upper)
            if upper < max(lo, lower):
                return f"certified upper bound {upper} below the lower end {max(lo, lower)}"
        ctx["open_gap"] += upper - lower
        return None
    return f"unexpected verdict {last!r}"


def _check_search_b(c: dict, ans: dict):
    want = KNOWN_B[(c["k"], c["t"], c["m"])]
    last = _last(ans)
    if m := _EXACT_B.fullmatch(last):
        return None if int(m[4]) == want else f"b={m[4]}, known {want}"
    if m := _INTERVAL_B.fullmatch(last):
        return None if int(m[4]) <= want else f"at-least={m[4]} above the known {want}"
    return f"unexpected verdict {last!r}"


def _check_table(c: dict, ans: dict):
    n_values = list(range(c["n_min"], c["n_max"] + 1))
    if _lines(ans)[-1:] != [f"rows={len(n_values)} out={c['rows']}"]:
        return "unexpected verdict"
    text = Path(c["rows"]).read_text(encoding="utf-8")
    rows = [line.split("\t") for line in text.splitlines() if not line.startswith("#")]
    if [int(r[2]) for r in rows] != n_values:
        return "rows do not list the requested ground sizes"
    for r in rows:
        k, t, n, lower, upper, constructive = map(int, r[:6])
        lo, hi = known_range(k, t, n)
        if (k, t) != (c["k"], c["t"]) or not lower <= constructive <= upper:
            return f"row {r} is inconsistent"
        if lower > hi or constructive < lo:
            return f"row {r} contradicts the known range [{lo}, {hi}]"
        if r[6] and not lo <= int(r[6]) <= hi:
            return f"row {r} reports an exact value outside [{lo}, {hi}]"
    return None


def _expect(ans: dict, lines: list[str], rc: int):
    if ans["rc"] != rc:
        return f"exit code {ans['rc']}, expected {rc}"
    if _lines(ans) != lines:
        return f"printed {_lines(ans)[:3]!r}, expected {lines[:3]!r}"
    return None


def _expect_rc0(ans: dict):
    return None if ans["rc"] == 0 else f"exit code {ans['rc']}"


def _cover_verdict(cover: dict, valid: bool) -> str:
    return (f"{'valid' if valid else 'invalid'} n={cover['n']} k={cover['k']} t={cover['t']} "
            f"size={len(cover['products'])}")


def _tuple_verdict(system: dict, valid: bool) -> str:
    return f"{'valid' if valid else 'invalid'} m={system['m']} n={system['n']}"


def _check_construct(c: dict, ans: dict):
    err = _expect(ans, [f"ok name={c['name']} size={c['size']} out={c['file']}"], 0)
    if err:
        return err
    obj = _load(c["file"])
    if "products" in obj:
        ok = len(obj["products"]) == c["size"] and cover_valid(obj)
    elif "families" in obj:
        ok = obj["m"] == c["size"] and tuple_valid(obj)
    else:
        ok = len(obj["sets"]) == c["size"] and kt_valid(obj, c["k"], c["t"])
    return None if ok else "constructed file is not a valid object of the stated size"


def check(op: dict, ans: dict, ctx: dict, extra: dict | None = None):
    """Error message for a wrong answer, or None.  ``ctx["open_gap"]`` collects
    the open gap of minimum-cover searches."""
    if ans["error"] is not None:
        return ans["error"]
    c = op["check"]
    kind = c["type"]
    if kind == "search-n":
        return _expect_rc0(ans) or _check_search_n(c, ans, ctx, extra)
    if kind == "search-b":
        return _expect_rc0(ans) or _check_search_b(c, ans)
    if kind == "table":
        return _expect_rc0(ans) or _check_table(c, ans)
    if kind == "sweep":
        want = inclusion_rank(c["n"], c["k"], c["l"], c["p"])
        got = ans["value"]
        if got != {"formula": want, "direct": want}:
            return f"ranks {got}, expected {want}"
        return None
    if kind == "kneser":
        want = inclusion_rank(c["n"], c["k"], c["n"] - c["k"], 2)
        return None if ans["value"] == {"direct": want} else f"rank {ans['value']}, expected {want}"
    if kind == "mstar":
        lines = _lines(ans)
        m = _MSTAR.fullmatch(lines[-1]) if lines else None
        if ans["rc"] != 0 or m is None or len(lines) != 2:
            return "unexpected mstar output"
        if tuple(map(int, m.groups()[:4])) != (c["n"], c["k"], c["p"], c["seed"]):
            return "mstar parameters echoed wrongly"
        want = rank_mod_p(mstar_matrix(c["n"], c["k"], c["p"], c["seed"]), c["p"])
        return None if int(m[5]) == want else f"rank={m[5]}, expected {want}"
    if kind == "construct":
        return _check_construct(c, ans)
    if kind == "verify-cover":
        cover = _load(c["file"])
        valid = cover_valid(cover)
        return _expect(ans, [_cover_verdict(cover, valid)], 0 if valid else 1)
    if kind == "to-tuple":
        err = _expect(ans, [f"ok direction=cover-to-tuple out={c['dst']}"], 0)
        if err:
            return err
        want = cover_to_tuple_text(_load(c["src"]))
        return None if Path(c["dst"]).read_text(encoding="utf-8") == want else "tuple file differs"
    if kind == "verify-tuple":
        system = _load(c["file"])
        valid = cover_valid(_load(c["cover"])) if c["cover"] else tuple_valid(system)
        return _expect(ans, [_tuple_verdict(system, valid)], 0 if valid else 1)
    if kind == "to-cover":
        err = _expect(ans, [f"ok direction=tuple-to-cover out={c['dst']}"], 0)
        if err:
            return err
        same = Path(c["dst"]).read_bytes() == Path(c["expect"]).read_bytes()
        return None if same else "round trip changed the cover file"
    if kind == "parity-diff":
        equal = c["equal"]
        return _expect(ans, [f"parity-diff equal={'yes' if equal else 'no'}"], 0 if equal else 1)
    if kind == "verify-kt":
        family = _load(c["file"])
        valid = kt_valid(family, c["k"], c["t"])
        verdict = (f"{'valid' if valid else 'invalid'} m={len(family['sets'])} n={family['n']} "
                   f"k={c['k']} t={c['t']}")
        return _expect(ans, [verdict], 0 if valid else 1)
    if kind == "verify-bad":
        cover = _load(c["file"])
        lines = mutation_witnesses(cover, c, c["route"])
        if c["route"] == "cover":
            verdict = _cover_verdict(cover, False)
        else:
            verdict = f"invalid m={cover['n']} n={len(cover['products'])}"
        return _expect(ans, lines + [verdict], 1)
    if kind == "biclique":
        want = {"valid": True, "violations": 0,
                "bicliques": factorial(c["k"]) * comb(c["n"], c["k"])}
        return None if ans["value"] == want else f"biclique report {ans['value']}, expected {want}"
    return f"no oracle for {kind}"
