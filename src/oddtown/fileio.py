"""Canonical JSON file formats for families, tuple systems, and covers.

All element lists are 1-based and strictly increasing; field order is fixed
and every file ends with a newline, so a load/save cycle is byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .covers import GpCover, KPartiteProduct, Mod2Cover
from .setsystems import SetFamily, SubsetBits, TupleSystem

PathLike = Union[str, Path]


class FileFormatError(ValueError):
    """Malformed input file; the message carries the offending position."""


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise FileFormatError(f"{where}: {msg}")


def _as_int(value, where: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), where, "expected an integer")
    return value


def _parse_set(value, where: str, n: int) -> SubsetBits:
    _require(isinstance(value, list), where, "expected an array of elements")
    prev = bits = 0
    for pos, e in enumerate(value):
        if isinstance(e, bool) or not isinstance(e, int) or not prev < e <= n:
            at = f"{where}[{pos}]"  # formatted only for the error
            _as_int(e, at)
            _require(1 <= e <= n, at, f"element {e} outside [1, {n}]")
            raise FileFormatError(f"{at}: elements must be strictly increasing")
        bits |= 1 << (e - 1)
        prev = e
    return SubsetBits(n, bits)


def _dump(obj: dict, path: PathLike) -> None:
    Path(path).write_text(json.dumps(obj) + "\n", encoding="utf-8")


def _load_json(path: PathLike) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    _require(isinstance(data, dict), str(path), "top level must be an object")
    return data


def family_to_dict(family: SetFamily) -> dict:
    return {"n": family.ground_size, "sets": [list(s.elements()) for s in family.sets]}


def save_family(family: SetFamily, path: PathLike) -> None:
    _dump(family_to_dict(family), path)


def load_family(path: PathLike) -> SetFamily:
    data = _load_json(path)
    n = _as_int(data.get("n"), "n")
    sets = data.get("sets")
    _require(isinstance(sets, list), "sets", "expected an array of sets")
    return SetFamily(n, tuple(_parse_set(s, f"sets[{i}]", n) for i, s in enumerate(sets)))


def tuple_to_dict(system: TupleSystem) -> dict:
    return {
        "n": system.ground_size,
        "k": system.k,
        "t": system.t,
        "m": system.m,
        "families": [[list(s.elements()) for s in fam] for fam in system.families],
    }


def save_tuple(system: TupleSystem, path: PathLike) -> None:
    _dump(tuple_to_dict(system), path)


def load_tuple(path: PathLike) -> TupleSystem:
    data = _load_json(path)
    n = _as_int(data.get("n"), "n")
    k = _as_int(data.get("k"), "k")
    t = _as_int(data.get("t"), "t")
    m = _as_int(data.get("m"), "m")
    families = data.get("families")
    _require(isinstance(families, list) and len(families) == k, "families", f"expected {k} families")
    parsed = []
    for j, fam in enumerate(families):
        where = f"families[{j}]"
        _require(isinstance(fam, list) and len(fam) == m, where, f"expected {m} sets")
        parsed.append(tuple(_parse_set(s, f"{where}[{i}]", n) for i, s in enumerate(fam)))
    return TupleSystem(k, t, m, n, tuple(parsed))


def _products_to_lists(products) -> list:
    return [[list(part.elements()) for part in p.parts] for p in products]


def _parse_products(data, where: str, n: int, k: int) -> tuple[KPartiteProduct, ...]:
    _require(isinstance(data, list), where, "expected an array of products")
    out = []
    for s, prod in enumerate(data):
        pw = f"{where}[{s}]"
        _require(isinstance(prod, list) and len(prod) == k, pw, f"expected {k} parts")
        parts = tuple(_parse_set(part, f"{pw}[{j}]", n) for j, part in enumerate(prod))
        _require(all(p.bits for p in parts), pw, "parts must be nonempty")
        out.append(KPartiteProduct(parts))
    return tuple(out)


def cover_to_dict(cover: Mod2Cover) -> dict:
    return {
        "n": cover.n,
        "k": cover.k,
        "t": cover.t,
        "products": _products_to_lists(cover.products),
    }


def save_cover(cover: Mod2Cover, path: PathLike) -> None:
    _dump(cover_to_dict(cover), path)


def load_cover(path: PathLike) -> Mod2Cover:
    data = _load_json(path)
    n = _as_int(data.get("n"), "n")
    k = _as_int(data.get("k"), "k")
    t = _as_int(data.get("t"), "t")
    return Mod2Cover(k, t, n, _parse_products(data.get("products"), "products", n, k))


def gp_cover_to_dict(cover: GpCover) -> dict:
    return {"n": cover.n, "k": cover.k, "products": _products_to_lists(cover.products)}


def save_gp_cover(cover: GpCover, path: PathLike) -> None:
    _dump(gp_cover_to_dict(cover), path)


def load_gp_cover(path: PathLike) -> GpCover:
    data = _load_json(path)
    _require("t" not in data, "t", "a disjoint-product cover file carries no t field")
    n = _as_int(data.get("n"), "n")
    k = _as_int(data.get("k"), "k")
    products = _parse_products(data.get("products"), "products", n, k)
    try:
        return GpCover(k, n, products)
    except ValueError as exc:
        raise FileFormatError(f"products: {exc}") from exc
