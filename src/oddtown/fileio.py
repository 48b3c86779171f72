"""Canonical JSON file formats for families, tuple systems, and covers.

All element lists are 1-based and strictly increasing; field order is fixed
and every file ends with a newline, so a load/save cycle is byte-identical.
"""

from __future__ import annotations

import json
from itertools import chain
from math import prod
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .covers import GpCover, Mod2Cover
from .gf2 import InternalCheckError
from .setsystems import SetFamily, TupleSystem, _element_lists, _frozen

PathLike = Union[str, Path]

MAX_PACKED_BYTES = 1 << 24  # largest load: one row of ceil(n/8) bytes per set or part


class FileFormatError(ValueError):
    """Malformed input file; the message carries the offending position."""


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise FileFormatError(f"{where}: {msg}")


def _as_int(value, where: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), where, "expected an integer")
    return value


def _walk_set(value, where: str, n: int) -> None:
    """Raise the message for the first bad element of one set, if any."""
    _require(isinstance(value, list), where, "expected an array of elements")
    prev = 0
    for pos, e in enumerate(value):
        if isinstance(e, bool) or not isinstance(e, int) or not prev < e <= n:
            at = f"{where}[{pos}]"  # formatted only for the error
            _as_int(e, at)
            _require(1 <= e <= n, at, f"element {e} outside [1, {n}]")
            raise FileFormatError(f"{at}: elements must be strictly increasing")
        prev = e


def _pack_sets(sets: list, n: int) -> Optional[np.ndarray]:
    """The element lists as (len(sets), ceil(n/8)) rows in the ``gf2._row_bytes``
    layout, from one vector pass; None unless every set is a list of strictly
    increasing ints in [1, n] (bools, floats and ints beyond int64 are refused)."""
    if not set(map(type, sets)) <= {list}:
        return None
    flat = list(chain.from_iterable(sets))
    if not set(map(type, flat)) <= {int}:
        return None
    try:
        e = np.array(flat, dtype=np.int64) - 1  # the bit of each element
    except OverflowError:
        return None
    width = max(0, (n + 7) // 8)
    lens = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    bit = np.repeat(np.arange(len(sets)) * 8 * width, lens) + e  # in the whole array
    if e.size and (e.min() < 0 or e.max() >= n or (np.diff(bit) <= 0).any()):
        return None  # with every bit in its row, bit rises exactly when each set does
    out = np.zeros(len(sets) * width, dtype=np.uint8)
    np.bitwise_or.at(out, bit >> 3, (1 << (bit & 7)).astype(np.uint8))
    return out.reshape(len(sets), width)


def _parse_sets(groups, shape: tuple, n: int, noun: str) -> np.ndarray:
    """The sets of the lists that ``groups()`` yields, each with its position (a
    name and indices), packed by one vector pass into a read-only array of
    ``shape`` sets; ``groups`` raises its structural errors in place.  Where the
    pass rejects, walking the sets in file order raises the message for the
    first bad position."""
    count = prod(shape)
    if count * ((n + 7) // 8) > MAX_PACKED_BYTES:
        raise ValueError(f"{count} {noun} of {(n + 7) // 8} bytes each exceed the load limit "
                         f"of {MAX_PACKED_BYTES} bytes")
    try:
        rows = _pack_sets(list(chain.from_iterable(group for group, _ in groups())), n)
    except ValueError:
        rows = None
    if rows is None:
        for group, (name, *indices) in groups():
            where = name + "".join(f"[{i}]" for i in indices)
            for i, s in enumerate(group):
                _walk_set(s, f"{where}[{i}]", n)
        raise InternalCheckError("the vector pass rejected a file the walk accepts")
    return _frozen(rows.reshape(*shape, rows.shape[1]))


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
    return {"n": family.ground_size, "sets": _element_lists(family.rows)}


def save_family(family: SetFamily, path: PathLike) -> None:
    _dump(family_to_dict(family), path)


def load_family(path: PathLike) -> SetFamily:
    data = _load_json(path)
    n = _as_int(data.get("n"), "n")
    sets = data.get("sets")
    _require(isinstance(sets, list), "sets", "expected an array of sets")
    return SetFamily(n, rows=_parse_sets(lambda: [(sets, ("sets",))], (len(sets),), n, "sets"))


def tuple_to_dict(system: TupleSystem) -> dict:
    return {"n": system.ground_size, "k": system.k, "t": system.t, "m": system.m,
            "families": _element_lists(system.rows)}


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

    def groups():
        for j, fam in enumerate(families):
            _require(isinstance(fam, list) and len(fam) == m, f"families[{j}]", f"expected {m} sets")
            yield fam, ("families", j)

    rows = _parse_sets(groups, (k, max(m, 0)), n, "sets")  # k = 0: no sets, m unchecked
    return TupleSystem(k, t, m, n, rows=rows)


def _parse_products(data, where: str, n: int, k: int) -> np.ndarray:
    """The (S, k, ceil(n/8)) parts array of the products."""
    _require(isinstance(data, list), where, "expected an array of products")

    def groups():  # the positions are formatted only for an error
        for s, prod in enumerate(data):
            if not (isinstance(prod, list) and len(prod) == k):
                raise FileFormatError(f"{where}[{s}]: expected {k} parts")
            yield prod, (where, s)
            if not all(prod):
                raise FileFormatError(f"{where}[{s}]: parts must be nonempty")
            if not prod:
                raise ValueError("a product needs at least one part")

    return _parse_sets(groups, (len(data), max(k, 0)), n, "parts")  # k < 1: no products


def cover_to_dict(cover: Mod2Cover) -> dict:
    return {"n": cover.n, "k": cover.k, "t": cover.t, "products": _element_lists(cover.parts)}


def save_cover(cover: Mod2Cover, path: PathLike) -> None:
    _dump(cover_to_dict(cover), path)


def load_cover(path: PathLike) -> Mod2Cover:
    data = _load_json(path)
    n = _as_int(data.get("n"), "n")
    k = _as_int(data.get("k"), "k")
    t = _as_int(data.get("t"), "t")
    return Mod2Cover(k, t, n, parts=_parse_products(data.get("products"), "products", n, k))


def gp_cover_to_dict(cover: GpCover) -> dict:
    return {"n": cover.n, "k": cover.k, "products": _element_lists(cover.parts)}


def save_gp_cover(cover: GpCover, path: PathLike) -> None:
    _dump(gp_cover_to_dict(cover), path)


def load_gp_cover(path: PathLike) -> GpCover:
    data = _load_json(path)
    _require("t" not in data, "t", "a disjoint-product cover file carries no t field")
    n = _as_int(data.get("n"), "n")
    k = _as_int(data.get("k"), "k")
    parts = _parse_products(data.get("products"), "products", n, k)
    try:
        return GpCover(k, n, parts=parts)
    except ValueError as exc:
        raise FileFormatError(f"products: {exc}") from exc
