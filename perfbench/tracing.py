"""Span tracing of oddtown's public functions, installed from outside the package.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds the name in
every ``oddtown`` module that holds it (the defining module and each module
that imported it), or on the class for methods.  ``uninstall`` restores the
originals.  Each call records a span (name, start, end, parent span, operation)
in memory; ``rollup`` turns the spans of one batch into per-layer self times.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict


def _matrix_entries(args, kwargs, result):
    m = args[0]
    return {"entries": m.rows * m.cols}


def _columns(args, kwargs, result):
    return {"search.columns": result.num_columns}


def _levels(args, kwargs, result):
    lo_hi = result.levels_exhausted
    return {"search.levels_searched": 0 if lo_hi is None else lo_hi[1] - lo_hi[0] + 1,
            "search.presolve_levels": max(0, result.rank_bound - 1)}


def _cells(args, kwargs, result):
    c = args[0]
    return {"cells": c.n ** c.k * len(c.products)}


def _index_tuples(args, kwargs, result):
    s = args[0]
    return {"index_tuples": s.m ** s.k}


def _bytes_read(args, kwargs, result):
    return {"fileio.bytes_read": os.path.getsize(args[0] if args else kwargs["path"])}


def _bytes_written(args, kwargs, result):
    return {"fileio.bytes_written": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


_LOADS = ("load_family", "load_tuple", "load_cover", "load_gp_cover")
_SAVES = ("save_family", "save_tuple", "save_cover", "save_gp_cover")
_BUILDS = ("build_b22_pair", "build_kt_oddtown_family", "build_partition_cover", "build_cover_t2",
           "build_cover_33", "build_cover_43", "build_cover_22", "trivial_gp_cover")

# layer name, module, attributes (``Class.method`` for methods), counter function.
# A counter key without a dot is prefixed with the layer name.
TARGETS = (
    ("gf2.rank_gfp", "gf2", ("rank_gfp",), _matrix_entries),
    ("gf2.GfpMatrix", "gf2", ("GfpMatrix.from_rows",), None),
    ("ranks.to_gfp", "ranks", ("InclusionMatrix.to_gfp",), None),
    ("gf2.rank_gf2", "gf2", ("rank_gf2",), _matrix_entries),
    ("ranks.kneser_adjacency", "ranks", ("kneser_adjacency",), None),
    ("ranks.build_inclusion_matrix", "ranks", ("build_inclusion_matrix",), None),
    ("ranks.wilson_rank", "ranks", ("wilson_rank",), None),
    ("ranks.mstar_observed_rank", "ranks", ("mstar_observed_rank",), None),
    ("search.min_mod2_cover", "search", ("min_mod2_cover",), _levels),
    ("search.build_search_instance", "search", ("build_search_instance",), _columns),
    ("search.flattening_rank_bound", "search", ("flattening_rank_bound",), None),
    ("search.exact_b", "search", ("exact_b",), None),
    ("search.bounds_table", "search", ("bounds_table",), None),
    ("search.best_constructive_cover", "search", ("best_constructive_cover",), None),
    ("covers.verify_mod2_cover", "covers", ("verify_mod2_cover",), _cells),
    ("covers.parity_functions_equal", "covers", ("parity_functions_equal",), None),
    ("covers.cover_to_tuple", "covers", ("cover_to_tuple",), None),
    ("covers.tuple_to_cover", "covers", ("tuple_to_cover",), None),
    ("covers.verify_ok_biclique_cover", "covers", ("verify_ok_biclique_cover",), None),
    ("covers.permute_gp_cover", "covers", ("permute_gp_cover",), None),
    ("setsystems.verify_bollobas_tuple", "setsystems", ("verify_bollobas_tuple",), _index_tuples),
    ("setsystems.verify_kt_oddtown", "setsystems", ("verify_kt_oddtown",), None),
    ("constructions", "constructions", _BUILDS, None),
    ("fileio.load", "fileio", _LOADS, _bytes_read),
    ("fileio.save", "fileio", _SAVES, _bytes_written),
    ("cli.main", "cli", ("main",), None),
)

LAYERS = tuple(t[0] for t in TARGETS)

# Counters summed over calls; keys as they appear in the per-layer metrics.
COUNTERS = ("gf2.rank_gfp.entries", "gf2.rank_gf2.entries", "search.columns",
            "search.levels_searched", "search.presolve_levels", "covers.verify_mod2_cover.cells",
            "setsystems.verify_bollobas_tuple.index_tuples", "fileio.bytes_read",
            "fileio.bytes_written")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer index, start, end, parent span or -1, operation]
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: int, name: str, func, count):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1:3] = (start, end)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counters[key if "." in key else f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "oddtown" or key.startswith("oddtown."))]
        for layer, (name, module, attrs, count) in enumerate(TARGETS):
            home = sys.modules[f"oddtown.{module}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(layer, name, raw.__func__, count))
                    else:
                        new = self._wrap(layer, name, raw, count)
                    self._restore.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                orig = getattr(home, attr)
                new = self._wrap(layer, name, orig, count)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, key, orig))
                            setattr(mod, key, new)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()


def rollup(spans: list[list], op_times: list[list[float]], wall: float) -> dict:
    """Per-layer self time and call count for one traced batch.

    A span's self time is its duration minus the durations of its child spans.
    ``bench.other_s`` is measured separately, as each operation's time outside
    its top-level spans plus the batch time outside any operation, so the
    check that layer self times plus ``bench.other_s`` add up to the batch wall
    time fails if spans do not nest.  Raises ValueError on such a failure.
    """
    self_s = [0.0] * len(LAYERS)
    calls = [0] * len(LAYERS)
    child = [0.0] * len(spans)
    top = [0.0] * len(op_times)
    for layer, start, end, parent, op in spans:
        if parent >= 0:
            p = spans[parent]
            if not (p[1] <= start <= end <= p[2]) or p[4] != op:
                raise ValueError(f"span of {LAYERS[layer]} escapes its parent {LAYERS[p[0]]}")
            child[parent] += end - start
        else:
            o_start, o_end = op_times[op]
            if not (o_start <= start <= end <= o_end):
                raise ValueError(f"span of {LAYERS[layer]} escapes its operation")
            top[op] += end - start
    for i, (layer, start, end, _, _) in enumerate(spans):
        self_s[layer] += (end - start) - child[i]
        calls[layer] += 1
    other = wall - sum(e - s for s, e in op_times)
    other += sum((e - s) - t for (s, e), t in zip(op_times, top))
    total = sum(self_s) + other
    if abs(total - wall) > 1e-6 * max(1.0, wall):
        raise ValueError(f"layer self times plus other ({total}) differ from the wall time ({wall})")
    out = {"bench.other_s": other}
    for layer, name in enumerate(LAYERS):
        out[f"{name}.self_s"] = self_s[layer]
        out[f"{name}.calls"] = calls[layer]
    return out
