"""Command-line front end: verify, construct, convert, rank, search, table.

Exit codes: 0 success/valid, 1 verification failed, 2 usage or input error,
3 internal inconsistency.  The last output line is a one-line machine-parsable
verdict.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from math import comb
from typing import Callable, Optional, Sequence

from . import constructions, covers, fileio, ranks, search, setsystems
from .gf2 import InternalCheckError, rank_gf2, rank_gfp

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


def _print_report(report: setsystems.VerifyReport) -> None:
    for v in report.violations:
        print(f"violation at {v.indices}: observed {v.observed}, expected {v.expected}")
    if report.truncated:
        print("(violation list truncated)")


def _cmd_verify(args: argparse.Namespace) -> int:
    kind = args.kind
    if args.parity_diff is not None:
        if kind != "cover":
            raise UsageError("--parity-diff applies to covers")
        a = fileio.load_cover(args.file)
        b = fileio.load_cover(args.parity_diff)
        equal = covers.parity_functions_equal(a, b)
        print(f"parity-diff equal={'yes' if equal else 'no'}")
        return EXIT_OK if equal else EXIT_INVALID

    if kind == "family-oddtown":
        fam = fileio.load_family(args.file)
        report = setsystems.verify_oddtown(fam)
        verdict_tail = f"m={len(fam)} n={fam.ground_size}"
    elif kind == "family-kt":
        if args.k is None or args.t is None:
            raise UsageError("family-kt needs --k and --t")
        fam = fileio.load_family(args.file)
        report = setsystems.verify_kt_oddtown(fam, args.k, args.t)
        verdict_tail = f"m={len(fam)} n={fam.ground_size} k={args.k} t={args.t}"
    elif kind == "skew":
        if args.second is None:
            raise UsageError("skew verification needs --second FAMILY")
        a = fileio.load_family(args.file)
        b = fileio.load_family(args.second)
        report = setsystems.verify_skew_oddtown(a, b)
        verdict_tail = f"m={len(a)} n={a.ground_size}"
    elif kind == "tuple":
        system = fileio.load_tuple(args.file)
        report = setsystems.verify_bollobas_tuple(system)
        verdict_tail = f"m={system.m} n={system.ground_size}"
    elif kind == "cover":
        cover = fileio.load_cover(args.file)
        report = covers.verify_mod2_cover(cover)
        verdict_tail = f"n={cover.n} k={cover.k} t={cover.t} size={len(cover)}"
    else:  # gp-cover
        cover = fileio.load_gp_cover(args.file)
        report = covers.verify_exact_gp_cover(cover)
        verdict_tail = f"n={cover.n} k={cover.k} size={len(cover)}"
    _print_report(report)
    print(f"{'valid' if report.valid else 'invalid'} {verdict_tail}")
    return EXIT_OK if report.valid else EXIT_INVALID


# name -> (options it needs besides --n, builder); the keys are the --name choices
_CONSTRUCTIONS = {
    "b22pair": ((), lambda a: constructions.build_b22_pair(a.n)),
    "ktfamily": (("t",), lambda a: constructions.build_kt_oddtown_family(a.t, a.n)),
    "partition-cover": (("k", "t"), lambda a: constructions.build_partition_cover(a.k, a.t, a.n)),
    "cover-t2": (("k",), lambda a: constructions.build_cover_t2(a.k, a.n)),
    "cover33": ((), lambda a: constructions.build_cover_33(a.n)),
    "cover43": ((), lambda a: constructions.build_cover_43(a.n)),
    "cover22": ((), lambda a: constructions.build_cover_22(a.n)),
    "trivial-gp": (("k",), lambda a: constructions.trivial_gp_cover(a.n, a.k)),
    "permuted-gp": (
        ("k",), lambda a: covers.permute_gp_cover(constructions.trivial_gp_cover(a.n, a.k))
    ),
}


def _verify_for_output(
    obj, args: argparse.Namespace
) -> tuple[setsystems.VerifyReport, Callable, int]:
    """Verifier report, saver and printed size for a constructed object."""
    if isinstance(obj, setsystems.TupleSystem):
        return setsystems.verify_bollobas_tuple(obj), fileio.save_tuple, obj.m
    if isinstance(obj, setsystems.SetFamily):
        k = args.k if args.k is not None else args.t
        report = setsystems.verify_kt_oddtown(obj, max(k, args.t), args.t)
        return report, fileio.save_family, len(obj)
    if isinstance(obj, covers.GpCover):
        return covers.verify_exact_gp_cover(obj), fileio.save_gp_cover, len(obj)
    return covers.verify_mod2_cover(obj), fileio.save_cover, len(obj)


def _cmd_construct(args: argparse.Namespace) -> int:
    needs, build = _CONSTRUCTIONS[args.name]
    if any(getattr(args, option) is None for option in needs):
        raise UsageError(f"{args.name} needs " + " and ".join(f"--{o}" for o in needs))
    obj = build(args)
    report, save, size = _verify_for_output(obj, args)
    if not report.valid:
        raise InternalCheckError("construction failed its verifier")
    save(obj, args.out)
    print(f"ok name={args.name} size={size} out={args.out}")
    return EXIT_OK


def _cmd_convert(args: argparse.Namespace) -> int:
    if args.direction == "cover-to-tuple":
        fileio.save_tuple(covers.cover_to_tuple(fileio.load_cover(args.infile)), args.out)
    else:  # tuple-to-cover
        fileio.save_cover(covers.tuple_to_cover(fileio.load_tuple(args.infile)), args.out)
    print(f"ok direction={args.direction} out={args.out}")
    return EXIT_OK


def _cmd_rank(args: argparse.Namespace) -> int:
    n, k, l, p = args.n, args.k, args.l, args.p
    if args.mstar:
        seed = args.seed if args.seed is not None else 0
        observed = ranks.mstar_observed_rank(n, k, p, seed)
        print("experimental random-entry inclusion pattern, no bound asserted")
        print(f"mstar n={n} k={k} p={p} seed={seed} rank={observed}")
        return EXIT_OK
    if l is None:
        raise UsageError("rank needs --l (unless --mstar)")
    formula = ranks.wilson_rank(n, k, l, p)
    print(f"n={n} k={k} l={l} p={p}")
    direct: Optional[int] = None
    if comb(n, k) * comb(n, l) <= ranks.MAX_DIRECT_ENTRIES:
        inc = ranks.build_inclusion_matrix(n, k, l)
        if p == 2:
            direct = rank_gf2(inc.matrix)
        else:
            direct = rank_gfp(inc.to_gfp(p))
    if direct is None:
        print(f"formula={formula} direct=skipped agree=unknown")
        return EXIT_OK
    agree = "yes" if formula == direct else "no"
    print(f"formula={formula} direct={direct} agree={agree}")
    if agree == "no":
        raise InternalCheckError("closed-form rank disagrees with elimination")
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    if args.m is not None:
        result = search.exact_b(args.k, args.t, args.m, budget=args.budget)
        if result.exact:
            print(f"exact-b k={args.k} t={args.t} m={args.m} b={result.value}")
        else:
            print(f"interval-b k={args.k} t={args.t} m={args.m} at-least={result.at_least}")
        return EXIT_OK
    if args.n is None:
        raise UsageError("search needs --n or --m")
    out = search.min_mod2_cover(args.k, args.t, args.n, budget=args.budget)
    if out.exact:
        if out.cover is not None and len(out.cover) == out.value and args.out:
            fileio.save_cover(out.cover, args.out)
        print(f"exact k={args.k} t={args.t} n={args.n} f={out.value} rank-bound={out.rank_bound}")
    else:
        hi = "?" if out.upper is None else out.upper
        print(f"interval k={args.k} t={args.t} n={args.n} lower={out.lower} upper={hi}")
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    n_values = list(range(args.n_min, args.n_max + 1))
    rows, notes = search.bounds_table(args.k, args.t, n_values, budget=args.budget)
    sys.stdout.write(search.format_table(rows, notes))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(search.machine_rows(rows, notes))
    print(f"rows={len(rows)} out={args.out or '-'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddtown",
        description="verify, construct, convert, and search parity set systems and covers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify an object file")
    p.add_argument("--kind", required=True,
                   choices=["family-oddtown", "family-kt", "skew", "tuple", "cover", "gp-cover"])
    p.add_argument("--file", required=True)
    p.add_argument("--second", help="second family for skew verification")
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--parity-diff", help="second cover: compare coverage parity instead")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("construct", help="emit a named construction")
    p.add_argument("--name", required=True, choices=_CONSTRUCTIONS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("convert", help="convert between covers and tuples")
    p.add_argument("--direction", required=True, choices=["cover-to-tuple", "tuple-to-cover"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("rank", help="closed-form vs direct inclusion-matrix rank")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--mstar", action="store_true",
                   help="experimental: random nonzero entries on the inclusion pattern")
    p.add_argument("--seed", type=int, help="seed for --mstar (default 0)")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("search", help="exact minimum cover size, or largest ground size")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--budget", type=int, default=search.DEFAULT_BUDGET)
    p.add_argument("--out", help="write the witness cover here")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("table", help="bounds table over a range of ground sizes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--budget", type=int, default=3)
    p.add_argument("--out", help="write the machine-readable rows here")
    p.set_defaults(func=_cmd_table)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: argparse reads no state from
    an earlier parse, and formats help and usage text when it prints them."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}")
        return EXIT_USAGE
    except fileio.FileFormatError as exc:
        print(f"error: malformed input: {exc}")
        return EXIT_USAGE
    except InternalCheckError as exc:
        print(f"internal inconsistency: {exc}")
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
