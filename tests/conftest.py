"""Shared fixtures: randomized valid families and the cover fixture pool."""

from __future__ import annotations

import argparse
import random

import pytest

from oddtown import (
    Mod2Cover,
    SetFamily,
    SubsetBits,
    build_cover_22,
    build_cover_33,
    build_cover_43,
    build_cover_t2,
    build_partition_cover,
    permute_gp_cover,
    trivial_gp_cover,
)
from oddtown.cli import build_parser


def random_odd_subset(rng: random.Random, n: int) -> SubsetBits:
    bits = rng.getrandbits(n)
    if bits.bit_count() % 2 == 0:
        flip = rng.randrange(n)
        bits ^= 1 << flip
    return SubsetBits(n, bits)


def greedy_oddtown_family(rng: random.Random, n: int, attempts: int = 60) -> SetFamily:
    """Randomized greedy builder: keep odd sets whose pairwise parities stay even."""
    chosen: list[SubsetBits] = []
    for _ in range(attempts):
        cand = random_odd_subset(rng, n)
        if cand.bits == 0:
            continue
        if all((cand.bits & s.bits).bit_count() % 2 == 0 for s in chosen):
            chosen.append(cand)
    return SetFamily(n, tuple(chosen))


def fixture_covers() -> list[Mod2Cover]:
    """Valid covers across the (k, t, n) test envelope; at least ten of them."""
    pool: list[Mod2Cover] = []
    for n in (2, 3, 4):
        pool.append(build_cover_22(n))
        pool.append(build_cover_t2(3, n))
        pool.append(build_cover_33(n))
        pool.append(build_cover_43(n))
        pool.append(build_partition_cover(4, 2, n))
    pool.append(build_partition_cover(3, 3, 3))
    pool.append(build_partition_cover(4, 3, 3))
    pool.append(build_partition_cover(4, 4, 3))
    pool.append(permute_gp_cover(trivial_gp_cover(4, 3)))
    pool.append(permute_gp_cover(trivial_gp_cover(4, 4)))
    return pool


@pytest.fixture(scope="session")
def cover_pool() -> list[Mod2Cover]:
    return fixture_covers()


@pytest.fixture
def construct_names() -> list[str]:
    """The ``construct --name`` choices of the command-line parser, in order."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (name,) = [a for a in commands.choices["construct"]._actions if a.dest == "name"]
    return list(name.choices)
