"""The commands of the ``search`` benchmark workload, pinned byte for byte:
stdout, exit code, and the sha256 of the witness and rows files they write;
and one digest over the search outcomes of every small instance.

A refactor of the search that changes any output fails here, not only in the
benchmark's oracles.  A value here changes only with a record in CHANGES.md.
"""

import hashlib
import shlex

from oddtown import search
from oddtown.cli import main

ERRATUM = (
    "note: for (k,t)=(2,2) the published case split (n odd -> n, n even -> n-1) contradicts "
    "the underlying pair sizes (n even -> n+1, n odd -> n); exact search confirms the corrected "
    "pattern 2, 2, 4, 4, 6 shown in this table.\n"
)

COMMANDS = [
    ("search --k 2 --t 2 --n 2", "exact k=2 t=2 n=2 f=2 rank-bound=2\n"),
    ("search --k 2 --t 2 --n 3", "exact k=2 t=2 n=3 f=2 rank-bound=2\n"),
    ("search --k 2 --t 2 --n 4", "exact k=2 t=2 n=4 f=4 rank-bound=4\n"),
    ("search --k 2 --t 2 --n 5", "exact k=2 t=2 n=5 f=4 rank-bound=4\n"),
    ("search --k 2 --t 2 --n 6", "exact k=2 t=2 n=6 f=6 rank-bound=6\n"),
    ("search --k 2 --t 2 --m 2", "exact-b k=2 t=2 m=2 b=3\n"),
    ("search --k 2 --t 2 --m 3", "exact-b k=2 t=2 m=3 b=3\n"),
    ("search --k 2 --t 2 --m 4", "exact-b k=2 t=2 m=4 b=5\n"),
    ("search --k 3 --t 2 --n 3", "exact k=3 t=2 n=3 f=4 rank-bound=4\n"),
    ("search --k 4 --t 2 --n 3", "exact k=4 t=2 n=3 f=4 rank-bound=4\n"),
    ("search --k 3 --t 3 --n 3 --out w333.json", "exact k=3 t=3 n=3 f=5 rank-bound=4\n"),
    ("search --k 4 --t 3 --n 3", "interval k=4 t=3 n=3 lower=6 upper=34\n"),
    ("search --k 3 --t 3 --n 4 --budget 3", "interval k=3 t=3 n=4 lower=4 upper=13\n"),
    ("table --k 2 --t 2 --n-min 2 --n-max 6 --out table22.rows",
     "k  t  n  lower  upper  constructive  exact\n"
     "2  2  2      2      2             2      2\n"
     "2  2  3      2      4             2      2\n"
     "2  2  4      4      5             4      4\n"
     "2  2  5      4      6             4      4\n"
     "2  2  6      6      7             6      6\n"
     + ERRATUM + "rows=5 out=table22.rows\n"),
    ("table --k 3 --t 3 --n-min 2 --n-max 4 --out table33.rows",
     "k  t  n  lower  upper  constructive  exact\n"
     "3  3  2      0      0             0      0\n"
     "3  3  3      4      6             6       \n"
     "3  3  4      4     13            13       \n"
     "rows=3 out=table33.rows\n"),
]

FILES = {
    "w333.json": "26997d48ef6e2e2b3d611c77b08a87b9bb06137f1ec96126e5380182a6ff0f62",
    "table22.rows": "ce00db90c930c015c50e49d997800af38ce53a7488b5b960adc4380b6e58d04d",
    "table33.rows": "3bd99a863347b2580f3881dd7862076e0bc6ecde1e94ca3d778cf2fe0713050b",
}


def test_search_workload_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, stdout in COMMANDS:
        assert main(shlex.split(command)) == 0, command
        assert capsys.readouterr().out == stdout, command
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == FILES


# The flattening bound is 4 at (3,3,3) and (3,3,4), which certifies level 3:
# these budget-3 commands print what refuting that level by search printed,
# and build no search instance.  At (4,3,3) the first level, 6, is past the
# work limit (343 * C(343, 3) tensors read), so none is built either.
CATALOG_FREE = [
    "search --k 3 --t 3 --n 4 --budget 3",
    "table --k 3 --t 3 --n-min 2 --n-max 4 --out table33.rows",
    "search --k 4 --t 3 --n 3",
    "table --k 4 --t 3 --n-min 3 --n-max 3",
]

TABLE_43 = (
    "table --k 4 --t 3 --n-min 3 --n-max 3",
    "k  t  n  lower  upper  constructive  exact\n"
    "4  3  3      6     40            34       \n"
    "rows=1 out=-\n",
)


def test_level_three_certified_without_catalog(tmp_path, monkeypatch, capsys):
    calls = []
    real = search.build_search_instance
    monkeypatch.setattr(search, "build_search_instance", lambda *args: calls.append(args) or real(*args))
    monkeypatch.chdir(tmp_path)
    for command in CATALOG_FREE:
        assert main(shlex.split(command)) == 0, command
        assert capsys.readouterr().out == dict([*COMMANDS, TABLE_43])[command], command
    assert calls == []
    written = hashlib.sha256((tmp_path / "table33.rows").read_bytes()).hexdigest()
    assert written == FILES["table33.rows"]


# The full budget: (3,3,4) takes the lower end 5 of (3,3,3), whose search
# refutes level 4, and its own level 5 holds a cover: f(3,3,4) = 5.  At
# (3,2,4) the flattening bound meets the construction, so no level is
# searched.
LEVEL_FOUR_COMMANDS = [
    ("search --k 3 --t 3 --n 4", "exact k=3 t=3 n=4 f=5 rank-bound=4\n"),
    ("search --k 3 --t 2 --n 4 --out w324.json", "exact k=3 t=2 n=4 f=5 rank-bound=5\n"),
]

LEVEL_FOUR_FILES = {
    "w324.json": "455adcd04537510a4856623c5c9ae9d31fba5a60d903de2613602467ede081d3",
}


def test_level_four_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, stdout in LEVEL_FOUR_COMMANDS:
        assert main(shlex.split(command)) == 0, command
        assert capsys.readouterr().out == stdout, command
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == LEVEL_FOUR_FILES


def _outcome_record(k, t, n):
    """The fields of ``min_mod2_cover(k, t, n)`` at the default budget, with
    the cover's parts shape and the sha256 of its bytes."""
    out = search.min_mod2_cover(k, t, n)
    cover = None
    if out.cover is not None:
        cover = (out.cover.parts.shape, hashlib.sha256(out.cover.parts.tobytes()).hexdigest())
    fields = (out.status, out.value, out.lower, out.upper, out.rank_bound,
              out.levels_exhausted, out.constructive, cover)
    return repr(((k, t, n), fields))


# One digest over the 105 outcomes of 2 <= t <= k <= 6, 0 <= n <= 6.  It
# covers (3,3,3) at w = 4 and 5, (3,3,4), whose lower end 5 is carried from
# (3,3,3) and whose level 5 holds a cover, and (3,3,5), whose level 6 is
# empty; a change of the search that moves any verdict, bound, certificate
# or witness byte fails here.
OUTCOME_DIGEST = "9d3827f6cc6328d7c5c778ebfdb0c2e44b3935a02d7fedc82dfcc1ea8b9b5aa2"


def test_outcome_digest():
    records = [_outcome_record(k, t, n)
               for k in range(2, 7) for t in range(2, k + 1) for n in range(7)]
    assert len(records) == 105
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == OUTCOME_DIGEST


# One digest over the flattening bounds of 2 <= t <= k <= 12 on every grid of
# at most 4,096 cells, 334 instances: a change of the Koszul terms that moves
# any bound fails here.
RANK_BOUND_DIGEST = "c01bc50e65b88fce097a95b1d276d3da5b15b29685739a971d40270dd10d3fb2"


def test_rank_bound_digest():
    records = [repr((k, t, n, search.flattening_rank_bound(k, t, n)))
               for k in range(2, 13) for t in range(2, k + 1)
               for n in range(65) if n**k <= 4096]
    assert len(records) == 334
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == RANK_BOUND_DIGEST
