"""oddtown benchmark: run one workload, check every answer, print the metrics.

    python3 perfbench/run.py --workload {search,rank,verify} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout (the directory holding ``src/``).
Each batch of operations runs in a fresh worker process, one at a time; the
workers repeat until ``--seconds`` is used up (at least three batches).
Set-up time is sampled on every worker plus set-up-only workers.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` plain and
traced batches alternate and the per-layer metrics are printed.  The last line
of standard output is one JSON object; a fuller record with provenance goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import oracles
import tracing

HERE = Path(__file__).resolve().parent

MIN_BATCHES = 3
MIN_SETUPS = 9
MEASURE_LIMIT_S = 110.0  # no batch starts later than this, whatever --seconds says
WORKER_LIMIT_S = 140.0  # a worker still running this long after the start is stopped
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Run:
    """Worker processes of one benchmark run and the checks of their answers."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root, self.workload, self.seed = root, workload, seed
        self.work = HERE / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.env.update({var: "1" for var in THREAD_VARS})
        self.setups: list[float] = []
        self.batches: dict[str, list[dict]] = {"plain": [], "traced": []}
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.open_gaps: list[int] = []
        self.count = 0

    def spawn(self, mode: str, timeout: float) -> None:
        """Run one worker to completion and check its answers."""
        self.count += 1
        workdir = self.work / f"{mode}{self.count}"
        result_path = self.work / f"{mode}{self.count}.json"
        self.work.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed), mode,
               str(workdir), str(result_path)]
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                                  timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        if code != 0 or not result_path.is_file():
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{mode} worker ended with {code}")
            return
        result = json.loads(result_path.read_text(encoding="utf-8"))
        self.setups.append(result["first_op_at"] - started)
        if mode != "setup":
            self.check(result)
            self.batches[mode].append(result)
        shutil.rmtree(workdir, ignore_errors=True)

    def check(self, result: dict) -> None:
        ctx = {"open_gap": 0}
        extras = result["extras"]
        for op, answer in zip(result["ops"], result["answers"]):
            self.attempted += 1
            try:
                error = oracles.check(op, answer, ctx, extras.get(op["id"]))
            except Exception as exc:  # malformed output is a wrong answer
                error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                self.failed += 1
                self.failures.append(f"{op['id']}: {error}")
        self.open_gaps.append(ctx["open_gap"])


def _median(values):
    return statistics.median(values) if values else math.nan


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Batches until the time is used up; with tracing, plain and traced alternate."""
    modes = ("plain", "traced") if trace else ("plain",)
    minimum = 1 if trace else MIN_BATCHES
    start = time.monotonic()
    rounds: list[float] = []
    while True:
        t0 = time.monotonic()
        for mode in modes:
            run.spawn(mode, max(10.0, WORKER_LIMIT_S - (time.monotonic() - start)))
        rounds.append(time.monotonic() - t0)
        elapsed, estimate = time.monotonic() - start, _median(rounds)
        if elapsed + estimate > MEASURE_LIMIT_S:
            break
        if len(rounds) >= minimum and elapsed + estimate / 2 > seconds:
            break
    while len(run.setups) < MIN_SETUPS and time.monotonic() - start < MEASURE_LIMIT_S:
        run.spawn("setup", WORKER_LIMIT_S - (time.monotonic() - start))


def end_to_end(run: Run) -> dict:
    plain = run.batches["plain"]
    return {
        "wall_s": _median([b["wall"] for b in plain]),
        "slowest_op_s": _median([max(e - s for s, e in b["op_times"]) for b in plain]),
        "setup_s": _median(run.setups),
        "peak_rss_mb": _median([b["peak_rss_kb"] / 1024 for b in plain]),
    }


def per_layer(run: Run) -> tuple[dict, list[str]]:
    rows, problems = [], []
    for batch in run.batches["traced"]:
        try:
            row = tracing.rollup(batch["spans"], batch["op_times"], batch["wall"])
        except ValueError as exc:
            problems.append(f"trace rollup: {exc}")
            continue
        counters = {key: batch["counters"].get(key, 0) for key in tracing.COUNTERS}
        certified = counters["search.levels_searched"] + counters.pop("search.presolve_levels")
        row.update(counters)
        row["search.presolve_share"] = (
            (certified - counters["search.levels_searched"]) / certified if certified else 0.0)
        rows.append(row)
    out = {key: _median([r[key] for r in rows]) for key in (rows[0] if rows else {})}
    out["search.open_gap"] = _median(run.open_gaps)
    out["trace.overhead_s"] = (_median([b["wall"] for b in run.batches["traced"]])
                               - _median([b["wall"] for b in run.batches["plain"]]))
    return out, problems


def provenance(root: Path, fields: dict) -> dict:
    """Where and on what a result was measured; ``fields`` adds run settings."""
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest, lines = hashlib.sha256(), 0
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), **fields}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search", "rank", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "oddtown" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the root of an oddtown checkout (src/oddtown and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run = Run(root, args.workload, args.seed)
    started = time.monotonic()
    try:
        measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    problems: list[str] = []
    if args.trace:
        values, problems = per_layer(run)
    else:
        values = end_to_end(run)
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], math.nan)
        if not math.isfinite(value):
            problems.append(f"{m['name']} was not measured")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = run.failed == 0 and not problems

    settings = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace}
    record = {"provenance": provenance(root, settings), "correct": correct,
              "attempted": run.attempted, "failed": run.failed,
              "fail_ratio": run.failed / max(1, run.attempted),
              "failures": (run.failures + problems)[:50], "metrics": metrics,
              "batches": {mode: [{"wall": b["wall"], "peak_rss_kb": b["peak_rss_kb"]} for b in bs]
                          for mode, bs in run.batches.items()},
              "setups": run.setups, "run_s": time.monotonic() - started}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        spans = {"layers": tracing.LAYERS,
                 "batches": [{"spans": b["spans"], "op_times": b["op_times"],
                              "ops": [op["id"] for op in b["ops"]]}
                             for b in run.batches["traced"]]}
        (results / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")

    for message in record["failures"]:
        print(f"FAILED {message}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
