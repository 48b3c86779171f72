"""One fresh process per batch: import oddtown, make the seeded inputs, run the
workload's operations one after another, and write the timings and answers
as JSON.  Started by ``run.py``; not meant to be run by hand.

    python3 perfbench/worker.py WORKLOAD SEED MODE WORKDIR RESULT

MODE is ``setup`` (stop before the first operation), ``plain`` or ``traced``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    workload, seed, mode, workdir, result_path = argv
    import workloads

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(workload, int(seed), workdir)
    first_op_at = time.monotonic()  # same system-wide clock the parent reads
    result = {"first_op_at": first_op_at}
    if mode != "setup":
        tracer = None
        if mode == "traced":
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        answers, op_times = [], []
        clock = time.perf_counter
        batch_start = clock()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            start = clock()
            try:
                rc, out, value = workloads.run_op(op)
                error = None
            except Exception as exc:  # a failed operation is counted, the batch goes on
                rc, out, value, error = None, "", None, f"{type(exc).__name__}: {exc}"
            end = clock()
            op_times.append([start, end])
            answers.append({"rc": rc, "out": out, "value": value, "error": error})
        wall = clock() - batch_start
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.spans
            result["counters"] = dict(tracer.counters)
        result.update(ops=ops, answers=answers, op_times=op_times, wall=wall,
                      extras=workloads.after_batch(ops))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
