"""One workload process: set up, run the closed loop, write the task records.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace] [--setup-only] [--out FILE] [--spans FILE]

Set-up is import, input generation and one warm-up task; the worker then
prints ``READY`` so the parent can time set-up from process start.  The
timed loop is closed with one caller: each task starts after the previous
one returned, and whole rounds run until ``--seconds`` have passed; a
timed ``reference_work`` between tasks records the machine's speed.  With
``--trace`` the same tasks are replayed under the tracer afterwards and
the replay must reproduce every output bit for bit.  Run this from
``run.py``, which sets the thread pinning and ``PYTHONPATH``.
"""

from __future__ import annotations

import os

# pin BLAS / OpenMP pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import cmath  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

import tasks  # noqa: E402
import workloads  # noqa: E402

PREDRAWN_ROUNDS = 64
REFERENCE_EVERY_S = 0.1
_REF_N = np.arange(1.0, 200.0)
_REF_S = 0.5 + 1j * np.linspace(10.0, 60.0, 64)
_REF_M = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.2]])


def reference_work() -> complex:
    """Fixed work in zetalab's mix that uses no zetalab code.

    A complex power outer product (as in the Euler-Maclaurin sums), a scalar
    complex recurrence (as in the continued fractions) and small Cholesky
    factorizations.  Its time tracks the speed of the machine during a run.
    """
    acc = complex(np.sum(_REF_N[:, None] ** (-_REF_S[None, :])))
    z = 0j
    for k in range(1, 1500):
        z = (z + cmath.exp(complex(-1e-3 * k, 1e-2 * k))) / (1.0 + 1e-4 * k)
    for _ in range(150):
        acc += np.linalg.cholesky(_REF_M)[0, 0]
    return acc + z


def run_rounds(rounds: list, draw, seconds: float):
    """Closed loop over whole rounds; returns (records, rounds, elapsed s, reference ns).

    ``draw(k)`` supplies round ``k`` when the pre-drawn ones run out, and
    every REFERENCE_EVERY_S one ``reference_work`` is timed; both fall
    between tasks, outside every task's timer.
    """
    records = []
    refs = []
    start = perf_counter()
    next_ref = start
    k = 0
    while True:
        if k == len(rounds):
            rounds.append(draw(k))
        for task in rounds[k]:
            t0 = perf_counter_ns()
            try:
                raw, error = tasks.run(task), None
            except Exception:  # a raising task is a failure to count, not a crash
                raw, error = None, traceback.format_exc(limit=3)
            records.append((k, task, perf_counter_ns() - t0, raw, error))
            if perf_counter() >= next_ref:
                t0 = perf_counter_ns()
                reference_work()
                refs.append(perf_counter_ns() - t0)
                next_ref = perf_counter() + REFERENCE_EVERY_S
        k += 1
        if perf_counter() - start >= seconds:
            return records, k, perf_counter() - start, refs


def replay(records: list):
    """Run the recorded tasks again in order; returns (raw results, summed task ns)."""
    raws = []
    busy = 0
    for _, task, _, _, _ in records:
        t0 = perf_counter_ns()
        try:
            raws.append(tasks.run(task))
        except Exception:
            raws.append(None)
        busy += perf_counter_ns() - t0
    return raws, busy


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out")
    p.add_argument("--spans")
    args = p.parse_args(argv)

    def draw(k):
        return workloads.make_round(args.workload, args.seed, k)

    rounds = [draw(k) for k in range(PREDRAWN_ROUNDS)]
    tasks.run(workloads.warmup_task(args.workload, args.seed))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    records, n_rounds, elapsed, refs = run_rounds(rounds, draw, args.seconds)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    outputs = [None if raw is None else tasks.to_output(raw) for _, _, _, raw, _ in records]
    doc = {
        "rounds": n_rounds,
        "loop_s": elapsed,
        "reference_ns": refs,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "records": [{"round": k, "task": task, "ns": ns, "output": out, "error": err}
                    for (k, task, ns, _, err), out in zip(records, outputs)],
    }
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            raws, traced_ns = replay(records)
        finally:
            tracer.uninstall()
        replayed = [None if raw is None else tasks.to_output(raw) for raw in raws]
        doc["trace"] = tracer.metrics(n_rounds)
        untraced_ns = sum(ns for _, _, ns, _, _ in records)
        doc["trace"]["trace.overhead_frac"] = traced_ns / untraced_ns - 1.0
        doc["trace_identical"] = json.dumps(replayed) == json.dumps(outputs)
        if args.spans:
            tracer.save(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
