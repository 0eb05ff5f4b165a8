"""zetalab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {epstein-lattice,critical-line,pointwise}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Set-up is timed from the start of a fresh
interpreter to the end of one warm-up task, in four set-up-only processes
and in the measured process; ``setup_s`` is their median.  The measured
process runs the closed loop (``worker.py``); afterwards two ``check.py``
processes, which never import zetalab, check every task output against the
oracles in ``oracles.py``.  Every process started is waited for.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer metrics of a traced replay of the same tasks.
The time metrics are scaled to a fixed machine speed measured during the
run (README.md, "Machine speed").
The last line of standard output is the result object; a human-readable
summary goes before it and details of failures to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 4
# The reported times are scaled to a machine on which one reference_work
# (worker.py) takes this long; see "Machine speed" in README.md.
REFERENCE_MS = 3.0
CHECK_WORKERS = 2
CHECK_TIMEOUT_S = 120.0
READY_TIMEOUT_S = 60.0
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start(args, extra: list) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it and the seconds until it printed READY."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"worker did not finish set-up (exit {proc.poll()})")
    except BaseException:
        _stop(proc)
        raise
    return proc, setup


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def measure(args, out: Path, spans: Path) -> tuple[dict, list]:
    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup = _start(args, ["--setup-only"])
        try:
            proc.wait(timeout=READY_TIMEOUT_S)
        finally:
            _stop(proc)
        setups.append(setup)
    extra = ["--out", str(out)] + (["--trace", "--spans", str(spans)] if args.trace else [])
    proc, setup = _start(args, extra)
    setups.append(setup)
    try:
        code = proc.wait(timeout=3 * args.seconds + 90)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker timed out") from exc
    finally:
        _stop(proc)
    if code != 0:
        raise BenchError(f"worker exited with {code}")
    return json.loads(out.read_text()), setups


def run_checks(done: list, out_dir: Path, stem: str) -> list:
    """Check every output in CHECK_WORKERS ``check.py`` processes; one Check per record.

    The records are dealt out in turn, so each process gets a similar mix;
    every process is waited for, and killed first if it overruns.
    """
    import oracles

    procs = []
    try:
        for i in range(CHECK_WORKERS):
            src = out_dir / f"check-{stem}-{i}-in.json"
            dst = out_dir / f"check-{stem}-{i}-out.json"
            src.write_text(json.dumps([{"task": r["task"], "output": r["output"]}
                                       for r in done[i::CHECK_WORKERS]]))
            dst.unlink(missing_ok=True)
            procs.append((subprocess.Popen([sys.executable, str(HERE / "check.py"), str(src), str(dst)],
                                           cwd=ROOT, env=_env()), dst))
        deadline = time.monotonic() + CHECK_TIMEOUT_S
        for proc, _ in procs:
            try:
                code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired as exc:
                raise BenchError("checks timed out") from exc
            if code != 0:
                raise BenchError(f"a checker exited with {code}")
    finally:
        for proc, _ in procs:
            _stop(proc)
    shares = [[oracles.Check(**c) for c in json.loads(dst.read_text())] for _, dst in procs]
    checks = [None] * len(done)
    for i, share in enumerate(shares):
        checks[i::CHECK_WORKERS] = share
    return checks


def trimmed_mean(values: list, cut: float = 0.1) -> float:
    """Mean after dropping the lowest and the highest ``cut`` share of the values."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


def tail(latencies: list, percentile: float) -> tuple[float, float]:
    """(percentile, value) at the workload's tail percentile.

    If fewer than ten tasks lie beyond it, the highest lower percentile of
    TAIL_LADDER that has ten beyond is used instead.
    """
    n = len(latencies)
    p = max([q for q in TAIL_LADDER if q <= percentile and n * (1.0 - q / 100.0) >= 10.0],
            default=50.0)
    ordered = sorted(latencies)
    pos = (n - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return p, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "zetalab" / "__init__.py").is_file():
        print("perfbench: no zetalab source tree at src/zetalab", file=sys.stderr)
        return 2

    import mpmath
    import numpy as np

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        doc, setups = measure(args, out_dir / f"{stem}.json", out_dir / f"spans-{args.workload}.npz")
        records = doc["records"]
        done = [rec for rec in records if rec["error"] is None]
        # the timed process has exited, so the checks may use every core
        t0 = time.perf_counter()
        checks = run_checks(done, out_dir, stem)
        check_s = time.perf_counter() - t0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failures = [(rec["task"], rec["error"].strip().splitlines()[-1])
                for rec in records if rec["error"] is not None]
    failures += [(rec["task"], f"err_ratio {res.err_ratio:.3g} {res.note}")
                 for rec, res in zip(done, checks) if not res.ok]
    attempted = len(records)
    failed = len(failures)
    latencies = [rec["ns"] * 1e-6 for rec in records]
    tail_p, tail_ms = tail(latencies, workloads.TAIL_PERCENTILE[args.workload])
    bound_misses = sum(c.bound_miss for c in checks if c.bound_miss is not None)
    bound_checked = sum(c.bound_miss is not None for c in checks)
    out_of_range = sum(c.out_of_range for c in checks)
    correct = failed == 0 and doc.get("trace_identical", True)

    reference_ms = trimmed_mean(doc["reference_ns"]) * 1e-6
    scale = REFERENCE_MS / reference_ms
    unscaled = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": (attempted - failed) / (sum(latencies) * 1e-3),
        "task_p50_ms": statistics.median(latencies),
        "task_tail_ms": tail_ms,
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": "s" if name.endswith("self_s") else
                          "ratio" if name.endswith("_frac") else "count"}
                   for name, value in doc["trace"].items()}
        metrics["epstein.bound_miss"] = {"value": bound_misses / doc["rounds"], "unit": "count"}
        metrics["check.err_ratio_max"] = {"value": max((c.err_ratio for c in checks), default=0.0),
                                          "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": unscaled["setup_s"] * scale, "unit": "s"},
            "tasks_per_s": {"value": unscaled["tasks_per_s"] / scale, "unit": "1/s"},
            "task_p50_ms": {"value": unscaled["task_p50_ms"] * scale, "unit": "ms"},
            "task_tail_ms": {"value": unscaled["task_tail_ms"] * scale, "unit": "ms"},
            "pass_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": doc["peak_rss_mb"], "unit": "MB"},
        }

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": doc["rounds"], "loop_s": doc["loop_s"],
        "check_s": check_s,
        "tasks": attempted, "failed": failed, "fail_frac": failed / attempted,
        "tail_percentile": tail_p, "tail_samples": attempted,
        "reference_ms": reference_ms, "reference_samples": len(doc["reference_ns"]),
        "unscaled": unscaled,
        "setup_samples_s": setups, "bound_miss": bound_misses,
        "bound_checked": bound_checked, "zeros_out_of_range": out_of_range,
        "trace_identical": doc.get("trace_identical"),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "mpmath": mpmath.__version__, "git_sha": git_sha(),
    }
    (out_dir / f"report-{stem}.json").write_text(json.dumps(
        {"meta": meta, "metrics": metrics,
         "failures": [{"task": t, "reason": why} for t, why in failures]}, indent=1))
    for task, why in failures[:20]:
        print(f"perfbench: FAILED {task['kind']} {json.dumps(task)[:200]}: {why}", file=sys.stderr)
    print("perfbench: " + " ".join(f"{k}={v}" for k, v in meta.items() if k != "setup_samples_s"))
    for name, m in metrics.items():
        print(f"perfbench:   {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _terminate(signum, frame):
    # unwind through the finally blocks, which stop and reap every child
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
