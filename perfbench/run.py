#!/usr/bin/env python3
"""rankdep benchmark: one workload, measured end to end or per layer.

    python3 perfbench/run.py --workload test-tall --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  One process runs one workload:

1. ``setup_s``: median wall time of fresh interpreters that import
   rankdep and load its constants.
2. One warm-up op fills lazy caches; its output is the reference bytes.
3. Ops repeat for ``--seconds``.  With ``--trace 1`` untraced, traced and
   memory-traced ops take turns, and the layer trace is written to
   ``.bench_work/trace-<workload>-<seed>.jsonl``.
4. Untimed, the reference is computed from the input and every distinct
   output is checked (see workloads.py).  An op fails on a non-zero exit,
   an exception, a wrong output, or bytes that differ from the first op's.

The last stdout line is the JSON result; the lines before it record the
environment and a readable summary.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import rankdep.constants; rankdep.constants.get()"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")  # fmt: skip


def measure_setup(repeats: int) -> float:
    """Median wall time of a fresh interpreter importing rankdep."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    subprocess.run(cmd, check=True, timeout=120, cwd=ROOT)  # writes bytecode caches
    times = []
    for _ in range(repeats):
        # no timeout here: with one, the wait polls in steps of up to 50 ms
        t0 = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def git_commit() -> str | None:
    """HEAD read from .git without running git (absent outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def call_cli(main, argv) -> tuple[object, bytes]:
    """One op: ``main(argv)`` with its output captured; (exit code or error, stdout bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as e:  # an op that raises is a failed op, not a crash
            rc = f"{type(e).__name__}: {e}"
    return rc, out.getvalue().encode()


def check(wl, out: bytes, ref) -> list[str]:
    try:
        return wl.check(out, ref)
    except (KeyError, ValueError, TypeError) as e:
        return [f"malformed output: {type(e).__name__}: {e}"]


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten ops above it."""
    s = sorted(times)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def run_workload(wl, seed: int, seconds: float, trace: bool, spec: dict,
                 setup_repeats: int = SETUP_REPEATS, op=call_cli) -> dict:  # fmt: skip
    """Measure one workload and return the result object; prints the summary."""
    import rankdep.cli
    import rankdep.constants
    from tracing import Tracer

    setup_s = measure_setup(setup_repeats)
    rankdep.constants.get()
    rss0 = maxrss_mb()
    workdir = WORK / f"{wl.name}-{seed}-{os.getpid()}"
    try:
        data = wl.make_input(seed, workdir)
        argv = wl.argv(workdir, seed)
        tracer = Tracer() if trace else None
        ops = []  # (seconds, mode, exit code, output bytes); ops[0] is the warm-up

        def one(mode: int):  # 0 untraced, 1 traced, 2 traced with all_pairs under tracemalloc
            t0 = perf_counter()
            if mode:
                rc, out = tracer.run_op(len(ops), mode == 2, op, rankdep.cli.main, argv)
            else:
                rc, out = op(rankdep.cli.main, argv)
            ops.append((perf_counter() - t0, mode, rc, out))

        one(0)
        start = perf_counter()
        while perf_counter() - start < seconds:
            one(len(ops) % 3 if trace else 0)
        rss = maxrss_mb() - rss0

        try:
            ref, ref_error = wl.reference(data, seed), []
        except Exception as e:  # the program raised while the reference was rebuilt
            ref, ref_error = None, [f"reference: {type(e).__name__}: {e}"]
        first = ops[0][3]
        verdicts: dict[bytes, list[str]] = {}
        failures = []
        for i, (_, _, rc, out) in enumerate(ops):
            if out not in verdicts:
                verdicts[out] = ref_error or check(wl, out, ref)
            why = [f"exit {rc}"] if rc != 0 else []
            why += verdicts[out]
            if out != first:
                why.append("output bytes differ from the first op's")
            if why:
                failures.append((i, why))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = [t for t, mode, _, _ in ops[1:] if mode == 0]
    env = environment()
    print("env " + json.dumps(env))
    print(f"workload {wl.name} seed {seed}: rankdep {' '.join(argv)}")
    for i, why in failures[:5]:
        print(f"failed op {i}: {'; '.join(why)[:500]}")
    p50 = statistics.median(timed)
    if trace:
        traced_times = [t for t, mode, _, _ in ops[1:] if mode == 1]
        keys = [m["name"] for m in spec["per_layer"]]
        values = tracer.medians([k for k in keys if k != "trace_overhead_frac"])
        values["trace_overhead_frac"] = (statistics.median(traced_times) - p50) / p50
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{wl.name}-{seed}.jsonl",
                     {"workload": wl.name, "seed": seed, "argv": argv, "env": env})  # fmt: skip
        if tracer.missing:
            print("hooks not found: " + ", ".join(sorted(set(tracer.missing))))
        print(f"{len(timed)} untraced, {len(traced_times)} traced and "
              f"{len(tracer.alloc_ops)} memory-traced ops")  # fmt: skip
    else:
        tail_s, pct = tail(timed)
        values = {
            "setup_s": setup_s,
            "op_p50_s": p50,
            "op_tail_s": tail_s,
            "pair_evals_per_s": wl.pair_evals() * len(timed) / math.fsum(timed),
            "peak_rss_mb": rss,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        print(f"op_tail_s is the p{pct:.1f} of {len(timed)} timed ops; "
              f"pair evaluations per op: {wl.pair_evals()}")  # fmt: skip
        print(f"fail_frac = {len(failures) / len(ops)!r} ({len(failures)} of {len(ops)} ops)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    return {"correct": not failures, "attempted": len(ops), "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "rankdep" / "__init__.py").is_file():
        print(f"error: no rankdep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
