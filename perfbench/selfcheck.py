#!/usr/bin/env python3
"""Self-check of the benchmark itself, at tiny input sizes (under a minute).

    python3 perfbench/selfcheck.py

It checks that BENCHMARK.json names the workloads defined in workloads.py.
For each workload, shrunk, and both trace modes it checks that a run prints
every metric BENCHMARK.json names, with its unit, and fails no op.  It then
flips the last bit of one raw value in one report and checks that exactly
that op is counted as failed.  Exits 0 when every check holds.
"""

from __future__ import annotations

import io
import json
import struct
import sys
from contextlib import redirect_stdout
from dataclasses import replace

import run

TINY = {
    "test-tall": dict(n=40, m=6),
    "mc-null": dict(n=16, m=5, reps=9),
    "sim-perpair": dict(n=16, m=4, reps=3),
}


def flip_last_bit(x: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


def tampered_op(which: int):
    """An op runner that corrupts the first raw value of op number ``which``."""
    count = 0

    def op(main, argv):
        nonlocal count
        rc, out = run.call_cli(main, argv)
        count += 1
        if count == which:
            report = json.loads(out)
            report["results"][0]["raw"] = flip_last_bit(report["results"][0]["raw"])
            out = (json.dumps(report, indent=2) + "\n").encode()
        return rc, out

    return op


def measure(wl, trace: bool, spec: dict, op=run.call_cli) -> tuple[dict, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        result = run.run_workload(wl, 3, 0.5, trace, spec, setup_repeats=1, op=op)
    return result, buf.getvalue()


def main() -> int:
    if not (run.SRC / "rankdep" / "__init__.py").is_file():
        print(f"error: no rankdep sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads differ from {list(WORKLOADS)}")
    for name, sizes in TINY.items():
        wl = replace(WORKLOADS[name], **sizes)
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result, text = measure(wl, trace, spec)
            json.dumps(result)  # run.py prints the result as JSON
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {got} != {want}")
            for metric, unit in want.items():
                if not any(line.startswith(f"{metric} = ") and line.endswith(f" {unit}") for line in text.splitlines()):
                    problems.append(f"{name} trace={int(trace)}: {metric} not printed with unit {unit}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: {result['failed']} ops failed\n{text}")
        print(f"{name}: metrics and units ok")

    wl = replace(WORKLOADS["test-tall"], **TINY["test-tall"])
    result, text = measure(wl, False, spec, op=tampered_op(2))
    if result["failed"] != 1 or result["correct"] or "failed op 1: s_tau: raw" not in text:
        problems.append(f"tampered report not caught as one failed op: {result}\n{text}")
    else:
        print(f"tampered report: {result['failed']} of {result['attempted']} ops failed, as expected")

    for p in problems:
        print("PROBLEM: " + p)
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
