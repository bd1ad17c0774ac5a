"""Outside-in layer trace for the benchmark's traced runs.

The tracer replaces public rankdep functions with timing wrappers at the
names their callers look them up by (``rankdep.aggregate.all_pairs`` for
``raw_statistic``, ``rankdep._rng.generator`` for every keyed stream, ...),
so nothing under ``src/`` changes.  Each wrapped call records a span
``(id, parent, op, name, start, end, self_s, peak_mb)`` in memory; self
time is the span's duration minus the time its child spans cover (calls
are sequential, so children never overlap).  ``pairwise.all_pairs`` spans
also record the ``tracemalloc`` peak inside the span; tracemalloc runs only
there, since tracing every allocation would inflate the other layers.
"""

from __future__ import annotations

import functools
import json
import statistics
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

import rankdep.cli


def _all_pairs_name(args, kwargs) -> str:
    kernel = args[1] if len(args) > 1 else kwargs["kernel"]
    kind = args[2] if len(args) > 2 else kwargs.get("kind", "U")
    return f"pairwise.all_pairs.{getattr(kernel, 'value', kernel)}_{kind}"


# (object under rankdep, attribute, span name); a callable span name is
# given the call's arguments.  Some layers are looked up under several names.
HOOKS = [
    ("cli", "read_csv_matrix", "cli.read_csv_matrix"),
    ("cli", "compute_ranks", "ranks.compute_ranks"),
    ("simgen", "compute_ranks", "ranks.compute_ranks"),
    ("ranks.RankMatrix", "__init__", "ranks.RankMatrix"),
    ("cli", "run_test", "calibrate.run_test"),
    ("cli", "run_experiment", "simgen.run_experiment"),
    ("simgen", "gen_dataset", "simgen.gen_dataset"),
    ("calibrate", "raw_statistic", "aggregate.raw_statistic"),
    ("calibrate", "rescale", "aggregate.rescale"),
    ("simgen", "rescale", "aggregate.rescale"),
    ("aggregate", "all_pairs", _all_pairs_name),
    ("simgen", "all_pairs", _all_pairs_name),
    ("aggregate", "all_pairs_spearman", "pairwise.all_pairs_spearman"),
    ("aggregate", "raw_from_pairs", "aggregate.raw_from_pairs"),
    ("simgen", "raw_from_pairs", "aggregate.raw_from_pairs"),
    ("calibrate", "montecarlo_null", "calibrate.montecarlo_null"),
    ("simgen", "montecarlo_null", "calibrate.montecarlo_null"),
    ("calibrate", "permutation_ranks", "calibrate.permutation_ranks"),
    ("_rng", "generator", "_rng.generator"),
    ("constants", "get", "constants.get"),
]

ALL_PAIRS = "pairwise.all_pairs"


def _resolve(path: str):
    obj = rankdep
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self.alloc_ops: set[int] = set()  # ops whose all_pairs spans ran under tracemalloc
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._patches: list[tuple] = []

    def wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            alloc = self.op in self.alloc_ops and label.startswith(ALL_PAIRS + ".")
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            if alloc:
                tracemalloc.start()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                peak = None
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                spans.append((sid, parent, self.op, label, start, end, dur - frame[1], peak))

        return traced

    def install(self) -> None:
        """Wrap every hook; hooks whose name no longer exists are listed in missing."""
        for owner, attr, name in HOOKS:
            try:
                obj = _resolve(owner)
                fn = getattr(obj, attr)
            except AttributeError:
                self.missing.append(f"{owner}.{attr}")
                continue
            self._patches.append((obj, attr, fn))
            setattr(obj, attr, self.wrap(fn, name))

    def uninstall(self) -> None:
        for obj, attr, fn in reversed(self._patches):
            setattr(obj, attr, fn)
        self._patches.clear()

    def run_op(self, op: int, alloc: bool, fn, *args):
        """Run one traced op as a ``cli.main`` root span.

        With ``alloc`` the ``pairwise.all_pairs`` spans run under tracemalloc,
        which slows them, so such ops give the memory peak and no times.
        """
        self.op = op
        if alloc:
            self.alloc_ops.add(op)
        self.install()
        try:
            return self.wrap(fn, "cli.main")(*args)
        finally:
            self.uninstall()

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per-op layer figures: ``<span>.self_s``, ``<span>.calls``, all_pairs peak."""
        ops: dict[int, dict[str, float]] = defaultdict(Counter)
        for _, _, op, name, _, _, self_s, peak in self.spans:
            row = ops[op]
            name = name.lstrip("_")  # metric names start with a letter
            row[f"{name}.self_s"] += self_s
            row[f"{name}.calls"] += 1
            if name.startswith(ALL_PAIRS + "."):
                row[f"{ALL_PAIRS}.self_s"] += self_s
                row[f"{ALL_PAIRS}.calls"] += 1
                if peak is not None:
                    row[f"{ALL_PAIRS}.peak_alloc_mb"] = max(row[f"{ALL_PAIRS}.peak_alloc_mb"], peak)
        return ops

    def medians(self, keys) -> dict[str, float]:
        """Median over traced ops of each per-op figure (0 where a layer never ran).

        Memory peaks (``*_mb``) come from the ``alloc`` ops, all else from the others.
        """
        per_op = self.per_op()
        timing = [row for op, row in per_op.items() if op not in self.alloc_ops]
        alloc = [row for op, row in per_op.items() if op in self.alloc_ops]
        return {
            k: statistics.median(row.get(k, 0) for row in (alloc if k.endswith("_mb") else timing))
            for k in keys
        }

    def write(self, path, header: dict) -> None:
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for sid, parent, op, name, start, end, self_s, peak in self.spans:
                rec = {"id": sid, "parent": parent, "op": op, "name": name,
                       "start": start - t0, "end": end - t0, "self_s": self_s}  # fmt: skip
                if peak is not None:
                    rec["peak_mb"] = peak
                f.write(json.dumps(rec) + "\n")
