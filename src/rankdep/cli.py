"""Command line interface: test, simulate, selftest.

Exit codes: 0 success, 1 selftest failure, 2 data problem (unparseable file,
ties under the reject policy, sample too small, n above an exactness
ceiling, a zero- or non-finite-variance column under s_pearson), 3
configuration problem (an unwritable --out, and a seed outside [0, 2^64), are
found before any input is read).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import json
import math
import os
import re
import sys
import warnings

import numpy as np

from .aggregate import statistic_from_name
from .calibrate import ASYMPTOTIC, Method, MonteCarlo, run_tests
from .errors import (
    ConfigError,
    DegenerateColumn,
    ExactnessCeiling,
    LengthMismatch,
    ParseError,
    RankdepError,
    SampleTooSmall,
    TiesPresent,
)
from .ranks import REJECT, JitterWithSeed, compute_ranks
from .selftest import format_report, run_selftest
from .simgen import FAMILIES, SCATTER_KINDS, SimScenario, run_experiment, write_experiment_csv

REPORT_SCHEMA = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, routed through ConfigError to exit 3, and
    # reads -inf or -1e5 as an unknown option: any negative float literal is a value here
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|-(inf|infinity|nan)$", re.I)

    def error(self, message):
        raise ConfigError(message)


def read_csv_matrix(path: str) -> np.ndarray:
    """Parse a CSV of samples-by-variables; a first row with a non-float cell is a header.
    Its lines are read once, so a pipe works.  np.loadtxt parses a file of 2 x 2 or more
    finite numbers and nothing else; _parse_csv, which gives the same array there, the rest."""
    try:
        with open(path, newline="") as f:
            lines = f.readlines()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    with warnings.catch_warnings(), contextlib.suppress(ValueError, UserWarning):
        warnings.simplefilter("error", UserWarning)  # loadtxt warns on an empty input
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
        if min(data.shape) >= 2 and np.isfinite(data).all():
            return data
    return _parse_csv(lines, path)


def _parse_csv(lines: list[str], path: str) -> np.ndarray:
    """read_csv_matrix's csv.reader parse: headers, blank rows, quoted cells, every error."""
    reader = csv.reader(lines)
    # (line in the file, cells), numbered before blank lines are dropped
    rows = [(reader.line_num, r) for r in reader if any(c.strip() for c in r)]
    if not rows:
        raise ParseError(f"{path} is empty")
    width = len(rows[0][1])

    def parse_row(line, cells):
        if len(cells) != width:
            raise ParseError(f"expected {width} columns, found {len(cells)}", row=line)
        out = []
        for j, cell in enumerate(cells):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(f"non-numeric value {cell!r}", row=line, column=j + 1) from None
            if not math.isfinite(v):
                raise ParseError(f"non-finite value {cell!r}", row=line, column=j + 1)
            out.append(v)
        return out

    try:
        [float(c) for c in rows[0][1]]
        start = 0
    except ValueError:
        start = 1  # header row
    data = [parse_row(*row) for row in rows[start:]]
    if len(data) < 2 or width < 2:
        raise ParseError(f"{path}: need at least 2 data rows and 2 columns")
    return np.array(data, dtype=np.float64)


def _seed(given: int | None) -> int:
    """--seed, else $RANKDEP_SEED, else 0.  The keyed streams fold a seed modulo 2^64,
    so one outside [0, 2^64) would run another seed's streams under its own name."""
    source, seed = "--seed", given
    if seed is None:
        source, env = "RANKDEP_SEED", os.environ.get("RANKDEP_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"RANKDEP_SEED must be an integer, got {env!r}") from None
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{source} must lie in [0, 2^64), got {seed}")
    return seed


def _split_stats(spec: str) -> list[str]:
    names = [s.strip() for s in spec.split(",") if s.strip()]
    if not names:
        raise ConfigError("no statistics requested")
    return names


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        f = open(out, "w")
    except OSError as e:
        raise ConfigError(f"cannot write {out}: {e.strerror}") from e
    with f:
        f.write(text)


def _check_out(out: str | None) -> None:
    """Raise _write_out's error before a run if ``out`` cannot be written, creating nothing."""
    if out is None or out == "-":
        return
    # a bare file name lives in ".", but "" names no file: open("") fails with ENOENT
    parent = os.path.dirname(out) or ("." if out else "")
    if os.path.isdir(out) or not os.path.isdir(parent):
        code = errno.EISDIR if os.path.isdir(out) else errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(out if os.path.exists(out) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ConfigError(f"cannot write {out}: {os.strerror(code)}")


def _method(name: str, reps: int, seed: int) -> Method:
    return MonteCarlo(reps=reps, seed=seed) if name == "montecarlo" else ASYMPTOTIC


def cmd_test(args) -> int:
    _check_out(args.out)
    seed = _seed(args.seed)
    data = read_csv_matrix(args.data)
    ranks = compute_ranks(data, JitterWithSeed(seed) if args.ties == "jitter" else REJECT)
    stats = [statistic_from_name(s) for s in _split_stats(args.stats)]
    method = _method(args.method, args.reps, seed)
    results = run_tests(ranks, stats, alpha=args.alpha, method=method, threads=args.threads, data=data)
    report = {"schema": REPORT_SCHEMA, "results": [r.to_dict() for r in results]}
    if args.method == "asymptotic" and ranks.n < 32:
        report["note"] = (
            f"n = {ranks.n} is small; asymptotic calibration is rough below n = 32, "
            "consider --method montecarlo"
        )
    if args.format == "json":
        _write_out(json.dumps(report, indent=2) + "\n", args.out)
    else:
        # csv writes a float as its repr and None as an empty cell
        buf = io.StringIO()
        w = csv.DictWriter(buf, list(report["results"][0]), lineterminator="\n")
        w.writeheader()
        for d in report["results"]:
            w.writerow({**d, "reject": str(d["reject"]).lower()})
        _write_out(buf.getvalue(), args.out)
    return 0


def cmd_simulate(args) -> int:
    _check_out(args.out)
    seed = _seed(args.seed)
    scenario = SimScenario(
        family=args.family,
        n=args.n,
        m=args.m,
        scatter=args.scatter,
        signal=args.signal,
        seed=seed,
        df=args.df,
        contam_fraction=args.contam_fraction,
    )
    stats = [statistic_from_name(s) for s in _split_stats(args.stats)]
    method = _method(args.method, args.mc_reps, seed)
    rows = run_experiment(
        scenario, stats, reps=args.reps, alpha=args.alpha, method=method, threads=args.threads
    )
    buf = io.StringIO()
    write_experiment_csv(rows, buf)
    _write_out(buf.getvalue(), args.out)
    return 0


def cmd_selftest(args) -> int:
    checks = run_selftest(args.constants)
    print(format_report(checks))
    return 0 if all(c.ok for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="rankdep", description="Rank-based tests of mutual independence")
    sub = p.add_subparsers(dest="command", required=True)

    # the run options test and simulate share, listed first in each one's --help
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--stats", default="s_tau", help="comma-separated statistic names")
    run.add_argument("--alpha", type=float, default=0.05)
    run.add_argument("--method", choices=["asymptotic", "montecarlo"], default="asymptotic")
    run.add_argument("--seed", type=int, default=None, help="default: $RANKDEP_SEED or 0")
    run.add_argument("--threads", type=int, default=1)
    run.add_argument("--out", default=None, help="output file (default stdout)")

    t = sub.add_parser("test", parents=[run], help="run independence tests on a CSV data matrix")
    t.add_argument("data", help="CSV file, rows are samples, columns are variables")
    t.add_argument("--reps", type=int, default=999, help="Monte Carlo replicates")
    t.add_argument("--ties", choices=["reject", "jitter"], default="reject")
    t.add_argument("--format", choices=["json", "csv"], default="json")
    t.set_defaults(func=cmd_test)

    s = sub.add_parser("simulate", parents=[run], help="estimate size/power over simulated datasets")
    s.add_argument("--family", choices=FAMILIES, required=True)
    s.add_argument("-n", "--n", type=int, required=True)
    s.add_argument("-m", "--m", type=int, required=True)
    s.add_argument("--scatter", choices=SCATTER_KINDS, default="identity")
    s.add_argument("--signal", type=float, default=0.0)
    s.add_argument("--reps", type=int, required=True, help="scenario replicates")
    s.add_argument("--mc-reps", type=int, default=999)
    s.add_argument("--df", type=int, default=5, help="degrees of freedom for mvt")
    s.add_argument("--contam-fraction", type=float, default=0.05)
    s.set_defaults(func=cmd_simulate)

    st = sub.add_parser("selftest", help="verify constants and internal oracles")
    st.add_argument("--constants", default=None, help="path to a constants file to check")
    st.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ParseError, TiesPresent, SampleTooSmall, LengthMismatch, ExactnessCeiling, DegenerateColumn) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RankdepError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
