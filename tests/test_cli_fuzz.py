"""Seeded fuzz of the command line: argv and CSV text drawn by hypothesis.

Whatever the input, `rankdep` exits 0, 2 or 3; a non-zero exit writes exactly
one `error:` line and nothing else (no traceback, no warning); and a report
never holds a NaN or an infinity.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rankdep import NAMED_STATISTICS
from rankdep.cli import main
from rankdep.simgen import FAMILIES, SCATTER_KINDS

NAMES = list(NAMED_STATISTICS)
# the W statistics of rho_hat and t* cost O(n^3) and O(n^4) per pair; simulate leaves them out
SLOW = {"t_rho_hat", "t_tstar"}
DATA = "<csv>"  # stands for the CSV file's path


def _pick(draw, good, bad, k=8):
    """One of ``good``, or about one time in k one of ``bad``."""
    return draw(st.sampled_from(bad if _one_in(draw, k) else good))


def _one_in(draw, k):
    """True about one time in k; False is the simpler value, which shrinking keeps."""
    return draw(st.sampled_from(range(k))) == k - 1


def _flags(draw, choices):
    """Each (flag, good, bad) of ``choices`` half the time, its value from _pick."""
    argv = []
    for flag, good, bad in choices:
        if draw(st.booleans()):
            argv += [flag, _pick(draw, good, bad)]
    return argv


def _stats(draw, names):
    picked = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
    return ",".join(picked + [_pick(draw, [" "], ["bogus", "S_TAU", ""])])


@st.composite
def csv_texts(draw):
    """A CSV of distinct floats, then some of: a nan, an infinity, an empty or
    non-numeric cell, a tie, a constant column, a row of empty cells, a ragged
    row, a header and blank lines."""
    n, m = draw(st.sampled_from([12, 10, 9, 8, 5, 1])), draw(st.sampled_from([3, 4, 2, 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [[repr(float(v)) for v in row] for row in rng.standard_normal((n, m))]
    for _ in range(draw(st.sampled_from([0] * 7 + [1, 1, 2]))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
        edit = draw(st.sampled_from(["nan", "inf", "", "x", "tie", "constant", "empty row"]))
        if edit == "tie":
            rows[i][j] = rows[(i + 1) % n][j]
        elif edit == "constant":
            for row in rows:
                row[j] = "1"
        elif edit == "empty row":
            rows[i] = [""] * m
        else:
            rows[i][j] = edit
    if _one_in(draw, 8):
        i = draw(st.integers(0, n - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["0.5"]
    if draw(st.booleans()):
        rows.insert(0, [f"v{j}" for j in range(m)])
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    return "\n".join(lines) + "\n"


def _options(draw, stats):
    argv = ["--stats", stats]
    if draw(st.booleans()):  # every other alpha out of (0, 1)
        argv += ["--alpha", _pick(draw, ["0.05", "0.5", "1e-300", "0.999"], ["nan", "0", "1", "inf", "-0.1"], 2)]
    return argv + _flags(draw, (
        ("--threads", ["1", "2", "3"], ["0", "-1", "x", "1.5", ""]),
        ("--seed", ["0", "7", "-3", str(2**64 - 1), str(2**65), str(-(2**65))], ["nan", "x"]),
        ("--method", ["asymptotic", "montecarlo"], ["exact", ""]),
    ))


@st.composite
def argvs_of_test(draw):
    return ["test", DATA] + _options(draw, _stats(draw, NAMES)) + _flags(draw, (
        ("--reps", ["1", "9", "19"], ["0", "-1", "x"]),
        ("--ties", ["reject", "jitter"], ["none"]),
        ("--format", ["json", "csv"], ["xml"]),
    ))


@st.composite
def argvs_of_simulate(draw):
    argv = ["simulate", "--family", _pick(draw, FAMILIES, ["cauchy"])]
    argv += ["-n", _pick(draw, ["6", "9", "12"], ["-1", "0", "2", "x"])]
    argv += ["-m", _pick(draw, ["2", "3", "4"], ["0", "1", "-2"])]
    argv += ["--reps", _pick(draw, ["1", "3"], ["0", "-1"])]
    argv += _options(draw, _stats(draw, [s for s in NAMES if s not in SLOW]))
    return argv + _flags(draw, (
        ("--scatter", SCATTER_KINDS, ["diagonal"]),
        ("--signal", ["0", "0.3", "1"], ["nan", "inf", "-1", "2"]),
        ("--contam-fraction", ["0", "0.3"], ["nan", "-1", "2"]),
        ("--df", ["1", "5"], ["0", "-1", "x"]),
        ("--mc-reps", ["4", "9"], ["0", "-1"]),
    ))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # an exception here is the traceback a user would see
    assert not caught, [str(w.message) for w in caught]
    return code, out.getvalue(), err.getvalue()


def _no_constant(name):
    raise AssertionError(f"{name} in a report")


def _finite(text, fmt):
    """No NaN or infinity in a JSON report, nor in any number cell of a CSV one."""
    if fmt == "json":
        json.loads(text, parse_constant=_no_constant)
        return
    for line in text.splitlines():
        for cell in line.split(","):
            try:
                v = float(cell)
            except ValueError:
                continue
            assert math.isfinite(v), line


def _check(argv, code, out, err):
    assert code in (0, 2, 3), (argv, code, err)
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        assert out == "", argv
    else:
        assert err == "", (argv, err)
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        _finite(out, fmt if argv[0] == "test" else "csv")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=st.one_of(argvs_of_test(), argvs_of_simulate()), text=csv_texts())
def test_cli_fuzz(argv, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/data.csv"
        with open(path, "w") as f:
            f.write(text)
        code, out, err = _run([path if a == DATA else a for a in argv])
    event(f"{argv[0]} exits {code}")
    _check(argv, code, out, err)
