import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from test_cli_fuzz import csv_texts

from rankdep import constants
from rankdep._rng import generator
from rankdep.cli import _parse_csv, main, read_csv_matrix
from rankdep.errors import ParseError


def write_demo_csv(path, n=40, m=4, seed=1, header=False, ties=False):
    rng = generator(seed, 0, 0)
    shared = rng.standard_normal(n)
    data = shared[:, None] + 0.8 * rng.standard_normal((n, m))
    if ties:
        data[0, 0] = data[1, 0]
    lines = []
    if header:
        lines.append(",".join(f"v{j}" for j in range(m)))
    for row in data:
        lines.append(",".join(repr(float(x)) for x in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_read_csv_matrix_header_and_blank_lines(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,y\n1.0,2.0\n\n3.5,0.25\n")
    mat = read_csv_matrix(str(p))
    assert mat.shape == (2, 2)
    assert mat[1, 1] == 0.25


def test_read_csv_matrix_non_finite_first_row_is_data(tmp_path, capsys):
    # a parseable first row is data even when a value is non-finite, so the
    # nan is reported rather than the row being dropped as a header
    p = tmp_path / "d.csv"
    p.write_text("1,nan\n2,3\n3,1\n4,2\n5,5\n")
    with pytest.raises(ParseError) as info:
        read_csv_matrix(str(p))
    assert info.value.row == 1 and info.value.column == 2
    assert main(["test", str(p)]) == 2


def test_read_csv_matrix_header_width_must_match(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,y,z\n1,2\n3,4\n")
    with pytest.raises(ParseError) as info:
        read_csv_matrix(str(p))
    assert "expected 3 columns, found 2" in str(info.value)


def test_read_csv_matrix_error_location(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(Exception) as info:
        read_csv_matrix(str(p))
    assert "row 2" in str(info.value) and "column 2" in str(info.value)


def test_read_csv_matrix_rows_are_file_lines(tmp_path):
    # a blank line still counts, so the error names the value's line in the file
    p = tmp_path / "d.csv"
    p.write_text("x,y\n1.0,2.0\n\n3.5,oops\n4,5\n")
    with pytest.raises(ParseError) as info:
        read_csv_matrix(str(p))
    assert (info.value.row, info.value.column) == (4, 2)


def _parsed(parse, *args):
    try:
        a = parse(*args)
    except ParseError as e:
        return str(e), e.row, e.column
    return a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=csv_texts())
def test_read_csv_matrix_equals_the_csv_reader_parse(text):
    # np.loadtxt parses the all-numeric files and _parse_csv the rest: the same
    # bits as _parse_csv on every file, or the same error, row and column
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        with open(path, "w", newline="") as f:
            f.write(text)
        lines = io.StringIO(text, newline="").readlines()  # as open(path, newline="") reads them
        assert _parsed(read_csv_matrix, path) == _parsed(_parse_csv, lines, path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_read_csv_matrix_reads_a_pipe_once(tmp_path):
    # a header sends the lines on to _parse_csv, which parses the lines already
    # read: opening the pipe a second time would wait for a writer forever
    fifo = str(tmp_path / "d.fifo")
    os.mkfifo(fifo)
    got = []

    def write():
        with open(fifo, "w") as f:
            f.write("x,y\n1.0,2.0\n3.5,0.25\n4,5\n")

    threads = [
        threading.Thread(target=write, daemon=True),
        threading.Thread(target=lambda: got.append(read_csv_matrix(fifo)), daemon=True),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert len(got) == 1 and got[0].tolist() == [[1.0, 2.0], [3.5, 0.25], [4.0, 5.0]]


def test_exactness_ceiling_exits_2(tmp_path, capsys):
    # W(t*) is exact for n <= 702; above it the run stops as a data problem
    p = write_demo_csv(tmp_path / "d.csv", n=703, m=2)
    assert main(["test", str(p), "--stats", "t_tstar"]) == 2
    err = capsys.readouterr().err
    assert "exact for n <= 702, got 703" in err and "Traceback" not in err


def test_json_report_shape(tmp_path, capsys):
    p = write_demo_csv(tmp_path / "d.csv")
    assert main(["test", str(p), "--stats", "s_tau,s_max_tau"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == 2
    assert "note" not in report  # n = 40 is not flagged
    assert [r["statistic"] for r in report["results"]] == ["s_tau", "s_max_tau"]
    for r in report["results"]:
        assert set(r) == {
            "statistic", "raw", "rescaled", "p_value", "reject", "n", "m", "method", "seed",
            "alpha", "reps",
        }
        assert r["method"] == "asymptotic" and r["n"] == 40 and r["m"] == 4
        assert r["alpha"] == 0.05 and r["reps"] is None


def test_small_sample_note(tmp_path, capsys):
    p = write_demo_csv(tmp_path / "d.csv", n=10)
    assert main(["test", str(p)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "montecarlo" in report["note"]


def test_csv_output_format(tmp_path, capsys):
    p = write_demo_csv(tmp_path / "d.csv")
    assert main(["test", str(p), "--format", "csv", "--stats", "z_tau"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "statistic,raw,rescaled,p_value,reject,n,m,method,seed,alpha,reps"
    cells = lines[1].split(",")
    assert cells[0] == "z_tau" and cells[4] in ("true", "false")
    float(cells[1])  # raw roundtrips


def test_montecarlo_method_and_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RANKDEP_SEED", "7")
    p = write_demo_csv(tmp_path / "d.csv", n=16)
    assert main(["test", str(p), "--method", "montecarlo", "--reps", "49"]) == 0
    report = json.loads(capsys.readouterr().out)
    r = report["results"][0]
    assert r["method"] == "montecarlo" and r["seed"] == 7
    assert r["reps"] == 49 and r["alpha"] == 0.05  # what the p-value rests on
    assert 1 / 50 <= r["p_value"] <= 1.0


def test_bad_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RANKDEP_SEED", "abc")
    p = write_demo_csv(tmp_path / "d.csv", n=16)
    assert main(["test", str(p), "--method", "montecarlo"]) == 3


@pytest.mark.parametrize("seed, env", [("-1", None), (str(2**64), None), (None, "-1")])
def test_seed_outside_64_bits_exits_3(tmp_path, capsys, monkeypatch, seed, env):
    # the streams fold a seed modulo 2^64, so one outside [0, 2^64) is refused
    # before the input is read (the CSV is missing) and before --out is written
    if env is not None:
        monkeypatch.setenv("RANKDEP_SEED", env)
    out = tmp_path / "r.out"
    given = [] if seed is None else ["--seed", seed]
    simulate = ["simulate", "--family", "iid-null", "-n", "12", "-m", "3", "--reps", "2"]
    for argv in (["test", str(tmp_path / "missing.csv")], simulate):
        assert main(argv + given + ["--out", str(out)]) == 3, argv
        got = capsys.readouterr()
        assert got.out == "" and len(got.err.splitlines()) == 1 and got.err.startswith("error: ")
        assert not out.exists()


def test_largest_seed_runs(tmp_path, capsys):
    p = write_demo_csv(tmp_path / "d.csv", n=16)
    argv = ["test", str(p), "--method", "montecarlo", "--reps", "9", "--seed", str(2**64 - 1)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["seed"] == 2**64 - 1


def test_data_problems_exit_2(tmp_path, capsys):
    assert main(["test", str(tmp_path / "missing.csv")]) == 2

    ties = write_demo_csv(tmp_path / "t.csv", n=16, ties=True)
    assert main(["test", str(ties)]) == 2
    assert "tie" in capsys.readouterr().err.lower()

    small = tmp_path / "s.csv"
    small.write_text("1.0,2.0\n2.0,1.0\n0.5,0.25\n")
    assert main(["test", str(small), "--stats", "t_tau"]) == 2  # needs n >= 4


# (CSV text, extra argv) -> exit code, stderr with the file's directory as DIR,
# and the SHA-256 of stdout: bad CSVs exit 2 from read_csv_matrix, a tie from
# compute_ranks, and --ties jitter breaks the tie
TIED = "a,b,c\n1,5,0.5\n2,6,0.25\n3,6,0.75\n4,7,0.125\n5,8,1\n"
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
INPUT_ERROR_PINS = [
    ("a,b\n1,x\n2,3\n", [], 2, "error: non-numeric value 'x' at row 2, column 2\n", EMPTY),
    ("1,2\n", [], 2, "error: DIR/d.csv: need at least 2 data rows and 2 columns\n", EMPTY),
    ("1\n2\n3\n", ["--ties", "jitter"], 2,
     "error: DIR/d.csv: need at least 2 data rows and 2 columns\n", EMPTY),
    ("1,2\ninf,3\n4,5\n", ["--ties", "jitter"], 2,
     "error: non-finite value 'inf' at row 2, column 1\n", EMPTY),
    ("1,2\n3\n", [], 2, "error: expected 2 columns, found 1 at row 2\n", EMPTY),
    ("", [], 2, "error: DIR/d.csv is empty\n", EMPTY),
    (TIED, [], 2, "error: tied value 6.0 in column 1\n", EMPTY),
    (TIED, ["--ties", "jitter"], 0, "", "d659455d0a9d1e04340f73d1e35d96412c1a511f9cb95fd021d99a6806c2e3a1"),
    (TIED, ["--ties", "jitter", "--seed", "3", "--stats", "s_tau,s_max_tau,s_rho_s"], 0, "",
     "25ddcdaccf82130d516aaeea50854fd794d3b32c12b5f490c379ca90fd230ce6"),
]  # fmt: skip


def test_input_errors_and_jitter_outputs_pinned(tmp_path, capsys):
    p = tmp_path / "d.csv"
    for text, extra, code, err, digest in INPUT_ERROR_PINS:
        p.write_text(text)
        assert main(["test", str(p)] + extra) == code, (text, extra)
        out = capsys.readouterr()
        assert out.err.replace(str(tmp_path), "DIR") == err, (text, extra)
        assert hashlib.sha256(out.out.encode()).hexdigest() == digest, (text, extra)


def test_jitter_policy_accepts_ties(tmp_path, capsys):
    ties = write_demo_csv(tmp_path / "t.csv", n=16, ties=True)
    assert main(["test", str(ties), "--ties", "jitter"]) == 0
    json.loads(capsys.readouterr().out)


def test_config_problems_exit_3(tmp_path, capsys):
    p = write_demo_csv(tmp_path / "d.csv", n=16)
    assert main(["test", str(p), "--stats", "s_bogus"]) == 3
    assert main(["test", str(p), "--alpha", "1.5"]) == 3
    assert main(["test", str(p), "--method", "montecarlo", "--reps", "0"]) == 3
    assert main(["test", str(p), "--method", "bogus"]) == 3
    assert main(["test", str(p), "--threads", "0"]) == 3
    capsys.readouterr()


def test_negative_float_values_reach_their_range_checks(tmp_path, capsys):
    # argparse took a value such as -inf or -1e5 for an unknown option, so the
    # option was reported as missing its argument
    p = write_demo_csv(tmp_path / "d.csv", n=16)
    simulate = ["simulate", "--family", "mvn", "-n", "10", "-m", "3", "--reps", "2"]
    for argv, err in (
        (["test", str(p), "--alpha", "-inf"], "error: alpha must lie in (0, 1), got -inf\n"),
        (["test", str(p), "--alpha", "-1e5"], "error: alpha must lie in (0, 1), got -100000.0\n"),
        (simulate + ["--signal", "-inf"], "error: signal must be nonnegative, got -inf\n"),
    ):
        assert main(argv) == 3, argv
        assert capsys.readouterr().err == err, argv


def test_reps_checked_before_pair_stage(tmp_path, capsys):
    # too few rows for t_tau too, but the configuration error is reported first
    p = write_demo_csv(tmp_path / "d.csv", n=3)
    argv = ["test", str(p), "--stats", "t_tau", "--method", "montecarlo", "--reps", "0"]
    assert main(argv) == 3
    assert "reps must be positive, got 0" in capsys.readouterr().err


def test_threads_flag_does_not_change_bytes(tmp_path):
    p = write_demo_csv(tmp_path / "d.csv", n=24, m=5)
    outs = []
    for t in ("1", "4"):
        out = tmp_path / f"out{t}.json"
        rc = main([
            "test", str(p), "--stats", "s_tau,s_rho_s,s_max_tau",
            "--method", "montecarlo", "--reps", "39", "--seed", "5",
            "--threads", t, "--out", str(out),
        ])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_writes_csv(tmp_path, capsys):
    rc = main([
        "simulate", "--family", "iid-null", "-n", "12", "-m", "3",
        "--reps", "5", "--stats", "s_tau,s_pearson", "--seed", "2",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("statistic,n,m,family,scatter,signal")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "s_tau"


def test_simulate_infeasible_exit_3(capsys):
    rc = main([
        "simulate", "--family", "mvn", "--n", "12", "--m", "3",
        "--reps", "5", "--signal", "0.5",
    ])
    assert rc == 3  # identity scatter cannot carry signal
    capsys.readouterr()


def test_s_max_tau_at_two_columns(tmp_path, capsys):
    # the Gumbel limit needs m >= 3, a data problem; the permutation null runs
    p = write_demo_csv(tmp_path / "d.csv", n=5, m=2)
    assert main(["test", str(p), "--stats", "s_max_tau"]) == 2
    assert capsys.readouterr().err == "error: s_max_tau's Gumbel limit needs m >= 3, got 2\n"
    assert main(["test", str(p), "--stats", "s_max_tau", "--method", "montecarlo", "--reps", "19"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["method"] == "montecarlo"


def test_simulate_sample_too_small_exit_2(capsys):
    # s_tau needs n >= 4; both calibrations report it as a data problem
    base = ["simulate", "--family", "mvn", "-n", "3", "-m", "4", "--reps", "2", "--stats", "s_tau"]
    assert main(base + ["--method", "asymptotic"]) == 2
    assert main(base + ["--method", "montecarlo", "--mc-reps", "5"]) == 2
    assert "needs n >= 4" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out and "FAIL" not in out


def test_selftest_flags_doctored_constants(tmp_path, capsys, monkeypatch):
    consts = constants.load(constants.default_path())
    doc = json.loads(constants.to_json(consts))
    doc["kernels"]["hoeffd"]["zetas"]["2"] = "1/405000"
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doc))
    assert main(["selftest", "--constants", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL zeta_ladder_hoeffd" in out
    # the doctored file must not leak into later library calls
    import os

    assert os.environ.get("RANKDEP_CONSTANTS") is None or "doctored" not in os.environ["RANKDEP_CONSTANTS"]
    fresh = constants.get()
    assert fresh.kernels["hoeffd"].zetas[2] == Fraction(1, 810000)


def test_selftest_missing_constants_exits_3(tmp_path, capsys):
    path = tmp_path / "typo" / "missing.json"
    assert main(["selftest", "--constants", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and str(path) in captured.err
    assert list(tmp_path.iterdir()) == []


def test_ladder_longer_than_the_degree_exits_3(tmp_path):
    # a tau ladder with a zeta_3 was once read as k = 3: z_tau ran on a wrong
    # rescale factor, and s_tau died in mu_from_zetas with a traceback
    doc = json.loads(constants.to_json(constants.load(constants.default_path())))
    doc["kernels"]["tau"]["zetas"]["3"] = "0/1"
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    p = write_demo_csv(tmp_path / "d.csv", n=40, m=6)
    for stat in ("z_tau", "s_tau"):
        proc = subprocess.run(
            [sys.executable, "-m", "rankdep.cli", "test", str(p), "--stats", stat],
            capture_output=True, text=True, env={**os.environ, "RANKDEP_CONSTANTS": str(path)},
        )
        assert (proc.returncode, proc.stdout) == (3, ""), stat
        assert proc.stderr == "error: constants file unreadable: tau needs zeta_1..zeta_k (k = 2), not all zero\n"


def test_console_script_entry_point(tmp_path):
    p = write_demo_csv(tmp_path / "d.csv", n=16)
    proc = subprocess.run(
        [sys.executable, "-m", "rankdep.cli", "test", str(p), "--stats", "z_rho_hat"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"][0]["statistic"] == "z_rho_hat"


def test_simulate_csv_with_s_pearson_pinned(capsys):
    # bytes recorded before s_pearson was calibrated through rescale(s_rho_s)
    rc = main([
        "simulate", "--family", "mvn", "--scatter", "equicorrelation", "--signal", "0.3",
        "-n", "24", "-m", "6", "--reps", "60", "--stats", "s_tau,s_rho_s,s_pearson", "--seed", "4",
    ])
    assert rc == 0
    assert capsys.readouterr().out == (
        "statistic,n,m,family,scatter,signal,alpha,method,reps,reject_rate,se\n"
        "s_tau,24,6,mvn,equicorrelation,0.3,0.05,asymptotic,60,0.6166666666666667,0.06276794416591015\n"
        "s_rho_s,24,6,mvn,equicorrelation,0.3,0.05,asymptotic,60,0.5833333333333334,0.06364688465216445\n"
        "s_pearson,24,6,mvn,equicorrelation,0.3,0.05,asymptotic,60,0.6166666666666667,0.06276794416591015\n"
    )


def test_simulate_mc_reps_checked_after_stats_before_sample_size(capsys):
    base = ["simulate", "--family", "mvn", "-n", "3", "-m", "4", "--reps", "5",
            "--method", "montecarlo", "--mc-reps", "0"]
    assert main(base + ["--stats", "s_bogus"]) == 3
    assert "unknown statistic 's_bogus'" in capsys.readouterr().err
    assert main(base + ["--stats", "t_tau"]) == 3
    assert capsys.readouterr().err == "error: reps must be positive, got 0\n"
    assert main(base + ["--stats", "s_pearson", "--mc-reps", "9"]) == 3
    assert capsys.readouterr().err == "error: s_pearson supports only asymptotic calibration\n"


def test_test_runs_s_pearson_asymptotically_only(tmp_path, capsys):
    # s_pearson's raw value is the centred sum of squared np.corrcoef entries,
    # calibrated as s_rho_s is; it has no permutation null
    p = write_demo_csv(tmp_path / "d.csv", n=30, m=5)
    assert main(["test", str(p), "--stats", "s_rho_s,s_pearson"]) == 0
    rho_s, pearson = json.loads(capsys.readouterr().out)["results"]
    data = read_csv_matrix(str(p))
    r = np.corrcoef(data, rowvar=False)[np.triu_indices(5, 1)]
    assert pearson["statistic"] == "s_pearson" and rho_s["statistic"] == "s_rho_s"
    assert pearson["raw"] == math.fsum((r * r).tolist()) - 10 / 29
    assert pearson["rescaled"] == pearson["raw"] * (30 / 5)
    assert pearson["raw"] != rho_s["raw"]
    argv = ["test", str(p), "--stats", "s_rho_s,s_pearson", "--method", "montecarlo", "--reps", "9"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: s_pearson supports only asymptotic calibration\n"


@pytest.mark.parametrize(
    "first, ties", [("1,1,1,1,1", "jitter"), ("1e308,-1e308,5e307,-5e307,1.5e308", "reject")]
)
def test_s_pearson_on_a_degenerate_column_exits_2(tmp_path, capsys, first, ties):
    # a constant column, or one whose variance overflows float64, has no Pearson correlation
    p = tmp_path / "d.csv"
    rows = zip(first.split(","), ["1", "3", "2", "5", "4"], ["0.5", "0.2", "0.9", "0.1", "0.7"])
    p.write_text("".join(",".join(r) + "\n" for r in rows))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["test", str(p), "--stats", "s_pearson", "--ties", ties]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: s_pearson is undefined: column 0 has zero or non-finite variance\n"


@pytest.mark.parametrize("target", ["missing/x.out", ".", ""])
def test_unwritable_out_exits_3(tmp_path, capsys, monkeypatch, target):
    # the path is checked before any input is read or any run starts
    def unreached(*args, **kwargs):
        raise AssertionError("run reached with an unwritable --out")

    for name in ("read_csv_matrix", "run_tests", "run_experiment"):
        monkeypatch.setattr(f"rankdep.cli.{name}", unreached)
    p = write_demo_csv(tmp_path / "d.csv", n=16)
    out = tmp_path / target if target else ""
    simulate = ["simulate", "--family", "iid-null", "-n", "12", "-m", "3", "--reps", "2"]
    for argv in (["test", str(p)], simulate):
        assert main(argv + ["--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: cannot write {out}: ")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["d.csv"]


def test_simulate_nan_signal_exits_3(capsys):
    for family in ("mvn", "mvt", "contaminated-mvn"):
        argv = ["simulate", "--family", family, "--scatter", "pentadiagonal", "--signal", "nan",
                "-n", "10", "-m", "3", "--reps", "2"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: signal must be nonnegative, got nan\n"
