"""Tests for the command-line entry points."""

import contextlib
import io
import math
import re
import shlex
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incpca import cli, harness, verify
from incpca.cli import build_parser, main
from incpca.verify import CheckReport


def test_run_writes_experiment_csv(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    rc = main(
        [
            "run",
            "--dist", "coordinate",
            "--p", "0.3", "--sigma", "0.5", "--d", "4",
            "--rule", "oja",
            "--c", "2.0",
            "--horizon", "1000",
            "--trials", "5",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    text = out.read_text()
    assert "n,mean_psi,median_psi,q10_psi,q90_psi,trials_ok" in text
    assert text.rstrip().splitlines()[-1].endswith(",5")


def test_slope_reads_back_run_output(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    main(
        [
            "run",
            "--dist", "coordinate",
            "--p", "0.3", "--sigma", "0.5", "--d", "4",
            "--rule", "oja",
            "--c", "2.0",
            "--horizon", "5000",
            "--trials", "10",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    capsys.readouterr()
    rc = main(["slope", "--input", str(out), "--n-min", "500", "--n-max", "5000"])
    assert rc == 0
    line = capsys.readouterr().out
    assert "slope=" in line and "r_squared=" in line


def test_schedule_emits_audited_table(tmp_path):
    out = tmp_path / "sched.csv"
    rc = main(
        [
            "schedule",
            "--delta", "0.1", "--d", "10", "--c-o", "4", "--c", "1", "--B", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    text = out.read_text()
    assert text.startswith("j,n_j,eps_j\n")
    assert "# audit: pass" in text


def test_bound_curve_decreases(tmp_path):
    out = tmp_path / "bound.csv"
    rc = main(
        [
            "bound",
            "--c-o", "4", "--d", "10", "--delta", "0.25", "--n-o", "1000",
            "--lambda1", "2.5", "--lambda2", "0.5",
            "--n-min", "1000", "--n-max", "100000", "--points", "6",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = out.read_text().strip().splitlines()[1:]
    vals = [float(r.split(",")[1]) for r in rows]
    assert vals == sorted(vals, reverse=True)


def test_counterexample_reports_fraction(capsys):
    rc = main(
        [
            "counterexample",
            "--p", "0.2", "--sigma", "0.5", "--d", "6",
            "--init", "first_point",
            "--trials", "100", "--horizon", "300", "--seed", "2", "--c", "5",
        ]
    )
    assert rc == 0
    line = capsys.readouterr().out
    assert "wrong_fraction=" in line
    frac = float(line.split("wrong_fraction=")[1].split()[0])
    assert 0.5 <= frac <= 1.0


def test_config_file_with_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment settings\n"
        "dist = coordinate\np = 0.3\nsigma = 0.5\nd = 4\n"
        "rule = oja\nc = 2.0\nhorizon = 1000\ntrials = 5\nseed = 1\n"
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    # the explicit flag must win over the config file value
    assert (
        main(["run", "--config", str(cfg), "--trials", "7", "--out", str(out2)]) == 0
    )
    assert out1.read_text().rstrip().splitlines()[-1].endswith(",5")
    assert out2.read_text().rstrip().splitlines()[-1].endswith(",7")


def test_a_bad_config_choice_is_checked_only_where_it_is_used(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c = 1\nhorizon = 100\ntrials = 2\nrule = foo\n")
    # a flag overrides the value; a subcommand without --rule ignores the key
    run = ["run", "--config", str(cfg), "--rule", "oja"]
    assert main([*run, "--out", str(tmp_path / "x.csv")]) == 0
    sched = ["schedule", "--config", str(cfg), "--delta", "0.1", "--d", "10", "--c-o", "4"]
    assert main([*sched, "--c", "1", "--out", str(tmp_path / "s.csv")]) == 0


def test_a_config_file_can_supply_a_required_flag(tmp_path, capsys):
    cfg = tmp_path / "sched.cfg"
    cfg.write_text("c = 1\n")
    sched = ["schedule", "--delta", "0.1", "--d", "10", "--c-o", "4"]
    assert main([*sched, "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
    assert main([*sched, "--c", "1", "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()
    # a key in neither the flags nor the file is still a one-line error
    cfg.write_text("B = 1\n")
    capsys.readouterr()
    assert main([*sched, "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 2
    assert capsys.readouterr().err == "incpca: error: the following arguments are required: --c\n"


@pytest.mark.parametrize("flag", [["--tri", "3"], ["--trials=3"]], ids=["abbreviated", "joined"])
def test_an_abbreviated_or_joined_flag_beats_the_config_file(tmp_path, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c = 1\nhorizon = 100\ntrials = 2\n")
    out = tmp_path / "exp.csv"
    assert main(["run", "--config", str(cfg), *flag, "--out", str(out)]) == 0
    assert out.read_text().rstrip().splitlines()[-1].endswith(",3")


def test_verify_quick_suite(tmp_path):
    out = tmp_path / "reports.csv"
    rc = main(
        [
            "verify",
            "--samples", "5000", "--trials", "20", "--steps", "500",
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "name,n_samples,empirical,reference,std_error,pass,slack,vacuous,detail"
    assert len(lines) == 9  # eight checks
    assert all(",true," in ln for ln in lines[1:])


# `incpca verify`'s two chains: the checks that read its generator, in
# order, then those seeded by --seed alone
RNG_CHAIN = ["check_gradient", "check_gamma_inequality", "check_mgf",
             "check_xi_expectation", "check_z_expectation"]
SEEDED_CHAIN = ["check_pathwise", "check_pathwise", "check_always_good"]


def _fake_checks(monkeypatch, calls, act=None):
    """Replace every check `verify` runs by one that records its name, then runs act(name)."""
    for name in set(RNG_CHAIN + SEEDED_CHAIN):
        def check(*args, name=name, **kwargs):
            calls.append(name)
            if act is not None:
                act(name)
            return CheckReport(name, 1, 0.0, 0.0, 0.0, True, 0.0)

        monkeypatch.setattr(verify, name, check)


def test_verify_report_does_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    argv = ["verify", "--samples", "3000", "--trials", "4", "--steps", "300", "--seed", "5"]
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        reports = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(harness, "CPUS", cpus)
            out = tmp_path / f"reports{cpus}.csv"
            assert main([*argv, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
    finally:
        sys.setswitchinterval(interval)
    assert reports[1] == reports[0] and reports[2] == reports[0]
    assert threading.active_count() == threads


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--samples", "1"], "need at least 2 samples"),
        (["--trials", "0"], "need at least one trial"),
        (["--steps", "0"], "need at least one step"),
    ],
    ids=["samples", "trials", "steps"],
)
def test_verify_rejects_a_bad_size_before_any_check(monkeypatch, capsys, argv, message):
    calls = []
    _fake_checks(monkeypatch, calls)
    assert main(["verify", *argv]) == 2
    assert capsys.readouterr().err == f"incpca: error: {message}\n"
    assert calls == []


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
@pytest.mark.parametrize("failing", ["rng", "seeded"])
def test_a_check_that_raises_stops_the_other_chain(monkeypatch, capsys, failing, error):
    # the first check of one chain raises while the first of the other
    # runs; that one returns, and its chain must run no further check
    monkeypatch.setattr(harness, "CPUS", 2)
    first, other = ("check_gradient", "check_pathwise")
    if failing == "seeded":
        first, other = other, first
    started, raised = threading.Event(), threading.Event()

    def act(name):
        if name == first:
            assert started.wait(10)
            raised.set()
            raise error("check failed")
        if name == other:
            started.set()
            assert raised.wait(10)
            time.sleep(0.1)  # lets the failing chain stop what is left

    calls = []
    _fake_checks(monkeypatch, calls, act)
    threads = threading.active_count()
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(["verify"])
    else:
        assert main(["verify"]) == 2
        assert capsys.readouterr().err == "incpca: error: check failed\n"
    assert sorted(calls) == sorted([first, other])
    assert threading.active_count() == threads


def test_ctrl_c_while_waiting_stops_the_other_chain(monkeypatch):
    # the generator's chain has ended and the calling thread waits for the
    # seeded one, which is still in its first check when Ctrl-C arrives
    monkeypatch.setattr(harness, "CPUS", 2)
    rng_chain_done = threading.Event()

    def act(name):
        if name == RNG_CHAIN[-1]:
            rng_chain_done.set()
        elif name == "check_pathwise" and calls.count(name) == 1:
            assert rng_chain_done.wait(10)
            time.sleep(0.1)  # the calling thread is now waiting
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(0.1)

    calls = []
    _fake_checks(monkeypatch, calls, act)
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            main(["verify"])
    finally:
        signal.signal(signal.SIGINT, handler)
    assert sorted(calls) == sorted([*RNG_CHAIN, "check_pathwise"])


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--init", "average_k", "--c", "1"], "average_k needs k >= 1"),
        ([], "give exactly one of c, c_o"),
        # the average of trial 0's two samples cancels under this seed
        (
            ["--init", "average_k", "--init-k", "2", "--c", "1", "--trials", "1",
             "--p", "0.3", "--d", "4", "--seed", "11"],
            "all trials failed at initialization",
        ),
    ],
)
def test_run_input_errors_are_one_line(tmp_path, capsys, flags, message):
    out = tmp_path / "exp.csv"
    rc = main(["run", "--horizon", "100", "--trials", "2", "--out", str(out), *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"incpca: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ["run", "--c", "-1", "--horizon", "100", "--trials", "2"],
            "--c -1.0: need a positive, finite step-size constant, got c = -1.0",
            id="argv0-c must be positive",
        ),
        (["counterexample", "--trials", "0", "--horizon", "100"], "need at least one trial"),
        (
            ["verify", "--trials", "0", "--samples", "100", "--steps", "10"],
            "need at least one trial",
        ),
        (["verify", "--samples", "0", "--steps", "10"], "need at least 2 samples"),
        (["verify", "--samples", "1", "--steps", "10"], "need at least 2 samples"),
        (
            ["verify", "--samples", "100", "--steps", "0", "--trials", "2"],
            "need at least one step",
        ),
        (["counterexample", "--trials", "10", "--horizon", "0"], "horizon must be at least 1"),
        (["run", "--n-o", "-3", "--c", "1", "--horizon", "100", "--trials", "2"], "n_o must be >= 0"),
        (
            ["bound", "--c-o", "4", "--d", "10", "--delta", "0.25", "--n-o", "1000",
             "--lambda1", "2.5", "--lambda2", "0.5", "--n-min", "0", "--n-max", "100"],
            "need 1 <= --n-min <= --n-max",
        ),
        (
            ["bound", "--c-o", "4", "--d", "10", "--delta", "0.25", "--n-o", "1000",
             "--lambda1", "2.5", "--lambda2", "0.5", "--n-min", "1", "--n-max", "100",
             "--points", "0"],
            "need --points >= 1",
        ),
        (
            ["run", "--c", "1", "--horizon", "100", "--trials", "2", "--grid-points", "-1"],
            "grid_points must be at least 1",
        ),
    ],
)
def test_nonpositive_rate_or_trial_count_is_one_line(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    # counterexample prints its result and has no --out
    out_flag = [] if argv[0] == "counterexample" else ["--out", str(out)]
    assert main([*argv, *out_flag]) == 2
    assert capsys.readouterr().err == f"incpca: error: {message}\n"
    assert not out.exists()


SCHEDULE = ["schedule", "--d", "10"]
BOUND = ["bound", "--c-o", "4", "--d", "10", "--n-o", "100", "--lambda1", "1",
         "--lambda2", "0.5", "--n-min", "1", "--n-max", "1000"]


@pytest.mark.parametrize(
    "argv",
    [
        [*SCHEDULE, "--delta", "0.1", "--c-o", "0.001", "--c", "1"],  # exp(5 / c_o)
        [*SCHEDULE, "--delta", "0.1", "--c-o", "4", "--c", "1e200"],  # c**2
        [*SCHEDULE, "--delta", "0.1", "--c-o", "4", "--c", "1", "--B", "1e200"],  # B**2
        [*BOUND, "--delta", "0.1", "--B", "1e200"],  # B**2
        [*SCHEDULE, "--delta", "1e-200", "--c-o", "4", "--c", "1"],  # delta**2 is 0
        [*BOUND, "--delta", "1e-200"],
    ],
    ids=["schedule-c_o", "schedule-c", "schedule-B", "bound-B", "schedule-delta", "bound-delta"],
)
def test_theory_input_that_overflows_is_one_line(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"incpca: error: {argv[0]} ") and err.count("\n") == 1
    # the line names every given flag with its value, as parsed
    for flag, text in zip(argv[1::2], argv[2::2]):
        value = int(text) if flag in ("--d", "--n-o", "--n-min", "--n-max") else float(text)
        assert f" {flag} {value!r}" in err, flag


def test_a_clip_radius_that_accepts_no_sample_is_one_line(tmp_path, capsys):
    # every row is rejected, so the draw gives up after redrawing 100 rows per row
    out = tmp_path / "x.csv"
    argv = ["run", "--dist", "gaussian", "--eigenvalues", "2,1", "--clip-radius", "1e-9",
            "--rule", "oja", "--c", "1", "--horizon", "10", "--trials", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "incpca: error: --clip-radius 1e-09: clip_radius 1e-09 accepts almost no samples"
    )
    assert err.count("\n") == 1
    assert not out.exists()


COORDINATE = ["--dist", "coordinate", "--p", "0.2", "--sigma", "0.5", "--d", "10"]


@pytest.mark.parametrize(
    "rate",
    [["--rule", "krasulina", "--c", "1e308"], ["--rule", "oja", "--c-o", "1e308"]],
    ids=["krasulina-c", "oja-c_o"],
)
def test_a_step_size_that_overflows_is_one_line_naming_its_flag(tmp_path, capsys, rate):
    # Krasulina's states overflow in the update; Oja's c = c_o / (2 gap) is inf.
    # A numpy warning on the way would fail the suite, which turns them into errors.
    out = tmp_path / "x.csv"
    argv = ["run", *COORDINATE, *rate, "--horizon", "100", "--trials", "2", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"incpca: error: {rate[2]} 1e+308: ") and err.count("\n") == 1
    assert not out.exists()


# each flag of `run` and `counterexample` that sets the step size or the clip
# radius, at these values
EDGE_VALUES = ["nan", "inf", "-inf", "0", "-0.0", "1e308", "5e-324"]
GAUSSIAN = ["--dist", "gaussian", "--eigenvalues", "2,1"]


def _stdout_or_one_line_naming_a_flag(argv, given_flags):
    """main(argv)'s stdout when it exits 0, else None once its error is checked.

    The error must be exit 2 with one stderr line that names a given flag.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc == 0:
        return out.getvalue()
    assert rc == 2
    line = err.getvalue()
    assert line.startswith("incpca: error: ") and line.count("\n") == 1
    # a flag is named whole: --c is not named by --c-o or --clip-radius
    assert any(re.search(rf"{f}(?![\w-])", line) for f, _ in given_flags), line
    return None


@settings(max_examples=60, deadline=None)
@given(
    rule=st.sampled_from(["krasulina", "oja"]),
    dist=st.sampled_from([COORDINATE, GAUSSIAN]),
    rate=st.tuples(st.sampled_from(["--c", "--c-o"]), st.sampled_from(EDGE_VALUES)),
    clip=st.none() | st.sampled_from(EDGE_VALUES),
)
def test_step_size_and_clip_flags_give_a_finite_csv_or_one_line_naming_a_flag(
    rule, dist, rate, clip
):
    given_flags = [rate] if clip is None else [rate, ("--clip-radius", clip)]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "x.csv"
        argv = ["run", *dist, "--rule", rule, *(f"{f}={v}" for f, v in given_flags),
                "--horizon", "20", "--trials", "2", "--out", str(out)]
        if _stdout_or_one_line_naming_a_flag(argv, given_flags) is None:
            assert not out.exists()
            return
        with open(out, newline="") as fh:
            header, *rows = harness.read_csv(fh)
    assert rows and all(math.isfinite(float(v)) for row in rows for v in row)


@settings(max_examples=60, deadline=None)
@given(
    rule=st.sampled_from(["krasulina", "oja"]),
    dist=st.sampled_from([COORDINATE, GAUSSIAN]),
    init=st.sampled_from(["random_unit", "first_point"]),
    c=st.sampled_from(EDGE_VALUES),
    clip=st.none() | st.sampled_from(EDGE_VALUES),
)
def test_counterexample_gives_a_finite_fraction_or_one_line_naming_a_flag(
    rule, dist, init, c, clip
):
    given_flags = [("--c", c)] if clip is None else [("--c", c), ("--clip-radius", clip)]
    argv = ["counterexample", *dist, "--rule", rule, "--init", init,
            *(f"{f}={v}" for f, v in given_flags), "--horizon", "20", "--trials", "2"]
    stdout = _stdout_or_one_line_naming_a_flag(argv, given_flags)
    if stdout is not None:
        frac, se = re.fullmatch(r"wrong_fraction=(\S+) std_error=(\S+)\n", stdout).groups()
        assert math.isfinite(float(frac)) and math.isfinite(float(se))


def test_a_tiny_c_o_takes_zeta_at_2(tmp_path, capsys):
    # below about 2.2e-16, 2 - c_o / 2 rounds to 2.0, where zeta is pi^2 / 6
    out = tmp_path / "x.csv"
    argv = ["bound", "--c-o", "1e-16", "--B", "1", "--d", "3", "--delta", "0.25",
            "--n-o", "1000", "--lambda1", "0.9", "--lambda2", "0.05",
            "--n-min", "1000", "--n-max", "100000", "--points", "5", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        header, *rows = harness.read_csv(fh)
    assert header == ["n", "bound"] and len(rows) == 5
    assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_a_bound_that_overflows_writes_no_file(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = [*BOUND, "--delta", "0.1", "--B", "1e200", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    out.write_bytes(b"n,bound\n1,0.5\n")
    assert main(argv) == 2
    assert out.read_bytes() == b"n,bound\n1,0.5\n"
    capsys.readouterr()


def test_slope_reads_back_gaussian_run(tmp_path, capsys):
    out = tmp_path / "gauss.csv"
    eigenvalues = ",".join(repr(1.0 / k) for k in range(1, 13))
    rc = main(
        [
            "run",
            "--dist", "gaussian", "--eigenvalues", eigenvalues,
            "--rule", "oja", "--c-o", "4",
            "--horizon", "3000", "--trials", "10", "--seed", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    header = out.read_text().split("n,mean_psi,")[0].splitlines()
    assert len(header) > 11 and all(line.startswith("#") for line in header)
    capsys.readouterr()
    rc = main(["slope", "--input", str(out), "--n-min", "300", "--n-max", "3000"])
    assert rc == 0
    assert "slope=" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["slope", "--input", "{tmp}/missing.csv", "--n-min", "1", "--n-max", "2"],
            "[Errno 2] No such file or directory: '{tmp}/missing.csv'",
        ),
        (
            ["run", "--config", "{tmp}/missing.cfg"],
            "[Errno 2] No such file or directory: '{tmp}/missing.cfg'",
        ),
        (
            ["run", "--c", "1", "--horizon", "10", "--trials", "1", "--out", "{tmp}/no/dir/x.csv"],
            "[Errno 2] No such file or directory: '{tmp}/no/dir/x.csv'",
        ),
        (["run", "--config", "{tmp}/bad.cfg"], "{tmp}/bad.cfg: line 2: expected key=value"),
        (
            ["run", "--config", "{tmp}/rule.cfg"],
            "argument --rule: invalid choice: 'foo' (choose from 'krasulina', 'oja')",
        ),
        (
            ["run", "--config", "{tmp}/dist.cfg"],
            "argument --dist: invalid choice: 'csv' (choose from 'coordinate', 'gaussian')",
        ),
        (
            ["run", "--config", "{tmp}/init.cfg"],
            "argument --init: invalid choice: 'bogus' "
            "(choose from 'random_unit', 'first_point', 'average_k')",
        ),
        (["run", "--config", "{tmp}/type.cfg"], "argument --trials: invalid int value: 'x'"),
        (
            ["slope", "--input", "{tmp}/exp.csv", "--column", "nope", "--n-min", "1",
             "--n-max", "2"],
            "{tmp}/exp.csv: no column 'nope'",
        ),
        # a run's CSV starts at n=0, where ln n is undefined
        (
            ["slope", "--input", "{tmp}/run.csv", "--n-min", "0", "--n-max", "100"],
            "need n_min > 0 for a log-log fit, got 0.0",
        ),
    ],
    ids=[
        "slope-input", "config", "out-dir", "config-line", "config-rule", "config-dist",
        "config-init", "config-type", "slope-column", "slope-n-min",
    ],
)
def test_file_and_config_errors_are_one_line(tmp_path, capsys, argv, message):
    (tmp_path / "bad.cfg").write_text("c = 1\nhorizon 100\n")
    run_cfg = "c = 1\nhorizon = 100\ntrials = 2\nout = {}\n".format(tmp_path / "x.csv")
    (tmp_path / "rule.cfg").write_text(run_cfg + "rule = foo\n")
    (tmp_path / "dist.cfg").write_text(run_cfg + "dist = csv\n")
    (tmp_path / "init.cfg").write_text(run_cfg + "init = bogus\n")
    (tmp_path / "type.cfg").write_text(run_cfg + "trials = x\n")
    (tmp_path / "exp.csv").write_text("# a comment\nn,mean_psi\n1,0.5\n")
    (tmp_path / "run.csv").write_text("n,mean_psi\n" + "".join(f"{n},{0.9 ** n}\n" for n in range(8)))
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err == f"incpca: error: {message.format(tmp=tmp_path)}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["run", "--rule", "foo"],
            "argument --rule: invalid choice: 'foo' (choose from 'krasulina', 'oja')",
        ),
        (["run", "--trials", "x"], "argument --trials: invalid int value: 'x'"),
        (
            ["bound", "--c-o", "4", "--d", "3", "--delta", "0.25", "--n-o", "1000",
             "--lambda1", "0.9", "--lambda2", "0.05", "--n-min", "1000"],
            "the following arguments are required: --n-max",
        ),
        # without the check: a CSV of nan, "state has a non-finite squared
        # norm", "cannot convert float NaN to integer"
        ([*BOUND, "--delta", "0.1", "--c-o", "nan"], "argument --c-o: need a finite number, got 'nan'"),
        (["run", "--c", "nan"], "argument --c: need a finite number, got 'nan'"),
        (
            [*SCHEDULE, "--delta", "0.1", "--c-o", "4", "--c", "NaN"],
            "argument --c: need a finite number, got 'NaN'",
        ),
        (["run", "--c-o=-inf"], "argument --c-o: need a finite number, got '-inf'"),
        (
            ["run", "--dist", "gaussian", "--clip-radius", "inf", "--c", "1"],
            "argument --clip-radius: need a finite number, got 'inf'",
        ),
        (["run", "--c", "x"], "argument --c: invalid float value: 'x'"),
    ],
    ids=["choice", "type", "missing", "bound-nan", "run-nan", "schedule-nan", "run-inf",
         "clip-radius-inf", "float-type"],
)
def test_bad_flags_are_one_line(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"incpca: error: {message}\n"


@pytest.mark.parametrize("route", ["flag", "config"])
def test_a_bad_eigenvalue_list_names_its_flag(tmp_path, capsys, route):
    argv = ["run", "--dist", "gaussian", "--c", "1", "--horizon", "10", "--trials", "1",
            "--out", str(tmp_path / "x.csv")]
    if route == "flag":
        argv += ["--eigenvalues", "1,x"]
    else:
        (tmp_path / "run.cfg").write_text("eigenvalues = 1,x\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "incpca: error: argument --eigenvalues: could not convert string to float: 'x'\n"
    )
    assert not (tmp_path / "x.csv").exists()


def test_parsed_eigenvalues_stay_text():
    # the benchmark's workloads build the distribution from this text
    args = build_parser().parse_args(["run", "--eigenvalues", "1.0,0.5"])
    assert args.eigenvalues == "1.0,0.5"


def test_a_non_finite_eigenvalue_is_one_line_before_any_step(tmp_path, capsys):
    argv = ["run", "--dist", "gaussian", "--eigenvalues", "2,1,nan", "--c", "1",
            "--horizon", "10", "--trials", "2", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "incpca: error: eigenvalues must be finite, got [2.0, 1.0, nan]\n"
    )
    assert not (tmp_path / "x.csv").exists()


def test_readme_cli_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    commands = [
        shlex.split(line)[1:]
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("incpca ")
    ]
    assert len(commands) == 6
    for argv in commands:
        build_parser().parse_args(argv)


class _ReadLog:
    """A parsed namespace that records the name of every attribute read from it."""

    def __init__(self, ns, reads):
        self._ns, self._reads = ns, reads

    def __getattr__(self, name):
        self._reads.add(name)
        return getattr(self._ns, name)


def test_every_flag_of_a_subcommand_is_read(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "exp.csv")
    # each --dist reads its own parameters, so both run
    coordinate, gaussian = ["--dist", "coordinate"], ["--dist", "gaussian"]
    run = ["run", "--c", "1", "--horizon", "30", "--trials", "2", "--grid-points", "10"]
    bound = ["bound", "--c-o", "4", "--d", "3", "--delta", "0.25", "--n-o", "10",
             "--lambda1", "0.9", "--lambda2", "0.05", "--n-min", "10", "--n-max", "100"]
    argvs = {
        "run": [[*run, *coordinate, "--out", out], [*run, *gaussian, "--out", out]],
        "slope": [["slope", "--input", out, "--n-min", "1", "--n-max", "30"]],
        "counterexample": [
            ["counterexample", *coordinate, "--trials", "2", "--horizon", "20"],
            ["counterexample", *gaussian, "--trials", "2", "--horizon", "20"],
        ],
        "schedule": [["schedule", "--delta", "0.1", "--d", "10", "--c-o", "4", "--c", "1",
                      "--out", str(tmp_path / "sched.csv")]],
        "bound": [[*bound, "--out", str(tmp_path / "bound.csv")]],
        "verify": [["verify", "--samples", "100", "--trials", "2", "--steps", "5",
                    "--out", str(tmp_path / "reports.csv")]],
    }
    reads = set()
    parse_args = cli._Parser.parse_args
    monkeypatch.setattr(
        cli._Parser, "parse_args", lambda self, *a: _ReadLog(parse_args(self, *a), reads)
    )
    subcommands = build_parser()._subparsers._group_actions[0].choices
    assert argvs.keys() == subcommands.keys()
    unread = {}
    for command, runs in argvs.items():
        reads.clear()
        for argv in runs:
            assert main(argv) in (0, 1), capsys.readouterr().err
        flags = {a.dest for a in subcommands[command]._actions} - {"help"}
        if flags - reads:
            unread[command] = flags - reads
    assert unread == {}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["counterexample", "--out", "x.csv"], "--out x.csv"),
        (["schedule", "--delta", "0.1", "--d", "10", "--c-o", "4", "--c", "1", "--seed", "1"],
         "--seed 1"),
    ],
    ids=["counterexample-out", "schedule-seed"],
)
def test_a_flag_that_a_subcommand_does_not_read_is_a_one_line_error(
    tmp_path, monkeypatch, capsys, argv, flag
):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"incpca: error: unrecognized arguments: {flag}\n"
    assert list(tmp_path.iterdir()) == []
