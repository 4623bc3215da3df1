"""Tests for the command-line entry points."""

import numpy as np
import pytest

from incpca.cli import main


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
    assert lines[0] == "name,n_samples,empirical,reference,std_error,pass,slack"
    assert len(lines) == 9  # eight checks
    assert all(",true," in ln for ln in lines[1:])


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
