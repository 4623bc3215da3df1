"""The benchmark's per-layer coverage guard, at small sizes.

A traced benchmark run exits 3 when a per-layer metric that
`perfbench/spans.py` maps to its workload saw no call to any of its spans,
for instance when a change stops calling a wrapped function on that path.
Scaled-down versions of the four workloads run here under the same
tracer, so such a change fails this test before it reaches the benchmark.
"""

import dataclasses
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from incpca import cli, estimators, harness, verify
from incpca.distributions import CoordinateDistribution

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
RUN = ["--c-o", "4", "--horizon", "3000", "--trials", "4"]
COORDINATE = ["--dist", "coordinate", "--p", "0.2", "--sigma", "0.5", "--d", "10"]


def _load(path, monkeypatch=None):
    """A perfbench module, executed from its source so that nothing is written beside it.

    With monkeypatch it is also registered in sys.modules for the test,
    which its dataclasses need.
    """
    module = types.ModuleType(path.stem)
    module.__file__ = str(path)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, path.stem, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _spans():
    return _load(SPANS)


def coord_readme(tmp_path):
    for rule in ("oja", "krasulina"):
        argv = ["run", *COORDINATE, "--rule", rule, *RUN, "--out", str(tmp_path / f"{rule}.csv")]
        assert cli.main(argv) == 0


def gauss_wide(tmp_path):
    argv = ["run", "--dist", "gaussian", "--eigenvalues", "1,0.5,0.25", "--rule", "oja",
            *RUN, "--out", str(tmp_path / "gauss.csv")]
    assert cli.main(argv) == 0


def verify_long(tmp_path):
    # at these sizes a Monte Carlo check may fail; only the calls matter here
    cli.main(["verify", "--steps", "300", "--trials", "3", "--samples", "2000",
              "--out", str(tmp_path / "verify.csv")])


def stream_api(tmp_path):
    rng = np.random.default_rng(0)
    xs = CoordinateDistribution(p=0.2, sigma=0.5, d=10).sample_block(rng, 10)
    state = estimators.EstimatorState(
        V=rng.standard_normal(10), n=0, rule=estimators.KRASULINA,
        lr=estimators.LearningRate(c=5.0),
    )
    bstate = estimators.BlockState(
        V=np.linalg.qr(rng.standard_normal((10, 3)))[0], n=0,
        lr=estimators.LearningRate(c=1.0),
    )
    for x in xs:
        state = estimators.step(state, x)
        bstate = estimators.block_oja_step(bstate, x)


@pytest.mark.parametrize("workload", [coord_readme, gauss_wide, verify_long, stream_api],
                         ids=lambda w: w.__name__)
def test_every_mapped_metric_sees_a_call(workload, tmp_path):
    spans = _spans()
    with spans.installed(spans.Tracer()) as tracer:
        workload(tmp_path)
    assert tracer.unrecorded(workload.__name__) == []


# spans.py wraps sample_block but not sample_blocks, so a coordinate chunk
# filled in sub-blocks is missing from the sampling metrics; the benchmark's
# coordinate chunks (16 MB on coord_readme, 8 MB on verify_long) fit
# harness.CHUNK_BYTES, so each trial's rows come from one sample_block call
SAMPLING = [f"distributions.sample_block.{m}" for m in ("s", "calls", "rows")]


@pytest.mark.parametrize("workload, unrecorded", [(gauss_wide, []), (coord_readme, SAMPLING)],
                         ids=["gauss_wide", "coord_readme"])
def test_the_sub_block_path_under_the_tracer(workload, unrecorded, tmp_path, monkeypatch):
    # small enough that every chunk is drawn a sub-block of steps at a time
    monkeypatch.setattr(harness, "CHUNK_BYTES", 4096)
    spans = _spans()
    with spans.installed(spans.Tracer()) as tracer:
        workload(tmp_path)
    assert tracer.unrecorded(workload.__name__) == unrecorded


@pytest.mark.parametrize("failing", [(), ("xi_expectation",)], ids=["all-pass", "xi-fails"])
def test_the_verify_workload_reads_the_report(failing, tmp_path, monkeypatch):
    # the rows that `incpca verify` writes, the xi row's detail included;
    # pass is forced, so the check's own outcome at this size does not matter
    workloads = _load(PERFBENCH / "workloads.py", monkeypatch)
    run = workloads.VerifyRun(0, str(tmp_path))
    rng = np.random.default_rng(0)
    dist = CoordinateDistribution(p=0.2, sigma=0.5, d=10)
    reports = [
        verify.check_xi_expectation(dist, rng.standard_normal(10), 2000, rng),
        verify.check_z_expectation(dist, rng.standard_normal(10), 0.1, 2000, rng),
        verify.check_pathwise(dist, "oja", 20, 2, 0, c=5.0),
    ]
    assert reports[0].detail
    reports = [dataclasses.replace(rep, passed=rep.name not in failing) for rep in reports]
    with open(run.path, "w", newline="") as fh:
        verify.write_reports(fh, reports)
    (op,) = run.check(0)
    assert op.failures == [f"{name} did not pass" for name in failing]
