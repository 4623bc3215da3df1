"""The four benchmark workloads: inputs from a seed, one timed pass, output checks.

A workload is built by ``build(name, seed, workdir)``, which imports the
package, builds the argument parser, the distribution and its ground truth
and any generated inputs; that is the part the set-up time covers.  Each
workload has a ``name``, ``trial_steps`` (update steps per pass, summed over
trials), ``run_pass()``, which performs one pass (the timed part) and
returns its result, and ``check(result)``, which returns the operations the
pass attempted; each operation carries the output checks it failed (an
empty list when it is correct).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

README_RUN = ["--dist", "coordinate", "--p", "0.2", "--sigma", "0.5", "--d", "10",
              "--c-o", "4", "--horizon", "100000", "--trials", "100"]
GAUSS_EIGENVALUES = [1.0] + [0.5 / k for k in range(1, 20)]
GAUSS_RUN = ["--dist", "gaussian", "--eigenvalues", ",".join(repr(v) for v in GAUSS_EIGENVALUES),
             "--rule", "oja", "--c-o", "4", "--horizon", "10000", "--trials", "1000"]
VERIFY_ARGS = ["--steps", "10000", "--trials", "50", "--samples", "1000000"]
STREAM_STEPS = 50_000

NAMES = ("coord_readme", "gauss_wide", "verify_long", "stream_api")


@dataclass
class Operation:
    name: str
    failures: list[str] = field(default_factory=list)


def read_experiment_rows(text: str) -> dict[str, np.ndarray]:
    """Columns of an experiment CSV, read from the header row onwards.

    The config header is skipped by position rather than by its '#' prefix:
    a multi-line numpy repr in it (Gaussian eigenvalues) spills onto lines
    that carry no prefix.
    """
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("n,mean_psi,"))
    header = lines[start].split(",")
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[start + 1:] if line])
    return {name: rows[:, j] for j, name in enumerate(header)}


def loglog_slope(ns, vals, n_min: float, n_max: float) -> float:
    sel = (ns >= n_min) & (ns <= n_max) & (vals > 0)
    return float(np.polyfit(np.log(ns[sel]), np.log(vals[sel]), 1)[0])


def quiet_main(argv: list[str]) -> int:
    from incpca import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def make_dist(args):
    """The distribution `incpca run` builds from its parsed arguments."""
    from incpca.distributions import CoordinateDistribution, GaussianSpectrum

    if args.dist == "coordinate":
        return CoordinateDistribution(p=args.p, sigma=args.sigma, d=args.d)
    return GaussianSpectrum(eigenvalues=np.array([float(s) for s in args.eigenvalues.split(",")]))


class ExperimentRuns:
    """`incpca run` invocations; checks determinism, trial count and slope."""

    def __init__(self, name, runs, seed, workdir, window):
        from incpca import cli

        self.name = name
        self.argvs = {}  # label -> full command line
        self.trials = {}
        self.trial_steps = 0
        for label, argv in runs.items():
            path = os.path.join(workdir, f"{name}_{label}.csv")
            self.argvs[label] = ["run", *argv, "--seed", str(seed), "--out", path]
            args = cli.build_parser().parse_args(self.argvs[label])
            make_dist(args).ground_truth()
            self.trials[label] = args.trials
            self.trial_steps += args.trials * (args.horizon - args.n_o)
        self.window = window
        self.first_digest: dict[str, str] = {}

    def run_pass(self):
        return {label: quiet_main(argv) for label, argv in self.argvs.items()}

    def check(self, statuses):
        ops = []
        for label, argv in self.argvs.items():
            op = Operation(f"run {label}")
            ops.append(op)
            if statuses[label] != 0:
                op.failures.append(f"exit status {statuses[label]}")
                continue
            with open(argv[-1], "rb") as fh:
                data = fh.read()
            digest = hashlib.sha256(data).hexdigest()
            if self.first_digest.setdefault(label, digest) != digest:
                op.failures.append("CSV differs from the first pass with the same seed")
            cols = read_experiment_rows(data.decode())
            if not np.all(cols["trials_ok"] == self.trials[label]):
                op.failures.append(f"trials_ok != {self.trials[label]}")
            slope = loglog_slope(cols["n"], cols["mean_psi"], *self.window)
            if not slope <= -0.9:
                op.failures.append(f"mean_psi slope {slope:.3f} > -0.9 on {self.window}")
        return ops


class VerifyRun:
    """`incpca verify` at a long horizon; every report row must pass."""

    def __init__(self, seed, workdir):
        from incpca import cli, theory
        from incpca.distributions import CoordinateDistribution

        self.name = "verify_long"
        self.path = os.path.join(workdir, "verify_long.csv")
        self.argv = ["verify", *VERIFY_ARGS, "--seed", str(seed), "--out", self.path]
        args = cli.build_parser().parse_args(self.argv)
        CoordinateDistribution(p=0.2, sigma=0.5, d=10).ground_truth()
        # two pathwise replays plus the always-good simulation, which runs
        # 20000 steps from the n_o the theory module gives (B=1, c=1, d=3)
        n_o = theory.always_good_bound(0.05)[1](1.0, 1.0, 3)
        self.trial_steps = (2 * args.steps + 20_000 - n_o) * args.trials

    def run_pass(self):
        return quiet_main(self.argv)

    def check(self, status):
        op = Operation("verify")
        if status != 0:
            op.failures.append(f"exit status {status}")
        with open(self.path) as fh:
            header, *rows = [line.split(",") for line in fh.read().splitlines()]
        ipass = header.index("pass")
        op.failures += [f"{row[0]} did not pass" for row in rows if row[ipass] != "true"]
        return [op]


def reference_krasulina(v, xs, c):
    """The Krasulina recurrence written out, step by step, from its equation."""
    for n, x in enumerate(xs, start=1):
        dot = v @ x
        v = v + (c / n) * (dot * x - (dot * dot / (v @ v)) * v)
    return v


def reference_block_oja(V, xs, c):
    """Rank-one growth then Gram-Schmidt, the latter as a QR with R's diagonal > 0."""
    for n, x in enumerate(xs, start=1):
        Q, R = np.linalg.qr(V + (c / n) * np.outer(x, x @ V))
        V = Q * np.sign(np.diag(R))
    return V


class StreamApi:
    """Single-state library API: README Krasulina loop, then block Oja at p=3.

    Both final states are compared with the recurrences replayed by the
    benchmark itself (``reference_*``), computed once per run.
    """

    C_SCALAR, C_BLOCK = 5.0, 1.0

    def __init__(self, seed):
        from incpca import estimators
        from incpca.distributions import CoordinateDistribution

        self.name = "stream_api"
        self.trial_steps = 2 * STREAM_STEPS
        rng = np.random.default_rng(seed)
        dist = CoordinateDistribution(p=0.2, sigma=0.5, d=10)
        self.v_star = dist.ground_truth().v_star
        self.state0 = estimators.EstimatorState(
            V=rng.standard_normal(10), n=0, rule=estimators.KRASULINA,
            lr=estimators.LearningRate(c=self.C_SCALAR),
        )
        self.xs = dist.sample_block(rng, STREAM_STEPS)
        block_dist = CoordinateDistribution(p=0.3, sigma=0.5, d=20)
        block_dist.ground_truth()
        self.frame0 = np.linalg.qr(rng.standard_normal((20, 3)))[0]
        self.block_xs = block_dist.sample_block(rng, STREAM_STEPS)
        self.block_seed = seed
        self.reference = None

    def run_pass(self):
        from incpca import estimators

        state = self.state0
        for x in self.xs:
            state = estimators.step(state, x)
        bstate = estimators.BlockState(
            V=self.frame0, n=0, lr=estimators.LearningRate(c=self.C_BLOCK),
            _rng=np.random.default_rng(self.block_seed),
        )
        for x in self.block_xs:
            bstate = estimators.block_oja_step(bstate, x)
        return state, bstate

    def check(self, result):
        from incpca import linalg

        state, bstate = result
        if self.reference is None:
            self.reference = (
                reference_krasulina(self.state0.V, self.xs, self.C_SCALAR),
                reference_block_oja(self.frame0, self.block_xs, self.C_BLOCK),
            )
        v_ref, frame_ref = self.reference
        scalar, block = Operation("step"), Operation("block_oja_step")
        err = float(np.linalg.norm(state.V - v_ref) / np.linalg.norm(v_ref))
        if not err <= 1e-9:
            scalar.failures.append(f"final V differs from the reference by {err:.3g} (relative)")
        psi0, psi = (linalg.potential(v, self.v_star) for v in (self.state0.V, state.V))
        if not psi < psi0:
            scalar.failures.append(f"potential did not fall: {psi0:.3g} -> {psi:.3g}")
        drift = float(np.abs(bstate.V.T @ bstate.V - np.eye(3)).max())
        if not drift <= 1e-10:
            block.failures.append(f"max|V'V - I| = {drift:.3g} > 1e-10")
        if bstate.collapse_events:
            block.failures.append(f"{bstate.collapse_events} collapse events")
        err = float(np.abs(bstate.V - frame_ref).max())
        if not err <= 1e-9:
            block.failures.append(f"final frame differs from the reference by {err:.3g}")
        return [scalar, block]


def build(name: str, seed: int, workdir: str):
    if name == "coord_readme":
        runs = {rule: [*README_RUN, "--rule", rule] for rule in ("oja", "krasulina")}
        return ExperimentRuns(name, runs, seed, workdir, (1e4, 1e5))
    if name == "gauss_wide":
        return ExperimentRuns(name, {"oja": GAUSS_RUN}, seed, workdir, (1e3, 1e4))
    if name == "verify_long":
        return VerifyRun(seed, workdir)
    if name == "stream_api":
        return StreamApi(seed)
    raise ValueError(f"unknown workload {name!r}")
