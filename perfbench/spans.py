"""Per-layer spans, recorded by wrapping the package's functions from outside.

Each wrapper records a span (name, start, end, parent) in memory and, for
some functions, a count taken from the call's arguments or result.  The
program's own code is not changed: ``installed`` swaps the wrappers onto the
module (or class) attributes and puts the originals back afterwards.

Two call sites cannot be seen this way and are folded into their caller's
self time: ``harness`` binds ``trial_rng`` by name at import, and
``verify.check_pathwise`` writes the update arithmetic inline instead of
calling the ``estimators`` kernels.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter

import numpy as np

MC_CHECKS = ("verify.check_mgf", "verify.check_xi_expectation", "verify.check_z_expectation")
LINALG = ("rayleigh_quotient", "rayleigh_gradient", "potential", "top_eigs")
LINALG_SPANS = tuple(f"linalg.{f}" for f in LINALG)
CHECKS = ("verify.check_pathwise", *MC_CHECKS, "verify.check_always_good")

RUNS = ("coord_readme", "gauss_wide")
CLI = (*RUNS, "verify_long")  # the CLI workloads; each reaches simulate
KERNELS = (*RUNS, "stream_api")
STREAM = ("stream_api",)
VERIFY = ("verify_long",)

# per-layer metric -> (unit, spans it reads, workloads on which the traced
# run must record a call to at least one of those spans)
LAYER_METRICS = {
    "harness.simulate.self_s": ("s", ("harness.simulate",), CLI),
    "harness.simulate.us_per_trial_step": ("us", ("harness.simulate",), CLI),
    "harness.run_experiment.self_s": ("s", ("harness.run_experiment",), RUNS),
    "harness.write_experiment_csv.s": ("s", ("harness.write_experiment_csv",), RUNS),
    "harness.csv_bytes": ("bytes", ("harness.write_experiment_csv",), RUNS),
    "harness.chunk_bytes": ("bytes-computed", ("harness.simulate",), CLI),
    "distributions.sample_block.s": ("s", ("distributions.sample_block",), CLI),
    "distributions.sample_block.calls": ("count", ("distributions.sample_block",), CLI),
    "distributions.sample_block.rows": ("count", ("distributions.sample_block",), CLI),
    "estimators.update.s": ("s", ("estimators.update",), KERNELS),
    "estimators.update.calls": ("count", ("estimators.update",), KERNELS),
    "estimators.update.us_per_row": ("us", ("estimators.update",), KERNELS),
    "estimators.init_vector.s": ("s", ("estimators.init_vector",), CLI),
    "estimators.step.self_s": ("s", ("estimators.step",), STREAM),
    "estimators.step.calls": ("count", ("estimators.step",), STREAM),
    "estimators.block_oja_step.s": ("s", ("estimators.block_oja_step",), STREAM),
    "estimators.block_oja_step.calls": ("count", ("estimators.block_oja_step",), STREAM),
    "estimators.block_oja_step.collapse_events":
        ("count", ("estimators.block_oja_step",), STREAM),
    "verify.check_pathwise.self_s": ("s", ("verify.check_pathwise",), VERIFY),
    "verify.check_pathwise.violations": ("count", ("verify.check_pathwise",), VERIFY),
    "verify.mc.self_s": ("s", MC_CHECKS, VERIFY),
    "verify.check_always_good.s": ("s", ("verify.check_always_good",), VERIFY),
    "verify.checks_failed": ("count", CHECKS, VERIFY),
    "theory.beta_step.calls": ("count", ("theory.beta_step",), VERIFY),
    "theory.beta_step.s": ("s", ("theory.beta_step",), VERIFY),
    "linalg.s": ("s", LINALG_SPANS, VERIFY),
    "cli.self_s": ("s", ("cli.main",), CLI),
    "trace_overhead_s": ("s", (), ()),
}


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name, fn, after=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        counts, clock = self.counts, time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(counts, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict[str, float]:
        names = np.array(self.names, dtype=object)
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        child = np.bincount(parents + 1, weights=dur, minlength=len(dur) + 1)[1:]
        self_t = dur - child
        parent_names = np.where(parents >= 0, names[np.maximum(parents, 0)], "")

        def pick(span_names):
            return np.isin(names, span_names)

        def total(span_names):
            # outermost spans of the group, so recursion is not counted twice
            sel = pick(span_names) & ~np.isin(parent_names, span_names)
            return float(dur[sel].sum())

        def self_time(span_names):
            return float(self_t[pick(span_names)].sum())

        def calls(span_names):
            return int(pick(span_names).sum())

        c = self.counts
        sim_self = self_time(["harness.simulate"])
        update_s = total(["estimators.update"])
        return {
            "harness.simulate.self_s": sim_self,
            "harness.simulate.us_per_trial_step": 1e6 * sim_self / c["trial_steps"]
            if c["trial_steps"] else 0.0,
            "harness.run_experiment.self_s": self_time(["harness.run_experiment"]),
            "harness.write_experiment_csv.s": total(["harness.write_experiment_csv"]),
            "harness.csv_bytes": c["csv_bytes"],
            "harness.chunk_bytes": c["chunk_bytes"],
            "distributions.sample_block.s": total(["distributions.sample_block"]),
            "distributions.sample_block.calls": calls(["distributions.sample_block"]),
            "distributions.sample_block.rows": c["sample_rows"],
            "estimators.update.s": update_s,
            "estimators.update.calls": calls(["estimators.update"]),
            "estimators.update.us_per_row": 1e6 * update_s / c["update_rows"]
            if c["update_rows"] else 0.0,
            "estimators.init_vector.s": total(["estimators.init_vector"]),
            "estimators.step.self_s": self_time(["estimators.step"]),
            "estimators.step.calls": calls(["estimators.step"]),
            "estimators.block_oja_step.s": total(["estimators.block_oja_step"]),
            "estimators.block_oja_step.calls": calls(["estimators.block_oja_step"]),
            "estimators.block_oja_step.collapse_events": c["collapse_events"],
            "verify.check_pathwise.self_s": self_time(["verify.check_pathwise"]),
            "verify.check_pathwise.violations": c["violations"],
            "verify.mc.self_s": self_time(list(MC_CHECKS)),
            "verify.check_always_good.s": total(["verify.check_always_good"]),
            "verify.checks_failed": c["checks_failed"],
            "theory.beta_step.calls": calls(["theory.beta_step"]),
            "theory.beta_step.s": total(["theory.beta_step"]),
            "linalg.s": total(list(LINALG_SPANS)),
            "cli.self_s": self_time(["cli.main"]),
        }

    def unrecorded(self, workload: str) -> list[str]:
        """Metrics mapped to this workload whose spans saw no call."""
        seen = set(self.names)
        return [
            metric
            for metric, (_, spans, workloads) in LAYER_METRICS.items()
            if workload in workloads and seen.isdisjoint(spans)
        ]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _on_simulate(counts, args, kwargs, out):
    from incpca import harness

    n_o, horizon = _arg(args, kwargs, 3, "n_o"), _arg(args, kwargs, 4, "horizon")
    trials, d = out.psi.shape[0], _arg(args, kwargs, 0, "dist").d
    counts["trial_steps"] += trials * (horizon - n_o)
    chunk = trials * min(harness.CHUNK, horizon - n_o) * d * 8
    counts["chunk_bytes"] = max(counts["chunk_bytes"], chunk)


def _on_sample_block(counts, args, kwargs, out):
    counts["sample_rows"] += _arg(args, kwargs, 2, "m")


def _on_update(counts, args, kwargs, out):
    x = _arg(args, kwargs, 1, "x")
    counts["update_rows"] += x.shape[0] if x.ndim == 2 else 1


def _on_check(counts, args, kwargs, out):
    counts["checks_failed"] += not out.passed


def _on_pathwise(counts, args, kwargs, out):
    _on_check(counts, args, kwargs, out)
    counts["violations"] += int(out.empirical)


def _on_block(counts, args, kwargs, out):
    counts["collapse_events"] = out.collapse_events


def _on_csv(counts, args, kwargs, out):
    counts["csv_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _targets():
    """(owner, attribute, span name, count hook) for every wrapped function."""
    from incpca import cli, distributions, estimators, harness, linalg, theory, verify

    targets = [
        (cli, "main", "cli.main", None),
        (harness, "run_experiment", "harness.run_experiment", None),
        (harness, "simulate", "harness.simulate", _on_simulate),
        (harness, "write_experiment_csv", "harness.write_experiment_csv", _on_csv),
        (distributions.CoordinateDistribution, "sample_block", "distributions.sample_block",
         _on_sample_block),
        (distributions.GaussianSpectrum, "sample_block", "distributions.sample_block",
         _on_sample_block),
        (estimators, "oja_update", "estimators.update", _on_update),
        (estimators, "krasulina_update", "estimators.update", _on_update),
        (estimators, "init_vector", "estimators.init_vector", None),
        (estimators, "step", "estimators.step", None),
        (estimators, "block_oja_step", "estimators.block_oja_step", _on_block),
        (verify, "check_pathwise", "verify.check_pathwise", _on_pathwise),
        (verify, "check_always_good", "verify.check_always_good", _on_check),
        (verify, "check_gradient", "verify.check_gradient", _on_check),
        (verify, "check_gamma_inequality", "verify.check_gamma_inequality", _on_check),
        (theory, "beta_step", "theory.beta_step", None),
    ]
    targets += [(verify, name.split(".")[1], name, _on_check) for name in MC_CHECKS]
    targets += [(linalg, f, f"linalg.{f}", None) for f in LINALG]
    return targets


@contextlib.contextmanager
def installed(tracer: Tracer):
    originals = []
    try:
        for owner, attr, name, hook in _targets():
            fn = owner.__dict__[attr]
            originals.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, hook))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
