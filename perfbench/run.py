"""Run one benchmark workload (or all four) and print its metrics as JSON.

    python3 perfbench/run.py --workload coord_readme --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics: the
median time of one pass, trial-steps per second, the set-up time of a fresh
interpreter (median of several) and peak resident memory.  Times are in
normalized seconds (see ``hostspeed``): wall time scaled by the host speed
sampled while it ran; the raw wall times are in the summary lines.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of ``spans.LAYER_METRICS``.  Every pass checks its
outputs; a pass whose checks fail counts as a failed operation.  The last
line of standard output is the result object; the lines before it record
the environment and a readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import workloads
from spans import LAYER_METRICS, Tracer, installed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
END_TO_END = {  # name -> unit
    "wall_norm_s": "s",
    "trial_steps_per_norm_s": "steps/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment() -> dict:
    import numpy as np
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "l3_cache": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": None,
        "blas_threads_env": {
            k: os.environ.get(k, "unset (library default)")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                env["l3_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def setup_times(workload: str, seed: int, workdir: str) -> tuple[list[float], list[float]]:
    """Fresh interpreter start until the workload's inputs are built.

    Returns the wall times and the normalized times.  Each set-up is scaled by
    the host speed its own process samples while it runs, on its own CPU:
    probing from this process would measure whichever CPU it wakes on.
    """
    walls, normalized = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve().parent / "setup_probe.py"),
             workload, str(seed), workdir],
            capture_output=True, text=True, timeout=60, check=True,
        )
        end, factor = map(float, out.stdout.split()[-2:])
        walls.append(end - t0)
        normalized.append((end - t0) * factor)
    return walls, normalized


@dataclass
class Measurement:
    walls: list[float] = field(default_factory=list)  # untraced passes, wall seconds
    norm_walls: list[float] = field(default_factory=list)  # the same, normalized
    traced_norm_walls: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)  # per traced pass
    unrecorded: set[str] = field(default_factory=set)  # coverage guard
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0

    def one_pass(self, work, tracer=None) -> tuple[float, float]:
        """Wall and normalized time of one checked pass."""
        with installed(tracer) if tracer else contextlib.nullcontext():
            with hostspeed.HostSpeed() as speed:
                t0 = time.perf_counter()
                result = work.run_pass()
                wall = time.perf_counter() - t0
        ops = work.check(result)
        self.attempted += len(ops)
        for op in ops:
            if op.failures:
                self.failed += 1
                self.failures += [f"{op.name}: {f}" for f in op.failures]
        return wall, wall * speed.factor()


def measure(work, seconds: float, traced: bool) -> Measurement:
    """Passes until the next one would end after `seconds`; at least one.

    When traced, each iteration is an untraced pass followed by a traced one.
    """
    m = Measurement()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wall, norm = m.one_pass(work)
        m.walls.append(wall)
        m.norm_walls.append(norm)
        if traced:
            tracer = Tracer()
            m.traced_norm_walls.append(m.one_pass(work, tracer)[1])
            m.layers.append(tracer.metrics())
            m.unrecorded.update(tracer.unrecorded(work.name))
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return m


def run_one(args, spec, seconds) -> int:
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        print("# env " + json.dumps(environment(), sort_keys=True))
        setups = norm_setups = []
        if not args.trace:
            setups, norm_setups = setup_times(args.workload, args.seed, workdir)
        work = workloads.build(args.workload, args.seed, workdir)
        m = measure(work, seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for f in m.failures:
        print(f"# check failed: {f}", file=sys.stderr)
    for label, times in (("wall_s", m.walls), ("wall_norm_s", m.norm_walls)):
        q1, mid, q3 = quartiles(times)
        print(f"# {args.workload}: {label} median {mid:.4f} q1 {q1:.4f} q3 {q3:.4f} over "
              f"{len(times)} passes ({' '.join(f'{w:.3f}' for w in times)})")
    print(f"# {args.workload}: {m.failed} of {m.attempted} operations failed")
    wall = statistics.median(m.norm_walls)
    if setups:
        print(f"# {args.workload}: set-up wall s {' '.join(f'{w:.3f}' for w in setups)}; "
              f"normalized {' '.join(f'{w:.3f}' for w in norm_setups)}")
    if args.trace:
        if m.unrecorded:
            print(f"coverage guard: no call recorded on {args.workload} for "
                  + ", ".join(sorted(m.unrecorded)), file=sys.stderr)
            return 3
        values = {k: statistics.median(p[k] for p in m.layers) for k in m.layers[0]}
        values["trace_overhead_s"] = statistics.median(m.traced_norm_walls) - wall
        units = {k: unit for k, (unit, _, _) in LAYER_METRICS.items()}
    else:
        values = {
            "wall_norm_s": wall,
            "trial_steps_per_norm_s": work.trial_steps / wall,
            "setup_s": statistics.median(norm_setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    declared = {d["name"] for d in spec["per_layer" if args.trace else "end_to_end"]}
    if declared != set(values):
        print("perfbench: metrics differ from BENCHMARK.json: "
              + ", ".join(sorted(declared ^ set(values))), file=sys.stderr)
        return 4
    for name, value in values.items():
        print(f"# {args.workload} {name} = {value:.6g} {units[name]}")
    print(f"# {args.workload} error_rate = {m.failed / m.attempted:.6g} failed/attempted")
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def run_all(args, seconds) -> int:
    """Each workload in its own fresh process, one after another."""
    attempted = failed = 0
    metrics = {}
    for name in workloads.NAMES:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines:
            print(f"workload {name} exited with status {out.returncode}", file=sys.stderr)
            return out.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (SRC / "incpca" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'incpca'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        return run_all(args, seconds)
    return run_one(args, spec, seconds)


if __name__ == "__main__":
    raise SystemExit(main())
