"""Experiment runner: the trajectory engine, simulations, slopes, CSV files.

`trajectories` is the one implementation of the update recurrence: it
draws the samples, applies gamma_n = c/n, calls the `estimators` kernels
and renormalizes.  `verify.check_pathwise` and `simulate` are loops over
it, except that `simulate` runs Oja on `CoordinateDistribution` data
without `track_max` through `_oja_coordinate_states`: from the same draws
it evaluates the recurrence in closed form at the grid points (each step
scales one coordinate), and agrees with `trajectories` to rounding.
Krasulina, Gaussian data and `track_max` runs take `trajectories`.  Either
engine feeds one recording loop in `simulate`, which scores the states
with `linalg.potential`, the package's one potential.  Trials are
advanced in lockstep as rows of a (trials, d) array, which keeps the
per-step cost at a handful of vectorized operations.  Each trial still
draws from its own counter-based stream, so any trial's trajectory is a
pure function of (master_seed, trial_id) and is identical whether the
trial runs alone or inside a batch.  Every chunk is held step-major, so
each step reads its samples as one contiguous (trials, d) block, and is
filled on every CPU the process may use; a trial's stream is read by one
thread at a time, so its draws are identical whichever thread makes them.
A run's samples live in one reused buffer, filled by one loop
(`_chunk_blocks`) a whole chunk at a time when it fits CHUNK_BYTES, and
otherwise CHUNK_BYTES // (trials * d * 8) steps at a time: each trial's
rows are copied into its column from the next block of the trial's own
`sample_blocks` reader, which draws the rows of one `sample_block` call
and alone decides how that draw is split.  From 128 trials on, a thread
copies the blocks of T // SCRATCH_SHARE trials in one assignment, so each
step gets that many trials' values as one contiguous run instead of d
values per trial T * d apart.  So a yielded sample block is valid only
until the next one is drawn.
`step_batches` groups a run's steps for the batched potential and
pathwise checks.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import estimators, linalg
from .distributions import CoordinateDistribution, trial_rng
from .estimators import KRASULINA, OJA, RENORM_THRESHOLD, InitError

__all__ = [
    "ExperimentConfig",
    "SimResult",
    "SlopeFit",
    "simulate",
    "init_states",
    "trajectories",
    "step_batches",
    "run_experiment",
    "estimate_slope",
    "counterexample_experiment",
    "log_grid",
    "write_csv",
    "read_csv",
    "write_experiment_csv",
    "write_schedule_csv",
    "write_bound_csv",
]

# steps per sampling chunk; fixed so that chunk boundaries (and hence each
# trial's draw sequence) never depend on runtime conditions
CHUNK = 2048
# a chunk of more bytes than this is drawn a sub-block of steps at a time
CHUNK_BYTES = 64 * 2**20
# a thread copies blocks into a chunk T // SCRATCH_SHARE trials at a time, so
# its scratch holds at most 1/SCRATCH_SHARE of the chunk buffer: a fixed
# 1 MiB scratch took a 50-trial run past 1.5 chunks of traced memory
SCRATCH_SHARE = 64
ROWS = 4096  # (step, trial) rows per call of the potential and pathwise checks
TRAP_THRESHOLD = 0.99  # a final potential above this counts as trapped
# CPUs this process may run on: the threads that fill a chunk
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass(frozen=True)
class ExperimentConfig:
    dist: object
    rule: str = KRASULINA
    init_mode: str = "random_unit"
    init_k: int | None = None
    c: float | None = None
    c_o: float | None = None  # alternative to c; c = c_o / (2 gap)
    n_o: int = 0
    horizon: int = 100_000
    trials: int = 100
    master_seed: int = 0
    grid_points: int = 200

    def __post_init__(self):
        if (self.c is None) == (self.c_o is None):
            raise ValueError("give exactly one of c, c_o")
        if self.horizon <= self.n_o:
            raise ValueError("horizon must exceed n_o")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.grid_points < 1:
            raise ValueError("grid_points must be at least 1")

    def resolved_c(self) -> float:
        if self.c is not None:
            return self.c
        gt = self.dist.ground_truth()
        return self.c_o / (2.0 * gt.gap)


@dataclass
class SimResult:
    grid: np.ndarray  # recorded step counts
    psi: np.ndarray  # (trials, len(grid))
    failed: np.ndarray  # (trials,) init failures
    max_psi: np.ndarray | None = None  # running max over all steps >= n_o


def log_grid(n_o: int, horizon: int, points: int) -> np.ndarray:
    """Strictly increasing log-spaced integer step counts in [n_o, horizon]."""
    lo = max(n_o, 1)
    raw = np.geomspace(lo, horizon, num=points)
    grid = np.unique(np.rint(raw).astype(np.int64))
    if n_o == 0:
        grid = np.unique(np.concatenate([[0], grid]))
    return grid


def init_states(dist, rule, init_mode, init_k, master_seed, trial_ids):
    """Initial (trials, d) states, per-row init failures, per-trial streams.

    A failed row gets a placeholder state that callers mask out; Oja rows
    are normalized.
    """
    d = dist.d
    V = np.empty((len(trial_ids), d))
    failed = np.zeros(len(trial_ids), dtype=bool)
    rngs = []
    for row, tid in enumerate(trial_ids):
        rng = trial_rng(master_seed, tid)
        rngs.append(rng)
        try:
            v = estimators.init_vector(init_mode, d, dist=dist, rng=rng, k=init_k)
        except InitError:
            failed[row] = True
            v = np.zeros(d)
            v[0] = 1.0
        if rule == OJA:
            v = v / np.linalg.norm(v)
        V[row] = v
    return V, failed, rngs


def _on_threads(fill, T: int, workers: int) -> None:
    """fill(rows, stop) over range(T), cut into `workers` contiguous parts of rows.

    The calling thread runs part 1 while worker threads run parts 2..k, and
    then waits for them.  `stop` is one threading.Event for every part: it
    is set when a part raises, and when an exception reaches the calling
    thread while it waits (Ctrl-C is one), so a `fill` that checks it can
    end its part early.  The exception is raised once every part has ended.
    """
    workers = min(workers, T)
    cuts = [T * k // workers for k in range(workers + 1)]
    parts = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    stop = threading.Event()

    def run(rows):
        try:
            fill(rows, stop)
        except BaseException:
            stop.set()
            raise

    # the pool starts at most one thread per submitted part, so none for
    # one part; leaving the block waits for every worker, also after a raise
    with ThreadPoolExecutor(workers) as pool:
        try:
            futures = [pool.submit(run, part) for part in parts[1:]]
            fill(parts[0], stop)
            for future in futures:
                future.result()
        except BaseException:
            stop.set()
            raise


def _chunk_blocks(dist, rngs, m: int, buf):
    """The samples of an m-step chunk as step-major views of buf, in step order.

    buf is an (S, T, d) array, filled S steps at a time on CPUS threads
    (`_on_threads`): each trial's rows are copied into its column from the
    next block of its `sample_blocks(rng, m, S)` reader, which draws what
    one `sample_block(rng, m)` draws (a chunk of at most S steps is that one
    call).  Each block is drawn on the thread that copies it, and a trial's
    generator is read by one thread only.  A block is overwritten when the
    next is drawn.

    A trial's column is strided: its d values per step sit T * d apart.
    So with G = T // SCRATCH_SHARE >= 2, a thread stacks the n-row blocks
    of G consecutive trials of its part in a (G, n, d) scratch, at most
    1/SCRATCH_SHARE of buf, and copies that into their columns in one
    assignment, which writes G * d contiguous values per step; a part's
    last group may be shorter, and no group spans two parts.  Below 128
    trials each block is copied straight into its column.
    """
    S, T, d = buf.shape
    G = T // SCRATCH_SHARE
    readers = [dist.sample_blocks(rng, m, S) for rng in rngs]
    for a in range(0, m, S):
        X = buf[: m - a]
        cols = X.transpose(1, 0, 2)

        def fill(rows, stop):  # every part runs to its end
            if G < 2:
                for row in rows:
                    cols[row] = next(readers[row])
                return
            scratch = np.empty((G, len(X), d))
            for r in range(rows.start, rows.stop, G):
                group = range(r, min(r + G, rows.stop))
                for j, row in enumerate(group):
                    scratch[j] = next(readers[row])
                cols[r : group.stop] = scratch[: len(group)]

        _on_threads(fill, T, CPUS)
        yield X


def trajectories(dist, rule: str, c: float, n_o: int, horizon: int, V, rngs):
    """The update recurrence for the rows of V, one trial per row, in lockstep.

    Each trial draws its samples from its own stream in CHUNK-sized blocks;
    step n uses gamma_n = c/n.  Yields (n, gamma, x, V_prev, V) after each
    step n = n_o+1 .. horizon, where x holds the rows' samples.  The states
    are never written to afterwards: a Krasulina renormalization (at the
    end of a chunk) replaces the state with a new array.  x is valid until
    the next block of samples is drawn; callers that keep it copy it.

    The samples live in one step-major buffer, so that step i reads its
    samples X[i] as one contiguous (T, d) block.  It holds a whole chunk
    when one fits CHUNK_BYTES, and otherwise CHUNK_BYTES // (T d 8) steps
    (`_chunk_blocks`), so the run's memory is bounded and its draws are
    the same either way.
    """
    if rule not in (KRASULINA, OJA):
        raise ValueError(f"unknown rule {rule!r}")
    update = estimators.krasulina_update if rule == KRASULINA else estimators.oja_update
    T, d = V.shape
    steps = min(CHUNK, horizon - n_o, max(1, CHUNK_BYTES // (T * d * 8)))
    buf = np.empty((steps, T, d))
    n = n_o
    while n < horizon:
        for X in _chunk_blocks(dist, rngs, min(CHUNK, horizon - n), buf):
            for x in X:
                n += 1
                gamma = c / n
                V_prev, V = V, update(V, x, gamma)
                yield n, gamma, x, V_prev, V
        if rule == KRASULINA:
            norms = np.linalg.norm(V, axis=1)
            big = norms > RENORM_THRESHOLD
            if big.any():
                V = V.copy()
                V[big] /= norms[big, None]


def step_batches(steps, trials: int):
    """Consecutive items of `steps` in lists of max(1, ROWS // trials).

    The last list may be shorter; each list holds about ROWS (step, trial)
    rows for one batched potential or pathwise call.
    """
    steps = iter(steps)
    size = max(1, ROWS // trials)
    while batch := list(itertools.islice(steps, size)):
        yield batch


def _oja_coordinate_states(dist, c, n_o, horizon, V, rngs, grid):
    """Oja's states at the distinct points of `grid` past n_o, in closed form.

    Every sample of `dist` is +-s e_k, so an Oja step only scales
    coordinate k by 1 + gamma_n s^2 before the (scale-free) normalization:
    the state is |V| * exp(L) up to sign and scale, where L sums
    log1p(gamma_n s^2) into the sampled coordinates.  Each trial draws its
    support from its own stream in the same CHUNK-sized blocks as
    `trajectories`, so it sees the same samples: each trial reads its
    chunk's coordinate uniforms into its row of one (T, m) array, and one
    `CoordinateDistribution._coords` call maps them all.  Per chunk, one
    bincount sums the logs per (trial, grid segment, coordinate) and a
    cumsum over segments gives L at every grid point in the chunk.  Yields
    (n, W) at each point n > n_o, where the rows of W are the magnitudes
    exp(L - max L); with v* = e_1 they have the states' potential.  All
    arithmetic is row-local, so a row does not depend on the other rows
    of the batch.
    """
    T, d = V.shape
    points = np.unique(grid[grid > n_o])
    with np.errstate(divide="ignore"):
        logw = np.log(np.abs(V))  # log |state|, -inf on zero coordinates
    n = n_o
    while n < horizon:
        m = min(CHUNK, horizon - n)
        u, signs = np.empty((T, m)), np.empty(m)
        for row, rng in enumerate(rngs):
            rng.random(out=u[row])
            # the unused signs are still drawn, so the stream advances as in sample_block
            rng.random(out=signs)
        coords = dist._coords(u)
        del u, signs
        steps = np.arange(n + 1, n + m + 1)
        gamma = c / steps
        logs = np.where(coords == 0, np.log1p(gamma), np.log1p(gamma * dist.sigma**2))
        # step n belongs to the segment ending at the first grid point >= n
        seg = np.searchsorted(points, steps)
        nseg = int(seg[-1]) + 1
        bins = (np.arange(T)[:, None] * nseg + seg) * d + coords
        sums = np.bincount(bins.ravel(), weights=logs.ravel(), minlength=T * nseg * d)
        # freed before the next chunk's draws, as in `trajectories`
        del coords, logs, bins
        cum = logw[:, None, :] + np.cumsum(sums.reshape(T, nseg, d), axis=1)
        n += m
        done = int(np.searchsorted(points, n, side="right"))
        for j in range(done):
            L = cum[:, j]
            yield int(points[j]), np.exp(L - L.max(axis=1, keepdims=True))
        points = points[done:]
        logw = cum[:, -1]


def simulate(
    dist,
    rule: str,
    c: float,
    n_o: int,
    horizon: int,
    trials: int,
    master_seed: int,
    init_mode: str = "random_unit",
    init_k: int | None = None,
    grid=None,
    track_max: bool = False,
    trial_ids=None,
) -> SimResult:
    """Run `trials` lockstep trajectories from n_o to horizon.

    Records the potential at the requested nondecreasing grid of step
    counts (any sequence; every copy of a repeated point; always including
    the final step) and, optionally, its running maximum.  Oja on
    coordinate data without track_max runs in closed form
    (`_oja_coordinate_states`), everything else on `trajectories`; the
    potential is evaluated on about ROWS (step, trial) rows per call.
    """
    if not c > 0:  # nan fails too
        raise ValueError("c must be positive")
    if n_o < 0:
        raise ValueError("n_o must be >= 0")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if horizon < n_o:
        raise ValueError("horizon must be >= n_o")
    if trial_ids is None:
        trial_ids = list(range(trials))
    if len(trial_ids) == 0:
        raise ValueError("need at least one trial")
    grid = log_grid(n_o, horizon, 200) if grid is None else np.asarray(grid)
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be nondecreasing")
    grid = grid[(grid >= n_o) & (grid <= horizon)]
    if grid.size == 0 or grid[-1] != horizon:
        grid = np.append(grid, horizon)
    recorded = dict.fromkeys(grid.tolist())

    v_star = dist.ground_truth().v_star
    V, failed, rngs = init_states(dist, rule, init_mode, init_k, master_seed, trial_ids)
    if rule == OJA and isinstance(dist, CoordinateDistribution) and not track_max:
        steps = _oja_coordinate_states(dist, c, n_o, horizon, V, rngs, grid)
    else:
        steps = ((n, V) for n, _, _, _, V in trajectories(dist, rule, c, n_o, horizon, V, rngs))
    max_psi = np.zeros(len(trial_ids)) if track_max else None
    kept = (s for s in itertools.chain([(n_o, V)], steps) if track_max or s[0] in recorded)
    # a step size that overflows leaves nan or inf in a state, which persists
    # to the final step, always scored, where the potential raises
    # NonFiniteStateError; numpy's warnings on the way would only precede it
    with np.errstate(over="ignore", invalid="ignore"):
        for batch in step_batches(kept, len(trial_ids)):
            rows = linalg.potential(np.stack([V for _, V in batch]), v_star)  # (steps, trials)
            if track_max:
                np.maximum(max_psi, rows.max(axis=0), out=max_psi)
            recorded.update((n, row) for (n, _), row in zip(batch, rows) if n in recorded)
    psi = np.stack([recorded[n] for n in grid.tolist()], axis=1)
    return SimResult(grid=grid, psi=psi, failed=failed, max_psi=max_psi)


@dataclass(frozen=True)
class Aggregate:
    ns: np.ndarray
    mean: np.ndarray
    median: np.ndarray
    q10: np.ndarray
    q90: np.ndarray
    trials_ok: int


def run_experiment(config: ExperimentConfig) -> Aggregate:
    """All trials, aggregated per grid point in trial order."""
    res = simulate(
        config.dist,
        config.rule,
        config.resolved_c(),
        config.n_o,
        config.horizon,
        trials=config.trials,
        master_seed=config.master_seed,
        init_mode=config.init_mode,
        init_k=config.init_k,
        grid=log_grid(config.n_o, config.horizon, config.grid_points),
    )
    ok = ~res.failed
    if not ok.any():
        raise InitError("all trials failed at initialization")
    psi = res.psi[ok]
    return Aggregate(
        ns=res.grid,
        mean=psi.mean(axis=0),
        median=np.median(psi, axis=0),
        q10=np.quantile(psi, 0.1, axis=0),
        q90=np.quantile(psi, 0.9, axis=0),
        trials_ok=int(ok.sum()),
    )


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    r_squared: float
    window_shrunk: bool = False


def estimate_slope(ns, psi, n_min: float, n_max: float) -> SlopeFit:
    """Least-squares slope of ln(psi) against ln(n) over [n_min, n_max].

    Nonpositive potential values inside the window are dropped (window
    shrink, flagged); fewer than 5 usable points is an error, and so is a
    window that reaches n <= 0, where ln n is undefined.
    """
    if not n_min > 0:
        raise ValueError(f"need n_min > 0 for a log-log fit, got {n_min!r}")
    ns = np.asarray(ns, dtype=float)
    psi = np.asarray(psi, dtype=float)
    sel = (ns >= n_min) & (ns <= n_max)
    if not sel.any():
        raise ValueError("empty slope window")
    shrunk = bool(np.any(psi[sel] <= 0))
    sel &= psi > 0
    if sel.sum() < 5:
        raise ValueError("need at least 5 positive grid points in the window")
    lx, ly = np.log(ns[sel]), np.log(psi[sel])
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(slope=float(slope), r_squared=r2, window_shrunk=shrunk)


def counterexample_experiment(
    dist,
    init_mode: str,
    trials: int,
    horizon: int,
    master_seed: int,
    rule: str = KRASULINA,
    c: float = 1.0,
    init_k: int | None = None,
):
    """Fraction of trials whose final potential exceeds TRAP_THRESHOLD.

    Trials whose initialization fails outright (exact zero average) are
    counted as trapped: the cancellation that zeroes the init is the same
    orthogonality failure mode.
    """
    res = simulate(
        dist,
        rule,
        c,
        n_o=0,
        horizon=horizon,
        trials=trials,
        master_seed=master_seed,
        init_mode=init_mode,
        init_k=init_k,
        grid=[horizon],
    )
    final = res.psi[:, -1]
    wrong = np.where(res.failed, True, final > TRAP_THRESHOLD)
    frac = float(wrong.mean())
    se = math.sqrt(frac * (1.0 - frac) / trials)
    return frac, se


# ---------------------------------------------------------------------------
# CSV files: every table the package writes or reads goes through these two.


def _cell(x):
    # floats are written with repr() (shortest round-trip form), so that
    # identical runs produce byte-identical files
    return repr(float(x)) if isinstance(x, (float, np.floating)) else x


def write_csv(fh, header, rows, comments=(), trailer=()) -> None:
    """'# ' comment lines, the header, the rows (quoted as needed), '# ' trailer lines.

    Each line of a multi-line comment (a numpy array repr) gets its own '# '.
    """
    fh.writelines(f"# {line}\n" for text in comments for line in text.splitlines())
    out = csv.writer(fh, lineterminator="\n")
    out.writerow(header)
    out.writerows([_cell(x) for x in row] for row in rows)
    fh.writelines(f"# {line}\n" for text in trailer for line in text.splitlines())


def read_csv(fh) -> list[list[str]]:
    """The rows of a table, header first; blank and '#' lines are skipped."""
    return list(csv.reader(line for line in fh if line.strip()[:1] not in ("", "#")))


def write_experiment_csv(path, config: ExperimentConfig, agg: Aggregate) -> None:
    comments = [f"{f.name} = {getattr(config, f.name)!r}" for f in fields(config)]
    rows = zip(
        agg.ns.tolist(), agg.mean, agg.median, agg.q10, agg.q90, itertools.repeat(agg.trials_ok)
    )
    with open(path, "w", newline="") as fh:
        write_csv(fh, "n,mean_psi,median_psi,q10_psi,q90_psi,trials_ok".split(","), rows, comments)


def write_schedule_csv(path, schedule) -> None:
    audit = schedule.audit()
    ok = all(flag for _, flag in audit)
    trailer = [f"audit: {'pass' if ok else 'FAIL'}"]
    trailer += [f"audit {'ok' if flag else 'VIOLATED'}: {name}" for name, flag in audit]
    rows = ((j, n_j, eps_j) for j, (n_j, eps_j) in enumerate(schedule.pairs))
    with open(path, "w", newline="") as fh:
        write_csv(fh, ["j", "n_j", "eps_j"], rows, trailer=trailer)


def write_bound_csv(path, params, ns) -> None:
    from .theory import krasulina_bound

    # computed before the file is opened, so a bound that fails leaves no file
    rows = [(int(n), krasulina_bound(params, int(n))) for n in ns]
    with open(path, "w", newline="") as fh:
        write_csv(fh, ["n", "bound"], rows)
