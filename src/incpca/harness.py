"""Experiment runner: the trajectory engine, simulations, slopes, CSV output.

`trajectories` is the one implementation of the update recurrence: it
draws the samples, applies gamma_n = c/n, calls the `estimators` kernels
and renormalizes.  `simulate` (and through it every experiment) and
`verify.check_pathwise` are loops over it.  Trials are advanced in lockstep
as rows of a (trials, d) array, which keeps the per-step cost at a handful
of vectorized operations.  Each trial still draws from its own
counter-based stream, so any trial's trajectory is a pure function of
(master_seed, trial_id) and is identical whether the trial runs alone or
inside a batch.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from . import estimators
from .distributions import trial_rng
from .estimators import KRASULINA, OJA, RENORM_THRESHOLD, InitError

__all__ = [
    "ExperimentConfig",
    "SimResult",
    "SlopeFit",
    "simulate",
    "init_states",
    "trajectories",
    "run_experiment",
    "estimate_slope",
    "counterexample_experiment",
    "log_grid",
    "write_experiment_csv",
    "write_schedule_csv",
    "write_bound_csv",
]

# steps per sampling chunk; fixed so that chunk boundaries (and hence each
# trial's draw sequence) never depend on runtime conditions
CHUNK = 2048


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


def trajectories(dist, rule: str, c: float, n_o: int, horizon: int, V, rngs):
    """The update recurrence for the rows of V, one trial per row, in lockstep.

    Each trial draws its samples from its own stream in CHUNK-sized blocks;
    step n uses gamma_n = c/n.  Yields (n, gamma, x, V_prev, V) after each
    step n = n_o+1 .. horizon, where x holds the rows' samples.  Yielded
    arrays are never written to afterwards: a Krasulina renormalization
    (at the end of a chunk) replaces the state with a new array.
    """
    update = estimators.krasulina_update if rule == KRASULINA else estimators.oja_update
    T, d = V.shape
    n = n_o
    while n < horizon:
        m = min(CHUNK, horizon - n)
        X = np.empty((T, m, d))
        for row, rng in enumerate(rngs):
            X[row] = dist.sample_block(rng, m)
        for i in range(m):
            n += 1
            gamma = c / n
            x = X[:, i, :]
            V_prev, V = V, update(V, x, gamma)
            yield n, gamma, x, V_prev, V
        # free this chunk before the next is allocated and filled: a view
        # kept into it would double peak memory on wide batches
        del X, x
        if rule == KRASULINA:
            norms = np.linalg.norm(V, axis=1)
            big = norms > RENORM_THRESHOLD
            if big.any():
                V = V.copy()
                V[big] /= norms[big, None]


def _psi_rows(V, v_star):
    dots = V @ v_star
    nsq = np.einsum("ij,ij->i", V, V)
    return np.clip(1.0 - dots * dots / nsq, 0.0, 1.0)


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
    grid: np.ndarray | None = None,
    track_max: bool = False,
    trial_ids=None,
) -> SimResult:
    """Run `trials` lockstep trajectories from n_o to horizon.

    Records the potential at the requested grid of step counts (always
    including the final step) and, optionally, its running maximum; the
    potential is evaluated only at those steps.
    """
    v_star = dist.ground_truth().v_star
    if trial_ids is None:
        trial_ids = list(range(trials))
    if grid is None:
        grid = log_grid(n_o, horizon, 200)
    grid = grid[(grid >= n_o) & (grid <= horizon)]
    if grid.size == 0 or grid[-1] != horizon:
        grid = np.append(grid, horizon)

    V, failed, rngs = init_states(dist, rule, init_mode, init_k, master_seed, trial_ids)
    psi_out = np.empty((len(trial_ids), grid.size))
    gi = 0
    psi = _psi_rows(V, v_star)
    max_psi = psi.copy() if track_max else None
    while gi < grid.size and grid[gi] <= n_o:
        psi_out[:, gi] = psi
        gi += 1

    for n, _, _, _, V in trajectories(dist, rule, c, n_o, horizon, V, rngs):
        on_grid = gi < grid.size and n == grid[gi]
        if track_max or on_grid:
            psi = _psi_rows(V, v_star)
            if track_max:
                np.maximum(max_psi, psi, out=max_psi)
            if on_grid:
                psi_out[:, gi] = psi
                gi += 1
    return SimResult(grid=grid, psi=psi_out, failed=failed, max_psi=max_psi)


@dataclass(frozen=True)
class Aggregate:
    ns: np.ndarray
    mean: np.ndarray
    median: np.ndarray
    q10: np.ndarray
    q90: np.ndarray
    trials_ok: int
    trials_failed: int


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
        trials_failed=int(res.failed.sum()),
    )


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    r_squared: float
    window_shrunk: bool = False


def estimate_slope(ns, psi, n_min: float, n_max: float) -> SlopeFit:
    """Least-squares slope of ln(psi) against ln(n) over [n_min, n_max].

    Nonpositive potential values inside the window are dropped (window
    shrink, flagged); fewer than 5 usable points is an error.
    """
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
    threshold: float = 0.99,
):
    """Fraction of trials whose final potential exceeds the trap threshold.

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
    )
    final = res.psi[:, -1]
    wrong = np.where(res.failed, True, final > threshold)
    frac = float(wrong.mean())
    se = math.sqrt(frac * (1.0 - frac) / trials)
    return frac, se


# ---------------------------------------------------------------------------
# CSV output.  Floats are written with repr() (shortest round-trip form) so
# that identical runs produce byte-identical files.


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def output_dir(default: str = ".") -> str:
    return os.environ.get("INCPCA_OUTDIR", default)


def config_header_lines(config: ExperimentConfig) -> list[str]:
    lines = []
    for f in fields(config):
        # a numpy array repr can span lines; each one must stay a comment
        text = f"{f.name} = {getattr(config, f.name)!r}"
        lines += [f"# {line}" for line in text.splitlines()]
    return lines


def write_experiment_csv(path, config: ExperimentConfig, agg: Aggregate) -> None:
    with open(path, "w", newline="") as fh:
        for line in config_header_lines(config):
            fh.write(line + "\n")
        fh.write("n,mean_psi,median_psi,q10_psi,q90_psi,trials_ok\n")
        for i, n in enumerate(agg.ns):
            fh.write(
                ",".join(
                    [
                        str(int(n)),
                        _fmt(agg.mean[i]),
                        _fmt(agg.median[i]),
                        _fmt(agg.q10[i]),
                        _fmt(agg.q90[i]),
                        str(agg.trials_ok),
                    ]
                )
                + "\n"
            )


def write_schedule_csv(path, schedule) -> None:
    audit = schedule.audit()
    with open(path, "w", newline="") as fh:
        fh.write("j,n_j,eps_j\n")
        for j, (n_j, eps_j) in enumerate(schedule.pairs):
            fh.write(f"{j},{n_j},{_fmt(eps_j)}\n")
        ok = all(flag for _, flag in audit)
        fh.write(f"# audit: {'pass' if ok else 'FAIL'}\n")
        for name, flag in audit:
            fh.write(f"# audit {'ok' if flag else 'VIOLATED'}: {name}\n")


def write_bound_csv(path, params, ns) -> None:
    from .theory import krasulina_bound

    with open(path, "w", newline="") as fh:
        fh.write("n,bound\n")
        for n in ns:
            fh.write(f"{int(n)},{_fmt(krasulina_bound(params, int(n)))}\n")
