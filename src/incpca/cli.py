"""Command-line interface.

Subcommands: run (multi-trial experiment), slope (log-log fit of a trace
CSV), counterexample (trap-frequency experiment), schedule (epoch ladder),
bound (convergence-bound curve), verify (Monte Carlo check suite; exits
nonzero on any failure).

Options can come from flags or from a key=value config file (--config):
its values become the subcommand's defaults, converted by each flag's own
type, so a flag on the command line wins, even abbreviated.  Every bad flag,
config value, file or input prints one line `incpca: error: ...` and exits
2.  INCPCA_OUTDIR overrides the default output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from . import harness, theory, verify
from .distributions import CoordinateDistribution, GaussianSpectrum, RejectionError
from .estimators import KRASULINA, OJA


def _load_config_file(path: str) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # reported by `main` as one line, like every other bad input
        raise ValueError(message)

    def _get_value(self, action, arg_string):
        value = super()._get_value(action, arg_string)
        if arg_string is action.default:
            # argparse checks `choices` only for values given as flags; a
            # config file's value is a default, converted here when no flag
            # overrides it, so it gets the flag's check and message
            self._check_value(action, value)
        return value


def _finite(text: str) -> float:
    """The type of every float flag: a float that is neither nan nor +-inf."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return value


def _float_list(text: str) -> str:
    """--eigenvalues' type: the text itself, once each comma separated item is a float.

    The parsed value stays text, as `_make_dist` and other readers of the
    parser's namespace take it.
    """
    try:
        for s in text.split(","):
            float(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _make_dist(args):
    if args.dist == "coordinate":
        return CoordinateDistribution(p=args.p, sigma=args.sigma, d=args.d)
    # "gaussian": the parser checks a flag's and a config file's --dist against its choices
    lam = np.array([float(s) for s in args.eigenvalues.split(",")])
    return GaussianSpectrum(eigenvalues=lam, clip_radius=args.clip_radius)


def _out_path(args, default_name: str) -> str:
    return args.out or os.path.join(os.environ.get("INCPCA_OUTDIR", "."), default_name)


def _add_dist_args(p):
    p.add_argument("--dist", default="coordinate", choices=["coordinate", "gaussian"])
    p.add_argument("--p", type=_finite, default=0.2)
    p.add_argument("--sigma", type=_finite, default=0.5)
    p.add_argument("--d", type=int, default=10)
    p.add_argument(
        "--eigenvalues", type=_float_list, default="2,1", help="comma separated, descending"
    )
    p.add_argument("--clip-radius", type=_finite, default=0.0, help="0 = 10*trace default")


def build_parser(
    config: dict[str, str] | None = None, required: bool = True
) -> argparse.ArgumentParser:
    """The parser; `config` values become each subcommand's defaults.

    A default from `config` is converted by its flag's type and checked
    against its flag's choices when the subcommand parses without that flag.
    A flag that `config` supplies is no longer required, and with
    `required=False` none is: that parser only finds --config.
    """
    ap = _Parser(prog="incpca", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="multi-trial convergence experiment")
    _add_dist_args(run)
    run.add_argument("--rule", default=KRASULINA, choices=[KRASULINA, OJA])
    run.add_argument("--init", default="random_unit", choices=["random_unit", "first_point", "average_k"])
    run.add_argument("--init-k", type=int)
    run.add_argument("--c", type=_finite, help="learning-rate constant")
    run.add_argument("--c-o", type=_finite, help="gap-normalized rate constant")
    run.add_argument("--n-o", type=int, default=0)
    run.add_argument("--horizon", type=int, default=100_000)
    run.add_argument("--trials", type=int, default=100)
    run.add_argument("--grid-points", type=int, default=200)

    slope = sub.add_parser("slope", help="log-log slope of an experiment CSV")
    slope.add_argument("--input", required=True)
    slope.add_argument("--column", default="mean_psi")
    slope.add_argument("--n-min", type=_finite, required=True)
    slope.add_argument("--n-max", type=_finite, required=True)

    cx = sub.add_parser("counterexample", help="orthogonality-trap frequency")
    _add_dist_args(cx)
    cx.add_argument("--rule", default=KRASULINA, choices=[KRASULINA, OJA])
    cx.add_argument("--init", default="first_point", choices=["random_unit", "first_point", "average_k"])
    cx.add_argument("--init-k", type=int)
    cx.add_argument("--c", type=_finite, default=1.0)
    cx.add_argument("--trials", type=int, default=1000)
    cx.add_argument("--horizon", type=int, default=2000)

    sched = sub.add_parser("schedule", help="epoch ladder table")
    sched.add_argument("--delta", type=_finite, required=True)
    sched.add_argument("--d", type=int, required=True)
    sched.add_argument("--c-o", type=_finite, required=True)
    sched.add_argument("--c", type=_finite, required=True)
    sched.add_argument("--B", type=_finite, default=1.0)

    bound = sub.add_parser("bound", help="convergence-bound curve as CSV")
    bound.add_argument("--c-o", type=_finite, required=True)
    bound.add_argument("--B", type=_finite, default=1.0)
    bound.add_argument("--d", type=int, required=True)
    bound.add_argument("--delta", type=_finite, required=True)
    bound.add_argument("--n-o", type=int, required=True)
    bound.add_argument("--lambda1", type=_finite, required=True)
    bound.add_argument("--lambda2", type=_finite, required=True)
    bound.add_argument("--n-min", type=int, required=True)
    bound.add_argument("--n-max", type=int, required=True)
    bound.add_argument("--points", type=int, default=100)

    ver = sub.add_parser("verify", help="run the Monte Carlo check suite")
    ver.add_argument("--samples", type=int, default=100_000)
    ver.add_argument("--trials", type=int, default=50)
    ver.add_argument("--steps", type=int, default=2000)

    # a subcommand takes --seed and --out only where its handler reads them
    for p in (run, cx, ver):
        p.add_argument("--seed", type=int, default=0, help="master seed")
    for p in (run, sched, bound, ver):
        p.add_argument("--out", help="output file path")
    config = config or {}
    for p in sub.choices.values():
        p.add_argument("--config", help="key=value config file; flags take precedence")
        p.set_defaults(**{a.dest: config[a.dest] for a in p._actions if a.dest in config})
        for a in p._actions:
            a.required = a.required and required and a.dest not in config
    return ap


@contextlib.contextmanager
def _naming_the_run_flags(args, rate: str, c: float):
    """Check a simulation's step-size constant c, and name the flag behind each error.

    `rate` is the step-size flag as given, such as "--c 1.0": c is --c, or
    c_o / (2 gap) for `run`'s --c-o, which can be 0 or inf for a finite
    flag.  An ArithmeticError (the states left the floating-point range)
    names that flag, and a Gaussian draw that gives up names --clip-radius.
    """
    if not 0 < c < math.inf:
        raise ValueError(f"{rate}: need a positive, finite step-size constant, got c = {c!r}")
    try:
        yield
    except ArithmeticError as exc:
        raise ArithmeticError(f"{rate}: {exc}") from None
    except RejectionError as exc:
        raise ValueError(f"--clip-radius {args.clip_radius!r}: {exc}") from None


def _cmd_run(args) -> int:
    dist = _make_dist(args)
    config = harness.ExperimentConfig(
        dist=dist,
        rule=args.rule,
        init_mode=args.init,
        init_k=args.init_k,
        c=args.c,
        c_o=args.c_o,
        n_o=args.n_o,
        horizon=args.horizon,
        trials=args.trials,
        master_seed=args.seed,
        grid_points=args.grid_points,
    )
    rate = f"--c {args.c!r}" if args.c is not None else f"--c-o {args.c_o!r}"
    with _naming_the_run_flags(args, rate, config.resolved_c()):
        agg = harness.run_experiment(config)
    c_label = args.c if args.c is not None else f"co{args.c_o}"
    path = _out_path(args, f"experiment_{args.rule}_c{c_label}.csv")
    harness.write_experiment_csv(path, config, agg)
    print(path)
    return 0


def _cmd_slope(args) -> int:
    with open(args.input, newline="") as fh:
        header, *rows = harness.read_csv(fh) or [[]]
    if args.column not in header:
        raise ValueError(f"{args.input}: no column {args.column!r}")
    j = header.index(args.column)
    ns = np.array([float(row[0]) for row in rows])
    vals = np.array([float(row[j]) for row in rows])
    fit = harness.estimate_slope(ns, vals, args.n_min, args.n_max)
    print(f"slope={fit.slope!r} r_squared={fit.r_squared!r} window_shrunk={fit.window_shrunk}")
    return 0


def _cmd_counterexample(args) -> int:
    dist = _make_dist(args)
    with _naming_the_run_flags(args, f"--c {args.c!r}", args.c):
        frac, se = harness.counterexample_experiment(
            dist,
            init_mode=args.init,
            trials=args.trials,
            horizon=args.horizon,
            master_seed=args.seed,
            rule=args.rule,
            c=args.c,
            init_k=args.init_k,
        )
    print(f"wrong_fraction={frac!r} std_error={se!r}")
    return 0


@contextlib.contextmanager
def _naming_the_flags(args):
    """Re-raise an ArithmeticError as one that lists the subcommand's flags and values."""
    try:
        yield
    except ArithmeticError as exc:
        flags = " ".join(
            f"--{name.replace('_', '-')} {value!r}"
            for name, value in vars(args).items()
            if name not in ("command", "out", "config")
        )
        # OverflowError(34, 'Numerical result out of range') ends in its message
        detail = exc.args[-1] if exc.args else type(exc).__name__
        raise ArithmeticError(f"{args.command} {flags}: {detail}") from None


def _cmd_schedule(args) -> int:
    with _naming_the_flags(args):
        sched = theory.epoch_schedule(args.delta, args.d, args.c_o, args.c, args.B)
    path = _out_path(args, f"schedule_d{args.d}_delta{args.delta}.csv")
    harness.write_schedule_csv(path, sched)
    print(path)
    return 0 if all(ok for _, ok in sched.audit()) else 1


def _cmd_bound(args) -> int:
    params = theory.BoundParams(
        c_o=args.c_o,
        B=args.B,
        d=args.d,
        delta=args.delta,
        n_o=args.n_o,
        lambda1=args.lambda1,
        lambda2=args.lambda2,
    )
    if not 1 <= args.n_min <= args.n_max:
        raise ValueError("need 1 <= --n-min <= --n-max")
    if args.points < 1:
        raise ValueError("need --points >= 1")
    ns = harness.log_grid(args.n_min, args.n_max, args.points)
    path = _out_path(args, f"bound_co{args.c_o}.csv")
    with _naming_the_flags(args):
        harness.write_bound_csv(path, params, ns)
    print(path)
    return 0


def _run_chains(chains) -> list:
    """The reports of every chain's checks, in chain order.

    Each chain is one row of `harness._on_threads`, which runs the chains
    side by side and owns how they stop: a chain ends before its next check
    once `stop` is set.
    """
    reports = [[] for _ in chains]

    def run(rows, stop):
        for row in rows:
            for check in chains[row]:
                if stop.is_set():
                    return
                reports[row].append(check())

    harness._on_threads(run, len(chains), harness.CPUS)
    return [rep for chain in reports for rep in chain]


def _cmd_verify(args) -> int:
    if args.samples < 2:
        raise ValueError("need at least 2 samples")
    if args.trials < 1:
        raise ValueError("need at least one trial")
    if args.steps < 1:
        raise ValueError("need at least one step")
    rng = np.random.default_rng(args.seed)
    dist = CoordinateDistribution(p=0.2, sigma=0.5, d=10)
    A = dist.covariance()
    # the checks that read rng, in order, and those seeded by --seed alone
    rng_chain = [
        lambda: verify.check_gradient(A, n_points=100, h=1e-5, rng=rng),
        lambda: verify.check_gamma_inequality(np.geomspace(1e-3, 1e6, 500)),
        lambda: verify.check_mgf(d=10, t=5.0, n_samples=args.samples, rng=rng),
        lambda: verify.check_xi_expectation(
            dist, rng.standard_normal(10), n_samples=args.samples, rng=rng
        ),
        lambda: verify.check_z_expectation(
            dist, rng.standard_normal(10), gamma=0.1, n_samples=args.samples, rng=rng
        ),
    ]
    seeded_chain = [
        lambda: verify.check_pathwise(
            dist, KRASULINA, steps=args.steps, trials=args.trials, master_seed=args.seed
        ),
        lambda: verify.check_pathwise(
            dist, OJA, steps=args.steps, trials=args.trials, master_seed=args.seed, c=5.0
        ),
        lambda: verify.check_always_good(
            CoordinateDistribution(p=0.2, sigma=0.5, d=3),
            c=1.0,
            eps=0.05,
            horizon=20_000,
            trials=args.trials,
            master_seed=args.seed,
        ),
    ]
    reports = _run_chains([rng_chain, seeded_chain])
    if args.out:
        with open(args.out, "w", newline="") as fh:
            verify.write_reports(fh, reports)
    else:
        verify.write_reports(sys.stdout, reports)
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    handlers = {
        "run": _cmd_run,
        "slope": _cmd_slope,
        "counterexample": _cmd_counterexample,
        "schedule": _cmd_schedule,
        "bound": _cmd_bound,
        "verify": _cmd_verify,
    }
    try:
        config_path = build_parser(required=False).parse_args(argv).config
        config = _load_config_file(config_path) if config_path else None
        args = build_parser(config).parse_args(argv)
        return handlers[args.command](args)
    # bad flags and input (including estimators.InitError), unreadable or
    # unwritable files, and inputs whose arithmetic overflows or divides by zero
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"incpca: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
