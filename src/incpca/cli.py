"""Command-line interface.

Subcommands: run (multi-trial experiment), slope (log-log fit of a trace
CSV), counterexample (trap-frequency experiment), schedule (epoch ladder),
bound (convergence-bound curve), verify (Monte Carlo check suite; exits
nonzero on any failure).

Options can come from flags or from a key=value config file (--config);
flags take precedence.  INCPCA_OUTDIR overrides the default output
directory.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import harness, theory, verify
from .distributions import CoordinateDistribution, GaussianSpectrum
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


def _apply_config(args: argparse.Namespace, argv: list[str]) -> None:
    """Fill namespace slots from the config file unless given on the CLI."""
    if not getattr(args, "config", None):
        return
    explicit = {a.lstrip("-").replace("-", "_").split("=")[0] for a in argv if a.startswith("--")}
    for key, raw in _load_config_file(args.config).items():
        if key in explicit or not hasattr(args, key):
            continue
        current = getattr(args, key)
        if isinstance(current, bool):
            setattr(args, key, raw.lower() in ("1", "true", "yes"))
        elif isinstance(current, int) and not isinstance(current, bool):
            setattr(args, key, int(raw))
        elif isinstance(current, float):
            setattr(args, key, float(raw))
        else:
            setattr(args, key, raw)


def _make_dist(args):
    if args.dist == "coordinate":
        return CoordinateDistribution(p=args.p, sigma=args.sigma, d=args.d)
    if args.dist == "gaussian":
        lam = np.array([float(s) for s in args.eigenvalues.split(",")])
        return GaussianSpectrum(eigenvalues=lam, clip_radius=args.clip_radius)
    raise ValueError(f"unknown distribution {args.dist!r}")


def _out_path(args, default_name: str) -> str:
    if args.out:
        return args.out
    return os.path.join(harness.output_dir(), default_name)


def _add_common(p):
    p.add_argument("--config", help="key=value config file; flags take precedence")
    p.add_argument("--out", help="output file path")
    p.add_argument("--seed", type=int, default=0, help="master seed")


def _add_dist_args(p):
    p.add_argument("--dist", default="coordinate", choices=["coordinate", "gaussian"])
    p.add_argument("--p", type=float, default=0.2)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--eigenvalues", default="2,1", help="comma separated, descending")
    p.add_argument("--clip-radius", type=float, default=0.0, help="0 = 10*trace default")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="incpca", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="multi-trial convergence experiment")
    _add_common(run)
    _add_dist_args(run)
    run.add_argument("--rule", default=KRASULINA, choices=[KRASULINA, OJA])
    run.add_argument("--init", default="random_unit", choices=["random_unit", "first_point", "average_k"])
    run.add_argument("--init-k", type=int, default=0)
    run.add_argument("--c", type=float, default=0.0, help="learning-rate constant")
    run.add_argument("--c-o", type=float, default=0.0, help="gap-normalized rate constant")
    run.add_argument("--n-o", type=int, default=0)
    run.add_argument("--horizon", type=int, default=100_000)
    run.add_argument("--trials", type=int, default=100)
    run.add_argument("--grid-points", type=int, default=200)

    slope = sub.add_parser("slope", help="log-log slope of an experiment CSV")
    _add_common(slope)
    slope.add_argument("--input", required=True)
    slope.add_argument("--column", default="mean_psi")
    slope.add_argument("--n-min", type=float, required=True)
    slope.add_argument("--n-max", type=float, required=True)

    cx = sub.add_parser("counterexample", help="orthogonality-trap frequency")
    _add_common(cx)
    _add_dist_args(cx)
    cx.add_argument("--rule", default=KRASULINA, choices=[KRASULINA, OJA])
    cx.add_argument("--init", default="first_point", choices=["random_unit", "first_point", "average_k"])
    cx.add_argument("--init-k", type=int, default=0)
    cx.add_argument("--c", type=float, default=1.0)
    cx.add_argument("--trials", type=int, default=1000)
    cx.add_argument("--horizon", type=int, default=2000)

    sched = sub.add_parser("schedule", help="epoch ladder table")
    _add_common(sched)
    sched.add_argument("--delta", type=float, required=True)
    sched.add_argument("--d", type=int, required=True)
    sched.add_argument("--c-o", type=float, required=True)
    sched.add_argument("--c", type=float, required=True)
    sched.add_argument("--B", type=float, default=1.0)

    bound = sub.add_parser("bound", help="convergence-bound curve as CSV")
    _add_common(bound)
    bound.add_argument("--c-o", type=float, required=True)
    bound.add_argument("--B", type=float, default=1.0)
    bound.add_argument("--d", type=int, required=True)
    bound.add_argument("--delta", type=float, required=True)
    bound.add_argument("--n-o", type=int, required=True)
    bound.add_argument("--lambda1", type=float, required=True)
    bound.add_argument("--lambda2", type=float, required=True)
    bound.add_argument("--n-min", type=int, required=True)
    bound.add_argument("--n-max", type=int, required=True)
    bound.add_argument("--points", type=int, default=100)

    ver = sub.add_parser("verify", help="run the Monte Carlo check suite")
    _add_common(ver)
    ver.add_argument("--samples", type=int, default=100_000)
    ver.add_argument("--trials", type=int, default=50)
    ver.add_argument("--steps", type=int, default=2000)

    return ap


def _cmd_run(args) -> int:
    dist = _make_dist(args)
    config = harness.ExperimentConfig(
        dist=dist,
        rule=args.rule,
        init_mode=args.init,
        init_k=args.init_k or None,
        c=args.c or None,
        c_o=args.c_o or None,
        n_o=args.n_o,
        horizon=args.horizon,
        trials=args.trials,
        master_seed=args.seed,
        grid_points=args.grid_points,
    )
    agg = harness.run_experiment(config)
    c_label = args.c if args.c else f"co{args.c_o}"
    path = _out_path(args, f"experiment_{args.rule}_c{c_label}.csv")
    harness.write_experiment_csv(path, config, agg)
    print(path)
    return 0


def _read_experiment_csv(path: str, column: str):
    ns, vals = [], []
    with open(path) as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if header is None:
                header = cells
                idx = header.index(column)
                continue
            ns.append(float(cells[0]))
            vals.append(float(cells[idx]))
    return np.array(ns), np.array(vals)


def _cmd_slope(args) -> int:
    ns, vals = _read_experiment_csv(args.input, args.column)
    fit = harness.estimate_slope(ns, vals, args.n_min, args.n_max)
    print(f"slope={fit.slope!r} r_squared={fit.r_squared!r} window_shrunk={fit.window_shrunk}")
    return 0


def _cmd_counterexample(args) -> int:
    dist = _make_dist(args)
    frac, se = harness.counterexample_experiment(
        dist,
        init_mode=args.init,
        trials=args.trials,
        horizon=args.horizon,
        master_seed=args.seed,
        rule=args.rule,
        c=args.c,
        init_k=args.init_k or None,
    )
    print(f"wrong_fraction={frac!r} std_error={se!r}")
    return 0


def _cmd_schedule(args) -> int:
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
    ns = np.unique(np.rint(np.geomspace(args.n_min, args.n_max, args.points)).astype(int))
    path = _out_path(args, f"bound_co{args.c_o}.csv")
    harness.write_bound_csv(path, params, ns)
    print(path)
    return 0


def _cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    dist = CoordinateDistribution(p=0.2, sigma=0.5, d=10)
    A = dist.covariance()
    reports = [
        verify.check_gradient(A, n_points=100, h=1e-5, rng=rng),
        verify.check_gamma_inequality(np.geomspace(1e-3, 1e6, 500)),
        verify.check_mgf(d=10, t=5.0, n_samples=args.samples, rng=rng),
        verify.check_xi_expectation(
            dist, rng.standard_normal(10), n_samples=args.samples, rng=rng
        ),
        verify.check_z_expectation(
            dist, rng.standard_normal(10), gamma=0.1, n_samples=args.samples, rng=rng
        ),
        verify.check_pathwise(
            dist, KRASULINA, steps=args.steps, trials=args.trials, master_seed=args.seed
        ),
        verify.check_pathwise(
            dist, OJA, steps=args.steps, trials=args.trials, master_seed=args.seed, c=5.0
        ),
        verify.check_always_good(
            CoordinateDistribution(p=0.2, sigma=0.5, d=3),
            c=1.0,
            eps=0.05,
            horizon=20_000,
            trials=args.trials,
            master_seed=args.seed,
        ),
    ]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            verify.write_reports(fh, reports)
    else:
        verify.write_reports(sys.stdout, reports)
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "slope": _cmd_slope,
        "counterexample": _cmd_counterexample,
        "schedule": _cmd_schedule,
        "bound": _cmd_bound,
        "verify": _cmd_verify,
    }[args.command]
    try:
        _apply_config(args, argv)
        return handler(args)
    # bad input (including estimators.InitError) and unreadable or unwritable files
    except (ValueError, OSError) as exc:
        print(f"incpca: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
